"""Outside-in span recorder for the rwslab layers.

The recorder times calls into the public functions named in ``TARGETS``
without editing the package: ``install`` replaces each target in every
``rwslab`` namespace that bound it (the defining module, modules that
imported it by name, and the package re-exports), so a call is recorded
whichever name it went through.  ``uninstall`` puts the originals back.

Each span keeps its name, start, end and the index of its parent span.
The package runs single-threaded by default, so spans nest strictly and a
span's self time is its duration minus the durations of its direct
children.  Counters are added at the same boundaries, after the call, so
the work they describe is counted where it happens.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

import numpy as np


def _field_coeffs(field_) -> int:
    return sum(int(lv.size) for lv in field_.levels)


def _synthesize_counts(rec, a, result, elapsed):
    # (field, j, R) passes already made earlier in the same job; the field
    # is held until the job ends so its id cannot be reused meanwhile.
    field_, passes, res = a["field_"], a["j_trunc"] + 1, a["resolution"]
    rec.job_fields.append(field_)
    repeats = 0
    for j in range(passes):
        key = (id(field_), j, res)
        repeats += key in rec.job_passes
        rec.job_passes.add(key)
    live = sum(int(np.count_nonzero(field_.levels[j])) for j in range(passes))
    return {"scale_passes": passes, "repeat_passes": repeats, "live_coeffs": live}


# "<module>.<function>": (counter names, counter), where
# counter(recorder, bound_args, result, elapsed) returns those counters.
TARGETS = {
    "wavelets.cascade_evaluate": ((), None),
    "wavelets.periodized_grid": ((), None),
    "laws.draw_array": (("draws",), lambda rec, a, r, t: {"draws": int(r.size)}),
    "fields.step_function_coefficients": ((), None),
    "fields.uniform_decay_field": (("coeffs",), lambda rec, a, r, t: {
        "coeffs": _field_coeffs(r)}),
    "fields.scale_envelope": ((), None),
    "fields.field_digest": ((), None),
    "fields.check_criterion": ((), None),
    "synthesis.synthesize": (("scale_passes", "repeat_passes", "live_coeffs"),
                             _synthesize_counts),
    "synthesis.randomized_field": (("coeffs",), lambda rec, a, r, t: {
        "coeffs": _field_coeffs(r)}),
    "synthesis.randomized_synthesize": ((), None),
    "synthesis.fourier_sawtooth": (("mode_samples",), lambda rec, a, r, t: {
        "mode_samples": a["m_terms"] * 2 ** a["resolution"]}),
    "synthesis.wiener_brownian": (("mode_samples",), lambda rec, a, r, t: {
        "mode_samples": a["m_terms"] * 2 ** a["resolution"]}),
    "synthesis.export_path_csv": ((), None),
    "estimators.analysis_field": (("scale_passes",), lambda rec, a, r, t: {
        "scale_passes": a["j_hi"] + 1}),
    "estimators.sup_growth": (("scale_passes",), lambda rec, a, r, t: {
        "scale_passes": max(int(c) for c in a["truncations"]) + 1}),
    "estimators.modulus_ratio": ((), None),
    "estimators.hmin_estimate": ((), None),
    "estimators.export_profile_csv": ((), None),
    "constructions.coefficient_exceedances": ((), None),
    "constructions.block_witness_process": ((), None),
    "constructions.divergence_scale_field": ((), None),
    "util.write_csv": (("rows", "bytes"), lambda rec, a, r, t: {
        "rows": len(a["columns"][0][1]), "bytes": os.path.getsize(a["path"])}),
    "util.sha256_file": (("bytes",), lambda rec, a, r, t: {
        "bytes": os.path.getsize(a["path"])}),
    "experiments.resolve_config": ((), None),
    # Inclusive time per experiment, next to the per-default figures; the
    # counter is named after the experiment.
    "experiments.run_experiment": ((), lambda rec, a, r, t: {
        f"{a['name']}.wall_s": t}),
    "cli.main": ((), None),
}


def rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Bind ``replacement`` wherever an ``rwslab`` namespace binds ``original``.

    Returns the (module, name, original) bindings for ``restore``.
    """
    patched = []
    for module_name, module in list(sys.modules.items()):
        if module_name == "rwslab" or module_name.startswith("rwslab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    patched.append((module, attr, original))
    return patched


def restore(patched: list[tuple[object, str, object]]) -> None:
    for module, attr, original in reversed(patched):
        setattr(module, attr, original)


class Recorder:
    """Spans and counters of the calls made while installed."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = {}
        self.job_passes: set = set()
        self.job_fields: list = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin_job(self) -> None:
        self.job_passes.clear()
        self.job_fields.clear()

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in count(self, bound.arguments, result,
                                        end - start).items():
                    key = f"{name}.{key}"
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        return wrapper

    def install(self) -> None:
        for target, (_, count) in TARGETS.items():
            module_name, fn_name = target.split(".")
            original = getattr(sys.modules[f"rwslab.{module_name}"], fn_name)
            self._patched += rebind(original, self._wrap(target, original, count))

    def uninstall(self) -> None:
        restore(self._patched)
        self._patched.clear()

    def totals(self) -> dict[str, float]:
        """Per target: calls and self seconds, plus the counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict(self.counts)
        for i, (name, start, end, _) in enumerate(self.spans):
            for stat, value in (("calls", 1), ("self_s", end - start - child[i])):
                key = f"{name}.{stat}"
                out[key] = out.get(key, 0) + value
        return out
