"""Command line front end: ``rws-lab run <experiment> [options]``.

Exit codes: 0 success, 2 invalid config (unknown experiment or key, bad
value, unreadable config file, infeasible parameters), 3 failure during the
run: a numerical failure, or any other exception, reported as
``error[internal]``.  Errors surface with their tag as
``error[<tag>]: <message>`` on stderr, never as a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import (
    InsufficientDataError,
    InvalidParameterError,
    NumericalFailureError,
    RwsLabError,
)
from .experiments import EXPERIMENT_NAMES, resolve_config, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rws-lab",
        description="Run a named experiment; writes CSV outputs and a "
                    "manifest.json recording the resolved config.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment",
                     help="one of: " + ", ".join(EXPERIMENT_NAMES))
    run.add_argument("--config", type=Path, default=None, metavar="PATH",
                     help="JSON config file, or a manifest.json from a "
                          "previous run to reproduce it")
    run.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE",
                     help="override one config key (repeatable; values parse "
                          "as JSON, falling back to plain strings)")
    run.add_argument("--out", type=Path, default=None, metavar="DIR",
                     help="output directory (default rws-lab-out/<experiment>)")
    run.add_argument("--seed", type=int, default=None, metavar="U64",
                     help="override the seed config key")
    return parser


def main(argv=None) -> int:
    import numpy as np

    args = _build_parser().parse_args(argv)
    out_dir = args.out if args.out is not None else Path("rws-lab-out") / args.experiment
    try:
        file_obj = None
        if args.config is not None:
            with open(args.config, encoding="utf-8") as fh:
                file_obj = json.load(fh)
        overrides = {}
        for item in args.overrides:
            key, sep, value = item.partition("=")
            if not sep or not key:
                raise InvalidParameterError(
                    f"--set expects KEY=VALUE, got {item!r}")
            overrides[key] = value
        # floating-point warnings would reach stderr ahead of the tagged error;
        # the non-finite checks raise that error instead
        with np.errstate(all="ignore"):
            config = resolve_config(args.experiment, file_obj, overrides,
                                    seed=args.seed)
            manifest = run_experiment(args.experiment, config, out_dir)
    except (NumericalFailureError, InsufficientDataError) as exc:
        print(f"error[{exc.tag}]: {exc}", file=sys.stderr)
        return 3
    except RwsLabError as exc:
        print(f"error[{exc.tag}]: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error[config]: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error[internal]: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(f"{args.experiment}: wrote {len(manifest['outputs'])} outputs and "
          f"manifest.json to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
