import pytest

from rwslab import build_filter, cascade_evaluate


@pytest.fixture(scope="session")
def haar_table():
    return cascade_evaluate(build_filter("haar", 1), 12)


@pytest.fixture(scope="session")
def db10_table():
    return cascade_evaluate(build_filter("daubechies", 10), 12)


@pytest.fixture(scope="session")
def db4_table():
    return cascade_evaluate(build_filter("daubechies", 4), 12)
