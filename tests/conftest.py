"""Session fixtures: the cache directories of the canonical-basis matrices
the tests share, one run of each `verify` suite per session, and a check
that a call leaves no reference cycle behind."""

import gc

import pytest

from bihooks import verify

# The bounds each suite runs at in the test session.  Every grid of the
# hand-written sweeps that the suites replaced lies inside them: crystal
# runs e = 5 for the regularity oracle, words stops at 5 boxes, and llt
# sweeps no whole level, only the bihook levels k + j <= 5 at e = 2, 3.
SESSION_BOUNDS = {
    "combinatorics": {},
    "crystal": {"es": (2, 3, 4, 5)},
    "schur": {},
    "structure": {},
    "llt": {"es": (2, 3), "max_kj": 5, "max_n": 0},
    "words": {"max_kj": 4, "max_n": 5},
    "degrees": {},
}


@pytest.fixture(scope="session", autouse=True)
def default_cache_dir(tmp_path_factory):
    """Keep the default cache, ~/.cache/bihooks, out of the session."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("BIHOOKS_CACHE_DIR", str(tmp_path_factory.mktemp("default-cache")))
        yield


@pytest.fixture(scope="session")
def llt_cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("llt-cache"))


@pytest.fixture(scope="session")
def suite_report(llt_cache_dir):
    """suite_report(name) runs the suite at SESSION_BOUNDS once per
    session and returns its report."""
    reports = {}

    def report(name: str) -> verify.SuiteReport:
        if name not in reports:
            bounds = dict(SESSION_BOUNDS[name])
            if name == "llt":
                bounds["cache_dir"] = llt_cache_dir
            reports[name] = verify.run_suite(name, **bounds)
        return reports[name]

    return report


@pytest.fixture
def cyclic_garbage():
    """cyclic_garbage(call) runs call() with the cycle collector off and
    returns the number of objects it left reachable only through cycles."""
    def count(call) -> int:
        gc.collect()
        gc.disable()
        try:
            call()
            return gc.collect()
        finally:
            gc.enable()
    return count
