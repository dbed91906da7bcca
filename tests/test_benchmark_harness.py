"""The benchmark harness self-test (perfbench/selftest.py), run as part of
the suite: a change that breaks a name the harness reads, such as
reduction.solve_roots, KContext or Ball.log, or the count of root solves
it expects under odd_k_reduce, fails here before a benchmark run."""

import importlib.util
import io
import pathlib
import sys
import unittest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
HARNESS_MODULES = ("layers", "run", "workloads")


def test_harness_selftest_passes(monkeypatch):
    # The self-test imports its siblings by bare name; the prepended path
    # (and the one the self-test adds) is undone by monkeypatch.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    loaded = [name for name in HARNESS_MODULES if name in sys.modules]
    assert not loaded, f"module names taken: {loaded}"
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_selftest", PERFBENCH / "selftest.py")
        selftest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(selftest)
        suite = unittest.defaultTestLoader.loadTestsFromTestCase(selftest.HarnessTest)
        log = io.StringIO()
        result = unittest.TextTestRunner(stream=log, verbosity=2).run(suite)
    finally:
        for name in HARNESS_MODULES:
            sys.modules.pop(name, None)
    assert result.wasSuccessful(), log.getvalue()
