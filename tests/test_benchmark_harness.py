"""The benchmark harness self-test (perfbench/selftest.py), run as part of
the suite: a change that breaks a name the harness reads, such as
reduction.solve_roots, KContext or Ball.log, or the count of root solves
it expects under odd_k_reduce, fails here before a benchmark run.  The
layer probes (perfbench/layers.probes, the `--trace 1` path) run here
too: they build a complex Ball from an mpmath mpc and time Ball.log."""

import importlib.util
import io
import math
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


def test_layer_probes_report_every_probe():
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    values = layers.probes()
    assert set(values) == {"ball.mul_us.p128", "ball.mul_us.p390", "ball.add_us.p128",
                           "ball.gt_us.p128", "ball.log_us.p128", "bigseq.step_us"}
    assert set(values) <= {name for name, _ in layers.METRICS}
    assert all(math.isfinite(v) and v > 0 for v in values.values()), values

