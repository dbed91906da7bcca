"""Self-test of the benchmark harness (stdlib unittest, about a minute):

    python3 perfbench/selftest.py

A tiny run of each workload passes the gate; a record with a dropped zero
or a wrong L_k, or an order that raises, counts as a failed order; the
tracer's counts repeat exactly and it leaves pellzero as it found it.
"""

from __future__ import annotations

import json
import pathlib
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from pellzero import ball, reduction, spectra, zerostruct  # noqa: E402

TINY = {"verify_sweep": (2, 5, 8), "deep_scan": (4, 6), "odd_reduce": (5, 7)}


class HarnessTest(unittest.TestCase):

    def test_tiny_workloads_pass_the_gate(self):
        for name, orders in TINY.items():
            with self.subTest(workload=name):
                m = workloads.draw_m(workloads.DEFAULT_SEED)
                seconds, scaled, failures = run.run_pass(workloads, name, orders, m)
                self.assertEqual(failures, [])
                self.assertEqual(len(seconds), len(orders))
                self.assertEqual(len(scaled), len(orders))

    def test_other_seeds_keep_the_digit_count_of_m(self):
        self.assertEqual(workloads.draw_m(workloads.DEFAULT_SEED), 3 * 10 ** 47)
        for seed in (1, 2, 3):
            self.assertEqual(len(str(workloads.draw_m(seed))), 48)
        failures = run.run_pass(workloads, "odd_reduce", (5, 7), workloads.draw_m(1))[2]
        self.assertEqual(failures, [])

    def test_closed_form_matches_pellzero(self):
        for k in range(2, 40):
            self.assertEqual(workloads.observed_zeros(k),
                             zerostruct.observed_blocks(k).index_set())

    def test_dropped_zero_or_wrong_bound_fails(self):
        rc, out, err = workloads.CALLS["deep_scan"](6, None)
        self.assertEqual(workloads.check_verify(6, None, (rc, out, err)), [])
        dropped = json.loads(out)
        dropped["zeros"].remove(-1)
        self.assertTrue(workloads.check_verify(6, None, (rc, json.dumps(dropped), err)))
        wrong = json.loads(out)
        wrong["bound_used"]["R"] += 1
        self.assertTrue(workloads.check_verify(6, None, (rc, json.dumps(wrong), err)))

    def test_exception_is_a_failed_order(self):
        def raises(k, m):
            raise ball.ZeroDivisionEnclosure("planted")
        saved = workloads.CALLS["odd_reduce"]
        workloads.CALLS["odd_reduce"] = raises
        try:
            failures = run.run_pass(workloads, "odd_reduce", (5, 7), 1)[2]
        finally:
            workloads.CALLS["odd_reduce"] = saved
        self.assertEqual([k for k, _ in failures], [5, 7])
        self.assertIn("ZeroDivisionEnclosure", failures[0][1][0])

    def test_tail_percentile(self):
        self.assertEqual(run.tail(list(range(1, 101))), (90, 90))
        self.assertEqual(run.tail(list(range(1, 46))), (77, 35))

    def test_traced_counts_repeat_and_tracer_uninstalls(self):
        original = (spectra.solve_roots, reduction.solve_roots, ball.Ball.__rmul__)
        counts = []
        for _ in range(2):
            tracer = layers.Tracer()
            tracer.install()
            try:
                failures = run.run_pass(workloads, "odd_reduce", (5, 7), reduction.DEFAULT_M,
                                        tracer)[2]
            finally:
                tracer.uninstall()
            self.assertEqual(failures, [])
            metrics = tracer.metrics()
            counts.append({k: v for k, v in metrics.items() if not k.endswith("_s")
                           and not k.endswith(".s")})
        self.assertEqual(counts[0], counts[1])
        self.assertEqual(counts[0]["reduction.refine_solves"], 2)
        self.assertEqual(counts[0]["reduction.cf_expand.calls"], 2)
        self.assertGreater(counts[0]["ball.mul.calls"], 0)
        self.assertEqual((spectra.solve_roots, reduction.solve_roots, ball.Ball.__rmul__),
                         original)


if __name__ == "__main__":
    unittest.main()
