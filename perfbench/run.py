"""Run one workload of the pellzero benchmark and print its metrics.

    python3 perfbench/run.py --workload verify_sweep --seed 1 --seconds 30 --trace 0

Run from the repository root; pellzero is imported from ./src.  With
``--trace 0`` the run makes round(seconds / PASS_S) passes over the
workload's orders, each in an order shuffled by the seed, and reports the
end-to-end metrics.  With ``--trace 1`` it makes one untraced pass, times
the layer probes, makes one traced pass and reports the per-layer metrics;
the spans go to perfbench/out/.  Every order of every pass goes through the
correctness gate.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

End-to-end times are reported in reference-machine seconds.  Each order's
time is multiplied by CAL_REF_S over the mean time of a fixed calibration
loop run just before and just after it (see calibrate).  Each import time
behind setup_s is scaled the same way by fresh imports of numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import mpmath as mp

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
CACHE_ENV = "PELLZERO_CACHE_DIR"
SETUP_RUNS = 5
TAIL_BEYOND = 10
# Seconds one pass over a workload's orders takes on the reference machine.
# The pass count depends only on --seconds, so every run of a workload has
# the same number of order samples and the same tail percentile.
PASS_S = 10.0
# calibrate() on the reference machine (2 vCPUs at 2.1 GHz, Python 3.11,
# pure-Python mpmath) in its faster phases.
CAL_REF_S = 0.012
# A fresh-interpreter `import numpy` on the same machine.
NUMPY_IMPORT_REF_S = 0.12

END_TO_END_UNITS = {"wall_s": "s", "order_ms_p50": "ms", "order_ms_tail": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def calibrate() -> float:
    """Seconds for a fixed loop of Python big-integer, Fraction and 128-bit
    mpmath arithmetic, the operation mix of the workloads.  It does not call
    pellzero, so its time tracks only the speed of the machine, which on a
    shared host drifts by tens of percent within minutes."""
    t0 = time.perf_counter()
    a, b = 3, 5
    for i in range(3000):
        a, b = b, 3 * b - a + (i & 7)
    fr = Fraction(0)
    for i in range(1, 300):
        fr += Fraction(a % 1009, i)
    with mp.workprec(128):
        x, y = mp.mpc(2, 1) / 3, mp.mpf(5) / 7
        for _ in range(600):
            x = x * y + 1 / (x + 2)
    return time.perf_counter() - t0


def scaled(seconds: float, cal_before: float, cal_after: float) -> float:
    """`seconds` in reference-machine seconds."""
    return seconds * 2 * CAL_REF_S / (cal_before + cal_after)


def fresh_import_seconds(module: str) -> float:
    """Time to import `module` in a fresh interpreter that finds pellzero in
    ./src."""
    code = (f"import time; t0 = time.perf_counter(); import {module}; "
            "print(time.perf_counter() - t0)")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def setup_seconds() -> float:
    """Median time to import pellzero (with mpmath and numpy) in a fresh
    interpreter, in reference-machine seconds.  Imports mostly load extension
    modules, which host contention slows differently from calibrate()'s
    arithmetic, so each sample is scaled by fresh imports of numpy alone just
    before and after it.  One unmeasured import of pellzero first leaves
    compiled bytecode, as an installed package has."""
    fresh_import_seconds("pellzero")
    before = fresh_import_seconds("numpy")
    times = []
    for _ in range(SETUP_RUNS):
        t = fresh_import_seconds("pellzero")
        after = fresh_import_seconds("numpy")
        times.append(t * 2 * NUMPY_IMPORT_REF_S / (before + after))
        before = after
    return statistics.median(times)


def tail(samples: list) -> tuple:
    """(p, value): the highest whole percentile whose nearest-rank value has
    at least TAIL_BEYOND samples above it; (0, min) if there are too few."""
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return p, xs[rank - 1]
    return 0, xs[0]


def run_pass(workloads, name, orders, m, tracer=None):
    """Run orders in sequence with the calibration loop between them.
    Returns (measured seconds per order, scaled seconds per order, failures)."""
    seconds, failures = [], []
    cals = [calibrate()]
    for k in orders:
        sec, problems = workloads.run_order(name, k, m, tracer)
        cals.append(calibrate())
        seconds.append(sec)
        if problems:
            failures.append((k, problems))
    return seconds, list(map(scaled, seconds, cals, cals[1:])), failures


def timed_run(workloads, name, m, rng, passes):
    setup = setup_seconds()
    samples, walls, raw_walls, failures = [], [], [], []
    for _ in range(passes):
        orders = list(workloads.ORDERS[name])
        rng.shuffle(orders)
        seconds, scaled_seconds, failed = run_pass(workloads, name, orders, m)
        samples += scaled_seconds
        walls.append(sum(scaled_seconds))
        raw_walls.append(sum(seconds))
        failures += failed
    p, tail_s = tail(samples)
    metrics = {
        "wall_s": statistics.median(walls),
        "order_ms_p50": statistics.median(samples) * 1e3,
        "order_ms_tail": tail_s * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup,
    }
    print(f"passes={passes} measured pass wall s={[round(w, 3) for w in raw_walls]} "
          f"scaled={[round(w, 3) for w in walls]}")
    print(f"order_ms_tail is p{p} of {len(samples)} order samples")
    return len(samples), failures, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def traced_run(workloads, layers, name, m, rng, seed):
    orders = list(workloads.ORDERS[name])
    rng.shuffle(orders)
    _, plain, failures = run_pass(workloads, name, orders, m)
    probes = layers.probes()
    tracer = layers.Tracer()
    tracer.install()
    try:
        _, traced, traced_failures = run_pass(workloads, name, orders, m, tracer)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}-seed{seed}.tsv"
    tracer.write(spans_path)
    values = tracer.metrics()
    values.update(probes)
    values["trace.overhead_s"] = sum(traced) - sum(plain)
    print(f"scaled untraced_s={sum(plain):.3f} traced_s={sum(traced):.3f} "
          f"spans={len(tracer.start)} -> {spans_path.relative_to(HERE.parent)}")
    units = dict(layers.METRICS)
    return (2 * len(orders), failures + traced_failures,
            {name: (values[name], units[name]) for name, _ in layers.METRICS})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pellzero" / "__init__.py").is_file():
        print(f"pellzero sources not found under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    os.environ.pop(CACHE_ENV, None)
    sys.path.insert(0, str(SRC))
    import pellzero
    import layers
    import workloads
    if pathlib.Path(pellzero.__file__).resolve().parent != SRC / "pellzero":
        print(f"imported pellzero from {pellzero.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.ORDERS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.ORDERS)}")

    name = args.workload
    m = workloads.draw_m(args.seed)
    rng = random.Random(args.seed)
    print(f"workload={name} seed={args.seed} M={m} orders={list(workloads.ORDERS[name])}")
    if args.trace:
        attempted, failures, metrics = traced_run(workloads, layers, name, m, rng, args.seed)
    else:
        passes = max(1, round(args.seconds / PASS_S))
        attempted, failures, metrics = timed_run(workloads, name, m, rng, passes)

    for k, problems in failures:
        print(f"FAILED k={k}: {'; '.join(problems)}", file=sys.stderr)
    print(f"error_frac={len(failures) / attempted:.4f} ({len(failures)} of {attempted} orders)")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
