"""The benchmark's workloads, how one order runs, and the correctness gate
every order passes through.

A workload is a fixed list of orders k; one pass over it takes about ten
seconds.  Each order is one cold call into pellzero's public API: the
in-process root cache is cleared first, as a fresh ``pellzero`` process would
start.  Orders run serially, one closed-loop client in one process.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import pathlib
import random
import time

from pellzero import cli, effbounds, reduction, spectra

DEFAULT_SEED = 0
VARIANT_NOTE = "predicted intervals match the variant mirror orbit instead"
REFERENCE = json.loads((pathlib.Path(__file__).resolve().parent
                        / "reference.json").read_text())


ORDERS = {
    # verify without --full, both parities.  Orders up to 47 keep the time
    # in 128-bit spectra and ball work; 86 is past k = 84, where
    # check_dominant_bounds re-solves every root at 256 bits.
    "verify_sweep": tuple(range(2, 48, 3)) + (86,),
    # verify --even-only --full: exact scans down to L_k (82,155 at k = 40)
    # and the variant-orbit diagnosis.  Carries the scan's memory.
    "deep_scan": tuple(range(4, 41, 2)),
    # odd_k_reduce alone: one solve near 390 bits per order, the CF refine
    # loop, dp_reduce and cf_expand.
    "odd_reduce": tuple(range(5, 54, 2)),
}


def draw_m(seed: int) -> int:
    """M for odd_reduce: DEFAULT_M at the default seed, otherwise drawn with
    the same number of decimal digits, so the working precision is the same."""
    if seed == DEFAULT_SEED:
        return reduction.DEFAULT_M
    digits = len(str(reduction.DEFAULT_M))
    return random.Random(seed).randrange(10 ** (digits - 1), 10 ** digits)


def observed_zeros(k: int) -> set:
    """Closed form of the zero set at nonpositive indices: block j covers
    depths j(k+1) .. j(k+1) + k-2-2j while k-2-2j >= 0 (just {0} for k = 2)."""
    out = {0}
    j = 0
    while k - 2 - 2 * j >= 0:
        shallow = j * (k + 1)
        out.update(range(-(shallow + k - 2 - 2 * j), -shallow + 1))
        j += 1
    return out


# -- calls --------------------------------------------------------------

def _verify(k: int, *flags: str):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["verify", "--k", str(k), "--jobs", "1", *flags])
    return rc, out.getvalue(), err.getvalue()


CALLS = {
    "verify_sweep": lambda k, m: _verify(k),
    "deep_scan": lambda k, m: _verify(k, "--even-only", "--full"),
    "odd_reduce": lambda k, m: reduction.odd_k_reduce(k, m),
}


# -- gate ---------------------------------------------------------------

def check_verify(k: int, m: int, result) -> list:
    """Problems with one `pellzero verify --k k` run (empty when correct)."""
    rc, out, err = result
    lines = out.splitlines()
    if rc not in (0, 1) or len(lines) != 1:
        return [f"exit code {rc}, {len(lines)} records, stderr {err.strip()!r}"]
    rec = json.loads(lines[0])
    problems = []
    if rec.get("k") != k:
        problems.append(f"record is for k={rec.get('k')}")
    if set(rec.get("zeros", ())) != observed_zeros(k):
        problems.append("zero set differs from the closed form")
    if rec.get("chi_observed") != len(observed_zeros(k)):
        problems.append(f"chi_observed {rec.get('chi_observed')}")
    if k <= 3:
        if rec.get("status") != "PASS":
            problems.append(f"status {rec.get('status')}, expected PASS")
    elif rec.get("status") != "FAIL" or VARIANT_NOTE not in rec.get("detail", ""):
        problems.append(f"status {rec.get('status')} without the variant-mirror note")
    if k % 2 == 0:
        l_k = REFERENCE["L"][str(k)]
        if (rec.get("bound_used") or {}).get("R") != l_k:
            problems.append(f"L_k {(rec.get('bound_used') or {}).get('R')}, reference {l_k}")
        rs = spectra.solve_roots(k)
        if not effbounds.even_case_chain_check(rs, l_k):
            problems.append("chain check fails at L_k")
        if effbounds.even_case_chain_check(rs, l_k + 1):
            problems.append("chain check holds at L_k + 1")
    return problems


def check_reduce(k: int, m: int, outcome) -> list:
    """Problems with one odd_k_reduce outcome (empty when correct)."""
    problems = []
    if outcome.k != k:
        problems.append(f"outcome is for k={outcome.k}")
    if not outcome.epsilon.fr_lo() > 0:
        problems.append("epsilon lower bound not positive")
    if not outcome.q_used > 6 * m:
        problems.append("q_used not above 6M")
    if outcome.R < -min(observed_zeros(k)):
        problems.append(f"R={outcome.R} above the deepest zero")
    if m == reduction.DEFAULT_M and outcome.R != REFERENCE["R"][str(k)]:
        problems.append(f"R={outcome.R}, reference {REFERENCE['R'][str(k)]}")
    return problems


GATES = {"verify_sweep": check_verify, "deep_scan": check_verify,
         "odd_reduce": check_reduce}


def run_order(workload: str, k: int, m: int, tracer=None):
    """Run one order cold and gate it.  Returns (seconds, problems); any
    exception, MemoryError included, is a failed order, not a failed run."""
    spectra.clear_cache()
    gc.collect()
    if tracer is not None:
        tracer.order_id, tracer.active = k, True
    error = None
    t0 = time.perf_counter()
    try:
        result = CALLS[workload](k, m)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    if error is not None:
        return elapsed, [error]
    try:
        return elapsed, GATES[workload](k, m, result)
    except Exception as exc:
        return elapsed, [f"gate raised {type(exc).__name__}: {exc}"]
