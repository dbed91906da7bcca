"""The verify record: what `pellzero verify` prints for one order k.

verify_order(k, full, M) builds the record of one order, and
verify_orders runs it over a sweep, in the order given, with an ERROR
record for an order that raises an OrderError or MemoryError, so one
bad order never ends a sweep.  Each field is decided by one module:

- spectra: checks.dominant_in_envelope (a lemma, proved for every k),
  checks.root_bounds and, for even k, checks.small_modulus_gap, on the
  roots solve_roots certifies at precision.PREC_FLOOR, 64 bits: every
  check is decided exactly on the integer disks, so the least label
  that certifies serves, and the solve escalates only where it fails;
  precision_used, the highest precision that solve_roots and
  refine_root recorded (the odd reduction of full refines one root);
- effbounds or reduction: bound_used.  It is effbounds' refined L_k
  for even k and its global bound for odd k >= 4; with full, odd k >= 5
  takes the reduced bound R of reduction.odd_k_reduce, whose to_json()
  is checks.reduction.  k = 3 is settled by the scan alone;
- zerostruct: zeros, chi_observed, scan_floor and checks.scan (or, for
  even k, checks.zero_set: the sign theorem) from compare_zeros at the
  scan depth, and predicted_blocks and chi_formula from
  predicted_intervals and chi;
- this module: the scan depth, and status and detail, which list each
  comparison or check above that fails.
"""

from __future__ import annotations

from datetime import datetime, timezone

from . import effbounds, spectra, zerostruct
from .precision import PREC_FLOOR, OrderError

SCHEMA = "pellzero-report/1"


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _bound(k: int, rs, full: bool, M: int | None):
    """bound_used, the reduction's to_json() (None when none ran) and
    the depth an odd scan goes to."""
    depth, R, certs = -zerostruct.default_floor(k), None, None
    if k % 2 == 0:
        kind, R = "refined_even", effbounds.refined_even_bound(rs)
        log10 = str(effbounds.LogMagnitude.from_value(max(R, 1)))
    elif k >= 5 and full:
        from . import reduction
        outcome = reduction.odd_k_reduce(k, reduction.DEFAULT_M if M is None else M)
        kind, R, certs = "reduced_odd", outcome.R, outcome.to_json()
        log10 = str(effbounds.LogMagnitude.from_value(R))
        # The reduction's side conditions are certified only from
        # n = k^3 + 2 on, so the scan reaches k^3 + 2 when R is smaller
        # (and k^3 + 2 > k^2 + 4k for k >= 5).
        depth = max(R, k ** 3 + 2)
    elif k >= 4:
        kind, log10 = "global", str(effbounds.global_zero_index_bound(k))
    else:
        kind, log10 = "scan", None
    return {"kind": kind, "value_log10": log10, "R": R}, certs, depth


def verify_order(k: int, full: bool = False, M: int | None = None) -> dict:
    """The verify record of order k: its zeros against the predicted
    blocks and chi, its bound, and the root checks, with status PASS
    when every comparison and check holds and FAIL otherwise.  full
    reduces odd k >= 5 at M (default reduction.DEFAULT_M)."""
    # Every stage that needs roots gets them from the one 64-bit
    # solve_roots, which the odd reduction shares, or refines one by
    # refine_root, and both record, so the highest recorded precision is
    # the highest any stage used.
    with spectra.record_precisions() as precs:
        rs = spectra.solve_roots(k, PREC_FLOOR)
        checks = {"dominant_in_envelope": {"holds": bool(spectra.check_dominant_bounds(rs))},
                  "root_bounds": spectra.check_root_bounds(rs)}
        if k % 2 == 0:
            checks["small_modulus_gap"] = {"holds": bool(spectra.check_even_modulus_gap(rs))}
        bound_used, certs, depth = _bound(k, rs, full, M)
    if certs is not None:
        checks["reduction"] = certs

    predicted_blocks = ([list(b) for b in zerostruct.predicted_intervals(k).blocks]
                        if k >= 4 else [])
    cmp = zerostruct.compare_zeros(k, -depth)
    if cmp.scan is None:  # even k: the sign theorem, at every depth
        checks["zero_set"] = {"proof": "sign", "through": None}
    else:
        checks["scan"] = cmp.scan
    chi_formula = zerostruct.chi(k)
    chi_observed = len(cmp.observed)

    failures = []
    if not cmp.equal:
        note = ("; predicted intervals match the variant mirror orbit instead"
                if cmp.variant_match else "")
        failures.append(f"zero set mismatch: predicted-but-absent "
                        f"{list(cmp.missing)}, unpredicted {list(cmp.extra)}{note}")
    if chi_observed != chi_formula:
        failures.append(f"count mismatch: observed {chi_observed}, "
                        f"formula {chi_formula} "
                        f"(observed closed form {zerostruct.observed_chi(k)})")
    spectral = [(f"root bound {name}", item) for name, item in checks["root_bounds"].items()]
    spectral += [(f"spectral check {name}", checks[name])
                 for name in ("dominant_in_envelope", "small_modulus_gap") if name in checks]
    failures += [f"{name} failed" for name, item in spectral if not item["holds"]]
    if bound_used["R"] is not None and -cmp.observed[0] > bound_used["R"]:
        failures.append(f"bound {bound_used['R']} below deepest zero {cmp.observed[0]}")

    return {"k": k, "parity": "even" if k % 2 == 0 else "odd",
            "zeros": list(cmp.observed), "predicted_blocks": predicted_blocks,
            "chi_formula": chi_formula, "chi_observed": chi_observed,
            "bound_used": bound_used, "checks": checks,
            "status": "FAIL" if failures else "PASS",
            "detail": "; ".join(failures), "timestamp": _now(),
            "precision_used": max(precs), "schema": SCHEMA,
            "scan_floor": None if cmp.scan is None else -depth}


def _record(work) -> dict:
    k, full, M = work
    try:
        return verify_order(k, full, M)
    except (OrderError, MemoryError) as exc:
        return {"schema": SCHEMA, "k": k, "status": "ERROR",
                "detail": f"{type(exc).__name__}: {exc}",
                "scan_floor": None, "timestamp": _now()}


def verify_orders(ks, full: bool = False, M: int | None = None, jobs: int = 1):
    """Yield the record of each order of ks, in the order given, each as
    soon as it and every order before it are done; an order that raises an
    OrderError or MemoryError yields an ERROR record instead.  jobs > 1
    runs the orders in a process pool."""
    work = [(k, full, M) for k in ks]
    # The pool starts every worker at its first submit, so it gets no
    # more workers than orders.
    workers = min(jobs, len(work))
    if workers > 1:
        # Imported only here: multiprocessing adds about 1 MB to the peak
        # RSS of every single-process run that imports this module.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(_record, work)
    else:
        yield from map(_record, work)
