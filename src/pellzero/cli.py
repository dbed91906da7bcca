"""Command-line orchestration: per-k or range verification with
machine-readable reports, plus direct access to the sequence, zero
scans, certified roots, bounds, and the reduction pipeline.

Output conventions: single-k commands print one JSON object; range
commands print one JSON line per k (or CSV with --format csv).  All
approximate values carry {mid, rad} decimal strings.  Exit codes:
0 all pass, 1 any verification FAIL, 2 usage or resource errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from decimal import Decimal
from fractions import Fraction
from functools import cache

from . import bigseq, effbounds, spectra, zerostruct
from .precision import (PREC_START, OrderError, PrecisionExhausted,
                        ReductionExhausted, sig_str)

SCHEMA = "pellzero-report/1"
K_GUARD = 500


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _parse_m(text: str) -> int:
    """Accept any exact integer value of at least 1, in plain, decimal or
    scientific form (1000, 12.0, 3e47, 2.50e1)."""
    value = Fraction(text)
    if value.denominator != 1 or value < 1:
        raise ValueError(f"M must be an integer >= 1, got {text}")
    return value.numerator


def _parse_jobs(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}")
    return jobs


def _parse_k_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected lo:hi with integers lo and hi, got {text!r}") from None


def _spectra_checks(rs) -> dict:
    checks = {}
    checks["dominant_in_envelope"] = {"holds": bool(spectra.check_dominant_bounds(rs))}
    checks["root_bounds"] = spectra.check_root_bounds(rs)
    if rs.k % 2 == 0:
        checks["small_modulus_gap"] = {
            "holds": bool(spectra.check_even_modulus_gap(rs))}
    return checks


def _verify_one(k: int, full: bool, m_value: int | None) -> dict:
    parity = "even" if k % 2 == 0 else "odd"
    # Every stage that needs roots gets them from solve_roots, and the
    # dominant-root check records where its own evaluations settle, so the
    # highest recorded precision is the highest any stage used.
    with spectra.record_precisions() as precs:
        rs = spectra.solve_roots(k, PREC_START)
        checks = _spectra_checks(rs)

        floor_depth = -zerostruct.default_floor(k)
        reduce_certs = None
        if k % 2 == 0:
            l_k = effbounds.refined_even_bound(rs)
            bound_used = {"kind": "refined_even",
                          "value_log10": str(effbounds.LogMagnitude.from_value(max(l_k, 1))),
                          "R": l_k}
        elif k >= 5 and full:
            from . import reduction
            outcome = reduction.odd_k_reduce(
                k, reduction.DEFAULT_M if m_value is None else m_value)
            reduce_certs = outcome.to_json()
            bound_used = {"kind": "reduced_odd",
                          "value_log10": str(effbounds.LogMagnitude.from_value(outcome.R)),
                          "R": outcome.R}
            floor_depth = max(floor_depth, outcome.R)
        elif k >= 4:
            bound_used = {"kind": "global",
                          "value_log10": str(effbounds.global_zero_index_bound(k)),
                          "R": None}
        else:
            bound_used = {"kind": "scan", "value_log10": None, "R": None}
    if reduce_certs is not None:
        checks["reduction"] = reduce_certs

    predicted_blocks = ([list(b) for b in zerostruct.predicted_intervals(k).blocks]
                        if k >= 4 else [])
    cmp = zerostruct.compare_zeros(k, -floor_depth)
    if cmp.scan is None:  # even k: the sign theorem, at every depth
        checks["zero_set"] = {"proof": "sign", "through": None}
    else:
        checks["scan"] = cmp.scan
    chi_formula = zerostruct.chi(k)
    chi_observed = len(cmp.observed)
    deepest = cmp.observed[0]

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
    if bound_used["R"] is not None and -deepest > bound_used["R"]:
        failures.append(f"bound {bound_used['R']} below deepest zero {deepest}")

    status = "PASS" if not failures else "FAIL"
    return {"k": k, "parity": parity, "zeros": list(cmp.observed),
            "predicted_blocks": predicted_blocks,
            "chi_formula": chi_formula, "chi_observed": chi_observed,
            "bound_used": bound_used, "checks": checks, "status": status,
            "detail": "; ".join(failures), "timestamp": _now(),
            "precision_used": max(precs), "schema": SCHEMA,
            "scan_floor": None if cmp.scan is None else -floor_depth}


def _verify_worker(args):
    k, full, m_value = args
    try:
        return _verify_one(k, full, m_value)
    except (OrderError, MemoryError) as exc:
        return {"schema": SCHEMA, "k": k, "status": "ERROR",
                "detail": f"{type(exc).__name__}: {exc}",
                "scan_floor": None, "timestamp": _now()}


_CSV_COLUMNS = ["k", "parity", "status", "chi_formula", "chi_observed",
                "deepest_zero", "bound_kind", "bound_R", "zeros", "detail"]


def _csv_row(rec: dict) -> str:
    zeros = rec.get("zeros") or []
    bound = rec.get("bound_used") or {}
    vals = [
        str(rec.get("k", "")),
        rec.get("parity", ""),
        rec.get("status", ""),
        str(rec.get("chi_formula", "")),
        str(rec.get("chi_observed", "")),
        str(min(zeros)) if zeros else "",
        str(bound.get("kind") or ""),
        str(bound.get("R") if bound.get("R") is not None else ""),
        ";".join(str(z) for z in zeros),
        '"' + str(rec.get("detail", "")).replace('"', "'") + '"',
    ]
    return ",".join(vals)


def _emit(records, fmt, out) -> int:
    """Print each record as it arrives and return the exit code: 2 if
    any record is an ERROR, else 1 if any is not a PASS, else 0."""
    if fmt == "csv":
        print(",".join(_CSV_COLUMNS), file=out, flush=True)
    statuses = set()
    for rec in records:
        line = _csv_row(rec) if fmt == "csv" else json.dumps(rec, sort_keys=True)
        print(line, file=out, flush=True)
        statuses.add(rec.get("status"))
    if "ERROR" in statuses:
        return 2
    return 0 if statuses <= {"PASS"} else 1


def cmd_eval(args) -> int:
    # Resolved here, not as the --limit default: build_parser is cached.
    limit = bigseq.DEFAULT_LIMIT if args.limit is None else args.limit
    if abs(args.n) > limit:
        raise bigseq.LimitExceeded(args.n, limit, "--limit")
    if args.n <= 0:
        value = bigseq.backward_value(args.k, args.n)
    else:
        value = bigseq.forward_value(args.k, args.n)
    # str(int) refuses values past 4300 digits (Python 3.11+); the
    # Decimal conversion has no such cap.
    text = str(Decimal(value))
    if args.format == "json":
        print(json.dumps({"k": args.k, "n": args.n, "value": text},
                         sort_keys=True))
    else:
        print(text)
    return 0


def cmd_zeros(args) -> int:
    floor = args.floor if args.floor is not None else zerostruct.default_floor(args.k)
    if floor >= 0:
        floor = -floor
    zset = zerostruct.enumerate_zeros(args.k, floor)
    indices = list(zset.indices)
    if args.depths:
        shown = [-n for n in reversed(indices)]
    else:
        shown = indices
    print(json.dumps({"k": args.k, "floor": floor, "zeros": shown,
                      "count": len(indices), "scan": zset.scan,
                      "convention": "depths" if args.depths else "indices"},
                     sort_keys=True))
    return 0


def cmd_chi(args) -> int:
    value = zerostruct.chi(args.k)
    if args.format == "json":
        print(json.dumps({"k": args.k, "chi": value}, sort_keys=True))
    else:
        print(value)
    return 0


def cmd_roots(args) -> int:
    rs = spectra.solve_roots(args.k, args.precision)
    digits = max(6, int(rs.prec * 0.30103) - 2)
    one = 1 << rs.P
    roots = [{"re": sig_str(Fraction(X, one), digits),
              "im": sig_str(Fraction(Y, one), digits) if Y else "0",
              "rad": sig_str(Fraction(R, one), 4)}
             for X, Y, R in rs.disks]
    print(json.dumps({
        "k": rs.k, "precision": rs.prec, "roots": roots,
        "conj_pairs": [list(p) for p in rs.conj_pairs],
        "real_roots": list(rs.real_roots),
        "dominant": rs.dominant,
    }, sort_keys=True))
    return 0


def cmd_bound(args) -> int:
    if args.matveev:
        heights = [float(a) for a in args.A.split(",")] if args.A else []
        inst = effbounds.MatveevInstance(t=args.t, d=args.d, B=args.B,
                                         A=tuple(heights))
        lm = effbounds.matveev_lower_bound(inst)
        payload = {"k": args.k, "kind": "matveev_floor_magnitude",
                   **lm.to_json()}
    elif args.refined:
        rs = spectra.solve_roots(args.k, args.precision)
        l_k = effbounds.refined_even_bound(rs)
        payload = {"k": args.k, "kind": "refined_even", "L": l_k}
    else:
        lm = effbounds.global_zero_index_bound(args.k)
        payload = {"k": args.k, "kind": "global", **lm.to_json()}
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_reduce(args) -> int:
    from . import reduction
    # Resolved here, not as the --M default: build_parser is cached.
    m_value = reduction.DEFAULT_M if args.M is None else args.M
    outcome = reduction.odd_k_reduce(args.k, m_value)
    print(json.dumps(outcome.to_json(), sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    if args.k is not None:
        ks = [args.k]
    else:
        lo, hi = args.k_range
        ks = list(range(lo, hi + 1))
    if args.odd_only:
        ks = [k for k in ks if k % 2 == 1]
    if args.even_only:
        ks = [k for k in ks if k % 2 == 0]
    if not ks:
        print("empty k selection", file=sys.stderr)
        return 2
    if min(ks) < 2:
        print("k must be >= 2", file=sys.stderr)
        return 2
    if max(ks) > K_GUARD and not args.allow_large:
        print(f"k outside [2, {K_GUARD}]; pass --allow-large to proceed",
              file=sys.stderr)
        return 2

    work = [(k, args.full, args.M) for k in ks]
    # The pool starts every worker at its first submit, so it gets no
    # more workers than orders.
    workers = min(args.jobs, len(work))
    if workers > 1:
        # Imported only here: multiprocessing adds about 1 MB to the peak
        # RSS of every single-process run that imports this module.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return _emit(pool.map(_verify_worker, work), args.format, sys.stdout)
    return _emit(map(_verify_worker, work), args.format, sys.stdout)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args
    leaves it unchanged, so every main call can share it."""
    top = argparse.ArgumentParser(
        prog="pellzero",
        description="Exact negative-index terms, zero patterns, certified "
                    "roots, and effective bounds for the order-k sequences.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="exact term value at any index")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--limit", type=int, default=None,
                   help="largest |n| (default bigseq.DEFAULT_LIMIT)")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("zeros", help="scan for zeros at nonpositive indices")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--floor", type=int, default=None,
                   help="most negative index to scan (default k^2+4k deep)")
    p.add_argument("--depths", action="store_true",
                   help="print positive depths instead of indices")

    p = sub.add_parser("chi", help="predicted zero count")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("roots", help="certified root system")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--precision", type=int, default=PREC_START)

    p = sub.add_parser("bound", help="effective bounds (log-space); the "
                       "parity-dispatched global bound by default")
    p.add_argument("--k", type=int, default=4)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--refined", action="store_true",
                       help="sharpened even-order bound L_k from roots")
    group.add_argument("--matveev", action="store_true",
                       help="linear-form floor magnitude; needs --t --d --B --A")
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--B", type=int, default=10)
    p.add_argument("--A", type=str, default=None,
                   help="comma-separated height parameters")
    p.add_argument("--precision", type=int, default=PREC_START)

    p = sub.add_parser("reduce", help="odd-order reduction to R_k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--M", type=_parse_m, default=None,
                   help="largest u of the reduction (default reduction.DEFAULT_M)")

    p = sub.add_parser("verify", help="per-k verification reports")
    sel = p.add_mutually_exclusive_group(required=True)
    sel.add_argument("--k", type=int, default=None)
    sel.add_argument("--k-range", type=_parse_k_range, default=None,
                     metavar="LO:HI", help="inclusive range lo:hi")
    p.add_argument("--odd-only", action="store_true")
    p.add_argument("--even-only", action="store_true")
    p.add_argument("--full", action="store_true",
                   help="odd k >= 5: scan down to the reduced bound R")
    p.add_argument("--M", type=_parse_m, default=None,
                   help="largest u of the reduction (default reduction.DEFAULT_M)")
    p.add_argument("--jobs", type=_parse_jobs, default=1)
    p.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    p.add_argument("--allow-large", action="store_true")

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Built at each call, so a cmd_* rebound after the parser was built
    # (a tracer's wrapper, say) is the one that runs.
    commands = {"eval": cmd_eval, "zeros": cmd_zeros, "chi": cmd_chi,
                "roots": cmd_roots, "bound": cmd_bound, "reduce": cmd_reduce,
                "verify": cmd_verify}
    try:
        return commands[args.command](args)
    except (bigseq.LimitExceeded, PrecisionExhausted) as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ReductionExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
