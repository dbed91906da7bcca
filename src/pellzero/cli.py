"""The command line: it parses arguments, selects orders and prints.
verify prints one record per selected order, and those records come
from pellzero.verify; the other subcommands give direct access to the
sequence, zero scans, certified roots, bounds, and the reduction
pipeline.

Output conventions: single-k commands print one JSON object; range
commands print one JSON line per k (or CSV with --format csv).  All
approximate values carry {mid, rad} decimal strings.  Exit codes:
0 all pass, 1 any verification FAIL, 2 usage or resource errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal
from fractions import Fraction
from functools import cache

from . import bigseq, effbounds, spectra, zerostruct
from .precision import (PREC_START, PrecisionExhausted, ReductionExhausted,
                        sig_str)

K_GUARD = 500


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
    if args.M is not None and not args.full:
        print("--M sets the reduction, which only --full runs", file=sys.stderr)
        return 2
    lo, hi = args.k_range or (args.k, args.k)
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
    # Imported here, so the commands that print no record never load it.
    from . import verify
    return _emit(verify.verify_orders(ks, args.full, args.M, args.jobs),
                 args.format, sys.stdout)


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
    parity = p.add_mutually_exclusive_group()
    parity.add_argument("--odd-only", action="store_true")
    parity.add_argument("--even-only", action="store_true")
    p.add_argument("--full", action="store_true",
                   help="odd k >= 5: scan down to the reduced bound R")
    p.add_argument("--M", type=_parse_m, default=None,
                   help="with --full: largest u of the reduction "
                        "(default reduction.DEFAULT_M)")
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
