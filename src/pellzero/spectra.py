"""Certified root systems of the order-k characteristic polynomial.

Psi_k(x) = x^k - 2x^{k-1} - x^{k-2} - ... - x - 1 is irreducible with a
single root gamma outside the unit circle.  Multiplying by (x - 1) gives
the sparse form

    delta_k(x) = (x - 1) Psi_k(x) = x^{k+1} - 3x^k + x^{k-1} + 1,

whose evaluation costs O(log k) multiplications, at the price of a
spurious simple root at x = 1 (delta'(1) = -k != 0).

solve_roots seeds all k roots from the companion-matrix eigenvalues,
polishes each with Newton's method on delta_k at escalating precision,
and certifies the result a posteriori with Weierstrass correction disks:
for a monic degree-d polynomial and d pairwise-distinct points z_i, every
root lies in the union of the disks D(z_i, d*|W_i|) with
W_i = p(z_i)/prod_{j != i}(z_i - z_j), and a connected component made of
m disks holds exactly m roots.  Pairwise disjoint disks therefore pin one
root each.  The point x = 1 joins the node list exactly (its correction
is exactly zero), so the remaining k disks isolate the roots of Psi_k.

Realness is certified by conjugation symmetry: a disjoint disk with real
center that is its own conjugate partner contains exactly one root of a
real polynomial, which must then be real.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp
import numpy as np

from .ball import (
    Ball,
    DomainError,
    IndeterminateComparison,
    PREC_START,
    PrecisionExhausted,
    ZeroDivisionEnclosure,
    ball_sum,
    escalate,
)


class CertificationFailure(Exception):
    """Internal: disks not disjoint / pairing ambiguous; escalate."""

    def __init__(self, message, realify=()):
        super().__init__(message)
        self.realify = tuple(realify)


@dataclass
class RootSystem:
    """All k roots as Balls, sorted by descending modulus, with the
    structural facts certified: modulus ordering (outside conjugate
    pairs), conjugate pairing, realness, and unique dominance."""

    k: int
    roots: list
    moduli: list
    dominant: int
    conj_pairs: list
    real_roots: list
    prec: int

    @property
    def gamma(self) -> Ball:
        return self.roots[self.dominant]

    def pair_of(self, i: int):
        for a, b in self.conj_pairs:
            if i == a:
                return b
            if i == b:
                return a
        return None


@dataclass
class GValue:
    at_root: Ball


_cache_lock = threading.Lock()
_root_cache: dict = {}
_solve_precs: ContextVar = ContextVar("pellzero_solve_precs", default=None)


@contextmanager
def record_precisions():
    """Yield a list that collects the precision of every root system
    solve_roots returns inside the block, cache hits included."""
    seen = []
    token = _solve_precs.set(seen)
    try:
        yield seen
    finally:
        _solve_precs.reset(token)


def _recorded(rs: "RootSystem") -> "RootSystem":
    seen = _solve_precs.get()
    if seen is not None:
        seen.append(rs.prec)
    return rs


def psi_coeffs(k: int) -> list[int]:
    return [1, -2] + [-1] * (k - 1)


def psi_eval(k: int, x: Ball) -> Ball:
    """Psi_k at a Ball; uses the sparse (x-1)-multiplied form away from 1.

    Near x = 1 the division would blow up the enclosure, so a direct
    Horner evaluation takes over there.
    """
    shift = x - 1
    if shift.lb_abs() > mp.mpf(0.25):
        return _delta_ball(k, x) / shift
    acc = Ball.exact(1, x.prec)
    for c in psi_coeffs(k)[1:]:
        acc = acc * x + c
    return acc


def _delta_ball(k: int, x: Ball) -> Ball:
    # x^{k-1} (x^2 - 3x + 1) + 1
    return x.pow_int(k - 1) * (x * x - 3 * x + 1) + 1


def _delta_raw(k: int, z):
    return z ** (k + 1) - 3 * z ** k + z ** (k - 1) + 1


def _delta_prime_raw(k: int, z):
    return (k + 1) * z ** k - 3 * k * z ** (k - 1) + (k - 1) * z ** (k - 2)


def _initial_seeds(k: int):
    eig = np.roots(np.array(psi_coeffs(k), dtype=float))
    return [mp.mpc(z.real, z.imag) for z in eig]


def _polish(k: int, seeds, prec: int):
    """Newton on delta_k per root; realifies near-real candidates."""
    out = []
    with mp.workprec(prec + 16):
        tol = mp.mpf(2) ** (8 - prec)
        for z in seeds:
            z = mp.mpc(z) if isinstance(z, (complex, mp.mpc)) else mp.mpf(z)
            for _ in range(64):
                dz = _delta_raw(k, z) / _delta_prime_raw(k, z)
                z = z - dz
                if abs(dz) <= abs(z) * tol:
                    break
            if isinstance(z, mp.mpc) and abs(z.imag) < abs(z) * mp.mpf(2) ** (-prec // 2):
                x = z.real
                for _ in range(8):
                    x = x - _delta_raw(k, x) / _delta_prime_raw(k, x)
                z = x
            out.append(z)
    return out


def _certify(k: int, centers, prec: int) -> RootSystem:
    balls = [Ball.exact(c, prec) for c in centers]
    one = Ball.exact(1, prec)
    nodes = balls + [one]

    # Weierstrass corrections and disk radii (k+1 for deg delta_k).
    radii = []
    for i, bi in enumerate(balls):
        num = _delta_ball(k, bi)
        den = None
        for j, bj in enumerate(nodes):
            if j == i:
                continue
            term = bi - bj
            den = term if den is None else den * term
        try:
            w = num / den
        except ZeroDivisionEnclosure:
            raise CertificationFailure(f"coincident centers near index {i}")
        radii.append((w * (k + 1)).ub_abs())
    root_balls = [Ball(c, r, prec) for c, r in zip(centers, radii)]

    # Pairwise disjointness, including the exact node at 1 (radius 0).
    disks = root_balls + [one]
    for i in range(len(disks)):
        for j in range(i + 1, len(disks)):
            if not disks[i].disjoint(disks[j]):
                raise CertificationFailure(
                    f"disks {i},{j} not certifiedly disjoint at {prec} bits")

    # Conjugate pairing via unique conjugate-disk intersection.
    pairs = {}
    realify = []
    for i, bi in enumerate(root_balls):
        if not bi.is_complex:
            continue
        mirror = bi.conjugate()
        hits = [j for j, bj in enumerate(root_balls)
                if not mirror.disjoint(bj)]
        if hits == [i]:
            realify.append(i)
        elif len(hits) != 1:
            raise CertificationFailure(
                f"conjugate of root {i} matches disks {hits}")
        else:
            pairs[i] = hits[0]
    if realify:
        raise CertificationFailure("complex centers behave as real roots",
                                   realify=realify)
    for i, j in pairs.items():
        if pairs.get(j) != i or i == j:
            raise CertificationFailure(f"asymmetric pairing {i}<->{j}")

    moduli = [b.magnitude() for b in root_balls]

    # Sort by descending modulus midpoint; conjugate partners stay adjacent
    # (equal true moduli), everything else must separate strictly.
    order = sorted(range(k), key=lambda i: (-moduli[i].mid,
                                            -(centers[i].imag if isinstance(centers[i], mp.mpc) else 0)))
    inv = {old: new for new, old in enumerate(order)}
    root_balls = [root_balls[i] for i in order]
    moduli = [moduli[i] for i in order]
    conj_pairs = sorted(tuple(sorted((inv[a], inv[b]))) for a, b in pairs.items() if a < b)
    real_roots = sorted(inv[i] for i, c in enumerate(centers) if isinstance(c, mp.mpf))
    paired = {a: b for a, b in conj_pairs} | {b: a for a, b in conj_pairs}

    for i in range(k - 1):
        if paired.get(i) == i + 1:
            continue
        if not moduli[i].gt(moduli[i + 1]):
            raise CertificationFailure(
                f"modulus order inversion at sorted index {i}")

    # Unique dominance: first modulus above 1, all others below.
    if not moduli[0].gt(1):
        raise CertificationFailure("dominant modulus not certified > 1")
    for i in range(1, k):
        if not moduli[i].lt(1):
            raise CertificationFailure(f"modulus {i} not certified < 1")
    dom = root_balls[0]
    if dom.is_complex or dom.mid <= 0:
        raise CertificationFailure("dominant root is not real positive")

    # Coefficient sanity: sum of roots is 2, |product| is 1.
    s = ball_sum(root_balls)
    if not (s.real().contains(2) and s.imag().contains(0)):
        raise CertificationFailure("root sum does not enclose 2")
    prod = root_balls[0]
    for b in root_balls[1:]:
        prod = prod * b
    if not prod.magnitude().contains(1):
        raise CertificationFailure("|root product| does not enclose 1")

    return RootSystem(k=k, roots=root_balls, moduli=moduli, dominant=0,
                      conj_pairs=conj_pairs, real_roots=real_roots, prec=prec)


def solve_roots(k: int, target_prec: int = PREC_START, seeds=None,
                use_cache: bool = True) -> RootSystem:
    """Certified root system of Psi_k, escalating precision until the
    Weierstrass disks are disjoint and all orderings separate."""
    if k < 2:
        raise ValueError(f"order k must be >= 2, got {k}")
    if target_prec < 64:
        raise ValueError("target_prec below 64 bits is not supported")
    if use_cache:
        with _cache_lock:
            hit = _root_cache.get(k)
        if hit is not None and hit.prec >= target_prec:
            return _recorded(hit)
    prec = max(target_prec, PREC_START)
    if seeds is None:
        seeds = _initial_seeds(k)
    while True:
        centers = _polish(k, seeds, prec)
        try:
            rs = _certify(k, centers, prec)
            break
        except CertificationFailure as fail:
            if fail.realify:
                seeds = [c.real if i in fail.realify else c
                         for i, c in enumerate(centers)]
                continue
            seeds = centers
            prec = escalate(prec)
        except (IndeterminateComparison, ZeroDivisionEnclosure):
            seeds = centers
            prec = escalate(prec)
    if use_cache:
        with _cache_lock:
            old = _root_cache.get(k)
            if old is None or old.prec < rs.prec:
                _root_cache[k] = rs
    return _recorded(rs)


def eval_gk(k: int, x: Ball) -> GValue:
    """The Binet weight g_k(x) = (x-1) / (k (x^2 - 3x + 1) + x^2 - 1).

    The denominator is kept in this factored form; its expanded constant
    term is k - 1.  Division raises ZeroDivisionEnclosure when the
    denominator enclosure reaches zero (escalate and retry).
    """
    sq = x * x
    den = (sq - 3 * x + 1) * k + (sq - 1)
    return GValue((x - 1) / den)


# -- Binet reconstruction -------------------------------------------------

_offset_lock = threading.Lock()
_calibrated_offset: int | None = None


def _binet_sum(k: int, n: int, rs: RootSystem, offset: int) -> Ball:
    total = None
    for root in rs.roots:
        term = eval_gk(k, root).at_root * root.pow_int(n + offset)
        total = term if total is None else total + term
    # The exact value is a real integer; fold the (tiny) imaginary slack
    # into the radius of the real part.
    real_part = total.real()
    with mp.workprec(64):
        slack = abs(total.mid.imag) if total.is_complex else mp.mpf(0)
    return real_part.add_error(slack)


def calibrate_offset(force: bool = False) -> int:
    """Fix the exponent shift o in e(n) = n + o by exact matching of the
    reconstruction against the integer sequence for k = 2, 3, n = 1..10.

    The calibrated value is cached for the process; it comes out 0.
    """
    global _calibrated_offset
    with _offset_lock:
        if _calibrated_offset is not None and not force:
            return _calibrated_offset
        from . import bigseq
        viable = []
        for o in (-1, 0, 1):
            ok = True
            for k in (2, 3):
                ctx = bigseq.KContext(k)
                rs = solve_roots(k, 192)
                for n in range(1, 11):
                    ball = _binet_sum(k, n, rs, o)
                    exact = ctx.value(n)
                    if not (ball.rad < mp.mpf("0.5") and ball.contains(exact)):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                viable.append(o)
        if len(viable) != 1:
            raise PrecisionExhausted(
                f"offset calibration did not single out a shift: {viable}")
        _calibrated_offset = viable[0]
        return _calibrated_offset


def binet_reconstruct(k: int, n: int, rs: RootSystem) -> Ball:
    """Sum of g_k(root) * root^{e(n)} over all roots, as a Ball that must
    contain the exact integer term.  Raises PrecisionExhausted when the
    enclosure is too wide to pin an integer (radius >= 0.4)."""
    ball = _binet_sum(k, n, rs, calibrate_offset())
    if not ball.rad < mp.mpf("0.4"):
        raise PrecisionExhausted(
            f"reconstruction radius {mp.nstr(ball.rad, 6)} cannot pin an "
            f"integer at prec {rs.prec}; re-solve roots at higher precision")
    return ball


def suggested_prec(k: int, n_hi: int) -> int:
    """Working precision comfortably above the growth of gamma^n."""
    return max(PREC_START, int(abs(n_hi) * 1.45) + 96)


# -- certified bound checks ------------------------------------------------

def _phi(prec: int) -> Ball:
    return (Ball.exact(5, prec).sqrt() + 1) / 2


def check_dominant_bounds(rs: RootSystem) -> bool:
    """Certifies phi^2 (1 - phi^-k) < gamma < phi^2.

    The upper gap closes like phi^(-2k), so the comparison can be
    indeterminate at the precision the system was certified at; this
    re-solves at doubled precision until the comparison settles.
    """
    k = rs.k
    prec = rs.prec
    while True:
        phi = _phi(prec)
        phi2 = phi * phi
        lower = phi2 * (Ball.exact(1, prec) - phi.pow_int(-k))
        g = rs.gamma
        try:
            return (g.magnitude().gt(lower.magnitude())
                    and phi2.magnitude().gt(g.magnitude()))
        except IndeterminateComparison:
            prec = escalate(prec)
            rs = solve_roots(k, target_prec=prec)


def _distinct_modulus_pairs(rs: RootSystem):
    """Index pairs (i, j), i < j, whose moduli are certifiedly distinct.

    Sorted order plus adjacent-separation certification makes every
    non-conjugate pair distinct; conjugate partners share a modulus.
    """
    paired = {a: b for a, b in rs.conj_pairs} | {b: a for a, b in rs.conj_pairs}
    for i in range(rs.k):
        for j in range(i + 1, rs.k):
            if paired.get(i) == j:
                continue
            yield i, j


def check_root_bounds(rs: RootSystem) -> dict:
    """Per-item report of the structural root inequalities:

    i   every distinct-modulus ratio exceeds 1 + 1.59^(-k^3)
    ii  the dominant weight g_k(gamma) lies in [0.276, 0.5]
    iii non-dominant weights satisfy |g_k(root_i)| < min(1, 2/(k-2))
    iv  the smallest modulus stays below 1 - log(gamma)/(2k) and its
        weight above log(gamma)/(2k(5k+2))
    v   equal-modulus roots are exactly the conjugate pairs
    """
    k, p = rs.k, rs.prec
    report = {}

    floor_ratio = Ball.exact(1, p) + Ball.exact(Fraction(159, 100), p).pow_int(-k ** 3)
    holds = True
    min_margin = None
    for i, j in _distinct_modulus_pairs(rs):
        ratio = rs.moduli[i] / rs.moduli[j]
        if not ratio.gt(floor_ratio):
            holds = False
        with mp.workprec(64):
            margin = ratio.lb_abs() - floor_ratio.ub_abs()
        if min_margin is None or margin < min_margin:
            min_margin = margin
    report["modulus_ratio_floor"] = {
        "holds": holds, "min_margin": float(min_margin if min_margin is not None else 0)}

    g_dom = eval_gk(k, rs.gamma).at_root
    lo, hi = Fraction(276, 1000), Fraction(1, 2)
    report["dominant_weight_range"] = {
        "holds": bool(g_dom.gt(lo) and g_dom.lt(hi)),
        "value": mp.nstr(g_dom.mid, 12),
        "certified_for_k": "k >= 2",
    }

    bound = Fraction(1) if k <= 4 else Fraction(2, k - 2)
    holds3 = True
    worst = None
    for i in range(rs.k):
        if i == rs.dominant:
            continue
        gv = eval_gk(k, rs.roots[i]).at_root.magnitude()
        if not gv.lt(bound):
            holds3 = False
        with mp.workprec(64):
            m = gv.ub_abs()
        if worst is None or m > worst:
            worst = m
    report["offdominant_weight_bound"] = {
        "holds": holds3, "bound": str(bound), "max_weight": float(worst or 0)}

    log_gamma = rs.gamma.magnitude().log()
    smallest = rs.moduli[-1]
    cap = Ball.exact(1, p) - log_gamma / (2 * k)
    g_small = eval_gk(k, rs.roots[-1]).at_root.magnitude()
    floor_w = log_gamma / (2 * k * (5 * k + 2))
    report["smallest_root_caps"] = {
        "modulus_below_cap": bool(cap.gt(smallest)),
        "weight_above_floor": bool(g_small.gt(floor_w)),
        "holds": bool(cap.gt(smallest) and g_small.gt(floor_w)),
    }

    # (v) is structural: certification already forced every non-conjugate
    # pair apart and every conjugate pair to intersect its mirror disk.
    report["equal_moduli_are_conjugates"] = {"holds": True,
                                             "pairs": list(rs.conj_pairs)}
    return report


def check_even_modulus_gap(rs: RootSystem) -> bool:
    """For even k: the gap |root_{k-1}| / |root_k| > 1 + k^(-k^2)."""
    if rs.k % 2 == 1:
        raise ValueError(f"even-order check called with odd k={rs.k}")
    ratio = rs.moduli[-2] / rs.moduli[-1]
    floor_ratio = Ball.exact(1, rs.prec) + Ball.exact(rs.k, rs.prec).pow_int(-rs.k ** 2)
    return ratio.gt(floor_ratio)


def mahler_measure(rs: RootSystem) -> Ball:
    """Product of root moduli exceeding 1; for Psi_k this is gamma."""
    out = None
    for i, m in enumerate(rs.moduli):
        above = m.fr_lo() > 1
        if above:
            out = m if out is None else out * m
    if out is None:
        raise IndeterminateComparison("no modulus certified above 1")
    return out


def check_root_separation(rs: RootSystem) -> list[dict]:
    """Modulus-separation inequalities (Dubickas) for every pair of roots
    with certifiedly distinct moduli, evaluated in log space.

    Cases by realness of the pair: both nonreal, exactly one real, both
    real; each has its own explicit lower bound in the degree d = k and
    the Mahler measure M = gamma.
    """
    k = rs.k
    p = rs.prec
    d = Fraction(k)
    measure = mahler_measure(rs)
    log_m = measure.log()
    log_2 = Ball.exact(2, p).log()
    log_d = Ball.exact(k, p).log()
    real_set = set(rs.real_roots)
    out = []
    for i, j in _distinct_modulus_pairs(rs):
        diff = (rs.moduli[i] - rs.moduli[j]).magnitude()
        n_real = (i in real_set) + (j in real_set)
        if n_real == 0:
            case = "both_nonreal"
            # sqrt(3) / (2 C^(C/2+1) M^(d^3/2 - d^2 - d/2 + 1)), C = d(d-1)/2
            c_val = Fraction(k * (k - 1), 2)
            log_c = Ball.exact(c_val, p).log()
            log_thr = (Ball.exact(3, p).log() / 2 - log_2
                       - log_c * Ball.exact(c_val / 2 + 1, p)
                       - log_m * Ball.exact(d ** 3 / 2 - d ** 2 - d / 2 + 1, p))
        elif n_real == 1:
            case = "one_real"
            # 1 / (4 d^(d^2/2 + d + 1) M^(4d(d-1) + 1))
            log_thr = (-log_2 * 2
                       - log_d * Ball.exact(d ** 2 / 2 + d + 1, p)
                       - log_m * Ball.exact(4 * d * (d - 1) + 1, p))
        else:
            case = "both_real"
            # 1 / (2^(d^2/2 - 1) M^(d - 1))
            log_thr = (-log_2 * Ball.exact(d ** 2 / 2 - 1, p)
                       - log_m * Ball.exact(d - 1, p))
        log_diff = diff.log()
        holds = log_diff.gt(log_thr)
        with mp.workprec(64):
            margin = float((log_diff.mid - log_thr.mid) / mp.log(10))
        out.append({"pair": (i, j), "case": case, "holds": bool(holds),
                    "log10_margin": margin})
    return out


# -- optional file cache ----------------------------------------------------

def _coeff_checksum(k: int) -> str:
    blob = ",".join(str(c) for c in psi_coeffs(k)).encode()
    return hashlib.sha256(blob).hexdigest()


def save_root_system(rs: RootSystem, cache_dir: str) -> str:
    os.makedirs(cache_dir, exist_ok=True)
    digits = int(rs.prec * 0.30103) + 8
    payload = {
        "k": rs.k,
        "prec": rs.prec,
        "checksum": _coeff_checksum(rs.k),
        "roots": [
            {"re": mp.nstr(b.mid.real if b.is_complex else b.mid, digits),
             "im": mp.nstr(b.mid.imag, digits) if b.is_complex else "0"}
            for b in rs.roots
        ],
    }
    path = os.path.join(cache_dir, f"roots_k{rs.k}_p{rs.prec}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def load_root_system(k: int, target_prec: int, cache_dir: str):
    """Best stored seed set for (k, >= target_prec), re-certified from
    scratch (stored digits are only a warm start, never trusted)."""
    best = None
    if not os.path.isdir(cache_dir):
        return None
    for name in os.listdir(cache_dir):
        if not name.startswith(f"roots_k{k}_p") or not name.endswith(".json"):
            continue
        try:
            with open(os.path.join(cache_dir, name)) as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        if payload.get("checksum") != _coeff_checksum(k):
            continue
        if payload.get("prec", 0) < target_prec:
            continue
        if best is None or payload["prec"] > best["prec"]:
            best = payload
    if best is None:
        return None
    prec = best["prec"]
    with mp.workprec(prec + 16):
        seeds = []
        for r in best["roots"]:
            re, im = mp.mpf(r["re"]), mp.mpf(r["im"])
            seeds.append(re if im == 0 else mp.mpc(re, im))
    return solve_roots(k, target_prec=prec, seeds=seeds, use_cache=True)


def clear_cache():
    with _cache_lock:
        _root_cache.clear()
