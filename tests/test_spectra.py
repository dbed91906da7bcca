"""Certified root systems and everything derived from them.

The independent oracle for the dominant root is an exact-rational
bisection run inside the test; root values never come from the module
under test twice.
"""

from fractions import Fraction

import mpmath as mp
import pytest

from pellzero.ball import Ball, PrecisionExhausted
from pellzero.bigseq import KContext
from pellzero.spectra import (
    RootSystem,
    binet_reconstruct,
    check_dominant_bounds,
    check_even_modulus_gap,
    check_root_bounds,
    check_root_separation,
    clear_cache,
    eval_gk,
    solve_roots,
    suggested_prec,
)


def psi_value(k, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in [1, -2] + [-1] * (k - 1):
        acc = acc * x + c
    return acc


def psi_sign(k, x: Fraction) -> int:
    acc = psi_value(k, x)
    return (acc > 0) - (acc < 0)


def bisect_dominant(k, steps=140) -> tuple[Fraction, Fraction]:
    lo, hi = Fraction(2), Fraction(3)
    assert psi_sign(k, lo) < 0 < psi_sign(k, hi)
    for _ in range(steps):
        mid = (lo + hi) / 2
        if psi_sign(k, mid) < 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def test_dominant_root_matches_bisection_oracle():
    for k in (2, 3, 4, 10):
        rs = solve_roots(k)
        lo, hi = bisect_dominant(k)
        # both are true enclosures of the same root, so they intersect
        assert rs.gamma.fr_lo() <= hi and rs.gamma.fr_hi() >= lo, k
        assert rs.gamma.fr_hi() - rs.gamma.fr_lo() < Fraction(1, 10 ** 30)


def test_k2_roots_are_quadratic_surds():
    rs = solve_roots(2)
    # gamma = 1 + sqrt(2): (gamma - 1)^2 must enclose 2, and so must
    # (|gamma| - 1)^2 over the certified modulus interval, exactly
    assert (rs.gamma - 1).pow_int(2).contains(2)
    lo, hi = (Fraction(m[0], 1 << rs.P) for m in (rs.mod_lo, rs.mod_hi))
    assert (lo - 1) ** 2 <= 2 <= (hi - 1) ** 2
    second = rs.roots[1]
    assert (second - 1).pow_int(2).contains(2)
    assert second.fr_mid() < 0


def test_root_system_structure():
    for k in (2, 3, 4, 5, 8, 9):
        rs = solve_roots(k)
        assert isinstance(rs, RootSystem)
        assert len(rs.roots) == k
        assert rs.dominant == 0
        paired = {i for pair in rs.conj_pairs for i in pair}
        assert paired.isdisjoint(rs.real_roots)
        assert paired | set(rs.real_roots) == set(range(k))
        # descending moduli up to conjugate ties
        pairset = {frozenset(p) for p in rs.conj_pairs}
        for i in range(k - 1):
            if frozenset((i, i + 1)) in pairset:
                continue
            assert rs.roots[i].magnitude().gt(rs.roots[i + 1].magnitude()), (k, i)


def test_coefficient_symmetry():
    for k in (2, 5, 12, 31):
        rs = solve_roots(k)
        total = sum(rs.roots[1:], rs.roots[0])
        assert total.real().contains(2)
        prod = rs.roots[0]
        for r in rs.roots[1:]:
            prod = prod * r
        assert prod.magnitude().contains(1)


def test_exactly_one_root_outside_unit_circle():
    for k in (2, 7, 16):
        rs = solve_roots(k)
        assert rs.roots[0].magnitude().gt(1)
        for r in rs.roots[1:]:
            assert r.magnitude().lt(1)


def test_gk_at_k2_roots_is_quarter_sqrt2():
    rs = solve_roots(2)
    g_dom = eval_gk(2, rs.gamma)
    # sqrt(2)/4: (4 g)^2 = 2
    assert (g_dom * 4).pow_int(2).contains(2)
    assert g_dom.gt(0)
    g_other = eval_gk(2, rs.roots[1])
    assert (g_other * 4).pow_int(2).contains(2)
    assert g_other.lt(0)


def test_gk_dominant_window():
    for k in (4, 7, 30):
        g = eval_gk(k, solve_roots(k).gamma)
        assert g.gt(Fraction(275, 1000)) and g.lt(Fraction(1, 2))


def test_binet_exponent_is_the_index():
    # sum_i g_k(root_i) root_i^e pins P_n at e = n and at neither
    # neighbouring exponent, so the Binet exponent carries no offset.
    for k in (2, 3):
        ctx = KContext(k)
        rs = solve_roots(k, 192)
        for n in range(1, 11):
            for e in (n - 1, n, n + 1):
                terms = [eval_gk(k, r) * r.pow_int(e) for r in rs.roots]
                ball = sum(terms[1:], terms[0]).real()
                assert ball.fr_hi() - ball.fr_lo() < 1, (k, n, e)
                assert ball.contains(ctx.value(n)) == (e == n), (k, n, e)


def test_binet_contains_exact_terms():
    for k in (2, 4, 13, 20):
        ctx = KContext(k)
        rs = solve_roots(k, target_prec=suggested_prec(k, 100))
        for n in list(range(-5 * k, 0, 3)) + [0] + list(range(1, 101, 7)):
            assert binet_reconstruct(k, n, rs).contains(ctx.value(n)), (k, n)


def test_binet_k2_small_points():
    rs = solve_roots(2)
    assert binet_reconstruct(2, 1, rs).contains(1)
    assert binet_reconstruct(2, 4, rs).contains(12)


def test_binet_too_wide_to_pin_an_integer_raises():
    # At 128 bits the radius of the n = 500 sum is about 4e172.
    with pytest.raises(PrecisionExhausted, match="cannot pin an integer"):
        binet_reconstruct(10, 500, solve_roots(10))


def test_binet_rejects_another_order():
    rs = solve_roots(4)
    with pytest.raises(ValueError):
        binet_reconstruct(rs.k + 1, 3, rs)


@pytest.mark.xfail(strict=True,
                   reason="claimed value 12 at n=5 is the n=4 term here")
def test_claimed_binet_value_n5():
    assert binet_reconstruct(2, 5, solve_roots(2)).contains(12)


def test_actual_binet_value_n5():
    assert binet_reconstruct(2, 5, solve_roots(2)).contains(29)


def test_dominant_term_estimate():
    # |P_n - g(gamma) gamma^n| < 1/2 for positive n
    for k in (2, 3, 10, 20):
        ctx = KContext(k)
        rs = solve_roots(k, target_prec=suggested_prec(k, 200))
        g = eval_gk(k, rs.gamma)
        for n in range(1, 201, 11):
            approx = g * rs.gamma.pow_int(n)
            err = (approx - ctx.value(n)).magnitude()
            assert err.lt(Fraction(1, 2)), (k, n)


def test_dominant_bounds_envelope():
    for k in (2, 10, 100):
        assert check_dominant_bounds(solve_roots(k))


def test_root_bound_report():
    for k in (4, 5, 6):
        report = check_root_bounds(solve_roots(k))
        for name, item in report.items():
            assert item["holds"], (k, name)
    # k=2 and 3 are reported too, even where the generic k>=4 margins
    # are not part of the certified statement
    assert check_root_bounds(solve_roots(2))["dominant_weight_range"]["holds"]


def test_offdominant_weight_below_one():
    rs = solve_roots(4)
    for i in range(1, 4):
        assert eval_gk(4, rs.roots[i]).magnitude().lt(1)


def test_even_modulus_gap():
    assert check_even_modulus_gap(solve_roots(4))
    assert check_even_modulus_gap(solve_roots(10))
    with pytest.raises(ValueError):
        check_even_modulus_gap(solve_roots(3))


def test_separation_report_covers_cases():
    for k in (2, 4, 5, 12):
        rows = check_root_separation(solve_roots(k))
        assert rows, k
        assert all(r["holds"] for r in rows), k
        kinds = {r["case"] for r in rows}
        if k == 2:
            assert kinds == {"both_real"}
        if k == 5:
            assert "both_nonreal" in kinds and "one_real" in kinds


def test_separation_takes_each_threshold_log_once(monkeypatch):
    # One log per row (the gap) and five per call: log M, log 2, log d, and
    # log 3 and log C of the both_nonreal threshold.
    rs = solve_roots(12)
    calls = []
    log = Ball.log

    def counted(self):
        calls.append(self)
        return log(self)

    monkeypatch.setattr(Ball, "log", counted)
    rows = check_root_separation(rs)
    assert len(calls) <= len(rows) + 5


def test_separation_margins_read_the_modulus_gaps():
    # Rows of one case share their threshold, so two margins differ by
    # log10 of the ratio of their gaps |r_i| - |r_j|, taken here from
    # the centres of the root disks.
    for k in (5, 8, 12):
        rs = solve_roots(k)
        first = {}
        with mp.workprec(200):
            mods = [mp.ldexp(mp.hypot(X, Y), -Q)
                    for X, Y, _, Q in (r.to_disk(0) for r in rs.roots)]
            for row in check_root_separation(rs):
                i, j = row["pair"]
                gap = mp.log10(mods[i] - mods[j])
                m0, g0 = first.setdefault(row["case"], (row["log10_margin"], gap))
                assert abs(row["log10_margin"] - m0 - float(gap - g0)) < 1e-9, (k, i, j)
        assert len(first) >= 2, k


def test_no_root_ratio_is_root_of_unity():
    for k in (2, 3, 5, 8, 12):
        rs = solve_roots(k)
        for i in range(k):
            for j in range(i + 1, k):
                ratio = rs.roots[i] / rs.roots[j]
                for m in range(1, 2 * k + 1):
                    diff = ratio.pow_int(m) - 1
                    assert diff.magnitude().fr_lo() > 0, (k, i, j, m)


def test_order_and_precision_guards():
    with pytest.raises(ValueError):
        solve_roots(1)
    with pytest.raises(ValueError):
        solve_roots(4, target_prec=32)


def test_in_process_cache_reuse():
    clear_cache()
    a = solve_roots(9)
    b = solve_roots(9)
    assert a is b
    clear_cache()
    c = solve_roots(9)
    assert c is not a
    clear_cache()
