"""Log-space effective bounds: linear-form floors, the parity-dispatched
global bound, the refined even-order bound, and the inequality chains
connecting them.  log_floor is checked in exact Fraction arithmetic: at
and just below exact powers, on random inputs, where y^(r+1) > x must
hold for every result r, and with y - 1 below 2^-200 and below the
smallest double.  L_k is pinned exactly for even k = 4..16, and the
chain check holds at L_k and at 0 and fails at L_k + 1 for every even
k = 2..100; each of its three raises is reached from a planted root
system, and its integer weight cap is pinned at its boundary."""

import dataclasses
import math
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pellzero import effbounds
from pellzero.ball import IndeterminateComparison
from pellzero.effbounds import (
    HypothesisViolation,
    LogMagnitude,
    MatveevInstance,
    even_case_chain_check,
    global_zero_index_bound,
    implicit_log_bound,
    log_floor,
    matveev_lower_bound,
    refined_even_bound,
)
from pellzero.spectra import solve_roots
from pellzero.zerostruct import default_floor, enumerate_zeros


def test_log_magnitude_ordering_and_json():
    a = LogMagnitude.from_value(100)
    b = LogMagnitude.from_value(1000)
    assert a < b and b > a and a == LogMagnitude.from_value(100)
    blob = a.to_json()
    assert set(blob) == {"log10", "display"}
    assert blob["display"].startswith("1.0")
    with pytest.raises(ValueError):
        LogMagnitude.from_value(0)


def _mpf(x):
    """A Decimal result as an mpf, at 40 digits."""
    with mp.workdps(40):
        return mp.mpf(str(x))


def test_log_magnitude_roundtrip():
    with mp.workdps(40):
        ln = mp.log(12345)
        m = LogMagnitude.from_ln(Decimal(str(ln)))
        assert abs(_mpf(m.ln_value) - ln) < 1e-20


def test_matveev_example_against_direct_arithmetic():
    got = matveev_lower_bound(MatveevInstance(t=2, d=4, B=10, A=(1.0, 1.0)))
    with mp.workprec(200):
        c = (3 * mp.mpf(30) ** 6 * mp.mpf(3) ** mp.mpf("5.5") * 16
             * (1 + mp.log(4)) * (1 + mp.log(20)))
        want = mp.log10(c)
    assert abs(_mpf(got.log10_value) - want) < 1e-15


def test_matveev_minimal_instance():
    got = matveev_lower_bound(MatveevInstance(t=1, d=1, B=1, A=(0.16,)))
    assert got.log10_value > 0


def test_matveev_instance_guards():
    with pytest.raises(ValueError):
        MatveevInstance(t=0, d=4, B=10, A=())
    with pytest.raises(ValueError):
        MatveevInstance(t=2, d=4, B=10, A=(1.0,))
    with pytest.raises(ValueError):
        MatveevInstance(t=1, d=4, B=0, A=(1.0,))
    with pytest.raises(ValueError):
        MatveevInstance(t=1, d=4, B=10, A=(0.1,))


def test_global_bound_values():
    even4 = global_zero_index_bound(4)
    assert abs(_mpf(even4.log10_value) - mp.log10(2 * mp.mpf(4) ** 16 * mp.log(256))) < 1e-15
    odd5 = global_zero_index_bound(5)
    with mp.workprec(120):
        want = (mp.log(mp.mpf("7.5e14")) + 125 * mp.log(mp.mpf("1.59"))
                + 10 * mp.log(5) + 2 * mp.log(mp.log(5))) / mp.log(10)
    assert abs(_mpf(odd5.log10_value) - want) < 1e-15
    with pytest.raises(ValueError):
        global_zero_index_bound(3)


def test_global_bound_k500_magnitude():
    m = global_zero_index_bound(500)
    assert 6.7e5 < float(m.log10_value) < 6.8e5


def test_global_bound_monotone_within_parity():
    evens = [global_zero_index_bound(k) for k in range(4, 61, 2)]
    odds = [global_zero_index_bound(k) for k in range(5, 61, 2)]
    assert all(a < b for a, b in zip(evens, evens[1:]))
    assert all(a < b for a, b in zip(odds, odds[1:]))


def test_implicit_bound_values():
    got = implicit_log_bound(1, 17)
    assert abs(_mpf(got) - 2 * 17 * mp.log(17)) < 1e-10
    got2 = implicit_log_bound(2, 300)
    assert abs(_mpf(got2) - 4 * 300 * mp.log(300) ** 2) < 1e-8
    with pytest.raises(HypothesisViolation):
        implicit_log_bound(2, 60)
    with pytest.raises(ValueError):
        implicit_log_bound(0, 17)


def test_implicit_bound_consistent_with_odd_global():
    # inverting L < H (ln L)^1 at the odd-case H stays inside the
    # published odd global bound
    k = 5
    with mp.workprec(200):
        H = (mp.mpf("3.1e14") * mp.mpf("1.59") ** (k ** 3) * k ** 7
             * mp.log(k) ** 2)
        L = implicit_log_bound(1, Decimal(str(H)))
        assert LogMagnitude.from_value(L) < global_zero_index_bound(k)


@pytest.mark.xfail(strict=True,
                   reason="claimed range minimum 111 for the k=4 refined "
                   "bound; certified roots give 39")
def test_claimed_refined_bound_minimum():
    assert refined_even_bound(solve_roots(4)) >= 111


def test_refined_bound_values():
    assert refined_even_bound(solve_roots(4)) == 39
    assert refined_even_bound(solve_roots(6)) == 163
    assert refined_even_bound(solve_roots(8)) == 433
    assert refined_even_bound(solve_roots(10)) == 913
    assert refined_even_bound(solve_roots(250)) == 27338900
    assert refined_even_bound(solve_roots(500)) == 240664142
    with pytest.raises(ValueError):
        refined_even_bound(solve_roots(5))


def test_refined_bound_k100_in_claimed_range():
    assert 111 <= refined_even_bound(solve_roots(100)) <= 8445448


def test_refined_dominates_deepest_zero():
    for k in (4, 6, 8, 10, 40):
        L = refined_even_bound(solve_roots(k))
        deepest = -min(enumerate_zeros(k, default_floor(k)).indices)
        assert L >= deepest, k


def test_refined_below_global():
    for k in (4, 6, 10, 40, 100):
        L = refined_even_bound(solve_roots(k))
        assert LogMagnitude.from_value(L) < global_zero_index_bound(k), k


def test_chain_check_tightness():
    for k in range(2, 101, 2):
        rs = solve_roots(k)
        L = refined_even_bound(rs)
        assert even_case_chain_check(rs, L)
        assert not even_case_chain_check(rs, L + 1)
        assert even_case_chain_check(rs, 0)


def test_chain_check_guards():
    with pytest.raises(ValueError):
        even_case_chain_check(solve_roots(5), 10)
    with pytest.raises(ValueError):
        even_case_chain_check(solve_roots(4), -1)


@pytest.mark.parametrize("k", [2, 4, 10, 100, 500])
def test_chain_check_weight_cap_is_decided_at_its_integer_boundary(k):
    # The cap holds iff (mod_lo[0] - 2^P)(11k - 2) > (10k + 4) 2^P: the
    # least passing mod_lo[0] passes, one unit less and one unit above
    # 2^P raise, and at the passing point ln(1 + x) is still above
    # (5k + 2) / (8k), so the claim 2k(5k+2)/ln(gamma) < 16k^2 holds there.
    rs = solve_roots(k)
    one = 1 << rs.P
    least = one + (10 * k + 4) * one // (11 * k - 2) + 1
    lo = list(rs.mod_lo)
    lo[0] = least
    assert even_case_chain_check(dataclasses.replace(rs, mod_lo=lo), 0)
    for planted in (least - 1, one + 1):
        lo[0] = planted
        with pytest.raises(ArithmeticError, match="weight cap"):
            even_case_chain_check(dataclasses.replace(rs, mod_lo=lo), 0)
    with mp.workprec(rs.P + 64):
        x = mp.ldexp(least - one, -rs.P)
        assert 2 * k * (5 * k + 2) / mp.log(1 + x) < 16 * k * k


def test_chain_check_straddling_the_cap_is_indeterminate():
    # Doubling mod_hi[-2] doubles the ratio's upper end and leaves L_k,
    # read at the lower end, as it was: at L_k the power straddles 16k^2.
    rs = solve_roots(6)
    L = refined_even_bound(rs)
    hi = list(rs.mod_hi)
    hi[-2] *= 2
    wide = dataclasses.replace(rs, mod_hi=hi)
    assert refined_even_bound(wide) == L
    with pytest.raises(IndeterminateComparison):
        even_case_chain_check(wide, L)


def test_chain_check_past_the_refined_bound_is_a_rounding_bug(monkeypatch):
    rs = solve_roots(4)
    L = refined_even_bound(rs)
    monkeypatch.setattr(effbounds, "refined_even_bound", lambda rs: L - 1)
    with pytest.raises(ArithmeticError, match="rounding bug"):
        even_case_chain_check(rs, L)



# -- log_floor -------------------------------------------------------------

@st.composite
def _bases(draw, min_gap_bits):
    """y = (q + s) / q > 1 with y - 1 > 2^-min_gap_bits."""
    q = draw(st.integers(1, 2 ** 40))
    s = draw(st.integers((q >> min_gap_bits) + 1, q << 12))
    return Fraction(q + s, q)


@given(_bases(38), st.integers(1, 3000))
def test_log_floor_at_and_just_below_exact_powers(y, n):
    x = y ** n
    assert log_floor(x, y) == n
    assert log_floor(x * (1 - Fraction(1, 2 ** 40)), y) == n - 1


@given(st.integers(1, 2 ** 160), st.integers(1, 2 ** 100), _bases(8))
def test_log_floor_brackets_random_quotients(num, den, y):
    x = max(Fraction(num, den), Fraction(1))
    r = log_floor(x, y)
    assert y ** (r + 1) > x
    assert y ** r <= x


def test_log_floor_small_and_invalid_arguments():
    assert log_floor(Fraction(1), Fraction(3, 2)) == 0
    assert log_floor(Fraction(3, 2), Fraction(3, 2)) == 1
    assert log_floor(Fraction(10 ** 30), Fraction(10)) == 30
    with pytest.raises(ValueError):
        log_floor(Fraction(1, 2), Fraction(2))
    with pytest.raises(ValueError):
        log_floor(Fraction(5), Fraction(1))


def test_log_floor_with_y_minus_one_below_the_old_precision():
    # y - 1 of 2^-200 is below 2^-(128 + 2 bitlen(n)) for small n, and
    # 2^-1100 is below the smallest double: the precision grows with the
    # bits of y - 1, and no float estimate is taken.
    y = 1 + Fraction(1, 2 ** 200)
    assert log_floor(Fraction(1), y) == 0
    assert log_floor(y ** 3, y) == 3
    assert log_floor(y ** 3 * (1 - Fraction(1, 2 ** 250)), y) == 2
    n = log_floor(Fraction(2), 1 + Fraction(1, 2 ** 1100))
    with mp.workprec(4000):
        assert n == int(mp.floor(mp.log(2) / mp.log(1 + mp.ldexp(1, -1100))))


def test_refined_bound_is_bracketed_exactly():
    # L_k is the largest n with (mod_lo[-2] / mod_hi[-1])^n <= 16 k^2.
    for k in range(4, 17, 2):
        rs = solve_roots(k)
        y = Fraction(rs.mod_lo[-2], rs.mod_hi[-1])
        L = refined_even_bound(rs)
        assert y ** L <= 16 * k * k < y ** (L + 1), k


def test_refined_bound_without_a_certified_gap_is_indeterminate():
    rs = solve_roots(6)
    lo = list(rs.mod_lo)
    lo[-2] = rs.mod_hi[-1]
    with pytest.raises(IndeterminateComparison):
        refined_even_bound(dataclasses.replace(rs, mod_lo=lo))


def _printed(log10_value):
    """A 200-bit log10 as a record prints it: 20 significant digits, and
    the 6-digit display of the magnitude."""
    from mpmath.libmp import to_str
    with mp.workprec(200):
        expo = int(mp.floor(log10_value))
        mant = mp.power(10, log10_value - expo)
        return (to_str(log10_value._mpf_, 20),
                f"{to_str(mant._mpf_, 6)}e{expo:+d}")


@pytest.mark.parametrize("k", list(range(4, 61)) + [499])
def test_global_bound_prints_the_correctly_rounded_value(k):
    # The record's 20 digits are the value's, not those of its nearest
    # double (k = 47 printed 20942.420632923418452 for ...418081).
    with mp.workprec(200):
        if k % 2 == 0:
            ln_b = mp.log(2) + k * k * mp.log(k) + mp.log(mp.log(16 * k * k))
        else:
            ln_b = (mp.log(mp.mpf(75) * 10 ** 13) + k ** 3 * mp.log(mp.mpf(159) / 100)
                    + 10 * mp.log(k) + 2 * mp.log(mp.log(k)))
        want = _printed(ln_b / mp.log(10))
    got = global_zero_index_bound(k).to_json()
    assert (got["log10"], got["display"]) == want


def test_refined_bound_magnitudes_print_the_correctly_rounded_value():
    for k in range(4, 41, 2):
        L = refined_even_bound(solve_roots(k))
        with mp.workprec(200):
            want = _printed(mp.log10(L))
        got = LogMagnitude.from_value(L).to_json()
        assert (got["log10"], got["display"]) == want, k
    assert str(LogMagnitude.from_value(82155)) == "4.9146339999844664473"
