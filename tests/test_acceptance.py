"""Acceptance sweep: one test per published criterion, each printing a
single pass/fail line with its elapsed time (visible under -s).

Criteria that restate published values the exact computation contradicts
are kept verbatim and marked strict-xfail; each is paired with a twin
asserting the certified behavior, so a change on either side of the
disagreement trips the suite.
"""

import contextlib
import io
import json
import math
import random
import time
from fractions import Fraction

import pytest

from pellzero.ball import Ball
from pellzero.bigseq import KContext
from pellzero.cli import main as cli_main
from pellzero.effbounds import (
    MatveevInstance,
    global_zero_index_bound,
    implicit_log_bound,
    matveev_lower_bound,
    refined_even_bound,
)
from pellzero.reduction import (
    DEFAULT_M,
    ReductionInstance,
    dp_reduce,
    odd_k_reduce,
)
from pellzero.spectra import (
    check_dominant_bounds,
    check_even_modulus_gap,
    check_root_bounds,
    check_root_separation,
    eval_gk,
    solve_roots,
    suggested_prec,
)
from pellzero.zerostruct import (
    chi,
    enumerate_zeros,
    observed_blocks,
    observed_chi,
    predicted_intervals,
    variant_zero_set,
)


def _line(num, label, ok, start):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {label}: {status} "
          f"({time.perf_counter() - start:.1f}s)")


# -- shared sweeps ----------------------------------------------------------

@pytest.fixture(scope="module")
def table_run():
    stream = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stream):
        rc = cli_main(["verify", "--k-range", "2:10"])
    elapsed = time.perf_counter() - start
    records = [json.loads(line) for line in stream.getvalue().splitlines()]
    return {"rc": rc, "records": records, "elapsed": elapsed}


@pytest.fixture(scope="module")
def interval_scan():
    start = time.perf_counter()
    rows = {}
    for k in range(4, 61):
        zeros = set(enumerate_zeros(k, -(k * k + 4 * k)).indices)
        rows[k] = zeros
    return {"rows": rows, "elapsed": time.perf_counter() - start}


@pytest.fixture(scope="module")
def even_bounds():
    start = time.perf_counter()
    rows = {}
    for k in range(4, 101, 2):
        rs = solve_roots(k, 128)
        l_k = refined_even_bound(rs)
        deepest = min(enumerate_zeros(k, -(k * k + 4 * k)).indices)
        rows[k] = (l_k, deepest)
    return {"rows": rows, "elapsed": time.perf_counter() - start}


@pytest.fixture(scope="module")
def odd_outcomes():
    start = time.perf_counter()
    rows = {}
    for k in range(5, 100, 2):
        out = odd_k_reduce(k, DEFAULT_M)
        deepest = min(observed_blocks(k).index_set())
        rows[k] = (out, deepest)
    return {"rows": rows, "elapsed": time.perf_counter() - start}


# -- criterion 1: the k = 2..10 table ---------------------------------------

@pytest.mark.xfail(strict=True,
                   reason="published multiplicities for orders 2..10 are "
                          "{1,2,3,5,7,10,13,17,21}; the exact scan counts "
                          "{1,2,4,6,9,12,16,20,25}")
def test_criterion_1_published_table(table_run):
    records = table_run["records"]
    start = time.perf_counter()
    ok = (all(rec["status"] == "PASS" for rec in records)
          and [rec["chi_observed"] for rec in records]
          == [1, 2, 3, 5, 7, 10, 13, 17, 21])
    _line(1, "published small-order table", ok, start)
    assert ok


def test_criterion_1_exact_scan_table(table_run):
    records = table_run["records"]
    start = time.perf_counter()
    assert [rec["k"] for rec in records] == list(range(2, 11))
    assert [rec["chi_formula"] for rec in records] == \
        [1, 2, 3, 5, 7, 10, 13, 17, 21]
    assert [rec["chi_observed"] for rec in records] == \
        [1, 2, 4, 6, 9, 12, 16, 20, 25]
    for rec in records:
        k = rec["k"]
        assert rec["zeros"] == sorted(observed_blocks(k).index_set())
        if k <= 3:
            assert rec["status"] == "PASS"
        else:
            assert rec["status"] == "FAIL"
            assert "variant mirror orbit" in rec["detail"]
    assert table_run["rc"] == 1
    assert table_run["elapsed"] < 5.0
    _line(1, "exact small-order table", True, start)


# -- criterion 2: predicted intervals across orders 4..60 --------------------

@pytest.mark.xfail(strict=True,
                   reason="the exact zero sets differ from the predicted "
                          "intervals at every order >= 4")
def test_criterion_2_predicted_intervals(interval_scan):
    start = time.perf_counter()
    ok = True
    for k, zeros in interval_scan["rows"].items():
        if zeros != predicted_intervals(k).index_set() or len(zeros) != chi(k):
            ok = False
            break
    _line(2, "predicted interval layout 4..60", ok, start)
    assert ok


def test_criterion_2_exact_intervals(interval_scan):
    start = time.perf_counter()
    for k, zeros in interval_scan["rows"].items():
        assert zeros == observed_blocks(k).index_set()
        assert len(zeros) == observed_chi(k)
        # the published layout is exactly the variant orbit's zero set
        assert set(variant_zero_set(k, -(k * k + 4 * k))) == \
            predicted_intervals(k).index_set()
    assert interval_scan["elapsed"] < 120.0
    _line(2, "exact interval layout 4..60", True, start)


# -- criterion 3: refined even-order bound -----------------------------------

@pytest.mark.xfail(strict=True,
                   reason="published even-order window [111, 8445448] misses "
                          "the certified order-4 bound 39")
def test_criterion_3_even_bound_window(even_bounds):
    start = time.perf_counter()
    ok = all(111 <= l_k <= 8445448 for l_k, _ in even_bounds["rows"].values())
    _line(3, "published even bound window 4..100", ok, start)
    assert ok


def test_criterion_3_even_bound_actual(even_bounds):
    start = time.perf_counter()
    rows = even_bounds["rows"]
    assert rows[4][0] == 39
    for k, (l_k, deepest) in rows.items():
        if k >= 6:
            assert 111 <= l_k <= 8445448
        assert l_k > -deepest
    assert even_bounds["elapsed"] < 300.0
    _line(3, "certified even bounds 4..100", True, start)


# -- criterion 4: odd-order reduction pipeline -------------------------------

@pytest.mark.xfail(strict=True,
                   reason="order 5 certifies an angle ratio just below the "
                          "published 1.59 floor and a reduced bound below "
                          "the published 1568 floor")
def test_criterion_4_odd_published_windows(odd_outcomes):
    start = time.perf_counter()
    ok = True
    for k, (out, _) in odd_outcomes["rows"].items():
        certs = out.certifications
        if not (certs["tau_in_range"] and certs["mu_in_range"]
                and 1568 <= out.R <= 130068833):
            ok = False
            break
    _line(4, "published odd reduction windows 5..99", ok, start)
    assert ok


def test_criterion_4_odd_pipeline_actual(odd_outcomes):
    start = time.perf_counter()
    rows = odd_outcomes["rows"]
    for k, (out, deepest) in rows.items():
        assert out.q_used > 6 * DEFAULT_M
        assert out.nonvanishing_certified is True
        assert out.epsilon.fr_lo() > 0
        assert out.certifications["mu_in_range"] is True
        assert out.certifications["small_linear_form"] is True
        assert out.certifications["positive_shift_excluded"] is True
        assert out.R > -deepest
        if k >= 7:
            assert out.certifications["tau_in_range"] is True
            assert 1568 <= out.R <= 130068833
    assert rows[5][0].R == 847
    assert rows[5][0].certifications["tau_in_range"] is False
    assert odd_outcomes["elapsed"] < 1200.0
    _line(4, "certified odd reductions 5..99", True, start)


# -- criterion 5: root-system inequalities -----------------------------------

def test_criterion_5_root_inequalities():
    start = time.perf_counter()
    for k in range(2, 101):
        rs = solve_roots(k, 128)
        assert check_dominant_bounds(rs) is True
        report = check_root_bounds(rs)
        for name, payload in report.items():
            assert payload["holds"] is True, f"k={k}: {name}"
        if k % 2 == 0:
            assert check_even_modulus_gap(rs) is True
    assert time.perf_counter() - start < 600.0
    _line(5, "root inequalities 2..100", True, start)


# -- criterion 6: reconstruction fidelity ------------------------------------

def test_criterion_6_binet_fidelity():
    start = time.perf_counter()
    half = Fraction(1, 2)
    for k in range(2, 21):
        prec = suggested_prec(k, 200)
        rs = solve_roots(k, prec)
        ctx = KContext(k)
        g_dom = eval_gk(k, rs.gamma)
        for n in range(1, 201):
            est = g_dom * rs.gamma.pow_int(n)
            diff = (est - Ball.exact(ctx.value(n), prec)).magnitude()
            assert diff.lt(half), f"k={k} n={n}"
        from pellzero.spectra import binet_reconstruct
        for n in range(-5 * k, 101):
            ball = binet_reconstruct(k, n, rs)
            assert ball.contains(ctx.value(n)), f"k={k} n={n}"
    assert time.perf_counter() - start < 120.0
    _line(6, "reconstruction fidelity", True, start)


# -- criterion 7: modulus separation ------------------------------------------

def test_criterion_7_modulus_separation():
    start = time.perf_counter()
    for k in range(2, 13):
        rows = check_root_separation(solve_roots(k, 128))
        assert rows, f"k={k} produced no distinct-modulus pairs"
        for row in rows:
            assert row["holds"] is True, f"k={k} pair={row['pair']}"
    assert time.perf_counter() - start < 60.0
    _line(7, "modulus separation 2..12", True, start)


# -- criterion 8: randomized reduction soundness ------------------------------

def _quad_factory(a, b, c, d):
    def make(prec):
        return (Ball.exact(d, prec).sqrt() * b + a) / c
    return make


def _max_planted_exponent(a, b, c, d, mu, a_param, b_param, m_cap):
    """Exactly the largest w with A B^-w > ||u tau + mu|| for some
    1 <= u <= m_cap, where tau = (a + b sqrt(d))/c.

    With mu = m/q and D = c q 2^S, u tau + mu = X_u / D, and X_u lies in
    (N_u, N_u + u) for N_u = (u a q + m c) 2^S + u T, T = floor(b q
    sqrt(d) 2^S) by math.isqrt; X_u is never an integer since sqrt(d) is
    irrational.  So D ||u tau + mu|| is within u of E_u, the distance of
    N_u to the nearest multiple of D, and the least distance lies in
    [min(E_u - u), min(E_u + u)] / D.  w is decreasing in the distance,
    so both ends must give the same w."""
    shift = 128
    q, m = mu.denominator, mu.numerator
    den = (c * q) << shift
    t = math.isqrt(b * b * q * q * d << (2 * shift))
    step = ((a * q) << shift) + t
    n = (m * c) << shift
    lo = hi = den
    for u in range(1, m_cap + 1):
        n += step
        r = n % den
        e = min(r, den - r)
        lo = min(lo, e - u)
        hi = min(hi, e + u)

    def exponent(dist):
        # largest w with A B^-w > dist, from a float guess
        w = math.floor(math.log(a_param / dist) / math.log(b_param))
        while a_param * Fraction(b_param) ** -(w + 1) > dist:
            w += 1
        while not a_param * Fraction(b_param) ** -w > dist:
            w -= 1
        return w

    assert lo > 0
    w_max = exponent(Fraction(lo, den))
    assert w_max == exponent(Fraction(hi, den))
    return w_max


def test_criterion_8_planted_reduction_soundness():
    start = time.perf_counter()
    rng = random.Random(0xACC8)
    ran = 0
    while ran < 100:
        d = rng.choice([2, 3, 5, 7, 11, 13, 17, 19])
        a = rng.randint(-9, 9)
        b = rng.randint(1, 9)
        c = rng.randint(1, 9)
        # an integer shift degenerates to ||mu q|| = 0 identically, which
        # the reduction can never certify; keep drawing until fractional
        mu = Fraction(0)
        while mu.denominator == 1:
            mu = Fraction(rng.randint(1, 96), rng.choice([7, 13, 31, 53, 97]))
        a_param = rng.randint(2, 50)
        b_param = rng.choice([Fraction(3, 2), 2, 3, 5])
        m_cap = rng.randint(10, 10 ** 4)
        make = _quad_factory(a, b, c, d)
        inst = ReductionInstance(tau=make(192),
                                 mu=Ball.exact(mu, 192),
                                 A=Ball.exact(a_param, 192),
                                 B=Ball.exact(b_param, 192),
                                 M=m_cap)
        out = dp_reduce(inst, refine=make)
        assert out.q_used > 6 * m_cap
        assert out.epsilon.fr_lo() > 0
        w_max = _max_planted_exponent(a, b, c, d, mu, a_param, b_param,
                                      m_cap)
        assert w_max <= out.R, \
            f"tau=({a}+{b}*sqrt({d}))/{c} mu={mu} M={m_cap}"
        ran += 1
    assert ran == 100
    assert time.perf_counter() - start < 120.0
    _line(8, "planted reduction soundness x100", True, start)


# -- criterion 9: log-space bound evaluation ----------------------------------

def test_criterion_9_log_space_bounds(even_bounds):
    start = time.perf_counter()
    lm = matveev_lower_bound(MatveevInstance(t=2, d=4, B=10, A=(1.0, 1.0)))
    assert abs(float(lm.to_json()["log10"]) - 14.1475) < 1e-3
    assert abs(float(implicit_log_bound(1, 17)) - 96.329) < 0.01
    assert abs(float(implicit_log_bound(2, 300)) - 39039.76) < 0.1
    for k, (l_k, _) in even_bounds["rows"].items():
        assert math.log(l_k) < global_zero_index_bound(k).ln_value
    _line(9, "log-space bound evaluation", True, start)
