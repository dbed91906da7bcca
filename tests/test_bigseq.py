"""Exact sequence evaluation: window anchors, both recurrence directions,
and the frozen example values (including the claimed zero positions that
the bi-infinite extension does not actually produce; those are kept as
strict xfails next to the values the recurrence does give).
"""

import pytest

from pellzero.bigseq import DEFAULT_LIMIT, KContext, LimitExceeded, forward_value


def seq_values(k, lo, hi):
    ctx = KContext(k)
    return [ctx.value(n) for n in range(lo, hi + 1)]


def test_classical_pell_forward():
    assert KContext(2).value(3) == 5


def test_classical_pell_first_backward_step():
    assert KContext(2).value(-2) == -2


def test_range_small_window():
    assert seq_values(2, -2, 2) == [-2, 1, 0, 1, 2]


def test_window_anchor_sampled_orders():
    for k in (2, 3, 4, 7, 25, 100, 500):
        ctx = KContext(k)
        for n in range(-(k - 2), 1):
            assert ctx.value(n) == 0, (k, n)
        assert ctx.value(1) == 1


def test_k2_against_two_term_oracle():
    # P_{n+1} = 2 P_n + P_{n-1} run in both directions from (0, 1).
    fwd = {0: 0, 1: 1}
    for n in range(2, 51):
        fwd[n] = 2 * fwd[n - 1] + fwd[n - 2]
    for n in range(-1, -51, -1):
        fwd[n] = fwd[n + 2] - 2 * fwd[n + 1]
    ctx = KContext(2)
    for n in range(-50, 51):
        assert ctx.value(n) == fwd[n], n


def test_backward_values_satisfy_forward_recurrence():
    for k in (2, 3, 5, 11, 30):
        ctx = KContext(k)
        lo = -5 * k * k
        vals = {n: ctx.value(n) for n in range(lo, 2)}
        for n in range(lo + k, 2):
            total = 2 * vals[n - 1] + sum(vals[n - j] for j in range(2, k + 1))
            assert vals[n] == total, (k, n)


def test_cache_transparency():
    with_cache = KContext(9)
    for n in (-40, -7, 0, 13, 55):
        assert with_cache.value(n) == KContext(9).value(n)


def test_order_guard():
    with pytest.raises(ValueError):
        KContext(1)


def test_resource_limit():
    ctx = KContext(2, limit=100)
    with pytest.raises(LimitExceeded):
        ctx.value(101)
    with pytest.raises(LimitExceeded):
        ctx.value(-101)
    assert KContext(2, limit=200).value(101) != 0
    assert DEFAULT_LIMIT == 10 ** 7


@pytest.mark.parametrize("k", range(2, 12))
def test_forward_value_matches_kcontext(k):
    ctx = KContext(k)
    for n in range(1, 301):
        assert forward_value(k, n) == ctx.value(n), (k, n)


def test_forward_value_limit_and_domain():
    for k, n in ((2, 0), (2, -1), (1, 5)):
        with pytest.raises(ValueError):
            forward_value(k, n)


def test_limit_exceeded_names_the_limit(monkeypatch):
    from pellzero import bigseq
    from pellzero.zerostruct import _scan_depths, enumerate_zeros
    with pytest.raises(LimitExceeded, match="the KContext limit = 100"):
        KContext(2, limit=100).value(-101)
    # The residue scan runs past bigseq.DEFAULT_LIMIT; only the exact walk
    # to a term that both primes divide stops there.  KContext reads the
    # default when it is constructed.
    monkeypatch.setattr(bigseq, "DEFAULT_LIMIT", 100)
    with pytest.raises(LimitExceeded, match="the KContext limit = 100"):
        KContext(2).value(-101)
    assert enumerate_zeros(2, -101).indices == (0,)
    # With both primes 2^5 - 1, the one hit of k = 10 off its blocks to
    # depth 101 is a double hit at depth 101.
    monkeypatch.setattr(bigseq, "RESIDUE_EXPONENT", 5)
    monkeypatch.setattr(bigseq, "SECOND_EXPONENT", 5)
    assert _scan_depths(10, 100)[1]["residue_hits"] == {"confirmed": 0,
                                                        "rejected": 0}
    with pytest.raises(LimitExceeded) as exc:
        _scan_depths(10, 101)
    assert str(exc.value) == "index -101 exceeds bigseq.DEFAULT_LIMIT = 100"
    assert "KContext" not in str(exc.value)


# -- claimed zero positions vs. the recurrence's actual values ----------
#
# The deep-zero table these four cases come from matches a different
# orbit (leading coefficient moved to the shallowest backward lag), not
# the bi-infinite extension of the forward recurrence.  Each strict
# xfail is paired with the value the extension really takes.


@pytest.mark.xfail(strict=True,
                   reason="claimed zero at (k=3, n=-3); extension gives -1")
def test_claimed_zero_k3():
    assert KContext(3).value(-3) == 0


def test_actual_value_k3_depth3():
    assert KContext(3).value(-3) == -1
    assert seq_values(3, -1, 0) == [0, 0]


@pytest.mark.xfail(strict=True,
                   reason="claimed zero at (k=5, n=-9); extension gives 4")
def test_claimed_zero_k5():
    assert KContext(5).value(-9) == 0


def test_actual_value_k5_depth9():
    assert KContext(5).value(-9) == 4
    zeros = [n for n in range(-9, 1) if KContext(5).value(n) == 0]
    assert zeros == [-7, -6, -3, -2, -1, 0]


@pytest.mark.xfail(strict=True,
                   reason="claimed zeros of k=4 on [-4,0] at {-4,-3,0}")
def test_claimed_zero_pattern_k4():
    vals = seq_values(4, -4, 0)
    zeros = {n for n, v in zip(range(-4, 1), vals) if v == 0}
    assert zeros == {-4, -3, 0}


def test_actual_zero_pattern_k4():
    zeros = [n for n in range(-6, 1) if KContext(4).value(n) == 0]
    assert zeros == [-5, -2, -1, 0]


@pytest.mark.xfail(strict=True,
                   reason="claimed zero at (k=7, n=-19); extension gives -7")
def test_claimed_zero_k7():
    assert seq_values(7, -19, -19) == [0]


def test_actual_value_k7_depth19():
    assert seq_values(7, -19, -19) == [-7]
