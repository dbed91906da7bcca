"""Exact sequence evaluation: window anchors, both recurrence directions,
and the frozen example values (including the claimed zero positions that
the bi-infinite extension does not actually produce; those are kept as
strict xfails next to the values the recurrence does give).
"""

import pytest

from pellzero.bigseq import DEFAULT_LIMIT, ExactTerm, KContext, LimitExceeded, eval_range, eval_term


def seq_values(k, lo, hi):
    ctx = KContext(k)
    return [t.value for t in eval_range(ctx, lo, hi)]


def test_classical_pell_forward():
    assert eval_term(KContext(2), 3).value == 5


def test_classical_pell_first_backward_step():
    assert eval_term(KContext(2), -2).value == -2


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
        vals = {n: t.value for t in eval_range(ctx, lo, 1) for n in [t.n]}
        for n in range(lo + k, 2):
            total = 2 * vals[n - 1] + sum(vals[n - j] for j in range(2, k + 1))
            assert vals[n] == total, (k, n)


def test_eval_range_matches_eval_term():
    ctx = KContext(6)
    terms = eval_range(ctx, -30, 10)
    assert [t.n for t in terms] == list(range(-30, 11))
    for t in terms:
        assert eval_term(KContext(6), t.n).value == t.value


def test_cache_transparency():
    with_cache = KContext(9)
    for n in (-40, -7, 0, 13, 55):
        assert with_cache.value(n) == KContext(9).value(n)


def test_exact_term_fields():
    t = eval_term(KContext(3), -4)
    assert isinstance(t, ExactTerm)
    assert t.n == -4
    assert isinstance(t.value, int)


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


def test_limit_exceeded_names_the_limit():
    from pellzero.bigseq import backward_value
    from pellzero.zerostruct import enumerate_zeros
    with pytest.raises(LimitExceeded, match="the KContext limit = 100"):
        KContext(2, limit=100).value(-101)
    with pytest.raises(LimitExceeded, match="the backward_value limit = 100"):
        backward_value(2, -101, limit=100)
    with pytest.raises(LimitExceeded) as exc:
        enumerate_zeros(2, -(DEFAULT_LIMIT + 1))
    assert str(exc.value) == (f"index {-(DEFAULT_LIMIT + 1)} exceeds "
                              f"bigseq.DEFAULT_LIMIT = {DEFAULT_LIMIT}")
    assert "KContext" not in str(exc.value)


def test_range_order_guard():
    with pytest.raises(ValueError):
        eval_range(KContext(2), 5, -5)


# -- claimed zero positions vs. the recurrence's actual values ----------
#
# The deep-zero table these four cases come from matches a different
# orbit (leading coefficient moved to the shallowest backward lag), not
# the bi-infinite extension of the forward recurrence.  Each strict
# xfail is paired with the value the extension really takes.


@pytest.mark.xfail(strict=True,
                   reason="claimed zero at (k=3, n=-3); extension gives -1")
def test_claimed_zero_k3():
    assert eval_term(KContext(3), -3).value == 0


def test_actual_value_k3_depth3():
    assert eval_term(KContext(3), -3).value == -1
    assert seq_values(3, -1, 0) == [0, 0]


@pytest.mark.xfail(strict=True,
                   reason="claimed zero at (k=5, n=-9); extension gives 4")
def test_claimed_zero_k5():
    assert eval_term(KContext(5), -9).value == 0


def test_actual_value_k5_depth9():
    assert eval_term(KContext(5), -9).value == 4
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
