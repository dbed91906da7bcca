"""The streaming zero scans against the reference implementations.

enumerate_zeros and variant_zero_set run the three-term step over a ring
of k+1 terms.  KContext (the k-term rule over a full cache) and
variant_mirror (the orbit's own rule over a full list) stay as the
references they must agree with exactly.
"""

import tracemalloc
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pellzero.bigseq import (KContext, backward_terms, backward_value,
                             three_term_orbit)
from pellzero.zerostruct import enumerate_zeros, variant_mirror, variant_zero_set


def window_edges(k):
    """Floors at the seed window's edges and just past them."""
    return sorted({f for f in (-1, -(k - 2), -(k - 1), -k, -(k + 1)) if f < 0})


@st.composite
def order_and_floor(draw):
    k = draw(st.integers(min_value=2, max_value=40))
    floor = draw(st.one_of(st.integers(min_value=-3000, max_value=-1),
                           st.sampled_from(window_edges(k))))
    return k, floor


def reference_zeros(k, floor):
    ctx = KContext(k)
    return tuple(n for n in range(floor, 1) if ctx.value(n) == 0)


def reference_variant_zeros(k, floor):
    orbit = variant_mirror(k, -floor)
    return tuple(-m for m, value in enumerate(orbit) if value == 0)


@settings(deadline=None, max_examples=40)
@given(order_and_floor())
def test_streamed_scan_matches_kcontext(case):
    k, floor = case
    zset = enumerate_zeros(k, floor)
    assert zset.indices == reference_zeros(k, floor)
    assert zset.search_floor == floor


@settings(deadline=None, max_examples=40)
@given(order_and_floor())
def test_streamed_variant_matches_variant_mirror(case):
    k, floor = case
    assert variant_zero_set(k, floor) == reference_variant_zeros(k, floor)


@pytest.mark.parametrize("k", range(2, 41))
def test_window_edges_every_order(k):
    for floor in window_edges(k):
        assert enumerate_zeros(k, floor).indices == reference_zeros(k, floor)
        assert variant_zero_set(k, floor) == reference_variant_zeros(k, floor)


@pytest.mark.parametrize("k", [2, 3, 7, 40])
def test_backward_terms_are_the_sequence(k):
    ctx = KContext(k)
    assert list(islice(backward_terms(k), 300)) == [ctx.value(-d) for d in range(300)]


def test_three_term_orbit_rule():
    # x_n = 3 x_{n-2} - x_{n-1} - x_{n-3} for k = 2, from (x_0, x_1, x_2)
    x = [5, -1, 4]
    for n in range(3, 12):
        x.append(3 * x[n - 2] - x[n - 1] - x[n - 3])
    assert list(islice(three_term_orbit(2, x[:3]), 9)) == x[3:]
    with pytest.raises(ValueError):
        next(three_term_orbit(3, [0, 1]))


def test_scan_to_refined_bound_in_bounded_memory():
    # L_30 = 32657; a scan that kept every term peaked at several MB.
    tracemalloc.start()
    try:
        zset = enumerate_zeros(30, -32657)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(zset) == 15 * 15
    assert peak < 1_000_000


@pytest.mark.parametrize("k", range(2, 13))
def test_backward_value_matches_kcontext(k):
    ctx = KContext(k)
    for n in range(0, -501, -1):
        assert backward_value(k, n) == ctx.value(n)


def test_backward_value_limit_and_domain():
    with pytest.raises(ValueError):
        backward_value(3, 1)


def test_backward_value_memory_is_bounded():
    tracemalloc.start()
    try:
        backward_value(40, -30000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
