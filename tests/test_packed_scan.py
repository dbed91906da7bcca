"""The packed residue scan past the exact head.

enumerate_zeros and variant_zero_set read exact terms to depth
-default_floor(k) and residues mod 2^31 - 1 beyond.  Their zero sets must
equal those of the exact streams, each lane must hold its term's residue,
and a residue hit must go through the exact confirmation, not into the set.
"""

import json
import pathlib
import tracemalloc
from itertools import chain, islice

import pytest

from pellzero.bigseq import (LANE_BITS, RESIDUE_MODULUS, backward_terms,
                             residue_blocks, three_term_orbit)
from pellzero.zerostruct import (_scan_depths, default_floor, enumerate_zeros,
                                 observed_blocks, variant_mirror,
                                 variant_zero_set)

P = RESIDUE_MODULUS
L_K = {int(k): v for k, v in json.loads(
    (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
     / "reference.json").read_text())["L"].items()}


def variant_terms(k):
    head = variant_mirror(k, k)
    return chain(head, three_term_orbit(k, head))


def exact_depths(terms, depth):
    return [d for d, value in enumerate(islice(terms, depth + 1)) if value == 0]


def check_both_orbits(k, depth):
    zset = enumerate_zeros(k, -depth)
    assert zset.indices == tuple(
        -d for d in reversed(exact_depths(backward_terms(k), depth)))
    assert variant_zero_set(k, -depth) == tuple(
        -d for d in exact_depths(variant_terms(k), depth))
    head = -default_floor(k)
    assert zset.scan["exact_through"] == min(depth, head)
    assert zset.scan["residue_through"] == (depth if depth > head else None)
    assert zset.scan["residue_hits"] == {"confirmed": 0, "rejected": 0}


@pytest.mark.parametrize("k", range(2, 61))
def test_packed_zero_sets_match_exact_scan(k):
    check_both_orbits(k, -3 * default_floor(k))


@pytest.mark.parametrize("k", range(4, 41, 2))
def test_packed_zero_sets_match_exact_scan_to_refined_bound(k):
    check_both_orbits(k, L_K[k])


@pytest.mark.parametrize("k", [2, 3, 7, 40, 101])
def test_lanes_hold_the_residues(k):
    head = -default_floor(k)
    count = 3000
    terms = list(islice(backward_terms(k), head + 1 + count))
    lanes = []
    mask = (1 << LANE_BITS) - 1
    for block in islice(residue_blocks(k, terms[head - k:head + 1]),
                        -(-count // (k - 1))):
        lanes.extend(block >> (LANE_BITS * i) & mask for i in range(k - 1))
    assert all(lane <= P for lane in lanes)
    assert [lane % P for lane in lanes[:count]] == \
        [value % P for value in terms[head + 1:]]


@pytest.mark.parametrize("k", [2, 3, 4, 7])
def test_planted_hits_are_confirmed_exactly(k):
    # Every term of p * P_n is 0 mod p, so every index past the head is a
    # residue hit; only the exact walk may decide which are zeros.
    depth = -3 * default_floor(k)
    head = -default_floor(k)
    depths, scan = _scan_depths(k, (P * x for x in backward_terms(k)), depth)
    assert depths == exact_depths(backward_terms(k), depth)
    assert scan["residue_hits"] == {"confirmed": 0, "rejected": depth - head}


@pytest.mark.parametrize("k", [2, 3, 7])
def test_planted_zero_past_the_head_is_kept(k):
    # Fix the terms at depths D-k..D with x_D = 0, run the step backward
    # to depth 0, and scan the orbit forward from there.
    depth = -3 * default_floor(k)
    zero_at = depth - 5
    xs = [0] * (zero_at + 1)
    xs[zero_at - k:zero_at] = range(1, k + 1)
    for d in range(zero_at, k, -1):
        xs[d - k - 1] = 3 * xs[d - k] - xs[d - k + 1] - xs[d]
    orbit = chain(xs[:k + 1], three_term_orbit(k, xs[:k + 1]))
    depths, scan = _scan_depths(k, orbit, depth)
    assert zero_at in depths
    assert depths == [d for d, x in enumerate(xs) if x == 0]
    assert scan["residue_hits"]["confirmed"] == sum(
        d > -default_floor(k) for d in depths)


@pytest.mark.parametrize("k", [150, 250, 499])
def test_packed_scan_past_one_hundred(k):
    zset = enumerate_zeros(k, -300_000)
    assert set(zset.indices) == observed_blocks(k).index_set()
    assert zset.scan["residue_through"] == 300_000


def test_packed_scan_memory_is_that_of_the_head():
    peaks = []
    for floor in (default_floor(40), -L_K[40]):
        tracemalloc.start()
        try:
            enumerate_zeros(40, floor)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0]
