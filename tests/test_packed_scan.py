"""The packed residue scan past the exact head.

enumerate_zeros and variant_zero_set read exact terms to depth
-default_floor(k) and residues mod 2^31 - 1 beyond.  Their zero sets must
equal those of the exact streams, each lane must hold its term's residue
(mod 2^31 - 1 and mod the second prime 2^61 - 1), and a residue hit must
be checked mod the second prime and then exactly, not go into the set.
"""

import json
import pathlib
import time
import tracemalloc
from itertools import chain, islice

import pytest

from pellzero import bigseq
from pellzero.bigseq import (LANE_BITS, RESIDUE_EXPONENT, RESIDUE_MODULUS,
                             SECOND_EXPONENT, SECOND_MODULUS, backward_terms,
                             residue_blocks, three_term_orbit)
from pellzero.zerostruct import (_scan_depths, compare_zeros, default_floor,
                                 enumerate_zeros, observed_blocks,
                                 predicted_set, variant_mirror,
                                 variant_zero_set)

P = RESIDUE_MODULUS
REFERENCE = json.loads((pathlib.Path(__file__).resolve().parents[1]
                        / "perfbench" / "reference.json").read_text())
L_K = {int(k): v for k, v in REFERENCE["L"].items()}
R_K = {int(k): v for k, v in REFERENCE["R"].items()}


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


@pytest.mark.parametrize("k", range(2, 41))
def test_second_modulus_lanes_hold_the_residues(k):
    p2 = SECOND_MODULUS
    assert p2 == 2 ** 61 - 1
    head = -default_floor(k)
    count = 3000
    terms = list(islice(backward_terms(k), head + 1 + count))
    w = SECOND_EXPONENT + 5
    lanes = []
    mask = (1 << w) - 1
    for block in islice(residue_blocks(k, terms[head - k:head + 1],
                                       SECOND_EXPONENT),
                        -(-count // (k - 1))):
        lanes.extend(block >> (w * i) & mask for i in range(k - 1))
    assert all(lane <= p2 for lane in lanes)
    assert [lane % p2 for lane in lanes[:count]] == \
        [value % p2 for value in terms[head + 1:]]


@pytest.mark.parametrize("k", [2, 3, 4, 7])
def test_hits_both_primes_divide_are_confirmed_exactly(k):
    depth = -3 * default_floor(k)
    head = -default_floor(k)
    both = P * SECOND_MODULUS
    depths, scan = _scan_depths(k, (both * x for x in backward_terms(k)),
                                depth)
    assert depths == exact_depths(backward_terms(k), depth)
    assert scan["residue_hits"] == {"confirmed": 0, "rejected": depth - head}
    assert scan["rejected_by_second_modulus"] == 0


def test_planted_hit_deep_at_k500_is_rejected_by_the_second_modulus(monkeypatch):
    # One false hit mod 2^31 - 1, planted 5e6 deep.  On 2 vCPUs at
    # 2.1 GHz the scan with the second modulus takes about 0.4 s, and with
    # the exact walk to the hit in its place about 7.8 s.
    k, depth = 500, 5_000_000
    head = -default_floor(k)
    real = bigseq.residue_zeros

    def planted(k, window, count, exponent=RESIDUE_EXPONENT):
        hits = set(real(k, window, count, exponent))
        if exponent == RESIDUE_EXPONENT:
            hits.add(depth - head - 1)
        yield from sorted(hits)

    monkeypatch.setattr(bigseq, "residue_zeros", planted)
    t0 = time.perf_counter()
    zset = enumerate_zeros(k, -depth)
    elapsed = time.perf_counter() - t0
    assert set(zset.indices) == observed_blocks(k).index_set()
    assert zset.scan["residue_hits"] == {"confirmed": 0, "rejected": 1}
    assert zset.scan["rejected_by_second_modulus"] == 1
    assert elapsed < 3.0


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


@pytest.mark.parametrize("k, depth", [*((k, L_K[k]) for k in range(4, 41, 2)),
                                      *((k, R_K[k]) for k in range(5, 22, 2))])
def test_variant_diagnosis_through_the_head_matches_the_full_depth(k, depth):
    cmp = compare_zeros(k, -depth)
    assert cmp.variant_match == (set(variant_zero_set(k, -depth))
                                 == predicted_set(k))
    if k % 2 == 0:
        assert cmp.scan is None
    else:
        assert cmp.scan["variant_through"] == (k * k + 1) // 2


def test_variant_through_is_the_depth_the_variant_proof_covers():
    assert compare_zeros(9, -40).scan["variant_through"] == 41
    assert compare_zeros(8, -40).scan is None
    assert compare_zeros(2, default_floor(2)).scan is None
    assert compare_zeros(3, default_floor(3)).scan["variant_through"] is None
