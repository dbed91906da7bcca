"""The one residue pass of the zero scan.

enumerate_zeros scans the sequence on residues mod 2^31 - 1 from the
seed window, word by word against the lanes of observed_blocks(k).  Its
zero sets must equal those of the exact stream, each lane must hold its
term's residue (mod 2^31 - 1 and mod the second prime 2^61 - 1), a hit
outside the blocks must be checked mod the second prime and then
exactly, not go into the set, and a block lane that is no hit must
raise.  Hits are planted by a small Mersenne prime: residue_blocks is
exact mod 2^e - 1 for e = 3, 5, 7 and 13 too.  variant_zero_set reads
the variant orbit's exact terms, as the oracle of the variant theorem.
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


def proved_through(k, depth):
    return depth if k % 2 == 0 else min(depth, (k + 3) * (k - 1) // 2 - 1)


def unexpected_hits(k, depth, exponent):
    """Depths d in [k - 1, depth] off the blocks whose exact term
    2^exponent - 1 divides."""
    p = (1 << exponent) - 1
    blocks = {-n for n in observed_blocks(k).index_set()}
    return [d for d, value in enumerate(islice(backward_terms(k), depth + 1))
            if d >= k - 1 and d not in blocks and value % p == 0]


def planted_exponents(monkeypatch, first, second):
    monkeypatch.setattr(bigseq, "RESIDUE_EXPONENT", first)
    monkeypatch.setattr(bigseq, "SECOND_EXPONENT", second)


def check_both_orbits(k, depth):
    zset = enumerate_zeros(k, -depth)
    assert zset.indices == tuple(
        -d for d in reversed(exact_depths(backward_terms(k), depth)))
    assert variant_zero_set(k, -depth) == tuple(
        -d for d in exact_depths(variant_terms(k), depth))
    assert zset.scan["exact_through"] == proved_through(k, depth)
    assert zset.scan["residue_through"] == depth
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


@pytest.mark.parametrize("exponent", [3, 5, 7, 13])
@pytest.mark.parametrize("k", [2, 3, 9, 10, 41])
def test_small_prime_lanes_hold_the_residues(k, exponent):
    # The planted-hit tests below rely on these moduli being exact.
    p, w = (1 << exponent) - 1, exponent + 5
    count = 3 * (k * k + 4 * k)
    terms = list(islice(backward_terms(k), k - 1 + count))[k - 1:]
    lanes = []
    for block in islice(residue_blocks(k, [2, 1] + [0] * (k - 1), exponent),
                        -(-count // (k - 1))):
        lanes.extend(block >> (w * i) & ((1 << w) - 1) for i in range(k - 1))
    assert all(lane <= p for lane in lanes)
    assert [lane % p for lane in lanes[:count]] == [x % p for x in terms]


@pytest.mark.parametrize("k", [2, 3, 4, 7])
def test_hits_both_primes_divide_are_confirmed_exactly(k, monkeypatch):
    # With both primes 7, every hit off the blocks is a double hit, and
    # only the exact walk may decide it.
    depth = -3 * default_floor(k)
    planted_exponents(monkeypatch, 3, 3)
    depths, scan = _scan_depths(k, depth)
    assert depths == exact_depths(backward_terms(k), depth)
    hits = len(unexpected_hits(k, depth, 3))
    assert hits > 0
    assert scan["residue_hits"] == {"confirmed": 0, "rejected": hits}
    assert scan["rejected_by_second_modulus"] == 0
    assert scan["residue_modulus"] == 7


def test_planted_hit_deep_at_k500_is_rejected_by_the_second_modulus(monkeypatch):
    # Hits mod 2^13 - 1 down to 5e6 deep, the last near the bottom, so
    # the second modulus runs nearly that deep.  On 2 vCPUs at 2.1 GHz
    # the scan takes about 0.4 s, and the exact walk to the last hit in
    # its place about 7.8 s.
    from pellzero import zerostruct
    k, depth = 500, 5_000_000
    real, reads = zerostruct._hits, []

    def counted(k, exponent, depth):
        reads.append((exponent, depth))
        return real(k, exponent, depth)

    monkeypatch.setattr(zerostruct, "_hits", counted)
    planted_exponents(monkeypatch, 13, SECOND_EXPONENT)
    t0 = time.perf_counter()
    zset = enumerate_zeros(k, -depth)
    elapsed = time.perf_counter() - t0
    assert set(zset.indices) == observed_blocks(k).index_set()
    rejected = zset.scan["residue_hits"]["rejected"]
    assert rejected > 0
    assert zset.scan["residue_hits"] == {"confirmed": 0, "rejected": rejected}
    assert zset.scan["rejected_by_second_modulus"] == rejected
    assert reads[0] == (13, depth)
    assert reads[1][0] == SECOND_EXPONENT and reads[1][1] > 4_900_000
    assert elapsed < 3.0


@pytest.mark.parametrize("k", [2, 3, 4, 7])
def test_planted_hits_are_confirmed_exactly(k, monkeypatch):
    # Mod 7 alone, every term 7 divides is a hit off the blocks; the
    # second prime rejects each, and no exact term is read.
    depth = -3 * default_floor(k)
    planted_exponents(monkeypatch, 3, SECOND_EXPONENT)
    monkeypatch.setattr(bigseq, "backward_terms", no_exact_walk)
    depths, scan = _scan_depths(k, depth)
    assert depths == exact_depths(backward_terms(k), depth)
    hits = len(unexpected_hits(k, depth, 3))
    assert hits > 0
    assert scan["residue_hits"] == {"confirmed": 0, "rejected": hits}
    assert scan["rejected_by_second_modulus"] == hits


@pytest.mark.parametrize("k", [2, 3, 7])
def test_planted_zero_past_the_head_is_kept(k, monkeypatch):
    # An exact 0 planted past depth k^2 + 4k, at a term 7 divides: with
    # both primes 7 the walk reaches it, and it joins the zero set.
    depth = -3 * default_floor(k)
    hits = unexpected_hits(k, depth, 3)
    zero_at = hits[-1]
    assert zero_at > -default_floor(k)
    real = bigseq.backward_terms

    def planted(k):
        for d, value in enumerate(real(k)):
            yield 0 if d == zero_at else value

    planted_exponents(monkeypatch, 3, 3)
    monkeypatch.setattr(bigseq, "backward_terms", planted)
    depths, scan = _scan_depths(k, depth)
    assert zero_at in depths
    assert depths == exact_depths(planted(k), depth)
    assert scan["residue_hits"] == {"confirmed": 1, "rejected": len(hits) - 1}


def no_exact_walk(k):
    # A stream that raises when read, not when the scan creates it.
    raise AssertionError("the scan read an exact term")
    yield


@pytest.mark.parametrize("k", [*range(3, 62, 2), 151, 499])
def test_odd_scan_reads_neither_the_second_prime_nor_exact_terms(k, monkeypatch):
    from pellzero import zerostruct
    real = zerostruct._hits

    def first_only(k, exponent, depth):
        assert exponent == RESIDUE_EXPONENT, "the second prime was read"
        return real(k, exponent, depth)

    monkeypatch.setattr(zerostruct, "_hits", first_only)
    monkeypatch.setattr(bigseq, "backward_terms", no_exact_walk)
    zset = enumerate_zeros(k, default_floor(k))
    assert set(zset.indices) == observed_blocks(k).index_set()
    assert zset.scan["residue_hits"] == {"confirmed": 0, "rejected": 0}


@pytest.mark.parametrize("k", [4, 9, 12, 31])
def test_a_block_lane_that_is_no_hit_raises(k, monkeypatch):
    # Clear one block lane (set it to 1) in the residue stream: the scan
    # must raise, whichever lane it is, even alone in its word.
    real = bigseq.residue_blocks
    w, width = LANE_BITS, k - 1
    lanes = sorted(-n for n in observed_blocks(k).index_set() if -n >= width)
    for d in lanes:
        word, lane = divmod(d, width)

        def cleared(k, window, exponent=RESIDUE_EXPONENT):
            for i, y in enumerate(real(k, window, exponent)):
                if i == word - 1:
                    y = y & ~(((1 << w) - 1) << (w * lane)) | 1 << (w * lane)
                yield y

        monkeypatch.setattr(bigseq, "residue_blocks", cleared)
        start = word * width
        message = f"depths {start}..{start + width - 1} is not 0 mod"
        with pytest.raises(RuntimeError, match=message):
            _scan_depths(k, d)


@pytest.mark.parametrize("k", range(2, 13))
def test_depths_inside_the_seed_window(k):
    for depth in range(k - 1):
        depths, scan = _scan_depths(k, depth)
        assert depths == exact_depths(backward_terms(k), depth)
        assert scan["residue_through"] == depth
        if depth:
            assert enumerate_zeros(k, -depth).indices == tuple(range(-depth, 1))


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
