"""Zero sets of the bi-infinite sequence, the predicted interval layout,
and the mirror orbit.

Two different closed forms appear here on purpose.  The predicted
intervals (and the chi count that goes with them) describe the zeros of
a variant backward orbit; the enumerated zeros of the actual extension
follow a different block layout (observed_blocks).  Tests that pin the
claimed layout to the enumerated sequence are strict xfails, each next
to the test of what the enumeration really produces.
"""

import pytest

from pellzero.bigseq import KContext
from pellzero.zerostruct import (
    IdentityViolation,
    IntervalStructure,
    StructureMismatch,
    ZeroSet,
    chi,
    default_floor,
    enumerate_zeros,
    mirror_sequence,
    observed_blocks,
    observed_chi,
    observed_report,
    predicted_intervals,
    variant_mirror,
    variant_zero_set,
    verify_structure,
)

TRUE_ZEROS = {
    2: {0},
    3: {0, -1},
    4: {0, -1, -2, -5},
    5: {0, -1, -2, -3, -6, -7},
    6: {0, -1, -2, -3, -4, -7, -8, -9, -14},
    7: {0, -1, -2, -3, -4, -5, -8, -9, -10, -11, -16, -17},
    8: {0, -1, -2, -3, -4, -5, -6, -9, -10, -11, -12, -13, -18, -19, -20,
        -27},
    9: {0, -1, -2, -3, -4, -5, -6, -7, -10, -11, -12, -13, -14, -15, -20,
        -21, -22, -23, -30, -31},
    10: {0, -1, -2, -3, -4, -5, -6, -7, -8, -11, -12, -13, -14, -15, -16,
         -17, -22, -23, -24, -25, -26, -33, -34, -35, -44},
}


def test_enumerated_zeros_small_orders():
    for k, want in TRUE_ZEROS.items():
        zs = enumerate_zeros(k, default_floor(k))
        assert isinstance(zs, ZeroSet)
        assert set(zs.indices) == want, k
        assert 0 in zs
        assert len(zs) == len(want)


def test_every_reported_index_is_a_zero():
    ctx = KContext(8)
    for n in enumerate_zeros(8, -60).indices:
        assert ctx.value(n) == 0


def test_k2_scan():
    assert set(enumerate_zeros(2, -50).indices) == {0}


def test_floor_sign_guard():
    with pytest.raises(ValueError):
        enumerate_zeros(4, 10)


def test_observed_blocks_match_enumeration():
    for k in range(2, 26):
        blocks = observed_blocks(k)
        assert isinstance(blocks, IntervalStructure)
        scanned = set(enumerate_zeros(k, default_floor(k)).indices)
        assert set(blocks.index_set()) == scanned, k
        assert observed_chi(k) == len(scanned), k


def test_observed_chi_closed_form():
    # (k//2)^2 for even k, (k^2-1)/4 for odd k
    assert [observed_chi(k) for k in range(2, 11)] == [1, 2, 4, 6, 9, 12, 16, 20, 25]


def test_chi_formula_values():
    assert chi(2) == 1
    assert chi(3) == 2
    assert chi(4) == 3
    assert chi(9) == 17
    assert chi(10) == 21
    assert chi(500) == 62251


def test_predicted_intervals_layout():
    ps = predicted_intervals(7)
    assert list(ps.blocks) == [(-7, -3), (-13, -11), (-19, -19)]
    assert ps.chi == 10
    assert ps.r == 3
    assert list(predicted_intervals(4).blocks) == [(-4, -3)]
    assert predicted_intervals(4).chi == 3
    assert predicted_intervals(10).chi == 21
    with pytest.raises(ValueError):
        predicted_intervals(3)


def test_predicted_blocks_disjoint_and_separated():
    for k in range(4, 30):
        ps = predicted_intervals(k)
        prev_deep = 1
        for lo, hi in ps.blocks:
            assert lo <= hi < prev_deep - 2, (k, lo, hi)
            prev_deep = lo
        assert len(ps.index_set()) == ps.chi


@pytest.mark.xfail(strict=True, reason="claimed block-j cardinality j; "
                   "actual cardinality is k-2j")
def test_claimed_block_cardinality():
    ps = predicted_intervals(7)
    for j, (lo, hi) in enumerate(ps.blocks, start=1):
        assert hi - lo + 1 == j


def test_actual_block_cardinality_and_gaps():
    for k in (4, 7, 12, 21):
        ps = predicted_intervals(k)
        for j, (lo, hi) in enumerate(ps.blocks, start=1):
            assert hi - lo + 1 == k - 2 * j, (k, j)
        # index 0 to block 1: two skipped indices; block j to j+1: 2j+1
        assert ps.blocks[0][1] == -3
        for j in range(1, len(ps.blocks)):
            deep_prev = ps.blocks[j - 1][0]
            shallow_next = ps.blocks[j][1]
            assert deep_prev - shallow_next - 1 == 2 * j + 1, (k, j)


@pytest.mark.xfail(strict=True, reason="claimed chi = 1 + r(r+1)/2 "
                   "contradicts the tabulated counts the blocks carry")
def test_claimed_chi_triangular_form():
    for k in (4, 7, 10):
        ps = predicted_intervals(k)
        assert ps.chi == 1 + ps.r * (ps.r + 1) // 2


def test_chi_parity_form_matches_blocks():
    for k in range(4, 40):
        ps = predicted_intervals(k)
        want = 1 + k * (k - 2) // 4 if k % 2 == 0 else 1 + (k - 1) ** 2 // 4
        assert ps.chi == want == chi(k)


# -- claimed zero tables vs. enumeration --------------------------------


@pytest.mark.xfail(strict=True,
                   reason="claimed k=6 table {0,-3..-6,-10,-11}")
def test_claimed_table_k6():
    assert set(enumerate_zeros(6, -60).indices) == {0, -3, -4, -5, -6, -10, -11}


@pytest.mark.xfail(strict=True, reason="claimed k=9 table")
def test_claimed_table_k9():
    want = {0} | set(range(-9, -2)) | set(range(-17, -12)) | {-23, -24, -25, -33}
    assert set(enumerate_zeros(9, -60).indices) == want


def test_variant_orbit_reproduces_claimed_tables():
    # the claimed tables are exactly the zeros of the variant orbit
    claimed = {
        6: {0, -3, -4, -5, -6, -10, -11},
        9: {0} | set(range(-9, -2)) | set(range(-17, -12)) | {-23, -24, -25, -33},
    }
    for k, want in claimed.items():
        assert set(variant_zero_set(k, -60)) == want, k


def test_variant_orbit_matches_predicted_intervals():
    for k in range(4, 16):
        vs = set(variant_zero_set(k, default_floor(k)))
        assert vs == {0} | set(predicted_intervals(k).index_set()), k
        assert len(vs) == chi(k), k


def test_variant_orbit_window():
    g = variant_mirror(5, 10)
    assert g[0] == 0 and g[1] == 1 and g[2] == -2


# -- mirror orbit and the shifted-index identity -------------------------


def test_mirror_sequence_starts_with_the_zero_window():
    for k in (2, 3, 5, 8):
        g = mirror_sequence(k, k)
        assert g[:k - 1] == [0] * (k - 1), k
        assert g[k - 1] != 0, k


def test_mirror_head_is_reflected_sequence():
    for k in (3, 5, 8):
        ctx = KContext(k)
        g = mirror_sequence(k, 20, check_identity=False)
        assert g == [ctx.value(-m) for m in range(21)], k


def test_mirror_window_zeros():
    g = mirror_sequence(4, 4, check_identity=False)
    assert g[:3] == [0, 0, 0]


def test_mirror_zeros_match_enumeration():
    g = mirror_sequence(5, 15, check_identity=False)
    depths = {-m for m, v in enumerate(g) if v == 0}
    assert depths == set(enumerate_zeros(5, -15).indices)


@pytest.mark.xfail(strict=True, raises=IdentityViolation,
                   reason="shifted-index identity fails on the reflected "
                   "orbit at the first checked index")
def test_claimed_identity_holds_k6():
    mirror_sequence(6, 30)


def test_identity_violation_detail():
    with pytest.raises(IdentityViolation) as exc:
        mirror_sequence(5, 30)
    err = exc.value
    assert err.k == 5
    assert err.n >= 6
    assert err.lhs != err.rhs


# -- verify_structure ----------------------------------------------------


def test_verify_structure_small_orders():
    rep2 = verify_structure(2, 12)
    assert rep2["equal"] and rep2["deepest_zero"] == 0
    rep3 = verify_structure(3, 21)
    assert rep3["equal"] and rep3["deepest_zero"] == -1


@pytest.mark.xfail(strict=True, raises=StructureMismatch,
                   reason="claimed equality of predicted blocks with the "
                   "enumerated k=8 zeros (deepest -22 vs. actual -27)")
def test_claimed_structure_k8():
    verify_structure(8, 100)


@pytest.mark.xfail(strict=True, raises=StructureMismatch,
                   reason="claimed equality for k=5 (deepest -9 vs. -7)")
def test_claimed_structure_k5():
    verify_structure(5, 40)


@pytest.mark.xfail(strict=True, raises=StructureMismatch,
                   reason="claimed equality for k=12")
def test_claimed_structure_k12():
    verify_structure(12, 200)


def test_structure_mismatch_diagnosis():
    with pytest.raises(StructureMismatch) as exc:
        verify_structure(8, 100)
    err = exc.value
    assert -22 in err.missing or -4 in err.missing
    assert -27 in err.extra
    assert "variant" in err.diagnosis


def test_observed_report_equality():
    for k, bound in ((5, 40), (8, 100), (12, 200)):
        rep = observed_report(k, bound)
        assert rep["closed_form_equal"], k
        assert rep["count"] == observed_chi(k)
    assert observed_report(8, 100)["deepest_zero"] == -27
    assert observed_report(5, 40)["deepest_zero"] == -7


def test_verify_structure_bound_guards():
    with pytest.raises(ValueError):
        verify_structure(8, -5)
    with pytest.raises(ValueError):
        verify_structure(8, 3)  # cannot cover the deepest predicted index


def test_default_floor_covers_both_layouts():
    for k in range(4, 60):
        floor = default_floor(k)
        assert floor < min(predicted_intervals(k).index_set())
        assert floor < min(observed_blocks(k).index_set())


def test_observed_report_does_not_scan_the_variant_orbit(monkeypatch):
    import pellzero.zerostruct as zs

    def no_variant_scan(k, floor):
        raise AssertionError("observed_report scanned the variant orbit")

    monkeypatch.setattr(zs, "variant_zero_set", no_variant_scan)
    rep = observed_report(8, 100)
    assert rep["deepest_zero"] == -27
    assert rep["closed_form_equal"] is True
    assert rep["count"] == observed_chi(8)
