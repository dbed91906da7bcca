"""The dominant-root envelope check on fixed-point integers.

spectra.check_dominant_bounds certifies phi^2 (1 - phi^-k) < gamma <
phi^2 from the signs of delta_k at the dyadic points of
spectra._envelope_points.  The oracle for those points is mpmath at 3000
bits: q_lo must lie at or above the lower envelope and q_hi at or below
phi^2, each within a few units of 2^-P.  The check must hold across the
paper's range, and settle at the precisions where its escalations are
known to happen.
"""

import mpmath as mp
import pytest

from pellzero import spectra


@pytest.mark.parametrize("P", [128, 256, 1024])
def test_envelope_points_bracket_the_envelope(P):
    with mp.workprec(3000):
        phi2 = (3 + mp.sqrt(5)) / 2
        inv_phi = (mp.sqrt(5) - 1) / 2
        unit = mp.ldexp(1, -P)
        for k in range(2, 501):
            q_lo, q_hi = spectra._envelope_points(k, P)
            lower = phi2 * (1 - inv_phi ** k)
            lo, hi = mp.ldexp(q_lo, -P), mp.ldexp(q_hi, -P)
            assert lower <= lo < lower + 8 * unit, (k, P)
            assert phi2 - 2 * unit < hi <= phi2, (k, P)


@pytest.mark.parametrize("k", list(range(2, 121)) + [183, 184, 367, 368, 500])
def test_dominant_bounds_hold(k):
    assert spectra.check_dominant_bounds(spectra.solve_roots(k)) is True


@pytest.mark.parametrize("k, settles_at", [(91, 128), (92, 256), (183, 256),
                                           (184, 512), (367, 512), (368, 1024)])
def test_dominant_bounds_settle_precision(k, settles_at):
    spectra.clear_cache()
    rs = spectra.solve_roots(k, 128)
    assert rs.prec == 128
    with spectra.record_precisions() as precs:
        assert spectra.check_dominant_bounds(rs) is True
    assert precs == [settles_at]
