"""Root checks read the certified root system: the dominant-root envelope
is a sign test that escalates only its own two evaluations, and the
modulus-ratio floor compares adjacent distinct moduli."""

import json
from fractions import Fraction

import mpmath as mp
import pytest

from pellzero import spectra
from pellzero.ball import Ball
from pellzero.cli import main


def _all_pairs_ratio_floor(rs):
    """The modulus-ratio floor over every pair of distinct moduli."""
    p = rs.prec
    floor_ratio = (Ball.exact(1, p)
                   + Ball.exact(Fraction(159, 100), p).pow_int(-rs.k ** 3))
    partner = dict(rs.conj_pairs)
    holds = True
    min_margin = None
    for i in range(rs.k):
        for j in range(i + 1, rs.k):
            if partner.get(i) == j:
                continue
            ratio = rs.moduli[i] / rs.moduli[j]
            if not ratio.gt(floor_ratio):
                holds = False
            with mp.workprec(64):
                margin = ratio.lb_abs() - floor_ratio.ub_abs()
            if min_margin is None or margin < min_margin:
                min_margin = margin
    return {"holds": holds, "min_margin": float(min_margin)}


@pytest.mark.parametrize("k", list(range(2, 13)) + [40, 86])
def test_modulus_ratio_floor_matches_all_pairs(k):
    rs = spectra.solve_roots(k)
    report = spectra.check_root_bounds(rs)["modulus_ratio_floor"]
    assert report == _all_pairs_ratio_floor(rs)


def _no_solve(*args, **kwargs):
    raise AssertionError("solve_roots called from a root check")


def test_dominant_bounds_escalate_without_resolving(monkeypatch):
    spectra.clear_cache()
    rs = spectra.solve_roots(86, 128)
    assert rs.prec == 128
    with monkeypatch.context() as m:
        m.setattr(spectra, "solve_roots", _no_solve)
        with spectra.record_precisions() as precs:
            assert spectra.check_dominant_bounds(rs) is True
    assert max(precs) >= 256
    # The cached system is still the 128-bit one.
    assert spectra.solve_roots(86, 128) is rs


def test_verify_precision_used_without_resolving(monkeypatch, capsys):
    check = spectra.check_dominant_bounds

    def check_without_solving(rs):
        with monkeypatch.context() as m:
            m.setattr(spectra, "solve_roots", _no_solve)
            return check(rs)

    monkeypatch.setattr(spectra, "check_dominant_bounds",
                        check_without_solving)
    spectra.clear_cache()
    main(["verify", "--k", "86"])  # FAIL without --full: the scan is short
    rec = json.loads(capsys.readouterr().out)
    assert rec["checks"]["dominant_in_envelope"]["holds"] is True
    assert rec["precision_used"] >= 256

