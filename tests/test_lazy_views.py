"""RootSystem.roots, .moduli and .weights build each Ball on first read.

The count tests wrap spectra._ball, which builds every Ball of a root
system, and pin how many a cold `verify --k 53` and a cold odd_k_reduce(53)
build: only the Balls they read.  The view tests check, for k = 2..60,
that every element of each view, read by index, negative index, slice or
iteration, is the Ball built eagerly from the same certified integers,
bit for bit on the raw midpoint and radius, that a second read gives
the same object, and that a root system pickles with its Balls.
"""

import pickle

import mpmath as mp
import pytest

from pellzero import cli, reduction, spectra


@pytest.fixture
def counted_balls(monkeypatch):
    spectra.clear_cache()
    calls = []
    build = spectra._ball

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(spectra, "_ball", counting)
    yield calls
    spectra.clear_cache()


def test_verify_builds_only_the_balls_it_reads(counted_balls, capsys):
    assert cli.main(["verify", "--k", "53", "--jobs", "1"]) in (0, 1)
    capsys.readouterr()
    assert 0 < len(counted_balls) <= 8


def test_odd_reduction_builds_only_the_balls_it_reads(counted_balls):
    reduction.odd_k_reduce(53)
    assert 0 < len(counted_balls) <= 4


def _raw(x):
    return x._mpc_ if isinstance(x, mp.mpc) else x._mpf_


def _bits(balls):
    return [(_raw(b.mid), b.rad._mpf_, b.prec) for b in balls]


def _eager(rs):
    """The three Ball lists built at once from the integers, as the root
    system held them before the views."""
    P, prec, ball = rs.P, rs.prec, spectra._ball
    roots = [ball(X, Y, P, *rad, prec) for (X, Y, _), rad in zip(rs.disks, rs.radii)]
    moduli = [ball(lo + hi, 0, P + 1, *spectra._round_up(hi - lo, 2 << P), prec)
              for lo, hi in zip(rs.mod_lo, rs.mod_hi)]
    weights = [ball(X, Y, P, R, -P, prec) for X, Y, R in rs.weight_disks]
    return {"roots": roots, "moduli": moduli, "weights": weights}


@pytest.mark.parametrize("k", range(2, 61))
def test_views_hold_the_eagerly_built_balls(k):
    rs = spectra.solve_roots(k)
    for name, eager in _eager(rs).items():
        view = getattr(rs, name)
        assert len(view) == k
        reads = [[view[i] for i in range(k)], [view[i - k] for i in range(k)],
                 list(view), view[:], view[::-1][::-1]]
        for read in reads:
            assert _bits(read) == _bits(eager), (k, name)
        assert all(view[i] is view[i - k] for i in range(k))
        assert getattr(rs, name) is view
        with pytest.raises(IndexError):
            view[k]
        with pytest.raises(IndexError):
            view[-k - 1]
        assert _bits(getattr(pickle.loads(pickle.dumps(rs)), name)) == _bits(eager)
