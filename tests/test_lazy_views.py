"""RootSystem.roots and .weights are lists built on first read.

The count tests wrap spectra._ball, the one door from spectra to
Ball.from_disk, which builds every Ball of a disk, and pin how many a
cold `verify` and a cold odd_k_reduce(53) build: none for `verify`
without --full, whose root checks read the integers, and the refined
root and its weight for the reduction, which reads B off the integer
modulus intervals.  The view tests check, for k = 2..60, that every
element of each view, read by index, negative index, slice or
iteration, is the Ball of its certified root or weight disk, exactly,
that a second read gives the same object, and that a root system
pickles with its Balls.
"""

import pickle

import pytest

from pellzero import cli, reduction, spectra
from pellzero.ball import Ball


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
    for k in (40, 53, 86):
        assert cli.main(["verify", "--k", str(k), "--jobs", "1"]) in (0, 1)
    capsys.readouterr()
    assert counted_balls == []


def test_odd_reduction_builds_only_the_balls_it_reads(counted_balls):
    reduction.odd_k_reduce(53)
    assert len(counted_balls) == 2


def _bits(balls):
    """Bit for bit: integer disks, scales, labels and markers."""
    return [(b.to_disk(b.Q), b.prec, b.is_complex) for b in balls]


def _eager(rs):
    """The two Ball lists built at once from the integers: each root's
    disk and each weight disk."""
    P, prec = rs.P, rs.prec
    roots = [Ball.from_disk(*disk, P, prec) for disk in rs.disks]
    weights = [Ball.from_disk(*disk, P, prec) for disk in rs.weight_disks]
    return {"roots": roots, "weights": weights}


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
