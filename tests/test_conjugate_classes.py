"""Newton polishing, inclusion radii and weights once per conjugate class.

delta_k and g_k have real coefficients, so spectra carries one centre per
class (a real root, or the upper member of a pair) from seed to
certificate, computes a Newton run with its inclusion radius and a
weight once per class, and gives the partner the exact mirror.  The
pairing tests pin, for k = 2..60, 86, 150, 499 and 500, that each pair
is (i, i + 1), that its lower disk is the exact mirror of the upper
one, that real roots have Y = 0, and that _newton_disk and _step_radius
run once per class.  The mirror tests check that the polished class centres are
the real ones, with Y = 0, and then one upper member per pair, that
partner balls are exact conjugates bit for bit, radii and weights
included, and that the mirrored weight is what eval_gk gives at the
partner itself.  The disk tests check that each
root Ball converts exactly to its certified disk and that
RootSystem.weights, computed on the disks, is what eval_gk gives at the
root Balls, bit for bit.  The cost tests pin the evaluations of
delta_k a class takes, every one with error bounds: two in a cold
128-bit solve and three or four at 390 bits, and check the per-class
Binet sum against an all-roots sum written here.
"""

from collections import Counter
from fractions import Fraction

import pytest

from pellzero import spectra
from pellzero.ball import Ball
from pellzero.bigseq import KContext

ORDERS = list(range(2, 61)) + [86]
PINNED = ORDERS + [150, 499, 500]


@pytest.fixture(autouse=True)
def cold_cache():
    spectra.clear_cache()
    yield
    spectra.clear_cache()


def _same(a: Ball, b: Ball):
    """Bit for bit: integer disks, scales, labels and markers."""
    return ((a.to_disk(a.Q), a.prec, a.is_complex)
            == (b.to_disk(b.Q), b.prec, b.is_complex))


@pytest.mark.parametrize("prec", [128, 390])
@pytest.mark.parametrize("k", ORDERS)
def test_partners_and_weights_are_exact_mirrors(k, prec):
    centres = spectra._polish(k, spectra._initial_seeds(k, prec + 16), prec)
    n_real = 2 - k % 2
    assert len(centres) == n_real + (k - n_real) // 2
    assert all(Y == 0 for _, Y, _ in centres[:n_real]), k
    assert all(Y > 0 for _, Y, _ in centres[n_real:]), k

    rs = spectra.solve_roots(k, prec)
    assert rs.prec == prec
    assert len(rs.real_roots) + 2 * len(rs.conj_pairs) == k
    w = rs.weights
    assert len(w) == k
    for a, b in rs.conj_pairs:
        assert _same(rs.roots[b], rs.roots[a].conjugate()), (k, a, b)
        assert _same(w[b], w[a].conjugate()), (k, a, b)
    for i, root in enumerate(rs.roots):
        assert _same(w[i], spectra.eval_gk(k, root)), (k, i)


@pytest.mark.parametrize("k", PINNED)
def test_pairs_are_adjacent_exact_mirrors_one_run_per_class(k, monkeypatch):
    calls = Counter()
    for name in ("_newton_disk", "_step_radius"):
        def counting(*args, name=name, f=getattr(spectra, name)):
            calls[name] += 1
            return f(*args)
        monkeypatch.setattr(spectra, name, counting)
    rs = spectra.solve_roots(k)
    assert rs.prec == 128
    classes = len(rs.real_roots) + len(rs.conj_pairs)
    assert calls == {"_newton_disk": classes, "_step_radius": classes}
    firsts = [a for a, _ in rs.conj_pairs]
    assert rs.conj_pairs == [(a, a + 1) for a in firsts]
    assert sorted(rs.real_roots + firsts + [a + 1 for a in firsts]) == list(range(k))
    for a, b in rs.conj_pairs:
        X, Y, R = rs.disks[a]
        assert Y > 0 and rs.disks[b] == (X, -Y, R), (k, a)
    for i in rs.real_roots:
        assert rs.disks[i][1] == 0, (k, i)


# k = 1000 is solved with one more guard bit than prec + 16, and
# eval_gk converts its root Balls at that P too.
@pytest.mark.parametrize("k", ORDERS + [250, 499, 1000])
def test_roots_and_weights_are_read_off_the_disks(k):
    rs = spectra.solve_roots(k)
    w = rs.weights
    for i, (root, disk) in enumerate(zip(rs.roots, rs.disks)):
        assert root.to_disk(rs.P) == (*disk, rs.P), (k, i)
        assert _same(w[i], spectra.eval_gk(k, root)), (k, i)


def _count_evaluations(monkeypatch):
    """A Counter of the _delta_fixed calls, by their fraction bits P."""
    calls = Counter()
    fixed = spectra._delta_fixed

    def counting(k, X, Y, P):
        calls[P] += 1
        return fixed(k, X, Y, P)

    monkeypatch.setattr(spectra, "_delta_fixed", counting)
    return calls


def test_polish_runs_newton_once_per_class(monkeypatch):
    # From a float seed, about 53 bits, Newton at 406 bits passes the
    # stop on its third or fourth step, each one evaluation at 406 bits.
    k = 53
    seeds = spectra._initial_seeds(k, 406)
    runs = []
    newton_disk = spectra._newton_disk
    monkeypatch.setattr(spectra, "_newton_disk",
                        lambda *args: runs.append(args) or newton_disk(*args))
    calls = _count_evaluations(monkeypatch)
    spectra._polish(k, seeds, 390)
    assert len(runs) == len(seeds)
    assert list(calls) == [406]
    assert 3 * len(seeds) <= calls[406] < 4 * len(seeds)


@pytest.mark.parametrize("k", [9, 10, 53, 200])
def test_certify_computes_one_radius_per_class(k, monkeypatch):
    # A cold 128-bit solve takes two evaluations of delta_k per class,
    # both with error bounds: the second Newton step passes the stop, and
    # its evaluation also gives the class's one radius, so _certify
    # evaluates nothing.
    radius = spectra._step_radius
    radii = []
    monkeypatch.setattr(spectra, "_step_radius",
                        lambda *args: radii.append(args) or radius(*args))
    calls = _count_evaluations(monkeypatch)
    rs = spectra.solve_roots(k)
    assert rs.prec == 128
    classes = len(rs.real_roots) + len(rs.conj_pairs)
    assert len(radii) == classes
    assert calls == {rs.P: 2 * classes}


@pytest.mark.parametrize("k", range(2, 13))
def test_binet_per_class_matches_all_roots_sum(k):
    rs = spectra.solve_roots(k, spectra.suggested_prec(k, 60))
    ctx = KContext(k)
    tol = Fraction(1, 10 ** 20)
    for n in range(-60, 61):
        exact = ctx.value(n)
        per_class = spectra.binet_reconstruct(k, n, rs)
        terms = [spectra.eval_gk(k, r) * r.pow_int(n) for r in rs.roots]
        all_roots = sum(terms[1:], terms[0]).real()
        assert per_class.contains(exact), (k, n)
        assert all_roots.contains(exact), (k, n)
        assert abs(per_class.fr_mid() - all_roots.fr_mid()) < tol, (k, n)
