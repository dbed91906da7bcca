"""The dominant-root envelope phi^2 (1 - phi^-k) < gamma < phi^2.

spectra.check_dominant_bounds evaluates nothing: its docstring proves
the envelope for every k >= 2.  The oracle re-checks the proof's steps
in mpmath at 2k + 128 bits, enough for the 1.39k bits that delta_k
loses to cancellation near phi^2: delta_k(phi^2) = 1, delta_k(q) at
q = phi^2 (1 - phi^-k) equals the proof's closed form and is at most
-1 (with equality at k = 2), and Newton from phi^2 on delta_k lands on
a root strictly between q and phi^2.
"""

import mpmath as mp
import pytest

from pellzero import spectra

ORDERS = list(range(2, 121)) + [183, 184, 367, 368, 500]


def _delta(k, x):
    return x ** (k + 1) - 3 * x ** k + x ** (k - 1) + 1


def _envelope(k):
    """phi, phi^2 and q = phi^2 (1 - phi^-k) at the working precision."""
    phi = (1 + mp.sqrt(5)) / 2
    return phi, phi ** 2, phi ** 2 * (1 - phi ** -k)


def test_envelope_proof_steps_hold():
    for k in range(2, 501):
        with mp.workprec(2 * k + 128):
            tol = mp.ldexp(1, -64)
            phi, phi2, q = _envelope(k)
            assert abs(_delta(k, phi2) - 1) < tol, k
            d = _delta(k, q)
            closed = 1 - phi ** k * (1 - phi ** -k) ** (k - 1) * (mp.sqrt(5) - phi ** (2 - k))
            assert abs(d - closed) < tol, k
            assert d <= -1 + tol, k
            if k == 2:
                assert abs(d + 1) < tol


@pytest.mark.parametrize("k", ORDERS)
def test_dominant_bounds_hold(k):
    assert spectra.check_dominant_bounds(spectra.solve_roots(k)) is True


def test_root_lies_inside_the_envelope():
    for k in ORDERS:
        with mp.workprec(2 * k + 128):
            _, phi2, q = _envelope(k)
            x, step = phi2, 1
            for _ in range(200):
                step = _delta(k, x) / ((k + 1) * x ** k - 3 * k * x ** (k - 1)
                                       + (k - 1) * x ** (k - 2))
                x -= step
                if abs(step) < mp.ldexp(1, -(2 * k + 96)):
                    break
            assert abs(step) < mp.ldexp(1, -(2 * k + 96)), k
            assert q < x < phi2, k
