"""Regenerate reference.json, the tables the benchmark's correctness gate
compares against.

- ``L``: the refined even-order bound L_k = floor(ln(16 k^2) / ln(|r_(k-1)| /
  |r_k|)) for even k in 2..100, where r_(k-1) and r_k are the two roots of
  Psi_k of smallest modulus.  The roots come from ``mpmath.polyroots`` at 60
  digits, not from pellzero, so the table checks ``refined_even_bound``
  independently.
- ``R``: ``odd_k_reduce(k, DEFAULT_M).R`` for odd k in 5..61.  No independent
  route to R_k exists, so this column pins the current output at the default
  seed; the gate also checks R_k against the deepest zero for every seed.

Run from the repository root (takes a few minutes):

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import pathlib
import sys

import mpmath as mp

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from pellzero import reduction  # noqa: E402


def refined_even_bound(k: int) -> int:
    with mp.workdps(60):
        roots = mp.polyroots([1, -2] + [-1] * (k - 1), maxsteps=200,
                             extraprec=200)
        moduli = sorted((abs(r) for r in roots), reverse=True)
        return int(mp.floor(mp.log(16 * k * k) / mp.log(moduli[-2] / moduli[-1])))


def main() -> None:
    table = {
        "L": {str(k): refined_even_bound(k) for k in range(2, 101, 2)},
        "R": {str(k): reduction.odd_k_reduce(k, reduction.DEFAULT_M).R
              for k in range(5, 62, 2)},
    }
    (HERE / "reference.json").write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
