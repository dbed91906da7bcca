"""Exact bidirectional evaluation of the k-generalized Pell sequence.

The order-k recurrence P_n = 2 P_{n-1} + P_{n-2} + ... + P_{n-k} with the
zero initial window P_n = 0 for n = -(k-2)..0 and P_1 = 1 extends uniquely
to all integer indices: solving the recurrence for its lowest-index term
gives the backward step

    P_m = P_{m+k} - 2 P_{m+k-1} - (P_{m+1} + ... + P_{m+k-2}).

Subtracting the recurrence at n-1 from the one at n cancels every lag but
three, P_n - P_{n-1} = 2 P_{n-1} - P_{n-2} - P_{n-k-1}, so

    P_n = 3 P_{n-1} - P_{n-2} - P_{n-k-1}   and, backward,
    P_m = 3 P_{m+k} - P_{m+k-1} - P_{m+k+1}.

KContext evaluates by the k-term rules above and keeps every term it has
seen; backward_terms streams P_0, P_{-1}, ... by the three-term step,
holding only the last k+1 terms (three_term_orbit), and backward_value
reads one nonpositive index off that stream.  forward_value is its
mirror for positive indices, on the forward three-term step.

Everything above is arbitrary-precision integer arithmetic; no rounding.
residue_blocks runs the same three-term step on residues mod a Mersenne
prime p = 2^e - 1, packed into one Python int: e = 31 (RESIDUE_MODULUS)
for the zero scan, e = 61 (SECOND_MODULUS) to check its hits
(zerostruct reads the hits off the blocks).  Residues prove terms
nonzero, never zero: x = r (mod p) with r != 0 forces x != 0, while a
residue 0 only says that p divides x.  Read by depth d, the step x_d =
3 x_{d-k} - x_{d-k+1} - x_{d-k-1} reaches back k - 1 terms or more, so
k - 1 consecutive terms depend only on the k + 1 terms before them and
one block of k - 1 lanes is computed at once:

    new = 3 A + 3p - B - C,   A, B, C = lanes 1.., 2.., 0.. of the window.

A lane is e + 5 bits wide (LANE_BITS = 36 for e = 31; 66 for e = 61) and
holds a value in [0, p].  Adding 3p per lane keeps every lane of
3A - B - C nonnegative (it is at least -2p), so no lane borrows from its
neighbour, and no lane exceeds 6p < 2^(e+3).  Since 2^e = 1 (mod p), the
fold (y & M) + ((y >> e) & 7) maps each lane to a congruent value, at
most p + 5 after one fold and at most p after two.  A lane is then 0 mod
p exactly when it is 0 or p.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Iterator, Sequence
from itertools import islice

from .precision import OrderError

DEFAULT_LIMIT = 10_000_000
RESIDUE_EXPONENT = 31
RESIDUE_MODULUS = (1 << RESIDUE_EXPONENT) - 1
LANE_BITS = RESIDUE_EXPONENT + 5
SECOND_EXPONENT = 61
SECOND_MODULUS = (1 << SECOND_EXPONENT) - 1


class LimitExceeded(RuntimeError, OrderError):
    """Requested index magnitude exceeds a resource limit; `name` says
    which one (the KContext limit, bigseq.DEFAULT_LIMIT, --limit, ...)."""

    def __init__(self, n, limit, name):
        super().__init__(f"index {n} exceeds {name} = {limit}")
        self.n = n
        self.limit = limit
        self.name = name


class KContext:
    """Evaluation context for one order k: cache plus resource limit.

    The cache holds a contiguous index range, extended by one linear
    sweep per request.  Safe for concurrent readers; extensions are
    serialized by an internal lock.
    """

    def __init__(self, k: int, limit: int | None = None):
        if k < 2:
            raise ValueError(f"order k must be >= 2, got {k}")
        self.k = k
        self.limit = DEFAULT_LIMIT if limit is None else limit
        self._lock = threading.Lock()
        self._vals = {n: 0 for n in range(-(k - 2), 1)}
        self._vals[1] = 1
        self._lo = -(k - 2)
        self._hi = 1

    def _extend_up(self, to_n: int):
        k = self.k
        vals = self._vals
        for n in range(self._hi + 1, to_n + 1):
            vals[n] = 2 * vals[n - 1] + sum(vals[n - j] for j in range(2, k + 1))
        self._hi = max(self._hi, to_n)

    def _extend_down(self, to_m: int):
        k = self.k
        vals = self._vals
        for m in range(self._lo - 1, to_m - 1, -1):
            vals[m] = (vals[m + k] - 2 * vals[m + k - 1]
                       - sum(vals[m + j] for j in range(1, k - 1)))
        self._lo = min(self._lo, to_m)

    def value(self, n: int) -> int:
        """The exact sequence value at any integer index."""
        if abs(n) > self.limit:
            raise LimitExceeded(n, self.limit, "the KContext limit")
        with self._lock:
            if n > self._hi:
                self._extend_up(n)
            if n < self._lo:
                self._extend_down(n)
            return self._vals[n]


def three_term_orbit(k: int, window: Sequence[int]) -> Iterator[int]:
    """Endless continuation of x_n = 3 x_{n-k} - x_{n-k+1} - x_{n-k-1}
    from window = (x_{n-k-1}, ..., x_{n-1}), its k+1 latest terms.

    Yields x_n, x_{n+1}, ... from a ring of k+1 slots, where x_n
    displaces x_{n-k-1}."""
    if len(window) != k + 1:
        raise ValueError(f"window needs k+1 = {k + 1} terms, got {len(window)}")
    ring = deque(window, maxlen=k + 1)
    while True:
        term = 3 * ring[1] - ring[2] - ring[0]
        ring.append(term)
        yield term


def backward_terms(k: int) -> Iterator[int]:
    """P_0, P_{-1}, P_{-2}, ... exactly, in O(k) memory.

    Read by depth d = -m, the backward step is x_d = 3 x_{d-k} -
    x_{d-k+1} - x_{d-k-1}, continued from P_2, P_1, P_0, ...,
    P_{-(k-2)}."""
    if k < 2:
        raise ValueError(f"order k must be >= 2, got {k}")
    yield from [0] * (k - 1)
    yield from three_term_orbit(k, [2, 1] + [0] * (k - 1))


def backward_value(k: int, n: int) -> int:
    """P_n for n <= 0 by walking backward_terms: O(k) memory, no cache,
    no index limit (callers such as `pellzero eval` check their own)."""
    if n > 0:
        raise ValueError(f"backward_value needs n <= 0, got {n}")
    return next(islice(backward_terms(k), -n, None))


def forward_value(k: int, n: int) -> int:
    """P_n for n >= 1 by the forward step P_n = 3 P_{n-1} - P_{n-2} -
    P_{n-k-1} from (P_{1-k}, ..., P_0, P_1) = (1, 0, ..., 0, 1): O(k)
    terms held, no cache, no index limit."""
    if k < 2:
        raise ValueError(f"order k must be >= 2, got {k}")
    if n < 1:
        raise ValueError(f"forward_value needs n >= 1, got {n}")
    ring = deque([1] + [0] * (k - 1) + [1], maxlen=k + 1)
    for _ in range(n - 1):
        ring.append(3 * ring[-1] - ring[-2] - ring[0])
    return ring[-1]


def residue_blocks(k: int, window: Sequence[int],
                   exponent: int = RESIDUE_EXPONENT) -> Iterator[int]:
    """The continuation of three_term_orbit(k, window) mod
    p = 2^exponent - 1, k - 1 terms per packed block, for ever.

    Lane i of a block (bits wi to wi + w - 1, w = exponent + 5) holds a
    value in [0, p] congruent to the block's i-th term; the first block
    starts with the term right after window.  Only the last k + 1
    residues are kept, in one int of (k + 1) w bits."""
    if len(window) != k + 1:
        raise ValueError(f"window needs k+1 = {k + 1} terms, got {len(window)}")
    e, width = exponent, k - 1
    p, w = (1 << e) - 1, e + 5
    ones = sum(1 << (w * i) for i in range(width))
    low, carry, bias = p * ones, 7 * ones, 3 * p * ones
    block = (1 << (w * width)) - 1
    state = 0
    for x in reversed(window):
        state = (state << w) | (x % p)
    while True:
        y = (3 * ((state >> w) & block) + bias
             - (state >> (2 * w)) - (state & block))
        y = (y & low) + ((y >> e) & carry)
        y = (y & low) + ((y >> e) & carry)
        state = (state >> (w * width)) | (y << (2 * w))
        yield y

