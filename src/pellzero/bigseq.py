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
reads one nonpositive index off that stream.

Everything here is arbitrary-precision integer arithmetic; no rounding.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import islice

DEFAULT_LIMIT = 10_000_000


class LimitExceeded(RuntimeError):
    """Requested index magnitude exceeds a resource limit; `name` says
    which one (the KContext limit, bigseq.DEFAULT_LIMIT, --limit, ...)."""

    def __init__(self, n, limit, name):
        super().__init__(f"index {n} exceeds {name} = {limit}")
        self.n = n
        self.limit = limit
        self.name = name


@dataclass(frozen=True)
class ExactTerm:
    n: int
    value: int


class KContext:
    """Evaluation context for one order k: cache plus resource limit.

    The cache holds a contiguous index range so range requests are a
    single linear sweep.  Safe for concurrent readers; extensions are
    serialized by an internal lock.
    """

    def __init__(self, k: int, limit: int = DEFAULT_LIMIT):
        if k < 2:
            raise ValueError(f"order k must be >= 2, got {k}")
        self.k = k
        self.limit = limit
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

    def _ensure(self, n_lo: int, n_hi: int):
        if abs(n_lo) > self.limit or abs(n_hi) > self.limit:
            worst = n_lo if abs(n_lo) > abs(n_hi) else n_hi
            raise LimitExceeded(worst, self.limit, "the KContext limit")
        with self._lock:
            if n_hi > self._hi:
                self._extend_up(n_hi)
            if n_lo < self._lo:
                self._extend_down(n_lo)
            return self._vals

    def value(self, n: int) -> int:
        return self._ensure(n, n)[n]


def eval_term(ctx: KContext, n: int) -> ExactTerm:
    """The exact sequence value at any integer index."""
    return ExactTerm(n, ctx.value(n))


def eval_range(ctx: KContext, n_lo: int, n_hi: int) -> list[ExactTerm]:
    """Terms for every index in [n_lo, n_hi], one linear sweep."""
    if n_lo > n_hi:
        raise ValueError(f"empty range [{n_lo}, {n_hi}]")
    vals = ctx._ensure(n_lo, n_hi)
    return [ExactTerm(n, vals[n]) for n in range(n_lo, n_hi + 1)]


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


def backward_value(k: int, n: int, limit: int = DEFAULT_LIMIT) -> int:
    """P_n for n <= 0 by walking backward_terms: O(k) memory, no cache.

    Raises LimitExceeded when |n| exceeds `limit`, as KContext does."""
    if n > 0:
        raise ValueError(f"backward_value needs n <= 0, got {n}")
    if -n > limit:
        raise LimitExceeded(n, limit, "the backward_value limit")
    return next(islice(backward_terms(k), -n, None))
