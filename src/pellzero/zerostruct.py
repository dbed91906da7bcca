"""Zero patterns of the order-k sequence at nonpositive indices.

Scanning the exact sequence backward gives the observed zero set; the
predicted interval structure is a closed-form family of blocks with a
count formula chi.  verify_structure compares the two and reports or
raises with the exact symmetric difference.

The observed sets have their own closed form (observed_blocks): block j
sits at depths [j(k+1), j(k+1) + k - 2 - 2j] for j = 0, 1, ... while the
upper end stays at or above the lower.  The predicted intervals instead
match the zero pattern of a variant mirror orbit whose doubled
coefficient sits on the shallowest lag rather than the deepest
(variant_mirror below); the mismatch diagnosis in verify_structure
points at exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice

from . import bigseq
from .bigseq import KContext


class StructureMismatch(Exception):
    """Observed zero set differs from the predicted intervals."""

    def __init__(self, k, missing, extra, observed, predicted, diagnosis=""):
        self.k = k
        self.missing = tuple(missing)
        self.extra = tuple(extra)
        self.observed = tuple(observed)
        self.predicted = tuple(predicted)
        self.diagnosis = diagnosis
        msg = (f"k={k}: predicted-but-absent {sorted(missing)}, "
               f"observed-but-unpredicted {sorted(extra)}")
        if diagnosis:
            msg += f" ({diagnosis})"
        super().__init__(msg)


class IdentityViolation(Exception):
    """The cross-lag identity failed on the reflected sequence."""

    def __init__(self, k, n, lhs, rhs):
        self.k = k
        self.n = n
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(
            f"k={k}, n={n}: sequence value {lhs} != identity value {rhs}")


@dataclass(frozen=True)
class ZeroSet:
    k: int
    indices: tuple
    search_floor: int

    def __contains__(self, n):
        return n in self.indices

    def __len__(self):
        return len(self.indices)


@dataclass(frozen=True)
class IntervalStructure:
    k: int
    r: int
    blocks: tuple  # ((lo, hi), ...) with lo <= hi <= 0, shallowest first
    chi: int

    def index_set(self) -> set:
        out = {0}
        for lo, hi in self.blocks:
            out.update(range(lo, hi + 1))
        return out


def enumerate_zeros(k: int, floor: int) -> ZeroSet:
    """Exact backward scan: all n in [floor, 0] with term value 0.

    Streams the terms (bigseq.backward_terms), so memory stays O(k)
    whatever the depth."""
    if floor >= 0:
        raise ValueError(f"floor must be negative, got {floor}")
    if -floor > bigseq.DEFAULT_LIMIT:
        raise bigseq.LimitExceeded(floor, bigseq.DEFAULT_LIMIT)
    terms = islice(bigseq.backward_terms(k), 1 - floor)
    zeros = [-d for d, value in enumerate(terms) if value == 0]
    return ZeroSet(k=k, indices=tuple(reversed(zeros)), search_floor=floor)


def predicted_intervals(k: int) -> IntervalStructure:
    """The predicted block family: r = (k-2)/2 blocks for even k,
    (k-1)/2 for odd, block j covering depths jk - (k-3) + (j-1) through
    jk - (j-1), reported as negative indices shallowest-first."""
    if k < 4:
        raise ValueError(f"predicted intervals need k >= 4, got {k}")
    r = (k - 2) // 2 if k % 2 == 0 else (k - 1) // 2
    blocks = []
    for j in range(1, r + 1):
        deep = j * k - (j - 1)          # depth of the deep end
        shallow = j * k - ((k - 3) - (j - 1))
        blocks.append((-deep, -shallow))
    return IntervalStructure(k=k, r=r, blocks=tuple(blocks), chi=chi(k))


def chi(k: int) -> int:
    """Predicted zero count: 1, 2 for k = 2, 3; then the parity split
    1 + k(k-2)/4 (even) or 1 + (k-1)^2/4 (odd)."""
    if k < 2:
        raise ValueError(f"order k must be >= 2, got {k}")
    if k == 2:
        return 1
    if k == 3:
        return 2
    if k % 2 == 0:
        return 1 + k * (k - 2) // 4
    return 1 + (k - 1) ** 2 // 4


def observed_blocks(k: int) -> IntervalStructure:
    """Closed form of the zero set the exact scan actually finds:
    block j = depths [j(k+1), j(k+1) + (k-2-2j)] for j >= 0 while the
    width term k-2-2j stays nonnegative.  Block 0 is the seed window."""
    if k < 2:
        raise ValueError(f"order k must be >= 2, got {k}")
    blocks = []
    j = 0
    while k - 2 - 2 * j >= 0:
        shallow = j * (k + 1)
        deep = shallow + (k - 2 - 2 * j)
        blocks.append((-deep, -shallow))
        j += 1
    if not blocks:  # k = 2: bare {0}
        blocks = [(0, 0)]
    struct = IntervalStructure(k=k, r=len(blocks) - 1,
                               blocks=tuple(blocks), chi=observed_chi(k))
    return struct


def observed_chi(k: int) -> int:
    """Cardinality of the scan's zero set: (k/2)^2 for even k,
    (k^2 - 1)/4 for odd k."""
    if k < 2:
        raise ValueError(f"order k must be >= 2, got {k}")
    if k % 2 == 0:
        return (k // 2) ** 2
    return (k * k - 1) // 4


def mirror_shift(k: int) -> int:
    """Shift c making the reflected reading G_n = P(c - n) start with
    G_i = 0 for i = 0..k-2.  The seed window pins c = 0 uniquely; the
    reflected recurrence itself holds for every shift, being the forward
    rule read backwards."""
    ctx = KContext(k)
    for c in range(-2 * k, 2 * k + 1):
        if all(ctx.value(c - i) == 0 for i in range(k - 1)) \
                and ctx.value(c - (k - 1)) != 0:
            return c
    raise ArithmeticError(f"no shift reproduces the zero window for k={k}")


def mirror_sequence(k: int, n_hi: int, check_identity: bool = True) -> list:
    """G_0..G_{n_hi} where G_n reads the sequence at index c - n with the
    calibrated shift c (= 0).  With check_identity on (the default), each
    n >= k+1 is tested against the cross-lag identity

        G_n = 3 G_{n-k} + sum_{i=1}^{k-3} G_{n-(k-i)} - 2 G_{n-k-1} + 3 G_{n-2}

    and the first failure raises IdentityViolation.  The identity does
    not hold on the reflected orbit (see decision notes); callers that
    want the orbit anyway pass check_identity=False.
    """
    if n_hi < k:
        raise ValueError(f"n_hi must be >= k, got {n_hi} < {k}")
    c = mirror_shift(k)
    ctx = KContext(k)
    g = [ctx.value(c - n) for n in range(n_hi + 1)]
    if check_identity:
        for n in range(k + 1, n_hi + 1):
            rhs = (3 * g[n - k]
                   + sum(g[n - (k - i)] for i in range(1, k - 2))
                   - 2 * g[n - k - 1]
                   + 3 * g[n - 2])
            if g[n] != rhs:
                raise IdentityViolation(k, n, g[n], rhs)
    return g


def variant_mirror(k: int, n_hi: int) -> list:
    """The mirror recurrence with its doubled coefficient moved to the
    shallowest lag, restarted from the first nonzero backward window:

        seed (0, 1, -2, 0, ..., 0),
        G_n = G_{n-k} - 2 G_{n-k+1} - (G_{n-k+2} + ... + G_{n-1}).

    This orbit is NOT a reindexing of the sequence, but its zero pattern
    is exactly the predicted interval structure.
    """
    if k < 2:
        raise ValueError(f"order k must be >= 2, got {k}")
    if n_hi < 0:
        raise ValueError(f"n_hi must be >= 0, got {n_hi}")
    seed = [0, 1, -2] + [0] * (k - 3)
    g = seed[:k][: n_hi + 1]
    while len(g) <= n_hi:
        n = len(g)
        val = g[n - k] - 2 * g[n - k + 1] - sum(g[n - k + 2:n])
        g.append(val)
    return g


def variant_zero_set(k: int, floor: int) -> tuple:
    """Nonpositive indices -m for the zeros of the variant orbit with
    depth m <= |floor|.

    Same orbit as variant_mirror, streamed: subtracting its rule at n-1
    from the one at n leaves G_n = 3 G_{n-k} - G_{n-k+1} - G_{n-k-1} for
    n >= k+1, so only the last k+1 terms are kept."""
    if floor >= 0:
        raise ValueError(f"floor must be negative, got {floor}")
    head = variant_mirror(k, k)
    orbit = chain(head, bigseq.three_term_orbit(k, head))
    return tuple(-m for m, value in enumerate(islice(orbit, 1 - floor))
                 if value == 0)


def default_floor(k: int) -> int:
    return -(k * k + 4 * k)


def verify_structure(k: int, bound: int) -> dict:
    """Scan down to -bound and demand exact equality between the
    observed zeros and {0} plus the predicted blocks.  Returns a report
    entry on success; raises StructureMismatch with the symmetric
    difference and a diagnosis otherwise."""
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    if k >= 4:
        predicted = predicted_intervals(k).index_set()
    else:
        predicted = {0} if k == 2 else {0, -1}
    deepest_pred = min(predicted)
    if bound < -deepest_pred:
        raise ValueError(
            f"bound {bound} does not cover the deepest predicted index "
            f"{deepest_pred}")
    floor = -bound if bound > 0 else -1
    observed = set(enumerate_zeros(k, floor).indices)
    if observed != predicted:
        missing = predicted - observed
        extra = observed - predicted
        diagnosis = ""
        if set(variant_zero_set(k, floor)) == predicted:
            diagnosis = ("predicted intervals match the variant mirror "
                         "orbit, not the reflected sequence")
        raise StructureMismatch(k, missing, extra, sorted(observed),
                                sorted(predicted), diagnosis)
    deepest = min(observed)
    return {
        "k": k,
        "bound": bound,
        "zeros": sorted(observed),
        "count": len(observed),
        "chi": chi(k),
        "equal": True,
        "deepest_zero": deepest,
        "margin": deepest - floor,
    }


def observed_report(k: int, bound: int) -> dict:
    """Companion report that compares the scan against observed_blocks
    (the closed form that does hold)."""
    floor = -bound if bound > 0 else -1
    zset = enumerate_zeros(k, floor)
    observed = set(zset.indices)
    closed = observed_blocks(k).index_set()
    deepest = min(observed)
    return {
        "k": k,
        "bound": bound,
        "zeros": sorted(observed),
        "count": len(observed),
        "observed_chi": observed_chi(k),
        "closed_form_equal": observed == closed,
        "deepest_zero": deepest,
        "margin": deepest - floor,
    }
