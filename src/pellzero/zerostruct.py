"""Zero patterns of the order-k sequence at nonpositive indices.

The observed zero set is proved for even k (the sign theorem below) and
scanned on residues for odd k; the predicted interval
structure is a closed-form family of blocks with a count formula chi.
compare_zeros sets the two side by side once, with the exact symmetric
difference; verify_structure and the CLI's verify records are read off
that comparison.

The observed sets have their own closed form (observed_blocks): block j
sits at depths [j(k+1), j(k+1) + k - 2 - 2j] for j = 0, 1, ... while the
upper end stays at or above the lower.  The predicted intervals instead
match the zero pattern of a variant mirror orbit whose doubled
coefficient sits on the shallowest lag rather than the deepest
(variant_mirror below); compare_zeros records whether a mismatch is
exactly that.

The blocks are zeros for every k >= 2, by the generating function.  With
a_d = P_{-d}, the backward step a_d = 3a_{d-k} - a_{d-k+1} - a_{d-k-1}
holds for d >= k - 1, where it reads a_{-1} = P_1 = 1 and a_{-2} = P_2 =
2, and a_d = 0 for d = 0..k-2 (the seed window).  So

    sum_{d>=0} a_d x^d = (x^(k-1) - x^k) / D(x),
    D(x) = 1 + x^(k-1) - 3x^k + x^(k+1),

the numerator being the terms the series leaves out: 3a_{-1} - a_{-2} =
1 at depth k - 1 and -a_{-1} = -1 at depth k.  1/D is the sum over m of
(3x^k - x^(k-1) - x^(k+1))^m, whose m-th power has monomials only at the
depths mk + s, |s| <= m; times the numerator, the depths reached are
[jk - j, jk + j - 1] for j >= 1.  A depth that no monomial reaches has
coefficient 0, and the gaps before and between these intervals, [0, k -
2] and [j(k+1), j(k+1) + k - 2 - 2j] while k - 2 - 2j >= 0, are exactly
the blocks of observed_blocks.  So every block index is a zero, and
there are observed_chi(k) of them.

The converse, that no other index is a zero, is a sign argument.  As
D = 1 + x^(k-1)(x^2 - 3x + 1),

    sum_d a_d x^d = sum_{m>=0} (-1)^m x^((m+1)(k-1)) Q_m(x),
    Q_m = (1 - x)(x^2 - 3x + 1)^m.

Q_m(-x) = (1 + x)(x^2 + 3x + 1)^m has only positive coefficients, so
coefficient i of Q_m, 0 <= i <= 2m + 1, is nonzero with sign (-1)^i.
Block m reaches [(m+1)(k-1), (m+1)(k+1) - 1], and its term at depth d
has sign (-1)^d (-1)^m (-1)^((m+1)(k-1)).  For even k that is -(-1)^d
for every m: the terms at a depth never cancel, and the zeros are
exactly observed_blocks(k) at every depth, with no scan.  For odd k the
sign alternates with m, but below the first overlap of two blocks, at
depth (k+3)(k-1)/2, each depth gets one term, so the zeros there are
the blocks too; deeper, odd k is decided by the scan.

The predicted intervals are the zeros of the variant orbit
(variant_mirror) by the same argument.  Its numerator is x - 2x^2 +
x^k, and regrouped,

    sum_d g_d x^d = x - 2x^2 + sum_{m>=0} (-1)^m x^((m+1)(k-1)+2)
                    (1 - x)(5 - 2x)(x^2 - 3x + 1)^m,

where block m, at -x (1 + x)(5 + 2x)(x^2 + 3x + 1)^m, has 2m + 3
coefficients of alternating sign and reaches [(m+1)(k-1) + 2,
(m+1)(k+1) + 2].  Depth 0 and the gaps [i(k+1) + 3, (i+1)(k-1) + 1]
before the blocks are predicted_set(k): at every depth for even k, and
for odd k below the first overlap at depth (k^2 + 3)/2, which lies past
every predicted block.

The sequence is scanned (_scan_depths) in one pass on packed residues
mod p = 2^31 - 1 (bigseq.residue_blocks), run from the seed window, so
the first lane is depth k - 1 and depths 0..k-2 (block 0) are not read.
Its cost per index does not grow with the terms, to any depth:

- A nonzero residue proves a nonzero term: p divides every zero.
- The blocks are zeros by the theorem above, so the hits (lanes that
  p divides) of each packed word of k - 1 lanes are compared with the
  block lanes in it, one integer compare per word (_hits).  A block lane
  that is no hit contradicts the theorem, a fault in the program, and
  raises ScanContradiction, which `verify` reports as an ERROR record
  for that order.  Only a hit off the blocks is read lane by lane.
- Such a hit is never taken as a zero.  The same reader checks it mod a
  second prime, 2^61 - 1, from the seed to the last hit, and a nonzero
  residue rejects it.  Only a hit that both primes divide walks the
  exact terms (bigseq.backward_terms) on to its depth, in O(k) memory
  and within bigseq.DEFAULT_LIMIT, past which the walk raises
  LimitExceeded; only an exact 0 there joins the zero set.  A rejected
  hit is only counted.  With no hit off the blocks, no exact term is
  read.

Each scan reports its coverage as a dict, which an odd verify record
carries as checks.scan: exact_through is the depth through which the
closed form proves the zero set (the scan depth for even k, at most
(k+3)(k-1)/2 - 1 for odd k), residue_through is the scan depth,
residue_modulus is p, residue_hits counts the hits confirmed as zeros
and rejected as nonzero, and rejected_by_second_modulus counts the
rejected hits that the second prime settled without the exact walk.
compare_zeros adds variant_through, the deepest depth the variant proof
covers, (k^2 + 1)/2 (None without a variant match).  The variant orbit
is not scanned: variant_zero_set, the variant theorem's oracle, reads
its exact terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice

from . import bigseq
from .precision import OrderError


class ScanContradiction(RuntimeError, OrderError):
    """A block lane the sign theorem proves zero is nonzero in the
    residue scan: a fault in the program, not a property of k."""


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
    scan: dict = field(hash=False)  # coverage, see the module docstring

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


def _hits(k: int, exponent: int, depth: int):
    """Depths d in [k - 1, depth], ascending, off observed_blocks(k), at
    which P_{-d} is 0 mod 2^exponent - 1; every other depth there off
    the blocks is proved nonzero.

    Word i of the residues from the seed window holds depths (i+1)(k-1)
    .. (i+2)(k-1) - 1, so block j >= 1, at depths j(k-1) + 2j .. j(k-1)
    + k - 2, is lanes 2j .. k-2 of word j - 1.  A lane v is flagged if
    it is 0 or p: adding 1 and masking to `exponent` bits sends those to
    1 and 0, and the top bit (w - 1) of v + 2^(w-1) - 2 is clear iff
    v < 2.  The block mask is looked up only on a word with a flag or a
    block, and a block lane left unflagged raises."""
    w, width = exponent + 5, k - 1
    ones = sum(1 << (w * i) for i in range(width))
    low, top = ((1 << exponent) - 1) * ones, ones << (w - 1)
    below_two = top - 2 * ones
    masks = [top >> (w * (width - hi + lo - 1)) << (w * (-hi % width))
             for lo, hi in observed_blocks(k).blocks[1:]]
    edge = len(masks) * width
    stream = bigseq.residue_blocks(k, [2, 1] + [0] * (k - 1), exponent)
    for start, y in zip(range(width, depth + 1, width), stream):
        hit = ~(((y + ones) & low) + below_two) & top
        if hit or start <= edge:
            want = masks[start // width - 1] if start <= edge else 0
            if want & ~hit:
                raise ScanContradiction(f"k={k}: a block lane at depths {start}.."
                                        f"{start + width - 1} is not 0 mod "
                                        f"2^{exponent} - 1")
            if hit != want:
                yield from (start + lane for lane in range(width)
                            if (hit ^ want) >> (w * lane + w - 1) & 1
                            and start + lane <= depth)


def _scan_depths(k: int, depth: int) -> tuple[list, dict]:
    """Depths d <= depth, ascending, at which P_{-d} = 0, with the scan's
    coverage: the blocks of observed_blocks(k), and each hit outside them
    that both primes divide and the exact walk finds 0."""
    first = list(_hits(k, bigseq.RESIDUE_EXPONENT, depth))
    both = set(_hits(k, bigseq.SECOND_EXPONENT, first[-1])) if first else set()
    double = [d for d in first if d in both]
    past = [d for d in double if d > bigseq.DEFAULT_LIMIT]
    if past:
        raise bigseq.LimitExceeded(-past[0], bigseq.DEFAULT_LIMIT,
                                   "bigseq.DEFAULT_LIMIT")
    terms = enumerate(bigseq.backward_terms(k))
    confirmed = [d for d in double
                 if next(value for at, value in terms if at == d) == 0]
    zeros = [d for lo, hi in observed_blocks(k).blocks
             for d in range(-hi, min(-lo, depth) + 1)]
    return sorted(zeros + confirmed), {
        "exact_through": min(depth, (k + 3) * (k - 1) // 2 - 1)
        if k % 2 else depth,
        "residue_through": depth,
        "residue_modulus": (1 << bigseq.RESIDUE_EXPONENT) - 1,
        "residue_hits": {"confirmed": len(confirmed),
                         "rejected": len(first) - len(confirmed)},
        "rejected_by_second_modulus": len(first) - len(double)}


def enumerate_zeros(k: int, floor: int) -> ZeroSet:
    """All n in [floor, 0] with P_n = 0, proved: one residue pass from
    the seed, checked against observed_blocks(k) word by word (see the
    module docstring).  Memory stays O(k) whatever the depth,
    and the depth has no cap; only a hit that both primes divide past
    bigseq.DEFAULT_LIMIT raises LimitExceeded."""
    if floor >= 0:
        raise ValueError(f"floor must be negative, got {floor}")
    depths, scan = _scan_depths(k, -floor)
    return ZeroSet(k=k, indices=tuple(-d for d in reversed(depths)),
                   search_floor=floor, scan=scan)


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
    """Predicted zero count: 1 + k(k-2)/4 for even k and 1 + (k-1)^2/4
    for odd k, which give 1 and 2 at k = 2 and 3."""
    if k < 2:
        raise ValueError(f"order k must be >= 2, got {k}")
    if k % 2 == 0:
        return 1 + k * (k - 2) // 4
    return 1 + (k - 1) ** 2 // 4


def observed_blocks(k: int) -> IntervalStructure:
    """Closed form of the zero set the scan actually finds:
    block j = depths [j(k+1), j(k+1) + (k-2-2j)] for j >= 0 while the
    width term k-2-2j stays nonnegative.  Block 0 is the seed window,
    which is the bare index 0 at k = 2."""
    if k < 2:
        raise ValueError(f"order k must be >= 2, got {k}")
    blocks = []
    j = 0
    while k - 2 - 2 * j >= 0:
        shallow = j * (k + 1)
        deep = shallow + (k - 2 - 2 * j)
        blocks.append((-deep, -shallow))
        j += 1
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


def mirror_sequence(k: int, n_hi: int, check_identity: bool = True) -> list:
    """G_0..G_{n_hi} where G_n = P(-n), the sequence read backward from
    its zero window (bigseq.backward_terms).  With check_identity on
    (the default), each n >= k+1 is tested against the cross-lag identity

        G_n = 3 G_{n-k} + sum_{i=1}^{k-3} G_{n-(k-i)} - 2 G_{n-k-1} + 3 G_{n-2}

    and the first failure raises IdentityViolation.  The identity does
    not hold on the reflected orbit (the strict xfail
    test_claimed_identity_holds_k6 pins that); callers that want the
    orbit anyway pass check_identity=False.
    """
    if n_hi < k:
        raise ValueError(f"n_hi must be >= k, got {n_hi} < {k}")
    g = list(islice(bigseq.backward_terms(k), n_hi + 1))
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
    depth m <= |floor|, read off its exact terms: the oracle of the
    variant theorem, so it takes no zero from it.

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


def predicted_set(k: int) -> frozenset:
    """Index 0 plus the predicted blocks: {0} for k = 2, {0, -1} for
    k = 3, and predicted_intervals(k).index_set() from k = 4 on."""
    if k >= 4:
        return frozenset(predicted_intervals(k).index_set())
    if k < 2:
        raise ValueError(f"order k must be >= 2, got {k}")
    return frozenset(range(2 - k, 1))


@dataclass(frozen=True)
class ZeroComparison:
    """The zero set against the predicted one, as sorted index tuples.
    variant_match is set only on a mismatch, when the predicted set is
    exactly the zero set of the variant mirror orbit.  scan is the
    coverage of the sequence scan behind observed, with the depth the
    variant proof covers as variant_through, or None when nothing was
    scanned (even k)."""
    observed: tuple
    predicted: tuple
    missing: tuple
    extra: tuple
    variant_match: bool
    scan: dict | None = field(hash=False)

    @property
    def equal(self) -> bool:
        return not (self.missing or self.extra)


def compare_zeros(k: int, floor: int) -> ZeroComparison:
    """Compare the zeros in [floor, 0] with predicted_set(k).

    For even k they are observed_blocks(k) cut at floor, by the sign
    theorem (module docstring), and nothing is scanned; odd k is scanned
    (enumerate_zeros).  Every k >= 4 mismatches (-1 is a zero, not a
    predicted index), and the variant theorem makes variant_match true
    there, for odd k through depth (k^2 + 1)/2."""
    if floor >= 0:
        raise ValueError(f"floor must be negative, got {floor}")
    scan = None
    if k % 2 == 0:
        observed = {n for n in observed_blocks(k).index_set() if n >= floor}
    else:
        zset = enumerate_zeros(k, floor)
        observed = set(zset.indices)
        scan = {**zset.scan,
                "variant_through": (k * k + 1) // 2 if k >= 4 else None}
    predicted = predicted_set(k)
    return ZeroComparison(
        observed=tuple(sorted(observed)),
        predicted=tuple(sorted(predicted)),
        missing=tuple(sorted(predicted - observed)),
        extra=tuple(sorted(observed - predicted)),
        variant_match=k >= 4,
        scan=scan)


def verify_structure(k: int, bound: int) -> dict:
    """Scan down to -bound and demand exact equality between the
    observed zeros and {0} plus the predicted blocks.  Returns a report
    entry on success; raises StructureMismatch with the symmetric
    difference and a diagnosis otherwise."""
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    deepest_pred = min(predicted_set(k))
    if bound < -deepest_pred:
        raise ValueError(
            f"bound {bound} does not cover the deepest predicted index "
            f"{deepest_pred}")
    floor = -bound if bound > 0 else -1
    cmp = compare_zeros(k, floor)
    if not cmp.equal:
        diagnosis = ("predicted intervals match the variant mirror "
                     "orbit, not the reflected sequence"
                     if cmp.variant_match else "")
        raise StructureMismatch(k, cmp.missing, cmp.extra, cmp.observed,
                                cmp.predicted, diagnosis)
    return {
        "k": k,
        "bound": bound,
        "zeros": list(cmp.observed),
        "count": len(cmp.observed),
        "chi": chi(k),
        "equal": True,
        "deepest_zero": cmp.observed[0],
        "margin": cmp.observed[0] - floor,
    }

