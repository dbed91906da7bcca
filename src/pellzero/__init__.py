"""Exact arithmetic, certified root systems, and effective bounds for
the order-k generalizations of the Pell recurrence, with a focus on the
zeros that appear at nonpositive indices."""

from .ball import (
    Ball,
    DomainError,
    IndeterminateComparison,
    PREC_CEILING,
    PREC_START,
    PrecisionExhausted,
    ZeroDivisionEnclosure,
)
from .bigseq import DEFAULT_LIMIT, ExactTerm, KContext, LimitExceeded, eval_range, eval_term
from .effbounds import (
    HypothesisViolation,
    LogMagnitude,
    MatveevInstance,
    global_zero_index_bound,
    height_rational,
    implicit_log_bound,
    matveev_lower_bound,
    refined_even_bound,
)
from .reduction import (
    CFExpansion,
    DEFAULT_M,
    ReductionExhausted,
    ReductionInstance,
    ReductionOutcome,
    cf_expand,
    dp_reduce,
    odd_k_instance,
    odd_k_reduce,
)
from .spectra import (
    RootSystem,
    binet_reconstruct,
    check_dominant_bounds,
    check_even_modulus_gap,
    check_root_bounds,
    check_root_separation,
    eval_gk,
    mahler_measure,
    psi_eval,
    solve_roots,
)
from .zerostruct import (
    IdentityViolation,
    IntervalStructure,
    StructureMismatch,
    ZeroComparison,
    ZeroSet,
    chi,
    compare_zeros,
    enumerate_zeros,
    mirror_sequence,
    predicted_intervals,
    verify_structure,
)

__version__ = "0.1.0"
