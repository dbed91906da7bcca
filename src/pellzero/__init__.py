"""Exact arithmetic, certified root systems, and effective bounds for
the order-k generalizations of the Pell recurrence, with a focus on the
zeros that appear at nonpositive indices.

Importing the package loads no submodule: each public name below, and
each submodule, is imported on its first access (PEP 562), so a command
loads only the modules it runs.  Only Ball.log, Ball.arg and Ball.pi
load mpmath: the odd reduction and spectra.check_root_separation call
them."""

import importlib

__version__ = "0.1.0"

_SOURCES = {
    "ball": ("Ball",),
    "precision": ("DomainError", "IndeterminateComparison", "PREC_CEILING",
                  "PREC_START", "PrecisionExhausted", "ReductionExhausted",
                  "ZeroDivisionEnclosure"),
    "bigseq": ("DEFAULT_LIMIT", "KContext", "LimitExceeded"),
    "effbounds": ("HypothesisViolation", "LogMagnitude", "MatveevInstance",
                  "global_zero_index_bound", "implicit_log_bound",
                  "matveev_lower_bound", "refined_even_bound"),
    "reduction": ("CFExpansion", "DEFAULT_M", "ReductionInstance",
                  "ReductionOutcome", "cf_expand", "dp_reduce",
                  "odd_k_instance", "odd_k_reduce"),
    "spectra": ("RootSystem", "binet_reconstruct", "check_dominant_bounds",
                "check_even_modulus_gap", "check_root_bounds",
                "check_root_separation", "eval_gk", "solve_roots"),
    "zerostruct": ("IdentityViolation", "IntervalStructure",
                   "StructureMismatch", "ZeroComparison", "ZeroSet", "chi",
                   "compare_zeros", "enumerate_zeros", "mirror_sequence",
                   "predicted_intervals", "verify_structure"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}
_SUBMODULES = frozenset(_SOURCES) | {"cli"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF) | _SUBMODULES)
