"""What each entry point loads.  The package root resolves its names on
first access, and the commands that build no Ball (verify without
--full, zeros, eval, chi, bound, roots) never load mpmath, pellzero.ball
or pellzero.reduction.  Each check runs in a fresh interpreter, since
this test process has loaded every module already."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import pellzero

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
HEAVY = ("mpmath", "pellzero.ball", "pellzero.reduction")

# The package root's public names and the module each came from when the
# root imported every module eagerly.
PUBLIC = {
    "ball": ["Ball", "DomainError", "IndeterminateComparison", "PREC_CEILING",
             "PREC_START", "PrecisionExhausted", "ZeroDivisionEnclosure"],
    "bigseq": ["DEFAULT_LIMIT", "KContext", "LimitExceeded"],
    "effbounds": ["HypothesisViolation", "LogMagnitude", "MatveevInstance",
                  "global_zero_index_bound", "implicit_log_bound",
                  "matveev_lower_bound", "refined_even_bound"],
    "reduction": ["CFExpansion", "DEFAULT_M", "ReductionExhausted",
                  "ReductionInstance", "ReductionOutcome", "cf_expand",
                  "dp_reduce", "odd_k_instance", "odd_k_reduce"],
    "spectra": ["RootSystem", "binet_reconstruct", "check_dominant_bounds",
                "check_even_modulus_gap", "check_root_bounds",
                "check_root_separation", "eval_gk", "solve_roots"],
    "zerostruct": ["IdentityViolation", "IntervalStructure",
                   "StructureMismatch", "ZeroComparison", "ZeroSet", "chi",
                   "compare_zeros", "enumerate_zeros", "mirror_sequence",
                   "predicted_intervals", "verify_structure"],
}


def run_fresh(code, *argv):
    """Run code in a fresh interpreter that finds pellzero in src; it
    prints one JSON line last."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# An expression for the loaded modules that the tests look at.
LOADED = "sorted(m for m in sys.modules if m == 'mpmath' or m.startswith('pellzero'))"


def test_import_loads_no_submodule():
    loaded = run_fresh(f"import sys, json, pellzero; print(json.dumps({LOADED}))")
    assert loaded == ["pellzero"]


@pytest.mark.parametrize("argv", [
    ["verify", "--k", "4"],
    ["verify", "--k", "5"],
    # check_dominant_bounds escalates its sign test at k = 92.
    ["verify", "--k", "92"],
    ["zeros", "--k", "5"],
    ["eval", "--k", "3", "--n", "-7"],
    ["chi", "--k", "6"],
    ["bound", "--k", "5"],
    ["bound", "--refined", "--k", "6"],
    ["roots", "--k", "7"],
])
def test_commands_without_balls_leave_mpmath_unloaded(argv):
    code = ("import sys, json\n"
            "from pellzero import cli\n"
            "rc = cli.main(sys.argv[1:])\n"
            f"print(json.dumps([rc, {LOADED}]))")
    rc, loaded = run_fresh(code, *argv)
    assert rc in (0, 1)
    assert not set(HEAVY) & set(loaded), loaded


def test_odd_full_verify_loads_the_reduction():
    code = ("import sys, json\n"
            "from pellzero import cli\n"
            "rc = cli.main(['verify', '--k', '5', '--full'])\n"
            f"print(json.dumps([rc, {LOADED}]))")
    rc, loaded = run_fresh(code)
    assert rc in (0, 1)
    assert set(HEAVY) <= set(loaded)


def test_bad_order_is_an_error_record_before_the_reduction_loads():
    # With both residue primes 2^5 - 1, k = 9 has a double hit off its
    # blocks at depth 84, past a DEFAULT_LIMIT of 50: the exact walk
    # raises LimitExceeded inside the worker, which catches it as an
    # OrderError from pellzero.precision, without pellzero.reduction.
    code = ("import contextlib, io, json, sys\n"
            "from pellzero import bigseq, cli\n"
            "bigseq.RESIDUE_EXPONENT = bigseq.SECOND_EXPONENT = 5\n"
            "bigseq.DEFAULT_LIMIT = 50\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    rc = cli.main(['verify', '--k', '9'])\n"
            f"print(json.dumps([rc, json.loads(out.getvalue()), {LOADED}]))")
    rc, rec, loaded = run_fresh(code)
    assert rc == 2
    assert rec["status"] == "ERROR"
    assert rec["detail"] == ("LimitExceeded: index -84 exceeds "
                             "bigseq.DEFAULT_LIMIT = 50")
    assert not set(HEAVY) & set(loaded), loaded


def test_every_public_name_resolves_to_its_module_object():
    import importlib
    for module, names in PUBLIC.items():
        mod = importlib.import_module(f"pellzero.{module}")
        for name in names:
            assert getattr(pellzero, name) is getattr(mod, name), name


def test_dir_lists_every_public_name_and_submodule():
    listed = set(dir(pellzero))
    assert {n for names in PUBLIC.values() for n in names} <= listed
    assert set(PUBLIC) | {"cli", "precision", "__version__"} <= listed
    assert set(pellzero.__all__) == {n for names in PUBLIC.values() for n in names}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pellzero.no_such_name
    assert not hasattr(pellzero, "mp")
    with pytest.raises(ImportError):
        from pellzero import no_such_name  # noqa: F401


def test_submodules_resolve_from_the_root():
    loaded = run_fresh("import sys, json, pellzero\n"
                       "assert pellzero.zerostruct.chi(6) > 0\n"
                       "from pellzero import cli, effbounds\n"
                       f"print(json.dumps({LOADED}))")
    assert "pellzero.zerostruct" in loaded and "pellzero.cli" in loaded
    assert not set(HEAVY) & set(loaded), loaded
