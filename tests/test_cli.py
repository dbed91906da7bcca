"""End-to-end command-line behavior: subcommand output shapes, exit
codes and report streams."""

import json
import pathlib
import re
import subprocess
import sys

import pytest

from pellzero import cli, spectra
from pellzero.cli import _parse_m, main
from pellzero.zerostruct import observed_blocks, observed_chi


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_eval_text_and_json(capsys):
    rc, out, _ = run_cli(capsys, "eval", "--k", "2", "--n", "5")
    assert rc == 0
    assert out.strip() == "29"
    rc, out, _ = run_cli(capsys, "eval", "--k", "2", "--n", "5",
                         "--format", "json")
    assert rc == 0
    assert json.loads(out) == {"k": 2, "n": 5, "value": "29"}


@pytest.mark.xfail(strict=True,
                   reason="published example expects 12 at index 5 of the "
                          "classical sequence; 12 is the index-4 term")
def test_eval_published_k2_index5(capsys):
    rc, out, _ = run_cli(capsys, "eval", "--k", "2", "--n", "5")
    assert out.strip() == "12"


def test_eval_k2_index4_is_twelve(capsys):
    rc, out, _ = run_cli(capsys, "eval", "--k", "2", "--n", "4")
    assert rc == 0
    assert out.strip() == "12"


@pytest.mark.xfail(strict=True,
                   reason="published table value at order 3, index -3 is 0; "
                          "the exact backward recurrence gives -1")
def test_eval_published_table_k3(capsys):
    rc, out, _ = run_cli(capsys, "eval", "--k", "3", "--n", "-3")
    assert out.strip() == "0"


def test_eval_actual_value_k3(capsys):
    rc, out, _ = run_cli(capsys, "eval", "--k", "3", "--n", "-3")
    assert rc == 0
    assert out.strip() == "-1"


@pytest.mark.xfail(strict=True,
                   reason="published table value at order 5, index -9 is 0; "
                          "the exact backward recurrence gives 4")
def test_eval_published_table_k5(capsys):
    rc, out, _ = run_cli(capsys, "eval", "--k", "5", "--n", "-9")
    assert out.strip() == "0"


def test_eval_actual_value_k5(capsys):
    rc, out, _ = run_cli(capsys, "eval", "--k", "5", "--n", "-9")
    assert rc == 0
    assert out.strip() == "4"


def test_eval_limit_is_a_resource_error(capsys):
    rc, _, err = run_cli(capsys, "eval", "--k", "3", "--n", "-2000",
                         "--limit", "1000")
    assert rc == 2
    assert "resource error" in err


def test_zeros_default_floor_and_depths(capsys):
    rc, out, _ = run_cli(capsys, "zeros", "--k", "5")
    assert rc == 0
    blob = json.loads(out)
    assert blob["zeros"] == [-7, -6, -3, -2, -1, 0]
    assert blob["count"] == 6
    assert blob["convention"] == "indices"
    rc, out, _ = run_cli(capsys, "zeros", "--k", "5", "--depths")
    blob = json.loads(out)
    assert blob["zeros"] == [0, 1, 2, 3, 6, 7]
    assert blob["convention"] == "depths"


def test_zeros_prints_the_scan_coverage(capsys):
    rc, out, _ = run_cli(capsys, "zeros", "--k", "4", "--floor", "-100")
    blob = json.loads(out)
    assert blob["zeros"] == [-5, -2, -1, 0]
    assert blob["scan"] == {"exact_through": 100, "residue_through": 100,
                            "residue_modulus": 2 ** 31 - 1,
                            "residue_hits": {"confirmed": 0, "rejected": 0},
                            "rejected_by_second_modulus": 0}


def test_zeros_floor_sign_is_forgiving(capsys):
    rc, out, _ = run_cli(capsys, "zeros", "--k", "4", "--floor", "30")
    blob = json.loads(out)
    assert blob["floor"] == -30
    assert blob["zeros"] == [-5, -2, -1, 0]


def test_chi_text_and_json(capsys):
    rc, out, _ = run_cli(capsys, "chi", "--k", "9")
    assert rc == 0
    assert out.strip() == "17"
    rc, out, _ = run_cli(capsys, "chi", "--k", "4", "--format", "json")
    assert json.loads(out) == {"k": 4, "chi": 3}


def test_roots_report_shape(capsys):
    rc, out, _ = run_cli(capsys, "roots", "--k", "4", "--precision", "128")
    assert rc == 0
    blob = json.loads(out)
    assert blob["k"] == 4 and blob["precision"] >= 128
    assert len(blob["roots"]) == 4
    assert len(blob["conj_pairs"]) == 1
    dom = blob["roots"][blob["dominant"]]
    assert dom["im"] == "0"
    assert abs(float(dom["re"]) - 2.59205279238) < 1e-9
    for r in blob["roots"]:
        assert float(r["rad"]) < 1e-30


@pytest.mark.parametrize("prec", [128, 256])
def test_roots_print_the_certified_disks_as_mpmath_did(capsys, prec):
    # The root report formats the integer disks (X, Y, R) 2^-P; the
    # oracle is mpmath's nstr on the exact values of the same disks.
    import mpmath as mp
    for k in range(2, 61):
        rc, out, _ = run_cli(capsys, "roots", "--k", str(k), "--precision", str(prec))
        rs = spectra.solve_roots(k, prec)
        digits = max(6, int(rs.prec * 0.30103) - 2)
        with mp.workprec(2 * rs.P):
            want = [{"re": mp.nstr(mp.ldexp(X, -rs.P), digits),
                     "im": mp.nstr(mp.ldexp(Y, -rs.P), digits) if Y else "0",
                     "rad": mp.nstr(mp.ldexp(R, -rs.P), 4)} for X, Y, R in rs.disks]
        assert json.loads(out)["roots"] == want, k


def test_bound_refined_even(capsys):
    rc, out, _ = run_cli(capsys, "bound", "--k", "4", "--refined")
    assert rc == 0
    assert json.loads(out) == {"k": 4, "kind": "refined_even", "L": 39}


def test_bound_global_default(capsys):
    rc, out, _ = run_cli(capsys, "bound", "--k", "5")
    assert rc == 0
    blob = json.loads(out)
    assert blob["kind"] == "global"
    assert float(blob["log10"]) > 10


def test_bound_matveev(capsys):
    rc, out, _ = run_cli(capsys, "bound", "--matveev", "--t", "2", "--d", "4",
                         "--B", "10", "--A", "1,1", "--k", "2")
    assert rc == 0
    blob = json.loads(out)
    assert blob["kind"] == "matveev_floor_magnitude"
    assert abs(float(blob["log10"]) - 14.1475) < 1e-3


def test_bound_small_k_is_usage_error(capsys):
    rc, _, err = run_cli(capsys, "bound", "--k", "3")
    assert rc == 2
    assert "error" in err


def test_reduce_k5(capsys):
    rc, out, _ = run_cli(capsys, "reduce", "--k", "5")
    assert rc == 0
    blob = json.loads(out)
    assert blob["R"] == 847
    assert blob["k"] == 5
    assert isinstance(blob["q_used"], str) and len(blob["q_used"]) >= 48
    assert blob["certifications"]["tau_in_range"] is False
    assert blob["nonvanishing_certified"] is True
    assert set(blob["epsilon"]) == {"mid", "rad"}


def test_reduce_even_k_is_an_error(capsys):
    rc, _, err = run_cli(capsys, "reduce", "--k", "4")
    assert rc == 2
    assert "odd" in err


def test_m_parser():
    assert _parse_m("3e47") == 3 * 10 ** 47
    assert _parse_m("1.5e2") == 150
    assert _parse_m("1000") == 1000
    assert _parse_m("2.50e1") == 25
    assert _parse_m("12.0") == 12
    assert _parse_m("1") == 1
    for text in ("2.5e0", "1e-1", "0", "-3"):
        with pytest.raises(ValueError):
            _parse_m(text)


def test_verify_m_below_one_is_rejected_before_any_order(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--k-range", "2:7", "--full", "--M", "0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--M" in captured.err


def test_reduce_scientific_m_equals_plain(capsys):
    rc, out_a, _ = run_cli(capsys, "reduce", "--k", "5", "--M", "1e3")
    rc, out_b, _ = run_cli(capsys, "reduce", "--k", "5", "--M", "1000")
    assert json.loads(out_a) == json.loads(out_b)


def test_verify_k2_passes(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--k", "2")
    assert rc == 0
    rec = json.loads(out)
    assert rec["schema"] == "pellzero-report/1"
    assert rec["status"] == "PASS"
    assert rec["chi_formula"] == rec["chi_observed"] == 1
    assert rec["zeros"] == [0]


def test_verify_k3_passes(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--k", "3")
    assert rc == 0
    rec = json.loads(out)
    assert rec["status"] == "PASS"
    assert rec["zeros"] == [-1, 0]
    assert rec["chi_observed"] == 2


def test_verify_k4_reports_the_mismatch(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--k", "4")
    assert rc == 1
    rec = json.loads(out)
    assert rec["status"] == "FAIL"
    assert rec["chi_formula"] == 3 and rec["chi_observed"] == 4
    assert "variant mirror orbit" in rec["detail"]
    assert rec["zeros"] == [-5, -2, -1, 0]
    assert rec["bound_used"]["kind"] == "refined_even"
    assert rec["bound_used"]["R"] == 39
    assert rec["checks"]["dominant_in_envelope"]["holds"] is True


@pytest.mark.xfail(strict=True,
                   reason="published table promises PASS records for orders "
                          "4..10; the exact scan disagrees with the "
                          "predicted intervals there")
def test_verify_range_4_10_as_published(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--k-range", "4:10")
    records = [json.loads(line) for line in out.splitlines()]
    assert all(rec["status"] == "PASS" for rec in records)


def test_verify_range_4_10_actual_stream(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--k-range", "4:10")
    assert rc == 1
    records = [json.loads(line) for line in out.splitlines()]
    assert [rec["k"] for rec in records] == list(range(4, 11))
    for rec in records:
        k = rec["k"]
        assert rec["status"] == "FAIL"
        assert rec["chi_observed"] == observed_chi(k)
        assert rec["zeros"] == sorted(observed_blocks(k).index_set())
        assert "variant mirror orbit" in rec["detail"]


def test_verify_range_2_3_all_pass(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--k-range", "2:3")
    assert rc == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [rec["status"] for rec in records] == ["PASS", "PASS"]


def test_verify_full_odd_records_reduced_bounds(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--k-range", "5:9", "--odd-only",
                         "--full", "--M", "3e47")
    assert rc == 1
    records = [json.loads(line) for line in out.splitlines()]
    assert [rec["k"] for rec in records] == [5, 7, 9]
    by_k = {rec["k"]: rec for rec in records}
    for rec in records:
        assert rec["bound_used"]["kind"] == "reduced_odd"
        assert rec["checks"]["reduction"]["nonvanishing_certified"] is True
    assert by_k[5]["bound_used"]["R"] == 847
    assert by_k[7]["bound_used"]["R"] == 2344
    assert by_k[9]["bound_used"]["R"] == 5201
    # the two orders whose angle ratio sits inside the published window
    assert by_k[7]["checks"]["reduction"]["certifications"]["tau_in_range"]
    assert by_k[9]["checks"]["reduction"]["certifications"]["tau_in_range"]


@pytest.mark.xfail(strict=True,
                   reason="published reduced-bound window starts at 1568; "
                          "order 5 certifies 847")
def test_verify_full_odd_bounds_in_published_window(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--k-range", "5:9", "--odd-only",
                         "--full", "--M", "3e47")
    records = [json.loads(line) for line in out.splitlines()]
    assert all(1568 <= rec["bound_used"]["R"] <= 130068833 for rec in records)


def test_verify_csv_stream(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--k-range", "2:4",
                         "--format", "csv")
    assert rc == 1
    lines = out.splitlines()
    assert lines[0] == ("k,parity,status,chi_formula,chi_observed,"
                        "deepest_zero,bound_kind,bound_R,zeros,detail")
    assert len(lines) == 4
    assert lines[1].startswith("2,even,PASS,1,1,0,refined_even,2,0,")
    assert lines[2].startswith("3,odd,PASS,2,2,-1,scan,,-1;0,")
    assert lines[3].startswith("4,even,FAIL,3,4,-5,refined_even,39,-5;-2;-1;0,")
    assert "variant" in lines[3]


def test_verify_jobs_preserve_order(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--k-range", "2:5", "--jobs", "2")
    records = [json.loads(line) for line in out.splitlines()]
    assert [rec["k"] for rec in records] == [2, 3, 4, 5]


def test_verify_jobs_start_no_more_workers_than_orders(capsys, monkeypatch):
    import concurrent.futures
    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work):
            return map(fn, work)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    rc, out, _ = run_cli(capsys, "verify", "--k-range", "2:4", "--jobs", "8")
    assert [json.loads(line)["k"] for line in out.splitlines()] == [2, 3, 4]
    rc, out, _ = run_cli(capsys, "verify", "--k", "5", "--jobs", "8")
    assert json.loads(out)["k"] == 5
    assert pools == [3]


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_verify_jobs_below_one_is_a_usage_error(capsys, jobs):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--k", "5", "--jobs", jobs])
    assert info.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["5", "a:b", "5:", ":7"])
def test_verify_k_range_names_the_expected_form(capsys, text):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--k-range", text])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --k-range: expected lo:hi with integers lo and hi, got {text!r}" in err
    assert "invalid literal" not in err


def test_verify_deterministic_apart_from_timestamp(capsys):
    _, out_a, _ = run_cli(capsys, "verify", "--k", "5")
    _, out_b, _ = run_cli(capsys, "verify", "--k", "5")
    rec_a, rec_b = json.loads(out_a), json.loads(out_b)
    rec_a.pop("timestamp"), rec_b.pop("timestamp")
    assert json.dumps(rec_a, sort_keys=True) == json.dumps(rec_b, sort_keys=True)


def test_verify_guard_rails(capsys):
    rc, _, err = run_cli(capsys, "verify", "--k-range", "400:600")
    assert rc == 2
    assert "--allow-large" in err
    rc, _, err = run_cli(capsys, "verify", "--k", "1", "--allow-large")
    assert rc == 2
    assert ">= 2" in err
    rc, _, err = run_cli(capsys, "verify", "--k", "5", "--even-only")
    assert rc == 2
    assert "empty" in err


def test_verify_below_two_names_the_floor_not_the_flag(capsys):
    # --allow-large cannot help k < 2, so that message must not offer it.
    rc, _, err = run_cli(capsys, "verify", "--k", "1")
    assert (rc, err) == (2, "k must be >= 2\n")
    rc, _, err = run_cli(capsys, "verify", "--k", "501")
    assert (rc, err) == (2, "k outside [2, 500]; pass --allow-large to proceed\n")


def test_verify_selector_is_required():
    with pytest.raises(SystemExit) as info:
        main(["verify"])
    assert info.value.code == 2


def test_repeated_main_calls_match_fresh_processes(capsys):
    # One process, one parser: no option of an earlier call may leak into
    # a later one.
    assert cli.build_parser() is cli.build_parser()
    calls = [["eval", "--k", "5", "--n", "-9", "--limit", "8"],
             ["eval", "--k", "5", "--n", "-9"],
             ["bound", "--k", "4", "--refined"],
             ["bound", "--k", "5"],
             ["verify", "--k", "5"]]
    for argv in calls:
        rc, out, err = run_cli(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "pellzero", *argv],
                               capture_output=True, text=True)
        if argv[0] == "verify":
            out, want = json.loads(out), json.loads(fresh.stdout)
            out.pop("timestamp")
            want.pop("timestamp")
        else:
            want = fresh.stdout
        assert (rc, out, err) == (fresh.returncode, want, fresh.stderr), argv


def test_verify_after_a_finer_solve_matches_a_fresh_process(capsys):
    # A 390-bit system of the same order, solved first in this process,
    # must not answer verify's request for the default precision.
    assert spectra.solve_roots(5, 390).prec == 390
    rc, out, _ = run_cli(capsys, "verify", "--k", "5")
    fresh = subprocess.run([sys.executable, "-m", "pellzero", "verify", "--k", "5"],
                           capture_output=True, text=True)
    out, want = json.loads(out), json.loads(fresh.stdout)
    out.pop("timestamp")
    want.pop("timestamp")
    assert (rc, out) == (fresh.returncode, want)
    assert out["precision_used"] == 128


def test_main_dispatches_to_a_command_rebound_after_the_first_parse(capsys, monkeypatch):
    # The parser is built once per process; a cmd_* wrapped after that
    # (as a tracer does) must still be the one main calls.
    rc = main(["verify", "--k", "5", "--jobs", "1"])
    verify = cli.cmd_verify
    calls = 0

    def counting(args):
        nonlocal calls
        calls += 1
        return verify(args)

    monkeypatch.setattr(cli, "cmd_verify", counting)
    assert main(["verify", "--k", "5", "--jobs", "1"]) == rc
    assert calls == 1
    capsys.readouterr()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pellzero", "eval", "--k", "2", "--n", "4"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "12"


def test_import_leaves_numpy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, pellzero; print('numpy' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_mpmath_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    root = pathlib.Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as f:
        deps = tomllib.load(f)["project"]["dependencies"]
    assert [re.split(r"[<>=!~ \[;]", d)[0] for d in deps] == ["mpmath"]


SIGN_PROOF = {"proof": "sign", "through": None}


def test_verify_records_scan_floor(capsys):
    # An even record scans nothing: its zero set is the sign theorem's.
    rc, out, _ = run_cli(capsys, "verify", "--k", "4", "--full")
    rec = json.loads(out)
    assert rec["scan_floor"] is None
    assert rec["bound_used"] == {"kind": "refined_even",
                                 "value_log10": rec["bound_used"]["value_log10"],
                                 "R": 39}
    assert rec["checks"]["zero_set"] == SIGN_PROOF
    assert "scan" not in rec["checks"]
    assert "short of bound" not in rec["detail"]


def test_verify_even_record_is_the_same_without_full(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--k", "4")
    rec = json.loads(out)
    rc, out, _ = run_cli(capsys, "verify", "--k", "4", "--full")
    full = json.loads(out)
    assert rec["scan_floor"] is None
    assert rec["checks"]["zero_set"] == SIGN_PROOF
    assert "short of bound" not in rec["detail"]
    del rec["timestamp"], full["timestamp"]
    assert rec == full


def test_verify_truncated_scan_is_not_pass(capsys, monkeypatch):
    # bigseq.DEFAULT_LIMIT caps the exact walk to a residue hit, not the
    # scan, so a scan is not truncated there.
    from pellzero import bigseq
    monkeypatch.setattr(bigseq, "DEFAULT_LIMIT", 1)
    rc, out, _ = run_cli(capsys, "verify", "--k", "3", "--full")
    rec = json.loads(out)
    assert rec["bound_used"] == {"kind": "scan", "value_log10": None,
                                 "R": None}
    assert rec["scan_floor"] == -21
    assert rec["checks"]["scan"]["exact_through"] == 5
    assert rec["checks"]["scan"]["residue_through"] == 21
    assert rec["status"] == "PASS"
    assert rc == 0
    assert "short of bound" not in rec["detail"]
    assert "DEFAULT_LIMIT" not in rec["detail"]


def test_verify_full_scan_passes_the_default_limit(capsys, monkeypatch):
    # The odd residue scan reaches R_9 = 5201 past a limit of 1000, which
    # still bounds eval; the even record to L_20 = 8828 scans nothing and
    # has the zeros a scan to L_20 finds.
    from pellzero import bigseq
    from pellzero.zerostruct import enumerate_zeros
    monkeypatch.setattr(bigseq, "DEFAULT_LIMIT", 1000)
    rc, out, _ = run_cli(capsys, "verify", "--k", "9", "--full")
    rec = json.loads(out)
    assert rec["scan_floor"] == -5201 == -rec["bound_used"]["R"]
    assert rec["checks"]["scan"]["residue_through"] == 5201
    assert "depth capped" not in rec["detail"]
    rc, out, _ = run_cli(capsys, "verify", "--k", "20", "--even-only", "--full")
    rec = json.loads(out)
    assert rec["bound_used"]["R"] == 8828
    assert rec["scan_floor"] is None
    assert rec["checks"]["zero_set"] == SIGN_PROOF
    assert rec["zeros"] == list(enumerate_zeros(20, -8828).indices)
    assert "depth capped" not in rec["detail"]
    assert "short of bound" not in rec["detail"]
    rc, out, err = run_cli(capsys, "eval", "--k", "20", "--n", "-1001")
    assert rc == 2
    assert out == ""
    assert "index -1001 exceeds --limit = 1000" in err


def test_verify_one_bad_order_keeps_the_sweep(capsys, monkeypatch):
    from pellzero import reduction

    def exhausted(k, m):
        raise reduction.ReductionExhausted(f"planted failure at k={k}")

    monkeypatch.setattr(reduction, "odd_k_reduce", exhausted)
    rc, out, _ = run_cli(capsys, "verify", "--k-range", "4:6", "--full")
    assert rc == 2
    records = {rec["k"]: rec for rec in map(json.loads, out.splitlines())}
    assert sorted(records) == [4, 5, 6]
    assert records[5]["status"] == "ERROR"
    assert "ReductionExhausted" in records[5]["detail"]
    assert records[4]["status"] == records[6]["status"] == "FAIL"
    assert records[6]["bound_used"]["kind"] == "refined_even"
    assert records[6]["scan_floor"] is None
    assert records[6]["checks"]["zero_set"] == SIGN_PROOF


def test_verify_scan_contradiction_is_an_error_record(capsys, monkeypatch):
    # A nonzero block lane at k = 9 (lane 2 of the first word, depth 10,
    # set to 3) contradicts the sign theorem; the sweep reports k = 9 as
    # an ERROR and goes on to k = 11.
    from pellzero import bigseq
    blocks = bigseq.residue_blocks

    def planted(k, window, exponent=bigseq.RESIDUE_EXPONENT):
        stream = blocks(k, window, exponent)
        if k == 9:
            w = exponent + 5
            y = next(stream)
            yield y & ~(((1 << w) - 1) << 2 * w) | 3 << 2 * w
        yield from stream

    monkeypatch.setattr(bigseq, "residue_blocks", planted)
    rc, out, _ = run_cli(capsys, "verify", "--k-range", "7:11", "--odd-only", "--jobs", "1")
    assert rc == 2
    records = {rec["k"]: rec for rec in map(json.loads, out.splitlines())}
    assert sorted(records) == [7, 9, 11]
    assert records[9]["status"] == "ERROR"
    assert records[9]["detail"].startswith("ScanContradiction: k=9: a block lane at depths 8..15")
    assert records[7]["status"] == records[11]["status"] == "FAIL"


def test_verify_precision_used_covers_the_odd_reduction(capsys):
    from pellzero import reduction
    rc, out, _ = run_cli(capsys, "verify", "--k", "5", "--full")
    rec = json.loads(out)
    assert rec["bound_used"]["kind"] == "reduced_odd"
    assert rec["precision_used"] >= reduction.working_prec_for(reduction.DEFAULT_M)


def test_verify_precision_used_covers_the_dominant_resolve(capsys):
    # k = 92 is the smallest order whose dominant-root envelope check
    # cannot settle at 128 bits and escalates its sign test to 256.
    from pellzero import spectra
    spectra.clear_cache()
    assert spectra.solve_roots(92, 128).prec == 128
    rc, out, _ = run_cli(capsys, "verify", "--k", "92")
    rec = json.loads(out)
    assert rec["checks"]["dominant_in_envelope"]["holds"] is True
    assert rec["precision_used"] >= 256


def test_eval_negative_index_streams_in_bounded_memory(capsys):
    import tracemalloc
    from pellzero.bigseq import KContext
    tracemalloc.start()
    try:
        rc, out, _ = run_cli(capsys, "eval", "--k", "40", "--n", "-30000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 1 << 20
    rc, out, _ = run_cli(capsys, "eval", "--k", "7", "--n", "-3000")
    assert int(out) == KContext(7).value(-3000)


def test_eval_positive_index_streams_in_bounded_memory(capsys):
    import tracemalloc
    from pellzero.bigseq import KContext
    tracemalloc.start()
    try:
        rc, out, _ = run_cli(capsys, "eval", "--k", "2", "--n", "20000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 1 << 20
    rc, out, _ = run_cli(capsys, "eval", "--k", "7", "--n", "3000")
    assert int(out) == KContext(7).value(3000)


def test_eval_prints_terms_past_the_int_str_digit_cap(capsys):
    from decimal import Decimal
    from pellzero.bigseq import KContext
    want = Decimal(KContext(2).value(-12000))
    assert len(str(want)) > 4300
    rc, out, _ = run_cli(capsys, "eval", "--k", "2", "--n", "-12000")
    assert rc == 0
    assert Decimal(out.strip()) == want
    rc, out, _ = run_cli(capsys, "eval", "--k", "2", "--n", "-12000",
                         "--format", "json")
    assert Decimal(json.loads(out)["value"]) == want


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_verify_streams_records_before_a_later_error(capsys, monkeypatch, fmt):
    from pellzero import cli
    real = cli._verify_one
    seen_before_error = []

    def planted(k, full, m_value):
        if k == 3:
            seen_before_error.append(capsys.readouterr().out)
            raise MemoryError("a planted failure")
        return real(k, full, m_value)

    monkeypatch.setattr(cli, "_verify_one", planted)
    rc, rest, _ = run_cli(capsys, "verify", "--k-range", "2:4", "--format", fmt)
    assert rc == 2
    [early] = seen_before_error
    early_lines, rest_lines = early.splitlines(), rest.splitlines()
    if fmt == "csv":
        assert early_lines[0].startswith("k,parity,status")
        early_lines = early_lines[1:]
        ks = [line.split(",")[:3] for line in early_lines + rest_lines]
        assert ks == [["2", "even", "PASS"], ["3", "", "ERROR"],
                      ["4", "even", "FAIL"]]
    else:
        early_recs = [json.loads(line) for line in early_lines]
        rest_recs = [json.loads(line) for line in rest_lines]
        assert [r["k"] for r in early_recs] == [2]
        assert early_recs[0]["status"] == "PASS"
        assert [(r["k"], r["status"]) for r in rest_recs] == [(3, "ERROR"),
                                                            (4, "FAIL")]
        assert "a planted failure" in rest_recs[0]["detail"]


def test_verify_detail_names_the_structure_mismatch(capsys):
    from pellzero.zerostruct import StructureMismatch, verify_structure
    with pytest.raises(StructureMismatch) as exc:
        verify_structure(8, 100)
    rc, out, _ = run_cli(capsys, "verify", "--k", "8")
    detail = json.loads(out)["detail"]
    assert (f"zero set mismatch: predicted-but-absent {list(exc.value.missing)}, "
            f"unpredicted {list(exc.value.extra)}; predicted intervals match "
            f"the variant mirror orbit instead") in detail
    assert exc.value.missing and exc.value.extra


def test_eval_limit_error_names_the_option(capsys):
    for n in ("-101", "101"):
        rc, out, err = run_cli(capsys, "eval", "--k", "2", "--n", n,
                               "--limit", "100")
        assert rc == 2
        assert out == ""
        assert f"index {n} exceeds --limit = 100" in err
        assert "KContext" not in err


def test_verify_records_scan_coverage(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--k", "40", "--even-only",
                         "--full")
    rec = json.loads(out)
    assert rec["bound_used"]["R"] == 82155
    assert rec["checks"]["zero_set"] == SIGN_PROOF
    assert "scan" not in rec["checks"]
    assert rec["scan_floor"] is None
    rc, out, _ = run_cli(capsys, "verify", "--k", "41")
    rec = json.loads(out)
    scan = rec["checks"]["scan"]
    assert scan["exact_through"] == 879
    assert scan["residue_through"] == 1845 == -rec["scan_floor"]
    assert scan["residue_modulus"] == 2 ** 31 - 1
    assert scan["residue_hits"] == {"confirmed": 0, "rejected": 0}
    assert scan["variant_through"] == 841


@pytest.mark.parametrize("k", range(5, 22, 2))
def test_verify_odd_full_scans_to_the_reduced_bound(capsys, k):
    rc, out, _ = run_cli(capsys, "verify", "--k", str(k), "--full")
    rec = json.loads(out)
    bound = rec["bound_used"]["R"]
    assert rec["bound_used"]["kind"] == "reduced_odd"
    assert rec["scan_floor"] == -max(k * k + 4 * k, bound)
    assert rec["checks"]["scan"]["residue_through"] == max(k * k + 4 * k, bound)
    assert "short of bound" not in rec["detail"]


def test_verify_even_orders_scan_nothing(capsys, monkeypatch):
    from pellzero import zerostruct

    def no_scan(*args):
        raise AssertionError("an even record scanned")

    monkeypatch.setattr(zerostruct, "_scan_depths", no_scan)
    rc, out, _ = run_cli(capsys, "verify", "--k", "40", "--full")
    rec = json.loads(out)
    assert rc == 1
    assert rec["status"] == "FAIL"
    assert rec["zeros"] == sorted(observed_blocks(40).index_set())
    assert "variant mirror orbit instead" in rec["detail"]


def test_verify_never_scans_the_variant_orbit(capsys, monkeypatch):
    from pellzero import zerostruct

    def no_variant_scan(k, floor):
        raise AssertionError("verify scanned the variant orbit")

    monkeypatch.setattr(zerostruct, "variant_zero_set", no_variant_scan)
    rc, out, _ = run_cli(capsys, "verify", "--k-range", "4:9")
    records = [json.loads(line) for line in out.splitlines()]
    assert rc == 1
    assert [r["k"] for r in records] == list(range(4, 10))
    for rec in records:
        assert rec["status"] == "FAIL"
        assert "variant mirror orbit instead" in rec["detail"]
        if rec["k"] % 2:
            assert rec["checks"]["scan"]["variant_through"] == (rec["k"] ** 2 + 1) // 2


def _order_errors():
    """One instance of each error class that verify reports as an ERROR
    record for its order."""
    from pellzero import bigseq, precision, zerostruct
    return [precision.PrecisionExhausted("planted"),
            bigseq.LimitExceeded(-7, 5, "planted limit"),
            precision.IndeterminateComparison("planted"),
            precision.ReductionExhausted("planted"),
            precision.ZeroDivisionEnclosure("planted"),
            precision.DomainError("planted"),
            spectra.CertificationFailure("planted"),
            zerostruct.ScanContradiction("planted")]


@pytest.mark.parametrize("exc", _order_errors(), ids=lambda e: type(e).__name__)
def test_verify_each_order_error_is_an_error_record(capsys, monkeypatch, exc):
    from pellzero.precision import OrderError
    real = cli._verify_one

    def planted(k, full, m_value):
        if k == 4:
            raise exc
        return real(k, full, m_value)

    assert isinstance(exc, OrderError)
    monkeypatch.setattr(cli, "_verify_one", planted)
    rc, out, _ = run_cli(capsys, "verify", "--k-range", "4:5")
    assert rc == 2
    records = [json.loads(line) for line in out.splitlines()]
    assert [(r["k"], r["status"]) for r in records] == [(4, "ERROR"), (5, "FAIL")]
    assert records[0]["detail"] == f"{type(exc).__name__}: {exc}"


def test_verify_names_a_root_bound_that_fails(capsys, monkeypatch):
    real = spectra.check_root_bounds

    def planted(rs):
        report = real(rs)
        report["dominant_weight_range"]["holds"] = False
        return report

    monkeypatch.setattr(spectra, "check_root_bounds", planted)
    rc, out, _ = run_cli(capsys, "verify", "--k", "3")
    rec = json.loads(out)
    assert rc == 1
    assert rec["status"] == "FAIL"
    assert rec["detail"] == "root bound dominant_weight_range failed"


@pytest.mark.parametrize("k, check, name", [
    ("3", "check_dominant_bounds", "dominant_in_envelope"),
    ("2", "check_even_modulus_gap", "small_modulus_gap"),
])
def test_verify_fails_a_spectral_check_that_fails(capsys, monkeypatch, k, check, name):
    monkeypatch.setattr(spectra, check, lambda rs: False)
    rc, out, _ = run_cli(capsys, "verify", "--k", k)
    rec = json.loads(out)
    assert rc == 1
    assert rec["checks"][name] == {"holds": False}
    assert rec["status"] == "FAIL"
    assert rec["detail"] == f"spectral check {name} failed"


def test_verify_names_a_bound_below_the_deepest_zero(capsys, monkeypatch):
    from pellzero import effbounds
    monkeypatch.setattr(effbounds, "refined_even_bound", lambda rs: 1)
    rc, out, _ = run_cli(capsys, "verify", "--k", "8")
    rec = json.loads(out)
    assert rc == 1
    assert rec["bound_used"]["R"] == 1
    assert rec["zeros"][0] == -27
    assert rec["detail"].endswith("; bound 1 below deepest zero -27")
