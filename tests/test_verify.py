"""The verify record that pellzero.verify builds: the one `verify`
prints, the depth an odd --full scan reaches, and the same records from
the 64-bit root systems verify solves and from 128-bit ones."""

import json

import pytest

from pellzero import cli, spectra, verify, verify_order
from pellzero.precision import PREC_FLOOR, PREC_START


@pytest.mark.parametrize("k, full", [(2, False), (3, False), (4, False),
                                     (5, False), (6, False), (5, True)])
def test_verify_order_is_the_record_the_cli_prints(capsys, k, full):
    rc = cli.main(["verify", "--k", str(k)] + (["--full"] if full else []))
    printed = json.loads(capsys.readouterr().out)
    rec = verify_order(k, full)
    assert rc == (0 if rec["status"] == "PASS" else 1)
    printed.pop("timestamp")
    rec.pop("timestamp")
    # The record is its own JSON: lists where JSON has lists, so it
    # equals what the command prints without a round trip.
    assert json.loads(json.dumps(rec)) == rec == printed


def test_odd_full_scan_reaches_where_the_side_conditions_hold():
    # At M = 100, R = 92 for k = 5, but small_linear_form and
    # positive_shift_excluded hold only from n = k^3 + 2 = 127 on, so
    # the scan goes to 127.
    rec = verify_order(5, full=True, M=100)
    assert rec["bound_used"]["R"] == 92
    assert rec["scan_floor"] == -127
    assert rec["checks"]["scan"]["residue_through"] == 127


def _records(capsys, args):
    spectra.clear_cache()
    cli.main(["verify", *args])
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


@pytest.mark.parametrize("args", [("--k-range", "2:60"),
                                  ("--k-range", "4:40", "--even-only", "--full")])
def test_records_on_64_and_128_bit_systems_agree(capsys, monkeypatch, args):
    # Every check is decided exactly on the integer disks, so the label of
    # the system moves only precision_used and the last ulps of the float
    # min_margin.
    low = _records(capsys, args)
    monkeypatch.setattr(verify, "PREC_FLOOR", PREC_START)
    high = _records(capsys, args)
    assert [r["k"] for r in low] == [r["k"] for r in high] and low
    for a, b in zip(low, high):
        assert (a.pop("precision_used"), b.pop("precision_used")) == (PREC_FLOOR, PREC_START)
        margins = [r["checks"]["root_bounds"]["modulus_ratio_floor"].pop("min_margin")
                   for r in (a, b)]
        assert margins[0] == pytest.approx(margins[1], rel=1e-14, abs=0), a["k"]
        a.pop("timestamp")
        b.pop("timestamp")
        assert a == b
