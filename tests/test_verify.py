"""The verify record that pellzero.verify builds: the one `verify`
prints, and the depth an odd --full scan reaches."""

import json

import pytest

from pellzero import cli, verify_order


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
