"""Golden records: the printed JSONL of five sweeps, held by digest.

Each digest is the SHA-256 of the canonical JSONL of one sweep, a
`verify` run or one run of `roots` or `reduce` per order: every record
with its `timestamp` (if any) dropped, dumped with sorted keys and no
spaces, one record per line, each line ending in a newline.  A change of
speed that moves a single byte of a record (a zero, a bound, a
precision, a check) fails here.  A change that means to move a record
replaces its digest, and says why.
"""

import hashlib
import json

import pytest

from pellzero import cli, spectra

GOLDEN = {
    # Records built on the 64-bit systems: every precision_used is 64, and
    # the min_margin of k = 59 moved by one ulp against the 128-bit ones.
    ("--k-range", "2:60"):
        "11cb13f4b58e30075360318ca7c5041c7aa9d8a0285cf8cfe28daf2b4d667e8e",
    ("--k-range", "5:21", "--odd-only", "--full"):
        "f114838b62bb3737c9138f0210c4d9ec86c84ff711a337b709983bdfe14de2f9",
}

# Runs of one command per order, in order, printed as one JSONL stream:
# roots at its 128-bit default (two Newton steps a class), and the odd
# reduction from the 64-bit system, gamma_s refined to 390 bits, or at
# M = 10^200 to the working precision of that M.
GOLDEN_RUNS = {
    "roots --k 2..60": (
        [["roots", "--k", str(k)] for k in range(2, 61)],
        "3f850417732497bd71ca30f93878f570f36f51ba0b2d9ff3df9239e67df78ed8"),
    "reduce --k 5..21 odd": (
        [["reduce", "--k", str(k)] for k in range(5, 22, 2)],
        "a3b66d8b4e10c4c1728e09fb0768041411065b9bcc81ac5eadf1f43e4774c5de"),
    "reduce --k 5 --M 1e200": (
        [["reduce", "--k", "5", "--M", "1e200"]],
        "3aed07a79b98e0058e3cadb4bfdfcec9d622585edbc5f27c6673d03d3fd46199"),
}


def _canonical_digest(out: str) -> str:
    h = hashlib.sha256()
    for line in out.splitlines():
        rec = json.loads(line)
        rec.pop("timestamp", None)
        h.update((json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n").encode())
    return h.hexdigest()


@pytest.mark.parametrize("args", list(GOLDEN))
def test_verify_sweep_prints_its_golden_records(args, capsys):
    spectra.clear_cache()
    cli.main(["verify", *args])
    assert _canonical_digest(capsys.readouterr().out) == GOLDEN[args]


@pytest.mark.parametrize("name", list(GOLDEN_RUNS))
def test_command_runs_print_their_golden_records(name, capsys):
    runs, digest = GOLDEN_RUNS[name]
    spectra.clear_cache()
    for argv in runs:
        assert cli.main(argv) == 0
    assert _canonical_digest(capsys.readouterr().out) == digest
