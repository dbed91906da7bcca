"""Golden verify records: the printed JSONL of two sweeps, held by digest.

Each digest is the SHA-256 of the canonical JSONL of one `verify` sweep:
every record with its `timestamp` dropped, dumped with sorted keys and no
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


def _canonical_digest(out: str) -> str:
    h = hashlib.sha256()
    for line in out.splitlines():
        rec = json.loads(line)
        rec.pop("timestamp")
        h.update((json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n").encode())
    return h.hexdigest()


@pytest.mark.parametrize("args", list(GOLDEN))
def test_verify_sweep_prints_its_golden_records(args, capsys):
    spectra.clear_cache()
    cli.main(["verify", *args])
    assert _canonical_digest(capsys.readouterr().out) == GOLDEN[args]
