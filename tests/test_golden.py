"""Byte-for-byte CLI output against the recorded digests.

perfbench/golden.json holds the stdout sha256 and exit code of every CLI
invocation the benchmark can run.  Each one, the full `verify` included, is
replayed here in-process.  The file is only read.
"""

import hashlib
import json
from pathlib import Path

import pytest

from spinchar.cli import main

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
INVOCATIONS = json.loads(GOLDEN.read_text(encoding="utf-8"))["invocations"]


@pytest.mark.parametrize("key", sorted(INVOCATIONS))
def test_output_matches_golden_digest(key, capsys):
    code = main(key.split(" "))
    out = capsys.readouterr().out
    assert code == INVOCATIONS[key]["exit"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == INVOCATIONS[key]["sha256"]
