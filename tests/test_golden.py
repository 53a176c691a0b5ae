"""Byte-for-byte golden outputs of ``table`` (JSON and CSV) and ``gram`` (JSON).

golden_digests.json maps each command line to the sha256 of its output,
recorded before both groups' tables were moved onto one assembly path, for
U n = 1..5 and O n = 1..4 at tau = symbolic, 7 and 1.  Any byte drift fails.
"""

import hashlib
import json
from pathlib import Path

import pytest

from weingarten import cli

GOLDEN = json.loads((Path(__file__).parent / "golden_digests.json").read_text())


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_output_matches_golden_digest(command, tmp_path, monkeypatch):
    monkeypatch.setenv("WG_CACHE_DIR", str(tmp_path / "cache"))
    out = tmp_path / "out"
    assert cli.main(command.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[command]
