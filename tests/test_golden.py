"""Byte-for-byte golden outputs of ``table``, ``gram``, ``verify`` and ``characters``.

golden_digests.json maps each ``table`` (JSON and CSV) and ``gram`` (JSON)
command line to the sha256 of its output, recorded before both groups' tables
were moved onto one assembly path, for U n = 1..5 and O n = 1..4 at tau =
symbolic, 7 and 1.  golden_verify.json maps each ``verify`` command line (every
suite at its cap, ``all`` below and above the caps, non-default taus) to the
sha256 of its stdout and its exit code, recorded before the suites moved out of
the CLI into ``weingarten.verify``.  Six of them were re-recorded, and
``pseudoinverse --n 6 --force`` added, when ``oid``, ``stability`` and
``pseudoinverse`` began to prove every size symbolically unless --tau is
given.  golden_characters.json maps ``characters --n 1..10`` to the sha256 of
its stdout, recorded while ``table`` still read character files back.  Any
byte drift fails.
"""

import hashlib
import json
from pathlib import Path

import pytest

from weingarten import cli

HERE = Path(__file__).parent
GOLDEN = json.loads((HERE / "golden_digests.json").read_text())
GOLDEN_VERIFY = json.loads((HERE / "golden_verify.json").read_text())
GOLDEN_CHARACTERS = json.loads((HERE / "golden_characters.json").read_text())


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_output_matches_golden_digest(command, tmp_path):
    out = tmp_path / "out"
    assert cli.main(command.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[command]


@pytest.mark.parametrize("command", sorted(GOLDEN_VERIFY))
def test_verify_stdout_and_exit_match_golden(command, capsys):
    code = cli.main(command.split())
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert {"stdout_sha256": digest, "exit": code} == GOLDEN_VERIFY[command]


@pytest.mark.parametrize("command", sorted(GOLDEN_CHARACTERS))
def test_characters_stdout_matches_golden(command, capsys):
    assert cli.main(command.split()) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN_CHARACTERS[command]
