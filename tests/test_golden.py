"""Byte-for-byte comparison of CLI stdout against tests/golden/.

The corpus is rewritten by tests/golden/regen.py; a failure here means a
command's output changed.
"""

import json
from pathlib import Path

import pytest

from torsig.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()


def test_every_golden_file_has_a_case():
    assert {path.stem for path in GOLDEN.glob("*.out")} == set(CASES)
