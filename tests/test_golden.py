"""Byte-for-byte comparison of CLI stdout against tests/golden/.

The corpus is rewritten by tests/golden/regen.py; a failure here means a
command's output or exit code changed.
"""

import importlib.util
from pathlib import Path

import pytest

from torsig.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
_regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_regen)
CASES = _regen.load_cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    argv, expected_exit = CASES[name]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == expected_exit
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()


def test_every_golden_file_has_a_case():
    assert {path.stem for path in GOLDEN.glob("*.out")} == set(CASES)
