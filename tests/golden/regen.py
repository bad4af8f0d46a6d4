"""Rewrite the golden CLI outputs in this directory.

Usage, from the repository root:

    PYTHONPATH=src python3 tests/golden/regen.py

Each entry of cases.json maps a case name to a `torsig` argv list, or to
{"argv": [...], "exit": N} for a command that must exit with N rather than
0; the stdout of that command is written byte for byte to <name>.out.  Run
it only when an output is meant to change, and review the diff it leaves.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from torsig.cli import main

HERE = Path(__file__).resolve().parent


def load_cases() -> dict[str, tuple[list[str], int]]:
    """Case name -> (argv, expected exit code), the exit code 0 by default."""
    cases = json.loads((HERE / "cases.json").read_text(encoding="utf-8"))
    return {
        name: (case, 0) if isinstance(case, list) else (case["argv"], case["exit"])
        for name, case in cases.items()
    }


def render(argv: list[str], expected_exit: int) -> bytes:
    """Stdout of one CLI command; any other exit code is an error."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    if code != expected_exit:
        raise SystemExit(f"{argv} exited {code}, expected {expected_exit}")
    return buffer.getvalue().encode("utf-8")


def main_regen() -> int:
    cases = load_cases()
    for stale in HERE.glob("*.out"):
        if stale.stem not in cases:
            stale.unlink()
    for name, (argv, expected_exit) in cases.items():
        (HERE / f"{name}.out").write_bytes(render(argv, expected_exit))
    print(f"wrote {len(cases)} golden outputs to {HERE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main_regen())
