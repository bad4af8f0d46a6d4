"""Rewrite the golden CLI outputs in this directory.

Usage, from the repository root:

    PYTHONPATH=src python3 tests/golden/regen.py

Each entry of cases.json maps a case name to a `torsig` argv list; the
stdout of that command is written byte for byte to <name>.out.  Run it only
when an output is meant to change, and review the diff it leaves.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from torsig.cli import main

HERE = Path(__file__).resolve().parent


def render(argv: list[str]) -> bytes:
    """Stdout of one CLI command; a non-zero exit is an error."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    return buffer.getvalue().encode("utf-8")


def main_regen() -> int:
    cases = json.loads((HERE / "cases.json").read_text(encoding="utf-8"))
    for stale in HERE.glob("*.out"):
        if stale.stem not in cases:
            stale.unlink()
    for name, argv in cases.items():
        (HERE / f"{name}.out").write_bytes(render(argv))
    print(f"wrote {len(cases)} golden outputs to {HERE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main_regen())
