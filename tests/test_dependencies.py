"""numpy is the only runtime dependency of `torsig`.

Every module under `src/torsig` is parsed, not imported, and each import it
names must be the standard library, numpy or torsig itself.  scipy and sympy
are often installed next to numpy, so a stray import of them would otherwise
go unnoticed until the package ran without them.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "torsig"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "torsig"}


def imported_roots(source: str) -> list[str]:
    """The top-level package of every import in the source; relative ones are torsig."""
    roots = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots += [alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            roots.append("torsig" if node.level else node.module.partition(".")[0])
    return roots


def test_the_check_sees_every_kind_of_import():
    source = ("import scipy.linalg\nfrom sympy import Matrix\nfrom . import core\n"
              "def f():\n    import os\n")
    assert imported_roots(source) == ["scipy", "sympy", "torsig", "os"]


def test_src_imports_only_stdlib_numpy_and_torsig():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 8
    stray = [(f.name, root) for f in files for root in imported_roots(f.read_text())
             if root not in ALLOWED]
    assert not stray, stray


def test_src_runs_workers_on_threads_only():
    """`verify --jobs N` runs on a thread pool; no second worker model may
    come back through a process pool."""
    users = [f.name for f in sorted(SRC.glob("*.py"))
             if "multiprocessing" in imported_roots(f.read_text())]
    assert not users, users


def test_src_holds_rationals_as_integers_not_fractions():
    """The step function is int64 numerators over pq from kernel to CLI bytes."""
    users = [f.name for f in sorted(SRC.glob("*.py")) if "fractions" in imported_roots(f.read_text())]
    assert not users, users
