"""numpy is the only runtime dependency of `torsig`.

Every module under `src/torsig` is parsed, not imported, and each import it
names must be the standard library, numpy or torsig itself.  scipy and sympy
are often installed next to numpy, so a stray import of them would otherwise
go unnoticed until the package ran without them.  The test dependencies
must also report a failure under the repository's pytest settings.
"""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "torsig"
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


_FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_runs_after_it():
    pass
"""


def test_failing_property_is_reported_under_the_warning_filters(tmp_path):
    """hypothesis reports a falsifying example through libcst, which warns on
    import; `filterwarnings = ["error"]` must not turn that into an internal
    error that ends the run before its report and its later tests."""
    (tmp_path / "test_property.py").write_text(_FAILING_PROPERTY)
    run = subprocess.run([sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
                          "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
                          "test_property.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout and "1 failed, 1 passed" in run.stdout
