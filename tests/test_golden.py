"""Byte-for-byte comparison of CLI stdout against tests/golden/.

The corpus is rewritten by tests/golden/regen.py; a failure here means a
command's output or exit code changed.  The corpus is also run once under
`python -O -W error`, which strips every assert, so no output may depend
on one, and turns every warning (a numpy RuntimeWarning, say) into a failure.
"""

import importlib.util
import json
import os
import subprocess
import sys
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


# Runs every case in one interpreter and prints {name: [exit code, stdout]};
# its first line fails unless asserts are stripped.
_RUN_ALL = """
assert False, "asserts are live: run with python -O"
import contextlib, io, json, sys
from torsig.cli import main
results = {}
for name, argv in json.loads(sys.argv[1]).items():
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    results[name] = [code, buffer.getvalue()]
sys.stdout.write(json.dumps(results))
"""


def test_stdout_matches_golden_without_asserts():
    path = [str(GOLDEN.parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    argvs = json.dumps({name: argv for name, (argv, _) in CASES.items()})
    run = subprocess.run([sys.executable, "-O", "-W", "error", "-c", _RUN_ALL, argvs],
                         capture_output=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr.decode("utf-8", "replace")
    results = json.loads(run.stdout)
    for name, (_, expected_exit) in CASES.items():
        code, out = results[name]
        assert code == expected_exit, name
        assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes(), name


def test_every_golden_file_has_a_case():
    assert {path.stem for path in GOLDEN.glob("*.out")} == set(CASES)
