"""What `perfbench/spans.py` relies on in `torsig`.

The tracer wraps functions by name, counts the oracle's Seifert rank from
`result.size`, the step function's jumps from `len(result.breakpoints)` and
the balanced sequence's entries from `len(result)`,
so a renamed traced function would crash a traced run and a result without
those sized fields would be miscounted.
The module is loaded from its path and not modified.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import torsig.cli  # noqa: F401  (the tracer wraps torsig.cli.main)
from torsig import identities, lattice, maxsig, oracle
from torsig.core import RationalAngle, TorusKnot
from torsig.lattice import lt_signature

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def torsig_bindings():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if module is not None and (name == "torsig" or name.startswith("torsig."))
        for attr, value in vars(module).items()
    }


def test_every_traced_name_is_a_torsig_callable(spans):
    for layer, names in spans.TRACED.items():
        module = importlib.import_module(f"torsig.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"torsig.{layer}.{name}"


def test_install_then_uninstall_restores_every_binding(spans):
    before = torsig_bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert oracle.seifert_matrix is not before[("torsig.oracle", "seifert_matrix")]
    finally:
        tracer.uninstall()
    after = torsig_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_traced_seifert_matrix_counts_its_rank(spans):
    tracer = spans.Tracer()
    tracer.install()
    try:
        oracle.torus_seifert_matrix(TorusKnot(3, 4))
    finally:
        tracer.uninstall()
    assert tracer.counts["oracle.seifert_rank"] == 6


def test_step_function_breakpoints_count_the_jumps(spans):
    # spans.py adds len(result.breakpoints) to the traced breakpoint count
    knot = TorusKnot(3, 4)
    pq = knot.p * knot.q

    def sigma(num):  # sigma at num / (2pq)
        return lt_signature(knot, RationalAngle(num, 2 * pq))

    jumps = sum(sigma(2 * k - 1) != sigma(2 * k + 1) for k in range(1, pq))
    assert len(lattice.signature_step_function(knot).breakpoints) == jumps
    tracer = spans.Tracer()
    tracer.install()
    try:
        lattice.signature_step_function(knot)
    finally:
        tracer.uninstall()
    assert tracer.counts["lattice.signature_step_function.breakpoints"] == jumps


def test_traced_max_signature_counts_the_sequence(spans):
    # spans.py adds len(result) of balanced_sequence; max_signature reaches it
    # through knot_max_cyclic_sum, and T(5,12) has a sequence of 4 entries
    tracer = spans.Tracer()
    tracer.install()
    try:
        maxsig.max_signature(TorusKnot(5, 12))
    finally:
        tracer.uninstall()
    assert tracer.counts["maxsig.sequence_len"] == 4


def test_traced_identities_count_reports_and_failures(spans):
    # spans.py reads r.passed, a property computed from expected and computed
    tracer = spans.Tracer()
    tracer.install()
    try:
        identities.check_glm(2, 3)
        identities.check_closed_forms(4)
    finally:
        tracer.uninstall()
    assert tracer.counts["identities.reports"] == 4
    assert tracer.counts["identities.failed"] == 0
