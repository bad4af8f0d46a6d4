"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line each (visible under pytest -s)."""

import math
import time
from fractions import Fraction

import numpy as np

from reference import annulus_count
from torsig.cli import main as cli_main
from torsig.core import RationalAngle, TorusKnot
from torsig.identities import (
    check_closed_forms,
    check_even_periodicity,
    check_glm,
    check_main_recursion,
)
from torsig.lattice import classical_signature, lt_signature, signature_step_function
from torsig.maxsig import balanced_sequence, distance_profile, max_signature
from torsig.oracle import (
    NearSingular,
    ValidationFailure,
    brute_force_max,
    oracle_step_function,
)


def coprime_pairs(p_max, q_max):
    return [
        (p, q)
        for p in range(2, p_max + 1)
        for q in range(p + 1, q_max + 1)
        if math.gcd(p, q) == 1
    ]


def finish(number, description, ok, detail=""):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}{detail}")
    assert ok, f"criterion {number} failed{detail}"


def test_criterion_1_figure_reproduction():
    knot = TorusKnot(4, 7)
    t = RationalAngle(1, 4)
    # warm up so the timing measures the computation, not allocator startup
    annulus_count(knot, t), max_signature(knot)
    start = time.perf_counter()
    counts = annulus_count(knot, t)
    sigma_quarter = lt_signature(knot, t)
    sequence = tuple(balanced_sequence(distance_profile(knot)).tolist())
    sigma = classical_signature(knot)
    sigma_hat = max_signature(knot)
    elapsed = time.perf_counter() - start
    ok = (
        counts.inside == 14
        and sigma_quarter == 10
        and sequence == (-1, 1)
        and sigma == sigma_hat == 14
        and elapsed < 1e-3
    )
    finish(1, "figure reproduction for T(4,7)", ok, f" ({elapsed * 1e6:.0f}us)")


def test_criterion_2_worked_example():
    knot = TorusKnot(5, 12)
    profile = distance_profile(knot)
    sequence = balanced_sequence(profile)
    sigma = classical_signature(knot)
    sigma_hat = max_signature(knot)
    ok = (
        profile.j.tolist() == [-3, -1]
        and profile.D.tolist() == [6, 2]  # D_{-3}, D_{-1}
        and profile.d.tolist() == [8, 4]  # d_1, d_3
        and sequence.tolist() == [1, -1, 1, -1]
        and (sigma_hat - sigma) // 2 == 1
        and sigma == 28
        and sigma_hat == 30
    )
    finish(2, "worked example T(5,12)", ok)


def test_criterion_3_far_family_closed_form():
    start = time.perf_counter()
    ok = all(
        max_signature(TorusKnot(p, 2 * p + 1)) == p * p + p - 2 for p in range(2, 31)
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    finish(3, "max signature of T(p,2p+1) for p <= 30", ok, f" ({elapsed:.3f}s)")


def test_criterion_4_near_family_closed_form():
    ok = True
    for p in range(2, 31):
        knot = TorusKnot(p, p + 1)
        gap = max_signature(knot) - classical_signature(knot)
        expected = p - 2 if p % 2 == 0 else 0
        ordering = check_closed_forms(p)[2].passed
        if gap != expected or not ordering:
            ok = False
            break
    finish(4, "T(p,p+1) gaps and distance orderings for p <= 30", ok)


def test_criterion_5_main_recursion_grid():
    start = time.perf_counter()
    failures = [
        (p, q) for p, q in coprime_pairs(60, 60) if not check_main_recursion(p, q).passed
    ]
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    finish(5, "peak recursion on 2 <= p < q <= 60", ok, f" ({elapsed:.2f}s)")


def test_criterion_6_classical_recursions_grid():
    pairs = coprime_pairs(60, 60)
    glm_ok = all(check_glm(p, q).passed for p, q in pairs)
    even_ok = all(
        check_even_periodicity(p, q).passed for p, q in pairs if p % 2 == 0
    )
    # the even-p-only scope is real: (3,4) breaks the odd-p analogue
    counterexample = classical_signature(TorusKnot(3, 7)) != classical_signature(
        TorusKnot(3, 4)
    ) + (9 - 1) // 2
    finish(6, "GLM and even-p periodicity with odd-p counterexample",
           glm_ok and even_ok and counterexample)


def test_criterion_7_bounds_and_sharpness():
    ok = True
    for p, q in coprime_pairs(60, 60):
        knot = TorusKnot(p, q)
        sigma, sigma_hat = classical_signature(knot), max_signature(knot)
        bound = p - 2 if p % 2 == 0 else p - 1
        if not sigma <= sigma_hat <= sigma + bound:
            ok = False
            break
    for p in range(2, 31):
        knot = TorusKnot(p, 2 * p + 1)
        two_m = max_signature(knot) - classical_signature(knot)
        if two_m != (p - 2 if p % 2 == 0 else p - 1):
            ok = False
            break
    finish(7, "sigma <= sigma_hat <= sigma + p - 1 (p - 2 even), sharp at q = 2p+1", ok)


def test_criterion_8_oracle_equivalence():
    start = time.perf_counter()
    tol = 1e-8
    ok = True
    detail = ""

    knots = [
        (p, q)
        for p in range(2, 13)
        for q in range(p + 1, 123)
        if math.gcd(p, q) == 1 and (p - 1) * (q - 1) <= 120
    ]
    for p, q in knots:
        knot = TorusKnot(p, q)
        try:  # validates det(A - tA^T) = +-Delta and M^{pq} = I on the way
            numeric = oracle_step_function(knot, tol)
        except (ValidationFailure, NearSingular) as error:
            ok, detail = False, f" oracle refused T({p},{q}): {error}"
            break
        lattice = signature_step_function(knot)
        if not (np.array_equal(numeric.breakpoints, lattice.breakpoints)
                and np.array_equal(numeric.interval_values, lattice.interval_values)):
            ok, detail = False, f" signature function mismatch at T({p},{q})"
            break

    if ok:
        for p, q in coprime_pairs(40, 40):
            knot = TorusKnot(p, q)
            swept, pieces = brute_force_max(knot)
            lo, hi = Fraction(1, 2) - Fraction(1, q), Fraction(1, 2)
            in_window = any(
                Fraction(a, p * q) < hi and Fraction(b, p * q) > lo
                for a, b in pieces.tolist()
            )
            if swept != max_signature(knot) or not in_window:
                ok, detail = False, f" sweep mismatch at T({p},{q})"
                break

    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    finish(8, "oracle signature function, Alexander validation, sweep maximum, "
              "maximizer window", ok, detail + f" ({elapsed:.1f}s)")


def test_criterion_9_verify_determinism(capsys):
    args = ["verify", "--p-max", "6", "--q-max", "14",
            "--which", "glm,even-periodicity,main,odd-shift,closed-forms,brute-max"]
    code1 = cli_main(args + ["--jobs", "1"])
    out1 = capsys.readouterr().out
    code8 = cli_main(args + ["--jobs", "8"])
    out8 = capsys.readouterr().out
    ok = code1 == code8 == 0 and out1.encode() == out8.encode()
    with capsys.disabled():
        finish(9, "verify output byte-identical for --jobs 1 and --jobs 8", ok)
