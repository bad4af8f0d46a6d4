"""Command-line front end: evaluations, sweeps, tables, verification runs.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
Rationals cross the boundary as exact "n/d" strings; decimal input is
rejected.  All output is deterministic: JSON documents carry sorted keys,
grids are sorted by (p, q), and `verify` output is byte-identical across
`--jobs` settings.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from itertools import chain

from .core import InvalidParameter, RationalAngle, TorsigError, TorusKnot
from .identities import (
    check_closed_forms,
    check_even_periodicity,
    check_glm,
    check_main_recursion,
    check_odd_shift_identity,
)
from .lattice import classical_signature, lt_signature, signature_step_function
from .maxsig import (balanced_sequence, distance_profile, knot_max_cyclic_sum,
                     max_cyclic_sum, max_signature)
from . import oracle

SCHEMA_VERSION = "1"
SUITES = (
    "glm",
    "even-periodicity",
    "main",
    "odd-shift",
    "closed-forms",
    "oracle",
    "brute-max",
)

# Size caps, checked before anything is allocated: `sweep` builds O(pq)
# arrays and prints about 2pq lines; `table` scans every candidate pair.
SWEEP_MAX_PQ = 2_000_000
TABLE_MAX_ROWS = 100_000

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _emit_json(payload: dict, stream) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    stream.write(json.dumps(payload, sort_keys=True, indent=2))
    stream.write("\n")


def _write_output(path: str | None, render) -> int:
    """Run render(stream) against stdout or a file; exit 3 on I/O trouble."""
    if path is None:
        render(sys.stdout)
        return EXIT_OK
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            render(handle)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _sequence_str(entries) -> str:
    return "(" + ",".join(map({1: "+1", -1: "-1"}.__getitem__, entries)) + ")"


def _indexed(name: str, values: dict[int, int]) -> str:
    """Space-separated name[k]=v in the dict's order, formatted by one % call.

    `distance_profile` inserts the keys in increasing order.
    """
    return " ".join([f"{name}[%d]=%d"] * len(values)) % tuple(chain.from_iterable(values.items()))


# --------------------------------------------------------------------------
# sig


def cmd_sig(args) -> int:
    knot = TorusKnot(args.p, args.q)
    t = RationalAngle.parse(args.t)
    sigma = lt_signature(knot, t)
    if args.format == "json":
        _emit_json({"p": knot.p, "q": knot.q, "t": str(t), "sigma": sigma}, sys.stdout)
    else:
        print(f"sigma={sigma}")
    return EXIT_OK


# --------------------------------------------------------------------------
# max


def _peak_row(knot: TorusKnot, m: int) -> dict:
    """The `max`/`table` row of one knot with maximal cyclic sum M = m.

    sigma_hat = sigma + 2M and g4_lb = ceil(sigma_hat/2) are derived from
    sigma and M, so each kernel runs once per knot.
    """
    sigma = classical_signature(knot)
    sigma_hat = sigma + 2 * m
    return {
        "p": knot.p,
        "q": knot.q,
        "sigma": sigma,
        "M": m,
        "sigma_hat": sigma_hat,
        "g4_lb": (sigma_hat + 1) // 2,
    }


def cmd_max(args) -> int:
    knot = TorusKnot(args.p, args.q)
    profile = distance_profile(knot)  # empty for p <= 2
    sequence = balanced_sequence(profile)
    row = _peak_row(knot, max_cyclic_sum(sequence))
    if args.format == "json":
        payload = {
            **row,
            "D": {str(j): v for j, v in profile.D.items()},
            "d": {str(k): v for k, v in profile.d.items()},
            "sequence": list(sequence.entries),
        }
        _emit_json(payload, sys.stdout)
    else:
        print(f"knot=T({knot.p},{knot.q})")
        print(f"sigma={row['sigma']}")
        if profile.D:
            print(_indexed("D", profile.D))
            print(_indexed("d", profile.d))
        print(f"sequence={_sequence_str(sequence.entries)}")
        print(f"M={row['M']}")
        print(f"sigma_hat={row['sigma_hat']}")
        print(f"g4_lb={row['g4_lb']}")
    return EXIT_OK


# --------------------------------------------------------------------------
# sweep


def cmd_sweep(args) -> int:
    knot = TorusKnot(args.p, args.q)
    if knot.p * knot.q > SWEEP_MAX_PQ:
        raise InvalidParameter(f"sweep needs pq <= {SWEEP_MAX_PQ}, got pq = {knot.p * knot.q}")
    step = signature_step_function(knot)
    values = step.interval_values

    def render(stream) -> None:
        if args.format == "json":
            payload = {
                "p": knot.p,
                "q": knot.q,
                "breakpoints": list(map(str, step.breakpoints)),
                "interval_values": list(values),
                "breakpoint_values": list(step.breakpoint_values),
            }
            _emit_json(payload, stream)
            return
        if args.format == "csv":
            # bounds[i], bounds[i+1] enclose interval i; bounds[1:-1] are the jumps
            bounds = ["0", *map(str, step.breakpoints), "1"]
            stream.write("t_lo,t_hi,sigma\n")
            stream.writelines(map("{},{},{}\n".format, bounds, bounds[1:], values))
            stream.write("\nt,sigma\n")
            stream.writelines(map("{},{}\n".format, bounds[1:-1], step.breakpoint_values))
        else:  # plot: step data with doubled abscissae at the jumps
            bounds = ["0.0", *(str(float(t)) for t in step.breakpoints), "1.0"]
            stream.writelines(map("{0} {2}\n{1} {2}\n".format, bounds, bounds[1:], values))

    return _write_output(args.output, render)


# --------------------------------------------------------------------------
# table


def _table_candidates(p_max: int, q_max: int) -> int:
    """Number of (p, q) with 2 <= p <= p_max and p < q <= q_max, counted
    without enumerating them; the coprime ones become `table` rows."""
    top = min(p_max, q_max - 1)
    if top < 2:
        return 0
    return (top - 1) * q_max - (top * (top + 1) // 2 - 1)


def cmd_table(args) -> int:
    candidates = _table_candidates(args.p_max, args.q_max)
    if candidates > TABLE_MAX_ROWS:
        raise InvalidParameter(f"table allows at most {TABLE_MAX_ROWS} (p, q) pairs, "
                               f"--p-max {args.p_max} --q-max {args.q_max} spans {candidates}")
    pairs = _coprime_pairs(args.p_max, args.q_max)

    def render(stream) -> None:
        knots = [TorusKnot(p, q) for p, q in pairs]
        rows = [_peak_row(knot, knot_max_cyclic_sum(knot)) for knot in knots]
        if args.format == "json":
            _emit_json({"rows": rows}, stream)
        else:
            stream.write("p,q,sigma,M,sigma_hat,g4_lb\n")
            for r in rows:
                stream.write(
                    f"{r['p']},{r['q']},{r['sigma']},{r['M']},{r['sigma_hat']},{r['g4_lb']}\n"
                )

    return _write_output(args.output, render)


# --------------------------------------------------------------------------
# verify


def _coprime_pairs(p_max: int, q_max: int) -> list[tuple[int, int]]:
    return [
        (p, q)
        for p in range(2, p_max + 1)
        for q in range(p + 1, q_max + 1)
        if math.gcd(p, q) == 1
    ]


def _verify_task(task) -> dict:
    """One unit of verification work; never raises (workers must return)."""
    suite, p, q, tol = task
    row = {"suite": suite, "p": p, "q": q, "passed": False, "expected": "", "computed": ""}
    try:
        if suite == "glm":
            report = check_glm(p, q)
        elif suite == "even-periodicity":
            report = check_even_periodicity(p, q)
        elif suite == "main":
            report = check_main_recursion(p, q)
        elif suite == "odd-shift":
            report = check_odd_shift_identity(p, q)
        elif suite == "closed-forms":
            reports = check_closed_forms(p)
            bad = [r for r in reports if not r.passed]
            row["passed"] = not bad
            row["expected"] = "" if not bad else str(bad[0].expected)
            row["computed"] = "" if not bad else str(bad[0].computed)
            return row
        elif suite == "oracle":
            knot = TorusKnot(p, q)
            results = oracle.signature_cross_check(knot, tol=tol)
            bad = [(t, a, b) for t, a, b in results if a != b]
            row["passed"] = not bad
            if bad:
                t, a, b = bad[0]
                row["expected"] = f"sigma_{t}={a}"
                row["computed"] = f"sigma_{t}={b}"
            return row
        elif suite == "brute-max":
            knot = TorusKnot(p, q)
            swept, pieces = oracle.brute_force_max(knot)
            expected = max_signature(knot)
            lo, hi = Fraction(1, 2) - Fraction(1, q), Fraction(1, 2)
            in_window = any(
                (a < b and a < hi and b > lo) or (a == b and lo < a <= hi)
                for a, b in pieces
            )
            row["passed"] = swept == expected and in_window
            row["expected"] = f"{expected} argmax-in-window"
            row["computed"] = f"{swept} {'yes' if in_window else 'no'}"
            return row
        else:  # pragma: no cover
            raise ValueError(f"unknown suite {suite}")
        row["passed"] = report.passed
        row["expected"] = str(report.expected)
        row["computed"] = str(report.computed)
    except TorsigError as exc:
        row["passed"] = False
        row["computed"] = f"error: {exc}"
    return row


def _verify_tasks(which, p_max, q_max, tol) -> list[tuple]:
    pairs = _coprime_pairs(p_max, q_max)
    tasks: list[tuple] = []
    for suite in SUITES:
        if suite not in which:
            continue
        if suite == "closed-forms":
            tasks.extend((suite, p, 0, tol) for p in range(2, p_max + 1))
        elif suite == "even-periodicity":
            tasks.extend((suite, p, q, tol) for p, q in pairs if p % 2 == 0)
        elif suite == "odd-shift":
            tasks.extend((suite, p, q, tol) for p, q in pairs if p % 2 == 1)
        else:
            tasks.extend((suite, p, q, tol) for p, q in pairs)
    return tasks


def cmd_verify(args) -> int:
    which = set(SUITES)
    if args.which:
        which = set()
        for chunk in args.which:
            for name in chunk.split(","):
                if name not in SUITES:
                    print(f"error: unknown suite {name!r}", file=sys.stderr)
                    return EXIT_USAGE
                which.add(name)
    if args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return EXIT_USAGE
    tol = args.tol
    if tol is None:
        tol = float(os.environ.get("TORSIG_TOL", oracle.DEFAULT_TOLERANCE))

    tasks = _verify_tasks(which, args.p_max, args.q_max, tol)
    if args.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_verify_task, tasks, chunksize=8))
    else:
        rows = [_verify_task(t) for t in tasks]

    rows.sort(key=lambda r: (SUITES.index(r["suite"]), r["p"], r["q"]))
    failures = [r for r in rows if not r["passed"]]

    if args.format == "json":
        suites_summary = {
            suite: {
                "checked": sum(1 for r in rows if r["suite"] == suite),
                "failed": sum(1 for r in failures if r["suite"] == suite),
            }
            for suite in SUITES
            if suite in which
        }
        payload = {
            "suites": suites_summary,
            "failures": [
                {k: r[k] for k in ("suite", "p", "q", "expected", "computed")}
                for r in failures
            ],
            "result": "FAIL" if failures else "PASS",
        }
        _emit_json(payload, sys.stdout)
    else:
        for suite in SUITES:
            if suite not in which:
                continue
            checked = sum(1 for r in rows if r["suite"] == suite)
            failed = sum(1 for r in failures if r["suite"] == suite)
            print(f"suite={suite} checked={checked} failed={failed}")
        for r in failures:
            print(
                f"FAIL suite={r['suite']} p={r['p']} q={r['q']} "
                f"expected={r['expected']} computed={r['computed']}"
            )
        print(f"result={'FAIL' if failures else 'PASS'}")
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


# --------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsig",
        description="Exact signature-function computations for torus knots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_knot_args(p):
        p.add_argument("-p", type=int, required=True, help="strand count")
        p.add_argument("-q", type=int, required=True, help="braid power")

    sig = sub.add_parser("sig", help="signature at one angle")
    add_knot_args(sig)
    sig.add_argument("-t", required=True, help='angle as an exact fraction "n/d"')
    sig.add_argument("--format", choices=("text", "json"), default="text")
    sig.set_defaults(func=cmd_sig)

    mx = sub.add_parser("max", help="maximum signature and its certificate")
    add_knot_args(mx)
    mx.add_argument("--format", choices=("text", "json"), default="text")
    mx.set_defaults(func=cmd_max)

    sweep = sub.add_parser("sweep", help=f"dump the whole signature function "
                                         f"(pq <= {SWEEP_MAX_PQ})")
    add_knot_args(sweep)
    sweep.add_argument("--format", choices=("csv", "json", "plot"), default="csv")
    sweep.add_argument("-o", "--output", help="output path (default stdout)")
    sweep.set_defaults(func=cmd_sweep)

    table = sub.add_parser("table", help=f"grid of sigma, M, sigma_hat, g4 bound "
                                         f"(at most {TABLE_MAX_ROWS} pairs)")
    table.add_argument("--p-max", type=int, default=10)
    table.add_argument("--q-max", type=int, default=20)
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.add_argument("-o", "--output", help="output path (default stdout)")
    table.set_defaults(func=cmd_table)

    verify = sub.add_parser("verify", help="run identity and oracle suites")
    verify.add_argument("--p-max", type=int, default=10)
    verify.add_argument("--q-max", type=int, default=25)
    verify.add_argument(
        "--which",
        action="append",
        help=f"comma-separated suites from {', '.join(SUITES)} (default: all)",
    )
    verify.add_argument("--jobs", type=int, default=1, help="worker processes")
    verify.add_argument(
        "--tol",
        type=float,
        default=None,
        help="oracle eigenvalue tolerance (overrides TORSIG_TOL)",
    )
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TorsigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
