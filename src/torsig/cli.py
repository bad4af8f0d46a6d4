"""Command-line front end: evaluations, sweeps, tables, verification runs.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
Rationals cross the boundary as exact "n/d" strings; decimal input is
rejected.  All output is deterministic: JSON documents carry sorted keys,
grids are sorted by (p, q), and `verify` output is byte-identical across
`--jobs` settings.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections.abc import Iterator
from itertools import chain

import numpy as np

from .core import InvalidParameter, RationalAngle, TorsigError, TorusKnot
from .identities import (
    check_closed_forms,
    check_even_periodicity,
    check_glm,
    check_main_recursion,
    check_odd_shift_identity,
)
from .lattice import classical_signature, lt_signature, signature_step_function
from .maxsig import (_g4_from_peak, balanced_sequence, distance_profile, knot_max_cyclic_sum,
                     max_cyclic_sum, max_signature)
from . import oracle

SCHEMA_VERSION = "1"

# Size caps, checked before anything is allocated: `max` builds O(p) arrays
# and prints O(p) text; `sweep` builds O(pq) arrays and prints about 2pq
# lines; `table` and `verify` scan every candidate pair.
MAX_MAX_P = 6_000_000
SWEEP_MAX_PQ = 2_000_000
TABLE_MAX_ROWS = 100_000
# `verify --jobs` starts this many worker processes at most (about 40 MB each).
MAX_JOBS = 32

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


def _sequence_str(entries: np.ndarray) -> str:
    """The +-1 array as "(+1,-1,...)"; every entry is the same three bytes."""
    return "(" + np.where(entries > 0, b"+1,", b"-1,").tobytes()[:-1].decode("ascii") + ")"


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
        "g4_lb": _g4_from_peak(sigma_hat),
    }


def cmd_max(args) -> int:
    knot = TorusKnot(args.p, args.q)
    if knot.p > MAX_MAX_P:
        raise InvalidParameter(f"max needs p <= {MAX_MAX_P}, got p = {knot.p}")
    profile = distance_profile(knot)  # empty for p <= 2
    sequence = balanced_sequence(profile)
    row = _peak_row(knot, max_cyclic_sum(sequence))
    D, d = profile.D, profile.d
    ks = -profile.j[::-1]  # the indices of d; D's are -ks[::-1]
    if args.format == "json":  # the bytes of _emit_json's sorted, indented payload
        # D's keys "-k" sort as d's keys "k" do, so both rows read one key block
        out, order = sys.stdout, _decimal_order(ks)
        keys = _digits(ks[order])
        signs = np.full((2, sequence.size), ord("1"), np.uint8)  # "-1" or "1", NUL-padded
        signs[0] = (sequence < 0) * ord("-")
        out.write('{\n  "D": ')
        out.writelines(_json_nest("{}", _pieces('    "-%d": %d,\n', keys, _digits(D[::-1][order]))))
        out.write(',\n  "M": %d,\n  "d": ' % row["M"])
        out.writelines(_json_nest("{}", _pieces('    "%d": %d,\n', keys, _digits(d[order]))))
        del keys  # before the sequence's rows are cut
        out.write(',\n  "g4_lb": %d,\n  "p": %d,\n  "q": %d,\n  "schema_version": %s,\n'
                  '  "sequence": ' % (row["g4_lb"], knot.p, knot.q, json.dumps(SCHEMA_VERSION)))
        out.writelines(_json_nest("[]", _pieces("    %d,\n", signs)))
        out.write(',\n  "sigma": %d,\n  "sigma_hat": %d\n}\n' % (row["sigma"], row["sigma_hat"]))
    else:
        print(f"knot=T({knot.p},{knot.q})")
        print(f"sigma={row['sigma']}")
        if D.size:  # each line: its first entry, then " D[-k]=D_-k" for the others
            keys = _digits(ks)  # D's block is the same one read backwards
            for name, index, block, value in (("D[-", ks[::-1], keys[:, ::-1], D),
                                              ("d[", ks, keys, d)):
                sys.stdout.write(f"{name}{index[0]}]={value[0]}")
                sys.stdout.writelines(_pieces(f" {name}%d]=%d", block[:, 1:], _digits(value[1:])))
                sys.stdout.write("\n")
            del keys, block  # before the sequence's text is built
        print(f"sequence={_sequence_str(sequence)}")
        print(f"M={row['M']}")
        print(f"sigma_hat={row['sigma_hat']}")
        print(f"g4_lb={row['g4_lb']}")
    return EXIT_OK


# --------------------------------------------------------------------------
# sweep


def _digits(column: np.ndarray) -> np.ndarray:
    """The decimal text of a non-negative int64 column as a uint8 block with
    one row per byte position: entry i reads down column i, right-aligned,
    with NUL before it.  No Python int is made per entry.

    The block is cut from the right a digit at a time.  A digit costs one
    floor division t = q // 10 of the whole array: numpy divides an integer
    array by a scalar with a multiply and shift, while q % 10 and divmod
    divide in hardware once per entry.  The digit is then q - 10t taken in
    uint8, whose arithmetic wraps mod 256; that is exact because the digit
    lies in 0..9, and the uint8 cast of t is already the next row's q.  Rows
    above an entry's first digit are blanked by multiplying with q != 0, and
    no ufunc writes through where=, which runs several times slower than a
    plain one.  `_pieces` lays the blocks between the literals of a row
    template and deletes the NULs left before shorter numbers.
    """
    if (dtype := getattr(column, "dtype", type(column))) != np.int64:
        raise TypeError(f"columns must be int64 arrays, got {dtype}")
    n = len(column)
    lo, hi = (int(column.min()), int(column.max())) if n else (0, 0)
    if lo < 0:
        raise ValueError(f"columns must be non-negative, got {lo}")
    digits = len(str(hi))
    block = np.empty((digits, n), np.uint8)
    q = column.astype(np.uint32 if digits < 10 else np.int64)  # 10^9 - 1 < 2^32 < 10^10 - 1
    t, scratch, shown = np.empty_like(q), np.empty(n, np.uint8), np.empty(n, bool)
    np.copyto(block[-1], q, casting="unsafe")
    for k in range(digits):  # row -1 - k holds q mod 256, q = entry // 10^k
        row = block[-1 - k]
        if k < digits - 1:  # else q < 10 already
            np.floor_divide(q, 10, out=t)
            np.copyto(block[-2 - k], t, casting="unsafe")
            np.multiply(block[-2 - k], 10, out=scratch)
            row -= scratch
        row += ord("0")
        if k:
            np.not_equal(q, 0, out=shown)
            row *= shown
        q, t = t, q
    return block


# Entries per piece when rows are finished: a piece's bytes stay in cache.
_PIECE = 1 << 13


def _pieces(row: str, *blocks: np.ndarray) -> Iterator[str]:
    """`row` once per column index of the `_digits` blocks, cut to the
    narrowest, with its i-th %d read from the i-th block and NULs dropped.
    A sign is literal text of `row`, which may hold no other % and no NUL.

    The rows come a piece at a time, each through one reused matrix of byte
    positions: transposed to row order, stripped of NULs and decoded.  A
    caller that writes the pieces straight out never holds the whole text.
    Each piece holds at least one row.
    """
    literals = row.encode("ascii").split(b"%d")
    if len(literals) != len(blocks) + 1 or any(b"%" in x or b"\0" in x for x in literals):
        raise ValueError(f"{row!r} is not {len(blocks)} %d fields among literals without % or NUL")
    n = min(block.shape[1] for block in blocks)
    width = sum(map(len, literals)) + sum(map(len, blocks))
    piece = np.empty((width, min(n, _PIECE)), np.uint8)
    fields, end = [], 0
    for literal, block in zip(literals, blocks):
        piece[end : end + len(literal)] = np.frombuffer(literal, np.uint8)[:, None]
        end += len(literal)
        fields.append((piece[end : end + len(block)], block))
        end += len(block)
    piece[end:] = np.frombuffer(literals[-1], np.uint8)[:, None]
    for start in range(0, n, _PIECE):
        size = min(_PIECE, n - start)
        for rows, block in fields:
            rows[:, :size] = block[:, start : start + size]
        yield piece[:, :size].T.tobytes().translate(None, b"\0").decode("ascii")


def _json_nest(brackets: str, pieces: Iterator[str]) -> Iterator[str]:
    """A list ("[]") or object ("{}") of the pieces `_pieces` yields, whose
    rows end ",\n", as json.dumps(indent=2) nests it one level down: the
    pieces pass through, and only the last loses its ",\n"."""
    last = next(pieces, None)
    if last is None:
        yield brackets
        return
    yield brackets[0] + "\n"
    for piece in pieces:
        yield last
        last = piece
    yield last[:-2] + "\n  " + brackets[1]


def _decimal_order(keys: np.ndarray) -> np.ndarray:
    """The order in which json.dumps(sort_keys=True) puts non-negative int64
    keys: that of their decimal strings, with no string made per key.

    Digit strings compare as their digits left-aligned to a common length L
    would, with the shorter string first on a tie, which is where it is a
    prefix of the longer one: the order of (key * 10^(L - digits), digits).
    The first value is below 10^L <= 10^19 < 2^64.
    """
    keys = keys.astype(np.uint64)
    tens = 10 ** np.arange(20, dtype=np.uint64)
    top = len(str(int(keys.max()))) if keys.size else 1
    more = np.searchsorted(tens[1:top], keys, "right")  # digits - 1
    return np.lexsort((more, keys * tens[top - 1 - more]))


def cmd_sweep(args) -> int:
    knot = TorusKnot(args.p, args.q)
    if knot.p * knot.q > SWEEP_MAX_PQ:
        raise InvalidParameter(f"sweep needs pq <= {SWEEP_MAX_PQ}, got pq = {knot.p * knot.q}")
    step = signature_step_function(knot)
    ks, pq, values = step.breakpoints, step.denominator, step.interval_values

    def render(stream) -> None:
        if args.format == "plot":  # step data with doubled abscissae at the jumps
            # k < pq <= SWEEP_MAX_PQ < 2**53, so k / pq is float(Fraction(k, pq)) exactly
            bounds, ints = [0.0, *(ks / pq).tolist(), 1.0], values.tolist()
            points = chain.from_iterable(zip(bounds, ints, bounds[1:], ints))
            stream.write(("%s %d\n%s %d\n" * len(ints)) % tuple(points))
            return
        # each breakpoint k/pq in lowest terms, as str(Fraction) has it; p and q are
        # coprime, so gcd(k, pq) = gcd(k, p) gcd(k, q), read off tables of period p and q
        p, q = knot.p, knot.q
        g = np.gcd(np.arange(p), p)[ks % p] * np.gcd(np.arange(q), q)[ks % q]
        num, den, at_points = ks // g, pq // g, step.breakpoint_values
        if args.format == "json":  # the bytes of _emit_json's sorted, indented payload
            stream.write('{\n  "breakpoint_values": ')
            stream.writelines(_json_nest("[]", _pieces("    %d,\n", _digits(at_points))))
            stream.write(',\n  "breakpoints": ')
            stream.writelines(_json_nest("[]", _pieces('    "%d/%d",\n', _digits(num), _digits(den))))
            stream.write(',\n  "interval_values": ')
            stream.writelines(_json_nest("[]", _pieces("    %d,\n", _digits(values))))
            stream.write(',\n  "p": %d,\n  "q": %d,\n  "schema_version": %s\n}\n'
                         % (knot.p, knot.q, json.dumps(SCHEMA_VERSION)))
            return
        # interval i runs from breakpoint i - 1 to breakpoint i, or from 0 / to 1;
        # both sections read the digits of num and den from one block each
        nums, dens = _digits(num), _digits(den)
        stream.write("t_lo,t_hi,sigma\n")
        if ks.size:
            stream.write(f"0,{num[0]}/{den[0]},{values[0]}\n")
            stream.writelines(_pieces("%d/%d,%d/%d,%d\n", nums[:, :-1], dens[:, :-1],
                                      nums[:, 1:], dens[:, 1:], _digits(values[1:-1])))
            stream.write(f"{num[-1]}/{den[-1]},1,{values[-1]}\n")
        else:
            stream.write(f"0,1,{values[0]}\n")
        stream.write("\nt,sigma\n")
        stream.writelines(_pieces("%d/%d,%d\n", nums, dens, _digits(at_points)))

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


def _require_grid(args) -> None:
    if args.p_max < 1 or args.q_max < 1:
        raise InvalidParameter(f"--p-max and --q-max must be >= 1, got {args.p_max} and {args.q_max}")


def cmd_table(args) -> int:
    _require_grid(args)
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
            # the header lists the keys of `_peak_row` in their order
            stream.write("p,q,sigma,M,sigma_hat,g4_lb\n")
            stream.writelines(",".join(map(str, r.values())) + "\n" for r in rows)

    return _write_output(args.output, render)


# --------------------------------------------------------------------------
# verify
#
# SUITES maps each suite name, in output order, to the grid it runs on (a
# key of GRIDS) and a checker (pairs, tol) -> [(passed, expected, computed)],
# one row per pair.  Checkers resolve the kernels they call by module
# attribute at call time, so tracing wrappers and test doubles installed on
# those names are seen.  Tasks cross the process pool as (suite, pairs, tol)
# tuples and find their checker here.


def _coprime_pairs(p_max: int, q_max: int) -> list[tuple[int, int]]:
    return [
        (p, q)
        for p in range(2, min(p_max, q_max - 1) + 1)
        for q in range(p + 1, q_max + 1)
        if math.gcd(p, q) == 1
    ]


def _identity(report) -> tuple[bool, str, str]:
    return report.passed, str(report.expected), str(report.computed)


def _row(check, *args) -> tuple[bool, str, str]:
    """check(*args), or the failure row of the TorsigError it raises."""
    try:
        return check(*args)
    except TorsigError as exc:
        return False, "", f"error: {exc}"


def _each(check):
    """The checker of a suite whose check (p, q, tol) takes one pair at a time."""
    return lambda pairs, tol: [_row(check, p, q, tol) for p, q in pairs]


def _check_closed_forms(p: int, q: int, tol: float) -> tuple[bool, str, str]:
    """Both closed forms at p; a failure shows the first failing report."""
    bad = [r for r in check_closed_forms(p) if not r.passed]
    return _identity(bad[0]) if bad else (True, "", "")


def _check_oracle(pairs, tol: float) -> list[tuple[bool, str, str]]:
    """Lattice against oracle step function, the oracle run on all the pairs
    as one batch; a failure shows the first midpoint that differs."""
    knots = [TorusKnot(p, q) for p, q in pairs]
    numeric = oracle.oracle_step_functions(knots, tol=tol)
    return [_row(lambda k, s: _compare_steps(k, oracle._raised(s)), knot, step)
            for knot, step in zip(knots, numeric)]


def _compare_steps(knot: TorusKnot, numeric) -> tuple[bool, str, str]:
    """The oracle row of one knot, whose oracle step function is numeric."""
    lattice, pq = signature_step_function(knot), knot.p * knot.q
    a, b = (f.interval_values[np.searchsorted(f.breakpoints, np.arange(pq), "right")]
            for f in (lattice, numeric))
    differ = np.flatnonzero(a != b)
    if differ.size:
        k = int(differ[0])
        t = RationalAngle(2 * k + 1, 2 * pq)
        return False, f"sigma_{t}={a[k]}", f"sigma_{t}={b[k]}"
    return True, "", ""


def _argmax_in_window(pieces, p: int, q: int) -> bool:
    """Whether some maximising open interval (lo/pq, hi/pq) meets (1/2 - 1/q, 1/2]."""
    return any(2 * lo < p * q and 2 * hi > p * q - 2 * p for lo, hi in pieces)


def _check_brute_max(p: int, q: int, tol: float) -> tuple[bool, str, str]:
    knot = TorusKnot(p, q)
    swept, pieces = oracle.brute_force_max(knot)
    expected = max_signature(knot)
    in_window = _argmax_in_window(pieces, p, q)
    return (
        swept == expected and in_window,
        f"{expected} argmax-in-window",
        f"{swept} {'yes' if in_window else 'no'}",
    )


# The grids a suite can run on: (coprime pairs, p_max) -> the (p, q) it checks.
GRIDS = {
    "all pairs": lambda pairs, p_max: pairs,
    "even p": lambda pairs, p_max: [(p, q) for p, q in pairs if p % 2 == 0],
    "odd p": lambda pairs, p_max: [(p, q) for p, q in pairs if p % 2 == 1],
    "p alone": lambda pairs, p_max: [(p, 0) for p in range(2, p_max + 1)],
}


SUITES = {
    "glm": ("all pairs", _each(lambda p, q, tol: _identity(check_glm(p, q)))),
    "even-periodicity": ("even p",
                         _each(lambda p, q, tol: _identity(check_even_periodicity(p, q)))),
    "main": ("all pairs", _each(lambda p, q, tol: _identity(check_main_recursion(p, q)))),
    "odd-shift": ("odd p", _each(lambda p, q, tol: _identity(check_odd_shift_identity(p, q)))),
    "closed-forms": ("p alone", _each(_check_closed_forms)),
    "oracle": ("all pairs", _check_oracle),
    "brute-max": ("all pairs", _each(_check_brute_max)),
}


def _verify_task(task) -> list[tuple[bool, str, str]]:
    """(passed, expected, computed) of each pair of one task (suite, pairs,
    tol); a TorsigError fails its own pair, so this never raises (workers
    must return)."""
    suite, pairs, tol = task
    return SUITES[suite][1](pairs, tol)


def _verify_grids(which, p_max, q_max) -> dict[str, list[tuple[int, int]]]:
    """The pairs of each suite run, in output order: by suite as listed in
    SUITES, then by (p, q)."""
    pairs = _coprime_pairs(p_max, q_max)
    return {name: GRIDS[grid](pairs, p_max) for name, (grid, _) in SUITES.items() if name in which}


def _parse_which(chunks) -> set[str]:
    """The suites named by the --which flags (all of them if none is given)."""
    names = [name for chunk in chunks or [",".join(SUITES)] for name in chunk.split(",")]
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise InvalidParameter(f"unknown suite {unknown[0]!r}")
    return set(names)


def cmd_verify(args) -> int:
    _require_grid(args)
    which = _parse_which(args.which)
    if not 1 <= args.jobs <= MAX_JOBS:
        raise InvalidParameter(f"--jobs must be between 1 and {MAX_JOBS}, got {args.jobs}")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise InvalidParameter(f"--tol must be finite and > 0, got {args.tol}")
    candidates = _table_candidates(args.p_max, args.q_max)
    if max(candidates, args.p_max) > TABLE_MAX_ROWS:
        raise InvalidParameter(f"verify allows at most {TABLE_MAX_ROWS} pairs and p values, "
                               f"--p-max {args.p_max} --q-max {args.q_max} spans {candidates} "
                               f"pairs and {args.p_max} p values")

    grids = _verify_grids(which, args.p_max, args.q_max)
    # each suite in min(jobs, pairs) tasks, every jobs-th pair apiece, so each
    # task spans the grid's sizes and the oracle runs as that many batches
    tasks = [(name, grid[i :: args.jobs], args.tol)
             for name, grid in grids.items() for i in range(min(args.jobs, len(grid)))]
    if args.jobs > 1 and len(tasks) > 1:
        # imported here: a serial run never needs them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # Spawned workers default to one BLAS thread each; values the caller set win.
        unset = [v for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS") if v not in os.environ]
        os.environ.update(dict.fromkeys(unset, "1"))
        try:
            spawn = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(max_workers=args.jobs, mp_context=spawn) as pool:
                outcomes = list(pool.map(_verify_task, tasks))
        finally:
            for name in unset:
                os.environ.pop(name, None)
    else:
        outcomes = [_verify_task(t) for t in tasks]

    rows = {(name, p, q): row for (name, pairs, _), task_rows in zip(tasks, outcomes)
            for (p, q), row in zip(pairs, task_rows)}
    failures = []
    for name, grid in grids.items():
        for p, q in grid:
            passed, expected, computed = rows[name, p, q]
            if not passed:
                failures.append({"suite": name, "p": p, "q": q,
                                 "expected": expected, "computed": computed})
    counts = {
        name: {"checked": len(grid), "failed": sum(f["suite"] == name for f in failures)}
        for name, grid in grids.items()
    }
    result = "FAIL" if failures else "PASS"

    if args.format == "json":
        _emit_json({"suites": counts, "failures": failures, "result": result}, sys.stdout)
    else:
        for name, c in counts.items():
            print(f"suite={name} checked={c['checked']} failed={c['failed']}")
        for f in failures:
            print(
                f"FAIL suite={f['suite']} p={f['p']} q={f['q']} "
                f"expected={f['expected']} computed={f['computed']}"
            )
        print(f"result={result}")
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


# --------------------------------------------------------------------------
# parser


@functools.cache  # built once per process: it costs more than a small command
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsig",
        description="Exact signature-function computations for torus knots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def integer(text):  # ASCII digits after an optional '-', as `RationalAngle.parse` reads -t
        if not (text.isascii() and text.removeprefix("-").isdigit()):
            raise argparse.ArgumentTypeError(f"need an integer in ASCII digits, got {text!r}")
        return int(text)

    def number(text):  # float() alone takes '_', non-ASCII digits and surrounding space
        if not text.isascii() or "_" in text or text != text.strip():
            raise argparse.ArgumentTypeError(f"need a number in ASCII digits, got {text!r}")
        return float(text)

    def add_knot_args(p):
        p.add_argument("-p", type=integer, required=True, help="strand count")
        p.add_argument("-q", type=integer, required=True, help="braid power")

    sig = sub.add_parser("sig", help="signature at one angle")
    add_knot_args(sig)
    sig.add_argument("-t", required=True, help='angle as an exact fraction "n/d"')
    sig.add_argument("--format", choices=("text", "json"), default="text")
    sig.set_defaults(func=cmd_sig)

    mx = sub.add_parser("max", help=f"maximum signature and its certificate "
                                    f"(p <= {MAX_MAX_P})")
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
    table.add_argument("--p-max", type=integer, default=10)
    table.add_argument("--q-max", type=integer, default=20)
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.add_argument("-o", "--output", help="output path (default stdout)")
    table.set_defaults(func=cmd_table)

    verify = sub.add_parser("verify", help=f"run identity and oracle suites "
                                           f"(p <= {TABLE_MAX_ROWS}, at most "
                                           f"{TABLE_MAX_ROWS} pairs)")
    verify.add_argument("--p-max", type=integer, default=10)
    verify.add_argument("--q-max", type=integer, default=25)
    verify.add_argument(
        "--which",
        action="append",
        help=f"comma-separated suites from {', '.join(SUITES)} (default: all)",
    )
    verify.add_argument("--jobs", type=integer, default=1, help=f"worker processes (1 to {MAX_JOBS})")
    verify.add_argument(
        "--tol",
        type=number,
        default=oracle.DEFAULT_TOLERANCE,
        help="oracle jump-slope bound, finite and > 0 (default %(default)s)",
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
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early, as `torsig sweep ... | head` does.
        # Pointing stdout at devnull keeps the flush at interpreter exit from
        # failing again and printing "Exception ignored".
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_IO
    sys.exit(code)


if __name__ == "__main__":
    entry()
