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
import multiprocessing
import os
import sys
from collections import Counter
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
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
    D, d, js = profile.D, profile.d, profile.j
    ks = -js[::-1]  # the indices of d
    if args.format == "json":  # the bytes of _emit_json's sorted, indented payload
        out, D_order, d_order = sys.stdout, _decimal_order(js), _decimal_order(ks)
        out.write('{\n  "D": ')
        out.writelines(_json_nest("{}", _rows('    "%d": %d,\n', js[D_order], D[D_order])))
        out.write(',\n  "M": %d,\n  "d": ' % row["M"])
        out.writelines(_json_nest("{}", _rows('    "%d": %d,\n', ks[d_order], d[d_order])))
        out.write(',\n  "g4_lb": %d,\n  "p": %d,\n  "q": %d,\n  "schema_version": %s,\n'
                  '  "sequence": ' % (row["g4_lb"], knot.p, knot.q, json.dumps(SCHEMA_VERSION)))
        out.writelines(_json_nest("[]", _rows("    %d,\n", sequence.astype(np.int64))))
        out.write(',\n  "sigma": %d,\n  "sigma_hat": %d\n}\n' % (row["sigma"], row["sigma_hat"]))
    else:
        print(f"knot=T({knot.p},{knot.q})")
        print(f"sigma={row['sigma']}")
        if D.size:  # each line: its first entry, then " D[j]=D_j" for the others
            for name, index, value in (("D", js, D), ("d", ks, d)):
                sys.stdout.write(f"{name}[{index[0]}]={value[0]}")
                sys.stdout.writelines(_rows(f" {name}[%d]=%d", index[1:], value[1:]))
                sys.stdout.write("\n")
        print(f"sequence={_sequence_str(sequence)}")
        print(f"M={row['M']}")
        print(f"sigma_hat={row['sigma_hat']}")
        print(f"g4_lb={row['g4_lb']}")
    return EXIT_OK


# --------------------------------------------------------------------------
# sweep


def _literals(row: str, fields: int) -> list[bytes]:
    """The ASCII literals around the `fields` %d of `row`, which may hold no
    other % and no NUL."""
    literals = row.encode("ascii").split(b"%d")
    if len(literals) != fields + 1 or any(b"%" in x or b"\0" in x for x in literals):
        raise ValueError(f"{row!r} is not {fields} %d fields among literals without % or NUL")
    return literals


def _digits(column: np.ndarray) -> np.ndarray:
    """The decimal text of an int64 column as a uint8 block with one row per
    byte position: entry i reads down column i, right-aligned, with NUL
    before it.  How and why is told at `_rows`."""
    if (dtype := getattr(column, "dtype", type(column))) != np.int64:
        raise TypeError(f"columns must be int64 arrays, got {dtype}")
    n = len(column)
    lo, hi = (int(column.min()), int(column.max())) if n else (0, 0)
    if lo == -(2**63):
        raise ValueError("-2^63 has no int64 absolute value")
    digits, signed = len(str(max(hi, -lo))), lo < 0
    block = np.empty((signed + digits, n), np.uint8)
    q = np.empty(n, np.uint32 if digits < 10 else np.int64)  # 10^9 - 1 < 2^32 < 10^10 - 1
    np.abs(column, out=q, casting="unsafe")
    t, scratch = np.empty_like(q), np.empty(n, np.uint8)
    shown, above = np.empty(n, bool), np.ones(n, bool)  # digit k shown; digit k - 1 shown
    minus = np.uint8(ord("-")) * (column < 0)
    np.copyto(block[-1], q, casting="unsafe")
    for k in range(digits):  # row -1 - k holds q mod 256, q = |entry| // 10^k
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
            if signed:
                np.bitwise_xor(above, shown, out=above)  # shown implies above
                np.multiply(above, minus, out=scratch)
                row += scratch
                above, shown = shown, above
        q, t = t, q
    if signed:
        np.multiply(above, minus, out=block[0])
    return block


# Entries per piece when rows are finished: a piece's bytes stay in cache.
_PIECE = 1 << 13


def _pieces(literals: list[bytes], blocks: list[np.ndarray]) -> Iterator[str]:
    """One row per column index, cut to the narrowest block: the literals in
    turn with the `_digits` blocks between them, NULs dropped.

    The rows come a piece at a time, each through one reused matrix of byte
    positions: transposed to row order, stripped of NULs and decoded.  A
    caller that writes the pieces straight out never holds the whole text.
    Each piece holds at least one row.
    """
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


def _rows(row: str, *columns: np.ndarray) -> Iterator[str]:
    """`row` once per index of the int64 columns, cut to the shortest, with
    its i-th %d read from the i-th column: (row * n) % (the entries in turn),
    with no Python int made per entry.  The text comes as the pieces of
    `_pieces`, for the caller to write straight out (or join); the template
    and the columns are checked, and the digits cut, before it returns.

    Each field becomes a `_digits` block, one row of n bytes per byte
    position, cut from the right a digit at a time.  A digit costs one floor
    division t = q // 10 of the whole array: numpy divides an integer array
    by a scalar with a multiply and shift, while q % 10 and divmod divide in
    hardware once per entry.  The digit is then q - 10t taken in uint8,
    whose arithmetic wraps mod 256; that is exact because the digit lies in
    0..9, and the uint8 cast of t is already the next row's q.  Rows above
    an entry's first digit are blanked by multiplying with q != 0, and no
    ufunc writes through where=, which runs several times slower than a
    plain one.  A '-' goes where the entry is negative, the digit below is
    shown and this one is not; entries that use every digit row get theirs
    on the field's sign row.  `_pieces` lays the blocks between the literals
    and deletes the NULs left before shorter numbers.
    """
    literals = _literals(row, len(columns))
    n = min(map(len, columns))
    return _pieces(literals, [_digits(column[:n]) for column in columns])


def _json_nest(brackets: str, pieces: Iterator[str]) -> Iterator[str]:
    """A list ("[]") or object ("{}") of the `_rows` pieces, whose rows end
    ",\n", as json.dumps(indent=2) nests it one level down: the pieces pass
    through, and only the last loses its ",\n"."""
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
    """The order in which json.dumps(sort_keys=True) puts int64 keys: that of
    their decimal strings, with no string made per key.

    '-' sorts before every digit, so negative keys come first.  Among keys
    of one sign, digit strings compare as their digits left-aligned to a
    common length L would, with the shorter string first on a tie, which
    is where it is a prefix of the longer one: the order of (sign,
    |key| * 10^(L - digits), digits).  The middle value is below 10^L <=
    10^19 < 2^64.
    """
    magnitude = np.abs(keys).astype(np.uint64)  # |-2^63| wraps to 2^63 itself
    tens = 10 ** np.arange(20, dtype=np.uint64)
    top = len(str(int(magnitude.max()))) if keys.size else 1
    more = np.searchsorted(tens[1:top], magnitude, "right")  # digits - 1
    return np.lexsort((more, magnitude * tens[top - 1 - more], keys >= 0))


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
            stream.writelines(_json_nest("[]", _rows("    %d,\n", at_points)))
            stream.write(',\n  "breakpoints": ')
            stream.writelines(_json_nest("[]", _rows('    "%d/%d",\n', num, den)))
            stream.write(',\n  "interval_values": ')
            stream.writelines(_json_nest("[]", _rows("    %d,\n", values)))
            stream.write(',\n  "p": %d,\n  "q": %d,\n  "schema_version": %s\n}\n'
                         % (knot.p, knot.q, json.dumps(SCHEMA_VERSION)))
            return
        # interval i runs from breakpoint i - 1 to breakpoint i, or from 0 / to 1;
        # both sections read the digits of num and den from one block each
        nums, dens = _digits(num), _digits(den)
        stream.write("t_lo,t_hi,sigma\n")
        if ks.size:
            stream.write(f"0,{num[0]}/{den[0]},{values[0]}\n")
            stream.writelines(_pieces(_literals("%d/%d,%d/%d,%d\n", 5), [
                nums[:, :-1], dens[:, :-1], nums[:, 1:], dens[:, 1:], _digits(values[1:-1])]))
            stream.write(f"{num[-1]}/{den[-1]},1,{values[-1]}\n")
        else:
            stream.write(f"0,1,{values[0]}\n")
        stream.write("\nt,sigma\n")
        stream.writelines(_pieces(_literals("%d/%d,%d\n", 3), [nums, dens, _digits(at_points)]))

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
# key of GRIDS) and a checker (p, q, tol) -> (passed, expected, computed).
# Checkers resolve the kernels they call by module attribute at call time, so
# tracing wrappers and test doubles installed on those names are seen.  Tasks
# cross the process pool as (suite, p, q, tol) tuples and find their checker
# here.


def _coprime_pairs(p_max: int, q_max: int) -> list[tuple[int, int]]:
    return [
        (p, q)
        for p in range(2, min(p_max, q_max - 1) + 1)
        for q in range(p + 1, q_max + 1)
        if math.gcd(p, q) == 1
    ]


def _identity(report) -> tuple[bool, str, str]:
    return report.passed, str(report.expected), str(report.computed)


def _check_closed_forms(p: int, q: int, tol: float) -> tuple[bool, str, str]:
    """Both closed forms at p; a failure shows the first failing report."""
    bad = [r for r in check_closed_forms(p) if not r.passed]
    return _identity(bad[0]) if bad else (True, "", "")


def _check_oracle(p: int, q: int, tol: float) -> tuple[bool, str, str]:
    """Lattice against oracle step function; a failure shows the first midpoint that differs."""
    knot, pq = TorusKnot(p, q), p * q
    lattice, numeric = signature_step_function(knot), oracle.oracle_step_function(knot, tol=tol)
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
    "glm": ("all pairs", lambda p, q, tol: _identity(check_glm(p, q))),
    "even-periodicity": ("even p", lambda p, q, tol: _identity(check_even_periodicity(p, q))),
    "main": ("all pairs", lambda p, q, tol: _identity(check_main_recursion(p, q))),
    "odd-shift": ("odd p", lambda p, q, tol: _identity(check_odd_shift_identity(p, q))),
    "closed-forms": ("p alone", _check_closed_forms),
    "oracle": ("all pairs", _check_oracle),
    "brute-max": ("all pairs", _check_brute_max),
}


def _verify_task(task) -> tuple[bool, str, str]:
    """(passed, expected, computed) of one task; never raises (workers must return)."""
    suite, p, q, tol = task
    try:
        return SUITES[suite][1](p, q, tol)
    except TorsigError as exc:
        return False, "", f"error: {exc}"


def _verify_tasks(which, p_max, q_max, tol) -> list[tuple]:
    """Tasks in output order: by suite as listed in SUITES, then by (p, q)."""
    pairs = _coprime_pairs(p_max, q_max)
    return [
        (name, p, q, tol)
        for name, (grid, _) in SUITES.items()
        if name in which
        for p, q in GRIDS[grid](pairs, p_max)
    ]


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

    tasks = _verify_tasks(which, args.p_max, args.q_max, args.tol)
    if args.jobs > 1 and len(tasks) > 1:
        # Spawned workers default to one BLAS thread each; values the caller set win.
        unset = [v for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS") if v not in os.environ]
        os.environ.update(dict.fromkeys(unset, "1"))
        try:
            spawn = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(max_workers=args.jobs, mp_context=spawn) as pool:
                outcomes = list(pool.map(_verify_task, tasks, chunksize=8))
        finally:
            for name in unset:
                os.environ.pop(name, None)
    else:
        outcomes = [_verify_task(t) for t in tasks]

    failures = [
        {"suite": suite, "p": p, "q": q, "expected": expected, "computed": computed}
        for (suite, p, q, _), (passed, expected, computed) in zip(tasks, outcomes)
        if not passed
    ]
    checked = Counter(suite for suite, *_ in tasks)
    failed = Counter(f["suite"] for f in failures)
    counts = {
        name: {"checked": checked[name], "failed": failed[name]}
        for name in SUITES
        if name in which
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
