"""Output checks for the benchmark, run outside the timed region.

Every check recomputes the expected answer through a route that shares no
code with `torsig`: an O(pq) lattice count for small knots, a row-by-row
count for big ones, the Euclid-style floor sum for the classical signature,
a cumulative-sum step function, and the closed forms for T(p,p+1) and
T(p,2p+1).  `check_command` returns (items, failed items, reasons), where
an item is a verify check, a table row or a single-knot command.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import numpy as np

SUITES = ("glm", "even-periodicity", "main", "odd-shift", "closed-forms", "oracle", "brute-max")
BRUTE_FORCE_MAX_PQ = 400_000
INT64_SAFE = 1 << 62


# --------------------------------------------------------------------------
# independent exact routes


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} floor((a*i + b) / m) in O(log m) steps (a, b >= 0)."""
    total = 0
    while True:
        if a >= m:
            total += (n - 1) * n // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        y_max = a * n + b
        if y_max < m:
            return total
        n, b, m, a = y_max // m, y_max % m, a, m


def classical_signature(p: int, q: int) -> int:
    """(p-1)(q-1) - 4 * sum of floor(jq/2p) over 0 < j < p, j = p (mod 2)."""
    j0 = 2 - p % 2
    n = (p - 1 - j0) // 2 + 1 if p - 1 >= j0 else 0
    return (p - 1) * (q - 1) - 4 * floor_sum(n, 2 * p, 2 * q, j0 * q)


def lattice_signature(p: int, q: int, a: int, b: int) -> int:
    """sigma at t = a/b: 2 * #{0<i<p, 0<j<q : t < i/p + j/q < t+1} - (p-1)(q-1).

    Small knots are counted point by point; larger ones row by row (one
    open interval of i per row j), which is the transpose of the order the
    program counts in.
    """
    rank = (p - 1) * (q - 1)
    pq = p * q
    if pq <= BRUTE_FORCE_MAX_PQ and (p + q) * pq * b < INT64_SAFE:
        i = np.arange(1, p, dtype=np.int64)[:, None]
        j = np.arange(1, q, dtype=np.int64)[None, :]
        norm = (i * q + j * p) * b
        inside = int(np.count_nonzero((norm > a * pq) & (norm < (a + b) * pq)))
        return 2 * inside - rank
    den = b * q
    if 4 * p * q * b >= INT64_SAFE:
        raise ValueError(f"T({p},{q}) at t = {a}/{b} is too large to count in int64")
    # Row j admits the i with p(t - j/q) < i < p(t + 1 - j/q).
    j = np.arange(1, q, dtype=np.int64)
    n1 = p * (a * q - j * b)
    lo = np.maximum(n1 // den + 1, 1)
    hi = np.minimum((n1 + p * den - 1) // den, p - 1)
    return 2 * int(np.clip(hi - lo + 1, 0, None).sum()) - rank


def step_function(p: int, q: int):
    """(breakpoint numerators k of k/pq, interval values, breakpoint values).

    Norms n = iq + jp are histogrammed once; the open interval (k, k+1)/pq
    sees the norms in [k+1, k+pq], the point k/pq those in [k+1, k+pq-1].
    A breakpoint is a candidate where the value is not constant.
    """
    pq, rank = p * q, (p - 1) * (q - 1)
    i = np.arange(1, p, dtype=np.int64)[:, None]
    j = np.arange(1, q, dtype=np.int64)[None, :]
    counts = np.bincount((i * q + j * p).ravel(), minlength=2 * pq + 1)
    below = np.concatenate(([0], np.cumsum(counts)))  # below[x] = #norms < x
    k = np.arange(pq, dtype=np.int64)
    interval = 2 * (below[k + pq + 1] - below[k + 1]) - rank
    point = 2 * (below[k + pq] - below[k + 1]) - rank
    jumps = np.flatnonzero((point[1:] != interval[:-1]) | (point[1:] != interval[1:])) + 1
    return jumps, np.concatenate((interval[:1], interval[jumps])), point[jumps]


def max_signature(p: int, q: int) -> int:
    """Peak of the signature function: brute force when small, closed forms else."""
    if p * q <= BRUTE_FORCE_MAX_PQ:
        _, interval, point = step_function(p, q)
        return int(max(interval.max(), point.max(initial=interval.max())))
    if q == 2 * p + 1:
        return p * p + p - 2
    if q == p + 1:
        return classical_signature(p, q) + (p - 2 if p % 2 == 0 else 0)
    raise ValueError(f"no independent route to max_signature of T({p},{q})")


def distance_profile(p: int, q: int):
    """Column indices j, k with D_j and d_k, as congruences, in numpy."""
    j = np.arange(-p + 2, 0, 2, dtype=np.int64)
    big_d = (-j * q) % (2 * p)
    k = np.arange(2 - p % 2, p, 2, dtype=np.int64)
    small_d = 2 * p - big_d[::-1] if len(k) else big_d[:0]
    return j, big_d, k, small_d


def balanced_sequence(big_d, small_d):
    values = np.concatenate((big_d, small_d))
    signs = np.concatenate((np.ones(len(big_d), np.int64), -np.ones(len(small_d), np.int64)))
    return signs[np.argsort(values, kind="stable")]


def expected_max(p: int, q: int) -> dict:
    j, big_d, k, small_d = distance_profile(p, q)
    seq = balanced_sequence(big_d, small_d)
    m = int(max(0, np.cumsum(seq).max(initial=0)))
    sigma, sigma_hat = classical_signature(p, q), max_signature(p, q)
    return {"sigma": sigma, "j": j, "D": big_d, "k": k, "d": small_d, "sequence": seq,
            "M": m, "sigma_hat": sigma_hat, "g4_lb": (sigma_hat + 1) // 2}


# --------------------------------------------------------------------------
# command checks


def _knot(argv):
    p, q = int(argv[argv.index("-p") + 1]), int(argv[argv.index("-q") + 1])
    return min(p, q), max(p, q)


def _flag(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv else default


def _is_json(argv) -> bool:
    return _flag(argv, "--format", "text") == "json"


def _check_sig(argv, out):
    p, q = _knot(argv)
    t = Fraction(_flag(argv, "-t", None))
    sigma = lattice_signature(p, q, t.numerator, t.denominator)
    if t == Fraction(1, 2) and sigma != classical_signature(p, q):
        return [f"lattice count {sigma} != floor sum {classical_signature(p, q)}"]
    if _is_json(argv):
        want = {"schema_version": "1", "p": p, "q": q, "t": str(t), "sigma": sigma}
        return [] if json.loads(out) == want else [f"want {want}"]
    return [] if out == f"sigma={sigma}\n" else [f"want sigma={sigma}"]


def _sequence_str(seq) -> str:
    return "(" + ",".join(np.where(seq > 0, "+1", "-1").tolist()) + ")"


def _check_max(argv, out):
    p, q = _knot(argv)
    e = expected_max(p, q)
    if _is_json(argv):
        want = {
            "schema_version": "1", "p": p, "q": q, "sigma": e["sigma"],
            "D": {str(a): int(b) for a, b in zip(e["j"].tolist(), e["D"].tolist())},
            "d": {str(a): int(b) for a, b in zip(e["k"].tolist(), e["d"].tolist())},
            "sequence": e["sequence"].tolist(), "M": e["M"],
            "sigma_hat": e["sigma_hat"], "g4_lb": e["g4_lb"],
        }
        return [] if json.loads(out) == want else ["json document differs"]
    lines = [f"knot=T({p},{q})", f"sigma={e['sigma']}"]
    if len(e["j"]):
        lines.append(" ".join(f"D[{a}]={b}" for a, b in zip(e["j"].tolist(), e["D"].tolist())))
        lines.append(" ".join(f"d[{a}]={b}" for a, b in zip(e["k"].tolist(), e["d"].tolist())))
    lines += [f"sequence={_sequence_str(e['sequence'])}", f"M={e['M']}",
              f"sigma_hat={e['sigma_hat']}", f"g4_lb={e['g4_lb']}"]
    want = "\n".join(lines) + "\n"
    if out == want:
        return []
    got = out.splitlines()
    bad = next((i for i, (a, b) in enumerate(zip(got, lines)) if a != b), min(len(got), len(lines)))
    return [f"line {bad + 1} differs"]


def _fraction_strs(num, den: int) -> list[str]:
    g = np.gcd(num, den)
    return [f"{a}/{b}" for a, b in zip((num // g).tolist(), (den // g).tolist())]


def _check_sweep(argv, out):
    p, q = _knot(argv)
    pq = p * q
    jumps, interval, point = step_function(p, q)
    points = _fraction_strs(jumps, pq)
    if _is_json(argv):
        want = {"schema_version": "1", "p": p, "q": q, "breakpoints": points,
                "interval_values": interval.tolist(), "breakpoint_values": point.tolist()}
        return [] if json.loads(out) == want else ["json document differs"]
    bounds = ["0"] + points + ["1"]
    rows = ["t_lo,t_hi,sigma"]
    rows += [f"{lo},{hi},{v}" for lo, hi, v in zip(bounds, bounds[1:], interval.tolist())]
    rows += ["", "t,sigma"] + [f"{t},{v}" for t, v in zip(points, point.tolist())]
    return [] if out == "\n".join(rows) + "\n" else ["csv differs"]


def coprime_pairs(p_max: int, q_max: int):
    return [(p, q) for p in range(2, p_max + 1) for q in range(p + 1, q_max + 1)
            if math.gcd(p, q) == 1]


def _table_pairs(argv):
    return coprime_pairs(int(_flag(argv, "--p-max", 10)), int(_flag(argv, "--q-max", 20)))


def _verify_counts(argv) -> dict[str, int]:
    """Checks each selected suite must report, from the grid alone."""
    p_max, q_max = int(_flag(argv, "--p-max", 10)), int(_flag(argv, "--q-max", 25))
    which = _flag(argv, "--which", ",".join(SUITES)).split(",")
    pairs = coprime_pairs(p_max, q_max)
    special = {
        "closed-forms": p_max - 1,
        "even-periodicity": sum(1 for p, _ in pairs if p % 2 == 0),
        "odd-shift": sum(1 for p, _ in pairs if p % 2 == 1),
    }
    return {s: special.get(s, len(pairs)) for s in SUITES if s in which}


def count_items(argv) -> int:
    """Items one command contributes: verify checks, table rows, or 1."""
    if argv[0] == "verify":
        return sum(_verify_counts(argv).values())
    if argv[0] == "table":
        return len(_table_pairs(argv))
    return 1


def _check_table(argv, out):
    want = []
    for p, q in _table_pairs(argv):
        sigma, sigma_hat = classical_signature(p, q), max_signature(p, q)
        want.append({"p": p, "q": q, "sigma": sigma, "M": (sigma_hat - sigma) // 2,
                     "sigma_hat": sigma_hat, "g4_lb": (sigma_hat + 1) // 2})
    if _flag(argv, "--format", "csv") == "json":
        doc = json.loads(out)
        got = doc["rows"] if doc["schema_version"] == "1" else []
    else:
        header, *lines, last = out.split("\n")
        keys = "p,q,sigma,M,sigma_hat,g4_lb".split(",")
        ok = header == ",".join(keys) and last == ""
        got = [dict(zip(keys, map(int, line.split(",")))) for line in lines] if ok else []
    failed = sum(1 for i, row in enumerate(want) if i >= len(got) or got[i] != row)
    failed += max(0, len(got) - len(want))
    return failed, [f"{failed} of {len(want)} rows wrong"] if failed else []


def _check_verify(argv, out):
    counts = _verify_counts(argv)
    want = [f"suite={s} checked={n} failed=0" for s, n in counts.items()] + ["result=PASS"]
    if out.splitlines() == want:
        return 0, []
    # Count what the program itself reports as failed; a malformed report
    # fails every check.
    reported = [int(m.group(1))
                for m in re.finditer(r"^suite=\S+ checked=\d+ failed=(\d+)$", out, re.M)]
    failed = sum(reported) if len(reported) == len(counts) and any(reported) else sum(counts.values())
    return failed, [f"verify output differs ({failed} failed)"]


def _single(check):
    def run(argv, out):
        reasons = check(argv, out)
        return (1 if reasons else 0), reasons
    return run


CHECKS = {
    "sig": _single(_check_sig),
    "max": _single(_check_max),
    "sweep": _single(_check_sweep),
    "table": _check_table,
    "verify": _check_verify,
}


def check_command(argv, code, out, err):
    """(items, failed items, reasons) for one command's exit code and output."""
    items = count_items(argv)
    try:
        failed, reasons = CHECKS[argv[0]](argv, out)
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        failed, reasons = items, [f"unreadable output: {exc!r}"]
    if code != 0 or err:
        failed, reasons = items, [f"exit {code}: {err.strip()[:200]}"] + reasons
    return items, min(failed, items), reasons
