"""Seeded command lists for the benchmark workloads.

Each workload is a list of `torsig` argv lists.  The (p, q, t) of the
single-knot commands come from a `random.Random(seed)`; the program only
ever sees the generated argv.  The `verify` grids are fixed so that their
stdout can be compared against digests recorded for every seed.
"""

from __future__ import annotations

import math
import random

DEFAULT_SEED = 1
EXACT_SUITES = "glm,even-periodicity,main,odd-shift,closed-forms,brute-max"

# small-knots: every p, q stays at or below this.
SMALL_MAX = 100
SMALL_SINGLES = 120
# big-knots: the ladder of strand counts and the sweep sizes (p*q).
BIG_LADDER = (1_000, 10_000, 100_000, 1_000_000)
SWEEP_SIZES = ((30_000, "csv"), (30_000, "json"), (100_000, "json"), (300_000, "csv"))


def _coprime_q(rng: random.Random, p: int, lo: int, hi: int) -> int:
    while True:
        q = rng.randint(lo, hi)
        if math.gcd(p, q) == 1:
            return q


def _angle(rng: random.Random, max_den: int) -> str:
    b = rng.randint(2, max_den)
    return f"{rng.randint(1, b - 1)}/{b}"


def _verify_j1(rng: random.Random) -> list[list[str]]:
    return [["verify"]]


def _small_knots(rng: random.Random) -> list[list[str]]:
    commands = [
        ["table", "--p-max", "30", "--q-max", "100"],
        ["table", "--p-max", "16", "--q-max", "60", "--format", "json"],
        ["verify", "--which", EXACT_SUITES, "--p-max", "16", "--q-max", "60"],
    ]
    for i in range(SMALL_SINGLES):
        p = rng.randint(2, SMALL_MAX // 2 - 1)
        family = rng.random()
        if family < 0.15:
            q = p + 1
        elif family < 0.3:
            q = 2 * p + 1
        else:
            q = _coprime_q(rng, p, p + 1, SMALL_MAX)
        fmt = ["--format", "json"] if rng.random() < 0.25 else []
        if i % 2 == 0:
            t = rng.choice(("1/2", "1/3", _angle(rng, 1000), _angle(rng, 1000)))
            commands.append(["sig", "-p", str(p), "-q", str(q), "-t", t] + fmt)
        else:
            commands.append(["max", "-p", str(p), "-q", str(q)] + fmt)
    return commands


def _big_knots(rng: random.Random) -> list[list[str]]:
    # Sizes, and the magnitudes of the angle terms, move little between
    # seeds, so a seed changes which knots and angles are computed but
    # neither the work in a pass nor the order of the command latencies.
    commands = []
    for rung, size in enumerate(BIG_LADDER):
        p = rng.randint(size, size + size // 500)
        # max only on the two closed-form families, so every seed can be
        # checked exactly at any size.
        q_max = 2 * p + 1 if rung % 2 == 0 else p + 1
        commands.append(["max", "-p", str(p), "-q", str(q_max)])
        q = _coprime_q(rng, p, p + 1, 2 * p)
        big = f"{rng.randint(10_000, 19_999)}/{rng.randint(90_000, 99_999)}"
        for t in ("1/2", "1/3", big):
            commands.append(["sig", "-p", str(p), "-q", str(q), "-t", t])
    for pq, fmt in SWEEP_SIZES:
        # q is about 3p.
        p = round(math.sqrt(pq / 3)) + rng.randint(0, 2)
        q = _coprime_q(rng, p, pq // p, pq // p + 3)
        commands.append(["sweep", "-p", str(p), "-q", str(q), "--format", fmt])
    return commands


WORKLOADS = {
    "verify-j1": _verify_j1,
    "small-knots": _small_knots,
    "big-knots": _big_knots,
}


def build(workload: str, seed: int) -> list[list[str]]:
    """The argv lists of one pass of `workload` for `seed`."""
    return WORKLOADS[workload](random.Random(seed))
