"""Domain types shared by every other module.

All types are immutable after construction and all arithmetic on them is
exact (arbitrary-precision integers and rationals, never floats).

Sign convention used throughout the package: positive torus knots have
positive signatures, e.g. sigma(T(2,3)) = +2 and sigma(T(4,7)) = +14.
A large part of the literature uses the negated convention; the numeric
oracle builds its Seifert matrices in this one with a fixed sign, which
tests pin (see `torsig.oracle`).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

__all__ = [
    "TorsigError",
    "NotCoprime",
    "InvalidParameter",
    "OutOfRange",
    "TorusKnot",
    "RationalAngle",
]

# Digits allowed in each integer read from text (the CLI and `RationalAngle.parse`):
# sigma < pq + 2p then prints in at most 4001, under Python's 4300-digit int/str limit.
_MAX_DIGITS = 2000
# Characters of an input that an error message echoes; past them it gives the length.
_ECHO_CHARS = 40


class TorsigError(Exception):
    """Base class for all errors raised by this package."""


class NotCoprime(TorsigError):
    """The two torus-knot parameters share a factor."""


class InvalidParameter(TorsigError):
    """An argument is outside the domain of the requested operation."""


class OutOfRange(TorsigError):
    """A rational angle falls outside the open interval (0, 1)."""


def _echo(value) -> str:
    """An input as an error message shows it, in at most about _ECHO_CHARS
    characters: an int by its digits, or by how many it has; anything else
    by its repr, or the start of it and the length of the input."""
    if _is_int(value):
        digits = str(abs(value))
        if len(digits) > _ECHO_CHARS:
            return f"{'-' * (value < 0)}<{len(digits)} digits>"
        return str(value)
    text = repr(value)
    if len(text) <= _ECHO_CHARS:
        return text
    return f"{text[:_ECHO_CHARS]}... ({len(value)} characters)"


def _is_int(x) -> bool:
    """Whether x is an int; bools are ints to Python but are refused here."""
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class TorusKnot:
    """Torus knot T(p, q), normalized so that p <= q.

    Construction swaps the arguments if p > q (T(p,q) and T(q,p) are the
    same knot) and rejects non-coprime pairs.  p = 1 is allowed and gives
    the unknot, for which every signature below is zero.
    """

    p: int
    q: int

    def __post_init__(self) -> None:
        p, q = self.p, self.q
        if not (_is_int(p) and _is_int(q)):
            raise InvalidParameter(f"p and q must be integers, got ({p!r}, {q!r})")
        if p < 1 or q < 1:
            raise InvalidParameter(f"p and q must be >= 1, got ({_echo(p)}, {_echo(q)})")
        if math.gcd(p, q) != 1:
            raise NotCoprime(f"p and q must be coprime, got ({_echo(p)}, {_echo(q)})")
        if p > q:
            p, q = q, p
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def is_unknot(self) -> bool:
        return self.p == 1

    def seifert_rank(self) -> int:
        """Rank of the first homology of the fiber surface, (p-1)(q-1)."""
        return (self.p - 1) * (self.q - 1)

    def __str__(self) -> str:
        return f"T({self.p},{self.q})"


@dataclass(frozen=True)
class RationalAngle:
    """Exact rational t in (0, 1) parameterizing w = e^{2*pi*i*t}.

    Stored in lowest terms.  t = 0 (w = 1) is excluded: the signature
    definition degenerates there.
    """

    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        n, d = self.numerator, self.denominator
        if not (_is_int(n) and _is_int(d)) or d <= 0:
            raise InvalidParameter(f"need integer n and d > 0, got ({n!r}, {d!r})")
        if not 0 < n < d:
            raise OutOfRange(f"t = {_echo(n)}/{_echo(d)} is outside the open interval (0, 1)")
        g = math.gcd(n, d)
        object.__setattr__(self, "numerator", n // g)
        object.__setattr__(self, "denominator", d // g)

    @classmethod
    def parse(cls, text: str) -> "RationalAngle":
        """Parse an exact "n/d" string of at most `_MAX_DIGITS` ASCII digits each.

        Decimals, signs, spaces, underscores and non-ASCII digits are rejected.
        """
        match = re.fullmatch(r"([0-9]+)/([0-9]+)", text)
        if match is None:
            raise InvalidParameter(f"angle must be written as n/d, got {_echo(text)}")
        if max(map(len, match.groups())) > _MAX_DIGITS:
            raise InvalidParameter(f"n and d in n/d may have at most {_MAX_DIGITS} digits each")
        return cls(int(match[1]), int(match[2]))

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"

