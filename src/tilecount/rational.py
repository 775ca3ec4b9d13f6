"""Exact rational arithmetic and prime-factored values.

Everything in this package computes with `fractions.Fraction`; floats never
enter any counting path.  This module adds the one representation the
standard library lacks: a nonzero rational written as

    unit * p1^e1 * p2^e2 * ...

over a declared list of primes, with whatever the primes do not absorb left
in the unit.  The closed-form counting theorems all produce answers of this
shape (powers of 2 and 5 for fortresses, of 3 for zigzags, and so on), and
keeping the factored form lets tests assert the *structure* of an answer,
not just its size.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Fraction
RationalLike = Union[Fraction, int, str]

_LOG10_2 = 0.30102999566398120


def _digit_count(n: int) -> int:
    """Decimal digits of ``abs(n)``, found without converting it to text."""
    n = abs(n)
    d = int(n.bit_length() * _LOG10_2) + 1  # the count, or one too many
    return d - 1 if d > 1 and n < 10 ** (d - 1) else d


def plain_str(x: RationalLike) -> str:
    """``str`` of a rational, or a short ``(N digits)`` note in its place.

    The note stands in when the numerator or the denominator has more
    digits than the interpreter turns into text
    (``sys.get_int_max_str_digits()``, 4300 by default); a fraction's note
    gives both counts, as ``(N/M digits)``.
    """
    x = Fraction(x)
    parts = (x.numerator,) if x.denominator == 1 else (x.numerator, x.denominator)
    digits = [_digit_count(p) for p in parts]
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and max(digits) > limit:
        sign = "-" if x < 0 else ""
        return f"{sign}({'/'.join(map(str, digits))} digits)"
    return str(x)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _check_primes(primes: Sequence[int]) -> None:
    seen = set()
    for p in primes:
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"not a prime: {p!r}")
        if p in seen:
            raise ValueError(f"repeated prime: {p}")
        seen.add(p)


@dataclass(frozen=True)
class FactoredValue:
    """A nonzero rational as ``unit * prod(p^e)`` over declared primes.

    ``powers`` is an ordered tuple of ``(prime, exponent)`` pairs; the order
    is the display order.  Exponents may be negative (the value need not be
    an integer) but never zero — zero-exponent pairs are dropped on
    construction so equal values factored over the same primes compare equal.
    """

    unit: Fraction
    powers: tuple[tuple[int, int], ...]

    def __init__(self, unit: RationalLike, powers: Iterable[tuple[int, int]] = ()):
        unit = Fraction(unit)
        if unit == 0:
            raise ValueError("unit must be nonzero")
        kept = []
        for p, e in powers:
            if not isinstance(e, int):
                raise ValueError(f"exponent must be an integer: {e!r}")
            if e != 0:
                kept.append((p, e))
        _check_primes([p for p, _ in kept])
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "powers", tuple(kept))

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.powers)

    def exponent(self, p: int) -> int:
        for q, e in self.powers:
            if q == p:
                return e
        return 0

    def value(self) -> Fraction:
        v = self.unit
        for p, e in self.powers:
            v *= Fraction(p) ** e
        return v

    def times(self, other: "FactoredValue") -> "FactoredValue":
        """Product, merging prime lists (self's order first, then new ones)."""
        exps = {p: e for p, e in self.powers}
        order = list(self.primes)
        for p, e in other.powers:
            if p in exps:
                exps[p] += e
            else:
                exps[p] = e
                order.append(p)
        return FactoredValue(
            self.unit * other.unit, [(p, exps[p]) for p in order]
        )

    def __str__(self) -> str:
        parts = []
        if self.unit != 1 or not self.powers:
            parts.append(plain_str(self.unit))
        for p, e in self.powers:
            parts.append(f"{p}^{e}")
        return " * ".join(parts)


def factorize(value: RationalLike, primes: Sequence[int]) -> FactoredValue:
    """Split a nonzero rational into powers of ``primes`` times a unit."""
    v = Fraction(value)
    if v == 0:
        raise ValueError("cannot factor zero")
    _check_primes(primes)
    num, den = v.numerator, v.denominator
    powers = []
    for p in primes:
        e = 0
        while num % p == 0:
            num //= p
            e += 1
        while den % p == 0:
            den //= p
            e -= 1
        powers.append((p, e))
    return FactoredValue(Fraction(num, den), powers)
