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

A product of many small rational powers, such as the cell values of a
reduction raised to their multiplicities, is kept as a `PowerProduct`: the
sign times powers of pairwise-coprime integers.  Cancellation then happens
in the exponents, and the number is built once, with no gcd taken on it.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from typing import Iterable, Mapping, Sequence, Union

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


def frac_str(x: Fraction) -> str:
    """Exact ``num/den`` text of a rational, with the denominator always shown."""
    return f"{x.numerator}/{x.denominator}"


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
        # the primes are distinct, so only the unit can share a factor with
        # them; once they are divided out of it, all parts are coprime
        num, den = self.unit.numerator, self.unit.denominator
        powers = []
        for p, e in self.powers:
            while num % p == 0:
                num //= p
                e += 1
            while den % p == 0:
                den //= p
                e -= 1
            powers.append((p, e))
        powers += [(abs(num), 1), (den, -1)]
        return _coprime_value(1 if num > 0 else -1, powers)

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


#: The coprime base starts from these primes, so a number made of them
#: (as the named patterns' cell values are) is split by trial division alone.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _join(base: dict[int, int], x: int, e: int) -> None:
    """Multiply the product of ``base`` (pairwise-coprime ints > 1 mapped to
    exponents) by x^e, keeping the elements pairwise coprime.

    Each element is divided out of x as often as it goes, and an element
    that shares a factor with what is left is split on their gcd.  A split
    shrinks the product of the numbers in play, so the loop ends.
    """
    todo = [(x, e)]
    while todo:
        x, e = todo.pop()
        if e == 0:
            continue
        for b in base:
            while x % b == 0:
                x //= b
                base[b] += e
            g = gcd(x, b)
            if g > 1:  # b^f x^e == g^(e+f) (b/g)^f (x/g)^e
                f = base.pop(b)
                todo += [(g, e + f), (b // g, f), (x // g, e)]
                break
        else:
            if x > 1:
                base[x] = e


def _coprime_value(sign: int, powers) -> Fraction:
    """``sign * prod(b^e)`` over pairwise-coprime positive integers b."""
    num = prod(b**e for b, e in powers if e > 0)
    den = prod(b**-e for b, e in powers if e < 0)
    value = Fraction(sign * num)
    # num and den are coprime, so the value is already in lowest terms;
    # Fraction(num, den) would take their gcd, quadratic in their size.
    value._denominator = den
    return value


@dataclass(frozen=True)
class PowerProduct:
    """A nonzero rational as ``sign * prod(b^e)`` over pairwise-coprime
    integers b > 1, so that ``value()`` needs no gcd on the result."""

    sign: int
    powers: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, powers: Mapping[RationalLike, int]) -> "PowerProduct":
        """``prod(v^e)`` over the given nonzero rationals v."""
        sign, ints = 1, Counter()
        for v, e in powers.items():
            v = Fraction(v)
            if v == 0:
                raise ValueError("cannot take a power product of zero")
            if v < 0 and e % 2:
                sign = -sign
            ints[abs(v.numerator)] += e
            ints[v.denominator] -= e
        base = dict.fromkeys(_SMALL_PRIMES, 0)
        for x, e in sorted(ints.items()):  # small numbers first: cheap splits
            _join(base, x, e)
        return cls(sign, tuple((b, e) for b, e in base.items() if e))

    def value(self) -> Fraction:
        return _coprime_value(self.sign, self.powers)

    def factored(self, primes: Sequence[int]) -> FactoredValue:
        """The value over ``primes``, each base element divided out alone."""
        _check_primes(primes)
        exps = dict.fromkeys(primes, 0)
        rest = []
        for b, e in self.powers:
            for p in primes:
                while b % p == 0:
                    b //= p
                    exps[p] += e
            if b > 1:
                rest.append((b, e))  # divisors of coprime numbers stay coprime
        return FactoredValue(_coprime_value(self.sign, rest), exps.items())


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
