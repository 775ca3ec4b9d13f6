"""Closed-form tiling counts and the cross-checks that keep them honest.

Every count in this module admits two independent computation routes: a
closed product formula in the region parameters, and a reduction route —
a known prefactor times the diamond value of a fixed weight pattern,
computed by :func:`tilecount.aztec.evaluate`.  Each route-checked family
declares that route once, as a ``*_route`` function (`fortress_route`,
`zigzag_route`, `s_region_route`, `q_route`, `tri_route`).  The functions
returning a :class:`~tilecount.rational.FactoredValue` re-derive the
reduction route on every call while the order is small and raise
:class:`RouteMismatchError` if the two answers disagree.  Such a mismatch
can only mean an implementation fault, never bad input, which is why it
is not a ``ValueError``.

The plain-``Rational`` functions (`weighted_rows_formula`,
`fortress_pattern_formula`, `abcd_formula`, `blockC_formula`,
`n_pattern_value`, `zig_recurrence`) are product formulas for diamond
values of structured patterns; they are the building blocks the counting
formulas reduce to, and the verification suites replay each of them
against the reduction engine directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Callable, Literal, Optional, Sequence, Union

from .aztec import evaluate
from .patterns import (
    composition_bands,
    q_pattern,
    s_family_pattern,
    tri_pattern,
    zig,
)
from .rational import FactoredValue, Rational, RationalLike

__all__ = [
    "Composition",
    "FortressVariant",
    "ROUTE_CHECK_LIMIT",
    "RouteMismatchError",
    "abcd_formula",
    "blockC_formula",
    "blum_recurrence_check",
    "blum_value",
    "fortress_count",
    "fortress_gen_fn",
    "fortress_pattern_formula",
    "fortress_prefactor",
    "fortress_route",
    "n_pattern_value",
    "q_count",
    "q_route",
    "s_region_count",
    "s_region_route",
    "tri_count",
    "tri_route",
    "weighted_rows_formula",
    "yang_fortress",
    "zig_recurrence",
    "zigzag_count",
    "zigzag_route",
]

HALF = Fraction(1, 2)

#: Diamond order up to which FactoredValue-returning functions re-derive
#: their reduction route on every call.  The route reduces the family's
#: weight pattern, O(n k l) exact operations on entries that grow with the
#: order, a few milliseconds at this limit against microseconds for the
#: closed product; the limit keeps the default-on check cheap while still
#: exercising it on every order a human would ever type.
ROUTE_CHECK_LIMIT = 24


class RouteMismatchError(RuntimeError):
    """Two independent routes to the same count disagreed.

    Raised by the closed-form functions when the re-derived reduction
    route does not reproduce the closed product.  This is an internal
    consistency failure, not a user error.
    """


def _route_assert(name: str, closed: Fraction, routed: Fraction) -> None:
    if closed != routed:
        raise RouteMismatchError(
            f"{name}: closed form {closed} != reduction route {routed}"
        )


def _checked(name: str, value: FactoredValue, order: int, check: Optional[bool],
             route: Callable[[], Fraction]) -> FactoredValue:
    """Return ``value`` after comparing it with ``route()``, if ``check`` says
    so; by default when the route's diamond ``order`` is at most the limit."""
    if check is None:
        check = order <= ROUTE_CHECK_LIMIT
    if check:
        routed = route()
        _route_assert(name, value.value(), routed)
    return value


# --------------------------------------------------------------------------
# column compositions


FortressVariant = Literal["plain", "bar"]


def _is_bar(variant: str) -> bool:
    if variant not in ("plain", "bar"):
        raise ValueError(f"variant must be 'plain' or 'bar', got {variant!r}")
    return variant == "bar"


@dataclass(frozen=True)
class Composition:
    """An ordered tuple of positive band widths d_1, ..., d_m.

    The bands partition the columns 1..n of an order-n region into runs
    of alternating type.  Everything a counting formula needs is derived
    on the fly from ``parts``:

      * ``n`` — total width, sum of the parts;
      * ``partial_sums`` — the boundaries s_j = d_1 + ... + d_j;
      * ``S`` — sum over boundaries of min(s_j, n - s_j), the total
        depth at which the band boundaries cut into the region;
      * ``theta`` — total width of the odd-indexed bands.
    """

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = tuple(int(d) for d in self.parts)
        if not parts or any(d < 1 for d in parts):
            raise ValueError("parts must be a non-empty tuple of positive integers")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def partial_sums(self) -> tuple[int, ...]:
        sums, total = [], 0
        for d in self.parts:
            total += d
            sums.append(total)
        return tuple(sums)

    @property
    def S(self) -> int:
        n = self.n
        return sum(min(s, n - s) for s in self.partial_sums)

    @property
    def theta(self) -> int:
        return sum(self.parts[0::2])

    def center_in_odd_band(self) -> bool:
        """Whether column (n+1)/2 lies in an odd-indexed band (odd n only)."""
        n = self.n
        if n % 2 == 0:
            raise ValueError("the center column is defined for odd order only")
        center = (n + 1) // 2
        for j, s in enumerate(self.partial_sums, start=1):
            if center <= s:
                return j % 2 == 1
        raise AssertionError("unreachable: center exceeds total width")


CompositionLike = Union["Composition", Sequence[int]]


def _composition(parts: CompositionLike) -> Composition:
    if isinstance(parts, Composition):
        return parts
    return Composition(tuple(parts))


# --------------------------------------------------------------------------
# fortresses


def fortress_prefactor(parts: CompositionLike, variant: FortressVariant = "plain") -> FactoredValue:
    """Power of two relating the fortress tiling count to its band pattern.

    T(fortress) equals this prefactor times the diamond value of
    ``composition_bands(parts, 1/2, 1, bar)`` at the fortress order: the
    exponent counts the city cells absorbed while contracting the
    fortress dual graph onto the diamond graph, each contributing a
    factor 2.
    """
    comp = _composition(parts)
    bar = _is_bar(variant)
    n = comp.n
    if n % 2 == 0:
        e = n * n // 2
    else:
        theta = comp.theta
        e = n * (n - 1) // 2 + (n - theta if bar else theta)
    return FactoredValue(1, [(2, e)])


def fortress_pattern_formula(a: RationalLike, b: RationalLike, parts: CompositionLike) -> Rational:
    """Closed product for the banded-pattern diamond value.

    Equals ``evaluate(composition_bands(parts, a, b), n)`` where n is the
    total width of the composition; the complementary pattern is obtained
    by swapping ``a`` and ``b``.
    """
    comp = _composition(parts)
    a, b = Fraction(a), Fraction(b)
    n, S = comp.n, comp.S
    k = n // 2
    if n % 2 == 0:
        return (2 * a * b) ** (k * (2 * k + 1) - S) * (a * a + b * b) ** S
    theta = comp.theta
    beta = a if comp.center_in_odd_band() else b
    return (
        beta
        * Fraction(2) ** ((2 * k + 1) * (k + 1) - S)
        * a ** (2 * k * (k + 1) + theta - S)
        * b ** (2 * k * (k + 1) + (2 * k + 1) - theta - S)
        * (a * a + b * b) ** S
    )


def fortress_count(
    parts: CompositionLike,
    variant: FortressVariant = "plain",
    check: Optional[bool] = None,
) -> FactoredValue:
    """Number of tilings of the fortress with the given band widths.

    Always of the form 2^e * 5^S where S depends only on where the band
    boundaries fall and e additionally on whether the center column sits
    in an odd band.  The two complementary variants of odd order split
    the total power of 2 between them; at even order they agree.
    """
    comp = _composition(parts)
    bar = _is_bar(variant)
    n, S = comp.n, comp.S
    k = n // 2
    if n % 2 == 0:
        e2 = 2 * k * k - 2 * S
    else:
        alpha = k * (2 * k + 2) - 2 * S
        if not comp.center_in_odd_band():
            alpha += 1
        e2 = n * n - 4 * S - alpha if bar else alpha
    value = FactoredValue(1, [(2, e2), (5, S)])
    return _checked(
        f"fortress_count({comp.parts}, {variant})", value, n, check,
        lambda: fortress_route(comp, variant),
    )


def fortress_route(parts: CompositionLike, variant: FortressVariant = "plain") -> Fraction:
    """Reduction route to `fortress_count`: prefactor times band-pattern value."""
    comp = _composition(parts)
    pattern = composition_bands(comp.parts, HALF, 1, bar=_is_bar(variant))
    return fortress_prefactor(comp, variant).value() * evaluate(pattern, comp.n)


def yang_fortress(n: int) -> FactoredValue:
    """Number of tilings of the order-n fortress with all bands of width 1.

    A power of five, doubled when n is 3 mod 4.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if n % 2 == 0:
        k = n // 2
        return FactoredValue(1, [(5, k * k)])
    if n % 4 == 1:
        k = (n - 1) // 4
        return FactoredValue(1, [(5, 2 * k * (2 * k + 1))])
    k = (n + 1) // 4
    return FactoredValue(2, [(5, 2 * k * (2 * k - 1))])


def fortress_gen_fn(parts: CompositionLike, a: RationalLike, b: RationalLike) -> Rational:
    """Matching generating function of the reweighted fortress dual graph.

    The weighting assigns 1/(2a) to every city diamond edge, 1 to the
    pendant edges joining cities to the rest of the graph, and ``b`` to
    every remaining edge.  Absorbing the cities then costs (2 (1/(2a))^2)
    per city cell, which telescopes against the banded-pattern value:
    the result is (1/(2a^2))^C times the pattern formula, with C the
    plain-variant prefactor exponent.
    """
    comp = _composition(parts)
    a = Fraction(a)
    c_exp = fortress_prefactor(comp).exponent(2)
    return (1 / (2 * a * a)) ** c_exp * fortress_pattern_formula(a, b, comp)


# --------------------------------------------------------------------------
# four-row and block patterns


def _vectors(n: Optional[int], *vecs) -> tuple[list[Fraction], ...]:
    out = tuple([Fraction(v) for v in vec] for vec in vecs)
    length = n if n is not None else len(out[0])
    if any(len(vec) != length for vec in out):
        raise ValueError(f"expected parameter vectors of length {length}")
    return out


def weighted_rows_formula(a, b, c, d, n: Optional[int] = None) -> Rational:
    """Diamond value of the four-row pattern with column weights a, b, c, d.

    Equals ``evaluate(four_row(a, b, c, d), n)`` for vectors of length n.
    The product pairs each leading column with its mirror column and
    collects one cross term d_i a_{i+1} + b_i c_{i+1} for every cell on
    which two neighbouring column pairs meet.
    """
    a, b, c, d = _vectors(n, a, b, c, d)
    n = len(a)
    # 1-indexed views keep the products readable.
    A = lambda i: a[i - 1]
    B = lambda i: b[i - 1]
    C = lambda i: c[i - 1]
    D = lambda i: d[i - 1]
    k = n // 2
    cross = prod(
        (
            D(i) * A(i + 1) + B(i) * C(i + 1)
            for j in range(1, k + 1)
            for i in range(j, n - j + 1)
        ),
        start=Fraction(1),
    )
    if n % 2 == 0:
        head = Fraction(2) ** (k * (k + 1))
        diag = prod(
            (A(i) * B(n - i + 1) * C(i) * D(n - i + 1)) ** (k - i + 1)
            for i in range(1, k + 1)
        )
    else:
        head = Fraction(2) ** ((k + 1) ** 2)
        diag = prod(
            (A(i) * B(n - i + 1)) ** (k - i + 2) * (C(i) * D(n - i + 1)) ** (k - i + 1)
            for i in range(1, k + 2)
        )
    return head * diag * cross


def abcd_formula(a: RationalLike, b: RationalLike, c: RationalLike, d: RationalLike, n: int) -> Rational:
    """Diamond value of the two-by-two-periodic pattern quad(a, b, c, d).

    Equals ``evaluate(quad(a, b, c, d), n)``: a monomial in
    P = ab (c^2 + d^2)^2 + cd (a^2 + b^2)^2 and Q = ab + cd, with one
    stray factor a^2 + b^2 when n is 1 mod 4.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    a, b, c, d = (Fraction(v) for v in (a, b, c, d))
    P = a * b * (c * c + d * d) ** 2 + c * d * (a * a + b * b) ** 2
    Q = a * b + c * d
    k, r = divmod(n, 4)
    if r == 0:
        return P ** (k * (2 * k + 1)) * Q ** (k * (2 * k - 1))
    if r == 1:
        return (a * a + b * b) * P ** (k * (2 * k + 2)) * Q ** (2 * k * k)
    if r == 2:
        return P ** (k * (2 * k + 3) + 1) * Q ** (k * (2 * k + 1))
    return P ** (k * (2 * k + 4) + 2) * Q ** (k * (2 * k + 2))


def blockC_formula(a, b, c, d, n: Optional[int] = None) -> Rational:
    """Diamond value of the doubled-blocks pattern on four weight vectors.

    Equals ``evaluate(doubled_blocks(a, b, c, d), n)`` for vectors of
    length n, written in terms of the per-column values
    D_i = a_i c_i + b_i d_i.  Every banded fortress pattern and the
    octagon pattern arise from this one by specializing the vectors, so
    this is the common ancestor of those product formulas.
    """
    a, b, c, d = _vectors(n, a, b, c, d)
    n = len(a)
    A = lambda i: a[i - 1]
    B = lambda i: b[i - 1]
    C = lambda i: c[i - 1]
    D = lambda i: d[i - 1]
    delta = [ai * ci + bi * di for ai, bi, ci, di in zip(a, b, c, d)]
    Dl = lambda i: delta[i - 1]
    if any(v == 0 for v in delta):
        raise ValueError("degenerate column: a_i c_i + b_i d_i == 0")
    if n % 2 == 0:
        k = n // 2
        head = prod(
            A(i) ** (k - i + 1)
            * B(2 * k + 1 - i) ** (k + 1 - i)
            * C(2 * k + 1 - i) ** (k - i)
            * D(i) ** (k - i)
            for i in range(1, k + 1)
        )
        head *= prod(Dl(i) ** -k for i in range(1, 2 * k + 1))
        head *= prod((Dl(i) + Dl(i + 1)) ** i for i in range(1, k))
        head *= prod((Dl(2 * k - i) + Dl(2 * k - i + 1)) ** i for i in range(1, k + 1))
        return head
    k = n // 2
    head = prod(
        A(i) ** (k - i + 1)
        * B(2 * k + 2 - i) ** (k + 1 - i)
        * C(2 * k + 2 - i) ** (k + 1 - i)
        * D(i) ** (k + 1 - i)
        for i in range(1, k + 2)
    )
    head *= Dl(k + 1)
    # the center column's value divides out of every cell it touches,
    # so the balancing product runs over all 2k+1 columns
    head *= prod(Dl(i) ** -k for i in range(1, 2 * k + 2))
    head *= prod((Dl(i) + Dl(i + 1)) ** i for i in range(1, k + 1))
    head *= prod((Dl(2 * k + 1 - i) + Dl(2 * k + 2 - i)) ** i for i in range(1, k + 1))
    return head


def n_pattern_value(a, b, c, d, x, y, z, t, m: int) -> Rational:
    """Diamond value of the interlocking two-quadruple pattern at order m.

    Equals ``evaluate(eight_column(a, b, c, d, x, y, z, t), m)``.
    Computed from eight base orders and a step-8 recurrence whose ratio
    depends on m mod 4; all the structure lives in the invariants
    D1 = ac + bd, D2 = xz + yt, D0 = D1 + D2 and the mixed forms
    C1 = xt D1^2 + ad D2^2, C2 = yz D1^2 + bc D2^2, C3 = ac D2^2 + yt D1^2.
    """
    if m < 0:
        raise ValueError("order must be nonnegative")
    a, b, c, d, x, y, z, t = (Fraction(v) for v in (a, b, c, d, x, y, z, t))
    d1 = a * c + b * d
    d2 = x * z + y * t
    d0 = d1 + d2
    c1 = x * t * d1 ** 2 + a * d * d2 ** 2
    c2 = y * z * d1 ** 2 + b * c * d2 ** 2
    c3 = a * c * d2 ** 2 + y * t * d1 ** 2
    base = (
        Fraction(1),
        d1,
        c3,
        a * d * d0 * d2 * c1,
        a * d * x * t * d0 ** 2 * c1 ** 2,
        a * b * c * d * x * t * d0 ** 3 * c1 ** 2 * c2,
        a * b * c * d * x * y * z * t * d0 ** 4 * (b * d + x * z) * c1 ** 2 * c2 ** 2,
        a ** 2 * b * c * d ** 2 * x ** 2 * y * z * t ** 2
        * d0 ** 6 * (a * d + x * t) * c1 ** 3 * c2 ** 2,
    )

    def step(mm: int) -> Fraction:
        q, r = divmod(mm, 4)
        if r == 0:
            return (
                d0 ** (8 * q - 8)
                * (a * d + x * t) ** (2 * q - 2)
                * (b * c + y * z) ** (2 * q - 4)
                * c1 ** (2 * q) * c2 ** (2 * q - 2)
                * (a * d * x * t) ** (2 * q - 1)
                * (b * c * y * z) ** (2 * q - 3)
            )
        if r == 1:
            return (
                d0 ** (8 * q - 6)
                * (a * d + x * t) ** (2 * q - 2)
                * (b * c + y * z) ** (2 * q - 3)
                * c1 ** (2 * q) * c2 ** (2 * q - 1)
                * (a * d * x * t) ** (2 * q - 1)
                * (b * c * y * z) ** (2 * q - 2)
            )
        if r == 2:
            return (
                d0 ** (8 * q - 4)
                * (a * d + x * t) ** (2 * q - 2)
                * (b * c + y * z) ** (2 * q - 2)
                * c1 ** (2 * q) * c2 ** (2 * q)
                * (a * b * c * d * x * y * z * t) ** (2 * q - 1)
            )
        return (
            d0 ** (8 * q - 2)
            * (a * d + x * t) ** (2 * q - 1)
            * (b * c + y * z) ** (2 * q - 2)
            * c1 ** (2 * q + 1) * c2 ** (2 * q)
            * (a * d * x * t) ** (2 * q)
            * (b * c * y * z) ** (2 * q - 1)
        )

    value = Fraction(1)
    while m >= 8:
        value *= step(m)
        m -= 8
    return value * base[m]


# --------------------------------------------------------------------------
# zigzag strips


# exponent tables for the three-step recurrence, indexed by n mod 4:
# x_n multiplies the majority weight, y_n the minority one, both offset
# from 8 * (n // 4); z_n = 2n - 3 counts the mixed factors.
_ZIG_X = (-1, 2, 4, 5)
_ZIG_Y = (-2, -1, 1, 4)


def zig_recurrence(
    a: RationalLike, b: RationalLike, n: int, variant: FortressVariant = "plain"
) -> Rational:
    """Diamond value of the zigzag pattern, by the three-step recurrence.

    Computes ``evaluate(zig(a, b), n)`` (or of ``zig(b, a)`` for the bar
    variant) without reducing the full diamond: each step strips a factor
    2^n a^x b^y (a+b)^(2n-3) and lands on the complementary pattern three
    orders down, so only the base orders 0..2 are evaluated directly.
    """
    a, b = Fraction(a), Fraction(b)
    bar = _is_bar(variant)
    if n < 0:
        raise ValueError("order must be nonnegative")
    if n <= 2:
        return evaluate(zig(b, a) if bar else zig(a, b), n)
    k, r = divmod(n, 4)
    ex = 8 * k + _ZIG_X[r]
    ey = 8 * k + _ZIG_Y[r]
    head = Fraction(2) ** n * (a + b) ** (2 * n - 3)
    head *= a ** ey * b ** ex if bar else a ** ex * b ** ey
    return head * zig_recurrence(a, b, n - 3, "bar" if not bar else "plain")


def _zig_gamma(n: int, bar: bool) -> int:
    """Exponent of 2 relating the zigzag strip count to its pattern value."""
    k, r = divmod(n, 4)
    tail = (0, 4 * k, 8 * k + 1, 12 * k + 4) if bar else (0, 4 * k + 1, 8 * k + 3, 12 * k + 5)
    return 8 * k * k + tail[r]


_Z_UNIT = (1, 1, 1, 1, 2, 2, 1, 1, 1, 1, 2, 2)
_Z_LIN = (0, 8, 16, 24, 32, 40, 48, 56, 64, 72, 80, 88)
_Z_CONST = (0, 0, 1, 3, 5, 8, 12, 16, 21, 27, 33, 40)


def _zig_closed(n: int, bar: bool) -> tuple[int, int]:
    """(unit, exponent of 3) for the zigzag strip count of order n."""
    m, r = divmod(n, 12)
    unit = _Z_UNIT[r]
    e = 48 * m * m + _Z_LIN[r] * m + _Z_CONST[r]
    if bar and n % 3 != 0:
        # the two reflected variants differ by a single factor of 2,
        # gained below the midpoint of each period and repaid above it
        unit = unit * 2 if n % 6 in (1, 2) else unit // 2
    return unit, e


def zigzag_count(n: int, variant: FortressVariant = "plain", check: Optional[bool] = None) -> FactoredValue:
    """Number of tilings of the order-n zigzag strip region.

    Always 3^e or 2 * 3^e.  The reflected (bar) variant agrees at orders
    divisible by 3 and differs by exactly one factor of 2 otherwise.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    bar = _is_bar(variant)
    unit, e = _zig_closed(n, bar)
    value = FactoredValue(unit, [(3, e)])
    return _checked(
        f"zigzag_count({n}, {variant})", value, n, check, lambda: zigzag_route(n, variant)
    )


def zigzag_route(n: int, variant: FortressVariant = "plain") -> Fraction:
    """Reduction route to `zigzag_count`: a power of 2 times the zig value."""
    bar = _is_bar(variant)
    pattern = zig(1, HALF) if bar else zig(HALF, 1)
    return Fraction(2) ** _zig_gamma(n, bar) * evaluate(pattern, n)


# --------------------------------------------------------------------------
# brick chain


def _brick_to_zigzag(n: int) -> tuple[int, FortressVariant]:
    """Map a brick-chain index to the zigzag strip with the same count.

    The chain is constant on runs of four consecutive indices (one run
    per residue class 3 mod 5), and each run's value is a zigzag strip
    count; which strip depends on the index mod 10.
    """
    if n < 1:
        raise ValueError("index must be >= 1")
    if n % 5 == 2:
        if n % 10 == 2:
            return 4 * ((n - 2) // 10) + 1, "bar"
        return 4 * ((n - 7) // 10) + 3, "plain"
    shift = {3: 0, 4: 1, 0: 2, 1: 3}[n % 5]
    r = n - shift
    if r % 10 == 3:
        return 4 * ((r - 3) // 10) + 2, "bar"
    return 4 * ((r + 2) // 10), "plain"


def blum_value(n: int, check: Optional[bool] = None) -> FactoredValue:
    """Number of perfect matchings of the n-th graph in the 2-3 brick chain.

    Always 3^e or 2 * 3^e; successive values repeat in plateaus of
    length four.
    """
    order, variant = _brick_to_zigzag(n)
    return zigzag_count(order, variant, check)


def blum_recurrence_check(n: int) -> bool:
    """Whether the brick chain satisfies its step-30 power-of-3 recurrence.

    For n >= 31 the chain obeys value(n) = 3^(4x) * value(n - 30) with
    x determined by j = ((n-1) mod 5) + 1 and k = (n-j)/5: x = 4k - 12
    when j = 1, 4k - 10 when j = 2 and 4k - 8 otherwise.
    """
    if n < 31:
        raise ValueError("the recurrence needs n >= 31")
    j = ((n - 1) % 5) + 1
    k = (n - j) // 5
    x = 4 * k + {1: -12, 2: -10}.get(j, -8)
    lhs = blum_value(n).value()
    rhs = Fraction(3) ** (4 * x) * blum_value(n - 30).value()
    return lhs == rhs


# --------------------------------------------------------------------------
# square-lattice families with drawn diagonals


def _s_closed(family: int, m: int) -> FactoredValue:
    q, r = divmod(m, 4)
    if family == 1:
        unit = (1, 5, 1, 2)[r]
        e7 = (q * (2 * q - 1), 2 * q * q, q * (2 * q + 1), 2 * q * (q + 1))[r]
        e37 = (
            q * (2 * q + 1),
            2 * q * (q + 1),
            (q + 1) * (2 * q + 1),
            2 * q * (q + 2) + 2,
        )[r]
        return FactoredValue(unit, [(7, e7), (37, e37)])
    if family == 2:
        unit = (1, 5, 1, 1)[r]
        e7 = (
            q * (2 * q + 1),
            q * (2 * q + 2),
            q * (2 * q + 3) + 1,
            q * (2 * q + 4) + 2,
        )[r]
        e2 = (
            12 * q * q - 2 * q,
            12 * q * q + 4 * q,
            12 * q * q + 10 * q + 2,
            12 * q * q + 16 * q + 5,
        )[r]
        return FactoredValue(unit, [(7, e7), (2, e2)])
    if family == 3:
        unit = (1, 1, 1, 5)[r]
        e7 = (q * (2 * q - 1), 2 * q * q, q * (2 * q + 1), 2 * q * (q + 1))[r]
        e2 = (
            q * (12 * q + 2),
            q * (12 * q + 8) + 1,
            q * (12 * q + 14) + 4,
            q * (12 * q + 20) + 8,
        )[r]
        return FactoredValue(unit, [(7, e7), (2, e2)])
    if family == 4:
        e25 = (q * (2 * q - 1), 2 * q * q, q * (2 * q + 1), 2 * q * (q + 1))[r]
        e31 = (
            q * (2 * q + 1),
            2 * q * (q + 1),
            (q + 1) * (2 * q + 1),
            2 * (q + 1) ** 2,
        )[r]
        return FactoredValue(1, [(2, e25), (5, e25), (31, e31)])
    raise ValueError("family must be 1, 2, 3 or 4")


def s_region_route(family: int, m: int) -> Fraction:
    """Reduction route to `s_region_count`: prefactor times the family pattern."""
    k = m // 2
    odd = m % 2 == 1
    if family in (1, 3):
        e = (k + 1) ** 2 + k * k if odd else 2 * k * k
        # family 3 absorbs its cells in two passes of cell-factor 2 and
        # 5/2; family 1 in a single pass of cell-factor 2
        pre = Fraction(5) ** e if family == 3 else Fraction(2) ** e
    elif family == 2:
        pre = Fraction(2) ** (m * m)
    else:
        pre = Fraction(2) ** ((k + 1) * (3 * k + 1) if odd else 3 * k * k)
    return pre * evaluate(s_family_pattern(family), m)


def s_region_count(family: int, n: int, check: Optional[bool] = None) -> FactoredValue:
    """Number of tilings of the order-n region of square-lattice family 1..4.

    Each family lives on the square lattice with a different periodic
    subset of second diagonals drawn in; each count is a near-perfect
    power built from at most three primes.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    return _checked(
        f"s_region_count({family}, {n})", _s_closed(family, n), n, check,
        lambda: s_region_route(family, n),
    )


def q_count(n: int, check: Optional[bool] = None) -> FactoredValue:
    """Number of tilings of the order-n mixed square/octagon region.

    A product of powers of 3 and 29, with a stray 2 at orders 1 mod 4
    and a stray 5 at orders 3 mod 4.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    q4, r4 = divmod(n, 4)
    if r4 == 0:
        value = FactoredValue(1, [(3, 4 * q4 * q4), (29, 4 * q4 * q4)])
    elif r4 == 1:
        e = 2 * q4 * (2 * q4 + 1)
        value = FactoredValue(2, [(3, e), (29, e)])
    elif r4 == 3:
        e = (2 * q4 + 1) * (2 * q4 + 2)
        value = FactoredValue(5, [(3, e), (29, e)])
    elif n % 8 == 2:
        q = (n - 2) // 8
        value = FactoredValue(1, [(3, 2 * q * (8 * q + 4)), (29, (4 * q + 1) ** 2)])
    else:
        q = (n - 6) // 8
        value = FactoredValue(1, [(3, 8 * (q + 1) * (2 * q + 1) + 2), (29, (4 * q + 3) ** 2)])
    return _checked(f"q_count({n})", value, n, check, lambda: q_route(n))


def q_route(n: int) -> Fraction:
    """Reduction route to `q_count`: prefactor times the octagon pattern value."""
    k = n // 2
    if n % 2 == 0:
        prefactor = Fraction(10) ** (2 * k * k)
    else:
        prefactor = Fraction(5) ** ((k + 1) ** 2 + k * k) * Fraction(2) ** (2 * k * (k + 1))
    return prefactor * evaluate(q_pattern(), n)


# --------------------------------------------------------------------------
# triangular-lattice bowtie hexagons


def tri_count(n: int, check: Optional[bool] = None) -> FactoredValue:
    """Number of unit-triangle dissections of the order-n bowtie hexagon.

    Exactly 3^(n(n+1)) * 2^((n+1)^2); the reduction route runs through a
    diamond of order 2n, so the default check threshold applies to 2n.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    value = FactoredValue(1, [(3, n * (n + 1)), (2, (n + 1) ** 2)])
    return _checked(f"tri_count({n})", value, 2 * n, check, lambda: tri_route(n))


def tri_route(n: int) -> Fraction:
    """Reduction route to `tri_count`: a power of 2 times a diamond of order 2n."""
    return Fraction(2) ** (3 * n * n + 4 * n + 1) * evaluate(tri_pattern(), 2 * n)
