"""Reference values for the ``count`` workload, computed without tilecount.

Every count request is checked against a value this module computes by a
route the program under test does not take on that request: the
pattern-level reduction.  Reducing the order-n diamond weighted by a
periodically tiled k x l pattern P is the same as reducing the pattern
itself: every 2x2 block of the 2n x 2n matrix is a copy of one block of
P, so one matrix step multiplies the value by each pattern block's cell
value xz + yw raised to the number of matrix blocks that copy it, and
leaves the order-(n-1) matrix tiled by the transformed, shifted pattern.
That costs O(n * k * l) exact operations instead of O(n^3), and gives the
cell-factor product of every step, which is what ``trace`` prints.

The constants below (named patterns, prefactors, the brick-chain index
map) are the published relations between each counted family and its
diamond pattern, written out here once so that a change to the program's
own copies cannot also change the reference.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

F = Fraction
HALF = F(1, 2)

Rows = tuple[tuple[Fraction, ...], ...]


def _rows(rows) -> Rows:
    return tuple(tuple(F(x) for x in row) for row in rows)


def _two_value(a, b, layout: Sequence[str]) -> Rows:
    return _rows([[a if ch == "a" else b for ch in row] for row in layout])


def _quad(a, b, c, d) -> Rows:
    return _rows([[a, b, c, d], [b, a, d, c], [d, c, b, a], [c, d, a, b]])


_ZIG_LAYOUT = (
    "aabbbbaa", "aabbbbaa", "aaaabbbb", "aaaabbbb",
    "bbaaaabb", "bbaaaabb", "bbbbaaaa", "bbbbaaaa",
)
_h, _t = HALF, F(3, 2)

#: The diamond weight patterns behind the product theorems.
NAMED_PATTERNS: dict[str, Rows] = {
    "zig": _two_value(HALF, 1, _ZIG_LAYOUT),
    "zigbar": _two_value(1, HALF, _ZIG_LAYOUT),
    "s1": _quad(F(3, 2), HALF, 1, 1),
    "s2": _rows([[_h, _t, _h, _h], [_t, _h, _h, _h], [_h, _h, _t, _h], [_h, _h, _h, _t]]),
    "s3": _quad(F(1, 5), F(3, 5), 1, 1),
    "s4": _rows([[_h, _h, _h, _t], [_h, _h, _t, _h], [_t, _h, 1, 1], [_h, _t, 1, 1]]),
    "q": _rows(
        [
            [F(1, 5), F(3, 5), F(3, 2), F(1, 2), F(3, 5), F(1, 5), F(1, 2), F(3, 2)],
            [F(3, 5), F(1, 5), F(1, 2), F(3, 2), F(1, 5), F(3, 5), F(3, 2), F(1, 2)],
            [F(3, 2), F(1, 2), F(1, 5), F(3, 5), F(1, 2), F(3, 2), F(3, 5), F(1, 5)],
            [F(1, 2), F(3, 2), F(3, 5), F(1, 5), F(3, 2), F(1, 2), F(1, 5), F(3, 5)],
        ]
    ),
    "tri": _rows(
        [
            [HALF, HALF, HALF, HALF],
            [HALF, 1, 0, HALF],
            [F(3, 2), 0, 1, HALF],
            [F(3, 2), F(3, 2), HALF, HALF],
        ]
    ),
}


class ZeroCell(ArithmeticError):
    """A block that occurs in the diamond has cell value xz + yw == 0."""


def _multiplicity(count: int, period: int, residue: int) -> int:
    """How many of 0..count-1 are congruent to ``residue`` mod ``period``."""
    if residue >= count:
        return 0
    return (count - 1 - residue) // period + 1


def step_factors(rows: Rows, n: int) -> list[Fraction]:
    """Cell-factor product of each reduction step of the order-n diamond.

    Entry i is the factor of the step that starts at order n - i; the last
    entry is the order-1 value x z + y w.  Their product is M.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    k, l = len(rows), len(rows[0])
    if k % 2 or l % 2:
        raise ValueError("pattern dimensions must be even")
    hr, hc = k // 2, l // 2
    pat = [list(row) for row in rows]
    out = []
    for order in range(n, 0, -1):
        num, den = 1, 1
        nxt = [[F(0)] * l for _ in range(k)]
        for bi in range(hr):
            mr = _multiplicity(order, hr, bi)
            for bj in range(hc):
                x, w = pat[2 * bi][2 * bj], pat[2 * bi][2 * bj + 1]
                y, z = pat[2 * bi + 1][2 * bj], pat[2 * bi + 1][2 * bj + 1]
                delta = x * z + y * w
                mult = mr * _multiplicity(order, hc, bj)
                if delta == 0:
                    if mult:
                        raise ZeroCell(f"block ({bi}, {bj}) at order {order}")
                    continue  # the block never occurs, so neither do its images
                num *= delta.numerator ** mult
                den *= delta.denominator ** mult
                nxt[2 * bi][2 * bj] = z / delta
                nxt[2 * bi][2 * bj + 1] = y / delta
                nxt[2 * bi + 1][2 * bj] = w / delta
                nxt[2 * bi + 1][2 * bj + 1] = x / delta
        out.append(F(num, den))  # reduced here: steps cancel heavily
        pat = [[nxt[(i + 1) % k][(j + 1) % l] for j in range(l)] for i in range(k)]
    return out


def diamond_value(rows: Rows, n: int) -> Fraction:
    """M of the order-n diamond weighted by the tiled pattern."""
    value = F(1)
    for f in step_factors(rows, n):
        value *= f
    return value


# -- prefactors relating each family's count to its pattern's diamond value --


def _zig_gamma(n: int, bar: bool) -> int:
    k, r = divmod(n, 4)
    tail = (0, 4 * k, 8 * k + 1, 12 * k + 4) if bar else (0, 4 * k + 1, 8 * k + 3, 12 * k + 5)
    return 8 * k * k + tail[r]


def _s_prefactor(family: int, m: int) -> Fraction:
    k, odd = m // 2, m % 2 == 1
    if family in (1, 3):
        e = (k + 1) ** 2 + k * k if odd else 2 * k * k
        return F(5) ** e if family == 3 else F(2) ** e
    if family == 2:
        return F(2) ** (m * m)
    return F(2) ** ((k + 1) * (3 * k + 1) if odd else 3 * k * k)


def _q_prefactor(n: int) -> Fraction:
    k = n // 2
    if n % 2 == 0:
        return F(10) ** (2 * k * k)
    return F(5) ** ((k + 1) ** 2 + k * k) * F(2) ** (2 * k * (k + 1))


def brick_to_zigzag(n: int) -> tuple[int, bool]:
    """(zigzag order, bar) whose strip count equals brick-chain value n."""
    if n < 1:
        raise ValueError("index must be >= 1")
    if n % 5 == 2:
        if n % 10 == 2:
            return 4 * ((n - 2) // 10) + 1, True
        return 4 * ((n - 7) // 10) + 3, False
    r = n - {3: 0, 4: 1, 0: 2, 1: 3}[n % 5]
    if r % 10 == 3:
        return 4 * ((r - 3) // 10) + 2, True
    return 4 * ((r + 2) // 10), False


def zigzag_value(n: int, bar: bool) -> Fraction:
    pattern = NAMED_PATTERNS["zigbar" if bar else "zig"]
    return F(2) ** _zig_gamma(n, bar) * diamond_value(pattern, n)


def family_value(region: str, params: Sequence[int], bar: bool) -> Fraction:
    """Tiling count of a named region family (fortress excluded)."""
    (n,) = params
    if region == "zigzag":
        return zigzag_value(n, bar)
    if region == "blum":
        return zigzag_value(*brick_to_zigzag(n))
    if region == "q":
        return _q_prefactor(n) * diamond_value(NAMED_PATTERNS["q"], n)
    if region == "tri":
        return F(2) ** (3 * n * n + 4 * n + 1) * diamond_value(NAMED_PATTERNS["tri"], 2 * n)
    if region in ("s1", "s2", "s3", "s4"):
        family = int(region[1])
        return _s_prefactor(family, n) * diamond_value(NAMED_PATTERNS[region], n)
    raise ValueError(f"no reference for region {region!r}")


def fortress_value(parts: Sequence[int], bar: bool) -> Fraction:
    """Tiling count of the fortress whose column bands have widths ``parts``.

    A power of two times the diamond value of the banded two-value
    pattern: columns of band j carry (1/2 over 1) when j is odd, swapped
    for even j, and the bar variant swaps the roles.
    """
    top, bottom = [], []
    for j, d in enumerate(parts, start=1):
        odd = (j % 2 == 1) != bar
        top.extend([HALF if odd else F(1)] * (2 * d))
        bottom.extend([F(1) if odd else HALF] * (2 * d))
    n = sum(parts)
    if n % 2 == 0:
        e = n * n // 2
    else:
        theta = sum(parts[0::2])
        e = n * (n - 1) // 2 + (n - theta if bar else theta)
    return F(2) ** e * diamond_value(_rows([top, top, bottom, bottom]), n)
