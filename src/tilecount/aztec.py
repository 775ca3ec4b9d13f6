"""Weight patterns on diamond graphs and the order-lowering reduction.

The diamond graph of order n has vertices at the half-integer points
(u, v) with |u| + |v| <= n and edges between points at distance 1.  Its
4 n^2 edges sit in bijection with the entries of a 2n x 2n matrix: the
edge whose midpoint is (u, v) maps to row n + 1/2 - (u + v) and column
u - v + n + 1/2, both 1-based.  Under this indexing each 2x2 block

    [ x  w ]      x = top edge of a cell, w = right,
    [ y  z ]      y = left,               z = bottom,

collects the four edges of one unit cell, and the matching generating
function of the whole graph satisfies a one-step reduction (Ciucu's
Reduction Theorem): replace every block by [[z, y], [w, x]] / (xz + yw),
multiply the running factor by the product of the cell values xz + yw,
and keep the interior (2n-2) x (2n-2) window.  Iterating down to order 1
evaluates M exactly; on an arbitrary matrix that is O(n^3) arithmetic
operations (``evaluate_matrix``).

A *weight pattern* is a k x l matrix (k, l even) tiled periodically over
the 2n x 2n weight matrix from its top-left corner.  The same block step
acts on patterns directly: transform the blocks, then shift rows up and
columns left by one, cyclically (``delta_pattern``).  On the matrix this
shift is the interior window, so reducing ``tile_pattern(P, n)`` gives
``tile_pattern(delta_pattern(P), n - 1)``, and every block of the matrix
is a copy of one block of P.  ``evaluate`` therefore never builds the
matrix: each step raises each pattern block's cell value to the number of
matrix blocks that copy it, O(k l) operations, and the value is the
product of those powers over all n steps, built once at the end.  This is
generalized domino shuffling (Propp, TCS 303, 2003).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Optional, Sequence, Union

from .rational import PowerProduct, RationalLike, frac_str


class ZeroCellFactor(ArithmeticError):
    """A reduction step hit a cell with xz + yw == 0.

    ``order`` is the order of the step, or None for ``delta_pattern``, which
    transforms a pattern without tiling it at any order.
    """

    def __init__(self, order: Optional[int], cell: tuple[int, int]):
        self.order = order
        self.cell = cell
        at = "" if order is None else f" at order {order}"
        super().__init__(f"cell {cell}{at} has vanishing factor xz + yw")


def _freeze(rows) -> tuple[tuple[Fraction, ...], ...]:
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if not out or not out[0]:
        raise ValueError("empty weight grid")
    width = len(out[0])
    if any(len(r) != width for r in out):
        raise ValueError("ragged weight grid")
    return out


class WeightPattern:
    """A k x l grid of rationals, k and l even, tiled over diamond weights."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[RationalLike]]):
        frozen = _freeze(rows)
        if len(frozen) % 2 or len(frozen[0]) % 2:
            raise ValueError("pattern dimensions must be even")
        self.rows = frozen

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def l(self) -> int:
        return len(self.rows[0])

    def __eq__(self, other):
        if not isinstance(other, WeightPattern):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"WeightPattern({self.k}x{self.l})"

    def scaled(self, c: RationalLike) -> "WeightPattern":
        c = Fraction(c)
        return WeightPattern([[x * c for x in row] for row in self.rows])


class WeightMatrix:
    """The full 2n x 2n weight matrix of a diamond graph of order n."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[RationalLike]]):
        if len(rows) == 0:
            self.rows = ()
            return
        frozen = _freeze(rows)
        if len(frozen) != len(frozen[0]) or len(frozen) % 2:
            raise ValueError("weight matrix must be square with even side")
        self.rows = frozen

    @property
    def order(self) -> int:
        return len(self.rows) // 2

    def __eq__(self, other):
        if not isinstance(other, WeightMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self):
        return f"WeightMatrix(order {self.order})"


def tile_pattern(pattern: WeightPattern, n: int) -> WeightMatrix:
    """Tile the pattern periodically into the order-n weight matrix."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    k, l = pattern.k, pattern.l
    return WeightMatrix(
        [
            [pattern.rows[i % k][j % l] for j in range(2 * n)]
            for i in range(2 * n)
        ]
    )


class TiledPattern:
    """A pattern tiled over the order-n diamond, without the 2n x 2n matrix.

    ``rows`` keeps the part of the pattern that the matrix uses, its first
    min(k, 2n) rows and min(l, 2n) columns; the matrix is the periodic
    tiling of ``rows``.  So every block of ``rows`` occurs in the matrix.
    """

    __slots__ = ("rows", "order")

    def __init__(self, pattern: WeightPattern, order: int):
        if order < 0:
            raise ValueError("order must be nonnegative")
        self.rows = tuple(row[: 2 * order] for row in pattern.rows[: 2 * order])
        self.order = order

    def __repr__(self):
        return f"TiledPattern(order {self.order})"


def _block_transform(rows, order):
    """Apply the cell step to every 2x2 block.

    Returns the new rows and the cell values ``xz + yw`` as a list of block
    rows.  A vanishing cell raises ``ZeroCellFactor`` with ``order`` and the
    first such block in row-major order.
    """
    half_r = len(rows) // 2
    half_c = len(rows[0]) // 2
    out = [[None] * len(rows[0]) for _ in rows]
    cells = [[None] * half_c for _ in range(half_r)]
    for bi in range(half_r):
        for bj in range(half_c):
            x = rows[2 * bi][2 * bj]
            w = rows[2 * bi][2 * bj + 1]
            y = rows[2 * bi + 1][2 * bj]
            z = rows[2 * bi + 1][2 * bj + 1]
            delta = x * z + y * w
            if delta == 0:
                raise ZeroCellFactor(order, (bi, bj))
            cells[bi][bj] = delta
            out[2 * bi][2 * bj] = z / delta
            out[2 * bi][2 * bj + 1] = y / delta
            out[2 * bi + 1][2 * bj] = w / delta
            out[2 * bi + 1][2 * bj + 1] = x / delta
    return out, cells


def _shifted(rows) -> WeightPattern:
    """The pattern whose entry (i, j) is rows[i + 1][j + 1], cyclically."""
    k, l = len(rows), len(rows[0])
    return WeightPattern(
        [[rows[(i + 1) % k][(j + 1) % l] for j in range(l)] for i in range(k)]
    )


def delta_pattern(pattern: WeightPattern) -> WeightPattern:
    """The pattern-level reduction step: block transform, then cyclic shift
    of rows up by one and columns left by one."""
    return _shifted(_block_transform(pattern.rows, None)[0])


def reduce_step(m: Union[WeightMatrix, TiledPattern]):
    """One reduction step at order n >= 2.

    On a ``WeightMatrix``: M(m) == factor * M(result), where the result is
    the interior window of the block-transformed matrix and the factor is
    the product of all cell values xz + yw; returns (result, factor).

    On a ``TiledPattern``: the same step, taken on the pattern.  Returns the
    pattern tiled at order n - 1 and the step's cell powers ``{xz + yw: c}``,
    c being the number of matrix blocks that copy the pattern block; the
    step's factor is the product of v^c.
    """
    n = m.order
    if n < 2:
        raise ValueError("reduce_step needs order >= 2")
    transformed, cells = _block_transform(m.rows, n)
    if isinstance(m, TiledPattern):
        # matrix block rows bi < n copying pattern block row a, and columns
        rows_used = [-((a - n) // len(cells)) for a in range(len(cells))]
        cols_used = [-((b - n) // len(cells[0])) for b in range(len(cells[0]))]
        powers = Counter()
        for row, r in zip(cells, rows_used):
            for v, c in zip(row, cols_used):
                powers[v] += r * c
        return TiledPattern(_shifted(transformed), n - 1), powers
    inner = [
        [transformed[i + 1][j + 1] for j in range(2 * n - 2)]
        for i in range(2 * n - 2)
    ]
    factor = prod((v for row in cells for v in row), start=Fraction(1))
    return WeightMatrix(inner), factor


def _order_one_value(m) -> Fraction:
    r = m.rows
    return r[0][0] * r[1][1] + r[1][0] * r[0][1]


@dataclass(frozen=True)
class ReductionTrace:
    """Full record of a reduction run: the weights entering each step (a
    ``WeightMatrix``, or a ``TiledPattern`` when a pattern is reduced), that
    step's extracted factor, and the final value M = product of factors."""

    steps: tuple[tuple[Union[WeightMatrix, TiledPattern], Fraction], ...]
    value: Fraction


def evaluate_matrix(m: WeightMatrix) -> Fraction:
    """M of the diamond graph weighted by the given matrix."""
    value = Fraction(1)
    while m.order > 1:
        m, factor = reduce_step(m)
        value *= factor
    if m.order == 1:
        value *= _order_one_value(m)
    return value


def evaluate_matrix_trace(m: WeightMatrix) -> ReductionTrace:
    steps = []
    value = Fraction(1)
    while m.order > 1:
        nxt, factor = reduce_step(m)
        steps.append((m, factor))
        value *= factor
        m = nxt
    if m.order == 1:
        factor = _order_one_value(m)
        steps.append((m, factor))
        value *= factor
    return ReductionTrace(steps=tuple(steps), value=value)


def _pattern_steps(pattern: WeightPattern, n: int):
    """Yield each step of reducing the tiled pattern from order n: the
    ``TiledPattern`` entering it and its cell powers.  The order-1 step's
    powers are ``{xz + yw: 1}``, and there xz + yw may be 0."""
    m = TiledPattern(pattern, n)
    while m.order > 1:
        nxt, powers = reduce_step(m)
        yield m, powers
        m = nxt
    if m.order == 1:
        yield m, {_order_one_value(m): 1}


def _product(powers) -> Fraction:
    return Fraction(0) if 0 in powers else PowerProduct.of(powers).value()


def cell_powers(pattern: WeightPattern, n: int) -> Optional[Counter]:
    """M of the order-n diamond weighted by the tiled pattern, unbuilt: the
    cell values of every reduction step with their summed multiplicities,
    ``{v: e}`` with M == prod(v^e), or None when M == 0."""
    total = Counter()
    for _, powers in _pattern_steps(pattern, n):
        total.update(powers)
    return None if 0 in total else total


def evaluate(pattern: WeightPattern, n: int) -> Fraction:
    """M of the order-n diamond weighted by the tiled pattern."""
    powers = cell_powers(pattern, n)
    return Fraction(0) if powers is None else PowerProduct.of(powers).value()


def evaluate_trace(pattern: WeightPattern, n: int) -> ReductionTrace:
    """The pattern-level reduction step by step.  Each step's factor is
    built for the record; the value is built once from the summed powers."""
    steps, total = [], Counter()
    for m, powers in _pattern_steps(pattern, n):
        steps.append((m, _product(powers)))
        total.update(powers)
    return ReductionTrace(steps=tuple(steps), value=_product(total))


def stanley_eval(pattern: WeightPattern, n: Optional[int] = None) -> Fraction:
    """Closed product for two-row patterns.

    Column pair i of a 2 x l pattern holds the four edge weights of one
    vertical run of cells: x_i above t_i in the top row, y_i above w_i in
    the bottom row (the cell roles top, right, left, bottom).  Then

        M(order n) = prod over 1 <= i <= j <= n of (x_i w_j + y_i t_j),

    with the column pairs repeating periodically when 2n exceeds l, just as
    the tiling of the weight matrix repeats them.  ``n`` defaults to l/2.
    """
    if pattern.k != 2:
        raise ValueError("two-row pattern required")
    half = pattern.l // 2
    if n is None:
        n = half
    if n < 0:
        raise ValueError("order must be nonnegative")
    top, bottom = pattern.rows
    xs = [top[2 * (i % half)] for i in range(n)]
    ts = [top[2 * (i % half) + 1] for i in range(n)]
    ys = [bottom[2 * (i % half)] for i in range(n)]
    ws = [bottom[2 * (i % half) + 1] for i in range(n)]
    value = Fraction(1)
    for i in range(n):
        for j in range(i, n):
            value *= xs[i] * ws[j] + ys[i] * ts[j]
    return value


# -- row/column rescaling identities ----------------------------------------
#
# Three ways of carving the 2n columns (or rows) of a weight matrix into
# parts, each with an exact effect on M when one part is scaled by t:
#
#   separator parts  {0}, {1,2}, {3,4}, ..., {2n-3, 2n-2}, {2n-1}
#       (n+1 parts, 0-based):        M(scaled) == t^n     * M(m)
#   pair parts       {0,1}, {2,3}, ..., {2n-2, 2n-1}
#       (n parts):                   M(scaled) == t^(n+1) * M(m)
#   cell blocks      separator parts on rows x pair parts on columns
#       ((n+1) x n blocks):          M(scaled) == t       * M(m)


def _separator_part(part: int, n: int) -> list[int]:
    if not 0 <= part <= n:
        raise ValueError(f"separator part must be in 0..{n}")
    if part == 0:
        return [0]
    if part == n:
        return [2 * n - 1]
    return [2 * part - 1, 2 * part]


def _pair_part(part: int, n: int) -> list[int]:
    if not 0 <= part < n:
        raise ValueError(f"pair part must be in 0..{n - 1}")
    return [2 * part, 2 * part + 1]


def _scaled(m: WeightMatrix, rows_idx, cols_idx, t: Fraction) -> WeightMatrix:
    rows_idx, cols_idx = set(rows_idx), set(cols_idx)
    return WeightMatrix(
        [
            [
                x * t if (i in rows_idx or j in cols_idx) else x
                for j, x in enumerate(row)
            ]
            for i, row in enumerate(m.rows)
        ]
    )


def scale_separator_part(
    m: WeightMatrix, part: int, t: RationalLike, axis: str = "cols"
) -> WeightMatrix:
    """Scale one separator part by t: M(result) == t^n * M(m)."""
    t = Fraction(t)
    idx = _separator_part(part, m.order)
    if axis == "cols":
        return _scaled(m, (), idx, t)
    if axis == "rows":
        return _scaled(m, idx, (), t)
    raise ValueError("axis must be 'rows' or 'cols'")


def scale_pair_part(
    m: WeightMatrix, part: int, t: RationalLike, axis: str = "cols"
) -> WeightMatrix:
    """Scale one pair part by t: M(result) == t^(n+1) * M(m)."""
    t = Fraction(t)
    idx = _pair_part(part, m.order)
    if axis == "cols":
        return _scaled(m, (), idx, t)
    if axis == "rows":
        return _scaled(m, idx, (), t)
    raise ValueError("axis must be 'rows' or 'cols'")


def scale_cell_block(
    m: WeightMatrix, i: int, j: int, t: RationalLike
) -> WeightMatrix:
    """Scale block (i, j) — separator row part i, pair column part j — by t:
    M(result) == t * M(m)."""
    t = Fraction(t)
    n = m.order
    rows_idx = _separator_part(i, n)
    cols_idx = _pair_part(j, n)
    return WeightMatrix(
        [
            [
                x * t if (r in rows_idx and c in cols_idx) else x
                for c, x in enumerate(row)
            ]
            for r, row in enumerate(m.rows)
        ]
    )


# -- pattern file format -----------------------------------------------------


def parse_pattern(text: str) -> WeightPattern:
    """Parse ``k l`` on the first line then k rows of l rationals."""
    tokens_by_line = [
        line.split()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not tokens_by_line:
        raise ValueError("empty pattern file")
    header = tokens_by_line[0]
    if len(header) != 2:
        raise ValueError("header must be 'k l'")
    try:
        k, l = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError("header must be two integers") from None
    body = tokens_by_line[1:]
    if len(body) != k:
        raise ValueError(f"expected {k} rows, found {len(body)}")
    rows = []
    for lineno, row in enumerate(body, start=1):
        if len(row) != l:
            raise ValueError(f"row {lineno}: expected {l} entries, found {len(row)}")
        try:
            rows.append([Fraction(tok) for tok in row])
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"row {lineno}: {exc}") from None
    return WeightPattern(rows)


def read_pattern(path) -> WeightPattern:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pattern(fh.read())


def format_pattern(pattern: WeightPattern) -> str:
    lines = [f"{pattern.k} {pattern.l}"]
    for row in pattern.rows:
        lines.append(" ".join(map(frac_str, row)))
    return "\n".join(lines) + "\n"
