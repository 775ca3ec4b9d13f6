"""Laws of the diamond weight calculus.

  * tiling is periodic: tile_pattern repeats the pattern entries;
  * the uniform diamond of order n counts 2^(n(n+1)/2);
  * reduce_step lowers the order by one and evaluate multiplies the
    extracted factors; evaluate agrees with the matching oracle;
  * reducing the tiled pattern equals reducing the tiled matrix: the same
    value, the same step factors, and the same vanishing cell, which only
    a block that the order uses can have;
  * the pattern transform is an involution on uniform patterns
    (c -> 1/(2c) -> c);
  * the two-row double product equals the reduction value, including the
    periodic wrap when the order exceeds the pattern width;
  * scaling one row/column part has the documented exact effect on M
    (t^n, t^(n+1), or t per scaled part);
  * a vanishing cell factor raises with the offending cell attached (and
    with no order when a bare pattern is transformed);
  * the pattern file format round-trips.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tilecount import (
    TiledPattern,
    WeightMatrix,
    WeightPattern,
    ZeroCellFactor,
    delta_pattern,
    evaluate,
    evaluate_matrix,
    evaluate_trace,
    matching_gen_fn,
    reduce_step,
    stanley_eval,
    tile_pattern,
)
from tilecount.aztec import (
    evaluate_matrix_trace,
    format_pattern,
    parse_pattern,
    scale_cell_block,
    scale_pair_part,
    scale_separator_part,
)
from tilecount.formulas import q_pattern, s_family_pattern, tri_pattern
from tilecount.patterns import eight_column, quad, two_row, zig
from tilecount.regions import build_aztec_graph

ONES = WeightPattern([[1, 1], [1, 1]])

positive = st.fractions(min_value=Fraction(1, 3), max_value=4, max_denominator=4)


def _pattern(entries, k, l):
    return WeightPattern([entries[i * l : (i + 1) * l] for i in range(k)])


# -- tiling and evaluation ---------------------------------------------------


def test_tile_pattern_is_periodic():
    p = WeightPattern([[1, 2], [3, 4]])
    m = tile_pattern(p, 3)
    assert m.order == 3
    for i in range(6):
        for j in range(6):
            assert m.rows[i][j] == p.rows[i % 2][j % 2]


def test_order_zero_counts_one():
    assert evaluate(ONES, 0) == 1


def test_uniform_diamond_counts():
    for n in range(1, 11):
        assert evaluate(ONES, n) == 2 ** (n * (n + 1) // 2)


def test_reduce_step_lowers_order():
    m = tile_pattern(ONES, 4)
    nxt, factor = reduce_step(m)
    assert nxt.order == 3
    assert factor == 2**16  # 16 cells, factor 2 each


def test_trace_factors_multiply_to_value():
    trace = evaluate_trace(WeightPattern([[1, 2], [3, 4]]), 4)
    prod = Fraction(1)
    for _, factor in trace.steps:
        prod *= factor
    assert prod == trace.value == evaluate(WeightPattern([[1, 2], [3, 4]]), 4)
    assert [m.order for m, _ in trace.steps] == [4, 3, 2, 1]


@given(st.lists(positive, min_size=16, max_size=16), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_reduction_matches_oracle(entries, n):
    p = _pattern(entries, 4, 4)
    assert evaluate(p, n) == matching_gen_fn(build_aztec_graph(n, p))


@given(st.lists(positive, min_size=36, max_size=36))
@settings(max_examples=20, deadline=None)
def test_matrix_evaluation_matches_oracle(entries):
    m = WeightMatrix([entries[i * 6 : (i + 1) * 6] for i in range(6)])
    assert evaluate_matrix(m) == matching_gen_fn(build_aztec_graph(3, m))


# -- pattern level against matrix level -------------------------------------


def _matrix_route(p, n):
    """(value, step factors) of the tiled matrix, or the vanishing cell."""
    try:
        trace = evaluate_matrix_trace(tile_pattern(p, n))
    except ZeroCellFactor as exc:
        return exc.order, exc.cell
    return trace.value, [f for _, f in trace.steps]


def _pattern_route(p, n):
    try:
        trace = evaluate_trace(p, n)
        value = evaluate(p, n)
    except ZeroCellFactor as exc:
        return exc.order, exc.cell
    assert value == trace.value
    return value, [f for _, f in trace.steps]


small_patterns = st.tuples(st.sampled_from((2, 4, 6)), st.sampled_from((2, 4, 6))).flatmap(
    lambda kl: st.lists(
        st.lists(st.integers(-3, 3), min_size=kl[1], max_size=kl[1]),
        min_size=kl[0], max_size=kl[0],
    )
)


@given(small_patterns, st.integers(0, 8))
@settings(max_examples=300, deadline=None)
def test_pattern_level_equals_matrix_level(rows, n):
    p = WeightPattern(rows)
    assert _pattern_route(p, n) == _matrix_route(p, n)


NAMED = {
    "zig": zig(Fraction(1, 2), 1),
    "q": q_pattern(),
    "tri": tri_pattern(),
    **{f"s{f}": s_family_pattern(f) for f in (1, 2, 3, 4)},
    "quad": quad(2, Fraction(1, 3), Fraction(5, 2), 1),
    "eight_column": eight_column(1, 2, 3, Fraction(1, 2), Fraction(2, 3), 1, 5, Fraction(1, 4)),
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_patterns_reduce_alike_at_both_levels(name):
    for n in (1, 2, 3, 5, 8, 12, 24):
        assert _pattern_route(NAMED[name], n) == _matrix_route(NAMED[name], n), n


@given(st.lists(positive, min_size=24, max_size=24), st.integers(2, 5))
@settings(max_examples=25, deadline=None)
def test_pattern_step_is_the_matrix_step(entries, n):
    p = _pattern(entries, 4, 6)
    nxt, powers = reduce_step(TiledPattern(p, n))
    matrix_next, factor = reduce_step(tile_pattern(p, n))
    assert nxt.order == n - 1
    assert tile_pattern(WeightPattern(nxt.rows), n - 1) == matrix_next
    prod = Fraction(1)
    for v, c in powers.items():
        prod *= v**c
    assert prod == factor
    assert sum(powers.values()) == n * n  # one power per matrix block


def test_tiled_pattern_keeps_only_the_used_part():
    p = NAMED["q"]  # 4 x 8
    assert TiledPattern(p, 1).rows == tuple(row[:2] for row in p.rows[:2])
    assert TiledPattern(p, 3).rows == tuple(row[:6] for row in p.rows)
    assert TiledPattern(p, 5).rows == p.rows
    assert TiledPattern(p, 0).rows == ()
    with pytest.raises(ValueError):
        TiledPattern(p, -1)


# -- the pattern transform ---------------------------------------------------


@given(positive)
def test_transform_inverts_uniform_patterns(c):
    p = WeightPattern([[c, c], [c, c]])
    once = delta_pattern(p)
    assert once == WeightPattern([[1 / (2 * c)] * 2] * 2)
    assert delta_pattern(once) == p


@given(st.lists(positive, min_size=16, max_size=16), st.integers(2, 4))
@settings(max_examples=25, deadline=None)
def test_transform_commutes_with_evaluation(entries, n):
    # evaluating at order n equals one reduction step's total factor times
    # the transformed pattern evaluated at order n-1
    p = _pattern(entries, 4, 4)
    _, factor = reduce_step(tile_pattern(p, n))
    assert evaluate(p, n) == factor * evaluate(delta_pattern(p), n - 1)


# -- two-row double product --------------------------------------------------


@given(
    st.lists(positive, min_size=3, max_size=3),
    st.lists(positive, min_size=3, max_size=3),
    st.lists(positive, min_size=3, max_size=3),
    st.lists(positive, min_size=3, max_size=3),
    st.integers(0, 5),
)
@settings(max_examples=25, deadline=None)
def test_two_row_product(xs, ys, ts, ws, n):
    p = two_row(xs, ys, ts, ws)
    assert stanley_eval(p, n) == evaluate(p, n)  # n > 3 wraps periodically


def test_two_row_product_default_order():
    p = two_row([1, 2], [1, 1], [3, 1], [1, 1])
    assert stanley_eval(p) == stanley_eval(p, 2) == evaluate(p, 2)


def test_two_row_product_needs_two_rows():
    with pytest.raises(ValueError):
        stanley_eval(WeightPattern([[1, 1], [1, 1], [1, 1], [1, 1]]))


# -- scaling identities ------------------------------------------------------


@given(
    st.lists(positive, min_size=36, max_size=36),
    st.sampled_from([Fraction(1, 3), Fraction(2), Fraction(7, 5)]),
    st.integers(0, 3),
    st.sampled_from(["rows", "cols"]),
)
@settings(max_examples=20, deadline=None)
def test_scaling_identities(entries, t, part, axis):
    n = 3
    m = WeightMatrix([entries[i * 6 : (i + 1) * 6] for i in range(6)])
    base = evaluate_matrix(m)
    assert evaluate_matrix(scale_separator_part(m, part, t, axis)) == t**n * base
    if part < n:
        assert (
            evaluate_matrix(scale_pair_part(m, part, t, axis))
            == t ** (n + 1) * base
        )
        assert evaluate_matrix(scale_cell_block(m, part, part, t)) == t * base


def test_scaling_rejects_bad_part():
    m = tile_pattern(ONES, 2)
    with pytest.raises(ValueError):
        scale_separator_part(m, 3, 2)
    with pytest.raises(ValueError):
        scale_pair_part(m, 2, 2)
    with pytest.raises(ValueError):
        scale_separator_part(m, 0, 2, axis="diag")


# -- degenerate cells --------------------------------------------------------


def test_vanishing_cell_factor_is_reported():
    m = WeightMatrix([[1, 1, 1, 1], [-1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1]])
    with pytest.raises(ZeroCellFactor) as exc:
        reduce_step(m)
    assert exc.value.order == 2
    assert exc.value.cell == (0, 0)
    assert "vanishing factor" in str(exc.value)


def test_vanishing_cell_surfaces_through_evaluate():
    p = WeightPattern([[1, 1], [-1, 1]])
    with pytest.raises(ZeroCellFactor):
        evaluate(p, 2)


def test_vanishing_cell_in_an_unused_block_never_raises():
    # all ones but block (2, 2), whose cell is 1*1 + (-1)*1 = 0; the order-2
    # diamond uses only the top-left 4 x 4 of the pattern
    rows = [[1] * 6 for _ in range(6)]
    rows[5][4] = -1
    p = WeightPattern(rows)
    assert evaluate(p, 2) == evaluate_matrix(tile_pattern(p, 2)) == 8
    assert evaluate_trace(p, 2).value == 8
    for route in (lambda: evaluate(p, 3), lambda: evaluate_trace(p, 3),
                  lambda: evaluate_matrix(tile_pattern(p, 3))):
        with pytest.raises(ZeroCellFactor) as exc:
            route()
        assert (exc.value.order, exc.value.cell) == (3, (2, 2))


def test_order_one_cell_may_vanish():
    p = WeightPattern([[1, 0], [1, 0]])
    assert evaluate(p, 1) == evaluate_trace(p, 1).value == 0
    assert [f for _, f in evaluate_trace(p, 1).steps] == [0]


def test_negative_orders_are_refused():
    for route in (evaluate, evaluate_trace):
        with pytest.raises(ValueError):
            route(ONES, -1)


def test_transform_reports_vanishing_cell_without_an_order():
    with pytest.raises(ZeroCellFactor) as exc:
        delta_pattern(WeightPattern([[1, 1], [-1, 1]]))
    assert exc.value.order is None
    assert exc.value.cell == (0, 0)
    assert str(exc.value) == "cell (0, 0) has vanishing factor xz + yw"


# -- pattern files -----------------------------------------------------------


def test_pattern_file_round_trip():
    p = WeightPattern([[Fraction(1, 2), 2], [3, Fraction(5, 7)]])
    assert parse_pattern(format_pattern(p)) == p


def test_parse_pattern_accepts_comments():
    text = "# uniform\n2 2\n1 1\n1 1\n"
    assert parse_pattern(text) == ONES


def test_parse_pattern_rejects_garbage():
    with pytest.raises(ValueError):
        parse_pattern("2 2\n1 1\n")  # missing a row
    with pytest.raises(ValueError):
        parse_pattern("x y\n1 1\n1 1\n")


def test_trace_of_matrix_records_final_step():
    m = tile_pattern(ONES, 1)
    trace = evaluate_matrix_trace(m)
    assert len(trace.steps) == 1
    assert trace.value == 2
