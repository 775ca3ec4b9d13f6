"""Dual-graph builders checked against closed counts and the reduction.

  * the order-n diamond graph has 2n(n+1) vertices and its uniform count
    is 2^(n(n+1)/2); weighting it by a pattern reproduces the reduction
    value;
  * fortress graphs match the closed fortress counts on small orders,
    and the reported extended-city specs satisfy the city-replacement
    contract;
  * brick-wall graphs match the closed brick counts.
"""

from fractions import Fraction
import random

import pytest

from tilecount import (
    WeightMatrix,
    WeightPattern,
    blum_value,
    city_replace,
    evaluate,
    fortress_count,
    matching_gen_fn,
    zigzag_count,
)
from tilecount.regions import (
    build_aztec_graph,
    build_brick_graph,
    build_fortress_graph,
    render_svg,
)


def test_diamond_vertex_count():
    for n in range(5):
        assert build_aztec_graph(n).vertex_count() == 2 * n * (n + 1)


def test_uniform_diamond_oracle():
    for n in range(1, 5):
        assert matching_gen_fn(build_aztec_graph(n)) == 2 ** (n * (n + 1) // 2)


def test_weighted_diamond_matches_reduction():
    rng = random.Random(11)
    for _ in range(5):
        p = WeightPattern(
            [
                [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(4)]
                for _ in range(4)
            ]
        )
        n = rng.randint(1, 3)
        assert matching_gen_fn(build_aztec_graph(n, p)) == evaluate(p, n)


def test_zero_pattern_entries_leave_no_edges():
    p = WeightPattern([[1, 0], [1, 1]])
    g = build_aztec_graph(2, p)
    assert all(w != 0 for _, _, w in g.edges())
    assert matching_gen_fn(g) == evaluate(p, 2)


def test_matrix_order_must_match():
    with pytest.raises(ValueError):
        build_aztec_graph(2, WeightMatrix([[1, 1], [1, 1]]))
    with pytest.raises(ValueError):
        build_aztec_graph(-1)


def test_fortress_graphs_match_closed_counts():
    for parts in [(1,), (2,), (1, 1), (1, 2), (2, 1), (1, 1, 1), (3,)]:
        for bar in (False, True):
            g = build_fortress_graph(parts, bar=bar)
            want = fortress_count(parts, "bar" if bar else "plain").value()
            assert matching_gen_fn(g) == want, (parts, bar)


def test_fortress_city_specs_honour_replacement_contract():
    g, cities = build_fortress_graph((2, 1), with_cities=True)
    assert cities  # the grouping (2, 1) has extended cities
    before = matching_gen_fn(g)
    factor = Fraction(1)
    for spec in cities:
        assert len(spec.equator) == len(spec.north) + 1 == len(spec.south) + 1
        g, step = city_replace(g, spec.equator, spec.north, spec.south)
        factor *= step
    assert before == factor * matching_gen_fn(g)


def test_brick_wall_matches_closed_counts():
    for n in range(1, 6):
        g = build_brick_graph(n)
        assert matching_gen_fn(g) == blum_value(n).value()


def test_narrow_brick_wall_matches_zigzag_counts():
    # the narrow (2x1 brick) walls are the complementary-chain instances
    for n, order, variant in ((1, 1, "bar"), (2, 2, "bar"), (4, 3, "plain"), (5, 4, "plain")):
        g = build_brick_graph(n, "2-1")
        assert matching_gen_fn(g) == zigzag_count(order, variant).value()


def test_brick_wall_rejects_bad_input():
    with pytest.raises(ValueError):
        build_brick_graph(0)
    with pytest.raises(ValueError):
        build_brick_graph(3, "2-4")


def test_render_svg_smoke():
    text = render_svg(build_aztec_graph(1))
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
