"""Closed-form counts pinned against frozen values and re-derived routes.

The counting operations cross-check themselves: each one re-derives its
answer through the reduction engine (on orders small enough to afford it)
and raises RouteMismatchError on disagreement, so merely calling them
exercises the closed form against the engine.  The tests here addition-
ally pin small values — computed independently from the matching oracle
where a dual-graph builder exists — freeze the factored shapes, and check
the identities relating the variants of each family.
"""

from fractions import Fraction
import random

import pytest

from tilecount import (
    Composition,
    FactoredValue,
    RouteMismatchError,
    abcd_formula,
    blockC_formula,
    blum_recurrence_check,
    blum_value,
    evaluate,
    fortress_count,
    fortress_gen_fn,
    fortress_pattern_formula,
    fortress_prefactor,
    n_pattern_value,
    q_count,
    s_region_count,
    tri_count,
    weighted_rows_formula,
    yang_fortress,
    zig_recurrence,
    zigzag_count,
)
from tilecount import formulas
from tilecount.formulas import ROUTE_CHECK_LIMIT
from tilecount.patterns import eight_column, four_row, quad, zig


def _compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


# -- compositions ------------------------------------------------------------


def test_composition_quantities():
    c = Composition((2, 1, 3))
    assert c.n == 6
    assert c.partial_sums == (2, 3, 6)
    assert c.S == min(2, 4) + min(3, 3) + min(6, 0)
    assert c.theta == 2 + 3  # parts at odd positions


def test_composition_normalizes_input():
    assert Composition([2, 1]).parts == (2, 1)
    with pytest.raises(ValueError):
        Composition((0, 1))
    with pytest.raises(ValueError):
        Composition(())


def test_center_band_membership():
    # odd order n: the center column (n+1)/2 lies in an odd-indexed band
    # exactly when some odd partial sum reaches it first
    assert Composition((3,)).center_in_odd_band()  # single band, index 1
    assert Composition((2, 1)).center_in_odd_band()  # column 2 in band 1
    assert not Composition((1, 2)).center_in_odd_band()  # column 2 in band 2
    assert not Composition((1, 1, 1)).center_in_odd_band()


# -- fortresses --------------------------------------------------------------

FORTRESS_PLAIN = {
    (1,): "1",
    (1, 1): "5^1",
    (2,): "2^2",
    (1, 1, 1): "2^1 * 5^2",
    (1, 2): "2^3 * 5^1",
    (2, 1): "2^2 * 5^1",
    (3,): "2^4",
}

FORTRESS_BAR = {
    (1, 1, 1): "5^2",
    (1, 2): "2^2 * 5^1",
    (2, 1): "2^3 * 5^1",
    (3,): "2^5",
}


def test_fortress_counts_frozen():
    for parts, want in FORTRESS_PLAIN.items():
        assert str(fortress_count(parts)) == want
    for parts, want in FORTRESS_BAR.items():
        assert str(fortress_count(parts, "bar")) == want


def test_fortress_closed_equals_route_exhaustively():
    # check=True forces the reduction re-derivation regardless of order
    for total in range(1, 6):
        for parts in _compositions(total):
            for variant in ("plain", "bar"):
                fortress_count(parts, variant, check=True)


def test_fortress_variants_complement():
    # complementing swaps which cities are extended; the count keeps its
    # power of 5 and changes only by a (possibly negative) power of 2
    for parts in [(1, 1, 1), (2, 1), (1, 2), (3,), (1, 1, 1, 1, 1), (2, 2)]:
        plain = fortress_count(parts)
        bar = fortress_count(parts, "bar")
        assert plain.exponent(5) == bar.exponent(5)
        ratio = plain.value() / bar.value()
        assert ratio.numerator & (ratio.numerator - 1) == 0
        assert ratio.denominator & (ratio.denominator - 1) == 0


def test_unit_band_fortresses_follow_the_power_law():
    for m in range(1, 41):
        assert yang_fortress(m).value() == fortress_count((1,) * m).value()


def test_yang_fortress_frozen():
    want = ["1", "5^1", "2 * 5^2", "5^4", "5^6", "5^9", "2 * 5^12", "5^16"]
    assert [str(yang_fortress(m)) for m in range(1, 9)] == want


def test_fortress_pattern_formula_matches_banded_reduction():
    from tilecount.patterns import composition_bands

    rng = random.Random(5)
    for total in range(1, 5):
        for parts in _compositions(total):
            a = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            b = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            want = evaluate(composition_bands(parts, a, b), sum(parts))
            assert fortress_pattern_formula(a, b, parts) == want


def test_fortress_gen_fn_specializes_to_the_plain_count():
    # at a = 1/2, b = 1 the reweighted dual graph is the all-ones one
    for parts in FORTRESS_PLAIN:
        assert fortress_gen_fn(parts, Fraction(1, 2), 1) == fortress_count(
            parts
        ).value()


def test_fortress_gen_fn_matches_reweighted_oracle():
    from tilecount.regions import build_fortress_graph
    from tilecount import WeightedGraph, matching_gen_fn

    a, b = Fraction(1), Fraction(2)
    for parts in [(1,), (1, 1), (2,)]:
        g, cities = build_fortress_graph(parts, with_cities=True)
        city_vertices = {
            v for spec in cities for v in spec.equator + spec.north + spec.south
        }
        h = WeightedGraph()
        for vid in g.vertices():
            h.add_vertex(vid, g.coord(vid))
        for u, v, w in g.edges():
            inside = (u in city_vertices) + (v in city_vertices)
            weight = 1 / (2 * a) if inside == 2 else (1 if inside == 1 else b)
            h.add_edge(u, v, weight)
        assert matching_gen_fn(h) == fortress_gen_fn(parts, a, b)


def test_fortress_rejects_bad_variant():
    with pytest.raises(ValueError):
        fortress_count((1, 1), "mirror")


# -- weighted row families ---------------------------------------------------


def test_weighted_rows_matches_reduction_both_parities():
    rng = random.Random(7)
    for n in range(2, 8):
        vecs = [
            [Fraction(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(n)]
            for _ in range(4)
        ]
        a, b, c, d = vecs
        assert weighted_rows_formula(a, b, c, d) == evaluate(four_row(a, b, c, d), n)


def test_weighted_rows_frozen():
    assert weighted_rows_formula([1, 1, 1], [2, 2, 2], [1, 1, 1], [1, 1, 1]) == 1152


def test_quad_closed_form():
    rng = random.Random(13)
    for _ in range(6):
        a, b, c, d = (Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(4))
        n = rng.randint(1, 5)
        assert abcd_formula(a, b, c, d, n) == evaluate(quad(a, b, c, d), n)
    assert abcd_formula(1, 2, 3, 1, 2) == 275


def test_doubled_blocks_closed_form():
    rng = random.Random(17)
    for _ in range(5):
        n = rng.randint(1, 4)
        vecs = [
            [Fraction(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(n)]
            for _ in range(4)
        ]
        a, b, c, d = vecs
        from tilecount.patterns import doubled_blocks

        assert blockC_formula(a, b, c, d) == evaluate(doubled_blocks(a, b, c, d), n)
    assert blockC_formula([1, 1], [2, 1], [1, 3], [1, 1]) == Fraction(7, 12)


def test_eight_column_closed_form():
    rng = random.Random(19)
    for m in range(0, 9):
        ws = [Fraction(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(8)]
        assert n_pattern_value(*ws, m) == evaluate(eight_column(*ws), m)


# -- zigzags and brick walls --------------------------------------------------

ZIG_PLAIN = ["1", "1", "3^1", "3^3", "2 * 3^5", "2 * 3^8", "3^12", "3^16", "3^21"]
ZIG_BAR = ["1", "2", "2 * 3^1", "3^3", "3^5", "3^8", "3^12", "2 * 3^16", "2 * 3^21"]


def test_zigzag_counts_frozen():
    assert [str(zigzag_count(n)) for n in range(9)] == ZIG_PLAIN
    assert [str(zigzag_count(n, "bar")) for n in range(9)] == ZIG_BAR


def test_zigzag_closed_equals_route():
    for n in range(13):
        for variant in ("plain", "bar"):
            zigzag_count(n, variant, check=True)


def test_zigzag_variants_agree_at_multiples_of_three():
    for m in range(1, 5):
        assert zigzag_count(3 * m).value() == zigzag_count(3 * m, "bar").value()


def test_zigzag_recurrence_matches_reduction():
    for a, b in ((Fraction(1, 2), Fraction(1)), (Fraction(2), Fraction(3))):
        for n in range(3, 8):
            assert zig_recurrence(a, b, n) == evaluate(zig(a, b), n)
            assert zig_recurrence(a, b, n, "bar") == evaluate(zig(b, a), n)


BLUM = ["1", "2", "2 * 3^1", "2 * 3^1", "2 * 3^1", "2 * 3^1", "3^3", "2 * 3^5",
        "2 * 3^5", "2 * 3^5", "2 * 3^5", "3^8"]


def test_brick_counts_frozen():
    assert [str(blum_value(n)) for n in range(1, 13)] == BLUM


def test_brick_counts_plateau():
    for k in (1, 2, 3, 4):
        base = blum_value(5 * k - 2).value()
        for off in (1, 2, 3):
            assert blum_value(5 * k - 2 + off).value() == base


def test_brick_step_thirty_law():
    for n in range(31, 45):
        assert blum_recurrence_check(n)
    with pytest.raises(ValueError):
        blum_recurrence_check(30)


def test_brick_rejects_bad_order():
    with pytest.raises(ValueError):
        blum_value(0)


# -- square-lattice power families --------------------------------------------

S_FROZEN = {
    1: ["5", "37^1", "2 * 37^2", "7^1 * 37^3"],
    2: ["5", "7^1 * 2^2", "7^2 * 2^5", "7^3 * 2^10"],
    3: ["2^1", "2^4", "5 * 2^8", "7^1 * 2^14"],
    4: ["1", "31^1", "31^2", "2^1 * 5^1 * 31^3"],
}


def test_square_lattice_families_frozen():
    for family, want in S_FROZEN.items():
        assert [str(s_region_count(family, n)) for n in range(1, 5)] == want


def test_square_lattice_families_closed_equals_route():
    for family in (1, 2, 3, 4):
        for n in range(1, 7):
            s_region_count(family, n, check=True)
    with pytest.raises(ValueError):
        s_region_count(5, 1)


Q_FROZEN = ["2", "29^1", "5 * 3^2 * 29^2", "3^4 * 29^4", "2 * 3^6 * 29^6",
            "3^10 * 29^9"]


def test_octagon_counts_frozen():
    assert [str(q_count(n)) for n in range(1, 7)] == Q_FROZEN
    for n in range(1, 7):
        q_count(n, check=True)


TRI_FROZEN = ["3^2 * 2^4", "3^6 * 2^9", "3^12 * 2^16"]


def test_triangle_counts_frozen():
    assert [str(tri_count(n)) for n in range(1, 4)] == TRI_FROZEN
    for n in range(1, 5):
        tri_count(n, check=True)


def test_triangle_counts_follow_the_exponent_law():
    for n in range(1, 8):
        v = tri_count(n)
        assert v.exponent(3) == n * (n + 1)
        assert v.exponent(2) == (n + 1) ** 2
        assert v.unit == 1


# -- the default route-check policy -------------------------------------------

# each route-checked count, called as (order, check), with the largest
# order at which its check runs by default: tri's route runs at 2n
ROUTE_CHECKED = [
    ("fortress", lambda n, check: fortress_count((1,) * n, "bar", check), ROUTE_CHECK_LIMIT),
    ("zigzag", lambda n, check: zigzag_count(n, "bar", check), ROUTE_CHECK_LIMIT),
    *((f"s{f}", lambda n, check, f=f: s_region_count(f, n, check), ROUTE_CHECK_LIMIT)
      for f in (1, 2, 3, 4)),
    ("q", lambda n, check: q_count(n, check), ROUTE_CHECK_LIMIT),
    ("tri", lambda n, check: tri_count(n, check), ROUTE_CHECK_LIMIT // 2),
]


@pytest.mark.parametrize(
    "count, limit", [c[1:] for c in ROUTE_CHECKED], ids=[c[0] for c in ROUTE_CHECKED]
)
def test_route_check_runs_by_default_up_to_the_limit(monkeypatch, count, limit):
    # a wrong diamond value must be caught exactly where the check runs
    monkeypatch.setattr(formulas, "evaluate", lambda pattern, n: Fraction(-1))
    with pytest.raises(RouteMismatchError):
        count(limit, None)
    count(limit + 1, None)
    count(limit, False)
    with pytest.raises(RouteMismatchError):
        count(limit + 1, True)


def test_route_mismatch_error_is_a_runtime_error():
    assert issubclass(RouteMismatchError, RuntimeError)
