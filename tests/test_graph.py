"""Laws of the matching generating function and the local rewrites.

  * M(empty) = 1, M(odd graph) = 0, and M sums weight products over
    perfect matchings — checked on graphs small enough to enumerate by
    hand;
  * the oracle agrees with a brute-force sum over edge subsets on
    arbitrary small multigraphs, zero weights included;
  * every rewrite receipt is sound: M(before) == factor * M(after),
    checked by the oracle on explicit figures (randomized embeddings are
    exercised separately by the verification suites);
  * serialization round-trips.
"""

import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from tilecount import (
    WeightedGraph,
    city_replace,
    eliminate_forced,
    from_text,
    matching_gen_fn,
    merge_parallel,
    star_scale,
    to_text,
    urban_renewal,
    vertex_split,
)


def _graph(edges, vertices=()):
    g = WeightedGraph()
    for v in vertices:
        g.add_vertex(v)
    for u, v, w in edges:
        g.add_edge(u, v, w)
    return g


# -- the generating function itself -----------------------------------------


def test_empty_graph_counts_one():
    assert matching_gen_fn(WeightedGraph()) == 1


def test_single_edge():
    g = _graph([("a", "b", Fraction(3, 7))])
    assert matching_gen_fn(g) == Fraction(3, 7)


def test_odd_graph_counts_zero():
    g = _graph([("a", "b", 1), ("b", "c", 1)])
    assert matching_gen_fn(g) == 0


def test_isolated_vertex_kills_count():
    g = _graph([("a", "b", 5)], vertices=["z"])
    assert matching_gen_fn(g) == 0


def test_four_cycle():
    # two matchings: opposite edge pairs
    g = _graph([("a", "b", 2), ("b", "c", 3), ("c", "d", 5), ("d", "a", 7)])
    assert matching_gen_fn(g) == 2 * 5 + 3 * 7


def test_complete_graph_on_four():
    g = _graph(
        [
            ("a", "b", 1),
            ("a", "c", 2),
            ("a", "d", 3),
            ("b", "c", 5),
            ("b", "d", 7),
            ("c", "d", 11),
        ]
    )
    # pairings: ab|cd, ac|bd, ad|bc
    assert matching_gen_fn(g) == 1 * 11 + 2 * 7 + 3 * 5


def test_parallel_edges_count_separately():
    g = _graph([("a", "b", 2), ("a", "b", 3)])
    assert matching_gen_fn(g) == 5


def test_zero_weight_edge_contributes_nothing():
    g = _graph([("a", "b", 0)])
    assert matching_gen_fn(g) == 0


def test_long_forced_chain_keeps_the_recursion_limit():
    # the pure kernel recurses once per forced edge; it may raise the
    # interpreter's recursion limit while it runs, but must put it back
    limit = sys.getrecursionlimit()
    path = _graph([(f"v{i}", f"v{i + 1}", 1) for i in range(1199)])
    assert matching_gen_fn(path) == 1
    assert sys.getrecursionlimit() == limit


edge_lists = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.integers(0, 5),
        st.fractions(min_value=0, max_value=4, max_denominator=4),
    ),
    max_size=12,
)


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_kernels_agree(edges):
    g = WeightedGraph()
    for i, j, w in edges:
        if i != j:
            g.add_edge(f"v{i}", f"v{j}", w)
    assert matching_gen_fn(g) == _brute_force_matching_sum(g)


def _brute_force_matching_sum(g):
    # every set of |V|/2 edges that covers each vertex once is a perfect
    # matching; parallel edges are distinct entries of g.edges()
    vertices = set(g.vertices())
    total = Fraction(0)
    for chosen in combinations(g.edges(), len(vertices) // 2):
        ends = [x for u, v, _ in chosen for x in (u, v)]
        if len(set(ends)) == len(ends) == len(vertices):
            term = Fraction(1)
            for _, _, w in chosen:
                term *= w
            total += term
    return total


# -- graph plumbing ----------------------------------------------------------


def test_loops_rejected():
    g = WeightedGraph()
    with pytest.raises(ValueError):
        g.add_edge("a", "a", 1)


def test_bad_vertex_ids_rejected():
    g = WeightedGraph()
    for bad in ("", "a b", None):
        with pytest.raises(ValueError):
            g.add_vertex(bad)


def test_conflicting_coordinates_rejected():
    g = WeightedGraph()
    g.add_vertex("a", (0, 0))
    g.add_vertex("a", (0, 0))  # same placement is fine
    with pytest.raises(ValueError):
        g.add_vertex("a", (1, 0))


def test_copy_is_independent():
    g = _graph([("a", "b", 1)])
    h = g.copy()
    h.add_edge("a", "c", 2)
    assert g.edge_count() == 1
    assert not g.has_vertex("c")


def test_relabeled_preserves_count():
    g = _graph([("a", "b", 2), ("b", "c", 3), ("c", "d", 5), ("d", "a", 7)])
    h = g.relabeled({"a": "x", "c": "y"})
    assert h.has_vertex("x") and not h.has_vertex("a")
    assert matching_gen_fn(h) == matching_gen_fn(g)


def test_remove_vertex_drops_incident_edges():
    g = _graph([("a", "b", 1), ("b", "c", 1), ("c", "a", 1)])
    g.remove_vertex("b")
    assert g.edges() == [("c", "a", Fraction(1))]


# -- serialization -----------------------------------------------------------


def test_text_round_trip():
    g = WeightedGraph()
    g.add_vertex("a", (Fraction(1, 2), Fraction(-3, 2)))
    g.add_vertex("b")
    g.add_edge("a", "b", Fraction(2, 3))
    g.add_edge("a", "b", 1)
    assert from_text(to_text(g)) == g


def test_from_text_skips_comments_and_blanks():
    g = from_text("# header\n\nv a\nv b\ne a b 1/2\n")
    assert matching_gen_fn(g) == Fraction(1, 2)


def test_from_text_reports_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        from_text("v a\nq a\n")
    with pytest.raises(ValueError, match="undeclared"):
        from_text("v a\ne a b 1\n")


# -- rewrites ----------------------------------------------------------------


def test_eliminate_forced_strips_pendant_chain():
    g = _graph([("a", "b", 2), ("b", "c", 3), ("c", "d", 5)])
    out, factor = eliminate_forced(g)
    assert factor == 10  # a-b forced, then c-d forced
    assert out.vertex_count() == 0
    assert factor * matching_gen_fn(out) == matching_gen_fn(g)


def test_eliminate_forced_keeps_isolated_vertices():
    g = _graph([("a", "b", 5)], vertices=["z"])
    out, factor = eliminate_forced(g)
    assert out.has_vertex("z")
    assert factor * matching_gen_fn(out) == matching_gen_fn(g) == 0


def test_vertex_split_receipt():
    g = _graph(
        [("a", "b", 2), ("b", "c", 3), ("c", "d", 5), ("d", "a", 7), ("a", "c", 11)]
    )
    out, receipt = vertex_split(g, "a", first=["b"])
    assert receipt.factor == 1
    for vid in ("a.L", "a.R", "a.M"):
        assert out.has_vertex(vid)
    assert matching_gen_fn(out) == matching_gen_fn(g)


def test_vertex_split_rejects_strangers():
    g = _graph([("a", "b", 1), ("c", "d", 1)])
    with pytest.raises(ValueError):
        vertex_split(g, "a", first=["c"])


def test_merge_parallel_receipt():
    g = _graph([("a", "b", 2), ("a", "b", 3), ("b", "c", 1), ("c", "d", 4)])
    out, receipt = merge_parallel(g)
    assert receipt.factor == 1
    assert out.edge_count() == 3
    assert matching_gen_fn(out) == matching_gen_fn(g)


def test_star_scale_receipt():
    g = _graph([("a", "b", 2), ("b", "c", 3), ("c", "d", 5), ("d", "a", 7)])
    t = Fraction(3, 4)
    out, receipt = star_scale(g, "b", t)
    assert receipt.factor == Fraction(1) / t
    assert matching_gen_fn(g) == receipt.factor * matching_gen_fn(out)


def test_star_scale_rejects_zero():
    g = _graph([("a", "b", 1)])
    with pytest.raises(ValueError):
        star_scale(g, "a", 0)


def _cell_figure():
    """A weighted 4-cycle w1..w4 hung by unit legs from A, B, C, D, with
    extra host edges A-B and C-D so both sides have matchings."""
    return _graph(
        [
            ("w1", "w2", 2),
            ("w2", "w3", 3),
            ("w3", "w4", 5),
            ("w4", "w1", 7),
            ("A", "w1", 1),
            ("B", "w2", 1),
            ("C", "w3", 1),
            ("D", "w4", 1),
            ("A", "B", 2),
            ("C", "D", 3),
        ]
    )


def test_urban_renewal_cell():
    g = _cell_figure()
    out, receipt = urban_renewal(g, ("A", "B", "C", "D"), ("w1", "w2", "w3", "w4"))
    # side weights x=2, y=3, z=5, t=7
    assert receipt.factor == 2 * 5 + 3 * 7
    assert matching_gen_fn(g) == receipt.factor * matching_gen_fn(out)


def test_urban_renewal_requires_unit_legs():
    g = _cell_figure()
    bad = _graph(g.edges())
    bad.remove_vertex("A")
    bad.add_edge("A", "w1", 2)  # non-unit leg
    bad.add_edge("A", "B", 2)
    with pytest.raises(ValueError):
        urban_renewal(bad, ("A", "B", "C", "D"), ("w1", "w2", "w3", "w4"))


def test_urban_renewal_rejects_escaping_inner_edge():
    g = _cell_figure()
    g.add_edge("w1", "C", 1)  # inner vertex touching another leg's port
    with pytest.raises(ValueError):
        urban_renewal(g, ("A", "B", "C", "D"), ("w1", "w2", "w3", "w4"))


def test_urban_renewal_rejects_cell_diagonal():
    g = _cell_figure()
    g.add_edge("w1", "w3", 1)  # not part of the 4-cycle being replaced
    with pytest.raises(ValueError):
        urban_renewal(g, ("A", "B", "C", "D"), ("w1", "w2", "w3", "w4"))


def test_urban_renewal_path():
    g = _graph(
        [
            ("u", "v", 1),
            ("v", "w", 1),
            ("A", "u", 1),
            ("B", "v", 1),
            ("C", "w", 1),
            ("A", "B", 2),
            ("B", "C", 7),
            ("A", "C", 5),
        ]
    )
    out, receipt = urban_renewal(g, ("A", "B", "C"), ("u", "v", "w"), variant="b")
    assert receipt.factor == 2
    assert matching_gen_fn(g) == 10
    assert matching_gen_fn(g) == receipt.factor * matching_gen_fn(out)


def test_urban_renewal_path_rejects_stray_edge():
    g = _graph(
        [
            ("u", "v", 1),
            ("v", "w", 1),
            ("A", "u", 1),
            ("B", "v", 1),
            ("C", "w", 1),
            ("A", "B", 2),
            ("u", "C", 1),  # endpoint touching the far port
        ]
    )
    with pytest.raises(ValueError):
        urban_renewal(g, ("A", "B", "C"), ("u", "v", "w"), variant="b")


def test_urban_renewal_corner():
    g = _graph(
        [
            ("w1", "w2", 1),
            ("w2", "w3", 1),
            ("w3", "w4", 1),
            ("w4", "w1", 1),
            ("A", "w1", 1),
            ("B", "w2", 1),
            ("A", "B", 3),
        ]
    )
    out, receipt = urban_renewal(g, ("A", "B"), ("w1", "w2", "w3", "w4"), variant="c")
    assert receipt.factor == 2
    assert matching_gen_fn(g) == 7
    assert matching_gen_fn(g) == receipt.factor * matching_gen_fn(out)


def _city_figure(x):
    """An order-2 extended city (equator e0-e2, tips n1 n2 s1 s2, diamond
    weight x) with unit pendants to ports, plus one host edge so the
    vertex count is even."""
    g = WeightedGraph()
    for i in (1, 2):
        g.add_edge(f"e{i - 1}", f"n{i}", x)
        g.add_edge(f"n{i}", f"e{i}", x)
        g.add_edge(f"e{i - 1}", f"s{i}", x)
        g.add_edge(f"s{i}", f"e{i}", x)
    for v in ("e0", "e2", "n1", "n2", "s1", "s2"):
        g.add_edge(v, f"P{v}", 1)
    g.add_edge("Pe0", "h", 2)
    return g


def test_city_replace_receipt():
    x = Fraction(3, 2)
    g = _city_figure(x)
    out, receipt = city_replace(
        g, ("e0", "e1", "e2"), ("n1", "n2"), ("s1", "s2")
    )
    assert receipt.factor == (2 * x * x) ** 2
    assert out.has_vertex("e1.rc")
    assert matching_gen_fn(g) == receipt.factor * matching_gen_fn(out)
    # replacement edges all carry 1/(2x)
    assert {w for _, _, w in out.edges()} == {Fraction(1, 3), Fraction(2)}


def test_city_replace_requires_unit_pendants():
    g = _city_figure(Fraction(3, 2))
    bad = WeightedGraph()
    for u, v, w in g.edges():
        bad.add_edge(u, v, 2 if (u, v) == ("n1", "Pn1") else w)
    with pytest.raises(ValueError, match="pendant"):
        city_replace(bad, ("e0", "e1", "e2"), ("n1", "n2"), ("s1", "s2"))


def test_city_replace_requires_one_diamond_weight():
    g = _city_figure(Fraction(3, 2))
    bad = WeightedGraph()
    for u, v, w in g.edges():
        bad.add_edge(u, v, 7 if (u, v) == ("s2", "e2") else w)
    with pytest.raises(ValueError, match="share"):
        city_replace(bad, ("e0", "e1", "e2"), ("n1", "n2"), ("s1", "s2"))
