"""Weighted graphs, their matching generating function, and local rewrites.

The matching generating function of a finite graph G with rational edge
weights is

    M(G) = sum over perfect matchings of G of the product of edge weights,

with M(empty graph) = 1.  Tiling counts of lattice regions are values of M
on dual graphs, so everything downstream reduces to computing and
transforming M.  This module provides:

  * ``WeightedGraph`` — a multigraph with string vertex ids, optional planar
    coordinates, and Fraction weights;
  * ``matching_gen_fn`` — exact evaluation of M by the branch-and-memoize
    kernel in ``_matchcore``, the oracle every other route is checked
    against;
  * local rewrites (forced-edge elimination, vertex splitting, parallel
    merge, star scaling, urban renewal, city replacement), each returning a
    rewritten graph together with a receipt asserting
    ``M(before) == factor * M(after)``;
  * a plain text serialization.

Rewrites never mutate their input; they return a fresh graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import _matchcore

Coord = tuple[Fraction, Fraction]


def oracle_backend() -> str:
    """Name of the matching kernel: always 'pure', as there is only one.

    Kept because the benchmark records it with its environment; it goes
    when the benchmark stops reading it.
    """
    return "pure"


class WeightedGraph:
    """Undirected multigraph with rational edge weights.

    Vertex ids are nonempty strings without whitespace (the serialization
    is whitespace-delimited).  Parallel edges are kept as separate entries;
    zero-weight edges are legal (they arise from weight patterns with zero
    entries) and contribute nothing to any matching.
    """

    def __init__(self) -> None:
        self._coords: dict[str, Optional[Coord]] = {}
        self._edges: list[tuple[str, str, Fraction]] = []

    # -- construction -----------------------------------------------------

    def add_vertex(self, vid: str, coord: Optional[tuple] = None) -> None:
        if not isinstance(vid, str) or not vid or any(c.isspace() for c in vid):
            raise ValueError(f"bad vertex id: {vid!r}")
        if coord is not None:
            coord = (Fraction(coord[0]), Fraction(coord[1]))
        if vid in self._coords:
            if coord is not None and self._coords[vid] not in (None, coord):
                raise ValueError(f"vertex {vid} already placed elsewhere")
            if coord is not None:
                self._coords[vid] = coord
        else:
            self._coords[vid] = coord

    def add_edge(self, u: str, v: str, weight) -> None:
        if u == v:
            raise ValueError(f"loop at {u}: loops cannot occur in a matching")
        for vid in (u, v):
            if vid not in self._coords:
                self.add_vertex(vid)
        self._edges.append((u, v, Fraction(weight)))

    # -- inspection -------------------------------------------------------

    def vertices(self) -> list[str]:
        return list(self._coords)

    def edges(self) -> list[tuple[str, str, Fraction]]:
        return list(self._edges)

    def has_vertex(self, vid: str) -> bool:
        return vid in self._coords

    def coord(self, vid: str) -> Optional[Coord]:
        return self._coords[vid]

    def neighbors(self, vid: str) -> list[tuple[str, Fraction]]:
        """Incident (other endpoint, weight) pairs, one per parallel edge."""
        out = []
        for u, v, w in self._edges:
            if u == vid:
                out.append((v, w))
            elif v == vid:
                out.append((u, w))
        return out

    def degree(self, vid: str) -> int:
        return len(self.neighbors(vid))

    def edge_count(self) -> int:
        return len(self._edges)

    def vertex_count(self) -> int:
        return len(self._coords)

    # -- modification (used by rewrites on copies) ------------------------

    def remove_vertex(self, vid: str) -> None:
        del self._coords[vid]
        self._edges = [e for e in self._edges if vid not in (e[0], e[1])]

    def copy(self) -> "WeightedGraph":
        g = WeightedGraph()
        g._coords = dict(self._coords)
        g._edges = list(self._edges)
        return g

    def relabeled(self, mapping: dict[str, str]) -> "WeightedGraph":
        """New graph with every vertex id passed through ``mapping``."""
        g = WeightedGraph()
        for vid, coord in self._coords.items():
            g.add_vertex(mapping.get(vid, vid), coord)
        for u, v, w in self._edges:
            g.add_edge(mapping.get(u, u), mapping.get(v, v), w)
        return g

    # -- equality: same vertices/coords, same edge multiset ---------------

    def _edge_multiset(self):
        out = {}
        for u, v, w in self._edges:
            key = (min(u, v), max(u, v), w)
            out[key] = out.get(key, 0) + 1
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (
            self._coords == other._coords
            and self._edge_multiset() == other._edge_multiset()
        )

    def __repr__(self) -> str:
        return (
            f"WeightedGraph({self.vertex_count()} vertices, "
            f"{self.edge_count()} edges)"
        )


# -- matching generating function -----------------------------------------


def matching_gen_fn(g: WeightedGraph) -> Fraction:
    """M(g), exactly."""
    ids = g.vertices()
    index = {vid: i for i, vid in enumerate(ids)}
    adj: list[list[tuple[int, Fraction]]] = [[] for _ in ids]
    for u, v, w in g.edges():
        iu, iv = index[u], index[v]
        adj[iu].append((iv, w))
        adj[iv].append((iu, w))
    return _matchcore.matching_sum(adj)


# -- rewrites ---------------------------------------------------------------


@dataclass(frozen=True)
class RewriteReceipt:
    """Record of one rewrite: M(before) == factor * M(after)."""

    op: str
    factor: Fraction
    removed: tuple[str, ...] = ()
    added: tuple[str, ...] = ()


def eliminate_forced(g: WeightedGraph) -> tuple[WeightedGraph, Fraction]:
    """Strip forced edges: M(g) == factor * M(result).

    A vertex of degree one must be matched along its only edge; removing
    both endpoints multiplies M by that edge's weight.  Repeats until no
    degree-one vertex remains.  Isolated vertices are kept — a graph with
    an isolated vertex has M = 0, and so does factor * M(result) because
    the isolated vertex survives into the result.
    """
    g = g.copy()
    factor = Fraction(1)
    while True:
        forced = None
        for vid in g.vertices():
            nbrs = g.neighbors(vid)
            if len(nbrs) == 1:
                forced = (vid, nbrs[0][0], nbrs[0][1])
                break
        if forced is None:
            return g, factor
        vid, other, w = forced
        factor *= w
        g.remove_vertex(vid)
        g.remove_vertex(other)


def vertex_split(
    g: WeightedGraph, v: str, first: Iterable[str]
) -> tuple[WeightedGraph, RewriteReceipt]:
    """Split ``v`` into two copies joined through a fresh middle vertex.

    ``first`` names the neighbours whose edges follow the first copy; the
    rest follow the second.  Copies get ids ``v.L`` / ``v.R`` and the
    middle vertex ``v.M``, with unit edges L–M and R–M.  M is unchanged
    (factor 1): in any perfect matching the middle vertex pairs with
    whichever copy the original vertex's edge does not use.
    """
    first = set(first)
    nbrs = g.neighbors(v)
    nbr_ids = {u for u, _ in nbrs}
    if not first <= nbr_ids:
        raise ValueError(f"not neighbours of {v}: {sorted(first - nbr_ids)}")
    left, right, middle = f"{v}.L", f"{v}.R", f"{v}.M"
    for vid in (left, right, middle):
        if g.has_vertex(vid):
            raise ValueError(f"id collision: {vid}")
    out = g.copy()
    coord = out.coord(v)
    out.remove_vertex(v)
    for vid in (left, right, middle):
        out.add_vertex(vid, coord)
    out.add_edge(left, middle, 1)
    out.add_edge(right, middle, 1)
    for u, w in nbrs:
        out.add_edge(left if u in first else right, u, w)
    return out, RewriteReceipt(
        op="vertex_split",
        factor=Fraction(1),
        removed=(v,),
        added=(left, right, middle),
    )


def merge_parallel(g: WeightedGraph) -> tuple[WeightedGraph, RewriteReceipt]:
    """Collapse parallel edges, summing weights.  Factor 1."""
    out = WeightedGraph()
    for vid in g.vertices():
        out.add_vertex(vid, g.coord(vid))
    sums: dict[tuple[str, str], Fraction] = {}
    order: list[tuple[str, str]] = []
    for u, v, w in g.edges():
        key = (min(u, v), max(u, v))
        if key not in sums:
            sums[key] = Fraction(0)
            order.append(key)
        sums[key] += w
    for u, v in order:
        out.add_edge(u, v, sums[(u, v)])
    return out, RewriteReceipt(op="merge_parallel", factor=Fraction(1))


def star_scale(
    g: WeightedGraph, v: str, t
) -> tuple[WeightedGraph, RewriteReceipt]:
    """Multiply every edge at ``v`` by ``t``: M(before) == (1/t) * M(after).

    Every perfect matching uses exactly one edge at ``v``, so scaling the
    whole star scales M by t.
    """
    t = Fraction(t)
    if t == 0:
        raise ValueError("scale factor must be nonzero")
    if not g.has_vertex(v):
        raise ValueError(f"no such vertex: {v}")
    out = WeightedGraph()
    for vid in g.vertices():
        out.add_vertex(vid, g.coord(vid))
    for a, b, w in g.edges():
        out.add_edge(a, b, w * t if v in (a, b) else w)
    return out, RewriteReceipt(op="star_scale", factor=Fraction(1) / t)


def _check_cycle(g: WeightedGraph, cycle: Sequence[str]) -> list[Fraction]:
    """Weights along a 4-cycle w1-w2-w3-w4-w1; exactly one edge per side."""
    weights = []
    for i in range(4):
        a, b = cycle[i], cycle[(i + 1) % 4]
        found = [w for u, w in g.neighbors(a) if u == b]
        if len(found) != 1:
            raise ValueError(f"need exactly one edge {a}-{b}")
        weights.append(found[0])
    return weights


def _check_leg(g: WeightedGraph, outer: str, inner: str) -> None:
    found = [w for u, w in g.neighbors(outer) if u == inner]
    if len(found) != 1 or found[0] != 1:
        raise ValueError(f"need exactly one unit edge {outer}-{inner}")


def _inner_degree_check(
    g: WeightedGraph, allowed: dict[str, set[str]]
) -> None:
    """Each inner vertex may touch only its own partners.

    A stray edge — to the host, to another leg's port, or across the
    figure — would survive in no replacement edge, so the factor would be
    wrong; the counts of the allowed edges themselves are pinned by the
    exactly-one checks of the caller.
    """
    for v, partners in allowed.items():
        for u, _ in g.neighbors(v):
            if u not in partners:
                raise ValueError(
                    f"inner vertex {v} has an edge leaving the figure (to {u})"
                )


def urban_renewal(
    g: WeightedGraph,
    outer: Sequence[str],
    inner: Sequence[str],
    variant: str = "a",
) -> tuple[WeightedGraph, RewriteReceipt]:
    """Replace a small attached figure, preserving M up to the receipt factor.

    Variant "a": ``inner = (w1, w2, w3, w4)`` is a 4-cycle with weights
    x = w1w2, y = w2w3, z = w3w4, t = w4w1, attached to the rest of the
    graph only through unit legs A-w1, B-w2, C-w3, D-w4 with
    ``outer = (A, B, C, D)``.  The figure is replaced by the 4-cycle
    A-B = z/D, B-C = t/D, C-D = x/D, D-A = y/D where D = xz + yt, and
    M(before) == D * M(after).

    Variant "b": inner is a unit path u-v-w with unit legs A-u, B-v, C-w.
    Replaced by a fresh vertex ``v.ur`` joined to A and C with weight 1/2,
    plus edges B-A and B-C of weight 1/2.  Factor 2.

    Variant "c": inner is a unit 4-cycle (w1, w2, w3, w4) with unit legs
    A-w1, B-w2 at adjacent corners, ``outer = (A, B)``, and w3, w4 attached
    nowhere else.  Replaced by the path A - w1.ur - w2.ur - B with weights
    1/2, 1, 1.  Factor 2.
    """
    if variant == "a":
        if len(outer) != 4 or len(inner) != 4:
            raise ValueError("variant 'a' takes 4 outer and 4 inner vertices")
        x, y, z, t = _check_cycle(g, inner)
        for o, i in zip(outer, inner):
            _check_leg(g, o, i)
        w1, w2, w3, w4 = inner
        _inner_degree_check(
            g,
            {
                w1: {w2, w4, outer[0]},
                w2: {w1, w3, outer[1]},
                w3: {w2, w4, outer[2]},
                w4: {w3, w1, outer[3]},
            },
        )
        delta = x * z + y * t
        if delta == 0:
            raise ValueError("degenerate cell: xz + yt == 0")
        out = g.copy()
        for v in inner:
            out.remove_vertex(v)
        a, b, c, d = outer
        out.add_edge(a, b, z / delta)
        out.add_edge(b, c, t / delta)
        out.add_edge(c, d, x / delta)
        out.add_edge(d, a, y / delta)
        return out, RewriteReceipt(
            op="urban_renewal.a", factor=delta, removed=tuple(inner)
        )

    if variant == "b":
        if len(outer) != 3 or len(inner) != 3:
            raise ValueError("variant 'b' takes 3 outer and 3 inner vertices")
        u, v, w = inner
        for a, b in ((u, v), (v, w)):
            found = [wt for q, wt in g.neighbors(a) if q == b]
            if len(found) != 1 or found[0] != 1:
                raise ValueError(f"need exactly one unit edge {a}-{b}")
        if any(True for q, _ in g.neighbors(u) if q == w):
            raise ValueError("path endpoints must not be adjacent")
        for o, i in zip(outer, inner):
            _check_leg(g, o, i)
        a, b, c = outer
        _inner_degree_check(
            g, {u: {v, a}, v: {u, w, b}, w: {v, c}}
        )
        fresh = f"{v}.ur"
        if g.has_vertex(fresh):
            raise ValueError(f"id collision: {fresh}")
        out = g.copy()
        coord = out.coord(v)
        for q in inner:
            out.remove_vertex(q)
        out.add_vertex(fresh, coord)
        half = Fraction(1, 2)
        out.add_edge(fresh, a, half)
        out.add_edge(fresh, c, half)
        out.add_edge(b, a, half)
        out.add_edge(b, c, half)
        return out, RewriteReceipt(
            op="urban_renewal.b",
            factor=Fraction(2),
            removed=tuple(inner),
            added=(fresh,),
        )

    if variant == "c":
        if len(outer) != 2 or len(inner) != 4:
            raise ValueError("variant 'c' takes 2 outer and 4 inner vertices")
        weights = _check_cycle(g, inner)
        if any(w != 1 for w in weights):
            raise ValueError("variant 'c' needs a unit 4-cycle")
        w1, w2, w3, w4 = inner
        a, b = outer
        _check_leg(g, a, w1)
        _check_leg(g, b, w2)
        _inner_degree_check(
            g,
            {
                w1: {w2, w4, a},
                w2: {w1, w3, b},
                w3: {w2, w4},
                w4: {w3, w1},
            },
        )
        d1, d2 = f"{w1}.ur", f"{w2}.ur"
        for vid in (d1, d2):
            if g.has_vertex(vid):
                raise ValueError(f"id collision: {vid}")
        out = g.copy()
        c1, c2 = out.coord(w1), out.coord(w2)
        for q in inner:
            out.remove_vertex(q)
        out.add_vertex(d1, c1)
        out.add_vertex(d2, c2)
        out.add_edge(a, d1, Fraction(1, 2))
        out.add_edge(d1, d2, 1)
        out.add_edge(d2, b, 1)
        return out, RewriteReceipt(
            op="urban_renewal.c",
            factor=Fraction(2),
            removed=tuple(inner),
            added=(d1, d2),
        )

    raise ValueError(f"unknown variant: {variant!r}")


def city_replace(
    g: WeightedGraph,
    equator: Sequence[str],
    north: Sequence[str],
    south: Sequence[str],
) -> tuple[WeightedGraph, RewriteReceipt]:
    """Replace an extended city of order k by a regular city on its ports.

    The extended city consists of equator vertices e_0..e_k and tip
    vertices n_1..n_k, s_1..s_k forming k diamonds (edges e_{i-1}-n_i,
    n_i-e_i, e_{i-1}-s_i, s_i-e_i), all of one weight x, plus one pendant
    edge of weight 1 from each of e_0, e_k, n_i, s_i to its port vertex
    outside the city; interior equator vertices have no outside edges.
    The weight-1 pendants are forced: they are the legs of the star
    rewrites that absorb the city, so a pendant of any other weight would
    change the factor below.

    The city and its pendants are removed and the ports are joined into a
    regular city of the same order: a chain of k diamonds on the ports
    with k-1 fresh interior equator vertices (ids ``<e_i>.rc``), all edges
    of weight 1/(2x).  M(before) == (2 x^2)^k * M(after).
    """
    k = len(north)
    if len(south) != k or len(equator) != k + 1 or k < 1:
        raise ValueError("need |equator| == k+1 == |north|+1 == |south|+1, k >= 1")
    city = list(equator) + list(north) + list(south)
    if len(set(city)) != len(city):
        raise ValueError("city vertices must be distinct")
    cityset = set(city)

    x = None
    for i in range(1, k + 1):
        for a, b in (
            (equator[i - 1], north[i - 1]),
            (north[i - 1], equator[i]),
            (equator[i - 1], south[i - 1]),
            (south[i - 1], equator[i]),
        ):
            found = [w for u, w in g.neighbors(a) if u == b]
            if len(found) != 1:
                raise ValueError(f"need exactly one diamond edge {a}-{b}")
            if x is None:
                x = found[0]
            elif found[0] != x:
                raise ValueError("diamond edges must share one weight")
    if x == 0:
        raise ValueError("city weight must be nonzero")

    # Pendants: one per boundary city vertex, weight 1.
    ports: dict[str, str] = {}
    boundary = [equator[0], equator[k]] + list(north) + list(south)
    for v in boundary:
        outside = [(u, w) for u, w in g.neighbors(v) if u not in cityset]
        if len(outside) != 1 or outside[0][1] != 1:
            raise ValueError(f"city vertex {v} needs exactly one pendant of weight 1")
        ports[v] = outside[0][0]
    for v in equator[1:k]:
        if any(u not in cityset for u, _ in g.neighbors(v)):
            raise ValueError(f"interior equator vertex {v} must have no outside edges")
    if len(set(ports.values())) != len(ports):
        raise ValueError("ports must be distinct")

    fresh = [f"{equator[i]}.rc" for i in range(1, k)]
    for vid in fresh:
        if g.has_vertex(vid):
            raise ValueError(f"id collision: {vid}")

    out = g.copy()
    coords = {v: out.coord(v) for v in equator[1:k]}
    for v in city:
        out.remove_vertex(v)
    for vid, old in zip(fresh, equator[1:k]):
        out.add_vertex(vid, coords[old])
    new_equator = [ports[equator[0]]] + fresh + [ports[equator[k]]]
    w = 1 / (2 * x)
    for i in range(1, k + 1):
        out.add_edge(new_equator[i - 1], ports[north[i - 1]], w)
        out.add_edge(ports[north[i - 1]], new_equator[i], w)
        out.add_edge(new_equator[i - 1], ports[south[i - 1]], w)
        out.add_edge(ports[south[i - 1]], new_equator[i], w)
    return out, RewriteReceipt(
        op="city_replace",
        factor=(2 * x * x) ** k,
        removed=tuple(city),
        added=tuple(fresh),
    )


# -- serialization ----------------------------------------------------------


def _fmt_frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def to_text(g: WeightedGraph) -> str:
    """Serialize: one ``v <id> [x y]`` line per vertex, then ``e <u> <v>
    <num>/<den>`` per edge, in insertion order."""
    lines = []
    for vid in g.vertices():
        coord = g.coord(vid)
        if coord is None:
            lines.append(f"v {vid}")
        else:
            lines.append(f"v {vid} {_fmt_frac(coord[0])} {_fmt_frac(coord[1])}")
    for u, v, w in g.edges():
        lines.append(f"e {u} {v} {_fmt_frac(w)}")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> WeightedGraph:
    """Parse the ``to_text`` format.  Unknown records and malformed lines
    raise ValueError with the line number."""
    g = WeightedGraph()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "v" and len(parts) == 2:
                g.add_vertex(parts[1])
            elif parts[0] == "v" and len(parts) == 4:
                g.add_vertex(parts[1], (Fraction(parts[2]), Fraction(parts[3])))
            elif parts[0] == "e" and len(parts) == 4:
                if not g.has_vertex(parts[1]) or not g.has_vertex(parts[2]):
                    raise ValueError("edge references undeclared vertex")
                g.add_edge(parts[1], parts[2], Fraction(parts[3]))
            else:
                raise ValueError(f"unrecognized record {parts[0]!r}")
        except (ValueError, ZeroDivisionError, IndexError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return g
