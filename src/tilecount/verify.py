"""Randomized cross-layer consistency suites.

Each suite pits two independent computation routes against each other on
a seeded case stream and emits one :class:`VerificationReport` per case:
the brute-force matching oracle against the reduction engine, product
formulas against reduction, closed counting forms against their
prefactor-times-pattern routes, and every local rewrite against the
oracle on random host graphs.  A clean run is strong evidence that no
single layer is wrong, because each layer is checked against a
differently-derived neighbour.

All randomness flows from one seed, so any failing case id can be
reproduced exactly.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from .aztec import (
    WeightMatrix,
    WeightPattern,
    delta_pattern,
    evaluate,
    evaluate_matrix,
    scale_cell_block,
    scale_pair_part,
    scale_separator_part,
    stanley_eval,
)
from .formulas import (
    abcd_formula,
    blockC_formula,
    blum_recurrence_check,
    blum_value,
    fortress_count,
    fortress_gen_fn,
    fortress_pattern_formula,
    fortress_route,
    n_pattern_value,
    q_count,
    q_route,
    s_region_count,
    s_region_route,
    tri_count,
    tri_route,
    weighted_rows_formula,
    yang_fortress,
    zig_recurrence,
    zigzag_count,
    zigzag_route,
)
from .graph import (
    WeightedGraph,
    city_replace,
    eliminate_forced,
    matching_gen_fn,
    merge_parallel,
    star_scale,
    urban_renewal,
    vertex_split,
)
from .patterns import (
    composition_bands,
    doubled_blocks,
    eight_column,
    four_row,
    quad,
    s_family_pattern,
    tri_pattern,
    two_row,
    zig,
)
from .regions import build_aztec_graph, build_brick_graph, build_fortress_graph

__all__ = [
    "ORACLE_ORDER_CEILING",
    "SUITE_NAMES",
    "VerificationReport",
    "format_report",
    "parse_record",
    "report_record",
    "run_suite",
]

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class VerificationReport:
    """One verified case: two routes to the same value, and whether they met."""

    suite: str
    case: str
    route_a: Fraction
    route_b: Fraction
    equal: bool
    runtime: float  # seconds spent computing both routes


def _report(suite: str, case: str, a: Fraction, b: Fraction, t0: float) -> VerificationReport:
    return VerificationReport(
        suite=suite,
        case=case,
        route_a=Fraction(a),
        route_b=Fraction(b),
        equal=a == b,
        runtime=time.perf_counter() - t0,
    )


def _frac_record(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def report_record(r: VerificationReport) -> str:
    """One whitespace-delimited line: suite, case, both values, equal flag."""
    eq = "1" if r.equal else "0"
    return f"{r.suite} {r.case} {_frac_record(r.route_a)} {_frac_record(r.route_b)} {eq}"


def parse_record(line: str) -> VerificationReport:
    """Inverse of :func:`report_record` (runtime is not recorded)."""
    fields = line.split()
    if len(fields) != 5 or fields[4] not in ("0", "1"):
        raise ValueError(f"malformed record: {line!r}")
    suite, case, a, b, eq = fields
    return VerificationReport(
        suite=suite,
        case=case,
        route_a=Fraction(a),
        route_b=Fraction(b),
        equal=eq == "1",
        runtime=0.0,
    )


def format_report(r: VerificationReport) -> str:
    """Human-oriented one-liner for a case."""
    mark = "ok  " if r.equal else "FAIL"
    detail = "" if r.equal else f"  {r.route_a} != {r.route_b}"
    return f"{mark} {r.suite:16s} {r.case:40s} {r.runtime * 1000:8.1f}ms{detail}"


# --------------------------------------------------------------------------
# random inputs


def _rfrac(rng: random.Random, lo: int = 1, hi: int = 6) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(lo, hi))


def _rvec(rng: random.Random, n: int) -> list[Fraction]:
    return [_rfrac(rng) for _ in range(n)]


def _rcomposition(rng: random.Random, total: int) -> tuple[int, ...]:
    parts = []
    left = total
    while left:
        d = rng.randint(1, left)
        parts.append(d)
        left -= d
    return tuple(parts)


def _compositions(total: int) -> Iterator[tuple[int, ...]]:
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def _parts_id(parts: Sequence[int]) -> str:
    return "+".join(str(d) for d in parts)


# --------------------------------------------------------------------------
# suite: oracle-vs-reduce


#: Highest diamond order the oracle-vs-reduce suite runs.  A random 4x4
#: pattern takes about 0.1 s in the oracle at order 6 (84 vertices) and
#: grows about fivefold per order.
ORACLE_ORDER_CEILING = 6


def _suite_oracle_vs_reduce(rng, n_cap, cases) -> Iterator[VerificationReport]:
    """Brute-force matching sums of diamond graphs vs the reduction engine."""
    n_cap = n_cap or 4
    cases = cases or 12
    for i in range(cases):
        t0 = time.perf_counter()
        rows = [[_rfrac(rng) for _ in range(4)] for _ in range(4)]
        pattern = WeightPattern(rows)
        n = rng.randint(1, n_cap)
        a = matching_gen_fn(build_aztec_graph(n, pattern))
        b = evaluate(pattern, n)
        yield _report("oracle-vs-reduce", f"pattern4x4-{i}[n={n}]", a, b, t0)


# --------------------------------------------------------------------------
# suite: stanley


def _suite_stanley(rng, n_cap, cases) -> Iterator[VerificationReport]:
    """Row-structured product formulas vs reduction."""
    n_cap = n_cap or 6
    cases = cases or 20
    for i in range(cases):
        t0 = time.perf_counter()
        length = rng.randint(1, max(1, n_cap // 2))
        vecs = [_rvec(rng, length) for _ in range(4)]
        pattern = two_row(*vecs)
        n = rng.randint(1, n_cap)  # deliberately allowed to exceed length
        a = stanley_eval(pattern, n)
        b = evaluate(pattern, n)
        yield _report("stanley", f"two-row-{i}[len={length},n={n}]", a, b, t0)
    for i in range(cases // 2):
        t0 = time.perf_counter()
        n = rng.randint(1, min(n_cap, 7))
        vecs = [_rvec(rng, n) for _ in range(4)]
        a = weighted_rows_formula(*vecs)
        b = evaluate(four_row(*vecs), n)
        yield _report("stanley", f"four-row-{i}[n={n}]", a, b, t0)


# --------------------------------------------------------------------------
# suite: fortress


def _fortress_oracle_value(parts, bar: bool) -> Fraction:
    return matching_gen_fn(build_fortress_graph(parts, bar=bar))


def _weighted_fortress_oracle(parts, a: Fraction, b: Fraction) -> Fraction:
    """Oracle for the generating function with city/pendant/plain weights."""
    g, cities = build_fortress_graph(parts, with_cities=True)
    city_vertices = set()
    diamond_pairs = set()
    for spec in cities:
        vs = list(spec.equator) + list(spec.north) + list(spec.south)
        city_vertices.update(vs)
        k = len(spec.north)
        for i in range(1, k + 1):
            for u, v in (
                (spec.equator[i - 1], spec.north[i - 1]),
                (spec.north[i - 1], spec.equator[i]),
                (spec.equator[i - 1], spec.south[i - 1]),
                (spec.south[i - 1], spec.equator[i]),
            ):
                diamond_pairs.add((min(u, v), max(u, v)))
    out = WeightedGraph()
    for vid in g.vertices():
        out.add_vertex(vid, g.coord(vid))
    for u, v, _ in g.edges():
        key = (min(u, v), max(u, v))
        if key in diamond_pairs:
            out.add_edge(u, v, 1 / (2 * a))
        elif u in city_vertices or v in city_vertices:
            out.add_edge(u, v, 1)  # pendant
        else:
            out.add_edge(u, v, b)
    return matching_gen_fn(out)


def _suite_fortress(rng, n_cap, cases) -> Iterator[VerificationReport]:
    """Fortress counts: closed forms vs pattern routes vs graph oracles."""
    n_cap = n_cap or 6
    cases = cases or 12
    # closed form vs prefactor * pattern value, random compositions
    for i in range(cases):
        t0 = time.perf_counter()
        parts = _rcomposition(rng, rng.randint(1, n_cap))
        variant = rng.choice(("plain", "bar"))
        a = fortress_count(parts, variant, check=False).value()
        b = fortress_route(parts, variant)
        yield _report("fortress", f"closed-{i}[{_parts_id(parts)},{variant}]", a, b, t0)
    # banded pattern product formula vs reduction, random weights
    for i in range(cases // 2):
        t0 = time.perf_counter()
        parts = _rcomposition(rng, rng.randint(1, n_cap))
        a_w, b_w = _rfrac(rng), _rfrac(rng)
        a = fortress_pattern_formula(a_w, b_w, parts)
        b = evaluate(composition_bands(parts, a_w, b_w), sum(parts))
        yield _report("fortress", f"pattern-{i}[{_parts_id(parts)}]", a, b, t0)
    # unit-band special case
    for m in range(1, 2 * n_cap + 1):
        t0 = time.perf_counter()
        a = yang_fortress(m).value()
        b = fortress_count((1,) * m, "plain", check=False).value()
        yield _report("fortress", f"unit-bands[m={m}]", a, b, t0)
    # graph oracle on every small fortress, both variants
    for total in range(1, 4):
        for parts in _compositions(total):
            for variant in ("plain", "bar"):
                t0 = time.perf_counter()
                a = _fortress_oracle_value(parts, variant == "bar")
                b = fortress_count(parts, variant, check=False).value()
                yield _report(
                    "fortress", f"oracle[{_parts_id(parts)},{variant}]", a, b, t0
                )
    # weighted generating function vs reweighted-graph oracle
    for i in range(min(cases // 2, 6)):
        t0 = time.perf_counter()
        parts = _rcomposition(rng, rng.randint(1, 3))
        a_w, b_w = _rfrac(rng, 1, 4), _rfrac(rng, 1, 4)
        a = fortress_gen_fn(parts, a_w, b_w)
        b = _weighted_fortress_oracle(parts, a_w, b_w)
        yield _report("fortress", f"gen-fn-{i}[{_parts_id(parts)}]", a, b, t0)


# --------------------------------------------------------------------------
# suite: zigzag


def _suite_zigzag(rng, n_cap, cases) -> Iterator[VerificationReport]:
    """Zigzag strip counts vs their pattern routes and recurrence."""
    n_cap = n_cap or 10
    for n in range(n_cap + 1):
        for variant in ("plain", "bar"):
            t0 = time.perf_counter()
            a = zigzag_count(n, variant, check=False).value()
            b = zigzag_route(n, variant)
            yield _report("zigzag", f"closed[n={n},{variant}]", a, b, t0)
    for m in range(n_cap // 3 + 1):
        t0 = time.perf_counter()
        a = zigzag_count(3 * m, "bar", check=False).value()
        b = zigzag_count(3 * m, "plain", check=False).value()
        yield _report("zigzag", f"bar-agrees[n={3 * m}]", a, b, t0)
    for n in range(3, min(n_cap, 7) + 1):
        for a_w, b_w in ((HALF, Fraction(1)), (Fraction(2), Fraction(3))):
            t0 = time.perf_counter()
            a = zig_recurrence(a_w, b_w, n)
            b = evaluate(zig(a_w, b_w), n)
            yield _report("zigzag", f"recurrence[n={n},a={a_w},b={b_w}]", a, b, t0)
            t0 = time.perf_counter()
            a = zig_recurrence(a_w, b_w, n, "bar")
            b = evaluate(zig(b_w, a_w), n)
            yield _report("zigzag", f"recurrence-bar[n={n},a={a_w},b={b_w}]", a, b, t0)


# --------------------------------------------------------------------------
# suite: blum


def _suite_blum(rng, n_cap, cases) -> Iterator[VerificationReport]:
    """Brick chain values vs graph oracles, plateaus and the step-30 law."""
    n_cap = n_cap or 6
    cases = cases or 12
    for n in range(1, n_cap + 1):
        t0 = time.perf_counter()
        a = matching_gen_fn(build_brick_graph(n, "2-3"))
        b = blum_value(n).value()
        yield _report("blum", f"oracle-2-3[n={n}]", a, b, t0)
    # the 2-1 chain meets the same values: C_1, C_2 match the reflected
    # strips of orders 1 and 2, C_4 and C_5 the plain strips of orders 3
    # and 4 (the smallest instances of the bridge identities)
    for m, order, variant in ((1, 1, "bar"), (2, 2, "bar"), (4, 3, "plain"), (5, 4, "plain")):
        t0 = time.perf_counter()
        a = matching_gen_fn(build_brick_graph(m, "2-1"))
        b = zigzag_count(order, variant, check=False).value()
        yield _report("blum", f"oracle-2-1[m={m},z={order},{variant}]", a, b, t0)
    # plateaus: four consecutive indices share one value
    for k in range(1, cases + 1):
        base = blum_value(5 * k - 2, check=False).value()
        for off in (1, 2, 3):
            t0 = time.perf_counter()
            a = blum_value(5 * k - 2 + off, check=False).value()
            yield _report("blum", f"plateau[k={k},n={5 * k - 2 + off}]", a, base, t0)
    # step-30 power-of-3 recurrence
    for n in range(31, 31 + max(cases, 31)):
        t0 = time.perf_counter()
        ok = blum_recurrence_check(n)
        one = Fraction(1)
        yield _report("blum", f"step30[n={n}]", one if ok else Fraction(0), one, t0)


# --------------------------------------------------------------------------
# suite: powers (square-lattice families, octagon region, 2x2 periodic)


def _suite_powers(rng, n_cap, cases) -> Iterator[VerificationReport]:
    """Near-perfect-power counts vs their prefactor-times-pattern routes."""
    n_cap = n_cap or 8
    cases = cases or 10
    for family in (1, 2, 3, 4):
        for n in range(n_cap + 1):
            t0 = time.perf_counter()
            a = s_region_count(family, n, check=False).value()
            b = s_region_route(family, n)
            yield _report("powers", f"family{family}[n={n}]", a, b, t0)
    for n in range(n_cap + 1):
        t0 = time.perf_counter()
        a = q_count(n, check=False).value()
        b = q_route(n)
        yield _report("powers", f"octagon[n={n}]", a, b, t0)
    for i in range(cases):
        t0 = time.perf_counter()
        w = [_rfrac(rng) for _ in range(4)]
        n = rng.randint(0, min(n_cap, 7))
        a = abcd_formula(*w, n)
        b = evaluate(quad(*w), n)
        yield _report("powers", f"quad-{i}[n={n}]", a, b, t0)


# --------------------------------------------------------------------------
# suite: npattern (multi-parameter product formulas)


def _suite_npattern(rng, n_cap, cases) -> Iterator[VerificationReport]:
    """Eight-parameter and vector-parameter formulas vs reduction."""
    n_cap = n_cap or 9
    cases = cases or 10
    for i in range(cases):
        t0 = time.perf_counter()
        w = [_rfrac(rng) for _ in range(8)]
        m = rng.randint(0, n_cap)
        a = n_pattern_value(*w, m)
        b = evaluate(eight_column(*w), m)
        yield _report("npattern", f"eight-{i}[m={m}]", a, b, t0)
    for i in range(cases):
        t0 = time.perf_counter()
        n = rng.randint(1, min(n_cap, 6))
        vecs = [_rvec(rng, n) for _ in range(4)]
        a = blockC_formula(*vecs)
        b = evaluate(doubled_blocks(*vecs), n)
        yield _report("npattern", f"blocks-{i}[n={n}]", a, b, t0)


# --------------------------------------------------------------------------
# suite: tri


def _suite_tri(rng, n_cap, cases) -> Iterator[VerificationReport]:
    """Bowtie-hexagon counts and the proportionality of its pattern orbit."""
    n_cap = n_cap or 4
    for n in range(n_cap + 1):
        t0 = time.perf_counter()
        a = tri_count(n, check=False).value()
        b = tri_route(n)
        yield _report("tri", f"closed[n={n}]", a, b, t0)
    for name, pattern, ratio in (
        ("bowtie", tri_pattern(), Fraction(9, 16)),
        ("family4", s_family_pattern(4), Fraction(40, 31)),
    ):
        out = pattern
        for _ in range(4):
            out = delta_pattern(out)
        for i in range(pattern.k):
            for j in range(pattern.l):
                t0 = time.perf_counter()
                a = out.rows[i][j]
                b = ratio * pattern.rows[i][j]
                yield _report("tri", f"orbit-{name}[{i},{j}]", a, b, t0)


# --------------------------------------------------------------------------
# suite: lemmas (local rewrites on random hosts, plus scaling contracts)


def _random_host(rng: random.Random, pairs: int) -> tuple[WeightedGraph, list[str]]:
    """Random connected-ish multigraph with a guaranteed perfect matching."""
    g = WeightedGraph()
    ids = [f"h{i}" for i in range(2 * pairs)]
    for i, vid in enumerate(ids):
        g.add_vertex(vid, (i % 4, i // 4))
    for i in range(0, 2 * pairs, 2):
        g.add_edge(ids[i], ids[i + 1], _rfrac(rng))
    for _ in range(2 * pairs):
        u, v = rng.sample(ids, 2)
        g.add_edge(u, v, _rfrac(rng))
    return g, ids


def _receipt_case(op: str, i: int, before: WeightedGraph, after: WeightedGraph,
                  factor: Fraction, t0: float) -> VerificationReport:
    a = matching_gen_fn(before)
    b = factor * matching_gen_fn(after)
    return _report("lemmas", f"{op}-{i}", a, b, t0)


def _case_forced(rng, i) -> VerificationReport:
    t0 = time.perf_counter()
    g, ids = _random_host(rng, rng.randint(3, 4))
    for p in range(rng.randint(1, 2)):
        g.add_vertex(f"p{p}a")
        g.add_vertex(f"p{p}b")
        g.add_edge(f"p{p}a", f"p{p}b", _rfrac(rng))
        g.add_edge(f"p{p}b", rng.choice(ids), _rfrac(rng))
    reduced, factor = eliminate_forced(g)
    return _receipt_case("forced", i, g, reduced, factor, t0)


def _case_split(rng, i) -> VerificationReport:
    t0 = time.perf_counter()
    g, ids = _random_host(rng, rng.randint(3, 4))
    candidates = [v for v in ids if g.degree(v) >= 2]
    v = rng.choice(candidates)
    nbrs = sorted({u for u, _ in g.neighbors(v)})
    take = rng.randint(1, max(1, len(nbrs) - 1))
    out, receipt = vertex_split(g, v, nbrs[:take])
    return _receipt_case("split", i, g, out, receipt.factor, t0)


def _case_merge(rng, i) -> VerificationReport:
    t0 = time.perf_counter()
    g, ids = _random_host(rng, rng.randint(3, 4))
    for _ in range(3):  # force parallel edges
        u, v = rng.sample(ids, 2)
        w = _rfrac(rng)
        g.add_edge(u, v, w)
        g.add_edge(u, v, _rfrac(rng))
    out, receipt = merge_parallel(g)
    return _receipt_case("merge", i, g, out, receipt.factor, t0)


def _case_star(rng, i) -> VerificationReport:
    t0 = time.perf_counter()
    g, ids = _random_host(rng, rng.randint(3, 4))
    out, receipt = star_scale(g, rng.choice(ids), _rfrac(rng))
    return _receipt_case("star", i, g, out, receipt.factor, t0)


def _case_cell(rng, i) -> VerificationReport:
    t0 = time.perf_counter()
    g, ids = _random_host(rng, 4)
    legs = rng.sample(ids, 4)
    inner = [f"w{j}" for j in range(4)]
    for j in range(4):
        g.add_edge(inner[j], inner[(j + 1) % 4], _rfrac(rng))
    for o, v in zip(legs, inner):
        g.add_edge(o, v, 1)
    out, receipt = urban_renewal(g, legs, inner, "a")
    return _receipt_case("cell", i, g, out, receipt.factor, t0)


def _case_path(rng, i) -> VerificationReport:
    t0 = time.perf_counter()
    g, ids = _random_host(rng, 4)
    legs = rng.sample(ids, 3)
    g.add_edge("u", "v", 1)
    g.add_edge("v", "w", 1)
    for o, v in zip(legs, ("u", "v", "w")):
        g.add_edge(o, v, 1)
    out, receipt = urban_renewal(g, legs, ("u", "v", "w"), "b")
    return _receipt_case("path", i, g, out, receipt.factor, t0)


def _case_corner(rng, i) -> VerificationReport:
    t0 = time.perf_counter()
    g, ids = _random_host(rng, 4)
    legs = rng.sample(ids, 2)
    inner = [f"w{j}" for j in range(4)]
    for j in range(4):
        g.add_edge(inner[j], inner[(j + 1) % 4], 1)
    g.add_edge(legs[0], inner[0], 1)
    g.add_edge(legs[1], inner[1], 1)
    out, receipt = urban_renewal(g, legs, inner, "c")
    return _receipt_case("corner", i, g, out, receipt.factor, t0)


def _case_city(rng, i) -> VerificationReport:
    t0 = time.perf_counter()
    k = rng.randint(1, 3)
    g, ids = _random_host(rng, k + 3)
    x = _rfrac(rng)
    equator = [f"e{j}" for j in range(k + 1)]
    north = [f"n{j}" for j in range(1, k + 1)]
    south = [f"s{j}" for j in range(1, k + 1)]
    for j in range(1, k + 1):
        g.add_edge(equator[j - 1], north[j - 1], x)
        g.add_edge(north[j - 1], equator[j], x)
        g.add_edge(equator[j - 1], south[j - 1], x)
        g.add_edge(south[j - 1], equator[j], x)
    boundary = [equator[0], equator[k]] + north + south
    ports = rng.sample(ids, len(boundary))
    for v, port in zip(boundary, ports):
        g.add_edge(v, port, 1)
    out, receipt = city_replace(g, equator, north, south)
    return _receipt_case("city", i, g, out, receipt.factor, t0)


_LEMMA_CASES: tuple[tuple[str, Callable], ...] = (
    ("forced", _case_forced),
    ("split", _case_split),
    ("merge", _case_merge),
    ("star", _case_star),
    ("cell", _case_cell),
    ("path", _case_path),
    ("corner", _case_corner),
    ("city", _case_city),
)


def _suite_lemmas(rng, n_cap, cases) -> Iterator[VerificationReport]:
    """Every rewrite receipt replayed against the oracle; scaling contracts."""
    n_cap = n_cap or 3
    cases = cases or 10
    for _, make in _LEMMA_CASES:
        for i in range(cases):
            yield make(rng, i)
    # matrix scaling contracts
    for t in (Fraction(1, 3), Fraction(2), Fraction(7, 5)):
        for n in range(1, min(n_cap, 4) + 1):
            m = WeightMatrix([[_rfrac(rng) for _ in range(2 * n)] for _ in range(2 * n)])
            base = evaluate_matrix(m)
            for axis in ("rows", "cols"):
                part = rng.randint(0, n)
                t0 = time.perf_counter()
                a = evaluate_matrix(scale_separator_part(m, part, t, axis))
                yield _report(
                    "lemmas", f"scale-sep[n={n},t={t},{axis},p={part}]",
                    a, t ** n * base, t0,
                )
                part = rng.randint(0, n - 1)
                t0 = time.perf_counter()
                a = evaluate_matrix(scale_pair_part(m, part, t, axis))
                yield _report(
                    "lemmas", f"scale-pair[n={n},t={t},{axis},p={part}]",
                    a, t ** (n + 1) * base, t0,
                )
            i, j = rng.randint(0, n), rng.randint(0, n - 1)
            t0 = time.perf_counter()
            a = evaluate_matrix(scale_cell_block(m, i, j, t))
            yield _report(
                "lemmas", f"scale-cell[n={n},t={t},i={i},j={j}]", a, t * base, t0
            )


# --------------------------------------------------------------------------
# registry


_SUITES: dict[str, Callable] = {
    "oracle-vs-reduce": _suite_oracle_vs_reduce,
    "stanley": _suite_stanley,
    "fortress": _suite_fortress,
    "zigzag": _suite_zigzag,
    "blum": _suite_blum,
    "powers": _suite_powers,
    "npattern": _suite_npattern,
    "tri": _suite_tri,
    "lemmas": _suite_lemmas,
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def run_suite(
    name: str,
    n: Optional[int] = None,
    cases: Optional[int] = None,
    seed: int = 0,
) -> list[VerificationReport]:
    """Run one named suite (or ``all``) and return its reports.

    ``n`` caps region/diamond orders, ``cases`` the number of random
    cases per sub-family; both default per suite and must be at least 1
    when given.  ``oracle-vs-reduce`` run by name refuses an ``n`` above
    :data:`ORACLE_ORDER_CEILING`; under ``all`` the ceiling caps it.  The
    same seed always produces the same case stream.
    """
    for label, value in (("n", n), ("cases", cases)):
        if value is not None and value < 1:
            raise ValueError(f"{label} must be >= 1, got {value}")
    if name == "all":
        out = []
        for sub in _SUITES:
            sub_n = n
            if sub == "oracle-vs-reduce" and n is not None:
                sub_n = min(n, ORACLE_ORDER_CEILING)
            out.extend(run_suite(sub, n=sub_n, cases=cases, seed=seed))
        return out
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    if name == "oracle-vs-reduce" and n is not None and n > ORACLE_ORDER_CEILING:
        raise ValueError(
            f"n must be <= {ORACLE_ORDER_CEILING} for oracle-vs-reduce "
            f"(the oracle's order ceiling), got {n}"
        )
    rng = random.Random(seed)
    return list(_SUITES[name](rng, n, cases))
