"""The three benchmark workloads: their seeded operations and output checks.

A workload is an endless sequence of *passes*.  Every pass holds the same
mix of operations (the same kinds, in the same numbers, with orders drawn
from the same narrow ranges); the pass index and the workload seed fix the
exact parameters and the order in which the operations run.  Measuring
whole passes therefore measures the same mix on every seed, which keeps
the run-to-run spread small, while the seed still varies every input.

An operation reaches tilecount only through public functions, looked up on
their module at call time so that the traced run sees its wrappers:

* ``count``  — one ``tilecount.cli.main(argv)`` request, stdout captured;
* ``verify`` — one ``verify all --format records`` pass; each of its
  cases counts as one operation;
* ``oracle`` — build one graph and call ``graph.matching_gen_fn`` on it.

Each operation carries its own check, run outside the timed region.  A
check reports ``wrong`` when an answer the program gave disagrees with a
reference computed by a different route.  Every operation of these
workloads is one the program should answer, so a refused request (non-zero
exit, exception) or one that prints nothing is counted as failed and is
also reported as wrong: it fails the run rather than only lowering its
throughput.
"""

from __future__ import annotations

import contextlib
import io
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

import reference as ref

import tilecount.aztec as aztec
import tilecount.cli as cli
import tilecount.formulas as formulas
import tilecount.graph as graph
import tilecount.regions as regions

F = Fraction


@dataclass
class Outcome:
    """What a check concluded about one operation's result."""

    cases: int = 1  # operations this result stands for
    failed: int = 0  # of those, refused, crashed or not passed
    wrong: Optional[str] = None  # a wrong answer, described


@dataclass
class Op:
    """One timed operation and the check of its result."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]


# -- running the command line in-process -----------------------------------


@dataclass
class CliResult:
    rc: Any  # exit status, or the exception class name
    out: str  # stdout; stderr is discarded


def run_cli(argv: list[str]) -> CliResult:
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors exit here
        rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception as exc:  # a traceback a user would see; counted as failed
        rc = type(exc).__name__
    return CliResult(rc, out.getvalue())


def parse_factored(text: str) -> Fraction:
    """Value of ``unit * p^e * ...`` as FactoredValue prints it."""
    value = Fraction(1)
    for term in text.split(" * "):
        if "^" in term:
            p, e = term.split("^")
            value *= Fraction(int(p)) ** int(e)
        else:
            value *= Fraction(term)
    return value


def check_count_line(out: str, expected: Callable[[], Fraction]) -> Optional[str]:
    """Check ``FACTORED = VALUE``."""
    lines = out.splitlines()
    if len(lines) != 1:
        return f"expected one output line, got {len(lines)}"
    factored, _, plain = lines[0].partition(" = ")
    try:
        shown = parse_factored(factored)
        plain_value = Fraction(plain)
    except (ValueError, ZeroDivisionError):
        return f"unreadable output {lines[0][:60]!r}"
    if plain_value != shown:
        return "factored form and plain value differ"
    if shown != expected():
        return "count differs from the reference"
    return None


def check_trace(out: str, rows, n: int) -> Optional[str]:
    """Check every printed step factor and the value."""
    factors = ref.step_factors(rows, n)
    lines = out.splitlines()
    value = None
    for lineno, line in enumerate(lines, start=1):
        fields = line.split()
        if fields[:1] == ["value"] and len(fields) == 2 and lineno == len(lines):
            value = Fraction(fields[1])
            continue
        if len(fields) != 6 or fields[0] != "step" or fields[2] != "order":
            return f"unreadable trace line {line[:60]!r}"
        step, order = int(fields[1]), int(fields[3])
        if step != lineno or order != n - step + 1 or step > len(factors):
            return f"trace step {step} at order {order} out of place"
        if Fraction(fields[5]) != factors[step - 1]:
            return f"trace step {step} factor differs from the reference"
    if len(lines) != len(factors) + 1 or value is None:
        return "trace incomplete"
    expected = Fraction(1)
    for f in factors:
        expected *= f
    if value != expected:
        return "trace value differs from the reference"
    return None


def check_cli(res: CliResult, check_out: Callable[[str], Optional[str]]) -> Outcome:
    """A request must exit 0 and print an answer that ``check_out`` accepts."""
    if res.rc != 0:
        return Outcome(failed=1, wrong=f"refused with exit status {res.rc}")
    if not res.out:
        return Outcome(failed=1, wrong="exit status 0 but no output")
    return Outcome(wrong=check_out(res.out))


# -- count ------------------------------------------------------------------

#: Route check runs at these orders (at or under ROUTE_CHECK_LIMIT = 24).
CHECKED = {"fortress": (21, 24), "zigzag": (21, 24), "q": (21, 24), "tri": (11, 12),
           "s1": (21, 24), "s2": (21, 24), "s3": (21, 24), "s4": (21, 24)}
#: Closed form only.  Upper ends keep the printed value under the
#: interpreter's 4300-digit limit and the reference cheap.
UNCHECKED = {"fortress": (25, 60), "zigzag": (25, 60), "q": (25, 36), "tri": (13, 20),
             "s1": (25, 40), "s2": (25, 40), "s3": (25, 40), "s4": (25, 40),
             "blum": (65, 150)}
#: brick-chain indices whose zigzag strip has order 21..24, so the check runs
BLUM_CHECKED = tuple(m for m in range(40, 64) if 21 <= ref.brick_to_zigzag(m)[0] <= 24)

#: Orders of the named-pattern requests, chosen per pattern so that each
#: costs about a third of a second and ``trace`` never has to print a
#: factor past the 4300-digit limit.
NAMED_AZTEC = {"zig": (29, 31), "tri": (28, 30), "q": (26, 28), "s1": (27, 29),
               "s2": (27, 29), "s3": (27, 29), "s4": (27, 29)}
NAMED_TRACE = {"zig": (29, 31), "tri": (28, 30), "q": (24, 24), "s1": (25, 26),
               "s2": (27, 29), "s3": (27, 29), "s4": (27, 29)}
#: One request per pass at the top of the range, on the pattern whose trace
#: prints at any order: ``trace`` on even passes (it keeps every matrix, so
#: it sets the peak memory), ``count aztec`` on odd ones.
NAMED_HIGH = ("zig", 48)


def _composition(rng: random.Random, total: int) -> list[int]:
    parts, left = [], total
    while left:
        d = rng.randint(1, min(left, 8))
        parts.append(d)
        left -= d
    return parts


def _random_rows(rng: random.Random, hi: int):
    k, l = rng.choice((2, 4)), rng.choice((2, 4))
    return tuple(tuple(F(rng.randint(1, hi), rng.randint(1, hi)) for _ in range(l))
                 for _ in range(k))


def _pattern_text(rows) -> str:
    lines = [f"{len(rows)} {len(rows[0])}"]
    lines += [" ".join(f"{x.numerator}/{x.denominator}" for x in row) for row in rows]
    return "\n".join(lines) + "\n"


class CountWorkload:
    """A stream of ``tilecount count`` and ``tilecount trace`` requests.

    One pass is 47 requests: every region kind once with the route check
    (orders 21-24) and three times without it (orders past 24); two
    ``count aztec`` and two ``trace`` requests on seeded positive-rational
    2x2..4x4 patterns; one ``count aztec`` and one ``trace`` on a named
    pattern at orders 24-31; and one of the two on the zig pattern at
    order 48.
    """

    name = "count"
    replay_passes = 4

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.named_files = {}
        for name, rows in ref.NAMED_PATTERNS.items():
            path = workdir / f"{name}.pat"
            path.write_text(_pattern_text(rows))
            self.named_files[name] = path
        self._refs: dict = {}

    def _reference(self, key, compute):
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]

    def _family_op(self, region: str, n: int, bar: bool, rng) -> Op:
        if region == "fortress":
            parts = _composition(rng, n)
            params = parts
            compute = lambda: ref.fortress_value(parts, bar)
        else:
            params = [n]
            compute = lambda: ref.family_value(region, params, bar)
        argv = ["count", region, *map(str, params)] + (["--bar"] if bar else [])
        key = ("family", region, tuple(params), bar)
        expected = lambda: self._reference(key, compute)
        return self._cli_op(argv, lambda out: check_count_line(out, expected))

    def _cli_op(self, argv, check_out) -> Op:
        return Op(" ".join(argv), lambda: run_cli(argv), lambda res: check_cli(res, check_out))

    def _aztec_op(self, path: Path, rows, n: int) -> Op:
        key = ("aztec", rows, n)
        expected = lambda: self._reference(key, lambda: ref.diamond_value(rows, n))
        return self._cli_op(["count", "aztec", str(path), str(n)],
                            lambda out: check_count_line(out, expected))

    def _trace_op(self, path: Path, rows, n: int) -> Op:
        return self._cli_op(["trace", str(path), str(n)],
                            lambda out: check_trace(out, rows, n))

    def make_pass(self, index: int) -> list[Op]:
        rng = random.Random(f"count/{self.seed}/{index}")
        ops = []
        kinds = [(r, False) for r in CHECKED] + [("zigzag", True)]
        for region, bar in kinds:
            lo, hi = CHECKED[region]
            ops.append(self._family_op(region, rng.randint(lo, hi), bar, rng))
        ops.append(self._family_op("blum", rng.choice(BLUM_CHECKED), False, rng))
        for region, bar in kinds + [("blum", False)]:
            lo, hi = UNCHECKED[region]
            step = (hi - lo + 1) / 3
            for third in range(3):  # one order from each third of the range
                n = rng.randint(lo + round(third * step), lo + round((third + 1) * step) - 1)
                ops.append(self._family_op(region, n, bar, rng))
        for j, (hi, orders, make) in enumerate(
            ((6, (10, 13), self._aztec_op), (6, (10, 13), self._aztec_op),
             (3, (6, 9), self._trace_op), (3, (6, 9), self._trace_op))
        ):
            rows = _random_rows(rng, hi)
            path = self.workdir / f"pass{index}-{j}.pat"
            path.write_text(_pattern_text(rows))
            ops.append(make(path, rows, rng.randint(*orders)))
        for table, make in ((NAMED_AZTEC, self._aztec_op), (NAMED_TRACE, self._trace_op)):
            name = rng.choice(sorted(table))
            n = rng.randint(*table[name])
            ops.append(make(self.named_files[name], ref.NAMED_PATTERNS[name], n))
        name, n = NAMED_HIGH
        make = self._aztec_op if index % 2 else self._trace_op
        ops.append(make(self.named_files[name], ref.NAMED_PATTERNS[name], n))
        rng.shuffle(ops)
        return ops


# -- verify -----------------------------------------------------------------


#: Cases per suite of ``verify all`` at the seed commit, for every seed.  A
#: pass that runs other numbers is wrong: dropping cases would otherwise
#: read as a higher ``ops_per_s``.
SUITE_CASES = {"oracle-vs-reduce": 12, "stanley": 30, "fortress": 50, "zigzag": 46,
               "blum": 77, "powers": 55, "npattern": 20, "tri": 37, "lemmas": 125}


class VerifyWorkload:
    """``tilecount verify all --seed S --format records``, one seed per pass."""

    name = "verify"
    replay_passes = 3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def make_pass(self, index: int) -> list[Op]:
        suite_seed = random.Random(f"verify/{self.seed}/{index}").randrange(2**31)
        argv = ["verify", "all", "--seed", str(suite_seed), "--format", "records"]
        return [Op(" ".join(argv), lambda: run_cli(argv), self._check)]

    @staticmethod
    def _check(res: CliResult) -> Outcome:
        """Every record must hold two equal values flagged equal, and the
        suites must run ``SUITE_CASES``; the cases a pass did not pass
        count as failed."""
        wrong, passed, suites = None, 0, Counter()
        for line in res.out.splitlines():
            fields = line.split()
            if len(fields) != 5 or fields[4] not in ("0", "1"):
                wrong = f"malformed record {line[:60]!r}"
                break
            suites[fields[0]] += 1
            if fields[4] == "1" and F(fields[2]) == F(fields[3]):
                passed += 1
            else:
                wrong = wrong or f"case {fields[0]} {fields[1]} failed"
        if suites != SUITE_CASES:
            wrong = wrong or f"cases per suite {dict(suites)}, expected {SUITE_CASES}"
        if res.rc != 0:
            wrong = wrong or f"exit status {res.rc}"
        cases = sum(SUITE_CASES.values())
        return Outcome(cases=cases, failed=max(0, cases - passed), wrong=wrong)


# -- oracle -----------------------------------------------------------------

BRICK_STRATA = ((6, 9), (10, 13), (14, 16))
#: (vertices, chords): past 1.25 chords per vertex the oracle's cost on a
#: 48-vertex host spreads over two orders of magnitude
HOSTS = ((24, 36), (24, 36), (24, 36), (32, 48), (40, 50), (48, 60))
#: Per pass, 11 graphs cost less than an order-4 diamond and 12 more; five
#: order-4 diamonds sit between them and three order-6 diamonds near the top,
#: so the median and the 90th percentile latency each fall inside one kind
#: of graph and do not jump between kinds from seed to seed.
DIAMOND_ORDERS = (4, 4, 4, 4, 4, 5, 6, 6, 6)
FORTRESS_WIDTHS = (3, 3, 4, 5, 6)


def random_host(rng: random.Random, size: int, chords: int) -> graph.WeightedGraph:
    """A coordinate-free multigraph on ``size`` vertices with a perfect
    matching: a weighted pairing plus random weighted chords."""
    g = graph.WeightedGraph()
    ids = [f"h{i}" for i in range(size)]
    for vid in ids:
        g.add_vertex(vid)
    for i in range(0, size, 2):
        g.add_edge(ids[i], ids[i + 1], F(rng.randint(1, 6), rng.randint(1, 6)))
    for _ in range(chords):
        u, v = rng.sample(ids, 2)
        g.add_edge(u, v, F(rng.randint(1, 6), rng.randint(1, 6)))
    return g


def relabeled_host(g: graph.WeightedGraph, rng: random.Random) -> graph.WeightedGraph:
    """The same graph with fresh ids, vertices and edges in a seeded order."""
    ids = g.vertices()
    order = ids[:]
    rng.shuffle(order)
    new_id = {vid: f"r{j}" for j, vid in enumerate(order)}
    out = graph.WeightedGraph()
    for vid in order:
        out.add_vertex(new_id[vid])
    edges = g.edges()
    rng.shuffle(edges)
    for u, v, w in edges:
        out.add_edge(new_id[v], new_id[u], w)
    return out


class OracleWorkload:
    """Region graphs and random hosts through the matching oracle.

    One pass is 28 graphs: diamonds of order 4 (five), 5 and 6 (three) with
    seeded 4x4 rational weights; fortresses of total width 3 (two), 4, 5 and 6 in
    both variants with seeded compositions; one 2-3 brick chain graph from
    each of n in 6-9, 10-13 and 14-16; random hosts on 24 (three), 32, 40
    and 48 vertices with 36 to 60 chords.  Region graphs are built inside
    the timed operation.
    """

    name = "oracle"
    replay_passes = 6

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    @staticmethod
    def _equal(expected: Callable[[], Fraction]) -> Callable[[Fraction], Outcome]:
        def check(value: Fraction) -> Outcome:
            return Outcome(wrong=None if value == expected() else "M differs from the reference")

        return check

    def make_pass(self, index: int) -> list[Op]:
        rng = random.Random(f"oracle/{self.seed}/{index}")
        ops = []
        for n in DIAMOND_ORDERS:
            pattern = aztec.WeightPattern(
                [[F(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(4)] for _ in range(4)]
            )
            ops.append(Op(
                f"diamond n={n}",
                lambda n=n, p=pattern: graph.matching_gen_fn(regions.build_aztec_graph(n, p)),
                self._equal(lambda n=n, p=pattern: aztec.evaluate(p, n))))
        for total in FORTRESS_WIDTHS:
            for variant in ("plain", "bar"):
                parts = tuple(_composition(rng, total))
                ops.append(Op(
                    f"fortress {parts} {variant}",
                    lambda parts=parts, bar=variant == "bar": graph.matching_gen_fn(
                        regions.build_fortress_graph(parts, bar=bar)),
                    self._equal(lambda parts=parts, v=variant:
                                formulas.fortress_count(parts, v).value())))
        for lo, hi in BRICK_STRATA:
            n = rng.randint(lo, hi)
            ops.append(Op(
                f"brick 2-3 n={n}",
                lambda n=n: graph.matching_gen_fn(regions.build_brick_graph(n, "2-3")),
                self._equal(lambda n=n: formulas.blum_value(n).value())))
        for size, chords in HOSTS:
            host = random_host(rng, size, chords)
            twin = relabeled_host(host, rng)
            ops.append(Op(
                f"host {size}V",
                lambda g=host: graph.matching_gen_fn(g),
                self._equal(lambda g=twin: graph.matching_gen_fn(g))))
        rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (CountWorkload, VerifyWorkload, OracleWorkload)}
