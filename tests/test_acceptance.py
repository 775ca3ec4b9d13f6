"""End-to-end acceptance checklist: twelve headline guarantees, one test
each, every comparison an exact rational equality.

Each test prints one line naming the guarantee it established, so a
verbose run (or -s) reads as a checklist.  The guarantees:

   1  uniform diamond counts follow 2^(n(n+1)/2) through order 16
   2  the reduction agrees with the matching oracle on random patterns
   3  the pattern transform reproduces frozen iterate matrices exactly
      and returns to a scalar multiple after four steps
   4  the two-row double product equals the reduction value
   5  the four-row closed form equals the reduction value, both parities
   6  fortress counts: power law, banded-pattern route, and dual-graph
      oracle all agree
   7  zigzag counts: closed table, power-of-two route, complementary
      agreement, and the three-step recurrence all agree
   8  brick-wall counts match their dual graphs, their zigzag bridges,
      and the step-thirty recurrence
   9  the square-lattice, octagon, and triangle families equal their
      prefactored reduction routes
  10  the quad, doubled-block, and eight-column closed forms equal the
      reduction on random weights
  11  every rewrite factor and scaling contract holds on random
      embeddings
  12  factored answers have the promised shapes (powers of 5, of 3, of
      {3, 29})
"""

from fractions import Fraction as F
import random

from tilecount import (
    Composition,
    WeightPattern,
    abcd_formula,
    blockC_formula,
    blum_recurrence_check,
    blum_value,
    delta_pattern,
    evaluate,
    fortress_count,
    matching_gen_fn,
    n_pattern_value,
    q_count,
    run_suite,
    s_region_count,
    stanley_eval,
    tri_count,
    weighted_rows_formula,
    yang_fortress,
    zig_recurrence,
    zigzag_count,
)
from tilecount.patterns import (
    composition_bands,
    doubled_blocks,
    eight_column,
    four_row,
    q_pattern,
    quad,
    s_family_pattern,
    tri_pattern,
    two_row,
    zig,
)
from tilecount.regions import build_aztec_graph, build_brick_graph, build_fortress_graph

ONES = WeightPattern([[1, 1], [1, 1]])


def _passed(line):
    print(f"PASS  {line}")


def _rfrac(rng):
    return F(rng.randint(1, 6), rng.randint(1, 6))


def _compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def test_01_uniform_diamond_counts():
    for n in range(1, 17):
        assert evaluate(ONES, n) == 2 ** (n * (n + 1) // 2)
    _passed("uniform diamond counts follow 2^(n(n+1)/2) through order 16")


def test_02_reduction_matches_oracle():
    rng = random.Random(94021)
    for _ in range(50):
        p = WeightPattern([[_rfrac(rng) for _ in range(4)] for _ in range(4)])
        n = rng.randint(1, 4)
        assert matching_gen_fn(build_aztec_graph(n, p)) == evaluate(p, n)
    _passed("reduction equals the matching oracle on 50 random 4x4 patterns")


# frozen iterates of the pattern transform on two fixed 4x4 patterns
_B4_1 = [
    [1, F(3, 5), F(1, 5), 1],
    [F(1, 5), F(1, 2), F(1, 2), F(3, 5)],
    [F(3, 5), F(1, 2), F(1, 2), F(1, 5)],
    [1, F(1, 5), F(3, 5), 1],
]
_B4_2 = [
    [F(50, 31), F(50, 31), F(10, 31), F(30, 31)],
    [F(50, 31), F(50, 31), F(30, 31), F(10, 31)],
    [F(30, 31), F(10, 31), F(25, 31), F(25, 31)],
    [F(10, 31), F(30, 31), F(25, 31), F(25, 31)],
]
_B4_3 = [
    [F(31, 100), F(93, 100), F(31, 100), F(31, 100)],
    [F(31, 100), F(31, 50), F(31, 50), F(93, 100)],
    [F(93, 100), F(31, 50), F(31, 50), F(31, 100)],
    [F(31, 100), F(31, 100), F(93, 100), F(31, 100)],
]
_A_1 = [
    [F(2, 3), 2, 2, F(2, 3)],
    [F(2, 3), F(2, 3), F(2, 3), F(2, 3)],
    [F(2, 3), F(2, 3), F(4, 3), 0],
    [F(2, 3), 2, 0, F(4, 3)],
]
_A_2 = [
    [F(3, 8), F(3, 8), F(9, 8), F(9, 8)],
    [F(3, 8), F(3, 4), 0, F(9, 8)],
    [F(3, 8), 0, F(3, 4), F(3, 8)],
    [F(3, 8), F(3, 8), F(3, 8), F(3, 8)],
]
_A_3 = [
    [F(8, 9), F(8, 9), F(8, 9), F(8, 9)],
    [F(8, 3), F(8, 9), F(8, 9), F(8, 3)],
    [F(8, 3), F(8, 9), F(16, 9), 0],
    [F(8, 9), F(8, 9), 0, F(16, 9)],
]


def test_03_transform_gold_chains():
    b4 = s_family_pattern(4)
    chain = [b4]
    for _ in range(4):
        chain.append(delta_pattern(chain[-1]))
    assert chain[1] == WeightPattern(_B4_1)
    assert chain[2] == WeightPattern(_B4_2)
    assert chain[3] == WeightPattern(_B4_3)
    assert chain[4] == b4.scaled(F(40, 31))

    a = tri_pattern()
    chain = [a]
    for _ in range(4):
        chain.append(delta_pattern(chain[-1]))
    assert chain[1] == WeightPattern(_A_1)
    assert chain[2] == WeightPattern(_A_2)
    assert chain[3] == WeightPattern(_A_3)
    assert chain[4] == a.scaled(F(9, 16))
    # the third iterate has the uniform cell factor that forces the
    # proportionality: every 2x2 block satisfies xz + yw == 256/81
    rows = chain[3].rows
    for bi in range(2):
        for bj in range(2):
            x, w = rows[2 * bi][2 * bj], rows[2 * bi][2 * bj + 1]
            y, z = rows[2 * bi + 1][2 * bj], rows[2 * bi + 1][2 * bj + 1]
            assert x * z + y * w == F(256, 81)
    _passed("pattern transform reproduces both frozen four-step chains")


def test_04_two_row_double_product():
    rng = random.Random(47)
    for _ in range(20):
        k = rng.randint(1, 4)
        vecs = [[_rfrac(rng) for _ in range(k)] for _ in range(4)]
        p = two_row(*vecs)
        n = rng.randint(1, 6)  # may exceed k: the product wraps
        assert stanley_eval(p, n) == evaluate(p, n)
    _passed("two-row double product equals the reduction on 20 random cases")


def test_05_four_row_closed_form():
    rng = random.Random(53)
    for i in range(20):
        n = 2 + i % 6  # both parities, orders 2..7
        vecs = [[_rfrac(rng) for _ in range(n)] for _ in range(4)]
        a, b, c, d = vecs
        assert weighted_rows_formula(a, b, c, d) == evaluate(four_row(a, b, c, d), n)
    _passed("four-row closed form equals the reduction, orders 2..7")


def test_06_fortress_counts():
    for m in range(1, 41):
        assert yang_fortress(m).value() == fortress_count((1,) * m).value()
    for total in range(1, 7):
        for parts in _compositions(total):
            for variant in ("plain", "bar"):
                # check=True re-derives the count through the reduction
                fortress_count(parts, variant, check=True)
    for total in range(1, 4):
        for parts in _compositions(total):
            for bar in (False, True):
                got = matching_gen_fn(build_fortress_graph(parts, bar=bar))
                want = fortress_count(parts, "bar" if bar else "plain").value()
                assert got == want, (parts, bar)
    assert fortress_count((1, 1)).value() == 5
    assert fortress_count((1, 1, 1)).value() == 50
    _passed("fortress counts: power law, banded route, and dual-graph oracle")


def _zig_gamma(n, bar):
    k, r = divmod(n, 4)
    tail = (0, 4 * k, 8 * k + 1, 12 * k + 4) if bar else (0, 4 * k + 1, 8 * k + 3, 12 * k + 5)
    return 8 * k * k + tail[r]


def test_07_zigzag_counts():
    for n in range(13):
        for bar in (False, True):
            closed = zigzag_count(n, "bar" if bar else "plain").value()
            pattern = zig(1, F(1, 2)) if bar else zig(F(1, 2), 1)
            assert closed == F(2) ** _zig_gamma(n, bar) * evaluate(pattern, n)
    for m in range(1, 5):
        assert zigzag_count(3 * m).value() == zigzag_count(3 * m, "bar").value()
    for a, b in ((F(1, 2), F(1)), (F(2), F(3))):
        for n in range(3, 8):
            assert zig_recurrence(a, b, n) == evaluate(zig(a, b), n)
            assert zig_recurrence(a, b, n, "bar") == evaluate(zig(b, a), n)
    _passed("zigzag counts: closed table, power route, and recurrence")


def test_08_brick_wall_counts():
    for n in range(1, 7):
        assert matching_gen_fn(build_brick_graph(n)) == blum_value(n).value()
    for n, order, variant in ((1, 1, "bar"), (2, 2, "bar"), (4, 3, "plain"), (5, 4, "plain")):
        got = matching_gen_fn(build_brick_graph(n, "2-1"))
        assert got == zigzag_count(order, variant).value()
    for k in range(1, 9):
        base = blum_value(5 * k - 2).value()
        for off in (1, 2, 3):
            assert blum_value(5 * k - 2 + off).value() == base
    for n in range(31, 62):
        assert blum_recurrence_check(n)
    _passed("brick-wall counts: dual graphs, zigzag bridges, step-30 law")


def _s_prefactor_exponent(family, n):
    k = n // 2
    if family in (1, 3):
        return (k + 1) ** 2 + k * k if n % 2 else 2 * k * k
    if family == 2:
        return n * n
    return (k + 1) * (3 * k + 1) if n % 2 else 3 * k * k


def test_09_power_families():
    for family in (1, 2, 3, 4):
        base = F(5) if family == 3 else F(2)
        for n in range(1, 9):
            route = base ** _s_prefactor_exponent(family, n) * evaluate(
                s_family_pattern(family), n
            )
            assert s_region_count(family, n).value() == route, (family, n)
    for n in range(1, 9):
        k = n // 2
        pre = (
            F(10) ** (2 * k * k)
            if n % 2 == 0
            else F(5) ** ((k + 1) ** 2 + k * k) * F(2) ** (2 * k * (k + 1))
        )
        assert q_count(n).value() == pre * evaluate(q_pattern(), n)
    for n in range(1, 9):
        route = F(2) ** (3 * n * n + 4 * n + 1) * evaluate(tri_pattern(), 2 * n)
        assert tri_count(n).value() == route == F(3) ** (n * (n + 1)) * F(2) ** (
            (n + 1) ** 2
        )
    _passed("square-lattice, octagon, and triangle families equal their routes")


def test_10_block_closed_forms():
    rng = random.Random(61)
    for _ in range(10):
        ws = [_rfrac(rng) for _ in range(4)]
        n = rng.randint(1, 7)
        assert abcd_formula(*ws, n) == evaluate(quad(*ws), n)
    for _ in range(10):
        n = rng.randint(1, 6)
        vecs = [[_rfrac(rng) for _ in range(n)] for _ in range(4)]
        assert blockC_formula(*vecs) == evaluate(doubled_blocks(*vecs), n)
    for _ in range(10):
        ws = [_rfrac(rng) for _ in range(8)]
        m = rng.randint(0, 9)
        assert n_pattern_value(*ws, m) == evaluate(eight_column(*ws), m)
    _passed("quad, doubled-block, and eight-column closed forms, 10 cases each")


def test_11_rewrite_receipts_and_scaling():
    reports = run_suite("lemmas", n=4, cases=25, seed=4)
    bad = [r for r in reports if not r.equal]
    assert not bad, bad[:3]
    for op in ("forced", "split", "merge", "star", "cell", "path", "corner", "city"):
        assert sum(r.case.startswith(op) for r in reports) == 25, op
    for kind in ("scale-sep", "scale-pair", "scale-cell"):
        assert any(r.case.startswith(kind) for r in reports), kind
    _passed("rewrite factors (25 embeddings per op) and scaling contracts")


def test_12_factored_shapes():
    for m in range(1, 21):
        v = yang_fortress(m)
        assert set(v.primes) <= {5} and v.unit in (1, 2)
    for n in range(1, 21):
        for variant in ("plain", "bar"):
            v = zigzag_count(n, variant)
            assert set(v.primes) <= {3} and v.unit in (1, 2)
    for j in range(1, 6):
        v = q_count(4 * j)
        assert v.unit == 1 and set(v.primes) <= {3, 29}
    _passed("factored answers keep their promised prime shapes")
