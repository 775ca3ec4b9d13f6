"""Fixed single-call timings: the rows of the ROADMAP Baseline table.

Each row times one public call at a fixed size, untraced, and checks its
value against the reference; a mismatch is appended to ``wrong``.  Rows
are part of the traced run's per-layer metrics so that later changes can
quote them before and after.
"""

from __future__ import annotations

import statistics
import time

import reference as ref

import tilecount.aztec as aztec
import tilecount.formulas as formulas
import tilecount.graph as graph
import tilecount.regions as regions

#: (label, call with a ``check`` argument, reference) at order 24 (tri: 12)
CLOSED_FORMS = (
    ("fortress", lambda c: formulas.fortress_count((6, 6, 6, 6), "plain", c),
     lambda: ref.fortress_value((6, 6, 6, 6), False)),
    ("zigzag", lambda c: formulas.zigzag_count(24, "plain", c),
     lambda: ref.zigzag_value(24, False)),
    ("zigzag-bar", lambda c: formulas.zigzag_count(24, "bar", c),
     lambda: ref.zigzag_value(24, True)),
    *((f"s{f}", lambda c, f=f: formulas.s_region_count(f, 24, c),
       lambda f=f: ref.family_value(f"s{f}", [24], False)) for f in (1, 2, 3, 4)),
    ("q", lambda c: formulas.q_count(24, c), lambda: ref.family_value("q", [24], False)),
    ("tri", lambda c: formulas.tri_count(12, c), lambda: ref.family_value("tri", [12], False)),
)

EVALUATE = tuple((name, n) for n in (24, 48) for name in ("zig", "q", "tri"))
DIAMONDS = (6, 7)


def _timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - t0


def measure(wrong: list[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    alone, checked = [], []
    for label, call, expected in CLOSED_FORMS:
        want = expected()
        times = []
        for _ in range(5):
            value, dt = _timed(lambda: call(False))
            times.append(dt)
        alone.append(statistics.median(times))
        checked_value, dt = _timed(lambda: call(None))
        checked.append(dt)
        if value.value() != want or checked_value.value() != want:
            wrong.append(f"row closed form {label}: differs from the reference")
    out["row.closed_form_us"] = statistics.median(alone) * 1e6
    out["row.closed_checked_ms"] = statistics.median(checked) * 1e3

    for name, n in EVALUATE:
        rows = ref.NAMED_PATTERNS[name]
        value, dt = _timed(lambda: aztec.evaluate(aztec.WeightPattern(rows), n))
        out[f"row.evaluate_ms.{name}{n}"] = dt * 1e3
        if value != ref.diamond_value(rows, n):
            wrong.append(f"row evaluate {name} {n}: differs from the reference")

    for n in DIAMONDS:
        g = regions.build_aztec_graph(n)
        value, dt = _timed(lambda: graph.matching_gen_fn(g))
        out[f"row.oracle_ms.diamond{n}"] = dt * 1e3
        if value != 2 ** (n * (n + 1) // 2):
            wrong.append(f"row oracle diamond {n}: not 2^(n(n+1)/2)")
    return out
