"""Spans around tilecount's public functions, recorded from outside.

The traced run rebinds module attributes: every ``tilecount`` module that
holds a target function gets a wrapper in its place, so calls between
layers (``cli`` into ``formulas``, ``formulas`` into ``aztec``, ``aztec``
into its own ``reduce_step``) go through the wrapper.  A wrapper records a
span ``[name, start, end, parent, op, attrs]`` in memory; nothing is
written until the run ends.  ``uninstall`` puts the originals back.

A span's self time is its duration minus the part of its interval that its
child spans cover.  :func:`layer_metrics` turns a span list into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter
from typing import Any, Callable, Optional

# span fields
NAME, START, END, PARENT, OP, ATTRS = range(6)

SUITES = ("oracle-vs-reduce", "stanley", "fortress", "zigzag", "blum",
          "powers", "npattern", "tri", "lemmas")

#: Closed forms that re-derive their reduction route at small orders.
ROUTE_CHECKED = ("fortress_count", "zigzag_count", "s_region_count", "q_count", "tri_count")


def _matrix_attrs(args, kwargs):
    m = args[0]
    bits = 0
    for row in m.rows:
        for x in row:
            b = max(x.numerator.bit_length(), x.denominator.bit_length())
            if b > bits:
                bits = b
    return {"cells": m.order * m.order, "bits": bits}


def _graph_attrs(args, kwargs):
    return {"vertices": args[0].vertex_count()}


def _value_bits(result):
    return {"bits": max(result.numerator.bit_length(), result.denominator.bit_length())}


def _suite_name(args, kwargs):
    return {"suite": args[0] if args else kwargs.get("name")}


def _case_count(result):
    return {"cases": len(result)}


_FORMULAS = (
    "abcd_formula", "blockC_formula", "blum_recurrence_check", "blum_value",
    "fortress_count", "fortress_gen_fn", "fortress_pattern_formula",
    "fortress_prefactor", "n_pattern_value", "q_count", "s_region_count",
    "tri_count", "weighted_rows_formula", "yang_fortress", "zig_recurrence",
    "zigzag_count",
)

#: (module, attribute, span name, attrs before the call, attrs from the result)
TARGETS: tuple[tuple[str, str, str, Optional[Callable], Optional[Callable]], ...] = (
    ("tilecount.cli", "main", "cli.main", None, None),
    *(("tilecount.formulas", fn, f"formulas.{fn}", None, None) for fn in _FORMULAS),
    ("tilecount.aztec", "evaluate", "aztec.evaluate", None, None),
    ("tilecount.aztec", "evaluate_matrix", "aztec.evaluate_matrix", None, None),
    ("tilecount.aztec", "evaluate_trace", "aztec.evaluate_trace", None, None),
    ("tilecount.aztec", "reduce_step", "aztec.reduce_step", _matrix_attrs, None),
    ("tilecount.graph", "matching_gen_fn", "graph.matching_gen_fn", _graph_attrs, None),
    ("tilecount.regions", "build_aztec_graph", "regions.build_aztec_graph", None, None),
    ("tilecount.regions", "build_fortress_graph", "regions.build_fortress_graph", None, None),
    ("tilecount.regions", "build_brick_graph", "regions.build_brick_graph", None, None),
    ("tilecount.rational", "FactoredValue.value", "rational.value", None, _value_bits),
    ("tilecount.verify", "run_suite", "verify.run_suite", _suite_name, _case_count),
)


class Tracer:
    """In-memory span recorder; wrappers record only while ``active``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = 0  # id of the operation being run
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            attrs = before(args, kwargs) if before else None
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, attrs]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if after:
                span[ATTRS] = {**(attrs or {}), **after(result)}
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Rebind every tilecount module attribute that holds a target."""
        for module_name, attr, name, before, after in targets:
            module = importlib.import_module(module_name)
            if "." in attr:  # a method: rebind it on its class
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._rebind(owner, meth, self.wrap(name, original, before, after))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, before, after)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("tilecount") and \
                        getattr(mod, attr, None) is original:
                    self._rebind(mod, attr, wrapped)

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- analysis -------------------------------------------------------------


def children_of(spans: list[list]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            kids[span[PARENT]].append(i)
    return kids


def self_times(spans: list[list], kids: Optional[list[list[int]]] = None) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    kids = children_of(spans) if kids is None else kids
    out = []
    for span, mine in zip(spans, kids):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][START], spans[c][END]) for c in mine):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _layer(span) -> str:
    return span[NAME].split(".", 1)[0]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """The per-layer metrics of a traced run (times in ms)."""
    kids = children_of(spans)
    selfs = self_times(spans, kids)
    m: dict[str, float] = {
        "aztec.evaluate_calls": 0, "aztec.evaluate_ms": 0.0, "aztec.trace_ms": 0.0,
        "aztec.reduce_steps": 0, "aztec.step_self_ms": 0.0, "aztec.cells": 0,
        "aztec.max_operand_bits": 0,
        "formulas.calls": 0, "formulas.self_ms": 0.0,
        "formulas.route_checks_ran": 0, "formulas.route_checks_skipped": 0,
        "graph.oracle_calls": 0, "graph.oracle_ms": 0.0, "graph.vertices_total": 0,
        "regions.build_calls": 0, "regions.build_ms": 0.0,
        "rational.value_calls": 0, "rational.value_ms": 0.0, "rational.max_value_bits": 0,
        "cli.self_ms": 0.0, "verify.cases": 0,
        **{f"verify.suite_ms.{s}": 0.0 for s in SUITES},
    }
    for i, span in enumerate(spans):
        name, layer = span[NAME], _layer(span)
        ms = (span[END] - span[START]) * 1e3
        attrs = span[ATTRS] or {}
        parent = spans[span[PARENT]] if span[PARENT] >= 0 else None
        if name in ("aztec.evaluate", "aztec.evaluate_matrix"):
            if parent is None or _layer(parent) != "aztec":
                m["aztec.evaluate_calls"] += 1
                m["aztec.evaluate_ms"] += ms
        elif name == "aztec.evaluate_trace":
            m["aztec.trace_ms"] += ms
        elif name == "aztec.reduce_step":
            m["aztec.reduce_steps"] += 1
            m["aztec.step_self_ms"] += selfs[i] * 1e3
            m["aztec.cells"] += attrs["cells"]
            m["aztec.max_operand_bits"] = max(m["aztec.max_operand_bits"], attrs["bits"])
        elif layer == "formulas":
            m["formulas.calls"] += 1
            m["formulas.self_ms"] += selfs[i] * 1e3
            if name.split(".", 1)[1] in ROUTE_CHECKED:
                ran = any(_layer(spans[c]) == "aztec" for c in kids[i])
                m["formulas.route_checks_ran" if ran else "formulas.route_checks_skipped"] += 1
        elif layer == "graph":
            m["graph.oracle_calls"] += 1
            m["graph.oracle_ms"] += ms
            m["graph.vertices_total"] += attrs["vertices"]
        elif layer == "regions":
            m["regions.build_calls"] += 1
            m["regions.build_ms"] += ms
        elif layer == "rational":
            m["rational.value_calls"] += 1
            m["rational.value_ms"] += ms
            m["rational.max_value_bits"] = max(m["rational.max_value_bits"], attrs["bits"])
        elif layer == "cli":
            m["cli.self_ms"] += selfs[i] * 1e3
        elif layer == "verify":
            suite = attrs.get("suite")
            if parent is None or _layer(parent) != "verify":
                m["verify.cases"] += attrs.get("cases", 0)
            if suite in SUITES:
                m[f"verify.suite_ms.{suite}"] += ms
    return m
