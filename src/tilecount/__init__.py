"""Exact tiling enumeration via perfect matchings of dual graphs.

Layers, from the ground up:

  * ``graph``    — weighted graphs, the matching generating function M, and
                   factor-preserving local rewrites;
  * ``aztec``    — diamond weight matrices/patterns and the order-lowering
                   reduction that evaluates M in polynomial time, on a
                   tiled pattern without building its matrix;
  * ``patterns`` — the named weight patterns behind the product theorems;
  * ``regions``  — dual graphs of concrete regions (diamonds, fortresses,
                   brick walls);
  * ``formulas`` — the closed-form counts, each cross-checked against the
                   reduction engine;
  * ``verify``   — randomized consistency suites tying all layers together.
"""

from .aztec import (
    ReductionTrace,
    TiledPattern,
    WeightMatrix,
    WeightPattern,
    ZeroCellFactor,
    cell_powers,
    delta_pattern,
    evaluate,
    evaluate_matrix,
    evaluate_trace,
    reduce_step,
    stanley_eval,
    tile_pattern,
)
from .formulas import (
    Composition,
    RouteMismatchError,
    abcd_formula,
    blockC_formula,
    blum_recurrence_check,
    blum_value,
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
from .graph import (
    WeightedGraph,
    city_replace,
    eliminate_forced,
    from_text,
    matching_gen_fn,
    merge_parallel,
    oracle_backend,
    star_scale,
    to_text,
    urban_renewal,
    vertex_split,
)
from .rational import FactoredValue, PowerProduct, Rational, factorize
from .verify import VerificationReport, run_suite

__all__ = [
    "Composition",
    "FactoredValue",
    "PowerProduct",
    "Rational",
    "ReductionTrace",
    "RouteMismatchError",
    "TiledPattern",
    "VerificationReport",
    "WeightMatrix",
    "WeightPattern",
    "WeightedGraph",
    "ZeroCellFactor",
    "abcd_formula",
    "blockC_formula",
    "blum_recurrence_check",
    "blum_value",
    "cell_powers",
    "city_replace",
    "delta_pattern",
    "eliminate_forced",
    "evaluate",
    "evaluate_matrix",
    "evaluate_trace",
    "factorize",
    "fortress_count",
    "fortress_gen_fn",
    "fortress_pattern_formula",
    "fortress_prefactor",
    "from_text",
    "matching_gen_fn",
    "merge_parallel",
    "n_pattern_value",
    "oracle_backend",
    "q_count",
    "reduce_step",
    "run_suite",
    "s_region_count",
    "stanley_eval",
    "star_scale",
    "tile_pattern",
    "to_text",
    "tri_count",
    "urban_renewal",
    "vertex_split",
    "weighted_rows_formula",
    "yang_fortress",
    "zig_recurrence",
    "zigzag_count",
]

__version__ = "0.1.0"
