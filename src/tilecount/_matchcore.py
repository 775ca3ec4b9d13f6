"""Pure-Python kernel for the matching generating function.

Branch-and-memoize over the set of still-unmatched vertices, always
branching at a vertex of minimum live degree.  Forced edges (live degree
one) are followed without branching, and a live vertex with no live
neighbours kills the branch immediately.  The memo is keyed on the bitmask
of live vertices, so graphs whose reachable state space collapses (long
forced chains, near-planar strips) run far below the worst case.

Weights are Fractions throughout; results are exact.
"""

from __future__ import annotations

import sys
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def matching_sum(adj):
    """Sum over perfect matchings of the product of edge weights.

    ``adj[v]`` lists ``(u, w)`` pairs; every edge must appear from both
    endpoints with the same weight.  Parallel edges are allowed (they
    contribute separately).  Returns a Fraction; 1 for the empty graph,
    0 when no perfect matching exists.
    """
    n = len(adj)
    if n == 0:
        return _ONE
    if n % 2:
        return _ZERO
    memo = {}

    def go(live):
        if live == 0:
            return _ONE
        cached = memo.get(live)
        if cached is not None:
            return cached
        # Find the live vertex with fewest live neighbours.
        best_v = -1
        best_edges = None
        rest = live
        while rest:
            bit = rest & (-rest)
            rest ^= bit
            v = bit.bit_length() - 1
            edges = [(u, w) for (u, w) in adj[v] if live >> u & 1]
            if not edges:
                memo[live] = _ZERO
                return _ZERO
            if best_edges is None or len(edges) < len(best_edges):
                best_v, best_edges = v, edges
                if len(edges) == 1:
                    break
        acc = _ZERO
        base = live ^ (1 << best_v)
        for u, w in best_edges:
            if w:
                acc += w * go(base ^ (1 << u))
        memo[live] = acc
        return acc

    limit = sys.getrecursionlimit()
    if limit < n + 100:
        sys.setrecursionlimit(n + 100)
    try:
        return go((1 << n) - 1)
    finally:
        sys.setrecursionlimit(limit)
