"""Independent race reconstruction.

Because every draw is a pure function of (seed, ctx_digest, purpose), the
realized exponential race extends deterministically over the *whole* prefix
tree, not just the part the engine expanded.  This module rebuilds that race
from scratch — by a different traversal than the engine's — and derives the
realized suffix maxima (RSM) used to audit frontier coverage and incumbent
optimality.
"""

from __future__ import annotations

import math

from .prefix_dag import PrefixDag
# ``stream_lookup`` lives in ``race``; perfbench/bench.py imports it from here.
from .race import (RawLookup, arrival, exact_step, race_arrival,  # noqa: F401
                   stream_lookup, surrogate_nub, surrogate_value)


def exact_race(graph: PrefixDag, lookup: RawLookup) -> dict[bytes, float]:
    """Arrival time of every node under the lazily-propagated exact race."""
    arrivals = {graph.root: race_arrival(
        graph.root, graph.node(graph.root).n_exact, lookup, 0.0)[1]}
    for node in graph.walk():  # a parent's arrival is set before its children
        if not node.is_leaf:
            kids = graph.children(node.ctx_digest)
            counts = [graph.node(c).n_exact for c in kids]
            _, _, child_arrivals = exact_step(
                node.ctx_digest, arrivals[node.ctx_digest], kids, counts, lookup)
            arrivals.update(zip(kids, child_arrivals))
    return arrivals


def exact_leaf_values(graph: PrefixDag,
                      arrivals: dict[bytes, float]) -> dict[bytes, float]:
    """V(P) = s_det(P) - log E_P with the coupled E_P = t(P)."""
    return {n.ctx_digest: n.prefix_score - math.log(arrivals[n.ctx_digest])
            for n in graph.walk() if n.is_leaf}


def surrogate_race(graph: PrefixDag, lookup: RawLookup, n_ub_factor: float,
                   salt: bytes) -> tuple[dict[bytes, float], dict[bytes, float]]:
    """Each internal context's arrival, which keys its children; each leaf's
    value.  Both are anchored at the parent's arrival (a root's at 0.0)."""
    arrivals, values = {}, {}
    for node in graph.walk():  # a parent's arrival is set before its children
        digest = node.ctx_digest
        t = 0.0 if node.parent is None else arrivals[node.parent]
        if node.is_leaf:
            values[digest] = surrogate_value(salt, digest, node.prefix_score, t)[0]
        else:
            arrivals[digest] = race_arrival(
                digest, surrogate_nub(node.n_exact, n_ub_factor), lookup, t)[1]
    return arrivals, values


def realized_suffix_max(graph: PrefixDag,
                        leaf_values: dict[bytes, float]) -> dict[bytes, float]:
    """RSM(v): the best realized leaf value anywhere below v."""
    rsm: dict[bytes, float] = {}
    for node in reversed(list(graph.walk())):  # children before their parent
        digest = node.ctx_digest
        rsm[digest] = (leaf_values[digest] if node.is_leaf
                       else max(rsm[c] for c in graph.children(digest)))
    return rsm


def argmax_leaf(values: dict[bytes, float]) -> tuple[bytes, float]:
    """Argmax of realized leaf values.  Tie-break mirrors the engine: equal
    values resolve lexicographically on the public digest, preferring the
    smaller one."""
    top = max(values.values())
    return min(d for d in values if values[d] == top), top


def oracle_optimum(graph: PrefixDag, lookup: RawLookup) -> tuple[bytes, float]:
    """Brute-force argmax over all leaves of the reconstructed race."""
    return argmax_leaf(exact_leaf_values(graph, exact_race(graph, lookup)))


def coupled_monotone_race(graph: PrefixDag,
                          uniform_raw: dict[bytes, int]) -> dict[bytes, float]:
    """Exact-count arrivals coupled to logged surrogate uniforms.

    t(v) = max(t(parent), Exp-quantile(U_v; N(v))) for nodes whose uniform
    was logged; nodes without one inherit the parent arrival (a valid lower
    bound, so derived keys stay upper bounds).
    """
    arrivals: dict[bytes, float] = {}
    for node in graph.walk():  # a parent's arrival is set before its children
        t = 0.0 if node.parent is None else arrivals[node.parent]
        u = uniform_raw.get(node.ctx_digest)
        arrivals[node.ctx_digest] = (t if u is None
                                     else max(t, arrival(u, node.n_exact)))
    return arrivals
