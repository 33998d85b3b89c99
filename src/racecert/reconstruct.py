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
from typing import Callable

from .prefix_dag import PrefixDag
from .race import (
    RngStream,
    exp_from_uniform,
    offset_propagate,
    open_uniform,
    quantile_cat,
)

RawLookup = Callable[[bytes, str], int | None]


def stream_lookup(stream: RngStream,
                  scripted: dict[tuple[str, str], int] | None = None,
                  graph: PrefixDag | None = None) -> RawLookup:
    """The engine's draw addressing: a draw scripted by the node's
    ``(state_label, purpose)`` (needs ``graph``), else the stream's."""
    if not scripted or graph is None:
        return stream.raw

    def lookup(digest: bytes, purpose: str) -> int:
        key = (graph.node(digest).state_label, purpose)
        if key in scripted:
            return scripted[key]
        return stream.raw(digest, purpose)

    return lookup


def exact_race(graph: PrefixDag, lookup: RawLookup) -> dict[bytes, float]:
    """Arrival time of every node under the lazily-propagated exact race."""
    arrivals: dict[bytes, float] = {}
    root = graph.node(graph.root)
    u0 = open_uniform(lookup(root.ctx_digest, "race"))
    arrivals[graph.root] = exp_from_uniform(u0, graph.suffix_count(graph.root))
    stack = [graph.root]
    while stack:
        digest = stack.pop()
        node = graph.node(digest)
        if node.is_leaf:
            continue
        counts = [graph.suffix_count(c) for c in node.children]
        if len(node.children) > 1:
            w = open_uniform(lookup(digest, "winner"))
            winner = quantile_cat(w, counts)
        else:
            winner = 0
        residuals = [open_uniform(lookup(child, "residual"))
                     for i, child in enumerate(node.children) if i != winner]
        arrivals.update(zip(node.children, offset_propagate(
            arrivals[digest], winner, counts, residuals)))
        stack.extend(node.children)
    return arrivals


def exact_leaf_values(graph: PrefixDag,
                      arrivals: dict[bytes, float]) -> dict[bytes, float]:
    """V(P) = s_det(P) - log E_P with the coupled E_P = t(P)."""
    values: dict[bytes, float] = {}
    for leaf in graph.iter_leaves():
        values[leaf] = graph.node(leaf).prefix_score - math.log(arrivals[leaf])
    return values


def realized_suffix_max(graph: PrefixDag,
                        leaf_values: dict[bytes, float]) -> dict[bytes, float]:
    """RSM(v): the best realized leaf value anywhere below v."""
    rsm: dict[bytes, float] = {}
    order: list[bytes] = []
    stack = [graph.root]
    while stack:
        digest = stack.pop()
        order.append(digest)
        stack.extend(graph.node(digest).children)
    for digest in reversed(order):
        node = graph.node(digest)
        if node.is_leaf:
            rsm[digest] = leaf_values[digest]
        else:
            rsm[digest] = max(rsm[c] for c in node.children)
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
    root = graph.root
    u0 = uniform_raw.get(root)
    n0 = graph.suffix_count(root)
    arrivals[root] = (exp_from_uniform(open_uniform(u0), n0)
                      if u0 is not None else 0.0)
    stack = [root]
    while stack:
        digest = stack.pop()
        t_parent = arrivals[digest]
        for child in graph.node(digest).children:
            u = uniform_raw.get(child)
            if u is None:
                arrivals[child] = t_parent
            else:
                t_own = exp_from_uniform(open_uniform(u),
                                         graph.suffix_count(child))
                arrivals[child] = max(t_parent, t_own)
            stack.append(child)
    return arrivals
