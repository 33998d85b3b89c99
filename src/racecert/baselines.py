"""Non-certified comparators: greedy-by-bound, Beam(K), dist-level, oracle-A.

All baselines score leaves against the *same* realized race as the certified
router (pure RNG addressing makes that race a function of the seed alone), so
"pruned_winner" means the baseline discarded the leaf that actually won this
run's race.  Callers pass that race's leaf values
(``reconstruct.exact_leaf_values``), built once per seed.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .bounds import MtauConfig, mtau
from .prefix_dag import PrefixDag
from .race import fallback_value
from .reconstruct import argmax_leaf

EULER_GAMMA = 0.57721566


@dataclass
class BaselineResult:
    expansions: int
    found_value: float
    pruned_winner: bool
    found_leaf: str | None = None


def _best_first(graph: PrefixDag, score, leaf_values: dict[bytes, float],
                winner: bytes) -> BaselineResult:
    """Deterministic best-first on `score`; leaves pay out realized values."""
    heap: list[tuple[float, bytes]] = [(-score(graph.root), graph.root)]
    best = float("-inf")
    best_leaf: bytes | None = None
    expansions = 0
    while heap:
        neg_s, digest = heap[0]
        if -neg_s <= best:
            break
        heapq.heappop(heap)
        expansions += 1
        node = graph.node(digest)
        if node.is_leaf:
            v = leaf_values[digest]
            if v > best:
                best, best_leaf = v, digest
        else:
            for child in graph.children(digest):
                heapq.heappush(heap, (-score(child), child))
    return BaselineResult(
        expansions=expansions,
        found_value=best,
        pruned_winner=best_leaf != winner,
        found_leaf=best_leaf.hex() if best_leaf is not None else None,
    )


def greedy_by_bound(graph: PrefixDag, mtau_cfg: MtauConfig,
                    values: dict[bytes, float]) -> BaselineResult:
    """Best-first on the deterministic bound alone; no run-wise certificate.

    Stops when the top bound no longer exceeds the best realized leaf value,
    which is *not* sound for realized scores (the race term is unbounded).
    """
    winner, _ = argmax_leaf(values)
    return _best_first(
        graph, lambda d: mtau(graph.node(d), mtau_cfg), values, winner)


def dist_level(graph: PrefixDag, mtau_cfg: MtauConfig,
               values: dict[bytes, float]) -> BaselineResult:
    """Distribution-level pruning: keys use the *expected* race term
    E[-log E_min] = gamma + log N(v) instead of the realized -log t(v)."""
    winner, _ = argmax_leaf(values)

    def score(digest: bytes) -> float:
        node = graph.node(digest)
        return mtau(node, mtau_cfg) + EULER_GAMMA + math.log(
            graph.suffix_count(digest))

    return _best_first(graph, score, values, winner)


def beam_k(graph: PrefixDag, k: float, mtau_cfg: MtauConfig,
           values: dict[bytes, float]) -> BaselineResult:
    """Level-synchronous beam of width k by the deterministic bound."""
    if k < 1:
        raise ValueError("beam width must be >= 1")
    winner, _ = argmax_leaf(values)
    beam = [graph.root]
    best = float("-inf")
    best_leaf: bytes | None = None
    expansions = 0
    while beam:
        nxt: list[bytes] = []
        for digest in beam:
            expansions += 1
            node = graph.node(digest)
            if node.is_leaf:
                v = values[digest]
                if v > best:
                    best, best_leaf = v, digest
            else:
                nxt.extend(graph.children(digest))
        nxt.sort(key=lambda d: (-mtau(graph.node(d), mtau_cfg), d))
        beam = nxt if math.isinf(k) else nxt[: int(k)]
    return BaselineResult(
        expansions=expansions,
        found_value=best,
        pruned_winner=best_leaf != winner,
        found_leaf=best_leaf.hex() if best_leaf is not None else None,
    )


def oracle_a(graph: PrefixDag, salt: bytes, tau: float = 1.0) -> list[bytes]:
    """Baseline A: realized-score best-first over all leaves.

    With exhaustive knowledge of every perturbed value, the exact leaf-wise
    LSE bound lets it stop as soon as no remaining leaf can beat the best
    popped one, so it pops exactly the argmax (plus exact ties), in a
    deterministic replay-stable order.
    """
    scored = [(fallback_value(salt, leaf.ctx_digest, leaf.prefix_score, tau),
               leaf.ctx_digest) for leaf in graph.walk() if leaf.is_leaf]
    scored.sort(key=lambda item: (-item[0], item[1]))
    pops = [scored[0][1]]
    best = scored[0][0]
    for v, leaf in scored[1:]:
        if v < best:
            break
        pops.append(leaf)
    return pops
