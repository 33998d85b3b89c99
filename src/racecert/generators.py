"""Fixture and suite generators.

Everything here is deterministic in its seed arguments.  The toy four-leaf
fixture replays the worked example exactly (scripted uniforms, per-state
fixed bounds); the suites are the balanced-tree and layered-shared-DAG
families used by the experiment harness; the adversarial search scans race
seeds for a fixture on which distribution-level pruning discards the
realized winner while the certified router does not.
"""

from __future__ import annotations

import random

from .bounds import MtauConfig, MtauRecipe
from .prefix_dag import DagNode, PublicCaps, SharedDag, compile_dag


def scripted_raw(u: float) -> int:
    """Q0.64 raw whose open-interval value is nearest to u."""
    return max(0, min((1 << 64) - 1, round(u * 2.0**64 - 0.5)))


# -- toy 4-leaf replay fixture -------------------------------------------

TOY_MTAU_TABLE = {
    "r": 5.0, "u1": 4.5, "u2": 4.2,
    "p1": 0.0, "p2": 0.0, "p3": 0.0, "p4": 0.0,
}

TOY_SCRIPTED = {
    ("r", "race"): scripted_raw(0.20),
    ("r", "winner"): scripted_raw(0.70),
    ("u2", "residual"): scripted_raw(0.37),
    ("u1", "winner"): scripted_raw(0.50),
    ("p1", "residual"): scripted_raw(0.50),
    ("p3", "residual"): scripted_raw(0.25),
}


def toy_graph() -> SharedDag:
    """Root with children u1 (3 leaves) and u2 (1 leaf); zero edge costs."""
    nodes = {
        "r": DagNode("r", "r", False),
        "u1": DagNode("u1", "u1", False),
        "u2": DagNode("u2", "u2", False),
        "p1": DagNode("p1", "p1", True),
        "p2": DagNode("p2", "p2", True),
        "p3": DagNode("p3", "p3", True),
        "p4": DagNode("p4", "p4", True),
    }
    edges = [
        ("r", "u1", 0), ("r", "u2", 1),
        ("u1", "p1", 0), ("u1", "p2", 1), ("u1", "p3", 2),
        ("u2", "p4", 0),
    ]
    return SharedDag(nodes=nodes, edges=edges, root_id="r",
                     caps=PublicCaps(max_depth=3, c_s_max=1.0, c_s_min=1.0))


def toy_mtau() -> MtauConfig:
    return MtauConfig(recipe=MtauRecipe.FIXED, fixed_table=dict(TOY_MTAU_TABLE))


# -- experiment suites ----------------------------------------------------

def suite_a(depth: int, branching: int = 3, seed: int = 0,
            c_s_max: float = 1.0) -> SharedDag:
    """Balanced tree of the given depth and branching; random edge costs."""
    rng = random.Random(("suite_a", depth, branching, seed).__repr__())
    nodes: dict[str, DagNode] = {}
    edges: list[tuple[str, str, int]] = []

    def grow(name: str, d: int) -> None:
        nodes[name] = DagNode(name, name, is_leaf=(d == depth),
                              det_score_delta=0.0 if d == 0
                              else rng.uniform(0.0, c_s_max))
        if d == depth:
            return
        for b in range(branching):
            child = f"{name}.{b}"
            edges.append((name, child, b))
            grow(child, d + 1)

    grow("n", 0)
    return SharedDag(nodes=nodes, edges=edges, root_id="n",
                     caps=PublicCaps(max_depth=depth + 1, c_s_max=c_s_max,
                                     c_s_min=c_s_max))


def suite_b(layers: int = 4, width: int = 3, seed: int = 0,
            c_s_max: float = 1.0) -> SharedDag:
    """Layered DAG with shared nodes (each feeds 2 next-layer nodes);
    compilation unfolds shared nodes into distinct prefix contexts."""
    rng = random.Random(("suite_b", layers, width, seed).__repr__())
    nodes: dict[str, DagNode] = {"root": DagNode("root", "root", False)}
    edges: list[tuple[str, str, int]] = []
    layer_names: list[list[str]] = [["root"]]
    for layer in range(1, layers + 1):
        leaf = layer == layers
        names = [f"L{layer}x{i}" for i in range(width)]
        for name in names:
            nodes[name] = DagNode(name, name, is_leaf=leaf,
                                  det_score_delta=rng.uniform(0.0, c_s_max))
        layer_names.append(names)
    for layer in range(layers):
        for parent in layer_names[layer]:
            fanout = width if parent == "root" else 2
            targets = rng.sample(layer_names[layer + 1],
                                 min(fanout, width))
            for order, child in enumerate(sorted(targets)):
                edges.append((parent, child, order))
    return SharedDag(nodes=nodes, edges=edges, root_id="root",
                     caps=PublicCaps(max_depth=layers + 1, c_s_max=c_s_max,
                                     c_s_min=c_s_max))


def random_tree(seed: int, max_depth: int = 4, max_branch: int = 3,
                leaf_prob: float = 0.35, c_s_max: float = 2.0) -> SharedDag:
    """Irregular finite tree for the property suites."""
    rng = random.Random(("random_tree", seed).__repr__())
    nodes: dict[str, DagNode] = {}
    edges: list[tuple[str, str, int]] = []

    def grow(name: str, d: int) -> None:
        leaf = d == max_depth or (d > 0 and rng.random() < leaf_prob)
        nodes[name] = DagNode(name, name, is_leaf=leaf,
                              det_score_delta=0.0 if d == 0
                              else rng.uniform(0.0, c_s_max))
        if leaf:
            return
        for b in range(rng.randint(1, max_branch)):
            child = f"{name}.{b}"
            edges.append((name, child, b))
            grow(child, d + 1)

    grow("n", 0)
    return SharedDag(nodes=nodes, edges=edges, root_id="n",
                     caps=PublicCaps(max_depth=max_depth + 1, c_s_max=c_s_max,
                                     c_s_min=c_s_max))


def random_binary_tree(seed: int, max_depth: int = 4,
                       c_s_max: float = 1.5) -> SharedDag:
    """Binary trees (every internal node has exactly two children), the
    family for which the fallback work bound is asserted."""
    rng = random.Random(("random_binary_tree", seed).__repr__())
    nodes: dict[str, DagNode] = {}
    edges: list[tuple[str, str, int]] = []

    def grow(name: str, d: int) -> None:
        leaf = d == max_depth or (d > 0 and rng.random() < 0.3)
        nodes[name] = DagNode(name, name, is_leaf=leaf,
                              det_score_delta=0.0 if d == 0
                              else rng.uniform(0.0, c_s_max))
        if leaf:
            return
        for b in (0, 1):
            child = f"{name}.{b}"
            edges.append((name, child, b))
            grow(child, d + 1)

    grow("n", 0)
    return SharedDag(nodes=nodes, edges=edges, root_id="n",
                     caps=PublicCaps(max_depth=max_depth + 1, c_s_max=c_s_max,
                                     c_s_min=c_s_max))


def full_binary_tree(depth: int) -> SharedDag:
    """Complete binary tree, zero costs: the pinned equality fixture family
    for the fallback work bound."""
    nodes: dict[str, DagNode] = {}
    edges: list[tuple[str, str, int]] = []

    def grow(name: str, d: int) -> None:
        nodes[name] = DagNode(name, name, is_leaf=(d == depth))
        if d == depth:
            return
        for b in (0, 1):
            child = f"{name}{b}"
            edges.append((name, child, b))
            grow(child, d + 1)

    grow("n", 0)
    return SharedDag(nodes=nodes, edges=edges, root_id="n",
                     caps=PublicCaps(max_depth=depth + 1, c_s_max=1.0,
                                     c_s_min=1.0))


def adversarial_graph() -> SharedDag:
    """Deep thin branch A (large count, cheap leaves) vs a single rich leaf
    B: distribution-level keys charge A the *expected* race term
    gamma + log N(A), which understates a lucky realized arrival."""
    nodes = {
        "root": DagNode("root", "root", False),
        "A": DagNode("A", "A", False, det_score_delta=0.4),
        "B": DagNode("B", "B", True, det_score_delta=0.0),
    }
    edges = [("root", "A", 0), ("root", "B", 1)]
    for i in range(8):
        leaf = f"A{i}"
        nodes[leaf] = DagNode(leaf, leaf, True, det_score_delta=0.1)
        edges.append(("A", leaf, i))
    return SharedDag(nodes=nodes, edges=edges, root_id="root",
                     caps=PublicCaps(max_depth=3, c_s_max=1.0, c_s_min=1.0))


def pipeline_mock() -> SharedDag:
    """Mock tool pipeline: plan -> {search, retrieve} -> synthesize leaves,
    with the retrieval branch cheaper in deterministic score."""
    nodes = {
        "plan": DagNode("plan", "plan", False),
        "search": DagNode("search", "search", False, det_score_delta=0.6),
        "retrieve": DagNode("retrieve", "retrieve", False, det_score_delta=0.2),
    }
    edges = [("plan", "search", 0), ("plan", "retrieve", 1)]
    for stage in ("search", "retrieve"):
        for i in range(3):
            leaf = f"{stage}-synth{i}"
            nodes[leaf] = DagNode(leaf, leaf, True,
                                  det_score_delta=0.1 * (i + 1))
            edges.append((stage, leaf, i))
    return SharedDag(nodes=nodes, edges=edges, root_id="plan",
                     caps=PublicCaps(max_depth=3, c_s_max=1.0, c_s_min=1.0))


def find_adversarial(max_seeds: int = 2000) -> int | None:
    """Scan race seeds for one where dist-level pruning discards the
    realized winner on the adversarial fixture while Exact keeps it."""
    from .baselines import dist_level
    from .bounds import MtauConfig
    from .race import RngStream
    from .reconstruct import (argmax_leaf, exact_leaf_values, exact_race,
                              stream_lookup)
    from .search import Mode, RunConfig, run

    graph, cert = compile_dag(adversarial_graph())
    assert cert.ok
    cfg_m = MtauConfig()  # R2: prefix-score envelope
    for seed in range(max_seeds):
        lookup = stream_lookup(RngStream(seed))
        values = exact_leaf_values(graph, exact_race(graph, lookup))
        base = dist_level(graph, cfg_m, values)
        if not base.pruned_winner:
            continue
        winner, _ = argmax_leaf(values)
        result = run(graph, Mode.EXACT, RunConfig(mtau=cfg_m, seed=seed))
        if result.incumbent_leaf == winner.hex():
            return seed
    return None


# Pinned by find_adversarial(); the scan ships with the repo.
ADVERSARIAL_SEED = 1

# Pinned by scanning PRF salts over full_binary_tree(2): the fallback run
# evaluates |S| = 3 extra leaves with exactly 3 internal expansions,
# attaining the work bound with equality.
FALLBACK_EQUALITY_SALT = (1).to_bytes(8, "big")
FALLBACK_EQUALITY_DEPTH = 2
