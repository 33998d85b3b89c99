"""Fixture and suite generators.

Everything here is deterministic in its seed arguments.  The toy four-leaf
fixture replays the worked example exactly (scripted uniforms, per-state
fixed bounds).  The tree families (``suite_a``, ``random_tree``,
``random_binary_tree``, ``full_binary_tree``) are callers of one builder,
``_tree``; ``suite_b`` is the layered shared DAG.  The adversarial fixture
is the one on which distribution-level pruning can discard the realized
winner while the certified router does not; ``racecert find-adversarial``
scans race seeds for that split and ``ADVERSARIAL_SEED`` pins its result.
"""

from __future__ import annotations

import random

from .bounds import MtauConfig, MtauRecipe
from .fixedpoint import encode_q0_64
from .prefix_dag import DagNode, PublicCaps, SharedDag


# -- toy 4-leaf replay fixture -------------------------------------------

TOY_MTAU_TABLE = {
    "r": 5.0, "u1": 4.5, "u2": 4.2,
    "p1": 0.0, "p2": 0.0, "p3": 0.0, "p4": 0.0,
}

TOY_SCRIPTED = {
    ("r", "race"): encode_q0_64(0.20),
    ("r", "winner"): encode_q0_64(0.70),
    ("u2", "residual"): encode_q0_64(0.37),
    ("u1", "winner"): encode_q0_64(0.50),
    ("p1", "residual"): encode_q0_64(0.50),
    ("p3", "residual"): encode_q0_64(0.25),
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

def _tree(leaf, cost, branches, depth: int, c_s_max: float,
          sep: str = ".") -> SharedDag:
    """Tree grown depth first from root ``n``.  Each callback gets the
    node's depth and is called in this order: ``leaf``, ``cost`` (its edge
    cost), then, for an internal node, ``branches`` (its child count), so a
    family's RNG draws follow the walk.  Leaves sit at most ``depth`` deep;
    a child is named ``<parent><sep><order>``."""
    if depth < 0:  # no level would be a leaf level
        raise ValueError(f"tree depth {depth} must be >= 0")
    nodes: dict[str, DagNode] = {}
    edges: list[tuple[str, str, int]] = []

    def grow(name: str, d: int) -> None:
        is_leaf = leaf(d)
        nodes[name] = DagNode(name, name, is_leaf, cost(d))
        if is_leaf:
            return
        for b in range(branches(d)):
            child = f"{name}{sep}{b}"
            edges.append((name, child, b))
            grow(child, d + 1)

    grow("n", 0)
    return SharedDag(nodes=nodes, edges=edges, root_id="n",
                     caps=PublicCaps(max_depth=depth + 1, c_s_max=c_s_max,
                                     c_s_min=c_s_max))


def _random_cost(rng: random.Random, c_s_max: float):
    """Edge cost uniform in [0, c_s_max]; the root's is 0."""
    return lambda d: 0.0 if d == 0 else rng.uniform(0.0, c_s_max)


def suite_a(depth: int, branching: int = 3, seed: int = 0,
            c_s_max: float = 1.0) -> SharedDag:
    """Balanced tree of the given depth and branching; random edge costs."""
    rng = random.Random(("suite_a", depth, branching, seed).__repr__())
    return _tree(lambda d: d == depth, _random_cost(rng, c_s_max),
                 lambda d: branching, depth, c_s_max)


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
    return _tree(
        lambda d: d == max_depth or (d > 0 and rng.random() < leaf_prob),
        _random_cost(rng, c_s_max), lambda d: rng.randint(1, max_branch),
        max_depth, c_s_max)


def random_binary_tree(seed: int, max_depth: int = 4,
                       c_s_max: float = 1.5) -> SharedDag:
    """Binary trees (every internal node has exactly two children), the
    family for which the fallback work bound is asserted."""
    rng = random.Random(("random_binary_tree", seed).__repr__())
    return _tree(lambda d: d == max_depth or (d > 0 and rng.random() < 0.3),
                 _random_cost(rng, c_s_max), lambda d: 2, max_depth, c_s_max)


def full_binary_tree(depth: int) -> SharedDag:
    """Complete binary tree, zero costs: the pinned equality fixture family
    for the fallback work bound."""
    return _tree(lambda d: d == depth, lambda d: 0.0, lambda d: 2, depth, 1.0,
                 sep="")


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


# Pinned by `racecert find-adversarial`; the scan ships with the repo.
ADVERSARIAL_SEED = 1

# Pinned by scanning PRF salts over full_binary_tree(2): the fallback run
# evaluates |S| = 3 extra leaves with exactly 3 internal expansions,
# attaining the work bound with equality.
FALLBACK_EQUALITY_SALT = (1).to_bytes(8, "big")
FALLBACK_EQUALITY_DEPTH = 2
