"""Shared-node DAGs and their lazy unfolding into context-indexed prefix-DAGs.

Unfolding duplicates shared subgraphs per prefix context, so every context
has a unique root path and a unique parent.  ``compile_dag`` does shared-DAG
work only: one walk counts the leaves below each shared node and rejects a
cycle, an over-deep path or a root without leaves.  A context is built the
first time it is asked for, and its children are digested the first time
they are listed, so an Exact or Surrogate route hashes only the contexts it
pushes.  A context with no leaf below it is never built and a leaf context
lists no children, so the children of any internal context partition its
leaves into non-empty blocks by construction.  Suffix counts are exact
Python ints; ``COUNT_LIMIT`` is the 63-bit ceiling the search certifies
under.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass
from typing import Iterator, NamedTuple

from . import fixedpoint as fp

CTX_DOMAIN_TAG = b"racecert/ctx/v1"

COUNT_LIMIT = (1 << 63) - 1


class CycleDetectedError(ValueError):
    """A directed cycle is reachable from the root."""


class DepthCapExceededError(ValueError):
    """A root path exceeds the public max_depth cap."""


class DigestCollisionError(ValueError):
    """Two distinct contexts hashed to the same digest."""


class NoLeafError(ValueError):
    """No leaf is reachable from the root."""


class GraphSpecError(ValueError):
    """A graph spec (JSON) that does not describe a ``SharedDag``."""


@dataclass(frozen=True)
class PublicCaps:
    max_depth: int
    c_s_max: float
    c_s_min: float

    def __post_init__(self):
        fp.store_as(self, int, "max_depth")
        fp.store_as(self, float, "c_s_max", "c_s_min")
        if not 0 <= self.max_depth < 1 << 32:  # hashed as a u32
            raise ValueError("max_depth must lie in [0, 2**32)")
        if not self.c_s_max >= 0:  # NaN too
            raise ValueError("c_s_max must be >= 0")
        if not self.c_s_min > 0:
            raise ValueError("c_s_min must be > 0")


class DagNode(NamedTuple):
    node_id: str
    state_label: str
    is_leaf: bool
    det_score_delta: float = 0.0


@dataclass
class SharedDag:
    """Input graph: possibly shared nodes, ordered edges, public caps."""

    nodes: dict[str, DagNode]
    edges: list[tuple[str, str, int]]
    root_id: str
    caps: PublicCaps

    def __post_init__(self):
        self.validate()
        children: dict[str, list[tuple[int, str]]] = {}
        for parent, child, order in self.edges:
            children.setdefault(parent, []).append((order, child))
        for kids in children.values():
            kids.sort()
        self._children = children

    def validate(self) -> None:
        nodes = self.nodes
        if self.root_id not in nodes:
            raise ValueError(f"root {self.root_id!r} not a node")
        for n in nodes.values():
            if not (type(n.node_id) is type(n.state_label) is str
                    and type(n.is_leaf) is bool
                    and type(n.det_score_delta) in (int, float)):
                raise ValueError(f"node {n.node_id!r}: id and state must be strings, "
                                 "leaf a bool and cost a number")
            # Scores only fall, so M_tau is admissible; an int cost that no
            # float holds raises OverflowError here, not at compile.
            if not float(n.det_score_delta) >= 0.0:
                raise ValueError(f"node {n.node_id!r} cost {n.det_score_delta} not >= 0")
        seen: set[tuple[str, int]] = set()
        for parent, child, order in self.edges:
            if parent not in nodes or child not in nodes:
                raise ValueError(f"edge ({parent},{child}) endpoint missing")
            if type(order) is not int or not 0 <= order < 1 << 32:  # hashed as a u32
                raise ValueError(f"edge_order {order!r} at {parent} not an int "
                                 "in [0, 2**32)")
            if (parent, order) in seen:
                raise ValueError(f"duplicate edge_order {order} at {parent}")
            seen.add((parent, order))

    def children_of(self, node_id: str) -> list[tuple[int, str]]:
        return self._children.get(node_id, [])

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SharedDag":
        """The graph a JSON object describes; any defect in it, a missing
        key, a wrong type or a bad value, is a ``GraphSpecError``."""
        try:
            raw = obj["caps"]
            caps = PublicCaps(raw["max_depth"], raw["c_s_max"], raw["c_s_min"])
            nodes = {n["id"]: DagNode(n["id"], n["state"], n.get("leaf", False),
                                      n.get("delta_cost", 0.0)) for n in obj["nodes"]}
            edges = [(e["from"], e["to"], e["order"]) for e in obj["edges"]]
            return cls(nodes=nodes, edges=edges, root_id=obj["root"], caps=caps)
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise GraphSpecError(
                f"bad graph spec: {type(exc).__name__}: {exc}") from exc

    @classmethod
    def load(cls, path: str) -> "SharedDag":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
            raise GraphSpecError(f"bad graph spec: {exc}") from exc
        return cls.from_json_obj(obj)

    def to_json_obj(self) -> dict:
        return {
            "root": self.root_id,
            "caps": asdict(self.caps),
            "nodes": [{"id": n.node_id, "state": n.state_label, "leaf": n.is_leaf,
                       "delta_cost": n.det_score_delta} for n in self.nodes.values()],
            "edges": [{"from": p, "to": c, "order": o} for p, c, o in self.edges],
        }

    def save(self, path: str) -> None:
        """Write the spec as one line of compact, key-sorted JSON; ``json``
        encodes that in C, where any ``indent`` falls back to Python."""
        text = json.dumps(self.to_json_obj(), sort_keys=True,
                          separators=(",", ":"))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")




def _caps_head(caps: PublicCaps) -> bytes:
    """The bytes every context digest starts with: domain tag, then caps."""
    return CTX_DOMAIN_TAG + struct.pack(">Idd", caps.max_depth, caps.c_s_max,
                                        caps.c_s_min)


def _path_entry(state_label: str, edge_order: int) -> bytes:
    """One entry of a context's path body."""
    raw = state_label.encode("utf-8")
    return struct.pack(">I", len(raw)) + raw + struct.pack(">I", edge_order)


def _digest(head: bytes, length: int, body: bytes) -> bytes:
    """SHA-256 of the caps head, the path length and the path body: the one
    digest function behind ``ctx_digest`` and every built context.  The
    length comes before the body, so a context extends its parent's body
    bytes, not its hash state."""
    return hashlib.sha256(head + struct.pack(">I", length) + body).digest()


def ctx_digest(path: list[tuple[str, int]], caps: PublicCaps) -> bytes:
    """SHA-256 of the canonical, length-prefixed context serialization.

    Big-endian fields throughout; the domain tag separates this hash use
    from the PRF.  Deterministic across platforms.
    """
    if not path:
        raise ValueError("path must be non-empty")
    return _digest(_caps_head(caps), len(path),
                   b"".join(_path_entry(label, order) for label, order in path))


@dataclass(slots=True)
class PrefixNode:
    ctx_digest: bytes
    state_label: str
    depth: int
    prefix_score: float
    parent: bytes | None
    is_leaf: bool
    n_exact: int = 0
    # No leaf below scores more: prefix score plus score-to-go, rounded up.
    score_ub: float = 0.0


@dataclass(frozen=True)
class CompileCertificate:
    """``ok``: every non-root context sits in exactly one children list, its
    parent's, so the children of each node partition its leaves.  Edge
    orders are unique per parent, so sibling contexts differ in their last
    path entry, and each context is built once, by its parent: ``ok`` holds
    by construction whenever ``compile_dag`` returns."""

    ok: bool
    total_leaves: int


class PrefixDag:
    """Digest-addressed contexts of a shared DAG, built on demand.

    A context is built the first time ``node()`` asks for it, and its
    children are digested the first time ``children()`` lists them: the
    contexts of its shared node's children that have a leaf below them,
    each from the path body the context carried, which it then drops.  An
    Exact or Surrogate route thus digests only the contexts it pushes.
    ``nodes`` holds the contexts built so far; ``walk()`` builds and lists
    those it reaches, and ``unfold()`` drains it to build the rest.  Once
    every context is built and listed, the shared graph and its tables are
    dropped.  A repeated digest is detected when a listing digests it,
    among every context digested so far.
    """

    def __init__(self, dag: SharedDag, counts: dict[str, int],
                 togo: dict[str, float], height: dict[str, int]):
        self.caps = dag.caps
        self.nodes: dict[bytes, PrefixNode] = {}
        self._dag = dag
        self._counts, self._togo, self._height = counts, togo, height
        self._head = _caps_head(dag.caps)
        # Digest -> (shared node id, path body, parent digest, prefix score,
        # depth) of every digested context whose children are not listed
        # yet: not built, or built as a non-leaf and not yet listed.
        self._pending: dict[bytes, tuple[str, bytes, bytes | None, float, int]] = {}
        self._children: dict[bytes, list[bytes]] = {}
        root = dag.nodes[dag.root_id]
        body = _path_entry(root.state_label, 0)
        self.root = _digest(self._head, 1, body)
        self._pending[self.root] = (dag.root_id, body, None,
                                    -root.det_score_delta, 0)
        self.node(self.root)

    def node(self, digest: bytes) -> PrefixNode:
        node = self.nodes.get(digest)
        return node if node is not None else self._build(digest)

    def _build(self, digest: bytes) -> PrefixNode:
        node_id, _, parent, score, depth = self._pending[digest]
        shared = self._dag.nodes[node_id]
        # The best leaf's float score subtracts the h <= height - 1 costs
        # below one by one, and score + togo sums them in another order: at
        # most 2h roundings, each within half an ulp of |score_ub|, so 2h
        # ulps round the sum up past it.  A childless leaf gets none.
        score_ub = score + self._togo[node_id]
        ulps = 2 * (self._height[node_id] - 1)
        if ulps and score_ub > -math.inf:
            score_ub += ulps * math.ulp(score_ub)
        node = self.nodes[digest] = PrefixNode(
            digest, shared.state_label, depth, score, parent, shared.is_leaf,
            self._counts[node_id], score_ub)
        # A leaf ends every path through it, so it lists no children and
        # needs no body; a non-leaf keeps its entry until it is listed.
        if shared.is_leaf:
            del self._pending[digest]
            if not self._pending:  # all built and listed: drop the shared tables
                self._dag = self._counts = self._togo = self._height = None
        return node

    def children(self, digest: bytes) -> list[bytes]:
        """The digests of a context's children, in edge order; the first call
        builds the context if need be and digests them."""
        kids = self._children.get(digest)
        if kids is not None:
            return kids
        if self.node(digest).is_leaf:
            return []
        node_id, body, _, score, depth = self._pending[digest]
        dag, counts, pending = self._dag, self._counts, self._pending
        kids = []
        for order, child_id in dag.children_of(node_id):
            if counts[child_id] == 0:
                continue  # no leaf below: never built
            child = dag.nodes[child_id]
            child_body = body + _path_entry(child.state_label, order)
            child_digest = _digest(self._head, depth + 2, child_body)
            if child_digest in pending or child_digest in self.nodes:
                raise DigestCollisionError(
                    f"digest collision at child #{order} of the "
                    f"{self.nodes[digest].state_label!r} context at depth {depth}")
            pending[child_digest] = (child_id, child_body, digest,
                                     score - child.det_score_delta, depth + 1)
            kids.append(child_digest)
        del pending[digest]
        self._children[digest] = kids
        return kids

    def walk(self, digest: bytes | None = None) -> Iterator[PrefixNode]:
        """The contexts below ``digest`` (the root by default), itself
        included, in preorder: a parent before its children, siblings in
        edge order.  Builds each context it reaches; it is the one loop
        over contexts that every whole-graph or subtree pass reads."""
        stack = [self.root if digest is None else digest]
        while stack:
            node = self.node(stack.pop())
            yield node
            stack.extend(reversed(self.children(node.ctx_digest)))

    def unfold(self) -> dict[bytes, PrefixNode]:
        """Build every context; returns ``nodes``."""
        for _ in self.walk():
            pass
        return self.nodes

    def suffix_count(self, digest: bytes) -> int:
        """Exact number of canonical leaves below a node."""
        return self.node(digest).n_exact

    def public_counts(self) -> dict[str, int]:
        """ctx_digest hex -> exact leaf count, for validator tightening."""
        return {d.hex(): n.n_exact for d, n in self.unfold().items()}


def _shared_counts(dag: SharedDag) -> tuple[dict[str, int], dict[str, float],
                                             dict[str, int]]:
    """Leaf count, score-to-go and height of every shared node reachable
    from the root.

    One iterative post-order walk: a leaf counts 1, any other node the sum
    over its children.  A leaf's score-to-go is 0, any other node's the
    best ``togo(c) - cost(c)`` over its children, where a node without a
    leaf below has -inf, so a context's best leaf scores its prefix score
    plus ``togo``.  A node's height counts the nodes on its longest path
    down, itself included.  It also walks the subtrees that hold no leaf
    and those below a leaf, so a cycle or an over-deep path anywhere is an
    error, as in a full unfolding; so is a root without leaves.
    """
    max_depth = dag.caps.max_depth
    counts: dict[str, int] = {}
    togo: dict[str, float] = {}
    height: dict[str, int] = {}
    on_path: set[str] = set()
    # (node id, depth of the root path to it, its children on exit or None)
    stack: list[tuple[str, int, list[str] | None]] = [(dag.root_id, 1, None)]
    nodes = dag.nodes
    while stack:
        node_id, depth, kids = stack.pop()
        if kids is not None:  # exit: every child is counted
            on_path.discard(node_id)
            height[node_id] = 1 + max([height[c] for c in kids])
            if nodes[node_id].is_leaf:
                counts[node_id], togo[node_id] = 1, 0.0
            else:
                counts[node_id] = sum([counts[c] for c in kids])
                togo[node_id] = max([togo[c] - nodes[c].det_score_delta
                                     for c in kids])
            continue
        if node_id in on_path:
            raise CycleDetectedError(f"cycle through {node_id!r}")
        # A node reached before is not walked again; its height gives the
        # deepest root path through it.
        reach = depth + height.get(node_id, 1) - 1
        if reach > max_depth:
            raise DepthCapExceededError(
                f"path depth {reach} exceeds cap {max_depth}")
        if node_id in counts:
            continue
        kids = [child_id for _, child_id in dag.children_of(node_id)]
        if not kids:  # entry and exit at once
            height[node_id] = 1
            leaf = nodes[node_id].is_leaf
            counts[node_id], togo[node_id] = (1, 0.0) if leaf else (0, -math.inf)
            continue
        on_path.add(node_id)
        stack.append((node_id, depth, kids))
        stack.extend([(child_id, depth + 1, None) for child_id in reversed(kids)])
    if counts[dag.root_id] == 0:
        raise NoLeafError(f"no leaf below root {dag.root_id!r}")
    return counts, togo, height


def compile_dag(dag: SharedDag) -> tuple[PrefixDag, CompileCertificate]:
    """Count a shared-node DAG's leaves and return its lazy prefix-DAG.

    Compile does shared-DAG work only: one walk over the shared nodes gives
    their counts, and a cycle, a path beyond the depth cap (an error, never
    a silent truncation) or a root without leaves raises here.  It builds
    the root context; every other context is built when first reached.
    """
    counts, togo, height = _shared_counts(dag)
    graph = PrefixDag(dag, counts, togo, height)
    return graph, CompileCertificate(ok=True,
                                     total_leaves=counts[dag.root_id])
