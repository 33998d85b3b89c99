"""Shared-node DAGs and their compilation into context-indexed prefix-DAGs.

Compilation duplicates shared subgraphs per prefix context, so every node of
the output has a unique root path and a unique parent.  Contexts with no
leaf below them are dropped, so the children of any internal node partition
its reachable leaf set into non-empty blocks by construction; the
certificate is structural: it checks that each context is listed once, in
its parent's children.  Suffix counts are exact Python ints, set during the
same walk; ``COUNT_LIMIT`` is the 63-bit ceiling the search certifies under.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field

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
        if not 0 <= self.max_depth < 1 << 32:  # hashed as a u32
            raise ValueError("max_depth must lie in [0, 2**32)")
        if self.c_s_max < 0:
            raise ValueError("c_s_max must be >= 0")
        if self.c_s_min <= 0:
            raise ValueError("c_s_min must be > 0")


@dataclass(frozen=True)
class DagNode:
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
        self._children: dict[str, list[tuple[int, str]]] = {}
        for parent, child, order in self.edges:
            self._children.setdefault(parent, []).append((order, child))
        for parent, kids in self._children.items():
            kids.sort()

    def validate(self) -> None:
        if self.root_id not in self.nodes:
            raise ValueError(f"root {self.root_id!r} not a node")
        seen: dict[tuple[str, int], None] = {}
        for parent, child, order in self.edges:
            if parent not in self.nodes or child not in self.nodes:
                raise ValueError(f"edge ({parent},{child}) endpoint missing")
            if (parent, order) in seen:
                raise ValueError(f"duplicate edge_order {order} at {parent}")
            if not 0 <= order < 1 << 32:
                raise ValueError(f"edge_order {order} at {parent} outside [0, 2**32)")
            seen[(parent, order)] = None

    def children_of(self, node_id: str) -> list[tuple[int, str]]:
        return self._children.get(node_id, [])

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SharedDag":
        """The graph a JSON object describes; any defect in it, a missing
        key, a wrong type or a bad value, is a ``GraphSpecError``."""
        try:
            caps = PublicCaps(
                max_depth=int(obj["caps"]["max_depth"]),
                c_s_max=float(obj["caps"]["c_s_max"]),
                c_s_min=float(obj["caps"]["c_s_min"]),
            )
            nodes = {
                n["id"]: DagNode(
                    node_id=n["id"],
                    state_label=n["state"],
                    is_leaf=bool(n.get("leaf", False)),
                    det_score_delta=float(n.get("delta_cost", 0.0)),
                )
                for n in obj["nodes"]
            }
            if not all(isinstance(s, str) for n in nodes.values()
                       for s in (n.node_id, n.state_label)):
                raise TypeError("node id and state must be strings")
            edges = [(e["from"], e["to"], int(e["order"])) for e in obj["edges"]]
            return cls(nodes=nodes, edges=edges, root_id=obj["root"], caps=caps)
        except (KeyError, TypeError, ValueError, AttributeError,
                OverflowError) as exc:
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
            "caps": {
                "max_depth": self.caps.max_depth,
                "c_s_max": self.caps.c_s_max,
                "c_s_min": self.caps.c_s_min,
            },
            "nodes": [
                {
                    "id": n.node_id,
                    "state": n.state_label,
                    "leaf": n.is_leaf,
                    "delta_cost": n.det_score_delta,
                }
                for n in self.nodes.values()
            ],
            "edges": [
                {"from": p, "to": c, "order": o} for p, c, o in self.edges
            ],
        }

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_obj(), fh, indent=1, sort_keys=True)
            fh.write("\n")


def ctx_digest(path: list[tuple[str, int]], caps: PublicCaps) -> bytes:
    """SHA-256 of the canonical, length-prefixed context serialization.

    Big-endian fields throughout; the domain tag separates this hash use
    from the PRF.  Deterministic across platforms.
    """
    if not path:
        raise ValueError("path must be non-empty")
    h = hashlib.sha256()
    h.update(CTX_DOMAIN_TAG)
    h.update(struct.pack(">I", caps.max_depth))
    h.update(struct.pack(">d", caps.c_s_max))
    h.update(struct.pack(">d", caps.c_s_min))
    h.update(struct.pack(">I", len(path)))
    for state_label, edge_order in path:
        raw = state_label.encode("utf-8")
        h.update(struct.pack(">I", len(raw)))
        h.update(raw)
        h.update(struct.pack(">I", edge_order))
    return h.digest()


@dataclass
class PrefixNode:
    ctx_digest: bytes
    state_label: str
    depth: int
    prefix_score: float
    parent: bytes | None
    is_leaf: bool
    children: list[bytes] = field(default_factory=list)
    n_exact: int = 0


@dataclass(frozen=True)
class CompileCertificate:
    """``ok``: every non-root context sits in exactly one children list, its
    parent's, so the children of each node partition its leaves."""

    ok: bool
    total_leaves: int


class PrefixDag:
    """Compiled, immutable prefix-DAG: digest-addressed nodes plus counts."""

    def __init__(self, nodes: dict[bytes, PrefixNode], root: bytes, caps: PublicCaps):
        self.nodes = nodes
        self.root = root
        self.caps = caps

    def node(self, digest: bytes) -> PrefixNode:
        return self.nodes[digest]

    def suffix_count(self, digest: bytes) -> int:
        """Exact number of canonical leaves below a node."""
        return self.nodes[digest].n_exact

    def iter_leaves(self, digest: bytes | None = None):
        start = digest if digest is not None else self.root
        stack = [start]
        while stack:
            d = stack.pop()
            node = self.nodes[d]
            if node.is_leaf:
                yield d
            else:
                stack.extend(reversed(node.children))

    def public_counts(self) -> dict[str, int]:
        """ctx_digest hex -> exact leaf count, for validator tightening."""
        return {d.hex(): n.n_exact for d, n in self.nodes.items()}


def _unique_parents(nodes: dict[bytes, PrefixNode], root: bytes) -> bool:
    owner: dict[bytes, bytes] = {}
    for digest, node in nodes.items():
        for child in node.children:
            if child in owner or nodes[child].parent != digest:
                return False
            owner[child] = digest
    return root not in owner and len(owner) == len(nodes) - 1


def compile_dag(dag: SharedDag) -> tuple[PrefixDag, CompileCertificate]:
    """Unfold a shared-node DAG into a context-indexed prefix-DAG.

    One depth-first walk with an explicit stack, so deep graphs compile.
    Each context is created once, with its parent link; its leaf count is
    set in post-order, where an internal context with no leaf below it is
    dropped, so every child holds at least one of its parent's leaves.
    Paths beyond the depth cap are an error, never a silent truncation; a
    cycle, a repeated digest or a root without leaves is an error too.
    """
    nodes: dict[bytes, PrefixNode] = {}
    on_path: set[str] = set()
    root = dag.nodes[dag.root_id]
    # (node id, context path, prefix score, link): on entry the link is the
    # parent's digest; an exit entry has no path and links to its own context.
    stack: list[tuple[str, list | None, float, bytes | None]] = [
        (dag.root_id, [(root.state_label, 0)], -root.det_score_delta, None)]
    while stack:
        node_id, path, score, link = stack.pop()
        if path is None:  # exit: every child is counted
            node = nodes[link]
            if not node.is_leaf:
                node.n_exact = sum(nodes[c].n_exact for c in node.children)
            if node.n_exact == 0:  # no leaf below: drop the context
                if node.parent is None:
                    raise NoLeafError(f"no leaf below root {node_id!r}")
                del nodes[link]
                # A child exits before its next sibling is entered, so it
                # is still its parent's last child.
                nodes[node.parent].children.pop()
            on_path.discard(node_id)
            continue
        if node_id in on_path:
            raise CycleDetectedError(f"cycle through {node_id!r}")
        if len(path) > dag.caps.max_depth:
            raise DepthCapExceededError(
                f"path depth {len(path)} exceeds cap {dag.caps.max_depth}"
            )
        parent = link
        digest = ctx_digest(path, dag.caps)
        if digest in nodes:
            where = "/".join(f"{s}#{o}" for s, o in path)
            raise DigestCollisionError(f"digest collision at {where}")
        dag_node = dag.nodes[node_id]
        nodes[digest] = PrefixNode(
            ctx_digest=digest,
            state_label=dag_node.state_label,
            depth=len(path) - 1,
            prefix_score=score,
            parent=parent,
            is_leaf=dag_node.is_leaf,
            n_exact=1 if dag_node.is_leaf else 0,
        )
        if parent is not None:
            nodes[parent].children.append(digest)
        on_path.add(node_id)
        stack.append((node_id, None, 0.0, digest))
        for order, child_id in reversed(dag.children_of(node_id)):
            child = dag.nodes[child_id]
            stack.append((child_id, path + [(child.state_label, order)],
                          score - child.det_score_delta, digest))
    root_digest = next(iter(nodes))
    graph = PrefixDag(nodes, root_digest, dag.caps)
    cert = CompileCertificate(ok=_unique_parents(nodes, root_digest),
                              total_leaves=nodes[root_digest].n_exact)
    return graph, cert
