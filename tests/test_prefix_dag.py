import json
import random
import re
import weakref

import pytest

from racecert import prefix_dag
from racecert.bounds import MtauConfig
from racecert.generators import (adversarial_graph, full_binary_tree,
                                 pipeline_mock, random_binary_tree,
                                 random_tree, suite_a, suite_b, toy_graph)
from racecert.prefix_dag import (
    CycleDetectedError,
    DagNode,
    DepthCapExceededError,
    DigestCollisionError,
    GraphSpecError,
    NoLeafError,
    PublicCaps,
    SharedDag,
    compile_dag,
    ctx_digest,
)
from racecert.race import RngStream
from racecert.reconstruct import (coupled_monotone_race, exact_leaf_values,
                                  exact_race, realized_suffix_max)
from racecert.search import Mode, RunConfig, run


def _brute_force_paths(dag: SharedDag, node_id: str) -> int:
    """Distinct node-to-leaf path count in the shared graph."""
    if dag.nodes[node_id].is_leaf:
        return 1
    kids = dag.children_of(node_id)
    if not kids:
        return 0
    return sum(_brute_force_paths(dag, child) for _, child in kids)


def _unique_parents(graph) -> bool:
    """Oracle for the partition certificate: each non-root context sits in
    exactly one children list, its parent's."""
    owner = {}
    nodes = graph.unfold()
    for digest in nodes:
        for child in graph.children(digest):
            if child in owner or nodes[child].parent != digest:
                return False
            owner[child] = digest
    return graph.root not in owner and len(owner) == len(nodes) - 1


def test_toy_compiles_with_certificates():
    graph, cert = compile_dag(toy_graph())
    assert cert.ok
    assert cert.total_leaves == 4
    assert graph.suffix_count(graph.root) == 4
    assert sum(n.is_leaf for n in graph.walk()) == 4


def test_shared_dag_counts_match_brute_force_paths():
    # Random shared DAG around 30 nodes: after unfolding, the root count
    # equals the brute-force number of distinct root-to-leaf paths, and the
    # count at each prefix node equals the paths through its shared node.
    shared = suite_b(layers=4, width=3, seed=5)
    assert len(shared.nodes) >= 10
    graph, cert = compile_dag(shared)
    assert cert.ok
    assert graph.suffix_count(graph.root) == _brute_force_paths(shared, "root")


def test_partition_certificate_on_random_trees():
    for seed in range(10):
        graph, cert = compile_dag(random_tree(seed))
        assert cert.ok
        for digest, node in graph.unfold().items():
            if node.is_leaf:
                continue
            assert graph.suffix_count(digest) == sum(
                graph.suffix_count(c) for c in graph.children(digest))


def test_digest_collision_is_an_error(monkeypatch):
    # Every digest repeats, so the toy root's first child collides with the
    # root when the root's children are first listed; compile lists none.
    monkeypatch.setattr(prefix_dag, "_digest", lambda head, n, body: b"\x00" * 32)
    graph, _ = compile_dag(toy_graph())
    with pytest.raises(DigestCollisionError):
        graph.children(graph.root)


def test_digest_collision_with_a_context_not_built_is_an_error(monkeypatch):
    # Both grandchildren get one digest: the second listed collides with
    # the first, which is digested but neither built nor listed.
    digest = prefix_dag._digest
    monkeypatch.setattr(prefix_dag, "_digest", lambda head, n, body: (
        b"\x01" * 32 if n == 3 else digest(head, n, body)))
    graph, _ = compile_dag(_graph(
        [("r", "a", 0), ("r", "b", 1), ("a", "x", 0), ("b", "y", 0)], {"x", "y"}, 3))
    first, second = graph.children(graph.root)
    assert graph.children(first) == [b"\x01" * 32] and b"\x01" * 32 not in graph.nodes
    with pytest.raises(DigestCollisionError, match="child #0 of the 'b' context"):
        graph.children(second)


@pytest.mark.parametrize("build, mode", [
    (lambda seed: suite_b(10, 3, seed=seed), Mode.EXACT),
    (lambda seed: suite_a(4, 5, seed=seed), Mode.SURROGATE)],
    ids=["exact-suite-b", "surrogate-suite-a"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_route_digests_only_the_contexts_it_pushes(monkeypatch, build, mode, seed):
    # Children are digested when first listed, and a route lists only the
    # children of the contexts it expands and then pushes all of them: one
    # digest per push, the root's at compile.
    calls = []
    digest = prefix_dag._digest
    monkeypatch.setattr(prefix_dag, "_digest",
                        lambda *args: calls.append(args) or digest(*args))
    graph, _ = compile_dag(build(seed))
    result = run(graph, mode, RunConfig(mtau=MtauConfig(), seed=seed,
                                        n_ub_factor=2.0))
    pushes = sum(rec["event"] == "push" for rec in result.ledger.records)
    assert result.expansions > 1 and len(calls) == pushes


def test_certificate_rejects_a_context_listed_twice():
    graph, _ = compile_dag(toy_graph())
    assert _unique_parents(graph)
    kids = graph.children(graph.root)
    kids.append(kids[0])
    assert not _unique_parents(graph)


def _graph(edges, leaves, max_depth):
    ids = {n for edge in edges for n in edge[:2]}
    nodes = {n: DagNode(n, n, n in leaves) for n in ids}
    return SharedDag(nodes=nodes, edges=edges, root_id="r",
                     caps=PublicCaps(max_depth=max_depth, c_s_max=1.0,
                                     c_s_min=1.0))


@pytest.mark.parametrize("edges,leaves,max_depth,error", [
    # r -> b is the only leaf; r -> a -> c -> d holds none and is too deep.
    ([("r", "b", 0), ("r", "a", 1), ("a", "c", 0), ("c", "d", 0)], {"b"}, 3,
     DepthCapExceededError),
    # The cycle l -> x -> l hangs below the leaf l.
    ([("r", "l", 0), ("l", "x", 0), ("x", "l", 0)], {"l"}, 10,
     CycleDetectedError),
    # Reached first by a short path, then by one past the cap.
    ([("r", "c", 0), ("r", "a", 1), ("a", "b", 0), ("b", "c", 0),
      ("c", "l", 0)], {"l"}, 4, DepthCapExceededError),
    # s is reached again one level deeper; only its taller branch passes
    # the cap, so the walk must keep a node's greatest height.
    ([("r", "s", 0), ("r", "m", 1), ("m", "s", 0), ("s", "l", 0),
      ("s", "c", 1), ("c", "k", 0)], {"l", "k"}, 4, DepthCapExceededError),
], ids=["deep-in-leafless-subtree", "cycle-below-leaf", "deep-via-shared",
        "deep-via-taller-branch"])
def test_compile_raises_for_a_defect_no_route_reaches(edges, leaves,
                                                      max_depth, error):
    with pytest.raises(error):
        compile_dag(_graph(edges, leaves, max_depth))


@pytest.mark.parametrize("edges", [[], [("r", "a", 0)]],
                         ids=["childless-root", "leafless-child"])
def test_root_without_leaves_is_an_error(edges):
    nodes = {"r": DagNode("r", "r", False), "a": DagNode("a", "a", False)}
    dag = SharedDag(nodes=nodes, edges=edges, root_id="r",
                    caps=PublicCaps(max_depth=3, c_s_max=1.0, c_s_min=1.0))
    with pytest.raises(NoLeafError):
        compile_dag(dag)


def test_cycle_detection():
    caps = PublicCaps(max_depth=5, c_s_max=1.0, c_s_min=1.0)
    nodes = {
        "a": DagNode("a", "a", False),
        "b": DagNode("b", "b", False),
    }
    edges = [("a", "b", 0), ("b", "a", 0)]
    with pytest.raises((CycleDetectedError, DepthCapExceededError)):
        compile_dag(SharedDag(nodes=nodes, edges=edges, root_id="a",
                              caps=caps))


def test_depth_cap_is_an_error_not_truncation():
    caps = PublicCaps(max_depth=1, c_s_max=1.0, c_s_min=1.0)
    nodes = {
        "a": DagNode("a", "a", False),
        "b": DagNode("b", "b", False),
        "c": DagNode("c", "c", True),
    }
    edges = [("a", "b", 0), ("b", "c", 0)]
    with pytest.raises(DepthCapExceededError):
        compile_dag(SharedDag(nodes=nodes, edges=edges, root_id="a",
                              caps=caps))


def test_duplicate_edge_order_rejected():
    caps = PublicCaps(max_depth=3, c_s_max=1.0, c_s_min=1.0)
    nodes = {
        "a": DagNode("a", "a", False),
        "b": DagNode("b", "b", True),
        "c": DagNode("c", "c", True),
    }
    with pytest.raises(ValueError):
        SharedDag(nodes=nodes, edges=[("a", "b", 0), ("a", "c", 0)],
                  root_id="a", caps=caps).validate()


def test_ctx_digest_separates_contexts_and_caps():
    caps = PublicCaps(max_depth=3, c_s_max=1.0, c_s_min=1.0)
    caps2 = PublicCaps(max_depth=4, c_s_max=1.0, c_s_min=1.0)
    path = [("r", 0), ("x", 1)]
    assert ctx_digest(path, caps) != ctx_digest(path, caps2)
    assert ctx_digest(path, caps) != ctx_digest([("r", 0), ("x", 2)], caps)
    assert ctx_digest(path, caps) != ctx_digest([("r", 0)], caps)
    assert len(ctx_digest(path, caps)) == 32


def test_shared_node_unfolds_to_distinct_contexts():
    # Diamond: two paths into the same shared state become two prefix nodes.
    caps = PublicCaps(max_depth=4, c_s_max=1.0, c_s_min=1.0)
    nodes = {
        "r": DagNode("r", "r", False),
        "a": DagNode("a", "a", False),
        "b": DagNode("b", "b", False),
        "s": DagNode("s", "s", True),
    }
    edges = [("r", "a", 0), ("r", "b", 1), ("a", "s", 0), ("b", "s", 0)]
    graph, cert = compile_dag(SharedDag(nodes=nodes, edges=edges,
                                        root_id="r", caps=caps))
    assert cert.ok
    shared_contexts = [n for n in graph.unfold().values()
                       if n.state_label == "s"]
    assert len(shared_contexts) == 2
    assert graph.suffix_count(graph.root) == 2


def test_dag_node_keeps_value_semantics():
    node = DagNode("n", "s", True, 0.5)
    same = DagNode(node_id="n", state_label="s", is_leaf=True,
                   det_score_delta=0.5)
    assert node == same and hash(node) == hash(same)
    assert (node.node_id, node.state_label, node.is_leaf,
            node.det_score_delta) == ("n", "s", True, 0.5)
    assert DagNode("n", "s", False) == DagNode("n", "s", False, 0.0)
    assert node != DagNode("n", "s", True, 0.25)
    assert len({node, same, DagNode("m", "s", True, 0.5)}) == 2
    with pytest.raises(AttributeError):
        node.is_leaf = False


def test_unfolded_graph_releases_the_shared_tables():
    shared = suite_b(4, 3, seed=1)
    want = compile_dag(suite_b(4, 3, seed=1))[0].public_counts()
    graph, _ = compile_dag(shared)
    ref = weakref.ref(shared)
    del shared
    assert ref() is not None  # contexts still pending need it
    nodes = graph.unfold()
    assert ref() is None
    for digest, node in nodes.items():
        assert graph.node(digest) is node
        assert graph.suffix_count(digest) == node.n_exact
    assert graph.public_counts() == want


def _preorder(graph, digest):
    """Reference preorder: a context, then each child's subtree in edge
    order."""
    return [digest] + [d for child in graph.children(digest)
                       for d in _preorder(graph, child)]


def test_walk_yields_every_context_once_in_preorder():
    graph, _ = compile_dag(suite_b(4, 3, seed=1))
    order = [node.ctx_digest for node in graph.walk()]
    assert len(set(order)) == len(order) == len(graph.nodes)
    assert order == _preorder(graph, graph.root)
    at = {digest: i for i, digest in enumerate(order)}
    for node in graph.nodes.values():  # after its parent, siblings in order
        assert node.parent is None or at[node.parent] < at[node.ctx_digest]
        kids = graph.children(node.ctx_digest)
        assert [at[c] for c in kids] == sorted(at[c] for c in kids)


def test_walk_of_a_context_yields_its_subtree():
    graph, _ = compile_dag(suite_b(4, 3, seed=1))
    mid = graph.children(graph.children(graph.root)[-1])[0]
    assert mid not in graph.nodes  # listed, not built yet
    assert [n.ctx_digest for n in graph.walk(mid)] == _preorder(graph, mid)
    leaf = next(n for n in graph.walk() if n.is_leaf)
    assert list(graph.walk(leaf.ctx_digest)) == [leaf]


@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.SURROGATE])
def test_walk_of_a_routed_graph_matches_a_fresh_compile(mode):
    # A route builds some contexts; walking it yields what a fresh compile
    # does, and the passes that read the walk give equal dicts on both.
    shared = suite_b(4, 3, seed=1)
    cfg = RunConfig(mtau=MtauConfig(), seed=3, n_ub_factor=2.0)
    fresh, _ = compile_dag(shared)
    walked = list(fresh.walk())

    def routed():
        graph, _ = compile_dag(shared)
        result = run(graph, mode, cfg)
        assert 1 < len(graph.nodes) < len(walked)
        return graph, result

    graph, result = routed()
    assert list(graph.walk()) == walked
    lookup = RngStream(cfg.seed).raw
    graph, _ = routed()
    arrivals = exact_race(graph, lookup)
    assert arrivals == exact_race(fresh, lookup)
    values = exact_leaf_values(fresh, arrivals)
    graph, _ = routed()
    assert realized_suffix_max(graph, values) == realized_suffix_max(fresh, values)
    uniforms = {bytes.fromhex(rec["ctx_digest"]): rec["U"]
                for rec in result.ledger.records
                if "U" in rec and rec["event"] != "leaf_eval"}
    graph, _ = routed()
    assert (coupled_monotone_race(graph, uniforms)
            == coupled_monotone_race(fresh, uniforms))


def test_a_leaf_context_lists_no_children():
    # r -> a -> b with both a and b leaves: a ends every path through it,
    # so b gets no context and the realized race covers the whole graph.
    graph, cert = compile_dag(_graph([("r", "a", 0), ("a", "b", 0)],
                                     {"a", "b"}, 3))
    assert cert.total_leaves == 1
    assert [n.state_label for n in graph.walk()] == ["r", "a"]
    values = exact_leaf_values(graph, exact_race(graph, RngStream(1).raw))
    rsm = realized_suffix_max(graph, values)
    assert rsm[graph.root] == max(values.values())


def test_json_round_trip(tmp_path):
    shared = toy_graph()
    path = tmp_path / "toy.json"
    shared.save(str(path))
    again = SharedDag.load(str(path))
    g1, _ = compile_dag(shared)
    g2, _ = compile_dag(again)
    assert g1.root == g2.root
    assert set(g1.unfold()) == set(g2.unfold())


def _non_ascii_graph() -> SharedDag:
    nodes = {"r": DagNode("r", "état→λ", False),
             "a": DagNode("a", "日本語", True, 0.25),
             "b": DagNode("b", "emoji \U0001F600", True)}
    return SharedDag(nodes=nodes, edges=[("r", "a", 0), ("r", "b", 1)],
                     root_id="r", caps=PublicCaps(2, 1.0, 1.0))


SPEC_GRAPHS = {
    "toy": toy_graph,
    "suite_a": lambda: suite_a(3, 3, seed=1),
    "suite_b": lambda: suite_b(4, 3, seed=1),
    "random_tree": lambda: random_tree(5),
    "random_binary_tree": lambda: random_binary_tree(5),
    "full_binary_tree": lambda: full_binary_tree(3),
    "adversarial": adversarial_graph,
    "pipeline_mock": pipeline_mock,
    "non_ascii": _non_ascii_graph,
}


@pytest.mark.parametrize("name", list(SPEC_GRAPHS))
def test_saved_spec_is_compact_sorted_json(tmp_path, name):
    shared = SPEC_GRAPHS[name]()
    path = tmp_path / "g.json"
    shared.save(str(path))
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(shared.to_json_obj(), sort_keys=True,
                              separators=(",", ":")) + "\n"
    assert text.isascii()  # non-ASCII labels are escaped
    assert SharedDag.load(str(path)) == shared


@pytest.mark.parametrize("name", ["suite_b", "non_ascii"])
def test_indented_spec_still_loads(tmp_path, name):
    # Specs saved by earlier versions are indented; they must still load.
    shared = SPEC_GRAPHS[name]()
    path = tmp_path / "indented.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(shared.to_json_obj(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    again = SharedDag.load(str(path))
    assert again == shared
    g1, _ = compile_dag(shared)
    g2, _ = compile_dag(again)
    assert g1.root == g2.root
    assert g1.public_counts() == g2.public_counts()


_CAPS = {"max_depth": 2, "c_s_max": 1.0, "c_s_min": 1.0}
_NODES = [{"id": "r", "state": "r"}, {"id": "a", "state": "a", "leaf": True}]


@pytest.mark.parametrize("spec", [
    {"root": "r", "nodes": [{"id": "r"}], "edges": []},
    [1, 2],
    # Each of these compiled into a struct.error or AttributeError.
    {"root": "r", "caps": _CAPS, "nodes": _NODES,
     "edges": [{"from": "r", "to": "a", "order": -1}]},
    {"root": "r", "caps": dict(_CAPS, max_depth=1 << 32), "nodes": _NODES,
     "edges": [{"from": "r", "to": "a", "order": 0}]},
    {"root": "r", "caps": _CAPS, "nodes": [_NODES[0], dict(_NODES[1], state=7)],
     "edges": [{"from": "r", "to": "a", "order": 0}]},
    # Each of these was cast: "false" to a leaf, 1.7 to 1, 3.9 to 3 and
    # "0.5" to a number.
    {"root": "r", "caps": _CAPS, "nodes": [_NODES[0], dict(_NODES[1], leaf="false")],
     "edges": [{"from": "r", "to": "a", "order": 0}]},
    {"root": "r", "caps": _CAPS, "nodes": _NODES,
     "edges": [{"from": "r", "to": "a", "order": 1.7}]},
    {"root": "r", "caps": dict(_CAPS, max_depth=3.9), "nodes": _NODES,
     "edges": [{"from": "r", "to": "a", "order": 0}]},
    {"root": "r", "caps": _CAPS, "nodes": [_NODES[0], dict(_NODES[1], delta_cost="0.5")],
     "edges": [{"from": "r", "to": "a", "order": 0}]},
    # An int cost no float can hold would overflow at compile.
    {"root": "r", "caps": _CAPS, "nodes": [_NODES[0], dict(_NODES[1], delta_cost=10**400)],
     "edges": [{"from": "r", "to": "a", "order": 0}]},
    {"root": "r", "caps": dict(_CAPS, c_s_min=float("nan")), "nodes": _NODES,
     "edges": [{"from": "r", "to": "a", "order": 0}]},
    # Each of these loaded as caps 0.5 and 1.0.
    {"root": "r", "caps": dict(_CAPS, c_s_max="0.5"), "nodes": _NODES,
     "edges": [{"from": "r", "to": "a", "order": 0}]},
    {"root": "r", "caps": dict(_CAPS, c_s_min=True), "nodes": _NODES,
     "edges": [{"from": "r", "to": "a", "order": 0}]},
], ids=["node-without-caps", "not-an-object", "negative-order",
        "depth-past-u32", "non-string-state", "string-leaf", "fractional-order",
        "fractional-depth", "string-cost", "int-cost-past-float", "nan-caps",
        "string-caps", "bool-caps"])
def test_hostile_spec_is_a_graph_spec_error(spec):
    with pytest.raises(GraphSpecError, match="bad graph spec"):
        SharedDag.from_json_obj(spec)


_PY_CAPS = PublicCaps(max_depth=2, c_s_max=1.0, c_s_min=1.0)
_PY_NODES = {"r": DagNode("r", "r", False), "a": DagNode("a", "a", True)}


@pytest.mark.parametrize("build, reason", [
    (lambda: SharedDag({"a": DagNode("a", 7, True)}, [], "a", _PY_CAPS),
     "node 'a': id and state must be strings, leaf a bool and cost a number"),
    (lambda: SharedDag({"a": DagNode("a", "a", "no")}, [], "a", _PY_CAPS),
     "node 'a': id and state must be strings, leaf a bool and cost a number"),
    (lambda: SharedDag({**_PY_NODES, "a": DagNode("a", "a", True, "0.5")},
                       [("r", "a", 0)], "r", _PY_CAPS),
     "node 'a': id and state must be strings, leaf a bool and cost a number"),
    (lambda: SharedDag(_PY_NODES, [("r", "a", 0.5)], "r", _PY_CAPS),
     "edge_order 0.5 at r not an int in [0, 2**32)"),
    (lambda: PublicCaps(max_depth=3.9, c_s_max=1.0, c_s_min=1.0),
     "max_depth must be int: 3.9")],
    ids=["non-string-state", "string-leaf", "string-cost", "fractional-order",
         "fractional-depth"])
def test_graph_built_in_python_is_type_checked(build, reason):
    # One check for every graph, however it was built: the state 7 and the
    # order 0.5 ended in an AttributeError or struct.error at compile, and
    # "no" compiled as a leaf.
    with pytest.raises(ValueError, match=re.escape(reason)):
        build()


def test_deeply_nested_graph_file_is_a_graph_spec_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"root":' + "[" * 100_000 + "]" * 100_000 + "}")
    with pytest.raises(GraphSpecError, match="bad graph spec"):
        SharedDag.load(str(path))


def _spec_with_leaf_cost(cost):
    """r -> a -> {l1, l2} and r -> b; leaf l1 costs ``cost``."""
    nodes = [("r", False, 0.0), ("a", False, 1.0), ("b", True, 1.0),
             ("l1", True, cost), ("l2", True, 0.5)]
    return {"root": "r", "caps": dict(_CAPS, max_depth=3),
            "nodes": [{"id": n, "state": n, "leaf": leaf, "delta_cost": c}
                      for n, leaf, c in nodes],
            "edges": [{"from": p, "to": c, "order": o} for p, c, o in
                      [("r", "a", 0), ("r", "b", 1), ("a", "l1", 0), ("a", "l2", 1)]]}


@pytest.mark.parametrize("cost", [-5.0, float("nan")], ids=["negative", "nan"])
def test_negative_or_nan_cost_is_refused(cost):
    # A negative cost lets a prefix score rise along a path, so M_tau would
    # no longer bound the leaves below a node.
    with pytest.raises(GraphSpecError,
                       match=f"ValueError: node 'l1' cost {cost} not >= 0"):
        SharedDag.from_json_obj(_spec_with_leaf_cost(cost))
    dag = SharedDag.from_json_obj(_spec_with_leaf_cost(0.0))
    with pytest.raises(ValueError, match="cost"):
        SharedDag(nodes={**dag.nodes, "l1": DagNode("l1", "l1", True, cost)},
                  edges=dag.edges, root_id="r", caps=dag.caps)
