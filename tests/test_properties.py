"""Property tests over run -> save -> validate and the lazy prefix-DAG.

Derandomized, with no example database and bounded example counts, so the
suite stays deterministic and fast.  Every generated run validates;
tampering with a replayed field is detected; any byte or field mutation of
a ledger yields a ``Verdict``, never an exception; and the lazily built
graph is the full unfolding: a run writes the same ledger either way, every
context's digest is its root path's, each context has one parent, and an
Exact route builds only the contexts it pushes, a small share of them.
The count walk matches a recursive reference, errors included, and a
parsed ledger serializes back to its own bytes.
"""

import functools
import json
import statistics
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from racecert import validator
from racecert.bounds import MtauConfig, MtauRecipe, PhiConfig, mtau
from racecert.budget import (BudgetRuntime, BudgetState, ModelCatalogEntry,
                             default_catalog)
from racecert.generators import (full_binary_tree, random_tree, suite_a,
                                 suite_b)
from racecert.ledger import FIELDS, Ledger
from racecert.prefix_dag import (CycleDetectedError, DagNode,
                                 DepthCapExceededError, NoLeafError,
                                 PublicCaps, SharedDag, _shared_counts,
                                 compile_dag, ctx_digest)
from racecert.search import Mode, RunConfig, run
from test_prefix_dag import _unique_parents

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=200,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

GRAPHS = st.one_of(
    st.builds(random_tree, seed=st.integers(0, 2**32 - 1),
              max_depth=st.integers(1, 4), max_branch=st.integers(1, 3),
              leaf_prob=st.floats(0.0, 1.0),
              c_s_max=st.floats(0.1, 3.0)),
    st.builds(suite_b, layers=st.integers(1, 4), width=st.integers(1, 3),
              seed=st.integers(0, 2**32 - 1)),
)


@PROPERTY
@given(shared=GRAPHS, mode=st.sampled_from(list(Mode)),
       seed=st.integers(0, 2**32 - 1),
       n_ub_factor=st.sampled_from([1.0, 1.5, 2.0, 4.0]))
def test_every_generated_run_validates(tmp_path, shared, mode, seed,
                                       n_ub_factor):
    graph, cert = compile_dag(shared)
    assert cert.ok
    path = str(tmp_path / "run.ndjson")
    run(graph, mode, RunConfig(mtau=MtauConfig(), seed=seed,
                               n_ub_factor=n_ub_factor), ledger_path=path)
    verdict = validator.validate(path, graph,
                                 public_counts=graph.public_counts())
    assert verdict.ok, verdict.failures


@PROPERTY
@given(shared=GRAPHS, mode=st.sampled_from(list(Mode)),
       seed=st.integers(0, 2**32 - 1))
def test_unfolding_first_changes_no_ledger_byte(shared, mode, seed):
    cfg = RunConfig(mtau=MtauConfig(), seed=seed, n_ub_factor=1.5)
    lazy, _ = compile_dag(shared)
    unfolded, _ = compile_dag(shared)
    unfolded.unfold()
    assert (run(lazy, mode, cfg).ledger.serialize()
            == run(unfolded, mode, cfg).ledger.serialize())


def _has_leaf(shared, node_id, memo) -> bool:
    if node_id not in memo:
        memo[node_id] = shared.nodes[node_id].is_leaf or any(
            _has_leaf(shared, child, memo)
            for _, child in shared.children_of(node_id))
    return memo[node_id]


@PROPERTY
@given(shared=GRAPHS)
def test_every_context_is_its_root_path(shared):
    # Rebuild each context's path along the shared graph and check the
    # built context against it: digest, parent link, depth and children.
    graph, _ = compile_dag(shared)
    nodes = graph.unfold()
    assert _unique_parents(graph)
    memo: dict[str, bool] = {}
    root = shared.nodes[shared.root_id]
    stack = [(shared.root_id, [(root.state_label, 0)], None)]
    seen = set()
    while stack:
        node_id, path, parent = stack.pop()
        digest = ctx_digest(path, shared.caps)
        node = nodes[digest]
        assert (node.parent, node.depth, node.state_label) == (
            parent, len(path) - 1, shared.nodes[node_id].state_label)
        seen.add(digest)
        kids = [(child, path + [(shared.nodes[child].state_label, order)])
                for order, child in shared.children_of(node_id)
                if not shared.nodes[node_id].is_leaf
                and _has_leaf(shared, child, memo)]
        assert graph.children(digest) == [ctx_digest(p, shared.caps) for _, p in kids]
        stack.extend((child, p, digest) for child, p in kids)
    assert seen == set(nodes)


@PROPERTY
@given(shared=GRAPHS, seed=st.integers(0, 2**32 - 1))
def test_exact_route_builds_the_contexts_it_pushes(shared, seed):
    graph, _ = compile_dag(shared)
    result = run(graph, Mode.EXACT, RunConfig(mtau=MtauConfig(), seed=seed))
    pushed = {rec["ctx_digest"] for rec in result.ledger.records
              if rec.get("event") == "push"}
    assert {digest.hex() for digest in graph.nodes} == pushed


def test_exact_route_builds_a_small_share_of_a_shared_graph():
    # suite_b(10,3): 31 shared nodes unfold to 3,070 contexts.  The share is
    # a median: a rare route expands more (seed 20 builds 98 contexts).
    shares = []
    for seed in range(20):
        graph, _ = compile_dag(suite_b(10, 3, seed))
        run(graph, Mode.EXACT, RunConfig(mtau=MtauConfig(), seed=seed))
        built = len(graph.nodes)
        shares.append(built / len(graph.unfold()))
    assert statistics.median(shares) < 0.1


# Fields that replay or the stop audit re-derive, on the records that carry
# them.
TAMPER_EVENTS = ("push", "pop", "leaf_eval", "stop", "budget")
TAMPER_FIELDS = ("key_raw", "value", "incumbent", "tie_token", "claim_type",
                 "mode", "ctx_digest", "model_id", "price_spent", "budget_event")

# Two m-large selections reach the price cap of 40, so a Surrogate run also
# logs an Exhausted record and restarts under Fallback.  Every run charges
# its own copy, so the bases share one runtime.
BUDGET = BudgetRuntime(default_catalog(), BudgetState(
    eps_max=10.0, delta=1e-6, price_max=40, slo_ms=60_000))

# Graph and extra run settings of each base run.  Zero edge costs make
# equal keys, so full_binary_tree's Surrogate pops log tie tokens; a
# PhiConfig puts the scaled potential fields on Exact and Surrogate pops.
BASES = {"suite_a": (lambda seed: suite_a(2, 3, seed), {}),
         "full_binary_tree": (lambda seed: full_binary_tree(3), {}),
         "suite_a+budget": (lambda seed: suite_a(2, 3, seed),
                            {"budget": BUDGET}),
         "suite_a+phi": (lambda seed: suite_a(2, 3, seed),
                         {"phi": PhiConfig(step_cap=8, eta=0.5)})}


@functools.lru_cache(maxsize=None)
def _base_ledger(base: str, mode: Mode, seed: int):
    """A run's graph and ledger lines."""
    make_graph, extra = BASES[base]
    graph, _ = compile_dag(make_graph(seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/base.ndjson"
        run(graph, mode, RunConfig(mtau=MtauConfig(), seed=seed,
                                   n_ub_factor=1.5, **extra),
            ledger_path=path)
        with open(path, encoding="utf-8") as fh:
            return graph, fh.read().splitlines()


def _tampered(value, field, step):
    if field == "claim_type":
        return "NoCert" if value == "RunWiseExact" else "RunWiseExact"
    if field == "mode":
        return next(m.value for m in Mode if m.value != value)
    if field == "ctx_digest":
        return f"{(int(value, 16) + step) % 2**256:064x}"
    if field == "tie_token":
        return str(1 - int(value))
    if field == "model_id":
        return "m-small" if value != "m-small" else "m-mid"
    if field == "budget_event":
        return "Exhausted" if value == "Selected" else "Selected"
    return str(int(value) + step)


@PROPERTY
@given(base=st.sampled_from(list(BASES)), mode=st.sampled_from(list(Mode)),
       seed=st.integers(0, 3),
       pick=st.integers(0, 2**16), field=st.sampled_from(TAMPER_FIELDS),
       step=st.sampled_from([1, -1, 2**20, -(2**40)]))
def test_tampering_a_replayed_field_is_detected(tmp_path, base, mode, seed,
                                                pick, field, step):
    graph, lines = _base_ledger(base, mode, seed)
    records = [json.loads(line) for line in lines[1:]]
    targets = [i for i, rec in enumerate(records, start=1)
               if rec.get("event") in TAMPER_EVENTS and field in rec]
    if not targets:
        return
    idx = targets[pick % len(targets)]
    rec = records[idx - 1]
    rec[field] = _tampered(rec[field], field, step)
    path = str(tmp_path / "tampered.ndjson")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([*lines[:idx],
                            json.dumps(rec, sort_keys=True,
                                       separators=(",", ":")),
                            *lines[idx + 1:]]) + "\n")
    verdict = validator.validate(path, graph,
                                 public_counts=graph.public_counts())
    assert not verdict.ok, (idx, field, rec)


def _validate_mutant(tmp_path, graph, data: bytes):
    path = str(tmp_path / "mutant.ndjson")
    with open(path, "wb") as fh:
        fh.write(data)
    return validator.validate(path, graph,
                              public_counts=graph.public_counts())


# (kind, position, byte): position is reduced modulo the ledger length.
BYTE_EDITS = st.lists(
    st.tuples(st.sampled_from(["flip", "delete", "insert"]),
              st.integers(0, 2**20), st.integers(0, 255)),
    min_size=1, max_size=3)


@PROPERTY
@given(base=st.sampled_from(list(BASES)), mode=st.sampled_from(list(Mode)),
       seed=st.integers(0, 3), edits=BYTE_EDITS)
def test_byte_mutant_yields_a_verdict(tmp_path, base, mode, seed, edits):
    graph, lines = _base_ledger(base, mode, seed)
    data = bytearray("\n".join(lines).encode("utf-8") + b"\n")
    for kind, pos, byte in edits:
        pos %= len(data) + 1
        if kind == "insert":
            data.insert(pos, byte)
        elif pos < len(data):
            if kind == "delete":
                del data[pos]
            else:
                data[pos] ^= byte or 1
    verdict = _validate_mutant(tmp_path, graph, bytes(data))
    assert isinstance(verdict, validator.Verdict)


def _paths(obj, prefix=()):
    """Every key or index path inside a JSON value."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


# Wrong types, and right types at or past the edge of their range.
ILL_TYPED = [None, True, 0, -1, 1.5, 2**70, "", "x", "-1", [], [1], {},
             {"a": 1}, str(2**127), str(-(2**127)), "1e999"]


@PROPERTY
@given(base=st.sampled_from(list(BASES)), mode=st.sampled_from(list(Mode)),
       seed=st.integers(0, 3), in_header=st.booleans(),
       pick_line=st.integers(0, 2**16), pick_path=st.integers(0, 2**16),
       value=st.sampled_from(["<drop>", *ILL_TYPED]))
def test_field_mutant_yields_a_verdict(tmp_path, base, mode, seed, in_header,
                                       pick_line, pick_path, value):
    graph, lines = _base_ledger(base, mode, seed)
    idx = 0 if in_header else 1 + pick_line % (len(lines) - 1)
    obj = json.loads(lines[idx])
    paths = list(_paths(obj))
    *parents, key = paths[pick_path % len(paths)]
    container = functools.reduce(lambda o, k: o[k], parents, obj)
    if value == "<drop>":
        del container[key]
    else:
        container[key] = value
    mutant = [*lines[:idx], json.dumps(obj, sort_keys=True), *lines[idx + 1:]]
    verdict = _validate_mutant(tmp_path, graph,
                               ("\n".join(mutant) + "\n").encode("utf-8"))
    assert isinstance(verdict, validator.Verdict)


# Header values that no run setting changes, and another value for each.
HEADER_CONSTANTS = {"privacy_scope": "none"}


@PROPERTY
@given(base=st.sampled_from(list(BASES)), mode=st.sampled_from(list(Mode)),
       seed=st.integers(0, 3),
       # Added keys: a setting rebuilt from records, a v1-only constant, junk.
       key=st.sampled_from([*HEADER_CONSTANTS, "n_ub_map", "prf_domain", "x"]),
       value=st.sampled_from(ILL_TYPED))
def test_changed_header_constant_or_added_key_fails(tmp_path, base, mode,
                                                    seed, key, value):
    graph, lines = _base_ledger(base, mode, seed)
    header = json.loads(lines[0])
    header[key] = HEADER_CONSTANTS.get(key, value)
    verdict = _validate_mutant(tmp_path, graph, "\n".join(
        [json.dumps(header, sort_keys=True), *lines[1:], ""]).encode("utf-8"))
    assert verdict.failures == [(0, f"header mismatch in fields [{key!r}]")]


# -- the count walk and the ledger codec against plain references ---------

@st.composite
def _shared_dags(draw):
    """Small shared graphs with costs, defective ones included: edges point
    down the node order, or anywhere (cycles, self-loops); parallel edges,
    leaves with children and a too-low depth cap may all occur."""
    size = draw(st.integers(1, 7))
    ids = [f"n{i}" for i in range(size)]
    leaves = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    pairs = draw(st.lists(st.tuples(st.integers(0, size - 1),
                                    st.integers(0, size - 1),
                                    st.integers(0, 5)),
                          min_size=size - 1, max_size=16))
    if draw(st.booleans()):  # acyclic
        pairs = [(min(a, b), max(a, b), o) for a, b, o in pairs if a != b]
    edges = list({(a, o): (ids[a], ids[b], o) for a, b, o in pairs}.values())
    costs = draw(st.lists(st.floats(0.0, 4.0), min_size=size, max_size=size))
    nodes = {n: DagNode(n, n, leaf, cost)
             for n, leaf, cost in zip(ids, leaves, costs)}
    caps = PublicCaps(max_depth=draw(st.integers(1, size)), c_s_max=1.0,
                      c_s_min=1.0)
    return SharedDag(nodes, edges, "n0", caps)


def _counts_by_recursion(dag):
    """The count walk written recursively: the same visit order, checks
    and errors.  A leaf counts 1 and its score-to-go is 0; any other node
    counts the sum over its children, and its score-to-go is the best
    ``togo(c) - cost(c)`` over the children with a leaf below."""
    counts, togo, height, on_path = {}, {}, {}, set()

    def visit(node_id, depth):
        if node_id in on_path:
            raise CycleDetectedError(node_id)
        if depth + height.get(node_id, 1) - 1 > dag.caps.max_depth:
            raise DepthCapExceededError(node_id)
        if node_id in counts:
            return
        on_path.add(node_id)
        kids = [child for _, child in dag.children_of(node_id)]
        for child in kids:
            visit(child, depth + 1)
        on_path.discard(node_id)
        height[node_id] = 1 + max((height[c] for c in kids), default=0)
        leaf = dag.nodes[node_id].is_leaf
        counts[node_id] = 1 if leaf else sum(counts[c] for c in kids)
        togo[node_id] = 0.0 if leaf else max(
            (togo[c] - dag.nodes[c].det_score_delta for c in kids if counts[c]),
            default=float("-inf"))

    visit(dag.root_id, 1)
    if counts[dag.root_id] == 0:
        raise NoLeafError(dag.root_id)
    return counts, togo, height


@settings(PROPERTY, max_examples=1000)  # a pure walk over tiny graphs
@given(shared=_shared_dags())
def test_shared_counts_match_a_recursive_reference(shared):
    try:
        want = _counts_by_recursion(shared)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _shared_counts(shared)
        assert type(got.value) is type(exc)
    else:
        assert _shared_counts(shared) == want


# Costs from 1e-17 to 1e9: summed in two orders, their float sums differ
# in the last bits, which an unrounded score + togo does not cover.
COSTS = st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 10.0),
                  st.integers(-17, 9))


@st.composite
def _costly_trees(draw):
    """Trees with mixed-magnitude costs; each node hangs below one of the
    two nodes before it, so paths run deep, and a childless node is a
    leaf."""
    size = draw(st.integers(2, 24))
    parents = [draw(st.integers(max(0, i - 2), i - 1)) for i in range(1, size)]
    ids = [f"n{i}" for i in range(size)]
    costs = draw(st.lists(COSTS, min_size=size, max_size=size))
    nodes = {n: DagNode(n, n, i not in parents, cost)
             for i, (n, cost) in enumerate(zip(ids, costs))}
    edges = [(ids[p], ids[i], i) for i, p in enumerate(parents, 1)]
    return SharedDag(nodes, edges, "n0", PublicCaps(size, 1.0, 1.0))


@settings(PROPERTY, max_examples=500)
@given(shared=_costly_trees())
def test_r3_bound_covers_the_float_score_of_every_leaf_below(shared):
    graph, _ = compile_dag(shared)
    best: dict[bytes, float] = {}
    for node in reversed(list(graph.walk())):  # children before parents
        best[node.ctx_digest] = (node.prefix_score if node.is_leaf else
                                 max(best[c] for c in graph.children(node.ctx_digest)))
        assert mtau(node, MtauConfig()) >= best[node.ctx_digest]


@pytest.mark.parametrize("family", [
    lambda seed: suite_a(4, 5, seed),
    lambda seed: suite_b(10, 3, seed),
    lambda seed: random_tree(seed, max_depth=6, max_branch=4),
], ids=["suite_a(4,5)", "suite_b(10,3)", "random_tree(6,4)"])
def test_r3_keeps_every_exact_incumbent_and_expands_no_more(family):
    # Under one realized race, any admissible bound certifies the same
    # leaf; the tighter one pops fewer nodes on the way.
    for seed in range(100):
        graph, _ = compile_dag(family(seed))
        r2 = run(graph, Mode.EXACT,
                 RunConfig(mtau=MtauConfig(recipe=MtauRecipe.R2), seed=seed))
        r3 = run(graph, Mode.EXACT, RunConfig(mtau=MtauConfig(), seed=seed))
        assert (r3.incumbent_leaf, r3.incumbent) == (r2.incumbent_leaf,
                                                     r2.incumbent)
        assert r3.expansions <= r2.expansions


# BUDGET's catalog and a private entry, picked first on the model_id tie, so
# the RDP accountant logs alpha_selected, router_rdp_eps and eps_delta.*.
PRIVATE_BUDGET = BudgetRuntime(
    [*default_catalog(), ModelCatalogEntry("m-dp", "adp-d", "dpc-d", 2.0, 1e-6,
                                           1, 10, eps_m=0.1)],
    BUDGET.state)


@settings(PROPERTY, max_examples=100)
@given(shared=st.one_of(GRAPHS, st.builds(
           suite_a, depth=st.integers(1, 3), branching=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1)),
           st.builds(full_binary_tree, depth=st.integers(1, 3))),
       mode=st.sampled_from(list(Mode)), seed=st.integers(0, 2**32 - 1),
       phi=st.sampled_from([None, PhiConfig(step_cap=4, alpha=0.5, eta=0.5),
                            PhiConfig(step_cap=2**40)]),
       budget=st.sampled_from([None, BUDGET, PRIVATE_BUDGET]))
def test_every_written_field_is_declared(shared, mode, seed, phi, budget):
    # Each field a run writes is in the one field table, and each value is
    # what the parser reads back for it: writer and parser agree.
    graph, _ = compile_dag(shared)
    result = run(graph, mode, RunConfig(mtau=MtauConfig(), seed=seed,
                                        n_ub_factor=2.0, phi=phi, budget=budget))
    records = result.ledger.records
    assert {field for rec in records for field in rec} <= set(FIELDS)
    assert Ledger.parse_text(result.ledger.serialize()).records == records


@PROPERTY
@given(shared=GRAPHS, mode=st.sampled_from(list(Mode)),
       seed=st.integers(0, 2**32 - 1), with_phi=st.booleans(),
       with_budget=st.booleans())
def test_parsed_ledger_serializes_to_its_bytes(shared, mode, seed, with_phi,
                                               with_budget):
    graph, _ = compile_dag(shared)
    cfg = RunConfig(mtau=MtauConfig(), seed=seed, n_ub_factor=2.0,
                    budget=BUDGET if with_budget else None,
                    phi=(PhiConfig(step_cap=4, alpha=0.5, eta=0.5, c_s_min=1.0)
                         if with_phi else None))
    text = run(graph, mode, cfg).ledger.serialize()
    data = text.encode("utf-8")
    assert Ledger.parse_text(data).serialize() == text
    assert Ledger.parse_text(text).serialize() == text
