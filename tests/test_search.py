"""Search engine behavior: traces, tie handling, guards, downgrades."""

import math
import re
from dataclasses import FrozenInstanceError, replace

import pytest

from racecert import fixedpoint as fp, search
from racecert.bounds import MtauConfig, MtauRecipe, PhiConfig, mtau
from racecert.budget import BudgetState, ModelCatalogEntry
from racecert.generators import random_tree, suite_a, suite_b, toy_graph
from racecert.prefix_dag import DagNode, PublicCaps, SharedDag, compile_dag
from racecert.race import RateZeroError, RngStream, stream_lookup
from racecert.reconstruct import exact_race, oracle_optimum, surrogate_race
from racecert.search import ClaimType, Mode, RunConfig
from racecert.validator import validate


def _labels(graph):
    return {d.hex(): n.state_label for d, n in graph.unfold().items()}


def _pushed_keys(result):
    """ctx digest hex -> logged key_raw of each push record."""
    return {r["ctx_digest"]: r["key_raw"] for r in result.ledger.records
            if r.get("event") == "push"}


def _pop_labels(result, graph):
    labels = _labels(graph)
    return [
        labels[rec["ctx_digest"]]
        for rec in result.ledger.records
        if rec.get("event") == "pop"
    ]


def test_toy_exact_trace(toy):
    graph, cfg = toy
    result = search.run(graph, Mode.EXACT, cfg)
    assert _pop_labels(result, graph) == ["r", "u1", "u2", "p2"]
    labels = _labels(graph)
    keys = {
        labels[h]: k / 2.0**64 for h, k in _pushed_keys(result).items()
    }
    assert math.isclose(keys["r"], 7.886234, abs_tol=2e-3)
    assert math.isclose(keys["u1"], 7.386234, abs_tol=2e-3)
    assert math.isclose(keys["u2"], 4.858125, abs_tol=2e-3)
    assert math.isclose(result.incumbent, 2.886234, abs_tol=2e-6)
    assert labels[result.incumbent_leaf] == "p2"
    assert result.claim_type is ClaimType.RUN_WISE_EXACT
    stop = result.ledger.records[-1]
    assert stop["event"] == "stop"
    assert stop["reason"] == "StopCertified"
    # Certified stop: every surviving frontier key is below the incumbent.
    for _, key_q in result.frontier_at_stop:
        assert key_q <= stop["incumbent"]


def test_toy_winner_reuse(toy):
    graph, cfg = toy
    labels = _labels(graph)
    race = exact_race(graph, stream_lookup(
        RngStream(cfg.seed), cfg.scripted_uniforms, graph))
    arrivals = {labels[d.hex()]: t for d, t in race.items()}
    # Winner child u1 reuses the root arrival; u2 adds a residual on top.
    assert arrivals["u1"] == arrivals["r"]
    assert arrivals["u2"] > arrivals["r"]
    assert arrivals["p2"] == arrivals["u1"]
    # The run keys every push with these arrivals, bit-exactly.
    result = search.run(graph, Mode.EXACT, cfg)
    for digest_hex, key_q in _pushed_keys(result).items():
        digest = bytes.fromhex(digest_hex)
        assert key_q == fp.encode_q64_64(
            mtau(graph.node(digest), cfg.mtau) - math.log(race[digest]))


def test_tie_with_lower_internal_digest_logs_token_one(tmp_path):
    # r -> leaf, r -> inner -> c.  Surrogate anchors both children at the
    # root's arrival and FIXED gives them one mtau, so their keys tie; the
    # leaf pops first and the inner node's digest is the lower one.
    nodes = {"r": DagNode("r", "r", False), "leaf": DagNode("leaf", "leaf", True),
             "inner": DagNode("inner", "inner", False),
             "c": DagNode("c", "c", True)}
    dag = SharedDag(nodes=nodes, root_id="r",
                    edges=[("r", "leaf", 0), ("r", "inner", 1), ("inner", "c", 0)],
                    caps=PublicCaps(max_depth=3, c_s_max=1.0, c_s_min=1.0))
    graph, cert = compile_dag(dag)
    assert cert.ok
    labels = {n.state_label: d for d, n in graph.unfold().items()}
    assert labels["inner"] < labels["leaf"]
    cfg = RunConfig(mtau=MtauConfig(recipe=MtauRecipe.FIXED, fixed_table={
        "r": 2.0, "leaf": 1.0, "inner": 1.0, "c": 0.0}), seed=1)
    path = str(tmp_path / "tie.ndjson")
    result = search.run(graph, Mode.SURROGATE, cfg, ledger_path=path)
    pushed = _pushed_keys(result)
    assert pushed[labels["leaf"].hex()] == pushed[labels["inner"].hex()]
    pops = [r for r in result.ledger.records if r.get("event") == "pop"]
    assert pops[1]["ctx_digest"] == labels["leaf"].hex()
    assert pops[1]["tie_token"] == 1
    assert "tie_token" not in pops[0]
    assert validate(path, graph, public_counts=graph.public_counts()).ok


def test_expansion_cap_timeout_guard(toy):
    graph, cfg = toy
    cfg = replace(cfg, expansion_cap=1)
    result = search.run(graph, Mode.EXACT, cfg)
    assert "Timeout" in result.guards_seen
    assert result.claim_type is ClaimType.NO_CERT
    assert result.ledger.records[-1]["reason"] == "StopHeuristic"
    assert result.expansions == 1


def test_expansion_cap_binds_fallback(toy):
    graph, cfg = toy
    cfg = replace(cfg, expansion_cap=1)
    result = search.run(graph, Mode.FALLBACK, cfg)
    assert result.guards_seen == ["Timeout"]
    assert result.claim_type is ClaimType.NO_CERT
    assert result.ledger.records[-1]["reason"] == "StopHeuristic"
    assert result.expansions == 1
    assert result.frontier_at_stop  # the root's children are still queued


def test_countfail_downgrades_to_surrogate(toy, tmp_path, monkeypatch):
    graph, cfg = toy
    monkeypatch.setattr(search, "COUNT_LIMIT", 2)
    cfg = replace(cfg, n_ub_map={d: 8 for d in graph.unfold()})
    path = str(tmp_path / "countfail-surrogate.ndjson")
    result = search.run(graph, Mode.EXACT, cfg, ledger_path=path)
    assert "CountFail" in result.guards_seen
    assert result.mode_final is Mode.SURROGATE
    verdict = validate(path, graph)
    assert verdict.ok
    # The header says Exact; the validator follows the guard to Surrogate
    # and tightens exactly the records after it that log a Nub and a draw.
    records = result.ledger.records
    guard = next(i for i, r in enumerate(records) if r["event"] == "guard")
    drawn = [i for i, r in enumerate(records)
             if i > guard and {"Nub", "U", "key_raw"} <= r.keys()]
    assert [i for i, _, _ in verdict.tightened] == drawn == [1, 2, 5, 9]
    assert all(kappa <= 0 for _, kappa, _ in verdict.tightened)


def _assert_countfail_fallback(toy, tmp_path, monkeypatch, mode):
    graph, cfg = toy
    monkeypatch.setattr(search, "COUNT_LIMIT", 2)
    path = str(tmp_path / "countfail-fallback.ndjson")
    result = search.run(graph, mode, cfg, ledger_path=path)
    assert result.guards_seen == ["CountFail"]
    assert result.mode_final is Mode.FALLBACK
    assert result.claim_type is ClaimType.NO_CERT
    guard = next(r for r in result.ledger.records if r.get("event") == "guard")
    assert guard["claim_type_before"] == "RunWiseExact"
    assert guard["claim_type_after"] == "NoCert"
    assert validate(path, graph).ok


def test_countfail_without_bounds_falls_back(toy, tmp_path, monkeypatch):
    _assert_countfail_fallback(toy, tmp_path, monkeypatch, Mode.EXACT)


def test_surrogate_countfail_without_bounds_falls_back(toy, tmp_path, monkeypatch):
    _assert_countfail_fallback(toy, tmp_path, monkeypatch, Mode.SURROGATE)


def test_surrogate_with_bounds_needs_no_counts(toy, tmp_path, monkeypatch):
    graph, cfg = toy
    monkeypatch.setattr(search, "COUNT_LIMIT", 2)
    cfg = replace(cfg, n_ub_map={d: 8 for d in graph.unfold()})
    path = str(tmp_path / "bounded-surrogate.ndjson")
    result = search.run(graph, Mode.SURROGATE, cfg, ledger_path=path)
    assert result.guards_seen == []
    assert result.claim_type is ClaimType.RUN_WISE_EXACT
    assert validate(path, graph).ok


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_deep_chain_runs_and_validates(tmp_path, mode):
    # Deeper than Python's default recursion limit: compile, search and
    # replay must all be iterative.  Fallback's leaf-wise LSE is quadratic
    # on a chain, so it runs a shallower one.
    depth = 1200 if mode is Mode.FALLBACK else 5000
    nodes = {f"n{i}": DagNode(f"n{i}", f"s{i}", i == depth) for i in range(depth + 1)}
    edges = [(f"n{i}", f"n{i + 1}", 0) for i in range(depth)]
    dag = SharedDag(nodes=nodes, edges=edges, root_id="n0",
                    caps=PublicCaps(max_depth=depth + 1, c_s_max=1.0, c_s_min=1.0))
    graph, cert = compile_dag(dag)
    assert cert.ok and cert.total_leaves == 1
    assert len(graph.nodes) == 1  # compile builds the root context only
    cfg = RunConfig(mtau=MtauConfig(), seed=3, n_ub_factor=2.0)
    path = str(tmp_path / f"chain-{mode.value}.ndjson")
    result = search.run(graph, mode, cfg, ledger_path=path)
    assert result.incumbent_leaf is not None
    assert validate(path, graph, public_counts=graph.public_counts()).ok
    assert len(graph.unfold()) == depth + 1


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_leafless_context_is_dropped(tmp_path, mode):
    # r -> a (internal, no children) and r -> b (leaf): compile drops a, so
    # every child holds a leaf and no mode meets an empty subtree.
    nodes = {"r": DagNode("r", "r", False), "a": DagNode("a", "a", False),
             "b": DagNode("b", "b", True)}
    dag = SharedDag(nodes=nodes, edges=[("r", "a", 0), ("r", "b", 1)],
                    root_id="r",
                    caps=PublicCaps(max_depth=2, c_s_max=1.0, c_s_min=1.0))
    graph, cert = compile_dag(dag)
    assert cert.ok and cert.total_leaves == 1
    assert sorted(n.state_label for n in graph.unfold().values()) == ["b", "r"]
    path = str(tmp_path / f"leafless-{mode.value}.ndjson")
    result = search.run(graph, mode, RunConfig(mtau=MtauConfig(), seed=1),
                        ledger_path=path)
    assert result.incumbent_leaf == graph.children(graph.root)[0].hex()
    assert validate(path, graph, public_counts=graph.public_counts()).ok


def test_numclamp_guard(toy):
    graph, cfg = toy
    table = dict(cfg.mtau.fixed_table)
    table["r"] = 1e30
    cfg = replace(cfg, mtau=MtauConfig(recipe=MtauRecipe.FIXED, fixed_table=table))
    result = search.run(graph, Mode.EXACT, cfg)
    assert "NumClamp" in result.guards_seen
    assert result.claim_type is ClaimType.NO_CERT


def _fixed(table):
    return MtauConfig(recipe=MtauRecipe.FIXED, fixed_table=table)


def test_inadmissible_fixed_table_never_certifies_a_wrong_leaf(tmp_path):
    # Every entry at -100.0 sits below every leaf score, so the keys bound
    # nothing; without the guard, 10 of these 50 runs certify a wrong leaf.
    for seed in range(50):
        graph, _ = compile_dag(suite_a(3, 3, seed))
        table = {n.state_label: -100.0 for n in graph.walk()}
        path = str(tmp_path / f"{seed}.ndjson")
        result = search.run(graph, Mode.EXACT,
                            RunConfig(mtau=_fixed(table), seed=seed),
                            ledger_path=path)
        optimum, _ = oracle_optimum(graph, stream_lookup(RngStream(seed), {}, graph))
        assert (result.claim_type is ClaimType.NO_CERT
                or result.incumbent_leaf == optimum.hex())
        assert result.guards_seen == ["MtauInadmissible"]  # once per run
        assert validate(path, graph).ok


@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.SURROGATE],
                         ids=lambda m: m.value)
def test_fixed_entry_at_the_best_leaf_score_fires_nothing(mode):
    graph, _ = compile_dag(suite_a(3, 3, 0))
    table: dict[str, float] = {}
    for node in graph.walk():
        table[node.state_label] = max(table.get(node.state_label, -math.inf),
                                      node.score_ub)
    cfg = RunConfig(mtau=_fixed(table), n_ub_factor=1.5)
    result = search.run(graph, mode, cfg)
    assert result.guards_seen == []
    assert result.claim_type is ClaimType.RUN_WISE_EXACT
    # One ulp lower at the root fires the guard once, at the root's push.
    root = graph.node(graph.root)
    table[root.state_label] = math.nextafter(root.score_ub, -math.inf)
    cfg = replace(cfg, mtau=_fixed(table))
    result = search.run(graph, mode, cfg)
    assert result.guards_seen == ["MtauInadmissible"]
    assert result.claim_type is ClaimType.NO_CERT
    first = result.ledger.records[0]
    assert (first["event"], first["ctx_digest"]) == ("guard", graph.root.hex())


@pytest.mark.parametrize("setting", [
    {"tau": 0.0}, {"tau": -1.0}, {"tau": math.nan}, {"tau": math.inf},
    {"n_ub_factor": 0.5}, {"n_ub_factor": math.nan},
    {"n_ub_factor": math.inf}, {"expansion_cap": -3}], ids=str)
def test_run_config_refuses_what_it_cannot_certify(setting):
    with pytest.raises(ValueError):
        RunConfig(mtau=MtauConfig(), **setting)


def test_run_config_is_frozen_and_replace_checks_again():
    cfg = RunConfig(mtau=MtauConfig())
    with pytest.raises(FrozenInstanceError):
        cfg.tau = 1
    with pytest.raises(ValueError, match="tau must be finite and > 0"):
        replace(cfg, tau=0.0)
    assert type(replace(cfg, tau=1).tau) is float


@pytest.mark.parametrize("name, build", [
    ("seed", lambda: RunConfig(mtau=MtauConfig(), seed=1.5)),
    ("expansion_cap", lambda: RunConfig(mtau=MtauConfig(), expansion_cap=2.5)),
    ("step_cap", lambda: PhiConfig(step_cap=4.5)),
    ("price_m", lambda: ModelCatalogEntry("m", "a", "d", 1.0, 1e-6, 1.5, 10)),
    ("slo_ms", lambda: BudgetState(eps_max=1.0, delta=1e-6, price_max=10,
                                   slo_ms=99.5))],
    ids=["seed", "expansion_cap", "step_cap", "price_m", "slo_ms"])
def test_int_setting_refuses_a_fraction(name, build):
    # One rule for every setting: an int field never truncates silently.
    with pytest.raises(ValueError, match=f"^{name} must be int: "):
        build()


def _budget_state(**kw):
    return BudgetState(**{"eps_max": 10.0, "delta": 1e-6, "price_max": 100,
                          "slo_ms": 1000, **kw})


@pytest.mark.parametrize("reason, build", [
    ("tau must be float: '0.5'", lambda: RunConfig(mtau=MtauConfig(), tau="0.5")),
    ("n_ub_factor must be float: True",
     lambda: RunConfig(mtau=MtauConfig(), n_ub_factor=True)),
    ("seed must be int: True", lambda: RunConfig(mtau=MtauConfig(), seed=True)),
    ("seed must be int: '7'", lambda: RunConfig(mtau=MtauConfig(), seed="7")),
    ("c_s_max must be float: '0.5'", lambda: PublicCaps(3, "0.5", True)),
    ("c_s_min must be float: True", lambda: PublicCaps(3, 0.5, True)),
    ("max_depth must be int: True", lambda: PublicCaps(True, 0.5, 1.0)),
    ("eps_max must be float: '10'", lambda: _budget_state(eps_max="10")),
    ("delta must be float: '1e-6'", lambda: _budget_state(delta="1e-6")),
    ("price_max must be int: True", lambda: _budget_state(price_max=True))],
    ids=["tau-text", "n_ub_factor-bool", "seed-bool", "seed-text", "caps-text",
         "caps-bool", "depth-bool", "eps_max-text", "delta-text", "price-bool"])
def test_number_setting_refuses_text_and_bool(reason, build):
    # ``float("0.5")`` and ``int(True)`` are casts, not numbers: each such
    # setting ran as 0.5 or 1 before.
    with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
        build()


def test_number_setting_takes_either_number_type():
    # An int for a float and an integral float for an int stay legal: a
    # catalog's "price_m":1.0 is an int price.
    cfg = RunConfig(mtau=MtauConfig(), tau=1, seed=3.0)
    assert (type(cfg.tau), type(cfg.seed)) == (float, int)
    caps = PublicCaps(3.0, 1, 2)
    assert (type(caps.max_depth), type(caps.c_s_max)) == (int, float)
    state = _budget_state(eps_max=10, price_max=100.0)
    assert (type(state.eps_max), type(state.price_max)) == (float, int)


def test_acyclicity_guard_and_downgrade():
    nodes = {
        "r": DagNode("r", "r", False),
        "a": DagNode("a", "a", True, det_score_delta=3.0),
    }
    dag = SharedDag(nodes=nodes, edges=[("r", "a", 0)], root_id="r",
                    caps=PublicCaps(max_depth=2, c_s_max=3.0, c_s_min=1.0))
    graph, cert = compile_dag(dag)
    assert cert.ok
    cfg = RunConfig(
        mtau=MtauConfig(),
        phi=PhiConfig(step_cap=4, alpha=0.5, eta=0.5, c_s_min=1.0),
        seed=3,
    )
    result = search.run(graph, Mode.EXACT, cfg)
    assert "AcyclicityFail" in result.guards_seen
    assert result.claim_type is ClaimType.NO_CERT
    guard_rec = next(r for r in result.ledger.records
                     if r.get("event") == "guard" and r["guards"] == ["AcyclicityFail"])
    assert guard_rec["claim_type_before"] == "RunWiseExact"
    assert guard_rec["claim_type_after"] == "NoCert"
    assert "delta_phi" in guard_rec and "eta" in guard_rec


def test_phi_ok_keeps_claim(toy):
    graph, cfg = toy
    cfg = replace(cfg, phi=PhiConfig(step_cap=4, alpha=0.0, eta=1.0, c_s_min=1.0))
    result = search.run(graph, Mode.EXACT, cfg)
    assert "AcyclicityFail" not in result.guards_seen
    assert result.claim_type is ClaimType.RUN_WISE_EXACT
    pop = next(r for r in result.ledger.records if r.get("event") == "pop")
    assert "phi_before" in pop and "delta_phi" in pop


def test_surrogate_keys_dominate_exact(toy):
    graph, cfg = toy
    cfg = replace(cfg, n_ub_factor=1.5)
    exact = search.run(graph, Mode.EXACT, cfg)
    surrogate = search.run(graph, Mode.SURROGATE, cfg)
    assert surrogate.claim_type is ClaimType.RUN_WISE_EXACT
    # Root key uses the inflated rate, so it dominates the exact key.
    root_hex = graph.root.hex()
    assert _pushed_keys(surrogate)[root_hex] >= _pushed_keys(exact)[root_hex]
    assert surrogate.expansions >= 1


def _toy_surrogate_cfg(n_ub_map):
    return RunConfig(
        mtau=MtauConfig(recipe=MtauRecipe.FIXED,
                        fixed_table={"r": 5.0, "u1": 4.5, "u2": 4.2,
                                     "p1": 0.0, "p2": 0.0, "p3": 0.0, "p4": 0.0}),
        seed=11, n_ub_map=n_ub_map)


def test_surrogate_bound_map_without_a_child_raises():
    graph, _ = compile_dag(toy_graph())
    labels = {n.state_label: d for d, n in graph.unfold().items()}
    n_ub = {d: 8 for d in graph.unfold()}
    del n_ub[labels["u2"]]
    with pytest.raises(LookupError, match=f"no Nub for node {labels['u2'].hex()[:16]}"):
        search.run(graph, Mode.SURROGATE, _toy_surrogate_cfg(n_ub))


def test_surrogate_zero_bound_fails_the_verdict(tmp_path):
    # Every built context has a leaf below it, so a zero bound is a wrong
    # bound: pushed, it fails N <= Nub; popped, it has no arrival.
    graph, _ = compile_dag(toy_graph())
    labels = {n.state_label: d for d, n in graph.unfold().items()}
    n_ub = {d: 8 for d in graph.unfold()}
    n_ub[labels["p4"]] = 0
    path = str(tmp_path / "zero.ndjson")
    result = search.run(graph, Mode.SURROGATE, _toy_surrogate_cfg(n_ub),
                        ledger_path=path)
    index, rec = next((i, r) for i, r in enumerate(result.ledger.records)
                      if r.get("ctx_digest") == labels["p4"].hex())
    assert rec["event"] == "push" and rec["Nub"] == 0
    verdict = validate(path, compile_dag(toy_graph())[0])
    assert verdict.failures == [(index, "public count 1 exceeds logged Nub 0")]
    n_ub[graph.root] = 0
    with pytest.raises(RateZeroError):
        search.run(graph, Mode.SURROGATE, _toy_surrogate_cfg(n_ub))


def test_surrogate_ledger_without_a_child_push_fails(tmp_path, monkeypatch):
    # A run that never pushes a child logs no Nub for it, so its replay
    # cannot bound that child and aborts instead of skipping it.
    shared = suite_a(3, 3, 0)
    graph, _ = compile_dag(shared)
    skipped = graph.children(graph.root)[1]
    push = search._Engine.push
    monkeypatch.setattr(search._Engine, "push", lambda self, node, *a, **kw: (
        None if node.ctx_digest == skipped else push(self, node, *a, **kw)))
    path = str(tmp_path / "skipped.ndjson")
    result = search.run(graph, Mode.SURROGATE,
                        RunConfig(mtau=MtauConfig(), seed=0, n_ub_factor=2.0),
                        ledger_path=path)
    monkeypatch.undo()
    assert result.claim_type is ClaimType.RUN_WISE_EXACT
    verdict = validate(path, compile_dag(shared)[0])
    assert verdict.failures == [
        (0, f"replay aborted: no Nub for node {skipped.hex()[:16]}…")]


@pytest.mark.parametrize("family", ["toy", "suite_a"])
def test_exact_leaf_eval_logs_its_arrival(toy, family):
    # An Exact leaf's E_P is its arrival t: U is 1 - e^-t (by expm1, so
    # without cancellation) and the value s - log t, with t from the race
    # reconstruction.
    graph, cfg = toy
    if family == "suite_a":
        graph, _ = compile_dag(suite_a(3, 3, 1))
        cfg = RunConfig(mtau=MtauConfig(), seed=1)
    result = search.run(graph, Mode.EXACT, cfg)
    arrivals = exact_race(graph, stream_lookup(RngStream(cfg.seed),
                                               cfg.scripted_uniforms, graph))
    evals = [r for r in result.ledger.records if r["event"] == "leaf_eval"]
    assert evals
    for rec in evals:
        digest = bytes.fromhex(rec["ctx_digest"])
        t = arrivals[digest]
        assert rec["U"] == fp.encode_q0_64(-math.expm1(-t))
        assert rec["value"] == fp.encode_q64_64(
            graph.node(digest).prefix_score - math.log(t))


def test_deterministic_reruns_identical(toy):
    graph, cfg = toy
    first = search.run(graph, Mode.EXACT, cfg)
    second = search.run(graph, Mode.EXACT, cfg)
    assert first.ledger.serialize() == second.ledger.serialize()


def test_fallback_mode_runs(toy):
    graph, cfg = toy
    result = search.run(graph, Mode.FALLBACK, cfg)
    assert result.claim_type is ClaimType.NO_CERT
    assert result.incumbent_leaf is not None
    assert result.ledger.records[-1]["event"] == "stop"


# Generator families for the Surrogate race tests, by graph seed.
SURROGATE_FAMILIES = {
    "suite_a(3,3)": lambda s: suite_a(3, 3, s),
    "suite_b(6,3)": lambda s: suite_b(6, 3, seed=s),
    "random_tree": random_tree,
}


def _surrogate_run(shared, seed, recipe=MtauRecipe.R3):
    graph, _ = compile_dag(shared)
    cfg = RunConfig(mtau=MtauConfig(recipe=recipe), seed=seed, n_ub_factor=2.0)
    return graph, cfg, search.run(graph, Mode.SURROGATE, cfg)


def _surrogate_race(graph, cfg):
    return surrogate_race(graph, stream_lookup(RngStream(cfg.seed)),
                          cfg.n_ub_factor, cfg.salt)


@pytest.mark.parametrize("family", SURROGATE_FAMILIES)
def test_surrogate_run_follows_the_reconstructed_race(family):
    # Every push is keyed at its parent's reconstructed arrival (the root at
    # its own), and every popped leaf logs its reconstructed value.
    for seed in range(100):
        graph, cfg, result = _surrogate_run(SURROGATE_FAMILIES[family](seed), seed)
        arrivals, values = _surrogate_race(graph, cfg)
        for rec in result.ledger.records:
            if rec["event"] not in ("push", "leaf_eval"):
                continue
            node = graph.node(bytes.fromhex(rec["ctx_digest"]))
            if rec["event"] == "push":
                anchor = arrivals[node.ctx_digest if node.parent is None else node.parent]
                assert rec["key_raw"] == fp.encode_q64_64(
                    mtau(node, cfg.mtau) - math.log(anchor)), (seed, rec)
            else:
                assert rec["value"] == fp.encode_q64_64(values[node.ctx_digest]), (seed, rec)


def test_certified_surrogate_stop_returns_the_best_leaf_of_its_race():
    missed = []
    for family, generate in SURROGATE_FAMILIES.items():
        for seed in range(100):
            graph, cfg, result = _surrogate_run(generate(seed), seed)
            if result.claim_type is ClaimType.RUN_WISE_EXACT:
                best = max(_surrogate_race(graph, cfg)[1].values())
                if result.incumbent != best:
                    missed.append((family, seed))
    assert missed == []


def test_r2_and_r3_certify_the_same_surrogate_incumbent():
    differ = []
    for family, generate in {"suite_a(4,5)": lambda s: suite_a(4, 5, s),
                             "suite_b(10,3)": lambda s: suite_b(10, 3, seed=s),
                             "random_tree": random_tree}.items():
        for seed in range(20):
            runs = [_surrogate_run(generate(seed), seed, recipe)[2]
                    for recipe in (MtauRecipe.R2, MtauRecipe.R3)]
            assert all(r.claim_type is ClaimType.RUN_WISE_EXACT for r in runs)
            if runs[0].incumbent != runs[1].incumbent:
                differ.append((family, seed))
    assert differ == []
