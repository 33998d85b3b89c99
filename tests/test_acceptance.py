"""Acceptance criteria 1-11.

One test per criterion (plus named sub-tests where a criterion bundles a
documented-unattainable literal next to checkable substance).  Tolerances are
pinned in the assertions; the conftest hook prints one [PRIMARY] line per
criterion at the end of the run.
"""

import json
import math
import os
import time

import pytest

from racecert import bounds, search, validator
from racecert.baselines import dist_level, oracle_a
from racecert.bounds import MtauConfig, MtauRecipe, kappa, lse_truncation_bound, mtau
from racecert.budget import (
    BudgetRuntime,
    BudgetState,
    default_catalog,
    rdp_to_eps_delta,
)
from racecert.generators import (
    ADVERSARIAL_SEED,
    FALLBACK_EQUALITY_DEPTH,
    FALLBACK_EQUALITY_SALT,
    TOY_SCRIPTED,
    adversarial_graph,
    full_binary_tree,
    pipeline_mock,
    random_binary_tree,
    random_tree,
    toy_graph,
    toy_mtau,
)
from racecert.prefix_dag import compile_dag
from racecert.race import (
    RngStream,
    exp_from_uniform,
    stream_lookup,
)
from racecert.reconstruct import (
    coupled_monotone_race,
    exact_leaf_values,
    exact_race,
    oracle_optimum,
    realized_suffix_max,
)
from racecert.search import ClaimType, Mode, RunConfig
from racecert import fixedpoint as fp

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def _toy_cfg(seed=7, **kw):
    return RunConfig(mtau=toy_mtau(), scripted_uniforms=dict(TOY_SCRIPTED),
                     seed=seed, **kw)


def _compiled(shared):
    graph, cert = compile_dag(shared)
    assert cert.ok
    return graph


def _pushed_keys(result):
    """ctx digest hex -> logged key_raw of each push record."""
    return {r["ctx_digest"]: r["key_raw"] for r in result.ledger.records
            if r.get("event") == "push"}


# -- criterion 1: toy replay golden values --------------------------------

def test_criterion_1():
    started = time.perf_counter()
    graph = _compiled(toy_graph())
    labels = {n.state_label: d.hex() for d, n in graph.unfold().items()}
    cfg = _toy_cfg()
    result = search.run(graph, Mode.EXACT, cfg)

    # The run's arrivals: the race rebuilt from the run's own draws.
    arrivals = exact_race(graph, stream_lookup(
        RngStream(cfg.seed), cfg.scripted_uniforms, graph))
    t_r = arrivals[bytes.fromhex(labels["r"])]
    t_u2 = arrivals[bytes.fromhex(labels["u2"])]
    pushed = _pushed_keys(result)
    keys = {lbl: fp.decode_q64_64(pushed[labels[lbl]])
            for lbl in ("r", "u1", "u2")}
    # Published-value tolerances (rounded to 3-4 digits in the write-up).
    assert math.isclose(t_r, 0.055786, abs_tol=2e-3)
    assert math.isclose(t_u2, 0.517821, abs_tol=2e-3)
    assert math.isclose(keys["r"], 7.886, abs_tol=2e-3)
    assert math.isclose(keys["u1"], 7.386, abs_tol=2e-3)
    assert math.isclose(keys["u2"], 4.859, abs_tol=2e-3)
    # Internal closed forms at 1e-9.
    t_r_exact = -math.log1p(-0.20) / 4
    assert math.isclose(t_r, t_r_exact, abs_tol=1e-9)
    assert math.isclose(t_u2, t_r_exact + -math.log1p(-0.37) / 1, abs_tol=1e-9)
    assert math.isclose(keys["r"], 5.0 - math.log(t_r_exact), abs_tol=1e-9)
    assert math.isclose(keys["u1"], 4.5 - math.log(t_r_exact), abs_tol=1e-9)

    surro = search.run(graph, Mode.SURROGATE, _toy_cfg(n_ub_factor=1.5))
    root_push = next(r for r in surro.ledger.records
                     if r.get("event") == "push"
                     and r["ctx_digest"] == labels["r"])
    t_hat_r = exp_from_uniform(fp.q0_64_value(root_push["U"]), root_push["Nub"])
    key_hat_r = fp.decode_q64_64(_pushed_keys(surro)[labels["r"]])
    assert math.isclose(t_hat_r, 0.03719, abs_tol=1e-5)
    assert math.isclose(t_hat_r, -math.log1p(-0.20) / 6, abs_tol=1e-9)
    assert math.isclose(key_hat_r, 8.29, abs_tol=2e-3)
    assert time.perf_counter() - started < 1.0


# -- criterion 2: lower-bound rate regression -----------------------------

def test_criterion_2():
    u = 0.5
    t = exp_from_uniform(u, 2)
    assert math.isclose(t, 0.34657, abs_tol=1e-4)
    t_lb = exp_from_uniform(u, 1)  # forbidden lower-bound rate
    assert math.isclose(-math.log(t_lb), 0.3665, abs_tol=1e-4)
    # One leaf per child, M = 0: RSM(v) = -log t(v); the lower-bound key
    # underestimates it, violating admissibility.
    rsm = -math.log(t)
    assert -math.log(t_lb) < rsm


@pytest.mark.xfail(
    strict=True,
    reason="published rounding of the correct key term: -log(-log(0.5)/2) "
    "= 1.05966..., not 1.0609; the stated 1e-4 tolerance cannot hold",
)
def test_criterion_2_published_literal():
    key_term = -math.log(exp_from_uniform(0.5, 2))
    assert math.isclose(key_term, 1.0609, abs_tol=1e-4)


# -- criteria 3 and 4: frontier coverage + oracle equivalence -------------

def _surrogate_uniforms(result, graph):
    """The race uniform of each pushed or popped context; a run that stays
    Surrogate (no guard) logs nothing else there."""
    assert result.mode_final is Mode.SURROGATE and not result.guards_seen
    raws = {}
    for rec in result.ledger.records:
        if rec.get("event") in ("push", "pop") and "U" in rec:
            raws[bytes.fromhex(rec["ctx_digest"])] = rec["U"]
    return raws


def test_criterion_3():
    started = time.perf_counter()
    tol = 1e-9
    for graph_seed in range(200):
        graph = _compiled(random_tree(graph_seed))
        assert sum(n.is_leaf for n in graph.walk()) <= 200
        cfg_m = MtauConfig()  # R3 score-to-go, the default
        for run_seed in range(5):
            for mode in (Mode.EXACT, Mode.SURROGATE):
                cfg = RunConfig(mtau=cfg_m, seed=run_seed, n_ub_factor=1.5)
                result = search.run(graph, mode, cfg)
                if mode is Mode.EXACT:
                    lookup = stream_lookup(RngStream(run_seed))
                    arrivals = exact_race(graph, lookup)
                    values = exact_leaf_values(graph, arrivals)
                else:
                    arrivals = coupled_monotone_race(
                        graph, _surrogate_uniforms(result, graph))
                    values = {leaf.ctx_digest: leaf.prefix_score
                              - math.log(arrivals[leaf.ctx_digest])
                              for leaf in graph.walk() if leaf.is_leaf}
                rsm = realized_suffix_max(graph, values)
                # Every pushed key covers its whole subtree, which implies
                # coverage of every unexpanded leaf at every pop.
                for digest_hex, key_q in _pushed_keys(result).items():
                    node_rsm = rsm[bytes.fromhex(digest_hex)]
                    assert fp.decode_q64_64(key_q) >= node_rsm - tol, (
                        f"coverage violation: graph {graph_seed} seed "
                        f"{run_seed} mode {mode.value}")
                # At stop no unexpanded leaf exceeds B*.
                assert result.claim_type is ClaimType.RUN_WISE_EXACT
                b_star = result.incumbent
                for digest_hex, _ in result.frontier_at_stop:
                    assert rsm[bytes.fromhex(digest_hex)] <= b_star + tol
    assert time.perf_counter() - started < 120.0


def test_criterion_4():
    for graph_seed in range(200):
        graph = _compiled(random_tree(graph_seed))
        cfg_m = MtauConfig()
        for run_seed in range(5):
            result = search.run(graph, Mode.EXACT,
                                RunConfig(mtau=cfg_m, seed=run_seed))
            winner, value = oracle_optimum(graph,
                                           stream_lookup(RngStream(run_seed)))
            assert result.incumbent_leaf == winner.hex()
            assert math.isclose(result.incumbent, value, abs_tol=1e-9)


# -- criterion 5: surrogate domination + kappa tightening -----------------

def test_criterion_5(tmp_path):
    for graph_seed in range(25):
        graph = _compiled(random_tree(graph_seed))
        cfg_m = MtauConfig()
        cfg = RunConfig(mtau=cfg_m, seed=graph_seed, n_ub_factor=2.0)
        path = str(tmp_path / f"s{graph_seed}.ndjson")
        result = search.run(graph, Mode.SURROGATE, cfg, ledger_path=path)

        # Domination: every surrogate key >= the coupled exact-count key.
        uniforms = _surrogate_uniforms(result, graph)
        coupled = coupled_monotone_race(graph, uniforms)
        for digest_hex, key_q in _pushed_keys(result).items():
            digest = bytes.fromhex(digest_hex)
            exact_key = (mtau(graph.node(digest), cfg_m)
                         - math.log(coupled[digest]))
            assert fp.decode_q64_64(key_q) >= exact_key - 1e-9

        # Tightening: key_raw + kappa is the exact-rate key, bit-exact in
        # Q64.64 under the validator's arrival-difference definition.
        verdict = validator.validate(path, graph,
                                     public_counts=graph.public_counts())
        assert verdict.ok
        ledger = result.ledger
        for index, kappa_q, key_tight in verdict.tightened:
            rec = ledger.records[index]
            n = graph.node(bytes.fromhex(rec["ctx_digest"])).n_exact
            u = fp.q0_64_value(rec["U"])
            k = (-math.log(exp_from_uniform(u, n))
                 - -math.log(exp_from_uniform(u, rec["Nub"])))
            assert key_tight == fp.encode_q64_64(
                fp.decode_q64_64(rec["key_raw"]) + k)
            assert key_tight <= rec["key_raw"]
            # kappa agrees with the closed form log(n / n_ub).
            assert math.isclose(fp.decode_q32_32(kappa_q),
                                kappa(n, rec["Nub"]), abs_tol=1e-6)


# -- criterion 6: fallback work bound -------------------------------------

def _pushed_leaves(result, graph):
    """Ctx digest hex of each leaf push record, in push order."""
    return [r["ctx_digest"] for r in result.ledger.records
            if r.get("event") == "push"
            and graph.node(bytes.fromhex(r["ctx_digest"])).is_leaf]


def _internal_expansions(result):
    """Expansions of internal nodes: every pop but the leaf evaluations."""
    return result.expansions - sum(1 for r in result.ledger.records
                                   if r.get("event") == "leaf_eval")


def _fallback_sets(graph, salt):
    # The worked-leaf set is the leaves the engine materialized (scored and
    # heaped); with exact leaf-wise LSE bounds, the pop stream alone reduces
    # to the argmax, so materialization is where the Thm-3 work shows up.
    cfg = RunConfig(mtau=MtauConfig(), seed=0, salt=salt)
    result = search.run(graph, Mode.FALLBACK, cfg)
    oracle_set = {d.hex() for d in oracle_a(graph, salt)}
    worked = set(_pushed_leaves(result, graph))
    popped = {r["ctx_digest"] for r in result.ledger.records
              if r.get("event") == "leaf_eval"}
    assert popped <= worked
    return worked, oracle_set, _internal_expansions(result)


def test_criterion_6():
    salt = (0).to_bytes(8, "big")
    for seed in range(100):
        graph = _compiled(random_binary_tree(seed))
        popped, oracle_set, n_int = _fallback_sets(graph, salt)
        assert oracle_set <= popped
        extra = popped - oracle_set
        assert len(extra) <= n_int, f"work bound violated at seed {seed}"
    # Pinned equality fixture: |S| == number of expanded internal nodes.
    graph = _compiled(full_binary_tree(FALLBACK_EQUALITY_DEPTH))
    popped, oracle_set, n_int = _fallback_sets(graph, FALLBACK_EQUALITY_SALT)
    assert len(popped - oracle_set) == n_int > 0


# -- criterion 7: deterministic replay + mutation detection ---------------

def test_criterion_7(tmp_path):
    graph = _compiled(toy_graph())
    runs = {}
    for mode, extra in (("exact", {}), ("surrogate", {"n_ub_factor": 1.5})):
        paths = []
        for i in range(2):
            path = str(tmp_path / f"{mode}-{i}.ndjson")
            search.run(graph, Mode(mode.capitalize()), _toy_cfg(**extra),
                       ledger_path=path)
            paths.append(path)
        first = open(paths[0], "rb").read()
        assert first == open(paths[1], "rb").read()  # byte-identical reruns
        runs[mode] = first
        # Byte-identical to the committed golden ledger.
        golden = os.path.join(DATA_DIR, f"toy-{mode}.ndjson")
        assert first == open(golden, "rb").read()
        verdict = validator.validate(golden, graph,
                                     public_counts=graph.public_counts())
        assert verdict.ok

    # Single-bit mutation (bit 40 of a logged uniform) is detected at the
    # record that was mutated.
    lines = runs["exact"].decode().splitlines()
    idx = next(i for i, ln in enumerate(lines) if '"U":' in ln)
    obj = json.loads(lines[idx])
    obj["U"] = str(int(obj["U"]) ^ (1 << 40))
    lines[idx] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    tampered = str(tmp_path / "tampered.ndjson")
    with open(tampered, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    verdict = validator.validate(tampered, graph)
    assert not verdict.ok
    assert min(i for i, _ in verdict.failures) == idx - 1  # header offset


# -- criterion 8: adversarial soundness split -----------------------------

def test_criterion_8():
    graph = _compiled(adversarial_graph())
    cfg_m = MtauConfig()
    lookup = stream_lookup(RngStream(ADVERSARIAL_SEED))
    values = exact_leaf_values(graph, exact_race(graph, lookup))
    base = dist_level(graph, cfg_m, values)
    assert base.pruned_winner  # distribution-level pruning loses the winner
    result = search.run(graph, Mode.EXACT,
                        RunConfig(mtau=cfg_m, seed=ADVERSARIAL_SEED))
    winner, value = oracle_optimum(graph, lookup)
    assert result.incumbent_leaf == winner.hex()
    assert math.isclose(result.incumbent, value, abs_tol=1e-9)
    assert result.claim_type is ClaimType.RUN_WISE_EXACT
    assert result.ledger.records[-1]["reason"] == "StopCertified"


# -- criterion 9: qualitative desk-scale orderings ------------------------

def test_criterion_9():
    graph = _compiled(pipeline_mock())
    cfg_m = MtauConfig()
    means = {}
    for mode in (Mode.EXACT, Mode.SURROGATE, Mode.FALLBACK):
        expansions = []
        for seed in range(20):
            cfg = RunConfig(mtau=cfg_m, seed=seed, n_ub_factor=2.0,
                            salt=seed.to_bytes(8, "big"))
            result = search.run(graph, mode, cfg)
            if mode is Mode.FALLBACK:
                expansions.append(_internal_expansions(result)
                                  + len(_pushed_leaves(result, graph)))
            else:
                expansions.append(result.expansions)
        means[mode] = sum(expansions) / len(expansions)
    assert means[Mode.EXACT] <= means[Mode.SURROGATE] <= means[Mode.FALLBACK]

    # Expansions non-decreasing in the count-inflation factor.
    sweep_means = []
    for factor in (1.0, 1.5, 2.0, 4.0):
        vals = []
        for seed in range(10):
            result = search.run(graph, Mode.SURROGATE,
                                RunConfig(mtau=cfg_m, seed=seed,
                                          n_ub_factor=factor))
            vals.append(result.expansions)
        sweep_means.append(sum(vals) / len(vals))
    assert sweep_means == sorted(sweep_means)

    # Exact stop-slack is never positive: frontier keys <= B* at stop.
    for seed in range(10):
        result = search.run(graph, Mode.EXACT,
                            RunConfig(mtau=cfg_m, seed=seed))
        b_star_q = fp.encode_q64_64(result.incumbent)
        for _, key_q in result.frontier_at_stop:
            assert key_q - b_star_q <= 0


# -- criterion 10: LSE truncation soundness -------------------------------

def test_criterion_10():
    # Soundness on 100 enumerable fixtures for every truncation depth K.
    for seed in range(100):
        graph = _compiled(random_tree(seed, max_depth=3, c_s_max=1.5))
        leaves = [(n.depth, n.prefix_score) for n in graph.walk() if n.is_leaf]
        exact_lse = math.log(math.fsum(math.exp(s) for _, s in leaves))
        depth = max(d for d, _ in leaves)
        c_s_min = 1e-9
        s_ref = max(s + d * c_s_min for d, s in leaves)
        counts = [0.0] * (depth + 1)
        for d, _ in leaves:
            counts[d] += 1.0
        for k_cut in range(depth + 1):
            partial = [s for d, s in leaves if d <= k_cut]
            partial_lse = (math.log(math.fsum(math.exp(s) for s in partial))
                           if partial else float("-inf"))
            bound_val = lse_truncation_bound(partial_lse, s_ref, counts,
                                             c_s_min, k_cut)
            assert bound_val >= exact_lse - 1e-12, (seed, k_cut)

    # Geometric-tail closed form against our own exact series at 1e-9.
    b_k = [2.0**k for k in range(200)]
    tail_true = math.log((2 / math.e) ** 3 / (1 - 2 / math.e))
    got = lse_truncation_bound(float("-inf"), 0.0, b_k, 1.0, 2)
    assert math.isclose(got, tail_true + math.log(2), abs_tol=1e-9)
    assert math.isclose(tail_true, 0.4103348098838906, abs_tol=1e-12)


@pytest.mark.xfail(
    strict=True,
    reason="published rounding: the geometric tail is 0.41033..., so the "
    "0.41031 literal misses the stated 1e-6 tolerance by ~2.5e-5",
)
def test_criterion_10_published_literal():
    b_k = [2.0**k for k in range(200)]
    got = lse_truncation_bound(float("-inf"), 0.0, b_k, 1.0, 2)
    assert math.isclose(got, 0.41031 + math.log(2), abs_tol=1e-6)


# -- criterion 11: budget non-interference + RDP conversion ---------------

def test_criterion_11():
    graph = _compiled(toy_graph())

    def pushes(result):
        return [(r["ctx_digest"], r["key_raw"])
                for r in result.ledger.records if r.get("event") == "push"]

    plain = search.run(graph, Mode.EXACT, _toy_cfg())
    runtime = BudgetRuntime(default_catalog(),
                            BudgetState(eps_max=10.0, delta=1e-6,
                                        price_max=100, slo_ms=1000))
    budgeted = search.run(graph, Mode.EXACT, _toy_cfg(budget=runtime))
    assert pushes(plain) == pushes(budgeted)  # Prop-5 non-interference

    # Infeasible catalog: BudgetFail guard, then NoCert records.
    broke = BudgetRuntime(default_catalog(),
                          BudgetState(eps_max=10.0, delta=1e-6,
                                      price_max=0, slo_ms=1000))
    failed = search.run(graph, Mode.EXACT, _toy_cfg(budget=broke))
    records = failed.ledger.records
    guard_idx = next(i for i, r in enumerate(records)
                     if r.get("event") == "guard"
                     and "BudgetFail" in r.get("guards", []))
    assert all(r["claim_type"] == "NoCert" for r in records[guard_idx + 1:]
               if "claim_type" in r)
    assert failed.claim_type is ClaimType.NO_CERT

    # RDP conversion example.
    eps = rdp_to_eps_delta([(2.0, 1.0)], 1e-6)
    assert math.isclose(eps, 14.8155, abs_tol=1e-3)
