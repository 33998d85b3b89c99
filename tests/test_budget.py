"""Budget controller: ratio selection, cap filtering, latency guard, runtime."""

import json
import math
import re
from dataclasses import replace

import pytest

from racecert import budget as bd
from racecert import search
from racecert.bounds import MtauConfig, MtauRecipe
from racecert.generators import suite_a, toy_graph, toy_mtau, TOY_SCRIPTED
from racecert.prefix_dag import compile_dag
from racecert.search import ClaimType, Mode, RunConfig
from racecert.validator import validate


@pytest.fixture
def gains(monkeypatch):
    """Two constant-gain estimators, patched into the fixed table."""
    monkeypatch.setitem(bd._ESTIMATORS, "gain2", lambda node, slack: 2.0)
    monkeypatch.setitem(bd._ESTIMATORS, "gain3", lambda node, slack: 3.0)


def _node():
    graph, _ = compile_dag(toy_graph())
    return graph.node(graph.root)


def _state(**kw):
    defaults = dict(eps_max=10.0, delta=1e-6, price_max=100, slo_ms=1000)
    defaults.update(kw)
    return bd.BudgetState(**defaults)


def test_ratio_selection_example(gains):
    m1 = bd.ModelCatalogEntry("m1", "a1", "d1", 2.0, 1e-6, 1, 10,
                              dkey_estimator="gain2")
    m2 = bd.ModelCatalogEntry("m2", "a2", "d2", 3.5, 1e-6, 5, 20,
                              dkey_estimator="gain3")
    state = _state()
    node = _node()
    # ratios: 2.0/(0.1*1+0.01*10)=10.0 vs 3.0/(0.1*5+0.01*20)=4.286
    assert bd.select_model(node, [m1, m2], state).model_id == "m1"


def test_tie_break_by_model_id(gains):
    a = bd.ModelCatalogEntry("m-a", "a", "d", 2.0, 1e-6, 1, 10,
                             dkey_estimator="gain2")
    b = bd.ModelCatalogEntry("m-b", "a", "d", 2.0, 1e-6, 1, 10,
                             dkey_estimator="gain2")
    assert bd.select_model(_node(), [b, a], _state()).model_id == "m-a"


def test_price_cap_filters(gains):
    cheap = bd.ModelCatalogEntry("m-cheap", "a", "d", 2.0, 1e-6, 1, 10,
                                 dkey_estimator="gain2")
    rich = bd.ModelCatalogEntry("m-rich", "a", "d", 2.0, 1e-6, 50, 10,
                                dkey_estimator="gain3")
    state = _state(price_max=10)
    assert bd.select_model(_node(), [cheap, rich], state).model_id == "m-cheap"
    state.price_spent = 10
    assert bd.select_model(_node(), [cheap, rich], state) is None


def test_latency_guard_boundary():
    def entry(latency_m):
        return bd.ModelCatalogEntry("m", "a", "d", 2.0, 1e-6, 1, latency_m)

    state = _state(slo_ms=12)
    # 1.2 * 10 == 12: boundary is feasible (strict inequality busts the SLO).
    assert state.feasible(entry(10))
    assert not state.feasible(entry(11))
    state.latency_acc = 0.1
    assert not state.feasible(entry(10))


def test_charge_accumulates():
    entry = bd.default_catalog()[0]
    state = _state()
    state.charge(entry)
    assert state.price_spent == entry.price_m
    assert math.isclose(state.latency_acc, bd.SAFETY_FACTOR * entry.latency_m)
    assert state.atoms == []  # eps_m == 0 adds no RDP atoms


def test_rdp_atoms_and_alpha_choice():
    state = _state(delta=1e-6)
    state.atoms = [bd.RdpAtom(alpha, 1.0) for alpha in state.alpha_grid]
    eps, alpha = state.rdp_eps_alpha()
    expected = min(1.0 + math.log(1e6) / (a - 1.0) for a in state.alpha_grid)
    assert math.isclose(eps, expected)
    assert alpha in state.alpha_grid


def test_catalog_entry_validation():
    with pytest.raises(ValueError):
        bd.ModelCatalogEntry("m", "a", "d", 1.0, 1e-6, -1, 10)
    with pytest.raises(ValueError):
        bd.ModelCatalogEntry("m", "a", "d", 1.0, 1e-6, 1, 10,
                             dkey_estimator="no-such-estimator")


_ALPHA = "alpha_grid must be non-empty and every alpha, its atoms' too, in (1, inf)"


@pytest.mark.parametrize("build, reason", [
    (lambda: _state(delta=2.0), "delta must lie in (0, 1)"),
    (lambda: _state(delta=0.0), "delta must lie in (0, 1)"),
    (lambda: _state(delta=math.nan), "delta must lie in (0, 1)"),
    (lambda: _state(alpha_grid=(1.0, 2.0)), f"{_ALPHA}: [1.0, 2.0]"),
    (lambda: _state(alpha_grid=(0.5,)), f"{_ALPHA}: [0.5]"),
    (lambda: _state(alpha_grid=()), f"{_ALPHA}: []"),
    (lambda: _state(atoms=[bd.RdpAtom(1.0, 0.5)]),
     f"{_ALPHA}: [2.0, 4.0, 8.0, 16.0, 32.0, 1.0]"),
    (lambda: _state(eps_max=math.nan), "eps_max must be >= 0"),
    (lambda: bd.ModelCatalogEntry("m", "a", "d", 1.0, 1e-6, 1, 10, eps_m=math.nan),
     "eps_m must be >= 0")],
    ids=["delta-2", "delta-0", "delta-nan", "alpha-1", "alpha-half",
         "empty-grid", "atom-alpha-1", "eps-max-nan", "eps-m-nan"])
def test_budget_setting_it_cannot_account_for_is_refused(build, reason):
    # Each failed mid-run once a private entry was priced, certified with
    # an understated epsilon (alpha 0.5), charged no epsilon at all (an
    # empty grid) or fired BudgetFail on the first expansion (NaN eps_max).
    with pytest.raises(ValueError, match=re.escape(reason)):
        build()


def test_folded_charges_keep_every_float():
    # A charge folds into one atom per alpha, summed in the order the sum
    # over every atom charged so far would take, so epsilon keeps its bits.
    entry = bd.ModelCatalogEntry("dp", "a", "d", 2.0, 1e-6, 1, 1, eps_m=0.013)
    state = _state(alpha_grid=(2.0, 3.5, 2.0), atoms=[
        bd.RdpAtom(2.0, 0.3), bd.RdpAtom(64.0, 1.1), bd.RdpAtom(2.0, 0.7)])
    charged = list(state.atoms)

    def unfolded_eps(atoms):
        return min(sum(e for a, e in atoms if a == alpha)
                   + math.log(1.0 / state.delta) / (alpha - 1.0)
                   for alpha in {a for a, _ in atoms})

    for _ in range(50):
        assert state.eps_after(entry) == unfolded_eps(
            charged + state.new_atoms(entry))
        state.charge(entry)
        charged += state.new_atoms(entry)
        assert state.rdp_eps_alpha()[0] == unfolded_eps(charged)
    assert sorted(alpha for alpha, _ in state.atoms) == [2.0, 3.5, 64.0]


def test_load_catalog_round_trip(tmp_path):
    import json

    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([
        {"model_id": "m", "adapter_id": "a", "dp_cert_id": "d",
         "eps_train": 2.0, "delta_train": 1e-6, "price_m": 3, "latency_m": 7},
    ]))
    cat = bd.load_catalog(str(path))
    assert len(cat) == 1 and cat[0].price_m == 3


def _run_with_budget(state):
    graph, cert = compile_dag(toy_graph())
    assert cert.ok
    runtime = bd.BudgetRuntime(bd.default_catalog(), state)
    cfg = RunConfig(mtau=toy_mtau(), scripted_uniforms=dict(TOY_SCRIPTED),
                    seed=7, budget=runtime)
    return search.run(graph, Mode.EXACT, cfg)


def test_runtime_logs_adapter_metadata():
    result = _run_with_budget(_state())
    recs = [r for r in result.ledger.records if r.get("event") == "budget"]
    assert recs and all(r["budget_event"] == "Selected" for r in recs)
    first = recs[0]
    assert first["model_id"] == "m-large"  # all-zero dkey ratios tie; lexicographic
    assert first["adapter_id"] == "adp-c"
    assert first["dp_cert_id"] == "dpc-c"
    assert "eps_train" in first and "delta_train" in first
    assert result.claim_type is ClaimType.RUN_WISE_EXACT


def test_int_estimate_is_logged_as_q32_32(tmp_path, monkeypatch):
    # The engine encodes each field by its declared layout, not by the
    # value's type: an estimate of the int 2 is Q32.32 2.0, not a raw 2.
    monkeypatch.setitem(bd._ESTIMATORS, "int2", lambda node, slack: 2)
    graph, cert = compile_dag(toy_graph())
    runtime = bd.BudgetRuntime([bd.ModelCatalogEntry(
        "m", "a", "d", 2.0, 1e-6, 1, 10, dkey_estimator="int2")], _state())
    cfg = RunConfig(mtau=toy_mtau(), scripted_uniforms=dict(TOY_SCRIPTED),
                    seed=7, budget=runtime)
    path = str(tmp_path / "int2.ndjson")
    result = search.run(graph, Mode.EXACT, cfg, ledger_path=path)
    preds = [r["dkey_pred"] for r in result.ledger.records
             if r.get("event") == "budget"]
    assert preds and set(preds) == {8589934592}
    assert validate(path, graph).ok


def test_reused_runtime_starts_every_run_afresh():
    graph, mode, cfg = _toy_pair()
    cfg = replace(cfg, budget=bd.BudgetRuntime(bd.default_catalog(), _state()))
    first, second = ([r for r in search.run(graph, mode, cfg).ledger.records
                      if r.get("event") == "budget"] for _ in range(2))
    assert first and first == second
    assert cfg.budget.state == _state()  # the caller's runtime is not charged


def test_exhaustion_downgrades_to_fallback():
    result = _run_with_budget(_state(price_max=0))
    assert "BudgetFail" in result.guards_seen
    assert result.mode_final is Mode.FALLBACK
    assert result.claim_type is ClaimType.NO_CERT


def _fallback_run(seed, price_max, path):
    graph, _ = compile_dag(suite_a(2, 3, seed))
    cfg = RunConfig(mtau=MtauConfig(), seed=seed, budget=bd.BudgetRuntime(
        bd.default_catalog(), _state(price_max=price_max, slo_ms=60_000)))
    return graph, search.run(graph, Mode.FALLBACK, cfg, ledger_path=path)


@pytest.mark.parametrize("price_max", [40, 50, 10_000])
@pytest.mark.parametrize("seed", range(4))
def test_fallback_run_charges_its_budget(tmp_path, seed, price_max):
    # A run that starts in Fallback charges the catalog like any other.
    path = str(tmp_path / "fallback.ndjson")
    graph, result = _fallback_run(seed, price_max, path)
    recs = [r for r in result.ledger.records if r.get("event") == "budget"]
    assert recs
    assert ("BudgetFail" in result.guards_seen) == (price_max == 40)
    assert validate(path, graph).ok


def test_tampered_fallback_budget_record_fails_replay(tmp_path):
    path = str(tmp_path / "fallback.ndjson")
    graph, _ = _fallback_run(0, 10_000, path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    i = next(i for i, line in enumerate(lines) if '"event":"budget"' in line)
    rec = json.loads(lines[i])
    rec["price_spent"] = str(int(rec["price_spent"]) + 1)
    lines[i] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    verdict = validate(path, graph)
    assert not verdict.replay_ok


def test_keys_unchanged_by_controller():
    plain = search.run(*_toy_pair())
    budgeted = _run_with_budget(_state())

    def pushes(res):
        return [(r["ctx_digest"], r["key_raw"]) for r in res.ledger.records
                if r.get("event") == "push"]

    assert pushes(plain) == pushes(budgeted)


def _toy_pair():
    graph, cert = compile_dag(toy_graph())
    assert cert.ok
    cfg = RunConfig(mtau=toy_mtau(), scripted_uniforms=dict(TOY_SCRIPTED),
                    seed=7)
    return graph, Mode.EXACT, cfg
