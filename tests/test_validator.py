"""Independent replay validation: round trips, tampering, RDP conversion."""

import dataclasses
import json
import math
from fractions import Fraction

import pytest

from racecert import budget, fixedpoint as fp, search, validator
from racecert.bounds import MtauConfig, MtauRecipe, PhiConfig
from racecert.budget import (
    BudgetRuntime,
    BudgetState,
    ModelCatalogEntry,
    RdpAtom,
    default_catalog,
    rdp_to_eps_delta,
)
from racecert.cli import main
from racecert.generators import (
    TOY_SCRIPTED,
    adversarial_graph,
    pipeline_mock,
    random_binary_tree,
    random_tree,
    suite_a,
    suite_b,
    toy_graph,
    toy_mtau,
)
from racecert.ledger import Ledger, MalformedLineError, SchemaViolationError
from racecert.prefix_dag import DagNode, PublicCaps, SharedDag, compile_dag
from racecert.search import Mode, RunConfig

FAMILIES = {
    "suite_a": lambda seed: suite_a(3, 3, seed),
    "suite_b": lambda seed: suite_b(seed=seed),
    "random_tree": random_tree,
    "random_binary_tree": random_binary_tree,
    "pipeline_mock": lambda seed: pipeline_mock(),
    "adversarial": lambda seed: adversarial_graph(),
}


def _assert_stop_reason_matches_claim(path):
    """The stop reason is StopHeuristic exactly when the claim is NoCert."""
    stop = Ledger.parse(path).records[-1]
    assert stop["event"] == "stop"
    assert stop["reason"] == ("StopHeuristic" if stop["claim_type"] == "NoCert"
                              else "StopCertified")


def _run(tmp_path, mode, **cfg_kw):
    graph, cert = compile_dag(toy_graph())
    assert cert.ok
    cfg = RunConfig(mtau=toy_mtau(), scripted_uniforms=dict(TOY_SCRIPTED),
                    seed=7, **cfg_kw)
    path = str(tmp_path / f"{mode.value.lower()}.ndjson")
    result = search.run(graph, mode, cfg, ledger_path=path)
    return graph, result, path


def test_rdp_no_atoms_is_unset():
    assert rdp_to_eps_delta([], 1e-6) is None


def test_rdp_single_atom_closed_form():
    eps = rdp_to_eps_delta([(2.0, 1.0)], 1e-6)
    assert math.isclose(eps, 1.0 + math.log(1e6), abs_tol=1e-3)
    assert math.isclose(eps, 14.8155, abs_tol=1e-3)


def test_rdp_additivity_same_alpha():
    one = rdp_to_eps_delta([(8.0, 0.5)], 1e-5)
    two = rdp_to_eps_delta([(8.0, 0.5), (8.0, 0.5)], 1e-5)
    assert math.isclose(two - one, 0.5)
    with pytest.raises(ValueError):
        rdp_to_eps_delta([(2.0, 1.0)], 0.0)


def test_exact_round_trip(tmp_path):
    graph, _, path = _run(tmp_path, Mode.EXACT)
    verdict = validator.validate(path, graph, public_counts=graph.public_counts())
    assert verdict.ok
    assert verdict.replay_ok and verdict.stop_rule_ok and verdict.budget_ok


def test_surrogate_round_trip_tightens(tmp_path):
    graph, _, path = _run(tmp_path, Mode.SURROGATE, n_ub_factor=2.0)
    verdict = validator.validate(path, graph, public_counts=graph.public_counts())
    assert verdict.ok
    assert verdict.tightened  # inflated counts leave room to tighten
    for _, kappa_q, _ in verdict.tightened:
        assert kappa_q <= 0  # kappa = log(n / n_ub) <= 0


def test_report_file_written(tmp_path):
    graph, _, path = _run(tmp_path, Mode.EXACT)
    report = str(tmp_path / "verdict.json")
    verdict = validator.validate(path, graph)
    verdict.save(report)
    with open(report, encoding="utf-8") as fh:
        obj = json.load(fh)
    assert obj["ok"] == verdict.ok is True
    assert obj["rdp_variant"] == "classic"


def test_missing_stop_record_fails(tmp_path):
    graph, _, path = _run(tmp_path, Mode.EXACT)
    lines = open(path, encoding="utf-8").read().splitlines(keepends=True)
    assert '"event":"stop"' in lines[-1]
    truncated = str(tmp_path / "truncated.ndjson")
    with open(truncated, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-1])
    verdict = validator.validate(truncated, graph)
    assert not verdict.stop_rule_ok
    assert not verdict.ok


def test_tampered_uniform_detected(tmp_path):
    graph, _, path = _run(tmp_path, Mode.EXACT)
    lines = open(path, encoding="utf-8").read().splitlines()
    idx = next(i for i, ln in enumerate(lines) if '"U":' in ln)
    obj = json.loads(lines[idx])
    obj["U"] = str(int(obj["U"]) ^ (1 << 40))
    lines[idx] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    tampered = str(tmp_path / "tampered.ndjson")
    with open(tampered, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    verdict = validator.validate(tampered, graph)
    assert not verdict.ok
    # Failures begin at the mutated record (ledger line idx, 0-based records
    # start after the header line).
    assert verdict.failures
    assert min(i for i, _ in verdict.failures) == idx - 1


def test_tampered_key_detected(tmp_path):
    graph, _, path = _run(tmp_path, Mode.EXACT)
    lines = open(path, encoding="utf-8").read().splitlines()
    idx = next(i for i, ln in enumerate(lines) if '"event":"push"' in ln)
    obj = json.loads(lines[idx])
    obj["key_raw"] = str(int(obj["key_raw"]) + (1 << 60))
    lines[idx] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    tampered = str(tmp_path / "tampered-key.ndjson")
    with open(tampered, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    verdict = validator.validate(tampered, graph)
    assert not verdict.replay_ok


def _toy_lines(toy_ledgers, name):
    """The lines of the toy ledger ``name`` that ``toy-replay`` wrote."""
    with open(toy_ledgers / name, encoding="utf-8") as fh:
        return fh.read().splitlines()


# The header line of a v1 toy-exact ledger, with the ids, per-record mode and
# claim and header constants that v2 dropped.
V1_TOY_EXACT_HEADER = (
    '{"expansion_cap":null,"mode":"Exact","mtau":{"c_s_max":0.0,"fixed_table":'
    '{"p1":0.0,"p2":0.0,"p3":0.0,"p4":0.0,"r":5.0,"u1":4.5,"u2":4.2},'
    '"max_depth":0,"recipe":"FIXED"},"n_ub_factor":1.0,"phi":null,'
    '"prf_domain":"leaf","privacy_scope":"post_processing_only","root":'
    '"7d83ffff2a9ce8ead41da14e767ce4d257024006b79a39f04e4c9cf58d60933b",'
    '"salt":"0000000000000000","schema":"racecert/ledger/v1","seed":7,'
    '"surrogate_leaf_prf":true,"tau":1.0}')


def test_v1_ledger_is_refused_with_one_reason(tmp_path, toy_ledgers):
    # No v1 reader: the schema tag fails parse, before any record is read,
    # not as one replay mismatch per record.
    graph, _ = compile_dag(toy_graph())
    lines = _toy_lines(toy_ledgers, "toy-exact.ndjson")
    verdict = validator.validate(_write_lines(
        tmp_path, "v1.ndjson", [V1_TOY_EXACT_HEADER, *lines[1:]]), graph)
    assert verdict.failures == [(0, "line 1: missing or wrong schema tag")]


@pytest.mark.parametrize("key, value", [
    ("prf_domain", "route"), ("privacy_scope", "none"),
    ("surrogate_leaf_prf", False), ("deterministic_ids", False),
    ("tau", 1), ("surrogate_leaf_prf", 1), ("n_ub_factor", True)])
def test_tampered_golden_header_detected(tmp_path, toy_ledgers, key, value):
    # Replay rebuilds the header from the settings it reads back; a
    # constant changed, a key no setting writes (such as a constant only
    # a v1 header held), or a value retyped (``1 == 1.0``) differs from it
    # as JSON text.  A bool for a number setting is refused where it
    # enters, so that replay aborts.
    graph, _ = compile_dag(toy_graph())
    lines = _toy_lines(toy_ledgers, "toy-exact.ndjson")
    header = json.loads(lines[0])
    assert json.dumps(header.get(key)) != json.dumps(value)
    header[key] = value
    lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
    verdict = validator.validate(
        _write_lines(tmp_path, "header.ndjson", lines), graph)
    reason = (f"replay aborted: {key} must be float: True" if value is True
              else f"header mismatch in fields [{key!r}]")
    assert verdict.failures == [(0, reason)]
    assert not verdict.replay_ok


@pytest.mark.parametrize("old, new", [('"p1":0.0', '"p1":0')])
def test_tampered_golden_mtau_detected(tmp_path, toy_ledgers, old, new):
    # Replay builds ``mtau`` from its recipe and float table alone, so a
    # retyped value inside it differs as JSON text.
    graph, _ = compile_dag(toy_graph())
    lines = _toy_lines(toy_ledgers, "toy-exact.ndjson")
    assert old in lines[0]
    lines[0] = lines[0].replace(old, new)
    verdict = validator.validate(
        _write_lines(tmp_path, "mtau.ndjson", lines), graph)
    assert verdict.failures == [(0, "header mismatch in fields ['mtau']")]


@pytest.mark.parametrize("key, value, reason", [
    ("fixed_table", {"n": -100.0}, "replay aborted: header field 'mtau' is "
     "malformed: ValueError('M_tau R3: FIXED needs a fixed_table"),
    ("c_s_max", -5.0, "header mismatch in fields ['mtau']")],
    ids=["fixed_table", "c_s_max"])
def test_r3_header_with_a_setting_r3_never_reads_fails(tmp_path, key, value,
                                                       reason):
    graph, path = _family_run(tmp_path, "suite_a", Mode.EXACT, 0)
    lines = open(path, encoding="utf-8").read().splitlines()
    header = json.loads(lines[0])
    assert header["mtau"]["recipe"] == "R3"
    header["mtau"][key] = value
    lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
    verdict = validator.validate(
        _write_lines(tmp_path, "r3.ndjson", lines), graph)
    assert len(verdict.failures) == 1
    assert verdict.failures[0][0] == 0
    assert verdict.failures[0][1].startswith(reason)


@pytest.mark.parametrize("old, new", [('"eta":1.0', '"eta":1'),
                                      ('"step_cap":4', '"step_cap":4.0')])
def test_retyped_phi_header_detected(tmp_path, old, new):
    graph, _, path = _run(tmp_path, Mode.EXACT, phi=PhiConfig(step_cap=4))
    lines = open(path, encoding="utf-8").read().splitlines()
    assert validator.validate(path, graph).ok
    assert old in lines[0]
    lines[0] = lines[0].replace(old, new)
    verdict = validator.validate(
        _write_lines(tmp_path, "phi.ndjson", lines), graph)
    assert verdict.failures == [(0, "header mismatch in fields ['phi']")]


_BUDGET_MISMATCH = "header mismatch in fields ['budget']"


@pytest.mark.parametrize("old, new, reason", [
    ('"price_max":100,', '"price_max":100.0,', _BUDGET_MISMATCH),
    ('"slo_ms":1000,', '"slo_ms":1000.0,', _BUDGET_MISMATCH),
    ('"eps_max":10.0,', '"eps_max":10,', _BUDGET_MISMATCH),
    ('"eps_train":2.0,', '"eps_train":2,', _BUDGET_MISMATCH),
    ('"weight_alpha":0.1,', '"weight_alpha":true,',
     "replay aborted: weight_alpha must be float: True")],
    ids=["price_max", "slo_ms", "eps_max", "eps_train", "weight_alpha"])
def test_retyped_budget_header_detected(tmp_path, old, new, reason):
    # Catalog entries and the budget state store their declared types, so
    # a value retyped inside the nested budget writes back differently; a
    # bool for a number is refused where it enters, so that replay aborts.
    runtime = BudgetRuntime(default_catalog(), BudgetState(
        eps_max=10.0, delta=1e-6, price_max=100, slo_ms=1000))
    graph, _, path = _run(tmp_path, Mode.EXACT, budget=runtime)
    lines = open(path, encoding="utf-8").read().splitlines()
    assert lines[0].count(old) == 1
    lines[0] = lines[0].replace(old, new)
    verdict = validator.validate(
        _write_lines(tmp_path, "budget.ndjson", lines), graph)
    assert verdict.failures == [(0, reason)]


# A value of another JSON type for each number setting, built from the
# compiled graph as in NON_DEFAULT_SETTINGS.
INT_TYPED_SETTINGS = {
    "tau": lambda g: 1,
    "n_ub_factor": lambda g: 2,
    "seed": lambda g: 3.0,
    "expansion_cap": lambda g: 4.0,
    "phi": lambda g: PhiConfig(step_cap=6.0, alpha=0, eta=1, eps_fp=0,
                               c_s_min=1),
    "mtau": lambda g: MtauConfig(MtauRecipe.FIXED,
                                 {n.state_label: 10 for n in g.walk()}),
}


@pytest.mark.parametrize("name", sorted(INT_TYPED_SETTINGS))
@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.SURROGATE],
                         ids=lambda m: m.value)
def test_int_typed_setting_writes_a_ledger_that_validates(tmp_path, mode,
                                                         name):
    # The config stores each setting as its declared type, so the header a
    # run writes is the one its replay rebuilds.
    graph, _ = compile_dag(suite_a(2, 3, 0))
    cfg = RunConfig(**{"mtau": MtauConfig(),
                       name: INT_TYPED_SETTINGS[name](graph)})
    path = str(tmp_path / f"{name}-{mode.value}.ndjson")
    search.run(graph, mode, cfg, ledger_path=path)
    header = Ledger.parse(path).header
    assert [type(header[k]) for k in ("seed", "tau", "n_ub_factor")] == [
        int, float, float]
    assert all(type(v) is float
               for v in header["mtau"]["fixed_table"].values())
    assert validator.validate(path, graph).ok


def test_fixed_table_without_a_state_names_it(tmp_path):
    # A run raises a ValueError naming the state, and so does its replay.
    graph, _ = compile_dag(suite_a(2, 3, 0))
    table = {node.state_label: 10.0 for node in graph.walk()}
    path = str(tmp_path / "fixed.ndjson")
    search.run(graph, Mode.EXACT, RunConfig(mtau=MtauConfig(
        MtauRecipe.FIXED, table)), ledger_path=path)
    del table["n.0"]
    with pytest.raises(ValueError, match="FIXED M_tau table has no state 'n.0'"):
        search.run(graph, Mode.EXACT,
                   RunConfig(mtau=MtauConfig(MtauRecipe.FIXED, table)))
    lines = open(path, encoding="utf-8").read().splitlines()
    header = json.loads(lines[0])
    del header["mtau"]["fixed_table"]["n.0"]
    lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
    verdict = validator.validate(
        _write_lines(tmp_path, "missing.ndjson", lines), graph)
    assert verdict.failures == [
        (0, "replay aborted: FIXED M_tau table has no state 'n.0'")]


@pytest.mark.parametrize("key, value", [
    ("n_ub_factor", -1.0), ("n_ub_factor", 0.5), ("tau", 0.0),
    ("expansion_cap", -3)])
def test_header_setting_no_run_certifies_under_aborts_replay(tmp_path, toy_ledgers,
                                                             key, value):
    # Replay reads Nub from the log and never uses these values, so only
    # the config the header builds can refuse them.
    graph, _ = compile_dag(toy_graph())
    lines = _toy_lines(toy_ledgers, "toy-surrogate.ndjson")
    header = json.loads(lines[0])
    header[key] = value
    lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
    verdict = validator.validate(
        _write_lines(tmp_path, "header.ndjson", lines), graph)
    assert len(verdict.failures) == 1
    assert verdict.failures[0][1].startswith(f"replay aborted: {key} must be")


@pytest.mark.parametrize("key, value", [
    ("mtau", "R3"), ("budget", {"catalog": [1], "state": {}}),
    ("salt", "not hex"), ("phi", {"steps": 4})])
def test_header_field_of_the_wrong_shape_is_named(tmp_path, toy_ledgers, key,
                                                  value):
    # The replay aborts with a reason that names the field, not with
    # Python's own text alone.
    graph, _ = compile_dag(toy_graph())
    lines = _toy_lines(toy_ledgers, "toy-surrogate.ndjson")
    header = json.loads(lines[0])
    header[key] = value
    lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
    verdict = validator.validate(
        _write_lines(tmp_path, "header.ndjson", lines), graph)
    [(index, reason)] = verdict.failures
    assert index == 0
    assert reason.startswith(f"replay aborted: header field {key!r} is malformed: ")


@pytest.mark.parametrize("value", ["x", "1.5", True, None, [1.0]],
                         ids=["text", "numeric-text", "bool", "null", "list"])
def test_fixed_table_entry_that_is_not_a_number_is_named(tmp_path, toy_ledgers,
                                                         value):
    # Each entry must be a JSON number: one of another type is neither cast
    # nor left to Python's own error, and the reason names field and state.
    graph, _ = compile_dag(toy_graph())
    lines = _toy_lines(toy_ledgers, "toy-exact.ndjson")
    header = json.loads(lines[0])
    header["mtau"]["fixed_table"]["p1"] = value
    lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
    verdict = validator.validate(
        _write_lines(tmp_path, "table.ndjson", lines), graph)
    assert verdict.failures == [(0, (
        "replay aborted: header field 'mtau' is malformed: ValueError(\""
        f"fixed_table entry of state 'p1' is not a number: {value!r}\")"))]


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_an_r2_ledger_still_validates(tmp_path, mode):
    # The header names the recipe, so a ledger written before R3 became
    # the default replays under the R2 it was written with.
    graph, _ = compile_dag(suite_b(6, 3, 0))
    path = str(tmp_path / "r2.ndjson")
    cfg = RunConfig(mtau=MtauConfig(recipe=MtauRecipe.R2), n_ub_factor=1.5)
    search.run(graph, mode, cfg, ledger_path=path)
    assert Ledger.parse(path).header["mtau"]["recipe"] == "R2"
    assert validator.validate(path, graph).ok


@pytest.mark.parametrize("field, rewrite", [
    ("key_raw", lambda d: "+" + d),
    ("key_raw", lambda d: "0" + d),
    ("key_raw", lambda d: f" {d} "),
    ("key_raw", lambda d: f"{d[:2]}_{d[2:]}"),
    ("key_raw", lambda d: "-0"),
    ("Nub", lambda d: "\u0664"),  # ARABIC-INDIC DIGIT FOUR
], ids=["plus", "leading-zero", "spaces", "underscore", "minus-zero",
        "arabic-indic-digit"])
def test_non_canonical_raw_field_detected(tmp_path, toy_ledgers, field, rewrite):
    # Raw fields take canonical decimals only: ``int`` reads each of these,
    # but the writer never emits them.
    graph, _ = compile_dag(toy_graph())
    lines = _toy_lines(toy_ledgers, "toy-exact.ndjson")
    rec = json.loads(lines[1])  # record 0: the root push, Nub "4"
    rec[field] = rewrite(rec[field])
    int(rec[field])
    lines[1] = json.dumps(rec, sort_keys=True, separators=(",", ":"),
                          ensure_ascii=False)
    verdict = validator.validate(
        _write_lines(tmp_path, "raw.ndjson", lines), graph)
    [(index, reason)] = verdict.failures
    assert index == 0  # the record index; the reason names the file line
    assert reason.startswith(f"line 2: bad integer in {field}: not canonical")
    assert not verdict.replay_ok and not verdict.stop_rule_ok


@pytest.mark.parametrize("spelling", ["1", "1.00000", "+1.0000", " 1.0000",
                                      "4/4"])
def test_non_canonical_scaled_field_detected(tmp_path, spelling):
    # Scaled fields take only the 4-decimal text the writer emits:
    # ``Fraction`` reads each of these as 1.0000.
    graph, _ = compile_dag(suite_a(2, 3, 0))
    path = str(tmp_path / "phi.ndjson")
    search.run(graph, Mode.EXACT, RunConfig(mtau=MtauConfig(),
                                            phi=PhiConfig(step_cap=6)),
               ledger_path=path)
    lines = open(path, encoding="utf-8").read().splitlines()
    idx = next(i for i, ln in enumerate(lines) if '"eta":"1.0000"' in ln)
    assert Fraction(spelling) == 1
    lines[idx] = lines[idx].replace('"eta":"1.0000"', f'"eta":"{spelling}"')
    verdict = validator.validate(
        _write_lines(tmp_path, "scaled.ndjson", lines), graph)
    [(index, reason)] = verdict.failures
    assert index == idx - 1
    assert reason == (f"line {idx + 1}: bad decimal in eta: "
                      f"not canonical decimal: {spelling!r}")


def _ladder_dag(layers: int) -> SharedDag:
    """A root over one leaf and a two-wide ladder of ``layers`` layers,
    each node joined to both of the next: 2**layers + 1 leaves."""
    nodes = {"r": DagNode("r", "r", False), "z": DagNode("z", "z", True),
             "t": DagNode("t", "t", False)}
    edges = [("r", "z", 0), ("r", "t", 1)]
    above = ["t"]
    for k in range(1, layers + 1):
        layer = [f"{k}.{j}" for j in range(2)]
        nodes.update({n: DagNode(n, n, k == layers) for n in layer})
        edges += [(a, b, j) for a in above for j, b in enumerate(layer)]
        above = layer
    return SharedDag(nodes=nodes, edges=edges, root_id="r",
                     caps=PublicCaps(max_depth=layers + 2, c_s_max=1.0,
                                     c_s_min=1.0))


@pytest.mark.parametrize("shared, factor, root_nub", [
    (_ladder_dag(53), 1.0, 2**53 + 1),  # a float product rounds to 2**53
    (suite_a(3, 3, 0), 1e18, 2**64 - 1),  # 2.7e19 would not fit the field
    (suite_a(3, 3, 0), 1e308, 2**64 - 1)],  # its float ceil overflowed
    ids=["2**53+1-leaves", "factor-1e18", "factor-1e308"])
def test_surrogate_nub_is_exact_and_fits_the_ledger(tmp_path, shared, factor,
                                                    root_nub):
    # Nub is ceil(factor * N) in integers, capped at the field's 2**64 - 1.
    graph, _ = compile_dag(shared)
    path = str(tmp_path / "nub.ndjson")
    search.run(graph, Mode.SURROGATE,
               RunConfig(mtau=MtauConfig(), n_ub_factor=factor,
                         expansion_cap=3), ledger_path=path)
    assert Ledger.parse(path).records[0]["Nub"] == root_nub
    verdict = validator.validate(path, graph)
    assert verdict.ok, verdict.failures


def test_surrogate_key_at_the_q64_64_top_is_a_verdict(tmp_path, toy_ledgers):
    # Tightening re-encodes key_raw + kappa; a key that decodes to 2**63
    # (the NumClamp sentinel or one just below it) overflows Q64.64 there.
    graph, _ = compile_dag(toy_graph())
    lines = _toy_lines(toy_ledgers, "toy-surrogate.ndjson")
    line = next(i for i, ln in enumerate(lines) if '"event":"pop"' in ln)
    rec = json.loads(lines[line])
    assert "U" in rec and "Nub" in rec
    rec["key_raw"] = str(fp.Q64_64_MAX - 1)
    lines[line] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    verdict = validator.validate(
        _write_lines(tmp_path, "key-top.ndjson", lines), graph)
    assert verdict.failures == [(line - 1, "replay mismatch in fields ['key_raw']")]


def test_verdict_flags_follow_its_failures():
    verdict = validator.Verdict()
    assert verdict.ok and verdict.replay_ok and verdict.stop_rule_ok
    for name in ("replay_ok", "stop_rule_ok", "budget_ok", "ok"):
        with pytest.raises(AttributeError):
            setattr(verdict, name, False)
    verdict.fail("tightening", 3, "kappa positive")
    assert not verdict.ok and verdict.failures == [(3, "kappa positive")]
    assert verdict.replay_ok and verdict.stop_rule_ok and verdict.budget_ok
    verdict.fail("budget", 4, "price_spent decreased")
    assert not verdict.budget_ok and verdict.replay_ok
    verdict.fail("parse", 1, "line 1: bad JSON")
    assert not verdict.replay_ok and not verdict.stop_rule_ok
    assert verdict.to_json_obj()["failures"][2] == {
        "index": 1, "reason": "line 1: bad JSON"}


def test_malformed_ledger_fails_cleanly(tmp_path):
    graph, _ = compile_dag(toy_graph())
    bad = str(tmp_path / "bad.ndjson")
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write("not json\n")
    verdict = validator.validate(bad, graph)
    assert not verdict.ok
    assert verdict.failures[0][0] == 0  # a header fault, like a header mismatch


def test_budget_run_validates(tmp_path):
    runtime = BudgetRuntime(
        default_catalog(),
        BudgetState(eps_max=10.0, delta=1e-6, price_max=100, slo_ms=1000))
    graph, _, path = _run(tmp_path, Mode.EXACT, budget=runtime)
    verdict = validator.validate(path, graph)
    assert verdict.ok
    assert verdict.budget_ok


def _budget_lines(tmp_path):
    """The graph and ledger lines of an Exact suite_a(3, 3, 0) run with the
    default catalog: four Selected budget records, at records 1, 6, 11 and 16."""
    graph, _ = compile_dag(suite_a(3, 3, 0))
    path = str(tmp_path / "budget.ndjson")
    search.run(graph, Mode.EXACT, RunConfig(mtau=MtauConfig(), budget=BudgetRuntime(
        default_catalog(), BudgetState(eps_max=10.0, delta=1e-6, price_max=100,
                                       slo_ms=1000))), ledger_path=path)
    return graph, open(path, encoding="utf-8").read().splitlines()


# A guard record that downgrades the claim without naming a guard.
_UNLICENSED = json.dumps({"event": "guard", "guards": [],
                          "claim_type_before": "RunWiseExact",
                          "claim_type_after": "NoCert"}, separators=(",", ":"))


@pytest.mark.parametrize("line, fields, reason", [
    (2, {"adapter_id": None}, "missing adapter metadata adapter_id"),
    (2, {"price_spent": "101"}, "price_spent exceeds price_cap"),
    (7, {"price_spent": "19"}, "price_spent decreased"),
    (3, None, "claim downgrade without licensing guard")],
    ids=["adapter-id-dropped", "spent-above-cap", "spent-lowered",
         "unlicensed-downgrade"])
def test_tampered_budget_record_fails_its_check(tmp_path, line, fields, reason):
    # ``fields`` set (None drops one) on the record at ``line``, or with
    # none, the unlicensed guard inserted there.  Each budget check fires
    # beside a replay mismatch, and the one pass lists failures in record
    # order, the tampered record's first.
    graph, lines = _budget_lines(tmp_path)
    assert validator.validate(_write_lines(tmp_path, "ok.ndjson", lines), graph).ok
    if fields is None:
        lines.insert(line, _UNLICENSED)
    else:
        rec = {**json.loads(lines[line]), **fields}
        lines[line] = json.dumps({k: v for k, v in rec.items() if v is not None},
                                 sort_keys=True, separators=(",", ":"))
    verdict = validator.validate(
        _write_lines(tmp_path, "tampered.ndjson", lines), graph)
    assert ("budget", line - 1, reason) in verdict.found
    assert not verdict.budget_ok and not verdict.replay_ok
    indices = [i for _, i, _ in verdict.found]
    assert indices[0] == line - 1 and indices == sorted(indices)


@pytest.mark.parametrize("key, value, reason", [
    ("delta", 2.0, "delta must lie in (0, 1): 2.0"),
    ("alpha_grid", [1.0, 2.0], "alpha_grid must be non-empty and every alpha, "
                               "its atoms' too, in (1, inf): [1.0, 2.0]"),
    ("eps_max", -1.0, "eps_max must be >= 0: -1.0")])
def test_header_budget_setting_it_cannot_account_for_aborts_replay(
        tmp_path, key, value, reason):
    graph, lines = _budget_lines(tmp_path)
    header = json.loads(lines[0])
    header["budget"]["state"][key] = value
    lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
    verdict = validator.validate(
        _write_lines(tmp_path, "header.ndjson", lines), graph)
    assert verdict.failures == [(0, f"replay aborted: {reason}")]


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_validate_loads_and_compiles_a_spec_path(tmp_path, mode):
    # Given a spec path, validate loads and compiles the graph itself.
    spec = str(tmp_path / "g.json")
    suite_a(3, 3, 0).save(spec)
    graph, _ = compile_dag(SharedDag.load(spec))
    path = str(tmp_path / f"{mode.value}.ndjson")
    search.run(graph, mode, RunConfig(mtau=MtauConfig(), n_ub_factor=2.0),
               ledger_path=path)
    verdict = validator.validate(path, spec)
    assert verdict.ok, verdict.failures
    assert verdict.tightened == validator.validate(path, graph).tightened
    assert bool(verdict.tightened) == (mode is Mode.SURROGATE)


def _family_run(tmp_path, family, mode, seed):
    graph, cert = compile_dag(FAMILIES[family](seed))
    assert cert.ok
    cfg = RunConfig(mtau=MtauConfig(), seed=seed, n_ub_factor=2.0,
                    salt=seed.to_bytes(8, "big"))
    path = str(tmp_path / f"{family}-{seed}-{mode.value}.ndjson")
    search.run(graph, mode, cfg, ledger_path=path)
    return graph, path


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_every_mode_and_family_validates(tmp_path, mode, family, seed):
    graph, path = _family_run(tmp_path, family, mode, seed)
    verdict = validator.validate(path, graph,
                                 public_counts=graph.public_counts())
    assert verdict.ok, verdict.failures
    _assert_stop_reason_matches_claim(path)


def _costly(shared):
    """``shared`` with every non-root node cost 1e19."""
    nodes = {k: n if k == shared.root_id else n._replace(det_score_delta=1e19)
             for k, n in shared.nodes.items()}
    return SharedDag(nodes, shared.edges, shared.root_id, shared.caps)


@pytest.mark.parametrize("overflow", ["fixed-table", "node-cost",
                                      "phi-step-cap", "dkey-estimate"])
@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_clamped_run_validates(tmp_path, monkeypatch, mode, overflow):
    # Keys or leaf values overflow Q64.64, potentials (about 1.1e12 each)
    # or a budget estimate of 1e300 overflow Q32.32: the engine clamps each
    # to its layout's ends and logs NumClamp, and its ledger still validates.
    shared, mt, extra = suite_a(2, 3, 0), MtauConfig(), {}
    if overflow == "fixed-table":
        mt = MtauConfig(MtauRecipe.FIXED, {
            node.state_label: 1e19 for node in shared.nodes.values()})
    elif overflow == "node-cost":
        shared = _costly(shared)
    elif overflow == "phi-step-cap":
        extra["phi"] = PhiConfig(step_cap=2**40)
    else:
        monkeypatch.setitem(budget._ESTIMATORS, "huge", lambda node, slack: 1e300)
        extra["budget"] = BudgetRuntime(
            [ModelCatalogEntry("m", "a", "d", 2.0, 1e-6, 1, 10, dkey_estimator="huge")],
            BudgetState(eps_max=10.0, delta=1e-6, price_max=100, slo_ms=60_000))
    graph, _ = compile_dag(shared)
    path = str(tmp_path / f"{overflow}-{mode.value}.ndjson")
    result = search.run(graph, mode, RunConfig(mtau=mt, n_ub_factor=2.0, **extra),
                        ledger_path=path)
    # Fallback keys ignore M_tau and its pops log no potentials, so only the
    # costly graph and the estimate clamp there.
    assert "NumClamp" in result.guards_seen or (
        mode is Mode.FALLBACK and overflow in ("fixed-table", "phi-step-cap"))
    verdict = validator.validate(path, graph)
    assert verdict.ok, verdict.failures


@pytest.mark.parametrize("price_max", [0, 1, 5, 20])
def test_budget_exhausted_run_validates(tmp_path, price_max):
    runtime = BudgetRuntime(
        default_catalog(),
        BudgetState(eps_max=10.0, delta=1e-6, price_max=price_max,
                    slo_ms=1000))
    graph, result, path = _run(tmp_path, Mode.EXACT, budget=runtime)
    assert "BudgetFail" in result.guards_seen
    assert result.mode_final is Mode.FALLBACK
    verdict = validator.validate(path, graph)
    assert verdict.ok, verdict.failures
    assert result.ledger.records[-1]["claim_type"] == result.claim_type.value
    _assert_stop_reason_matches_claim(path)


def test_tampered_fallback_leaf_eval_detected(tmp_path):
    graph, path = _family_run(tmp_path, "random_tree", Mode.FALLBACK, 1)
    lines = open(path, encoding="utf-8").read().splitlines()
    idx = next(i for i, ln in enumerate(lines) if '"event":"leaf_eval"' in ln)
    obj = json.loads(lines[idx])
    obj["U"] = str(int(obj["U"]) ^ (1 << 40))
    lines[idx] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    tampered = str(tmp_path / "tampered-fallback.ndjson")
    with open(tampered, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    verdict = validator.validate(tampered, graph)
    assert not verdict.ok
    assert min(i for i, _ in verdict.failures) == idx - 1  # header offset


def test_wrong_graph_fails_with_one_reason(tmp_path):
    _, path = _family_run(tmp_path, "suite_a", Mode.EXACT, 0)
    toy, _ = compile_dag(toy_graph())
    verdict = validator.validate(path, toy)
    assert not verdict.ok
    assert len(verdict.failures) == 1
    index, reason = verdict.failures[0]
    assert index == 0
    assert reason.startswith("ledger root ")
    assert f"does not match graph root {toy.root.hex()}" in reason


# One non-default value per RunConfig field.  Each entry builds its value
# from the compiled graph, because n_ub_map and scripted draws name its
# nodes.
NON_DEFAULT_SETTINGS = {
    "mtau": lambda g: MtauConfig(recipe=MtauRecipe.R2),
    "phi": lambda g: PhiConfig(step_cap=6),
    "seed": lambda g: 5,
    "n_ub_factor": lambda g: 3.0,
    "n_ub_map": lambda g: {d: 2 * n.n_exact for d, n in g.unfold().items()},
    "salt": lambda g: b"\x01" * 8,
    "tau": lambda g: 0.5,
    "scripted_uniforms": lambda g: {
        (g.node(g.root).state_label, "race"): 1 << 62,
        (g.node(g.root).state_label, "winner"): 3 << 62},
    "budget": lambda g: BudgetRuntime(
        default_catalog(),
        BudgetState(eps_max=10.0, delta=1e-6, price_max=100, slo_ms=1000)),
    "expansion_cap": lambda g: 3,
    # Read by nothing: ids are always seeded, so the run still replays
    # with its node ids compared.
    "deterministic_ids": lambda g: False,
}


def test_settings_table_covers_every_run_setting():
    assert set(NON_DEFAULT_SETTINGS) == {
        f.name for f in dataclasses.fields(RunConfig)}


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("name", sorted(NON_DEFAULT_SETTINGS))
def test_every_run_setting_replays(tmp_path, name, mode):
    graph, cert = compile_dag(suite_a(3, 3, 0))
    assert cert.ok
    cfg = dataclasses.replace(RunConfig(mtau=MtauConfig()),
                              **{name: NON_DEFAULT_SETTINGS[name](graph)})
    path = str(tmp_path / f"{name}-{mode.value}.ndjson")
    search.run(graph, mode, cfg, ledger_path=path)
    verdict = validator.validate(path, graph,
                                 public_counts=graph.public_counts())
    assert verdict.ok, verdict.failures
    _assert_stop_reason_matches_claim(path)


def test_header_round_trips_through_from_header():
    graph, _ = compile_dag(toy_graph())
    cfg = RunConfig(mtau=toy_mtau(), phi=PhiConfig(step_cap=4, alpha=0.5,
                                                   eta=0.5),
                    seed=9, n_ub_factor=1.5, salt=b"\x02" * 8,
                    tau=0.25, expansion_cap=7,
                    budget=BudgetRuntime(
                        [*default_catalog(),
                         ModelCatalogEntry("m-dp", "adp-d", "dpc-d", 1.0,
                                           1e-6, 2, 5, eps_m=0.5)],
                        BudgetState(eps_max=9.0, delta=1e-5, price_max=50,
                                    slo_ms=400, atoms=[RdpAtom(2.0, 0.5)],
                                    price_spent=3, latency_acc=6.0)))
    assert cfg.mtau.recipe is MtauRecipe.FIXED and cfg.mtau.fixed_table
    for mode in Mode:
        header = json.loads(json.dumps(cfg.header_obj(graph, mode)))
        assert set(header["mtau"]) == {
            f.name for f in dataclasses.fields(MtauConfig)}
        assert set(header["budget"]["state"]) == {
            f.name for f in dataclasses.fields(BudgetState)}
        replay_mode, replay_cfg = RunConfig.from_header(header)
        assert replay_mode is mode
        assert replay_cfg.header_obj(graph, replay_mode) == header


@pytest.mark.parametrize("damage", ["header-without-mtau", "bad-digest-hex"])
def test_unreplayable_ledger_is_a_verdict_not_an_exception(tmp_path, damage):
    graph, _, path = _run(tmp_path, Mode.EXACT)
    lines = open(path, encoding="utf-8").read().splitlines()
    if damage == "header-without-mtau":
        header = json.loads(lines[0])
        del header["mtau"]
        lines[0] = json.dumps(header, sort_keys=True)
    else:
        rec = json.loads(lines[1])
        assert "Nub" in rec
        rec["ctx_digest"] = "not-hex"
        lines[1] = json.dumps(rec, sort_keys=True)
    damaged = str(tmp_path / f"{damage}.ndjson")
    with open(damaged, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    verdict = validator.validate(damaged, graph)
    assert not verdict.replay_ok
    assert verdict.failures[0][1].startswith("replay aborted: ")


@pytest.mark.parametrize("event,field", [("push", "key_raw"),
                                         ("pop", "ctx_digest")])
def test_record_without_required_field_is_a_verdict(tmp_path, event, field):
    graph, _, path = _run(tmp_path, Mode.EXACT)
    lines = open(path, encoding="utf-8").read().splitlines()
    idx = next(i for i, ln in enumerate(lines) if f'"event":"{event}"' in ln)
    rec = json.loads(lines[idx])
    del rec[field]
    lines[idx] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    damaged = str(tmp_path / f"{event}-without-{field}.ndjson")
    with open(damaged, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(SchemaViolationError) as exc:
        Ledger.parse(damaged)
    assert exc.value.lineno == idx + 1
    verdict = validator.validate(damaged, graph)
    assert not verdict.ok
    assert verdict.failures[0][0] == idx - 1  # file line idx + 1 is record idx - 1
    assert field in verdict.failures[0][1]


def test_non_utf8_line_is_a_malformed_line(tmp_path):
    graph, _, path = _run(tmp_path, Mode.EXACT)
    lines = open(path, "rb").read().split(b"\n")
    lines[2] = lines[2].replace(b'"event"', b'"ev\xffent"', 1)
    damaged = str(tmp_path / "not-utf8.ndjson")
    with open(damaged, "wb") as fh:
        fh.write(b"\n".join(lines))
    with pytest.raises(MalformedLineError) as exc:
        Ledger.parse(damaged)
    assert exc.value.lineno == 3
    assert "not UTF-8" in str(exc.value)
    verdict = validator.validate(damaged, graph)
    assert not verdict.ok
    assert verdict.failures[0][0] == 1  # record 1 is file line 3


def test_stop_record_with_surrogate_fields_is_a_verdict(tmp_path):
    # Nub and U are legal on any record; the tightening audit must not
    # assume that a record carrying them names a context.
    graph, _, path = _run(tmp_path, Mode.SURROGATE, n_ub_factor=1.5)
    lines = open(path, encoding="utf-8").read().splitlines()
    stop = json.loads(lines[-1])
    assert stop["event"] == "stop" and "key_raw" in stop
    stop.update(Nub="4", U="5")
    lines[-1] = json.dumps(stop, sort_keys=True, separators=(",", ":"))
    damaged = str(tmp_path / "stop-with-nub.ndjson")
    with open(damaged, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    verdict = validator.validate(damaged, graph,
                                 public_counts=graph.public_counts())
    assert not verdict.ok
    assert verdict.failures[0][0] == len(lines) - 2


def _write_lines(tmp_path, name, lines):
    path = str(tmp_path / name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def test_verdict_with_a_failure_is_not_ok(tmp_path):
    # An n_ub_map below the exact counts: the logged keys are not upper
    # bounds, yet the run claims RunWiseExact and replays bit-exactly.  Only
    # the tightening audit against the public counts sees it.
    graph, _ = compile_dag(suite_a(3, 3, 0))
    n_ub_map = {d: max(1, node.n_exact // 9) for d, node in graph.unfold().items()}
    cfg = RunConfig(mtau=MtauConfig(), seed=1, n_ub_map=n_ub_map)
    path = str(tmp_path / "low-nub.ndjson")
    result = search.run(graph, Mode.SURROGATE, cfg, ledger_path=path)
    assert result.claim_type.value == "RunWiseExact"
    verdict = validator.validate(path, graph,
                                 public_counts=graph.public_counts())
    assert verdict.replay_ok and verdict.stop_rule_ok and verdict.budget_ok
    assert any("exceeds logged Nub" in reason
               for _, reason in verdict.failures)
    assert not verdict.ok
    assert verdict.to_json_obj()["ok"] is False


@pytest.mark.parametrize("via_cli", [False, True])
@pytest.mark.parametrize("nub", ["one", "count-1", "count", "3*count"])
def test_nub_of_a_push_never_expanded_is_checked(tmp_path, nub, via_cli):
    # A Surrogate push carries Nub but no U, and replay takes a logged Nub
    # as the rate it replays with, so only the count check can catch a
    # Nub below the public count of a context the run never expanded.
    shared = suite_a(4, 5, 3)
    graph, _ = compile_dag(shared)
    path = str(tmp_path / "run.ndjson")
    search.run(graph, Mode.SURROGATE,
               RunConfig(mtau=MtauConfig(), seed=1, n_ub_factor=2.0),
               ledger_path=path)
    lines = open(path, encoding="utf-8").read().splitlines()
    records = [json.loads(line) for line in lines]
    popped = {r["ctx_digest"] for r in records if r.get("event") == "pop"}
    counts = graph.public_counts()
    idx = next(i for i, r in enumerate(records)
               if r.get("event") == "push" and r["ctx_digest"] not in popped
               and counts[r["ctx_digest"]] > 1)
    rec = records[idx]
    assert "U" not in rec
    n = counts[rec["ctx_digest"]]
    rec["Nub"] = str({"one": 1, "count-1": n - 1, "count": n,
                      "3*count": 3 * n}[nub])
    lines[idx] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    damaged = _write_lines(tmp_path, "nub.ndjson", lines)
    if via_cli:  # counts of the contexts replay built: every pushed one
        graph_path = str(tmp_path / "g.json")
        shared.save(graph_path)
        ok = main(["validate", damaged, "--graph", graph_path]) == 0
        with open(damaged + ".verdict.json", encoding="utf-8") as fh:
            failures = [(f["index"], f["reason"])
                        for f in json.load(fh)["failures"]]
    else:
        fresh, _ = compile_dag(shared)
        verdict = validator.validate(damaged, fresh,
                                     public_counts=fresh.public_counts())
        ok, failures = verdict.ok, verdict.failures
    if nub in ("one", "count-1"):
        assert not ok
        assert failures == [
            (idx - 1, f"public count {n} exceeds logged Nub {rec['Nub']}")]
    else:
        assert ok, failures


@pytest.mark.parametrize("event", ["push", "pop"])
def test_every_copy_of_a_logged_draw_must_replay(tmp_path, toy_ledgers, event):
    # A Surrogate root logs its race draw twice, at its push and at its pop.
    graph, _ = compile_dag(toy_graph())
    lines = _toy_lines(toy_ledgers, "toy-surrogate.ndjson")
    idx = next(i for i, ln in enumerate(lines) if f'"event":"{event}"' in ln)
    rec = json.loads(lines[idx])
    assert rec["ctx_digest"] == graph.root.hex()
    rec["U"] = str(int(rec["U"]) + 1)
    lines[idx] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    verdict = validator.validate(
        _write_lines(tmp_path, f"root-{event}-u.ndjson", lines), graph)
    assert not verdict.replay_ok
    assert not verdict.ok


def test_public_count_below_one_is_a_verdict(toy_ledgers):
    # Rate 0 has no arrival: a count of 0 fails the tightening check of
    # each record that logs a Nub instead of raising.
    graph, _ = compile_dag(toy_graph())
    path = str(toy_ledgers / "toy-surrogate.ndjson")
    bounded = sum("Nub" in rec for rec in Ledger.parse(path).records)
    zeros = {digest: 0 for digest in graph.public_counts()}
    verdict = validator.validate(path, graph, public_counts=zeros)
    assert not verdict.ok
    assert [check for check, _, _ in verdict.found] == ["tightening"] * bounded
    assert all(reason == "public count 0 below 1"
               for _, reason in verdict.failures)


def test_first_logged_nub_is_the_one_replayed(tmp_path, toy_ledgers):
    # Replay reads every logged input by the first copy per context, so a
    # later Nub that differs is the one record flagged.
    graph, _ = compile_dag(toy_graph())
    lines = _toy_lines(toy_ledgers, "toy-surrogate.ndjson")
    idx = max(i for i, ln in enumerate(lines)
              if '"Nub":' in ln and '"event":"pop"' in ln)
    rec = json.loads(lines[idx])
    first = next(i for i, ln in enumerate(lines) if rec["ctx_digest"] in ln)
    # An earlier push logged the same context with the same Nub.
    assert first < idx and json.loads(lines[first])["Nub"] == rec["Nub"]
    rec["Nub"] = str(int(rec["Nub"]) + 1)
    lines[idx] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    verdict = validator.validate(
        _write_lines(tmp_path, "later-nub.ndjson", lines), graph)
    assert verdict.found == [
        ("replay", idx - 1, "replay mismatch in fields ['Nub']")]


def test_pop_without_its_winner_draw_aborts_replay(tmp_path):
    graph, _, path = _run(tmp_path, Mode.EXACT)
    lines = open(path, encoding="utf-8").read().splitlines()
    idx = next(i for i, ln in enumerate(lines) if '"W":' in ln)
    rec = json.loads(lines[idx])
    assert rec["event"] == "pop"
    del rec["W"]
    lines[idx] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    verdict = validator.validate(
        _write_lines(tmp_path, "pop-without-w.ndjson", lines), graph)
    assert not verdict.replay_ok
    assert verdict.failures[0][1].startswith("replay aborted: no logged W")
