"""CLI subcommands: exit codes and emitted artifacts."""

import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

from racecert import cli
from racecert.bounds import MtauConfig
from racecert.budget import BudgetState
from racecert.cli import main
from racecert.generators import suite_a, suite_b
from racecert.ledger import Ledger
from racecert.prefix_dag import compile_dag
from racecert.search import Mode, RunConfig, run
from racecert.validator import validate


def test_toy_replay_exit_zero(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["toy-replay", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "incumbent=2.886234" in text
    assert text.count("replay_ok=True") == 2  # each ledger is validated
    # The command that re-records the goldens reproduces them.
    for name in ("toy-exact.ndjson", "toy-surrogate.ndjson"):
        with open(os.path.join(out, name), "rb") as fh:
            written = fh.read()
        with open(os.path.join(os.path.dirname(__file__), "data", name), "rb") as fh:
            assert written == fh.read()


def test_validate_roundtrip_and_reports(tmp_path, capsys):
    out = str(tmp_path / "out")
    main(["toy-replay", "--out", out])
    ledger = os.path.join(out, "toy-exact.ndjson")
    assert main(["validate", ledger]) == 0
    text = capsys.readouterr().out
    assert "replay_ok=True" in text
    with open(ledger + ".verdict.json", encoding="utf-8") as fh:
        assert json.load(fh)["ok"] is True


def test_validate_rejects_malformed(tmp_path):
    bad = str(tmp_path / "bad.ndjson")
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write("")
    assert main(["validate", bad]) == 1


@pytest.mark.parametrize("spec", [
    {"root": "r", "nodes": [{"id": "r"}], "edges": []},
    [1, 2],
], ids=["node-without-caps", "not-an-object"])
def test_validate_rejects_hostile_graph_in_one_line(tmp_path, capsys, spec):
    out = str(tmp_path / "out")
    main(["toy-replay", "--out", out])
    capsys.readouterr()
    graph = str(tmp_path / "hostile.json")
    with open(graph, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    ledger = os.path.join(out, "toy-exact.ndjson")
    assert main(["validate", ledger, "--graph", graph]) != 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "bad graph spec" in err


def test_suite_with_baseline_modes_round_trips(tmp_path):
    # Baselines add CSV rows but write no ledger; each Exact ledger
    # validates against the graph saved beside it.
    out = str(tmp_path / "suite")
    modes = ["Exact", "greedy", "beam3", "dist-level"]
    assert main(["suite", "--suite", "A", "--depth", "2", "--seeds", "2",
                 "--modes", ",".join(modes), "--out", out]) == 0
    with open(os.path.join(out, "suite.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
    assert sorted(r["mode"] for r in rows) == sorted(modes * 2)
    ledgers = os.path.join(out, "ledgers")
    assert sorted(os.listdir(ledgers)) == [
        "A-0-Exact.ndjson", "A-0.graph.json", "A-1-Exact.ndjson", "A-1.graph.json"]
    for seed in (0, 1):
        assert main(["validate", os.path.join(ledgers, f"A-{seed}-Exact.ndjson"),
                     "--graph", os.path.join(ledgers, f"A-{seed}.graph.json")]) == 0


def test_suite_emits_csv_and_ledgers(tmp_path):
    out = str(tmp_path / "suite")
    assert main(["suite", "--suite", "A", "--depth", "2", "--seeds", "3",
                 "--out", out]) == 0
    csv_path = os.path.join(out, "suite.csv")
    with open(csv_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    rows = [ln for ln in lines if not ln.startswith("#")]
    assert comments  # aggregate mean/CI rows
    reader = csv.DictReader(rows)
    body = list(reader)
    assert len(body) == 6  # 3 seeds x {Exact, Surrogate}
    assert {"mode", "seed", "expansions"} <= set(body[0])
    ledgers = [f for f in os.listdir(os.path.join(out, "ledgers"))
               if f.endswith(".ndjson")]
    assert len(ledgers) == 6


def test_suite_ledgers_validate_against_saved_graph(tmp_path, capsys):
    out = str(tmp_path / "suite")
    assert main(["suite", "--suite", "A", "--depth", "2", "--seeds", "1",
                 "--modes", "Exact,Surrogate,Fallback", "--out", out]) == 0
    ledger_dir = os.path.join(out, "ledgers")
    graph = os.path.join(ledger_dir, "A-0.graph.json")
    assert os.path.exists(graph)
    ledgers = sorted(os.path.join(ledger_dir, f)
                     for f in os.listdir(ledger_dir) if f.endswith(".ndjson"))
    assert len(ledgers) == 3
    assert main(["validate", *ledgers, "--graph", graph]) == 0
    # Without --graph the toy graph is used: one root-mismatch failure each.
    assert main(["validate", ledgers[0]]) == 1
    text = capsys.readouterr().out
    assert "does not match graph root" in text


def test_validate_without_counts_reads_the_replayed_contexts(tmp_path,
                                                            monkeypatch):
    shared = suite_b(6, 3, seed=2)
    graph_path = str(tmp_path / "g.json")
    shared.save(graph_path)
    ledgers = []
    for seed in range(3):
        for mode in (Mode.EXACT, Mode.SURROGATE):  # Fallback builds all
            path = str(tmp_path / f"{mode.value}-{seed}.ndjson")
            run(compile_dag(shared)[0], mode,
                RunConfig(mtau=MtauConfig(), seed=seed, n_ub_factor=2.0),
                ledger_path=path)
            ledgers.append(path)
    graphs = []

    def compile_and_keep(dag):
        graphs.append(compile_dag(dag)[0])
        return graphs[-1], None

    monkeypatch.setattr(cli, "compile_dag", compile_and_keep)
    assert main(["validate", *ledgers, "--graph", graph_path]) == 0
    # Every verdict is the one that the whole graph's counts give.
    want = []
    for path in ledgers:
        full, _ = compile_dag(shared)
        want.append(validate(path, full,
                             public_counts=full.public_counts()).to_json_obj())
        with open(path + ".verdict.json", encoding="utf-8") as fh:
            assert json.load(fh) == want[-1]
    assert any(v["tightened"] for v in want)
    # The audit built exactly what the replays build, a share of the graph.
    replayed, _ = compile_dag(shared)
    for path in ledgers:
        validate(path, replayed)
    assert set(graphs[0].nodes) == set(replayed.nodes)
    built = len(replayed.nodes)
    assert built < len(replayed.unfold())


def test_python_m_racecert_validates_the_golden_ledgers(tmp_path):
    data = os.path.join(os.path.dirname(__file__), "data")
    copies = [shutil.copy(os.path.join(data, name), tmp_path / name)
              for name in ("toy-exact.ndjson", "toy-surrogate.ndjson")]
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "racecert", "validate", *map(str, copies)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    exact, surrogate = proc.stdout.splitlines()
    assert "replay_ok=True" in exact and "tightened=0" in exact
    assert "replay_ok=True" in surrogate and "tightened=4" in surrogate


def test_validate_has_no_counts_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--counts" not in out and "--recompute-metrics" not in out


def test_tightness_slack_signs(tmp_path):
    out = str(tmp_path / "tight")
    assert main(["tightness", "--suite", "A", "--depth", "2", "--seeds", "2",
                 "--out", out]) == 0
    with open(os.path.join(out, "tightness.csv"), encoding="utf-8") as fh:
        rows = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    for row in csv.DictReader(rows):
        assert float(row["key_minus_rsm"]) >= -1e-9
        assert float(row["stop_slack"]) <= 1e-9


def test_tightness_runs_exact_only(tmp_path, capsys):
    out = tmp_path / "tight"
    with pytest.raises(SystemExit) as exc:
        main(["tightness", "--modes", "Exact", "--out", str(out)])
    assert exc.value.code == 2
    assert "--modes" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(SystemExit):
        main(["tightness", "--help"])
    assert "--modes" not in capsys.readouterr().out
    assert main(["tightness", "--suite", "A", "--seeds", "5",
                 "--out", str(out)]) == 0
    with open(out / "tightness.csv", encoding="utf-8") as fh:
        rows = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    body = list(csv.DictReader(rows))
    assert body and {row["mode"] for row in body} == {"Exact"}
    # The RSM comes from the Exact race, which Exact keys bound.
    assert all(float(row["key_minus_rsm"]) >= -1e-9 for row in body)


def test_nub_sweep_monotone(tmp_path):
    out = str(tmp_path / "sweep")
    assert main(["nub-sweep", "--factors", "1,2", "--seeds", "2",
                 "--out", out]) == 0
    with open(os.path.join(out, "nub_sweep.csv"), encoding="utf-8") as fh:
        rows = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    body = list(csv.DictReader(rows))
    by_factor = {}
    for row in body:
        by_factor.setdefault(float(row["n_ub_factor"]), []).append(row)
    assert set(by_factor) == {1.0, 2.0}
    # Factor 1 leaves nothing to tighten; factor 2 yields kappa = -log 2.
    for row in by_factor[1.0]:
        assert abs(float(row["mean_kappa"])) < 1e-9
    for row in by_factor[2.0]:
        assert float(row["mean_kappa"]) < 0


def test_find_adversarial(capsys):
    assert main(["find-adversarial", "--max-seeds", "5"]) == 0
    assert "adversarial seed: 1" in capsys.readouterr().out


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def _write_json(tmp_path, name, obj):
    path = str(tmp_path / name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


_ENTRY = {"model_id": "m", "adapter_id": "a", "dp_cert_id": "d",
          "eps_train": 2.0, "delta_train": 1e-6, "price_m": 1, "latency_m": 10}


def _suite_with_budget(monkeypatch, tmp_path, out, **state):
    """``suite --catalog`` argv, its budget state built with ``state``."""
    monkeypatch.setattr(cli, "BudgetState",
                        lambda **kw: BudgetState(**{**kw, **state}))
    return ["suite", "--catalog", _write_json(tmp_path, "k.json", [_ENTRY]),
            "--depth", "2", "--seeds", "1", "--out", out]


@pytest.mark.parametrize("case", [
    "graph-not-an-object", "catalog-entry-incomplete", "catalog-empty",
    "catalog-price-fractional", "catalog-eps-not-a-number",
    "catalog-model-id-not-a-string", "catalog-eps-train-past-q32-32",
    "catalog-slack-fraction", "budget-price-max-past-u64",
    "budget-price-max-negative", "budget-slo-past-u32",
    "ledger-missing", "depth-negative", "graph-negative-cost",
    "nub-factor-below-1", "tau-zero"])
def test_input_error_is_one_line_and_exit_2(tmp_path, capsys, monkeypatch,
                                           toy_ledgers, case):
    out = str(tmp_path / "out")
    argv = {
        "graph-not-an-object": lambda: [
            "suite", "--graph", _write_json(tmp_path, "h.json", [1, 2]),
            "--out", out],
        "catalog-entry-incomplete": lambda: [
            "suite", "--catalog",
            _write_json(tmp_path, "k.json", [{"model_id": 1}]),
            "--out", out],
        "catalog-empty": lambda: [
            "suite", "--catalog", _write_json(tmp_path, "k.json", []),
            "--out", out],
        "catalog-price-fractional": lambda: [
            "suite", "--catalog", _write_json(tmp_path, "k.json", [
                {**_ENTRY, "price_m": 1.5}]), "--out", out],
        "catalog-eps-not-a-number": lambda: [
            "suite", "--catalog", _write_json(tmp_path, "k.json", [
                {**_ENTRY, "eps_train": "x"}]), "--out", out],
        # Each setting below used to write a ledger that its own validate
        # rejects, or to crash mid-run; none can be logged as declared.
        "catalog-model-id-not-a-string": lambda: [
            "suite", "--catalog", _write_json(tmp_path, "k.json", [
                {**_ENTRY, "model_id": 7}]), "--out", out],
        "catalog-eps-train-past-q32-32": lambda: [
            "suite", "--catalog", _write_json(tmp_path, "k.json", [
                {**_ENTRY, "eps_train": 1e300}]), "--out", out],
        "catalog-slack-fraction": lambda: [  # a deleted estimator
            "suite", "--catalog", _write_json(tmp_path, "k.json", [
                {**_ENTRY, "dkey_estimator": "slack_fraction"}]), "--out", out],
        "budget-price-max-past-u64": lambda: _suite_with_budget(
            monkeypatch, tmp_path, out, price_max=2**70),
        "budget-price-max-negative": lambda: _suite_with_budget(
            monkeypatch, tmp_path, out, price_max=-1),
        "budget-slo-past-u32": lambda: _suite_with_budget(
            monkeypatch, tmp_path, out, slo_ms=2**40),
        "ledger-missing": lambda: [
            "validate", str(tmp_path / "missing.ndjson")],
        "depth-negative": lambda: [
            "suite", "--depth", "-1", "--seeds", "1", "--out", out],
        "nub-factor-below-1": lambda: [
            "suite", "--modes", "Surrogate", "--nub-factor", "0.5",
            "--seeds", "1", "--out", out],
        "tau-zero": lambda: [
            "suite", "--modes", "Fallback", "--tau", "0", "--seeds", "1",
            "--out", out],
        "graph-negative-cost": lambda: [  # refused before the ledger is read
            "validate", shutil.copy(toy_ledgers / "toy-exact.ndjson", tmp_path),
            "--graph",
            _write_json(tmp_path, "neg.json", {
                "root": "r",
                "caps": {"max_depth": 2, "c_s_max": 1.0, "c_s_min": 1.0},
                "nodes": [{"id": "r", "state": "r"},
                          {"id": "a", "state": "a", "leaf": True,
                           "delta_cost": -5.0}],
                "edges": [{"from": "r", "to": "a", "order": 0}]})],
    }[case]()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"racecert {argv[0]}: ")
    assert not os.path.exists(out)  # refused before writing anything


def test_fixed_table_without_a_graph_state_is_one_line_and_exit_2(tmp_path,
                                                                   capsys):
    # The toy suite's FIXED M_tau table names only the toy graph's states.
    graph = str(tmp_path / "a.json")
    suite_a(2, 3, 0).save(graph)
    assert main(["suite", "--suite", "toy", "--graph", graph, "--seeds", "1",
                 "--modes", "Exact", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "racecert suite: FIXED M_tau table has no state 'n'\n")


def test_nub_sweep_checks_every_factor(tmp_path, capsys):
    # Each factor builds its own config, so 0.5 is refused before a run
    # logs a bound below a count.
    assert main(["nub-sweep", "--factors", "1,0.5", "--seeds", "1",
                 "--depth", "2", "--out", str(tmp_path / "out")]) == 2
    assert "n_ub_factor must be finite and >= 1" in capsys.readouterr().err


def test_suite_modes_do_not_share_budget_spend(tmp_path):
    entry = {"adapter_id": "a", "dp_cert_id": "d", "eps_train": 2.0,
             "delta_train": 1e-6, "latency_m": 10}
    catalog = _write_json(tmp_path, "k.json", [
        {**entry, "model_id": "m-a", "price_m": 5},
        {**entry, "model_id": "m-b", "price_m": 1}])
    out = str(tmp_path / "suite")
    assert main(["suite", "--seeds", "1", "--depth", "2",
                 "--modes", "Exact,Surrogate", "--catalog", catalog,
                 "--out", out]) == 0
    ledger_dir = os.path.join(out, "ledgers")
    ledgers = [os.path.join(ledger_dir, f"A-0-{mode}.ndjson")
               for mode in ("Exact", "Surrogate")]
    for path in ledgers:
        first = next(rec for rec in Ledger.parse(path).records
                     if rec.get("event") == "budget")
        # All-zero ratios tie, so m-a is picked first: one charge of 5.
        assert (first["model_id"], first["price_spent"]) == ("m-a", 5)
    assert main(["validate", *ledgers, "--graph",
                 os.path.join(ledger_dir, "A-0.graph.json")]) == 0


def test_float_priced_catalog_and_huge_nub_factor_validate(tmp_path):
    # A price of 1.0 is stored as the int 1, a factor of 1e18 logs Nub at
    # most 2**64 - 1, and the private entry (picked first on the model_id
    # tie) logs alpha_selected as Q32.32, so every ledger the suite writes
    # validates.
    catalog = _write_json(tmp_path, "k.json", [
        {**_ENTRY, "price_m": 1.0, "latency_m": 10.0},
        {**_ENTRY, "model_id": "dp", "eps_m": 0.1}])
    out = str(tmp_path / "suite")
    assert main(["suite", "--suite", "A", "--seeds", "2",
                 "--modes", "Exact,Surrogate,Fallback", "--catalog", catalog,
                 "--nub-factor", "1e18", "--out", out]) == 0
    ledger_dir = os.path.join(out, "ledgers")
    for seed in range(2):
        ledgers = [os.path.join(ledger_dir, f"A-{seed}-{mode}.ndjson")
                   for mode in ("Exact", "Surrogate", "Fallback")]
        for path in ledgers:
            assert any("alpha_selected" in rec and "eps_delta.eps" in rec
                       for rec in Ledger.parse(path).records)
        assert main(["validate", *ledgers, "--graph",
                     os.path.join(ledger_dir, f"A-{seed}.graph.json")]) == 0


@pytest.mark.parametrize("argv", [
    ["suite", "--modes", "Bogus", "--seeds", "1"],
    ["suite", "--modes", "exact", "--seeds", "1"],
    ["suite", "--modes", "Exact,Bogus", "--seeds", "1"],
])
def test_unknown_mode_is_refused_before_any_file(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert "unknown mode" in capsys.readouterr().err
    assert not out.exists()

