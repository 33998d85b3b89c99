"""Batch experiment driver.

Subcommands reproduce the desk-scale experiments: suite runs with per-run
ledgers and an aggregate CSV, tightness and N_ub sweeps, ledger validation,
the toy golden replay, and the adversarial-seed scan.  ``suite``,
``tightness`` and ``nub-sweep`` take their graphs from one seed loop
(``_seeds``: a ``--graph`` file or a ``SUITES`` family, compiled) and write
their CSV through one writer; ``tightness`` runs Exact only, the one mode
whose keys bound the realized race it is measured against.  CSV aggregates
use normal-approximation 95% confidence intervals (stated in the CSV
metadata).  ``suite --modes`` is checked before anything runs, and an
input error (a bad file, graph or catalog) ends every subcommand with one
stderr line and exit status 2.  No interactive UI: everything is batch.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import statistics
import sys
import time
from dataclasses import replace
from typing import Sequence

from . import fixedpoint as fp
from .baselines import beam_k, dist_level, greedy_by_bound
from .bounds import MtauConfig, kappa
from .budget import BudgetRuntime, BudgetState, load_catalog
from .generators import (
    TOY_SCRIPTED,
    adversarial_graph,
    pipeline_mock,
    suite_a,
    suite_b,
    toy_graph,
    toy_mtau,
)
from .prefix_dag import SharedDag, compile_dag
from .race import RngStream, stream_lookup
from .reconstruct import (
    argmax_leaf,
    exact_leaf_values,
    exact_race,
    realized_suffix_max,
)
from .search import Mode, RunConfig, run
from .validator import validate

CI_NOTE = "# ci95: normal approximation, 1.96*sd/sqrt(n)"

# Graph of one seed, by --suite.
SUITES = {
    "A": lambda args, seed: suite_a(args.depth, args.branching, seed),
    "B": lambda args, seed: suite_b(seed=seed),
    "adversarial": lambda args, seed: adversarial_graph(),
    "toy": lambda args, seed: toy_graph(),
    "pipeline": lambda args, seed: pipeline_mock(),
}

# Non-certified comparators `suite` runs by name: (graph, mtau, values).
BASELINES = {
    "greedy": greedy_by_bound,
    "beam3": lambda graph, mtau_cfg, values: beam_k(graph, 3, mtau_cfg, values),
    "dist-level": dist_level,
}


def _mode_list(allowed: list[str]):
    """argparse type: a comma-separated list drawn from ``allowed``."""
    def parse(text: str) -> list[str]:
        modes = text.split(",")
        unknown = [m for m in modes if m not in allowed]
        if unknown:
            raise argparse.ArgumentTypeError(
                f"unknown mode {unknown[0]!r} (choose from {', '.join(allowed)})")
        return modes
    return parse


def _mean_ci(values: list[float]) -> tuple[float, float]:
    if not values:
        return float("nan"), float("nan")
    mean = statistics.fmean(values)
    if len(values) < 2:
        return mean, 0.0
    sd = statistics.stdev(values)
    return mean, 1.96 * sd / math.sqrt(len(values))


def _run_config(args, seed: int, budget: BudgetRuntime | None) -> RunConfig:
    toy = args.suite == "toy"
    return RunConfig(
        mtau=toy_mtau() if toy else MtauConfig(),
        seed=seed,
        n_ub_factor=args.nub_factor,
        salt=bytes.fromhex(args.salt),
        tau=args.tau,
        scripted_uniforms=dict(TOY_SCRIPTED) if toy else {},
        budget=budget,
    )


def _seeds(args):
    """Yield ``(seed, shared, graph, cfg)`` for each seed of the run: the
    ``--graph`` file or the suite's graph, compiled, and its run config.
    Every run charges its own copy of the one ``--catalog`` budget."""
    budget = None
    if args.catalog:
        budget = BudgetRuntime(
            load_catalog(args.catalog),
            BudgetState(eps_max=10.0, delta=1e-6, price_max=10_000,
                        slo_ms=60_000))
    for seed in range(args.seed, args.seed + args.seeds):
        shared = (SharedDag.load(args.graph) if args.graph
                  else SUITES[args.suite](args, seed))
        graph, _ = compile_dag(shared)
        yield seed, shared, graph, _run_config(args, seed, budget)


def _realized_leaf_values(graph, seed: int, cfg: RunConfig) -> dict[bytes, float]:
    """Every leaf's value under the seed's realized Exact race."""
    lookup = stream_lookup(RngStream(seed), cfg.scripted_uniforms, graph)
    return exact_leaf_values(graph, exact_race(graph, lookup))


def _write_csv(path: str, rows: list[dict], head: Sequence[str],
               tail: Sequence[str] = ()) -> None:
    """Comment lines ``head``, the rows under a header, then ``tail``."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in head)
        if rows:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        fh.writelines(line + "\n" for line in tail)
    print(f"wrote {path} ({len(rows)} rows)")


def cmd_suite(args) -> int:
    ledger_dir = os.path.join(args.out, "ledgers")
    rows = []
    for seed, shared, graph, cfg in _seeds(args):
        # The graph travels with its ledgers: validate needs it (--graph).
        os.makedirs(ledger_dir, exist_ok=True)
        shared.save(os.path.join(ledger_dir, f"{args.suite}-{seed}.graph.json"))
        values = _realized_leaf_values(graph, seed, cfg)
        winner, _ = argmax_leaf(values)
        for mode in args.modes:
            started = time.perf_counter()
            if mode in BASELINES:
                base = BASELINES[mode](graph, cfg.mtau, values)
                expansions, slack, pruned = base.expansions, "", base.pruned_winner
            else:
                path = os.path.join(
                    ledger_dir, f"{args.suite}-{seed}-{mode}.ndjson")
                result = run(graph, Mode(mode), cfg, ledger_path=path)
                # Only Exact shares the oracle's realized race; the other
                # modes are certified (or not) for their own randomness.
                pruned = (result.incumbent_leaf != winner.hex()
                          if mode == "Exact" else "")
                expansions, slack = result.expansions, -result.stop_slack
            wall_ms = 1000.0 * (time.perf_counter() - started)
            rows.append({"suite": args.suite, "seed": seed, "mode": mode,
                         "expansions": expansions,
                         "wall_ms": f"{wall_ms:.3f}",
                         "stop_slack": slack, "pruned_winner": pruned})
    aggregates = []
    for mode in args.modes:
        vals = [float(r["expansions"]) for r in rows if r["mode"] == mode]
        mean, ci = _mean_ci(vals)
        aggregates.append(f"# aggregate expansions {mode}: "
                          f"mean={mean:.4f} ci95={ci:.4f} n={len(vals)}")
    _write_csv(os.path.join(args.out, "suite.csv"),
               sorted(rows, key=lambda r: (r["seed"], r["mode"])),
               [CI_NOTE, "# beam scoring: deterministic bound M_tau"],
               aggregates)
    return 0


def cmd_tightness(args) -> int:
    """Each Exact frontier key at stop against its realized suffix max: the
    RSM comes from the Exact race, which only Exact keys bound."""
    rows = []
    for seed, _, graph, cfg in _seeds(args):
        rsm = realized_suffix_max(graph, _realized_leaf_values(graph, seed, cfg))
        result = run(graph, Mode.EXACT, cfg)
        for digest_hex, key_q in result.frontier_at_stop:
            key = fp.decode_q64_64(key_q)
            node_rsm = rsm[bytes.fromhex(digest_hex)]
            rows.append({
                "suite": args.suite, "seed": seed, "mode": Mode.EXACT.value,
                "ctx_digest": digest_hex[:16],
                "key": f"{key:.9f}", "rsm": f"{node_rsm:.9f}",
                "key_minus_rsm": f"{key - node_rsm:.9f}",
                "stop_slack": f"{key - result.incumbent:.9f}",
            })
    _write_csv(os.path.join(args.out, "tightness.csv"), rows, [
        "# stop_slack = key - incumbent; certified stops imply <= 0",
        "# key_minus_rsm >= 0 by admissibility (tightness gap)"])
    return 0


def cmd_nub_sweep(args) -> int:
    rows = []
    for factor in [float(f) for f in args.factors.split(",")]:
        expansions, kappas = [], []
        for _, _, graph, cfg in _seeds(args):
            result = run(graph, Mode.SURROGATE, replace(cfg, n_ub_factor=factor))
            expansions.append(result.expansions)
            for rec in result.ledger.records:
                if rec.get("event") in ("push", "pop") and "Nub" in rec:
                    digest = bytes.fromhex(rec["ctx_digest"])
                    kappas.append(
                        kappa(graph.node(digest).n_exact, rec["Nub"]))
        mean_exp, ci_exp = _mean_ci([float(e) for e in expansions])
        frac_strict = (sum(1 for k in kappas if k < 0) / len(kappas)
                       if kappas else 0.0)
        rows.append({
            "n_ub_factor": factor,
            "expansions_mean": f"{mean_exp:.4f}",
            "expansions_ci95": f"{ci_exp:.4f}",
            "frac_strict_kappa": f"{frac_strict:.4f}",
            "mean_kappa": f"{statistics.fmean(kappas):.6f}" if kappas else "",
        })
    _write_csv(os.path.join(args.out, "nub_sweep.csv"), rows, [CI_NOTE])
    return 0


def cmd_validate(args) -> int:
    graph, _ = compile_dag(
        SharedDag.load(args.graph) if args.graph else toy_graph())
    all_ok = True
    for path in args.ledgers:
        started = time.perf_counter()
        verdict = validate(path, graph)
        elapsed = 1000.0 * (time.perf_counter() - started)
        verdict.save(path + ".verdict.json")
        print(f"{path}: replay_ok={verdict.replay_ok} "
              f"stop_rule_ok={verdict.stop_rule_ok} "
              f"budget_ok={verdict.budget_ok} "
              f"tightened={len(verdict.tightened)} "
              f"validate_ms={elapsed:.2f}")
        for index, reason in verdict.failures[:10]:
            print(f"  record {index}: {reason}")
        all_ok = all_ok and verdict.ok
    return 0 if all_ok else 1


def cmd_toy_replay(args) -> int:
    """Write the golden toy ledgers and validate each; exit 1 if one fails."""
    os.makedirs(args.out, exist_ok=True)
    graph, _ = compile_dag(toy_graph())
    all_ok = True
    for mode, factor in ((Mode.EXACT, 1.0), (Mode.SURROGATE, 1.5)):
        cfg = RunConfig(mtau=toy_mtau(), scripted_uniforms=dict(TOY_SCRIPTED),
                        seed=args.seed, n_ub_factor=factor)
        path = os.path.join(args.out, f"toy-{mode.value.lower()}.ndjson")
        result = run(graph, mode, cfg, ledger_path=path)
        root_key = fp.decode_q64_64(result.ledger.records[0]["key_raw"])
        verdict = validate(path, graph)
        print(f"{mode.value}: incumbent={result.incumbent:.6f} "
              f"root key={root_key:.6f} expansions={result.expansions} "
              f"claim={result.claim_type.value}")
        print(f"  validator: replay_ok={verdict.replay_ok} "
              f"stop_rule_ok={verdict.stop_rule_ok} ok={verdict.ok}")
        all_ok = all_ok and verdict.ok
    return 0 if all_ok else 1


def cmd_find_adversarial(args) -> int:
    """Scan race seeds for one where dist-level pruning discards the
    realized winner on the adversarial fixture while Exact keeps it."""
    graph, _ = compile_dag(adversarial_graph())
    for seed in range(args.max_seeds):
        cfg = RunConfig(mtau=MtauConfig(), seed=seed)  # R3: exact score-to-go
        values = _realized_leaf_values(graph, seed, cfg)
        winner, _ = argmax_leaf(values)
        if (dist_level(graph, cfg.mtau, values).pruned_winner
                and run(graph, Mode.EXACT, cfg).incumbent_leaf == winner.hex()):
            print(f"adversarial seed: {seed}")
            return 0
    print("no adversarial seed found in range")
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="racecert",
        description="Run-wise-certified router experiments and validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--suite", default="A", choices=list(SUITES))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--seeds", type=int, default=5)
        p.add_argument("--depth", type=int, default=3)
        p.add_argument("--branching", type=int, default=3)
        p.add_argument("--nub-factor", dest="nub_factor", type=float,
                       default=1.5)
        p.add_argument("--out", default="out")
        p.add_argument("--salt", default="00" * 8)
        p.add_argument("--tau", type=float, default=1.0)
        p.add_argument("--graph", default=None,
                       help="run on a serialized graph instead of the suite")
        p.add_argument("--catalog", default=None,
                       help="model catalog JSON; enables the budget controller")

    p_suite = sub.add_parser("suite", help="run a suite, emit ledgers + CSV")
    add_common(p_suite)
    p_suite.add_argument("--modes", default="Exact,Surrogate",
                         type=_mode_list([m.value for m in Mode] + list(BASELINES)))
    p_suite.set_defaults(func=cmd_suite)

    p_tight = sub.add_parser("tightness", help="per-frontier slack CSV (Exact)")
    add_common(p_tight)
    p_tight.set_defaults(func=cmd_tightness)

    p_sweep = sub.add_parser("nub-sweep", help="surrogate N_ub factor sweep")
    add_common(p_sweep)
    p_sweep.add_argument("--factors", default="1,1.5,2,4")
    p_sweep.set_defaults(func=cmd_nub_sweep)

    p_val = sub.add_parser("validate", help="validate ledgers")
    p_val.add_argument("ledgers", nargs="+")
    p_val.add_argument("--graph", default=None)
    p_val.set_defaults(func=cmd_validate)

    p_toy = sub.add_parser("toy-replay", help="golden toy fixture replay")
    p_toy.add_argument("--out", default="out")
    p_toy.add_argument("--seed", type=int, default=7)
    p_toy.set_defaults(func=cmd_toy_replay)

    p_adv = sub.add_parser("find-adversarial",
                           help="scan race seeds for the adversarial split")
    p_adv.add_argument("--max-seeds", type=int, default=2000)
    p_adv.set_defaults(func=cmd_find_adversarial)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # an input the command cannot use
        print(f"racecert {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
