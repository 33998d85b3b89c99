"""
Surrogate counts and validator tightening
=========================================

When exact suffix counts are unavailable the engine runs with upper bounds
N_ub >= N.  Keys become conservative (the search does more work), but the
ledger still contains everything a validator needs to *tighten* each key by
kappa = log(N / N_ub) <= 0 once the exact counts are published.
"""

import os
import statistics
import tempfile

from racecert import fixedpoint as fp
from racecert.bounds import MtauConfig, kappa
from racecert.generators import suite_b
from racecert.prefix_dag import compile_dag
from racecert.search import Mode, RunConfig, run
from racecert.validator import validate

graph, cert = compile_dag(suite_b(layers=3, width=3, seed=0))
assert cert.ok
print(f"suite-B graph: {len(graph.unfold())} contexts, "
      f"{sum(n.is_leaf for n in graph.walk())} leaves")

# Sweep the inflation factor: N_ub = ceil(factor * N).
print(f"\n{'factor':>6} {'expansions':>10} {'mean kappa':>11} {'tightened':>9}")
for factor in (1.0, 1.5, 2.0, 4.0):
    expansions, kappas, tightened = [], [], 0
    for seed in range(5):
        cfg = RunConfig(mtau=MtauConfig(), seed=seed, n_ub_factor=factor)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.ndjson")
            result = run(graph, Mode.SURROGATE, cfg, ledger_path=path)
            expansions.append(result.expansions)
            # The validator recomputes kappa per logged (U, N_ub) pair and
            # reports the bit-exact tightened keys.
            verdict = validate(path, graph,
                               public_counts=graph.public_counts())
            assert verdict.ok
            tightened += len(verdict.tightened)
            kappas.extend(fp.decode_q32_32(k) for _, k, _ in verdict.tightened)
    mean_kappa = statistics.fmean(kappas) if kappas else 0.0
    print(f"{factor:6.1f} {statistics.fmean(expansions):10.2f} "
          f"{mean_kappa:11.6f} {tightened:9d}")

# The closed form behind the sweep: doubling every count costs exactly
# log 2 of key slack, which the validator recovers.
print(f"\nkappa(3, 6) = {kappa(3, 6):+.6f}  (= -log 2)")
print("factor 1.0 leaves nothing to tighten; larger factors trade extra")
print("expansions for key slack that the validator reclaims exactly.")
