"""
Budget controller as pure post-processing
=========================================

The per-request controller picks a model per internal expansion (best
estimated key-slack reduction per weighted cost), tracks spend against
price/latency/privacy caps, and downgrades the run to the no-certificate
fallback when nothing in the catalog is feasible.  Crucially it never
touches the race: key streams with and without the controller are
bit-identical.
"""

from racecert.budget import (BudgetRuntime, BudgetState, default_catalog,
                             rdp_to_eps_delta)
from racecert.generators import TOY_SCRIPTED, toy_graph, toy_mtau
from racecert.prefix_dag import compile_dag
from racecert.search import Mode, RunConfig, run

graph, cert = compile_dag(toy_graph())
assert cert.ok

print("catalog:")
for entry in default_catalog():
    print(f"  {entry.model_id:8} price={entry.price_m:3d}c "
          f"p95={entry.latency_m:3d}ms eps_train={entry.eps_train}")


def toy_cfg(**kw):
    return RunConfig(mtau=toy_mtau(), scripted_uniforms=dict(TOY_SCRIPTED),
                     seed=7, **kw)


def key_stream(result):
    return [(r["ctx_digest"][:8], r["key_raw"]) for r in result.ledger.records
            if r.get("event") == "push"]


# A healthy budget: every internal expansion logs the selected adapter and
# the recomputed router RDP epsilon.
state = BudgetState(eps_max=10.0, delta=1e-6, price_max=100, slo_ms=1000)
budgeted = run(graph, Mode.EXACT, toy_cfg(
    budget=BudgetRuntime(default_catalog(), state)))
print("\nwith controller:")
for rec in budgeted.ledger.records:
    if rec.get("event") == "budget":
        print(f"  {rec['budget_event']:9} model={rec.get('model_id')} "
              f"spent={rec.get('price_spent')}c")
print(f"  claim = {budgeted.claim_type.value}")

# Non-interference: the same run without any controller pushes the exact
# same keys in the exact same order.
plain = run(graph, Mode.EXACT, toy_cfg())
print(f"\nkey streams identical without controller: "
      f"{key_stream(plain) == key_stream(budgeted)}")

# Exhaustion: a zero price cap makes every entry infeasible on the first
# expansion; the engine logs BudgetFail and finishes heuristically.
broke_state = BudgetState(eps_max=10.0, delta=1e-6, price_max=0, slo_ms=1000)
broke = run(graph, Mode.EXACT, toy_cfg(
    budget=BudgetRuntime(default_catalog(), broke_state)))
print(f"\nzero price cap: guards={sorted(set(broke.guards_seen))} "
      f"final mode={broke.mode_final.value} claim={broke.claim_type.value}")

# The accountant's conversion, standalone: one RDP atom at alpha=2.
eps = rdp_to_eps_delta([(2.0, 1.0)], 1e-6)
print(f"\nRDP->(eps, delta): alpha=2, eps_alpha=1.0, delta=1e-6 "
      f"-> eps = {eps:.4f}")
