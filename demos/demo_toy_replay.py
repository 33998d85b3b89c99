"""
Walking the 4-leaf fixture by hand
==================================

A single Exact-mode run on the small shared DAG (root -> u1 with three
leaves, u2 with one), with every uniform scripted so the numbers can be
checked on paper.  The run writes an NDJSON ledger, and the independent
validator replays it from the public graph alone.
"""

import math
import os
import tempfile

from racecert import fixedpoint as fp
from racecert.generators import TOY_SCRIPTED, toy_graph, toy_mtau
from racecert.prefix_dag import compile_dag
from racecert.search import Mode, RunConfig, run
from racecert.validator import validate

# Compile the shared DAG into a context-indexed prefix tree.  Compile
# counts the leaves below each shared node (rejecting cycles and over-deep
# paths) and builds the root context only; every other context is built,
# with its digest, when the run first reaches it.
graph, cert = compile_dag(toy_graph())
print(f"compiled: {cert.total_leaves} leaves, {len(graph.nodes)} context "
      f"built, certificate ok={cert.ok}")


def label(digest_hex: str) -> str:
    return graph.node(bytes.fromhex(digest_hex)).state_label


# The race at the root: four leaves, so the first arrival is Exp(4).
# With the scripted U_r = 0.20 the quantile is t(r) = -log(0.8)/4.
t_root = -math.log1p(-0.20) / 4
print(f"expected t(r) = {t_root:.6f}  (paper-checkable closed form)")

cfg = RunConfig(mtau=toy_mtau(), scripted_uniforms=dict(TOY_SCRIPTED),
                seed=7)
with tempfile.TemporaryDirectory() as tmp:
    ledger_path = os.path.join(tmp, "toy-exact.ndjson")
    result = run(graph, Mode.EXACT, cfg, ledger_path=ledger_path)

    # The pop trace: the engine expands the frontier node with the largest
    # key M_tau(v) - log t(v) and stops once the incumbent dominates.
    print("\npop trace (key in score units):")
    for rec in result.ledger.records:
        if rec.get("event") != "pop":
            continue
        key = fp.decode_q64_64(rec["key_raw"])
        print(f"  {label(rec['ctx_digest']):>3}  key = {key:9.6f}")

    print(f"\nincumbent  = {result.incumbent:.6f} "
          f"(leaf {label(result.incumbent_leaf)})")
    print(f"expansions = {result.expansions}")
    print(f"contexts   = {len(graph.nodes)} built of {len(graph.unfold())}")
    print(f"claim      = {result.claim_type.value}")

    # Third-party check: replay every draw from the ledger, re-derive every
    # key, and confirm the stop rule held under the same realized race.
    verdict = validate(ledger_path, graph)
    print(f"\nvalidator: replay_ok={verdict.replay_ok} "
          f"stop_rule_ok={verdict.stop_rule_ok} ok={verdict.ok}")
