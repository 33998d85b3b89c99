"""Independent replay validator.

Consumes only public artifacts — the ledger file and the graph spec — and
re-derives everything else.  Replay reruns the search from the header and
the logged draws and compares the header it rebuilds with the logged one
as JSON text.  Then one pass over the records compares each whole with its
replay (keys, draws, and budget records recomputed from the header's
catalog and initial state), checks the stop inequality, budget
inequalities and downgrade licensing, and tightens Surrogate keys by kappa
with the exact counts of the contexts the replay built (or an explicit
public-counts map).  It tracks the mode from the header and the guards, as
it tracks the frontier from pushes and pops.  Semantic problems become
verdict failures with record indices, in record order, and a verdict is
its failures; only I/O errors raise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

from . import fixedpoint as fp
from .ledger import Ledger, MalformedLineError, _dump
from .prefix_dag import PrefixDag, SharedDag, compile_dag
from .race import RawLookup, arrival
from .search import RunConfig, run

RDP_VARIANT = "classic"


@dataclass
class Verdict:
    # The last logged router_rdp_eps: the ledger carries no eps_m, so the
    # accountant's epsilon is reported, not recomputed.
    rdp_logged: float = 0.0
    rdp_variant: str = RDP_VARIANT
    tightened: list[tuple[int, int, int]] = field(default_factory=list)
    # (check, record index, reason) of every failure, in the order found; a
    # check is "parse", "replay", "stop_rule", "tightening" or "budget".
    found: list[tuple[str, int, str]] = field(default_factory=list)

    def fail(self, check: str, index: int, reason: str) -> None:
        self.found.append((check, index, reason))

    def _passed(self, *checks: str) -> bool:
        return all(check not in checks for check, _, _ in self.found)

    # Read-only, from the failures: a ledger that does not parse neither
    # replays nor passes the stop rule, and tightening sets no flag.
    replay_ok = property(lambda self: self._passed("parse", "replay"))
    stop_rule_ok = property(lambda self: self._passed("parse", "stop_rule"))
    budget_ok = property(lambda self: self._passed("budget"))
    ok = property(lambda self: not self.found)
    failures = property(lambda self: [(i, r) for _, i, r in self.found])

    def to_json_obj(self) -> dict:
        return {
            "replay_ok": self.replay_ok,
            "stop_rule_ok": self.stop_rule_ok,
            "budget_ok": self.budget_ok,
            "ok": self.ok,
            "rdp_logged": self.rdp_logged,
            "rdp_variant": self.rdp_variant,
            "tightened": [
                {"index": i, "kappa": str(k), "key_tight": str(kt)}
                for i, k, kt in self.tightened
            ],
            "failures": [{"index": i, "reason": r} for i, r in self.failures],
        }

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_obj(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _replay_inputs(records) -> tuple[RawLookup, dict[bytes, int] | None]:
    """What the replay engine reads from the ledger, by one rule: the first
    ``U``, ``W`` and ``Nub`` logged per context, so a later copy that
    differs is a replay mismatch.  Returns the draw lookup, where a draw
    the ledger never logged aborts the replay, and the ``Nub`` map (None
    without any)."""
    logged: dict[tuple[str, str], int] = {}
    for rec in records:
        for want in ("U", "W", "Nub"):
            if want in rec and "ctx_digest" in rec:
                logged.setdefault((rec["ctx_digest"], want), rec[want])

    def lookup(digest: bytes, purpose: str) -> int:
        want = "W" if purpose == "winner" else "U"
        try:
            return logged[(digest.hex(), want)]
        except KeyError:
            raise LookupError(
                f"no logged {want} for node {digest.hex()[:16]}…") from None

    n_ub = {bytes.fromhex(d): n for (d, want), n in logged.items()
            if want == "Nub"}
    return lookup, n_ub or None


def _differing_fields(orig: dict, new: dict) -> list[str]:
    """The keys only one side has, else the keys whose values dump to
    different JSON."""
    return (sorted(set(orig) ^ set(new))
            or [k for k in orig if _dump(orig[k]) != _dump(new[k])])


def _replay(graph: PrefixDag, ledger: Ledger, verdict: Verdict) -> list[dict]:
    """The records of the run the header describes, or none if it describes none."""
    try:
        mode, cfg = RunConfig.from_header(ledger.header)
        lookup, n_ub_map = _replay_inputs(ledger.records)
        result = run(graph, mode, replace(cfg, n_ub_map=n_ub_map),
                     uniform_provider=lookup)
    except Exception as exc:  # semantic: the ledger does not describe a run
        verdict.fail("replay", 0, f"replay aborted: {exc}")
        return []
    # The replay's header is ``header_obj`` of the settings read back,
    # compared as JSON text: ``1 == 1.0 == True`` but their bytes differ.
    if _dump(result.ledger.header) != _dump(ledger.header):
        verdict.fail("replay", 0, "header mismatch in fields "
                     f"{_differing_fields(ledger.header, result.ledger.header)}")
    return result.ledger.records


def _audit(graph: PrefixDag, ledger: Ledger, replayed: list[dict],
           counts: dict[str, int] | None, verdict: Verdict) -> None:
    """One pass: each record is compared with its replay and advances the
    stop-rule, tightening and budget checks, so failures come in record order."""
    records = ledger.records
    mode = ledger.header.get("mode")  # the engine's, switched by guards
    frontier: dict[str, int] = {}  # the stop rule's, from pushes and pops
    incumbent = fp.NEG_INF_Q64_64
    saw_stop = False
    price_prev = 0
    for i, rec in enumerate(records):
        if i < len(replayed) and rec != replayed[i]:
            verdict.fail("replay", i, "replay mismatch in fields "
                         f"{_differing_fields(rec, replayed[i])}")
        event = rec.get("event")
        if event == "push":
            frontier[rec["ctx_digest"]] = rec["key_raw"]
        elif event == "pop":
            frontier.pop(rec["ctx_digest"], None)
        elif event == "leaf_eval":
            incumbent = rec["incumbent"]
        elif event == "stop":
            saw_stop = True
            if rec.get("incumbent") != incumbent:
                verdict.fail("stop_rule", i,
                             "stop incumbent does not match last leaf_eval")
            top = max(frontier.values(), default=None)
            if rec.get("key_raw") != top:
                verdict.fail("stop_rule", i,
                             "stop frontier max does not match pushes/pops")
            if rec.get("claim_type") != "NoCert" and top is not None and top > incumbent:
                verdict.fail("stop_rule", i, "certified stop with frontier key above B*")
        elif event == "guard":
            guards = rec.get("guards", ())
            if "CountFail" in guards:  # to Surrogate if it stays certified
                mode = ("Surrogate" if rec.get("claim_type_after") == "RunWiseExact"
                        else "Fallback")
            if "BudgetFail" in guards:
                mode = "Fallback"
                frontier.clear()  # the engine restarts from the root under Fallback
            before, after = rec.get("claim_type_before"), rec.get("claim_type_after")
            if before != after and None not in (before, after) and not guards:
                verdict.fail("budget", i, "claim downgrade without licensing guard")
        elif (event == "budget" and rec.get("budget_event") == "Selected"
              and "model_id" in rec):
            for need in ("adapter_id", "dp_cert_id", "eps_train", "delta_train"):
                if need not in rec:
                    verdict.fail("budget", i, f"missing adapter metadata {need}")
            spent, cap = rec.get("price_spent"), rec.get("price_cap")
            if spent is not None and cap is not None and spent > cap:
                verdict.fail("budget", i, "price_spent exceeds price_cap")
            if spent is not None:
                if spent < price_prev:
                    verdict.fail("budget", i, "price_spent decreased")
                price_prev = spent
            if "router_rdp_eps" in rec:
                verdict.rdp_logged = fp.decode_q32_32(rec["router_rdp_eps"])
        if mode != "Surrogate" or "Nub" not in rec:
            continue
        if counts is None:  # every context the replay built, by digest hex
            counts = {d.hex(): node.n_exact for d, node in graph.nodes.items()}
        n = counts.get(rec.get("ctx_digest"))  # a stop has none
        if n is None:
            continue
        n_ub = rec["Nub"]
        if not 1 <= n <= n_ub:  # on every push: one never popped has no U
            verdict.fail("tightening", i, f"public count {n} below 1" if n < 1
                         else f"public count {n} exceeds logged Nub {n_ub}")
            continue
        if "U" not in rec or "key_raw" not in rec:
            continue
        # Quantile coupling: the same U at both rates.  With n <= n_ub, kappa
        # is <= 0 and gives log(n / n_ub) and the exact-rate key up to rounding.
        k = -math.log(arrival(rec["U"], n)) - -math.log(arrival(rec["U"], n_ub))
        try:
            key_tight = fp.encode_q64_64(fp.decode_q64_64(rec["key_raw"]) + k)
        except fp.NumClampError:  # a key clamped to the Q64.64 top
            continue
        verdict.tightened.append((i, fp.encode_q32_32(k), key_tight))
    if replayed and len(replayed) != len(records):  # an aborted replay has none
        verdict.fail("replay", min(len(replayed), len(records)),
                     f"record count {len(records)} != replayed {len(replayed)}")
    if not saw_stop:
        verdict.fail("stop_rule", len(records), "no stop record")


def validate(ledger_path: str, graph_spec: str | PrefixDag,
             public_counts: dict[str, int] | None = None) -> Verdict:
    """Replay and audit one ledger.  ``public_counts`` (ctx_digest hex ->
    exact count), when given, replaces the replayed contexts' counts for
    tightening and the ``N <= Nub`` check."""
    verdict = Verdict()
    try:
        ledger = Ledger.parse(ledger_path)
    except MalformedLineError as exc:  # fails replay and the stop rule
        # The record index; a header fault gets 0, like a header mismatch.
        verdict.fail("parse", max(exc.lineno - 2, 0), str(exc))
    else:
        graph = (graph_spec if isinstance(graph_spec, PrefixDag)
                 else compile_dag(SharedDag.load(graph_spec))[0])
        if ledger.header.get("root") != graph.root.hex():
            verdict.fail("replay", 0, f"ledger root {ledger.header.get('root')} "
                                      f"does not match graph root {graph.root.hex()}")
        else:
            _audit(graph, ledger, _replay(graph, ledger, verdict),
                   public_counts, verdict)
    return verdict
