"""Best-first engine: Exact / Surrogate / Fallback modes in one search loop.

All three modes share one frontier heap, one stop rule, one set of caps and
one way of writing push, pop, leaf_eval and stop records.  A mode decides
only how a pushed node is keyed and how a popped leaf is valued:

* Exact couples an admissible deterministic bound with the realized
  exponential race, ``key(v) = mtau(v) - log t(v)``, and propagates the race
  lazily (winner reuse plus independent residuals);
* Surrogate knows only upper-bound counts, disables winner reuse and anchors
  child keys and leaf values at the parent's surrogate arrival, never
  before its own anchor, so no leaf is valued above a key on its path;
* Fallback (NoCert) keys a leaf by its PRF-perturbed value and an internal
  node by the exact leaf-wise LSE bound over those values; it makes no
  run-wise claim but stays deterministic and replayable.

A CountFail or BudgetFail that leaves no certified mode restarts the search
from the root under Fallback; ``expansion_cap`` is the only Timeout source.
Every uniform, count, key, guard and budget event is appended to the ledger
in execution order; those records are the one per-node account of a run,
and ``RunResult`` keeps per-run values only.  A record names its context
by ``ctx_digest`` and carries no mode or claim: those change only at a
guard record, which logs the claim before and after.

The ledger is the whole record of a run's configuration: each ``RunConfig``
setting is either in the header (``RunConfig.header_obj``, read back by
``RunConfig.from_header``) or rebuilt from logged records (``Nub`` for
``n_ub_map``, ``U``/``W`` for scripted draws), so the validator replays a
run from its ledger and graph alone.  The budget is a header setting: its
catalog and initial state.  A run and its replay both charge a controller
rebuilt from the header, so replay recomputes every budget record and no
two runs share spend.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import asdict, dataclass, field
from enum import Enum

from . import fixedpoint as fp
from .bounds import (
    ExpansionCheck,
    MtauConfig,
    MtauRecipe,
    PhiConfig,
    check_expansion,
    mtau,
    phi,
)
from .budget import BudgetRuntime
from .ledger import FIELDS, Ledger, encode
from .prefix_dag import COUNT_LIMIT, PrefixDag, PrefixNode
from .race import (
    RawLookup,
    RngStream,
    exact_step,
    fallback_value,
    race_arrival,
    stream_lookup,
    surrogate_nub,
    surrogate_value,
)


class Mode(str, Enum):
    EXACT = "Exact"
    SURROGATE = "Surrogate"
    FALLBACK = "Fallback"


class ClaimType(str, Enum):
    RUN_WISE_EXACT = "RunWiseExact"
    NO_CERT = "NoCert"


@dataclass(frozen=True)
class RunConfig:
    mtau: MtauConfig
    phi: PhiConfig | None = None
    seed: int = 0
    n_ub_factor: float = 1.0
    n_ub_map: dict[bytes, int] | None = None
    salt: bytes = b"\x00" * 8
    tau: float = 1.0
    scripted_uniforms: dict[tuple[str, str], int] = field(default_factory=dict)
    budget: BudgetRuntime | None = None
    expansion_cap: int | None = None
    deterministic_ids: bool = True  # unread (no ids); perfbench/bench.py passes it

    def __post_init__(self):
        """Store the declared types, so a header retyped to ``"tau":1`` writes back
        differently; refuse what no run certifies (``from_header``, ``replace`` too)."""
        fp.store_as(self, int, "seed")
        fp.store_as(self, float, "tau", "n_ub_factor")
        if self.expansion_cap is not None:
            fp.store_as(self, int, "expansion_cap")
        if not 0.0 < self.tau < math.inf:
            raise ValueError(f"tau must be finite and > 0: {self.tau}")
        if not 1.0 <= self.n_ub_factor < math.inf:
            raise ValueError(f"n_ub_factor must be finite and >= 1: {self.n_ub_factor}")
        if self.expansion_cap is not None and self.expansion_cap < 0:
            raise ValueError(f"expansion_cap must be None or >= 0: {self.expansion_cap}")

    def header_obj(self, graph: PrefixDag, mode: Mode) -> dict:
        """The ledger header: every setting that is not rebuilt from logged
        records (``Nub`` and ``U``/``W``).  ``budget`` is written only when
        set, so a ledger without one keeps its bytes."""
        header = {
            "mode": mode.value,
            "seed": self.seed,
            "salt": self.salt.hex(),
            "tau": self.tau,
            "n_ub_factor": self.n_ub_factor,
            "privacy_scope": "post_processing_only",
            "root": graph.root.hex(),
            "expansion_cap": self.expansion_cap,
            "mtau": {"recipe": self.mtau.recipe.value,
                     "fixed_table": self.mtau.fixed_table},
            "phi": None if self.phi is None else asdict(self.phi),
        }
        if self.budget is not None:
            header["budget"] = self.budget.to_json_obj()
        return header

    @staticmethod
    def from_header(header: dict) -> tuple[Mode, RunConfig]:
        """The mode and config ``header_obj`` wrote; a misshapen field is named."""
        def read(name, parse, errors=(KeyError, TypeError, AttributeError)):
            try:
                return parse(header.get(name))
            except errors as exc:
                raise ValueError(f"header field {name!r} is malformed: {exc!r}") from None
        cfg = RunConfig(
            mtau=read("mtau", lambda mt: MtauConfig(MtauRecipe(mt["recipe"]),
                                                    mt["fixed_table"]),
                      (KeyError, TypeError, AttributeError, ValueError)),
            phi=read("phi", lambda obj: None if obj is None else PhiConfig(**obj)),
            seed=header.get("seed"),
            n_ub_factor=header.get("n_ub_factor"),
            salt=read("salt", bytes.fromhex, (TypeError, ValueError)),
            tau=header.get("tau"),
            expansion_cap=header.get("expansion_cap"),
            budget=read("budget", lambda obj: None if obj is None
                        else BudgetRuntime.from_json_obj(obj)),
        )
        return Mode(header.get("mode")), cfg


@dataclass
class RunResult:
    incumbent: float
    incumbent_leaf: str | None
    expansions: int
    stop_slack: float
    claim_type: ClaimType
    mode_final: Mode
    ledger: Ledger
    frontier_at_stop: list[tuple[str, int]] = field(default_factory=list)
    guards_seen: list[str] = field(default_factory=list)


class _Engine:
    def __init__(self, graph: PrefixDag, mode: Mode, cfg: RunConfig,
                 uniform_provider: RawLookup | None = None):
        self.graph = graph
        self.mode = mode
        self.cfg = cfg
        # Every draw, by (ctx digest, purpose): the validator's logged
        # uniforms on replay, else scripted by (state, purpose) or streamed.
        self.draw = uniform_provider or stream_lookup(
            RngStream(cfg.seed), cfg.scripted_uniforms, graph)
        self.ledger = Ledger(cfg.header_obj(graph, mode))
        self.claim = ClaimType.RUN_WISE_EXACT
        # Entries (-key_q, not is_leaf, digest, key, arrival t or None): the
        # largest key pops first, then leaves, then lower digests.
        self.heap: list[tuple[int, bool, bytes, float, float | None]] = []
        self.incumbent_q = fp.NEG_INF_Q64_64
        self.incumbent = float("-inf")
        self.incumbent_leaf: str | None = None
        self.expansions = 0
        self.guards_seen: list[str] = []
        # A fresh controller from the header: the caller's runtime keeps
        # its initial state, and replay charges exactly what the run did.
        self.budget = (None if cfg.budget is None else
                       BudgetRuntime.from_json_obj(self.ledger.header["budget"]))
        self.fallback_keys: dict[bytes, float] = {}

    # -- bookkeeping ------------------------------------------------------

    def guard(self, name: str, node: PrefixNode | None = None, reason: str | None = None,
              downgrade_to: ClaimType | None = ClaimType.NO_CERT, **extra) -> None:
        before = self.claim
        if downgrade_to is not None and downgrade_to != self.claim:
            self.claim = downgrade_to
        self.guards_seen.append(name)
        rec = {"event": "guard", "guards": [name], "mode": self.mode.value,
               "claim_type_before": before.value,
               "claim_type_after": self.claim.value}
        if node is not None:
            rec["ctx_digest"] = node.ctx_digest.hex()
        if reason:
            rec["reason"] = reason
        rec.update(extra)
        self.ledger.records.append(rec)

    def record(self, event: str, node: PrefixNode, **fields) -> dict:
        """Append a push, pop, leaf_eval or budget record of ``node``."""
        rec = {"event": event, "ctx_digest": node.ctx_digest.hex(), **fields}
        self.ledger.records.append(rec)
        return rec

    def fixed(self, node: PrefixNode, field: str, value: float) -> int:
        """``value`` as the record field ``field`` logs it; one that does not fit
        clamps to its layout's nearer end (NaN: the low one) and logs NumClamp."""
        try:
            return encode(field, value)
        except fp.NumClampError:
            layout = FIELDS[field]
            what = {"key_raw": "key", "value": "leaf value"}.get(field, field)
            self.guard("NumClamp", node, reason=f"{what} overflowed {layout.name}")
            return layout.hi if value > 0 else layout.lo

    def push(self, node: PrefixNode, key: float, t: float | None,
             rate: int | None = None, uniform_raw: int | None = None) -> None:
        key_q = self.fixed(node, "key_raw", key)
        heapq.heappush(self.heap, (-key_q, not node.is_leaf, node.ctx_digest, key, t))
        rec = self.record("push", node, key_raw=key_q)
        if rate is not None:
            rec["Nub"] = rate
        if uniform_raw is not None:
            rec["U"] = uniform_raw

    def pop_record(self, node: PrefixNode, key_q: int, **extra) -> None:
        """Log a pop; on a key tie with the next entry, ``tie_token`` says
        whether the popped digest is the larger one.  Called before the
        node's children are pushed, so the heap top is that next entry."""
        if self.heap and self.heap[0][0] == -key_q:
            extra["tie_token"] = int(node.ctx_digest > self.heap[0][2])
        self.record("pop", node, key_raw=key_q, **extra)

    # -- mode mechanics ---------------------------------------------------

    def key_for(self, node: PrefixNode, t: float) -> float:
        """``mtau - log t``; a FIXED entry below the node's best leaf score
        is not admissible, so the first one downgrades a certified run."""
        bound = mtau(node, self.cfg.mtau)
        if (self.cfg.mtau.recipe is MtauRecipe.FIXED and bound < node.score_ub
                and self.claim is ClaimType.RUN_WISE_EXACT):
            self.guard("MtauInadmissible", node,
                       reason=f"M_tau {bound!r} < best leaf score {node.score_ub!r}")
        return bound - math.log(t)

    def fallback_key(self, node: PrefixNode) -> float:
        """Fallback key: a leaf's perturbed value ``g/tau + s - log E``; an
        internal node's exact leaf-wise LSE bound over those values."""
        digest = node.ctx_digest
        cached = self.fallback_keys.get(digest)
        if cached is None:
            if node.is_leaf:
                cached = fallback_value(self.cfg.salt, digest,
                                        node.prefix_score, self.cfg.tau)
            else:
                values = [self.fallback_key(leaf)
                          for leaf in self.graph.walk(digest) if leaf.is_leaf]
                m = max(values)
                cached = m + math.log(math.fsum(math.exp(v - m) for v in values))
            self.fallback_keys[digest] = cached
        return cached

    def leaf_value(self, node: PrefixNode, t: float | None) -> tuple[float, int]:
        """A popped leaf's value and the Q0.64 uniform behind it; ``t`` is
        the arrival it was pushed with (Fallback's None)."""
        if self.mode is Mode.EXACT:  # E_P is the arrival; U_P its quantile
            return node.prefix_score - math.log(t), fp.encode_q0_64(-math.expm1(-t))
        value, u_p_raw = surrogate_value(self.cfg.salt, node.ctx_digest,
                                         node.prefix_score, t or 0.0)
        return (self.fallback_key(node) if self.mode is Mode.FALLBACK else value), u_p_raw

    def n_ub(self, digest: bytes) -> int:
        """Surrogate Nub: the given map's (on replay), else ``surrogate_nub`` of N."""
        if self.cfg.n_ub_map is None:
            return surrogate_nub(self.graph.suffix_count(digest), self.cfg.n_ub_factor)
        try:
            return self.cfg.n_ub_map[digest]
        except KeyError:
            raise LookupError(f"no Nub for node {digest.hex()[:16]}…") from None

    def phi_fields(self, parent: PrefixNode, children: list[PrefixNode]) -> dict:
        cfg = self.cfg.phi
        if cfg is None:
            return {}
        before = phi(parent, cfg)
        worst = max(phi(c, cfg) for c in children)
        fields = {name: self.fixed(parent, name, value) for name, value in (
            ("phi_before", before), ("phi_after", worst),
            ("delta_phi", worst - before), ("eta", cfg.eta))}
        if check_expansion(before, worst, cfg) is ExpansionCheck.ACYCLICITY_FAIL:
            self.guard("AcyclicityFail", parent, **fields)
        return fields

    def update_incumbent(self, node: PrefixNode, value: float, u_raw: int) -> None:
        value_q = self.fixed(node, "value", value)
        if value_q > self.incumbent_q:
            self.incumbent_q = value_q
            self.incumbent = value
            self.incumbent_leaf = node.ctx_digest.hex()
        self.record("leaf_eval", node, U=u_raw, value=value_q,
                    incumbent=self.incumbent_q)

    def switch_to_fallback(self) -> None:
        """Restart from the root under the PRF heuristic (NoCert).  The
        incumbent found so far and the budget are kept."""
        self.mode = Mode.FALLBACK
        self.claim = ClaimType.NO_CERT
        self.heap.clear()
        root = self.graph.node(self.graph.root)
        self.push(root, self.fallback_key(root), None)

    def budget_step(self, node: PrefixNode, slack: float) -> bool:
        """Charge the budget for one expansion; True if it was exhausted."""
        if self.budget is None:
            return False
        # Each number by its declared layout, so an int estimate is scaled too.
        fields = {name: value if FIELDS[name] is str else self.fixed(node, name, value)
                  for name, value in self.budget.on_expansion(node, slack).items()}
        self.record("budget", node, **fields)
        exhausted = fields["budget_event"] == "Exhausted"
        if exhausted:
            self.guard("BudgetFail", node, reason="all catalog entries infeasible")
            self.budget = None
            self.switch_to_fallback()
        return exhausted

    def finish(self, top: int | None) -> RunResult:
        """Log the stop record; ``top`` is the frontier's largest key."""
        slack = 0.0
        if top is not None:
            slack = max(0.0, fp.decode_q64_64(top) - fp.decode_q64_64(self.incumbent_q))
        rec = {"event": "stop", "mode": self.mode.value,
               "claim_type": self.claim.value,
               "incumbent": self.incumbent_q,
               "reason": ("StopHeuristic" if self.claim is ClaimType.NO_CERT
                          else "StopCertified")}
        if top is not None:
            rec["key_raw"] = top
        self.ledger.records.append(rec)
        return RunResult(
            incumbent=self.incumbent, incumbent_leaf=self.incumbent_leaf,
            expansions=self.expansions, stop_slack=slack,
            claim_type=self.claim, mode_final=self.mode, ledger=self.ledger,
            frontier_at_stop=[(digest.hex(), -neg_q)
                              for neg_q, _, digest, *_ in sorted(self.heap)],
            guards_seen=self.guards_seen)

    # -- main loop --------------------------------------------------------

    def start(self) -> None:
        """Pick the strongest mode the counts allow and push the root."""
        graph = self.graph
        # The root count is the largest count the search can reach.
        root_count = graph.suffix_count(graph.root)
        bounded = self.cfg.n_ub_map is not None
        needs_counts = (self.mode is Mode.EXACT
                        or (self.mode is Mode.SURROGATE and not bounded))
        if needs_counts and root_count > COUNT_LIMIT:
            # Mandatory downgrade: to Surrogate if upper bounds are given
            # (still certified), else to the NoCert fallback.
            self.guard("CountFail",
                       reason=f"root count {root_count} exceeds {COUNT_LIMIT}",
                       downgrade_to=None if bounded else ClaimType.NO_CERT)
            self.mode = Mode.SURROGATE if bounded else Mode.FALLBACK
        if self.mode is Mode.FALLBACK:
            self.switch_to_fallback()
            return
        root = graph.node(graph.root)
        rate = root_count if self.mode is Mode.EXACT else self.n_ub(graph.root)
        raw, t_root = race_arrival(root.ctx_digest, rate, self.draw, 0.0)
        # Exact carries a node's own arrival, Surrogate its parent's (a root's 0.0).
        self.push(root, self.key_for(root, t_root),
                  t_root if self.mode is Mode.EXACT else 0.0, rate, raw)

    def run(self) -> RunResult:
        graph, cfg = self.graph, self.cfg
        self.start()
        while True:
            key_q = -self.heap[0][0] if self.heap else None
            if key_q is None or key_q <= self.incumbent_q:
                return self.finish(key_q)
            if cfg.expansion_cap is not None and self.expansions >= cfg.expansion_cap:
                self.guard("Timeout", reason="expansion cap reached")
                return self.finish(key_q)

            _, _, digest, key, t = heapq.heappop(self.heap)
            node = graph.node(digest)
            self.expansions += 1

            if node.is_leaf:
                self.pop_record(node, key_q)
                self.update_incumbent(node, *self.leaf_value(node, t))
                continue

            slack = key - fp.decode_q64_64(self.incumbent_q)
            if self.budget_step(node, slack):
                continue  # budget exhausted: restarted under Fallback
            kids = graph.children(digest)
            children = [graph.node(c) for c in kids]
            if self.mode is Mode.FALLBACK:
                self.pop_record(node, key_q)
                for child in children:
                    self.push(child, self.fallback_key(child), None)
                continue

            phi_extra = self.phi_fields(node, children)
            if self.mode is Mode.EXACT:
                counts = [child.n_exact for child in children]
                w_raw, raws, arrivals = exact_step(
                    digest, t, kids, counts, self.draw)
                if w_raw is not None:
                    phi_extra["W"] = w_raw
                self.pop_record(node, key_q, **phi_extra)
                for child, t_c, count, raw_i in zip(children, arrivals, counts, raws):
                    self.push(child, self.key_for(child, t_c), t_c, count, raw_i)
            else:  # Surrogate: children anchored at the parent's arrival.
                rate_v = self.n_ub(digest)
                v_raw, t_hat = race_arrival(digest, rate_v, self.draw, t)
                self.pop_record(node, key_q, U=v_raw, Nub=rate_v, **phi_extra)
                for child in children:
                    self.push(child, self.key_for(child, t_hat), t_hat,
                              self.n_ub(child.ctx_digest))


def run(graph: PrefixDag, mode: Mode, cfg: RunConfig,
        ledger_path: str | None = None, uniform_provider=None) -> RunResult:
    """Execute one search run and (optionally) persist its ledger."""
    result = _Engine(graph, mode, cfg, uniform_provider=uniform_provider).run()
    if ledger_path is not None:
        result.ledger.save(ledger_path)
    return result
