"""Per-request budget controller and RDP tally (strictly post-processing).

Model selection follows the ratio rule: among catalog entries that satisfy
the privacy, price, and latency cap inequalities, pick the one maximizing
estimated key-slack reduction per weighted cost.  Exhaustion (no feasible
entry) triggers a BudgetFail guard and a downgrade in the engine; it never
touches race arithmetic or bound admissibility.

A catalog entry names its key-slack estimator from the fixed table
``_ESTIMATORS``, so a validator in a fresh process knows every one.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Sequence

from . import fixedpoint as fp
from .ledger import check_loggable
from .prefix_dag import PrefixNode

SAFETY_FACTOR = 1.2

# Estimated key-slack reduction of one expansion, by estimator name.
_ESTIMATORS = {"zero": lambda node, slack: 0.0}  # the default: no reduction


@dataclass(frozen=True)
class ModelCatalogEntry:
    model_id: str
    adapter_id: str
    dp_cert_id: str
    eps_train: float
    delta_train: float
    price_m: int  # cents
    latency_m: int  # P95 ms
    eps_m: float = 0.0
    dkey_estimator: str = "zero"

    def __post_init__(self):
        fp.store_as(self, int, "price_m", "latency_m")
        fp.store_as(self, float, "eps_train", "delta_train", "eps_m")
        fp.store_as(self, str, "model_id", "adapter_id", "dp_cert_id", "dkey_estimator")
        check_loggable(self, eps_train="eps_train")
        if self.price_m < 0 or self.latency_m < 0:
            raise ValueError("price/latency must be non-negative")
        if not self.eps_m >= 0:  # NaN too
            raise ValueError("eps_m must be >= 0")
        if self.dkey_estimator not in _ESTIMATORS:
            raise ValueError(f"unknown dkey estimator {self.dkey_estimator!r}")

    def dkey(self, node: PrefixNode, slack: float) -> float:
        return _ESTIMATORS[self.dkey_estimator](node, slack)


def load_catalog(path: str) -> list[ModelCatalogEntry]:
    with open(path, encoding="utf-8") as fh:
        entries = json.load(fh)
    try:
        catalog = [ModelCatalogEntry(**entry) for entry in entries]
    except (TypeError, ValueError) as exc:  # not a list of typed entries
        raise ValueError(f"bad catalog {path}: {exc}") from exc
    if not catalog:
        raise ValueError(f"bad catalog {path}: no entries")
    return catalog


def default_catalog() -> list[ModelCatalogEntry]:
    """Three-adapter fixture catalog; zero inference epsilon throughout."""
    return [
        ModelCatalogEntry("m-small", "adp-a", "dpc-a", 2.0, 1e-6, 1, 10),
        ModelCatalogEntry("m-mid", "adp-b", "dpc-b", 3.5, 1e-6, 5, 20),
        ModelCatalogEntry("m-large", "adp-c", "dpc-c", 6.0, 1e-6, 20, 45),
    ]


class RdpAtom(NamedTuple):
    alpha: float
    eps_alpha: float


def composed(atoms: Sequence[tuple[float, float]]) -> list[RdpAtom]:
    """One atom per alpha, its eps the sum of that alpha's atoms from left
    to right, so composing again after more atoms gives the same floats."""
    total: dict[float, float] = {}
    for alpha, eps in atoms:
        total[alpha] = total.get(alpha, 0) + eps
    return [RdpAtom(alpha, eps) for alpha, eps in total.items()]


def rdp_eps_alpha(atoms: Sequence[tuple[float, float]],
                  delta: float) -> tuple[float, float] | None:
    """Classic RDP->(eps, delta), the one conversion: over the ascending
    alpha grid of the atoms, the smallest composed eps plus
    log(1/delta)/(alpha-1), and the first alpha attaining it.  No atoms ->
    unset (None)."""
    if not atoms:
        return None
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    # Equal eps order by alpha, so a tie goes to the first alpha.
    return min((eps + math.log(1.0 / delta) / (alpha - 1.0), alpha)
               for alpha, eps in sorted(composed(atoms)))


def rdp_to_eps_delta(atoms: Sequence[tuple[float, float]],
                     delta: float) -> float | None:
    """The epsilon of ``rdp_eps_alpha``; None without atoms."""
    best = rdp_eps_alpha(atoms, delta)
    return None if best is None else best[0]


@dataclass
class BudgetState:
    eps_max: float
    delta: float
    price_max: int
    slo_ms: int
    alpha_grid: tuple[float, ...] = (2.0, 4.0, 8.0, 16.0, 32.0)
    weight_alpha: float = 0.1  # per cent
    weight_beta: float = 0.01  # per ms
    weight_gamma: float = 0.0  # per eps
    atoms: list[RdpAtom] = field(default_factory=list)
    price_spent: int = 0
    latency_acc: float = 0.0

    def __post_init__(self):  # a run's ledger header holds these types
        fp.store_as(self, int, "price_max", "slo_ms", "price_spent")
        fp.store_as(self, float, "eps_max", "delta", "weight_alpha",
                    "weight_beta", "weight_gamma", "latency_acc")
        self.alpha_grid = tuple(float(alpha) for alpha in self.alpha_grid)
        self.atoms = [RdpAtom(float(a), float(e)) for a, e in self.atoms]
        check_loggable(self, price_max="price_cap", price_spent="price_spent",
                       slo_ms="sla_ms")
        if self.weight_alpha <= 0 or self.weight_beta <= 0 or self.weight_gamma < 0:
            raise ValueError("weights must satisfy alpha, beta > 0 and gamma >= 0")
        # What the accountant needs, each refusing NaN too.
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1): {self.delta!r}")
        if not self.eps_max >= 0:
            raise ValueError(f"eps_max must be >= 0: {self.eps_max!r}")
        alphas = [*self.alpha_grid, *(alpha for alpha, _ in self.atoms)]
        if not self.alpha_grid or not all(1.0 < a < math.inf for a in alphas):
            raise ValueError("alpha_grid must be non-empty and every alpha, its "
                             f"atoms' too, in (1, inf): {alphas!r}")

    def rdp_eps_alpha(self) -> tuple[float, float | None]:
        """Current (eps, alpha) at delta; (0.0, None) without atoms."""
        return rdp_eps_alpha(self.atoms, self.delta) or (0.0, None)

    def eps_after(self, entry: ModelCatalogEntry) -> float:
        """Epsilon at delta once ``entry`` is charged."""
        atoms = self.atoms + self.new_atoms(entry)
        return rdp_to_eps_delta(atoms, self.delta) or 0.0

    def feasible(self, entry: ModelCatalogEntry) -> bool:
        """Charging ``entry`` keeps price, projected P95 latency (with the
        safety factor) and epsilon within their caps, boundaries included."""
        return (self.price_spent + entry.price_m <= self.price_max
                and (self.latency_acc + SAFETY_FACTOR * entry.latency_m
                     <= self.slo_ms)
                and self.eps_after(entry) <= self.eps_max)

    def charge(self, entry: ModelCatalogEntry) -> None:
        self.price_spent += entry.price_m
        self.latency_acc += SAFETY_FACTOR * entry.latency_m
        # Folded to one atom per alpha, so a feasibility test sums no history.
        self.atoms = composed(self.atoms + self.new_atoms(entry))

    def new_atoms(self, entry: ModelCatalogEntry) -> list[RdpAtom]:
        """One atom per grid alpha for a private entry; none if eps_m == 0."""
        if entry.eps_m == 0.0:
            return []
        return [RdpAtom(alpha, entry.eps_m) for alpha in self.alpha_grid]


def select_model(node: PrefixNode, catalog: list[ModelCatalogEntry],
                 state: BudgetState,
                 slack: float = 0.0) -> ModelCatalogEntry | None:
    """Eq.-style ratio selection among cap-feasible entries; None when no
    entry is feasible (the budget is exhausted)."""
    if not catalog:
        raise ValueError("catalog must be non-empty")
    feasible = [e for e in catalog if state.feasible(e)]
    if not feasible:
        return None

    def ratio(entry: ModelCatalogEntry) -> float:
        denom = (state.weight_alpha * entry.price_m
                 + state.weight_beta * entry.latency_m
                 + state.weight_gamma * entry.eps_m)
        if denom == 0.0:
            return math.inf
        return entry.dkey(node, slack) / denom

    feasible.sort(key=lambda e: e.model_id)
    return max(feasible, key=ratio)


@dataclass
class BudgetRuntime:
    """Engine-facing adapter: one selection per internal expansion.

    The engine charges a copy that it rebuilds from the ledger header, so
    the runtime a caller passes in keeps its initial state, and replay
    recomputes every budget record."""

    catalog: list[ModelCatalogEntry]
    state: BudgetState

    def to_json_obj(self) -> dict:
        """The ledger header's ``budget``: every catalog entry and the
        state, in JSON types."""
        obj = asdict(self)
        obj["state"].update(alpha_grid=list(self.state.alpha_grid),
                            atoms=[list(atom) for atom in self.state.atoms])
        return obj

    @staticmethod
    def from_json_obj(obj: dict) -> BudgetRuntime:
        """The runtime ``to_json_obj`` wrote into ``obj``."""
        return BudgetRuntime(
            [ModelCatalogEntry(**entry) for entry in obj["catalog"]],
            BudgetState(**obj["state"]))

    def on_expansion(self, node: PrefixNode, slack: float) -> dict:
        """The budget record's fields for one expansion, as plain floats, ints and
        strings: the selected entry, now charged, or ``budget_event`` ``Exhausted``."""
        state = self.state
        entry = select_model(node, self.catalog, state, slack)
        fields = {"budget_event": "Exhausted"}
        if entry is not None:
            state.charge(entry)
            eps, alpha_sel = state.rdp_eps_alpha()
            fields = dict(
                budget_event="Selected", model_id=entry.model_id,
                adapter_id=entry.adapter_id, dp_cert_id=entry.dp_cert_id,
                eps_train=entry.eps_train, delta_train=repr(entry.delta_train),
                router_rdp_eps=eps, dkey_pred=entry.dkey(node, slack), dkey_real=0.0)
            if state.atoms:  # else alpha is unset
                fields.update({"alpha_selected": alpha_sel, "eps_delta.eps": repr(eps),
                               "eps_delta.delta": repr(state.delta)})
        return {**fields, "price_cap": state.price_max, "sla_ms": state.slo_ms,
                "price_spent": state.price_spent}
