"""Deterministic, race-independent admissible bounds and guard arithmetic.

``mtau`` never sees a race uniform: its inputs are the compiled node and a
static config, which is what makes the search keys sound.  The module also
carries the absolute LSE truncation certificate, the acyclicity potential
with its runtime check, and kappa = log(N/N_ub), which nub-sweep reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from . import fixedpoint as fp
from .prefix_dag import PrefixNode

LOG2 = math.log(2.0)


class MtauRecipe(Enum):
    R2 = "R2"  # prefix score: scores only fall when edge costs are >= 0
    R3 = "R3"  # exact score-to-go: the best leaf score below, rounded up
    FIXED = "FIXED"  # per-state table (fixture replays)


@dataclass(frozen=True)
class MtauConfig:
    recipe: MtauRecipe = MtauRecipe.R3
    fixed_table: dict[str, float] = field(default_factory=dict, hash=False)

    def __post_init__(self):  # FIXED reads a table, as floats; no other recipe does
        if (self.recipe is MtauRecipe.FIXED) != bool(self.fixed_table):
            raise ValueError(f"M_tau {self.recipe.value}: FIXED needs a "
                             "fixed_table and no other recipe takes one")
        for state, v in self.fixed_table.items():
            if type(v) not in (int, float):  # a bool or a numeric string too
                raise ValueError(f"fixed_table entry of state {state!r} is not "
                                 f"a number: {v!r}")
        table = {state: float(v) for state, v in self.fixed_table.items()}
        object.__setattr__(self, "fixed_table", table)


def mtau(node: PrefixNode, cfg: MtauConfig) -> float:
    """Upper bound on the deterministic score of any leaf below ``node``."""
    if cfg.recipe is MtauRecipe.R3:
        return node.score_ub
    if cfg.recipe is MtauRecipe.R2:
        return node.prefix_score
    if node.state_label not in cfg.fixed_table:
        raise ValueError(f"FIXED M_tau table has no state {node.state_label!r}")
    return cfg.fixed_table[node.state_label]


class TailDivergesError(OverflowError):
    """The truncation tail sum overflowed; report, never clamp."""


def lse_truncation_bound(
    partial_lse: float,
    s_ref: float,
    b_k: Sequence[float],
    c_s_min: float,
    k_cut: int,
) -> float:
    """Absolute LSE tail certificate.

    ``b_k[k]`` bounds the number of admissible leaves at depth ``k``; only
    entries with ``k > k_cut`` contribute.  Returns a guaranteed upper bound
    on the full log-sum-exp: ``max(partial, s_ref + log tail) + log 2``.
    """
    if c_s_min <= 0:
        raise ValueError("c_s_min must be > 0")
    tail = math.fsum(
        b_k[k] * math.exp(-k * c_s_min) for k in range(k_cut + 1, len(b_k))
    )
    if math.isinf(tail):
        raise TailDivergesError("tail sum overflowed")
    if tail <= 0.0:
        return partial_lse + LOG2
    return max(partial_lse, s_ref + math.log(tail)) + LOG2


@dataclass(frozen=True)
class PhiConfig:
    step_cap: int
    alpha: float = 0.0
    eta: float = 1.0
    eps_fp: float = 2.0**-32
    c_s_min: float = 1.0

    def __post_init__(self):
        fp.store_as(self, int, "step_cap")  # declared types: "eta":1 fails replay
        fp.store_as(self, float, "alpha", "eta", "eps_fp", "c_s_min")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if -1.0 + self.alpha * self.c_s_min > -self.eta:
            raise ValueError("alpha violates -1 + alpha*c_s_min <= -eta")


def phi(node: PrefixNode, cfg: PhiConfig) -> float:
    """Acyclicity potential: remaining step budget plus scaled prefix cost."""
    return (cfg.step_cap - node.depth) + cfg.alpha * (-node.prefix_score)


class ExpansionCheck(Enum):
    OK = "Ok"
    ACYCLICITY_FAIL = "AcyclicityFail"


def check_expansion(phi_before: float, phi_after: float, cfg: PhiConfig) -> ExpansionCheck:
    """Flag an expansion whose potential drop is too small."""
    delta = phi_after - phi_before
    if delta > -cfg.eta + cfg.eps_fp:
        return ExpansionCheck.ACYCLICITY_FAIL
    return ExpansionCheck.OK


class KappaInvalidError(ValueError):
    """n_ub below n_exact: the ledger is inconsistent."""


def kappa(n_exact: int, n_ub: int) -> float:
    """log(N/N_ub) <= 0, as nub-sweep reports it; the validator does not read it."""
    if n_exact < 1 or n_ub < 1:
        raise KappaInvalidError("counts must be >= 1")
    if n_ub < n_exact:
        raise KappaInvalidError(f"n_ub={n_ub} < n_exact={n_exact}")
    return math.log(n_exact / n_ub)
