"""racecert: run-wise-certified best-first routing over prefix-DAGs.

A single realized exponential race drives both the search priorities and the
stopping certificate: keys couple an admissible deterministic bound to the
race, so a certified stop proves that under *this run's* randomness no
unexpanded leaf can beat the incumbent.  Every run writes a fixed-point
NDJSON ledger that an independent validator replays bit-exactly.
"""

from .bounds import (
    MtauConfig,
    MtauRecipe,
    PhiConfig,
    kappa,
    lse_truncation_bound,
    mtau,
    phi,
)
from .budget import (
    BudgetRuntime,
    BudgetState,
    ModelCatalogEntry,
    default_catalog,
    select_model,
)
from .ledger import Ledger
from .prefix_dag import (
    DagNode,
    PrefixDag,
    PublicCaps,
    SharedDag,
    compile_dag,
    ctx_digest,
)
from .race import RngStream
from .search import ClaimType, Mode, RunConfig, RunResult, run
from .validator import Verdict, validate

__version__ = "0.1.0"

__all__ = [
    "BudgetRuntime", "BudgetState", "ClaimType", "DagNode", "Ledger", "Mode",
    "ModelCatalogEntry", "MtauConfig", "MtauRecipe", "PhiConfig", "PrefixDag",
    "PublicCaps", "RngStream", "RunConfig", "RunResult", "SharedDag",
    "Verdict", "compile_dag", "ctx_digest", "default_catalog", "kappa",
    "lse_truncation_bound", "mtau", "phi", "run", "select_model", "validate",
]
