"""What the benchmark measures: workloads, metrics and the layer map.

This module is plain data and imports nothing from racecert, so
``selftest.py`` can check ``BENCHMARK.json`` against it without a build.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """A closed loop with one client over a fixed pool of generated queries.

    Pool entry ``i`` gets graph seed and race seed ``k = key(seed, i)``; the
    loop cycles through the pool until the timed budget is spent.  ``modes``
    is applied round-robin by pool index.

    ``probe`` queries in ``probe_mode`` run after the timed loop, untimed and
    outside ``attempted``/``failed``: they show a known defect without making
    the measured operations fail.
    """

    name: str
    generator: str
    params: dict
    modes: tuple[tuple[str, float], ...]  # (search mode, n_ub_factor)
    pool: int
    why: str
    probe_mode: tuple[str, float] | None = None
    probe: int = 0


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="shared-exact",
        generator="suite_b",
        params={"layers": 10, "width": 3},
        modes=(("Exact", 1.0),),
        pool=60,
        why=("suite_b(layers=10, width=3), Exact: 31 shared nodes unfold to "
             "3,070 contexts but a query expands ~50; compile_dag dominates, "
             "so lazy unfolding must show here"),
    ),
    Workload(
        name="tree-surrogate",
        generator="suite_a",
        params={"depth": 4, "branching": 5},
        modes=(("Surrogate", 2.0),),
        pool=80,
        why=("suite_a(depth=4, branching=5), Surrogate x2.0: a tree, ~150 "
             "expansions and ~200 KB of ledger per query; search, Q64.64, "
             "ledger I/O and replay dominate"),
    ),
    Workload(
        name="mixed-small",
        generator="random_tree",
        params={"max_depth": 6, "max_branch": 4},
        modes=(("Exact", 1.0), ("Surrogate", 2.0)),
        pool=600,
        why=("random_tree(max_depth=6, max_branch=4), modes Exact/Surrogate "
             "x2.0 round-robin: ~3 ms routes where fixed per-call costs "
             "dominate; an untimed Fallback probe reports ROADMAP item 3"),
        probe_mode=("Fallback", 1.0),
        probe=30,
    ),
)}

# p90 is reported only with at least ten samples beyond it.
MIN_QUERIES = 100

# (name, unit, better, bound).  The two ok shares are the machine-checked
# form of route_fail_share and audit_fail_share (1 - fail share), because
# a metric with a bound must never read 0.
END_TO_END = (
    ("route_ms_p50", "ms", "lower", 0.25),
    ("route_ms_p90", "ms", "lower", 0.25),
    ("audit_ms_p50", "ms", "lower", 0.25),
    ("audit_ms_p90", "ms", "lower", 0.25),
    ("queries_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("route_ok_share", "ratio", "higher", 0.01),
    ("audit_ok_share", "ratio", "higher", 0.01),
)

# (name, unit, better, end-to-end metrics it should move, workload where it
# should show).  "none" marks counters that a performance change must not move.
PER_LAYER = (
    ("prefix_dag.load_ms", "ms", "lower", "route_ms_p50", "mixed-small"),
    ("prefix_dag.compile_ms", "ms", "lower",
     "route_ms_*, audit_ms_*, peak_rss_mb", "shared-exact"),
    ("prefix_dag.contexts", "count", "lower",
     "route_ms_*, audit_ms_*, peak_rss_mb", "shared-exact"),
    ("prefix_dag.ctx_digest_ns", "ns", "lower", "route_ms_p50", "shared-exact"),
    ("search.run_ms", "ms", "lower", "route_ms_*", "tree-surrogate"),
    ("search.us_per_expansion", "us", "lower", "route_ms_*", "tree-surrogate"),
    ("search.expansions", "count", "lower", "none", "all"),
    ("search.pushes", "count", "lower", "none", "all"),
    ("search.frontier_at_stop", "count", "lower", "none", "all"),
    ("search.guards", "count", "lower", "none", "all"),
    ("search.touched_share", "ratio", "higher", "route_ms_*", "shared-exact"),
    ("race.rng_raw_ns", "ns", "lower", "route_ms_p50",
     "tree-surrogate, mixed-small"),
    ("race.prf_raw_ns", "ns", "lower", "route_ms_p50",
     "tree-surrogate, mixed-small"),
    ("fixedpoint.encode_q64_64_ns", "ns", "lower",
     "route_ms_*, audit_ms_*", "tree-surrogate"),
    ("fixedpoint.encode_q32_32_ns", "ns", "lower",
     "route_ms_*, audit_ms_*", "tree-surrogate"),
    ("ledger.save_ms", "ms", "lower", "route_ms_*", "tree-surrogate"),
    ("ledger.bytes", "B", "lower", "route_ms_*", "tree-surrogate"),
    ("ledger.records", "count", "lower", "route_ms_*", "tree-surrogate"),
    ("ledger.parse_ms", "ms", "lower", "audit_ms_*", "tree-surrogate"),
    ("validator.validate_ms", "ms", "lower", "audit_ms_*", "tree-surrogate"),
    ("validator.tightened", "count", "higher", "audit_fail_share",
     "mixed-small"),
    ("validator.failures", "count", "lower", "audit_fail_share",
     "mixed-small"),
    ("trace.route_overhead_ms", "ms", "lower",
     "none (traced minus untraced route p50)", "all"),
    ("trace.audit_overhead_ms", "ms", "lower",
     "none (traced minus untraced audit p50)", "all"),
)
