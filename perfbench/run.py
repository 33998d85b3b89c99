"""Route-and-audit benchmark for racecert.

Run from the root of a checkout; racecert is imported from ``./src``:

    python3 perfbench/run.py --workload shared-exact --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced closed loop.
``--trace 1`` is a separate run that reports the per-layer metrics: every
pool entry runs untraced and then again with spans around each call into a
layer, and the hot primitives are timed on their own.  Human-readable lines
come first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

from spec import END_TO_END, MIN_QUERIES, PER_LAYER, WORKLOADS  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 3
WARM_UP_QUERIES = 3
# Share of --seconds that a traced run spends on the microbenchmarks.
MICRO_SHARE = 0.2


def load_harness():
    """Import the harness against ``src/`` of this checkout."""
    if not os.path.isfile(os.path.join(SRC, "racecert", "__init__.py")):
        raise SystemExit(f"perfbench: no racecert sources in {SRC}; "
                         "run from the root of a racecert checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import bench
    import racecert

    if os.path.dirname(os.path.dirname(racecert.__file__)) != SRC:
        raise SystemExit(f"perfbench: racecert imported from "
                         f"{racecert.__file__}, not from {SRC}")
    return bench


def _failure_lines(gate) -> list[str]:
    lines = []
    for reason, count in gate.reasons.most_common():
        known = "" if reason in gate.unexpected else " [known defect]"
        lines.append(f"  failure x{count}: {reason}{known}")
    return lines


def untraced(bench, workload, seed: int, seconds: float, work_dir: str,
             pool_size: int, min_queries: int, corrupt=frozenset()):
    setup_times = []
    before_setup = time.perf_counter() - _STARTED
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        pool = bench.make_pool(workload, seed, work_dir, pool_size)
        bench.warm_up(pool, WARM_UP_QUERIES)
        setup_times.append(time.perf_counter() - started)
    gate = bench.Gate()
    loop = bench.drive(pool, gate, seconds, max(min_queries, pool_size),
                       corrupt=corrupt)
    values = {
        "route_ms_p50": bench.p50(loop.route_ms),
        "route_ms_p90": bench.p90(loop.route_ms),
        "audit_ms_p50": bench.p50(loop.audit_ms),
        "audit_ms_p90": bench.p90(loop.audit_ms),
        "queries_per_s": loop.queries / loop.busy_s,
        "setup_s": before_setup + statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "route_ok_share": 1 - gate.route_failed / gate.routes,
        "audit_ok_share": 1 - gate.audit_failed / gate.audits,
    }
    lines = [
        f"perfbench {workload.name} seed={seed}: closed loop, 1 client, "
        f"{loop.queries} queries over a pool of {pool_size}, "
        f"{loop.busy_s:.2f} s of route+audit time "
        f"(p50/p90 over {len(loop.route_ms)} routes, "
        f"{len(loop.audit_ms)} audits)",
    ]
    for name, unit, _, _ in END_TO_END:
        lines.append(f"  {name:<18} {values[name]:.6g} {unit}")
    lines.append(f"  {'route_fail_share':<18} "
                 f"{gate.route_failed / gate.routes:.6g} ratio "
                 f"({gate.route_failed}/{gate.routes})")
    lines.append(f"  {'audit_fail_share':<18} "
                 f"{gate.audit_failed / gate.audits:.6g} ratio "
                 f"({gate.audit_failed}/{gate.audits})")
    lines.append(f"  ledger_sha256 {gate.fingerprint.hexdigest()} "
                 f"({gate.fingerprint_ledgers} ledgers of the first pass, "
                 f"{gate.fingerprint_bytes} bytes)")
    lines += _failure_lines(gate)
    if workload.probe:
        probe = bench.run_probe(workload, seed, work_dir)
        lines.append(
            f"  probe: {probe.routes} {workload.probe_mode[0]} queries, "
            f"untimed and not in attempted/failed: {probe.route_failed}/"
            f"{probe.routes} routes and {probe.audit_failed}/{probe.audits} "
            f"audits fail")
        lines += _failure_lines(probe)
        gate.unexpected |= probe.unexpected
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _, _ in END_TO_END}
    return lines, gate, metrics


def traced(bench, workload, seed: int, seconds: float, work_dir: str,
           pool_size: int, min_queries: int):
    pool = bench.make_pool(workload, seed, work_dir, pool_size)
    bench.warm_up(pool, WARM_UP_QUERIES)
    gate = bench.Gate()
    tracer = bench.Tracer()
    loop = bench.drive(pool, gate, (1 - MICRO_SHARE) * seconds,
                       2 * max(min_queries, pool_size), tracer=tracer)
    micro, micro_errors = bench.micro(seed, MICRO_SHARE * seconds)
    gate.unexpected.update(micro_errors)
    spans_path = os.path.join(
        WORK_ROOT, f"spans-{workload.name}-seed{seed}.jsonl")
    tracer.write(spans_path)

    self_ms = tracer.self_ms()
    stats = loop.stats
    first_pass = stats[:pool_size]

    def layer(*names):
        return [ms for name in names for ms in self_ms.get(name, {}).values()]

    def mean(key):
        return statistics.fmean(s[key] for s in first_pass)

    run_ms = self_ms["route/search.run"]
    values = {
        "prefix_dag.load_ms": bench.p50(layer("route/prefix_dag.load",
                                              "audit/prefix_dag.load")),
        "prefix_dag.compile_ms": bench.p50(layer("route/prefix_dag.compile",
                                                 "audit/prefix_dag.compile")),
        "prefix_dag.contexts": mean("contexts"),
        "search.run_ms": bench.p50(layer("route/search.run")),
        "search.us_per_expansion": bench.p50(
            [run_ms[s["query"]] * 1e3 / s["expansions"] for s in stats]),
        "search.expansions": mean("expansions"),
        "search.pushes": mean("pushes"),
        "search.frontier_at_stop": mean("frontier_at_stop"),
        "search.guards": mean("guards"),
        "search.touched_share": mean("touched_share"),
        "ledger.save_ms": bench.p50(layer("route/ledger.save")),
        "ledger.bytes": mean("ledger_bytes"),
        "ledger.records": mean("ledger_records"),
        "ledger.parse_ms": bench.p50([s["parse_ms"] for s in stats]),
        "validator.validate_ms": bench.p50(layer("audit/validator.validate")),
        "validator.tightened": mean("tightened"),
        "validator.failures": mean("failures"),
        "trace.route_overhead_ms": bench.p50(loop.traced_route_ms)
        - bench.p50(loop.route_ms),
        "trace.audit_overhead_ms": bench.p50(loop.traced_audit_ms)
        - bench.p50(loop.audit_ms),
        **micro,
    }
    lines = [
        f"perfbench {workload.name} seed={seed} traced: "
        f"{len(loop.route_ms)} untraced and {len(loop.traced_route_ms)} "
        f"traced queries, paired per pool entry; spans in "
        f"{os.path.relpath(spans_path, ROOT)}",
    ]
    for op, untraced_ms, traced_ms in (
            ("route", loop.route_ms, loop.traced_route_ms),
            ("audit", loop.audit_ms, loop.traced_audit_ms)):
        base = bench.p50(untraced_ms)
        lines.append(f"  {op}: untraced p50 {base:.4f} ms, traced p50 "
                     f"{bench.p50(traced_ms):.4f} ms (tracing overhead "
                     f"{bench.p50(traced_ms) - base:+.4f} ms)")
        total = 0.0
        for name in sorted(self_ms):
            if name == op or name.startswith(op + "/"):
                ms = bench.p50(list(self_ms[name].values()))
                total += ms
                label = "harness (self)" if name == op else name
                lines.append(f"    {label:<28} p50 self {ms:9.4f} ms "
                             f"{100 * ms / base:6.1f}% of untraced p50")
        lines.append(f"    {'sum of p50 self times':<28} {total:13.4f} ms "
                     f"{100 * total / base:6.1f}%")
    for name, unit, _, moves, where in PER_LAYER:
        lines.append(f"  {name:<28} {values[name]:.6g} {unit}  "
                     f"(moves {moves}; on {where})")
    lines += _failure_lines(gate)
    lines += [f"  micro check failed: {e}" for e in micro_errors]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _, _, _ in PER_LAYER}
    return lines, gate, metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 pool_size: int | None = None,
                 min_queries: int = MIN_QUERIES,
                 corrupt=frozenset()) -> tuple[list[str], dict]:
    """Run one workload and return its report lines and JSON result."""
    bench = load_harness()
    workload = WORKLOADS[name]
    pool_size = pool_size or workload.pool
    work_dir = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        if trace:
            lines, gate, metrics = traced(bench, workload, seed, seconds,
                                          work_dir, pool_size, min_queries)
        else:
            lines, gate, metrics = untraced(bench, workload, seed, seconds,
                                            work_dir, pool_size, min_queries,
                                            corrupt)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result = {
        "correct": not gate.unexpected,
        "attempted": gate.routes + gate.audits,
        "failed": gate.route_failed + gate.audit_failed,
        "metrics": metrics,
    }
    return lines, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    lines, result = run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
