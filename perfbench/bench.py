"""Route-and-audit harness.

One query routes a generated graph and then audits the ledger it wrote:

* route: ``SharedDag.load`` -> ``compile_dag`` -> ``search.run`` ->
  ``Ledger.save``;
* audit: ``validate(ledger, graph.json, public_counts=...)``.

A workload is a closed loop with one client over a pool of queries made from
the workload seed.  The correctness gate runs on every query with the clock
stopped; a failure is counted, never dropped, and never aborts the run.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import struct
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from racecert import fixedpoint as fp
from racecert import generators
from racecert.bounds import MtauConfig
from racecert.ledger import Ledger
from racecert.prefix_dag import PublicCaps, SharedDag, compile_dag, ctx_digest
from racecert.race import RngStream, prf_raw
from racecert.reconstruct import oracle_optimum, stream_lookup
from racecert.search import Mode, RunConfig, run
from racecert.validator import validate

from spec import Workload

# Every Fallback ledger fails its stop-rule audit at the commit that
# introduced the benchmark (ROADMAP item 3): leaf_eval records carry the old
# incumbent, and leaf-queue entries get no push record.  Fallback therefore
# runs only in a workload's untimed probe, whose failures are reported but
# kept out of ``attempted``/``failed``; only failures of another kind make
# the run incorrect.
KNOWN_FALLBACK_DEFECTS = frozenset({
    "stop incumbent does not match last leaf_eval",
    "stop frontier max does not match pushes/pops",
})


def query_key(workload: str, seed: int, index: int) -> int:
    """Graph seed and race seed of pool entry ``index``."""
    material = f"perfbench/{workload}/{seed}/{index}".encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:4], "big")


@dataclass(frozen=True)
class Query:
    index: int
    k: int
    mode: Mode
    n_ub_factor: float
    graph_path: str
    ledger_path: str


def make_pool(workload: Workload, seed: int, work_dir: str, size: int,
              modes=None, tag: str = "") -> list[Query]:
    """Generate the pool's graphs and write them as graph JSON files.

    ``modes`` overrides the workload's modes; a ``tag`` gives the pool keys
    and file names of its own.
    """
    generate = getattr(generators, workload.generator)
    modes = modes or workload.modes
    name = f"{workload.name}/{tag}" if tag else workload.name
    pool = []
    for i in range(size):
        k = query_key(name, seed, i)
        graph_path = os.path.join(work_dir, f"{tag}g{i}.json")
        generate(seed=k, **workload.params).save(graph_path)
        mode, factor = modes[i % len(modes)]
        pool.append(Query(i, k, Mode(mode), factor, graph_path,
                          os.path.join(work_dir, f"{tag}l{i}.ndjson")))
    return pool


# -- spans -----------------------------------------------------------------

_NO_SPAN = nullcontext()


def no_span(name: str):
    return _NO_SPAN


class Tracer:
    """In-memory spans: [name, start_ns, end_ns, parent index, query id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.query = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           self.query])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter_ns()

    def self_ms(self) -> dict[str, dict[int, float]]:
        """Self time (duration minus children's) in ms, keyed by
        ``parent/name`` and then by query id."""
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, dict[int, float]] = {}
        for (name, start, end, parent, query), child in zip(self.spans,
                                                            covered):
            if parent is not None:
                name = f"{self.spans[parent][0]}/{name}"
            out.setdefault(name, {})[query] = (end - start - child) / 1e6
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, query in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "query": query}) + "\n")


# -- the two operations ----------------------------------------------------

def route(q: Query, span=no_span):
    with span("prefix_dag.load"):
        shared = SharedDag.load(q.graph_path)
    with span("prefix_dag.compile"):
        graph, cert = compile_dag(shared)
    cfg = RunConfig(mtau=MtauConfig(), seed=q.k, n_ub_factor=q.n_ub_factor,
                    deterministic_ids=True)
    with span("search.run"):
        result = run(graph, q.mode, cfg)
    with span("ledger.save"):
        result.ledger.save(q.ledger_path)
    return graph, cert, result


def audit(q: Query, public_counts, span=None):
    """``validate(ledger, graph.json)``; traced, split into the load,
    compile and validate-on-a-PrefixDag calls that it makes internally."""
    if span is None:
        return validate(q.ledger_path, q.graph_path,
                        public_counts=public_counts)
    with span("prefix_dag.load"):
        shared = SharedDag.load(q.graph_path)
    with span("prefix_dag.compile"):
        graph, _ = compile_dag(shared)
    with span("validator.validate"):
        return validate(q.ledger_path, graph, public_counts=public_counts)


def corrupt_key_raw(ledger_path: str) -> None:
    """Add 1 to the first ``key_raw`` in a ledger (gate self-test)."""
    with open(ledger_path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    for i in range(1, len(lines)):
        rec = json.loads(lines[i]) if lines[i] else {}
        if "key_raw" in rec:
            rec["key_raw"] = str(int(rec["key_raw"]) + 1)
            lines[i] = json.dumps(rec, sort_keys=True, separators=(",", ":"),
                                  ensure_ascii=False)
            break
    with open(ledger_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))


# -- correctness gate ------------------------------------------------------

class Gate:
    """Checks every query outside the timed region and tallies failures.

    A route fails when it raises, when the compile certificate is not ok,
    when an Exact incumbent differs from ``reconstruct.oracle_optimum``'s
    winner, or when a later pass writes other ledger bytes than the first.
    An audit fails when it raises or ``verdict.ok`` is false.
    """

    def __init__(self):
        self.routes = self.route_failed = 0
        self.audits = self.audit_failed = 0
        self.reasons: Counter[str] = Counter()
        # Failures that make the run incorrect.
        self.unexpected: set[str] = set()
        self.fingerprint = hashlib.sha256()
        self.fingerprint_ledgers = 0
        self.fingerprint_bytes = 0
        self._winner: dict[int, str] = {}
        self._counts: dict[int, dict[str, int]] = {}
        self._ledger: dict[int, bytes] = {}

    def _fail(self, kind: str, reason: str, expected: bool = False) -> None:
        self.reasons[f"{kind}: {reason}"] += 1
        if not expected:
            self.unexpected.add(f"{kind}: {reason}")

    def check_route(self, q: Query, outcome, error: str | None) -> bool:
        self.routes += 1
        reason = error or self._route_reason(q, *outcome)
        if reason:
            self.route_failed += 1
            self._fail("route", reason)
        return reason is None

    def _route_reason(self, q: Query, graph, cert, result) -> str | None:
        if not cert.ok:
            return "compile certificate failed"
        if q.mode is Mode.EXACT:
            winner = self._winner.get(q.index)
            if winner is None:
                lookup = stream_lookup(RngStream(q.k), {}, graph)
                winner = oracle_optimum(graph, lookup)[0].hex()
                self._winner[q.index] = winner
            if result.incumbent_leaf != winner:
                return "Exact incumbent differs from the oracle optimum"
        with open(q.ledger_path, "rb") as fh:
            data = fh.read()
        digest = hashlib.sha256(data).digest()
        first = self._ledger.get(q.index)
        if first is None:
            self._ledger[q.index] = digest
            self.fingerprint.update(data)
            self.fingerprint_ledgers += 1
            self.fingerprint_bytes += len(data)
        elif first != digest:
            return "ledger bytes differ from the first pass"
        return None

    def public_counts(self, q: Query, graph) -> dict[str, int] | None:
        """Exact counts for Surrogate tightening, computed once per input."""
        if q.mode is not Mode.SURROGATE:
            return None
        counts = self._counts.get(q.index)
        if counts is None:
            counts = self._counts[q.index] = graph.public_counts()
        return counts

    def check_audit(self, q: Query, verdict, error: str | None) -> None:
        self.audits += 1
        if error is None and verdict.ok:
            return
        self.audit_failed += 1
        if error is not None:
            self._fail("audit", error)
        else:
            reasons = {r for _, r in verdict.failures}
            self._fail("audit", verdict.failures[0][1] if verdict.failures
                       else "verdict not ok",
                       expected=(q.mode is Mode.FALLBACK and verdict.replay_ok
                                 and reasons <= KNOWN_FALLBACK_DEFECTS))


def _error(exc: Exception) -> str:
    return f"raised {type(exc).__name__}: {exc}"


# -- closed loop -----------------------------------------------------------

@dataclass
class Loop:
    route_ms: list[float] = field(default_factory=list)
    audit_ms: list[float] = field(default_factory=list)
    traced_route_ms: list[float] = field(default_factory=list)
    traced_audit_ms: list[float] = field(default_factory=list)
    stats: list[dict] = field(default_factory=list)
    queries: int = 0
    busy_s: float = 0.0


def drive(pool: list[Query], gate: Gate, budget_s: float, min_queries: int,
          tracer: Tracer | None = None, corrupt: frozenset[int] = frozenset()
          ) -> Loop:
    """Route then audit, cycling the pool, until ``budget_s`` seconds of
    route+audit time and at least ``min_queries`` queries are done.

    The clock runs only inside route and audit.  With a tracer, every pool
    entry runs twice in a row, untraced and then traced, so that the two
    latency sets pair up; traced queries record spans and the per-query
    counters of the per-layer metrics.
    """
    loop = Loop()
    n = 0
    while (loop.busy_s < budget_s or n < min_queries
           or (tracer is not None and n % 2)):
        traced = tracer is not None and n % 2 == 1
        q = pool[(n if tracer is None else n // 2) % len(pool)]
        span = no_span
        if traced:
            tracer.query = n
            span = tracer.span
        graph = cert = result = verdict = route_error = audit_error = None
        t0 = time.perf_counter()
        try:
            with span("route"):
                graph, cert, result = route(q, span)
        except Exception as exc:  # counted as a failed route, run goes on
            route_error = _error(exc)
        t1 = time.perf_counter()
        routed = gate.check_route(q, (graph, cert, result), route_error)
        if n in corrupt:
            corrupt_key_raw(q.ledger_path)
        public_counts = gate.public_counts(q, graph) if routed else None
        t2 = t3 = time.perf_counter()
        if route_error is None:
            try:
                with span("audit"):
                    verdict = audit(q, public_counts,
                                    span if traced else None)
            except Exception as exc:  # counted as a failed audit
                audit_error = _error(exc)
            t3 = time.perf_counter()
            (loop.traced_route_ms if traced else loop.route_ms).append(
                (t1 - t0) * 1e3)
        else:
            audit_error = "not run: the route raised"
        gate.check_audit(q, verdict, audit_error)
        loop.busy_s += (t1 - t0) + (t3 - t2)
        if audit_error is None:
            (loop.traced_audit_ms if traced else loop.audit_ms).append(
                (t3 - t2) * 1e3)
            if traced:
                loop.stats.append(_query_stats(n, q, graph, result, verdict))
        n += 1
    loop.queries = n
    return loop


def _query_stats(n: int, q: Query, graph, result, verdict) -> dict:
    started = time.perf_counter()
    Ledger.parse(q.ledger_path)
    parse_ms = (time.perf_counter() - started) * 1e3
    pushes = sum(1 for r in result.ledger.records if r.get("event") == "push")
    return {
        "query": n,
        "contexts": len(graph.nodes),
        "expansions": result.expansions,
        "pushes": pushes,
        "frontier_at_stop": len(result.frontier_at_stop),
        "guards": len(result.guards_seen),
        "touched_share": pushes / len(graph.nodes),
        "ledger_bytes": os.path.getsize(q.ledger_path),
        "ledger_records": len(result.ledger.records),
        "tightened": len(verdict.tightened),
        "failures": len(verdict.failures),
        "parse_ms": parse_ms,
    }


def run_probe(workload: Workload, seed: int, work_dir: str) -> Gate:
    """Route and audit the workload's probe queries once each, untimed,
    through the same gate as the timed loop."""
    pool = make_pool(workload, seed, work_dir, workload.probe,
                     modes=(workload.probe_mode,), tag="probe")
    gate = Gate()
    drive(pool, gate, 0.0, len(pool))
    return gate


def warm_up(pool: list[Query], count: int) -> None:
    """Route and audit the first ``count`` queries; results are discarded."""
    for q in pool[:count]:
        graph, _, _ = route(q)
        counts = graph.public_counts() if q.mode is Mode.SURROGATE else None
        audit(q, counts)


def p50(xs: list[float]) -> float:
    return statistics.median(xs)


def p90(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10, method="inclusive")[-1]


# -- hot-primitive microbenchmarks ----------------------------------------

def _ref_ctx_digest(path, caps) -> bytes:
    h = hashlib.sha256(b"racecert/ctx/v1")
    h.update(struct.pack(">IddI", caps.max_depth, caps.c_s_max, caps.c_s_min,
                         len(path)))
    for label, order in path:
        raw = label.encode("utf-8")
        h.update(struct.pack(">I", len(raw)) + raw + struct.pack(">I", order))
    return h.digest()


def _ref_rng_raw(seed: int, digest: bytes, purpose: str, counter: int) -> int:
    mask = (1 << 64) - 1

    def mix(z):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    material = digest + purpose.encode("utf-8")
    material += b"\x00" * (-len(material) % 8)
    z = seed & mask
    for i in range(0, len(material), 8):
        z = mix(z ^ int.from_bytes(material[i:i + 8], "big"))
    return mix((z + 0x9E3779B97F4A7C15 * (counter + 1)) & mask)


def _ref_prf_raw(salt: bytes, domain: str, leaf: bytes) -> int:
    h = hashlib.sha256(b"racecert/prf/v1" + salt + domain.encode() + leaf)
    return int.from_bytes(h.digest()[:8], "big")


def _ref_encode(value: float, frac_bits: int) -> int:
    """Round value * 2**frac_bits to the nearest integer, ties to even."""
    num, den = value.as_integer_ratio()
    q, r = divmod(num << frac_bits, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    return q


def _encode_inputs(rng: random.Random, frac_bits: int, int_bits: int):
    """Ordinary keys, exact ties, subnormal/tiny and near-range values of
    both signs, so every branch of the exact rounding is exercised."""
    ulp = 2.0 ** -frac_bits
    limit = 2.0 ** (int_bits - 2)
    values = [rng.uniform(-60.0, 60.0) for _ in range(384)]
    values += [(rng.randrange(1 << 20) + 0.5) * ulp * rng.choice((-1, 1))
               for _ in range(64)]
    values += [rng.choice((-1, 1)) * rng.uniform(0.0, 4.0) * ulp
               for _ in range(32)]
    values += [5e-324, -5e-324, 1e-300, -1e-30, 0.5 * ulp, 1.5 * ulp,
               -2.5 * ulp, 0.0]
    values += [rng.uniform(-limit, limit) for _ in range(24)]
    values += [limit, -limit, rng.uniform(1e6, 1e9), -rng.uniform(1e6, 1e9)]
    rng.shuffle(values)
    return values


def _checksum(outputs) -> str:
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def micro(seed: int, budget_s: float) -> tuple[dict[str, float], list[str]]:
    """ns/call for the hot primitives on fixed inputs from ``seed``.

    Each primitive's outputs are checked against an independent reference
    implementation of the published encoding first; a mismatch is returned
    as an error.  Timings include the Python loop around each call.
    """
    rng = random.Random(f"perfbench/micro/{seed}")
    labels = ["root", "L3x1", "n.0.2.4", "plan", "synth-é", "retrieve"]
    caps = [PublicCaps(max_depth=rng.randint(2, 40),
                       c_s_max=rng.uniform(0.1, 4.0),
                       c_s_min=rng.uniform(0.1, 4.0)) for _ in range(4)]
    paths = [([(rng.choice(labels), rng.randrange(5))
               for _ in range(rng.randint(1, 12))], rng.choice(caps))
             for _ in range(256)]
    digests = [rng.randbytes(32) for _ in range(256)]
    purposes = ["race", "winner", "residual", "leaf", "uuid"]
    draws = []
    for d in digests:
        seed64 = rng.getrandbits(64)
        draws.append((seed64, RngStream(seed64), d, rng.choice(purposes),
                      rng.randrange(4)))
    prfs = [(rng.randbytes(8), "leaf", d) for d in digests]
    q64 = _encode_inputs(rng, 64, 64)
    q32 = _encode_inputs(rng, 32, 32)

    cases = {
        "prefix_dag.ctx_digest_ns": (
            len(paths), lambda: [ctx_digest(p, c) for p, c in paths],
            lambda: [_ref_ctx_digest(p, c) for p, c in paths]),
        "race.rng_raw_ns": (
            len(draws), lambda: [s.raw(d, p, c) for _, s, d, p, c in draws],
            lambda: [_ref_rng_raw(z, d, p, c) for z, _, d, p, c in draws]),
        "race.prf_raw_ns": (
            len(prfs), lambda: [prf_raw(s, dom, d) for s, dom, d in prfs],
            lambda: [_ref_prf_raw(s, dom, d) for s, dom, d in prfs]),
        "fixedpoint.encode_q64_64_ns": (
            len(q64), lambda: [fp.encode_q64_64(v) for v in q64],
            lambda: [_ref_encode(v, 64) for v in q64]),
        "fixedpoint.encode_q32_32_ns": (
            len(q32), lambda: [fp.encode_q32_32(v) for v in q32],
            lambda: [_ref_encode(v, 32) for v in q32]),
    }
    metrics, errors = {}, []
    for name, (calls, batch, reference) in cases.items():
        got, want = _checksum(batch()), _checksum(reference())
        if got != want:
            errors.append(f"{name}: output checksum {got[:16]} != "
                          f"reference {want[:16]}")
        samples = []
        deadline = time.perf_counter() + budget_s / len(cases)
        while time.perf_counter() < deadline or len(samples) < 5:
            started = time.perf_counter_ns()
            batch()
            samples.append((time.perf_counter_ns() - started) / calls)
        metrics[name] = statistics.median(samples)
    return metrics, errors
