"""Property tests over run -> save -> validate.

Derandomized, with no example database and bounded example counts, so the
suite stays deterministic and fast.
"""

import functools
import json
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from racecert import validator
from racecert.bounds import MtauConfig
from racecert.generators import (full_binary_tree, random_tree, suite_a,
                                 suite_b)
from racecert.prefix_dag import compile_dag
from racecert.search import Mode, RunConfig, run

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=200,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

GRAPHS = st.one_of(
    st.builds(random_tree, seed=st.integers(0, 2**32 - 1),
              max_depth=st.integers(1, 4), max_branch=st.integers(1, 3),
              leaf_prob=st.floats(0.0, 1.0),
              c_s_max=st.floats(0.1, 3.0)),
    st.builds(suite_b, layers=st.integers(1, 4), width=st.integers(1, 3),
              seed=st.integers(0, 2**32 - 1)),
)


@PROPERTY
@given(shared=GRAPHS, mode=st.sampled_from(list(Mode)),
       seed=st.integers(0, 2**32 - 1),
       n_ub_factor=st.sampled_from([1.0, 1.5, 2.0, 4.0]))
def test_every_generated_run_validates(tmp_path, shared, mode, seed,
                                       n_ub_factor):
    graph, cert = compile_dag(shared)
    assert cert.ok
    path = str(tmp_path / "run.ndjson")
    run(graph, mode, RunConfig(mtau=MtauConfig(), seed=seed,
                               n_ub_factor=n_ub_factor), ledger_path=path)
    verdict = validator.validate(path, graph,
                                 public_counts=graph.public_counts())
    assert verdict.ok, verdict.failures


# Fields that replay or the stop audit re-derive, on the records that carry
# them.
TAMPER_EVENTS = ("push", "pop", "leaf_eval", "stop")
TAMPER_FIELDS = ("key_raw", "value", "incumbent", "tie_token", "claim_type",
                 "mode", "ctx_digest")


# Zero edge costs make equal keys, so its Surrogate pops log tie tokens.
BASES = {"suite_a": lambda seed: suite_a(2, 3, seed),
         "full_binary_tree": lambda seed: full_binary_tree(3)}


@functools.lru_cache(maxsize=None)
def _base_ledger(base: str, mode: Mode, seed: int):
    """A run's graph and ledger lines."""
    graph, _ = compile_dag(BASES[base](seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/base.ndjson"
        run(graph, mode, RunConfig(mtau=MtauConfig(), seed=seed,
                                   n_ub_factor=1.5), ledger_path=path)
        with open(path, encoding="utf-8") as fh:
            return graph, fh.read().splitlines()


def _tampered(value, field, step):
    if field == "claim_type":
        return "NoCert" if value == "RunWiseExact" else "RunWiseExact"
    if field == "mode":
        return next(m.value for m in Mode if m.value != value)
    if field == "ctx_digest":
        return f"{(int(value, 16) + step) % 2**256:064x}"
    if field == "tie_token":
        return str(1 - int(value))
    return str(int(value) + step)


@PROPERTY
@given(base=st.sampled_from(list(BASES)), mode=st.sampled_from(list(Mode)),
       seed=st.integers(0, 3),
       pick=st.integers(0, 2**16), field=st.sampled_from(TAMPER_FIELDS),
       step=st.sampled_from([1, -1, 2**20, -(2**40)]))
def test_tampering_a_replayed_field_is_detected(tmp_path, base, mode, seed,
                                                pick, field, step):
    graph, lines = _base_ledger(base, mode, seed)
    records = [json.loads(line) for line in lines[1:]]
    targets = [i for i, rec in enumerate(records, start=1)
               if rec.get("event") in TAMPER_EVENTS and field in rec]
    if not targets:
        return
    idx = targets[pick % len(targets)]
    rec = records[idx - 1]
    rec[field] = _tampered(rec[field], field, step)
    path = str(tmp_path / "tampered.ndjson")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([*lines[:idx],
                            json.dumps(rec, sort_keys=True,
                                       separators=(",", ":")),
                            *lines[idx + 1:]]) + "\n")
    verdict = validator.validate(path, graph,
                                 public_counts=graph.public_counts())
    assert not verdict.ok, (idx, field, rec)
