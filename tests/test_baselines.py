"""Baseline comparators against the shared realized race."""

import math

import pytest

from racecert import baselines, search
from racecert.baselines import EULER_GAMMA, beam_k, dist_level, greedy_by_bound, oracle_a
from racecert.bounds import MtauConfig, MtauRecipe
from racecert.generators import (
    ADVERSARIAL_SEED,
    adversarial_graph,
    toy_graph,
    toy_mtau,
)
from racecert.prefix_dag import DagNode, PublicCaps, SharedDag, compile_dag
from racecert.race import RngStream, stream_lookup
from racecert.reconstruct import exact_leaf_values, exact_race, oracle_optimum
from racecert.search import Mode, RunConfig


def _values(graph, lookup):
    return exact_leaf_values(graph, exact_race(graph, lookup))


def _toy():
    graph, cert = compile_dag(toy_graph())
    assert cert.ok
    return graph


def test_single_leaf_graph():
    nodes = {"r": DagNode("r", "r", False), "p": DagNode("p", "p", True)}
    dag = SharedDag(nodes=nodes, edges=[("r", "p", 0)], root_id="r",
                    caps=PublicCaps(max_depth=2, c_s_max=1.0, c_s_min=1.0))
    graph, cert = compile_dag(dag)
    assert cert.ok
    lookup = stream_lookup(RngStream(3))
    res = greedy_by_bound(graph, MtauConfig(), _values(graph, lookup))
    winner, value = oracle_optimum(graph, lookup)
    assert res.found_leaf == winner.hex()
    assert math.isclose(res.found_value, value)
    assert not res.pruned_winner
    assert res.expansions == 2  # root, then its only leaf


def test_beam_infinite_is_exhaustive():
    graph = _toy()
    lookup = stream_lookup(RngStream(5))
    res = beam_k(graph, float("inf"), toy_mtau(), _values(graph, lookup))
    winner, value = oracle_optimum(graph, lookup)
    # An infinite beam expands every context, so every leaf, exactly once.
    assert res.expansions == len(graph.unfold())
    assert not res.pruned_winner
    assert math.isclose(res.found_value, value)


def test_beam_width_one_narrows():
    graph, cert = compile_dag(adversarial_graph())
    assert cert.ok
    lookup = stream_lookup(RngStream(ADVERSARIAL_SEED))
    narrow = beam_k(graph, 1, MtauConfig(), _values(graph, lookup))
    full = beam_k(graph, float("inf"), MtauConfig(), _values(graph, lookup))
    assert narrow.expansions < full.expansions
    assert narrow.found_value <= full.found_value
    with pytest.raises(ValueError):
        beam_k(graph, 0, MtauConfig(), _values(graph, lookup))


def test_dist_level_score_is_additive():
    # The distribution-level key replaces the realized -log t with its mean
    # gamma + log N; on the toy root that offset is gamma + log 4.
    assert math.isclose(EULER_GAMMA + math.log(4), 1.96351, abs_tol=1e-5)
    graph = _toy()
    lookup = stream_lookup(RngStream(5))
    res = dist_level(graph, toy_mtau(), _values(graph, lookup))
    _, value = oracle_optimum(graph, lookup)
    assert res.found_value <= value + 1e-12
    assert res.pruned_winner == (not math.isclose(res.found_value, value))


def test_greedy_never_beats_oracle():
    for seed in range(10):
        graph = _toy()
        lookup = stream_lookup(RngStream(seed))
        res = greedy_by_bound(graph, toy_mtau(), _values(graph, lookup))
        _, value = oracle_optimum(graph, lookup)
        assert res.found_value <= value + 1e-12


def test_adversarial_seed_regression():
    graph, cert = compile_dag(adversarial_graph())
    assert cert.ok
    cfg_m = MtauConfig()
    lookup = stream_lookup(RngStream(ADVERSARIAL_SEED))
    base = dist_level(graph, cfg_m, _values(graph, lookup))
    assert base.pruned_winner
    winner, _ = oracle_optimum(graph, lookup)
    result = search.run(graph, Mode.EXACT,
                        RunConfig(mtau=cfg_m, seed=ADVERSARIAL_SEED))
    assert result.incumbent_leaf == winner.hex()


def test_oracle_a_pops_argmax_only():
    graph = _toy()
    salt = (9).to_bytes(8, "big")
    pops = oracle_a(graph, salt, tau=1.0)
    assert len(pops) == 1
    # Matches the fallback engine's incumbent under the same PRF addressing.
    cfg = RunConfig(mtau=toy_mtau(), seed=0, salt=salt)
    res = search.run(graph, Mode.FALLBACK, cfg)
    assert res.incumbent_leaf == pops[0].hex()


def test_oracle_a_deterministic():
    graph = _toy()
    salt = (7).to_bytes(8, "big")
    assert oracle_a(graph, salt) == oracle_a(graph, salt)
    assert oracle_a(graph, salt) != oracle_a(graph, (8).to_bytes(8, "big"))
