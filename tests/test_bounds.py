import math

import pytest

from racecert import bounds
from racecert.generators import random_tree
from racecert.prefix_dag import compile_dag


@pytest.mark.parametrize("recipe, table", [
    (bounds.MtauRecipe.R2, {"n": 1.0}), (bounds.MtauRecipe.R3, {"n": 1.0}),
    (bounds.MtauRecipe.FIXED, {})], ids=str)
def test_mtau_config_takes_a_table_exactly_under_fixed(recipe, table):
    with pytest.raises(ValueError, match="FIXED needs a fixed_table"):
        bounds.MtauConfig(recipe, table)


def test_mtau_r2_admissible_with_nonnegative_costs():
    # Costs >= 0 make the prefix score non-increasing, so the prefix itself
    # is a monotone remainder envelope.
    for seed in range(20):
        graph, _ = compile_dag(random_tree(seed))
        cfg = bounds.MtauConfig(recipe=bounds.MtauRecipe.R2)
        for digest, node in graph.unfold().items():
            bound = bounds.mtau(node, cfg)
            for leaf in graph.walk(digest):
                assert not leaf.is_leaf or bound >= leaf.prefix_score - 1e-12


def test_lse_truncation_empty_tail():
    assert math.isclose(
        bounds.lse_truncation_bound(1.5, 0.0, [0.0] * 10, 1.0, 2),
        1.5 + math.log(2), rel_tol=1e-12)


def test_lse_truncation_geometric_closed_form():
    b_k = [2.0**k for k in range(200)]
    val = bounds.lse_truncation_bound(float("-inf"), 0.0, b_k, 1.0, 2)
    x = 2 / math.e
    closed = 3 * math.log(x) - math.log(1 - x)
    assert math.isclose(val, closed + math.log(2), abs_tol=1e-9)


def test_lse_truncation_sound_on_enumerable_trees():
    for seed in range(20):
        shared = random_tree(seed, c_s_max=2.0)
        graph, _ = compile_dag(shared)
        # Per-edge costs are >= 0 but not bounded below by caps.c_s_min for
        # this family, so use the trivially valid floor c = 0 via b_k built
        # from realized leaf scores instead: bound with exact depth counts.
        leaves = [n.ctx_digest for n in graph.walk() if n.is_leaf]
        scores = {d: graph.node(d).prefix_score for d in leaves}
        exact = math.log(math.fsum(math.exp(s) for s in scores.values()))
        depth_max = max(graph.node(d).depth for d in leaves)
        c_min = 1e-9
        b_k = [0.0] * (depth_max + 1)
        for d in leaves:
            node = graph.node(d)
            # Count each depth-k leaf against the envelope s_ref - k*c.
            b_k[node.depth] += 1.0
        s_ref = max(scores.values()) + c_min * depth_max
        for k_cut in range(depth_max + 1):
            partial = [scores[d] for d in leaves
                       if graph.node(d).depth <= k_cut]
            partial_lse = (math.log(math.fsum(math.exp(s) for s in partial))
                           if partial else float("-inf"))
            val = bounds.lse_truncation_bound(partial_lse, s_ref, b_k,
                                              c_min, k_cut)
            assert val >= exact - 1e-9


def test_phi_decreases_by_eta_on_trees():
    cfg = bounds.PhiConfig(step_cap=10, alpha=0.0, eta=1.0, c_s_min=1.0)
    graph, _ = compile_dag(random_tree(3))
    for digest, node in graph.unfold().items():
        for child in graph.children(digest):
            before = bounds.phi(node, cfg)
            after = bounds.phi(graph.node(child), cfg)
            assert bounds.check_expansion(before, after, cfg) \
                is bounds.ExpansionCheck.OK


def test_check_expansion_fails_iff_drop_too_small():
    cfg = bounds.PhiConfig(step_cap=10, alpha=0.0, eta=1.0, c_s_min=1.0)
    assert bounds.check_expansion(5.0, 4.0, cfg) is bounds.ExpansionCheck.OK
    assert bounds.check_expansion(5.0, 4.5, cfg) \
        is bounds.ExpansionCheck.ACYCLICITY_FAIL
    assert bounds.check_expansion(5.0, 5.0, cfg) \
        is bounds.ExpansionCheck.ACYCLICITY_FAIL


def test_phi_config_rejects_incompatible_eta():
    with pytest.raises(ValueError):
        bounds.PhiConfig(step_cap=10, alpha=2.0, eta=2.0, c_s_min=0.1)


def test_kappa_closed_forms():
    assert math.isclose(bounds.kappa(3, 6), -math.log(2), rel_tol=1e-12)
    assert bounds.kappa(4, 4) == 0.0
    with pytest.raises(bounds.KappaInvalidError):
        bounds.kappa(6, 3)
    with pytest.raises(bounds.KappaInvalidError):
        bounds.kappa(0, 3)
