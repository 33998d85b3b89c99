import math

import numpy as np
import pytest
from scipy import stats

from racecert import race
from racecert.fixedpoint import encode_q0_64


def test_exp_from_uniform_examples():
    assert math.isclose(race.exp_from_uniform(0.5, 2), 0.34657359, abs_tol=1e-6)
    assert math.isclose(-math.log(race.exp_from_uniform(0.5, 2)),
                        1.0596601, abs_tol=1e-6)
    assert math.isclose(race.exp_from_uniform(0.20, 4), 0.055786, abs_tol=1e-5)
    assert math.isclose(race.exp_from_uniform(1 - math.e**-1, 1), 1.0,
                        rel_tol=1e-12)


def test_rate_zero_raises():
    with pytest.raises(race.RateZeroError):
        race.exp_from_uniform(0.5, 0)


def test_quantile_cat_examples():
    assert race.quantile_cat(0.70, [3, 1]) == 0
    assert race.quantile_cat(0.75, [3, 1]) == 1  # half-open cell boundary
    assert race.quantile_cat(0.0, [1, 1]) == 0
    assert race.quantile_cat(0.5, [1, 1]) == 1


def test_open_uniform_never_hits_endpoints():
    assert 0.0 < race.open_uniform(0) < 1.0
    assert 0.0 < race.open_uniform((1 << 64) - 1) < 1.0


def test_rng_stream_is_pure_and_address_sensitive():
    s = race.RngStream(42)
    a = s.raw(b"\x01" * 32, "race")
    assert a == s.raw(b"\x01" * 32, "race")
    assert a != s.raw(b"\x01" * 32, "winner")
    assert a != s.raw(b"\x02" * 32, "race")
    assert a != race.RngStream(43).raw(b"\x01" * 32, "race")


def test_offset_propagate_child_minimum_law():
    # Lemma: min of the propagated child arrivals ~ Exp(N(v)); winner
    # frequencies match N(u)/N(v).
    rng = np.random.default_rng(123)
    trials = 100_000
    counts = [3, 1]
    t_parent = rng.exponential(1 / 4, size=trials)
    mins = np.empty(trials)
    winners = np.empty(trials, dtype=int)
    for i in range(trials):
        w = rng.random()
        winner = race.quantile_cat(w, counts)
        arrivals = race.offset_propagate(
            t_parent[i], winner, counts, [rng.random()])
        mins[i] = min(arrivals)
        winners[i] = winner
    ks = stats.kstest(mins, "expon", args=(0, 1 / 4))
    assert ks.pvalue > 0.01
    chi = stats.chisquare(np.bincount(winners, minlength=2),
                          [trials * 3 / 4, trials * 1 / 4])
    assert chi.pvalue > 0.01


def test_exact_leaf_coupling_closed_forms():
    u, e, g = race.exact_leaf_coupling(math.log(2))
    assert math.isclose(u, 0.5, rel_tol=1e-12)
    assert math.isclose(g, -math.log(math.log(2)), rel_tol=1e-12)
    assert math.isclose(g, 0.36651292, abs_tol=1e-6)
    # Round trip at rate 1 recovers the arrival.
    t = 0.055786
    u, e, _ = race.exact_leaf_coupling(t)
    assert math.isclose(u, 0.054259, abs_tol=1e-5)
    assert math.isclose(race.exp_from_uniform(u, 1), t, rel_tol=1e-12)


def test_gumbel_from_uniform():
    assert math.isclose(race.gumbel_from_uniform(math.e**-1), 0.0,
                        abs_tol=1e-12)
    assert math.isclose(race.gumbel_from_uniform(0.5), 0.36651292,
                        abs_tol=1e-6)


def test_gumbel_prf_mean_matches_euler_gamma():
    salt = b"\x07" * 8
    draws = [race.gumbel_from_uniform(
        race.open_uniform(race.prf_raw(salt, "leaf", i.to_bytes(4, "big"))))
        for i in range(100_000)]
    assert abs(np.mean(draws) - 0.5772) < 0.01


def test_prf_is_deterministic_and_salt_sensitive():
    a = race.prf_raw(b"\x01" * 8, "leaf", b"\xaa" * 32)
    assert a == race.prf_raw(b"\x01" * 8, "leaf", b"\xaa" * 32)
    assert a != race.prf_raw(b"\x02" * 8, "leaf", b"\xaa" * 32)
    assert a != race.prf_raw(b"\x01" * 8, "other", b"\xaa" * 32)


def test_coupling_monotonicity_prop1():
    for raw in (encode_q0_64(0.1), encode_q0_64(0.5), encode_q0_64(0.999)):
        u = race.open_uniform(raw)
        for n, n_ub in ((1, 1), (2, 5), (7, 7), (3, 100)):
            t_hat = race.exp_from_uniform(u, n_ub)
            assert t_hat <= race.exp_from_uniform(u, n) + 1e-18
