import math
import random

import numpy as np
import pytest
from scipy import stats

from racecert import race
from racecert.fixedpoint import encode_q0_64, q0_64_value


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


def test_rng_stream_is_pure_and_address_sensitive():
    s = race.RngStream(42)
    a = s.raw(b"\x01" * 32, "race")
    assert a == s.raw(b"\x01" * 32, "race")
    assert a != s.raw(b"\x01" * 32, "winner")
    assert a != s.raw(b"\x02" * 32, "race")
    assert a != race.RngStream(43).raw(b"\x01" * 32, "race")


def _raw_per_word(seed: int, digest: bytes, purpose: str, counter: int) -> int:
    """``RngStream.raw`` as first written: slice a word, ``int.from_bytes``,
    then the SplitMix64 finalizer, per 8 bytes of padded material."""
    mask = (1 << 64) - 1

    def mix64(z):
        z &= mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    z = seed & mask
    material = digest + purpose.encode("utf-8")
    material += b"\x00" * ((-len(material)) % 8)
    for i in range(0, len(material), 8):
        z = mix64(z ^ int.from_bytes(material[i:i + 8], "big"))
    return mix64((z + 0x9E3779B97F4A7C15 * (counter + 1)) & mask)


def test_rng_raw_matches_the_per_word_loop():
    rng = random.Random(11)
    seeds = [0, 1, (1 << 64) - 1, rng.getrandbits(64), rng.getrandbits(80)]
    digests = [rng.randbytes(n) for n in range(41)]
    purposes = ["race", "winner", "residual", "uuid", "", "résidu-λ"]
    counters = [0, 1, 1 << 32, rng.getrandbits(100)]
    for seed in seeds:
        stream = race.RngStream(seed)
        for digest in digests:
            for purpose in purposes:
                for counter in counters:
                    assert stream.raw(digest, purpose, counter) == \
                        _raw_per_word(seed, digest, purpose, counter)


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


def test_gumbel_from_uniform():
    assert math.isclose(race.gumbel_from_uniform(math.e**-1), 0.0,
                        abs_tol=1e-12)
    assert math.isclose(race.gumbel_from_uniform(0.5), 0.36651292,
                        abs_tol=1e-6)


def test_gumbel_prf_mean_matches_euler_gamma():
    salt = b"\x07" * 8
    draws = [race.gumbel_from_uniform(
        q0_64_value(race.prf_raw(salt, "leaf", i.to_bytes(4, "big"))))
        for i in range(100_000)]
    assert abs(np.mean(draws) - 0.5772) < 0.01


def test_prf_is_deterministic_and_salt_sensitive():
    a = race.prf_raw(b"\x01" * 8, "leaf", b"\xaa" * 32)
    assert a == race.prf_raw(b"\x01" * 8, "leaf", b"\xaa" * 32)
    assert a != race.prf_raw(b"\x02" * 8, "leaf", b"\xaa" * 32)
    assert a != race.prf_raw(b"\x01" * 8, "other", b"\xaa" * 32)


def test_coupling_monotonicity_prop1():
    for raw in (encode_q0_64(0.1), encode_q0_64(0.5), encode_q0_64(0.999)):
        u = q0_64_value(raw)
        for n, n_ub in ((1, 1), (2, 5), (7, 7), (3, 100)):
            t_hat = race.exp_from_uniform(u, n_ub)
            assert t_hat <= race.exp_from_uniform(u, n) + 1e-18
