"""Run randomness and the race arithmetic: draw addressing, exponential
arrivals of Q0.64 draws, the Exact winner/residual step and the Surrogate
Nub, arrival and leaf value (each shared by the engine and the race
reconstruction) and the PRF-perturbed Fallback value (engine and oracle-A).

Every draw is addressable by (seed, node digest, purpose tag), so a replay
or a race reconstruction obtains bit-identical values without carrying
generator state around.
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Callable, Sequence

from .fixedpoint import q0_64_value
from .prefix_dag import PrefixDag

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

PRF_DOMAIN_TAG = b"racecert/prf/v1"
PRF_DOMAIN = "leaf"  # of every leaf uniform

RawLookup = Callable[[bytes, str], int | None]  # (ctx digest, purpose) -> draw


class RateZeroError(ValueError):
    """Exponential rate 0: no arrival exists for a node with no leaves."""


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class RngStream:
    """Counter-based SplitMix64 stream keyed by (run seed, digest, purpose).

    Draws are pure functions of the address, so the engine, the validator
    and the race-reconstruction oracle all see identical values.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64

    def raw(self, digest: bytes, purpose: str, counter: int = 0) -> int:
        material = digest + purpose.encode("utf-8")
        material += b"\x00" * (-len(material) % 8)
        z = self.seed
        for word in struct.unpack(f">{len(material) >> 3}Q", material):
            z ^= word  # absorb, then the _mix64 finalizer inline
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            z ^= z >> 31
        return _mix64((z + _GOLDEN * (counter + 1)) & _MASK64)


def stream_lookup(stream: RngStream,
                  scripted: dict[tuple[str, str], int] | None = None,
                  graph: PrefixDag | None = None) -> RawLookup:
    """The engine's draw addressing: a draw scripted by the node's
    ``(state_label, purpose)`` (needs ``graph``), else the stream's."""
    if not scripted or graph is None:
        return stream.raw

    def lookup(digest: bytes, purpose: str) -> int:
        key = (graph.node(digest).state_label, purpose)
        if key in scripted:
            return scripted[key]
        return stream.raw(digest, purpose)

    return lookup


def exp_from_uniform(u: float, rate: int) -> float:
    """Inverse-CDF exponential with the compensated log1p transform."""
    if rate == 0:
        raise RateZeroError("rate 0: every node has a leaf, so its rate must be >= 1")
    if rate < 0:
        raise ValueError("negative rate")
    return -math.log1p(-u) / rate


def arrival(raw: int, rate: int) -> float:
    """The Exp(rate) quantile of the Q0.64 draw ``raw``."""
    return exp_from_uniform(q0_64_value(raw), rate)


def race_arrival(digest: bytes, rate: int, draw: RawLookup,
                 t: float) -> tuple[int, float]:
    """A context's ``"race"`` draw and its arrival ``max(t, Exp(rate))`` (a
    Surrogate's at Nub), never before ``t``, its parent's; a root passes 0.0."""
    raw = draw(digest, "race")
    return raw, max(t, arrival(raw, rate))


def surrogate_nub(count: int, factor: float) -> int:
    """Nub: ``ceil(factor * count)`` in integers, capped at 2**64 - 1, the
    ledger's largest (still >= count, since a certified count is below 2**63)."""
    p, q = factor.as_integer_ratio()
    nub = -(-p * count // q)
    return nub if nub <= _MASK64 else _MASK64


def quantile_cat(w: float, weights: Sequence[int]) -> int:
    """Categorical quantile: smallest i with w < cumsum(weights)[i]/total.

    Cells are half-open [c_{i-1}, c_i), so a boundary value falls into the
    next cell.  ``exact_step`` passes two or more counts, each >= 1.
    """
    total = sum(weights)
    acc = 0
    for i, x in enumerate(weights):
        acc += x
        if w < acc / total:
            return i
    return len(weights) - 1


def offset_propagate(
    t_parent: float,
    winner_idx: int,
    child_counts: Sequence[int],
    residual_uniforms: Sequence[float],
) -> list[float]:
    """Child arrival times after conditioning on the parent's first arrival.

    The winner reuses ``t_parent``; every non-winner adds an independent
    Exp(N(child)) residual from its uniform.  ``residual_uniforms`` holds one
    entry per non-winner child, in edge order.
    """
    arrivals: list[float] = []
    res = iter(residual_uniforms)
    for i, count in enumerate(child_counts):
        if i == winner_idx:
            arrivals.append(t_parent)
        else:
            arrivals.append(t_parent + exp_from_uniform(next(res), count))
    return arrivals


def exact_step(digest: bytes, t: float, children: Sequence[bytes],
               counts: Sequence[int], draw: RawLookup
               ) -> tuple[int | None, list[int | None], list[float]]:
    """Expand ``digest``, reached at arrival ``t``, in the lazily-propagated
    Exact race: the winner draw (None for an only child), each child's
    residual draw (None for the winner) and the child arrivals."""
    w_raw, winner = None, 0
    if len(children) > 1:
        w_raw = draw(digest, "winner")
        winner = quantile_cat(q0_64_value(w_raw), counts)
    raws = [None if i == winner else draw(child, "residual")
            for i, child in enumerate(children)]
    return w_raw, raws, offset_propagate(
        t, winner, counts, [q0_64_value(r) for r in raws if r is not None])


def prf_raw(salt: bytes, domain: str, leaf_id: bytes) -> int:
    h = hashlib.sha256(PRF_DOMAIN_TAG + salt + domain.encode("utf-8") + leaf_id)
    return int.from_bytes(h.digest()[:8], "big")


def gumbel_from_uniform(u: float) -> float:
    return -math.log(-math.log(u))


def surrogate_value(salt: bytes, digest: bytes, score: float,
                    t: float) -> tuple[float, int]:
    """A leaf's value ``s - log max(t, E)``, never above the key its parent's
    arrival ``t`` gave it, and the PRF uniform of E ~ Exp(1)."""
    raw = prf_raw(salt, PRF_DOMAIN, digest)
    return score - math.log(max(t, arrival(raw, 1))), raw


def fallback_value(salt: bytes, digest: bytes, score: float, tau: float) -> float:
    """A leaf's PRF-perturbed value ``G/tau + s - log E``: the Gumbel G and
    the Exp(1) arrival E both come from the leaf's one PRF uniform."""
    raw = prf_raw(salt, PRF_DOMAIN, digest)
    return (gumbel_from_uniform(q0_64_value(raw)) / tau + score
            - math.log(arrival(raw, 1)))
