"""Seeded randomness, geometric skip sampling, discounted walks,
and the median-of-means aggregator.

Randomness contract: every stream is a Philox4x64 counter-based
generator keyed by ``(seed, stream_id)``, so distinct stream ids are
independent by construction and identical ``(seed, stream_id)`` pairs
replay bit-identical sequences on any platform.  Substreams derive a
fresh stream id through a splitmix64 mix of the parent id and the child
index; this rule is part of the compatibility contract.  Every uniform
variate consumed is counted in ``RngStream.draws``.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ContractViolationError, ValidationError
from .graph import Graph

__all__ = [
    "RngStream",
    "skip_sample",
    "alpha_walk_batch",
    "median_of_means",
]

_M64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


class RngStream:
    """Single-owner random stream with an exact draw counter.

    One stream per query or repetition; never share a stream between
    concurrent workers.
    """

    __slots__ = ("seed", "stream_id", "draws", "_gen")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _M64
        self.stream_id = int(stream_id) & _M64
        self.draws = 0
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniforms(self, size: int) -> np.ndarray:
        """Vector of uniform draws in [0, 1); counts ``size`` draws."""
        self.draws += int(size)
        return self._gen.random(size)

    def substream(self, index: int) -> "RngStream":
        """Independent child stream; derivation rule is fixed:
        stream_id' = splitmix64(stream_id * 2^32 + index + 1)."""
        child = _splitmix64(((self.stream_id << 32) + index + 1) & _M64)
        return RngStream(self.seed, child)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id}, draws={self.draws})"


def skip_sample(
    sizes: np.ndarray, probs: np.ndarray, rng: RngStream
) -> tuple[np.ndarray, np.ndarray]:
    """Include each position 1..sizes[i] of set i independently with
    probability probs[i]; return every inclusion as (owner, position).

    Each set jumps ahead by Geometric(probs[i]) gaps drawn by inversion,
    1 + floor(ln U / ln(1-p)) with U = 1 - uniform in (0, 1], so the work
    is proportional to the number of inclusions plus one per set.  All
    sets still short of their end draw together, one uniform each per
    round in set order; inclusions come out round by round, so each
    set's positions are 1-based and strictly increasing.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    probs = np.asarray(probs, dtype=np.float64)
    if np.any(sizes < 1):
        raise ValidationError(f"set sizes must be >= 1, got {int(sizes.min())}")
    if not np.all((probs > 0.0) & (probs < 1.0)):
        raise ContractViolationError(
            "skip sampling needs probabilities in (0, 1); p <= 0 means no push "
            "and p >= 1 belongs to the deterministic branch"
        )
    log_q = np.log1p(-probs)
    pos = np.zeros(sizes.size, dtype=np.int64)
    active = np.arange(sizes.size)
    owners, positions = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    while active.size:
        u = 1.0 - rng.uniforms(active.size)  # (0, 1]
        gap_f = np.floor(np.log(u) / log_q[active]) + 1.0
        remaining = sizes[active] - pos[active]
        # clamp before the cast: tiny p makes gap_f overflow int64
        gap = np.where(gap_f > remaining, remaining + 1, gap_f).astype(np.int64)
        pos[active] += gap
        active = active[pos[active] <= sizes[active]]
        owners.append(active)
        positions.append(pos[active])
    return np.concatenate(owners), np.concatenate(positions)


def alpha_walk_batch(
    g: Graph, starts: np.ndarray, alpha: float, rng: RngStream
) -> tuple[np.ndarray, int]:
    """Independent discounted walks, one per start: each step stops
    with probability alpha, otherwise moves to a uniform random neighbor.

    All live walks advance together, one stop draw each per step and one
    neighbor draw per mover.  Returns (terminals aligned with starts,
    total moves); expected moves per walk are 1/alpha - 1.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0,1), got {alpha}")
    offsets, neighbors, degrees = g.offsets, g.neighbors, g.degrees
    cur = np.asarray(starts, dtype=np.int64).copy()
    terminals = np.empty_like(cur)
    alive = np.arange(cur.shape[0], dtype=np.int64)
    moves = 0
    while alive.size:
        k = alive.size
        stop = rng.uniforms(k) < alpha
        stopped = alive[stop]
        terminals[stopped] = cur[stopped]
        movers = alive[~stop]
        if movers.size:
            d = degrees[cur[movers]]
            j = np.minimum((rng.uniforms(movers.size) * d).astype(np.int64), d - 1)
            cur[movers] = neighbors[offsets[cur[movers]] + j]
            moves += movers.size
        alive = movers
    return terminals, moves


def median_of_means(estimates: Sequence[float] | np.ndarray, groups: int) -> float:
    """Median of contiguous-chunk means; groups == 1 is the plain mean.

    Chunks follow the array_split convention (first chunks one longer
    when the length is not divisible).  Even group counts take the lower
    median so the output is always one of the chunk means.
    """
    values = np.asarray(estimates, dtype=np.float64)
    if values.size == 0:
        raise ValidationError("estimates must be nonempty")
    if not 1 <= groups <= values.size:
        raise ValidationError(f"groups must be in [1, {values.size}], got {groups}")
    means = np.array([chunk.mean() for chunk in np.array_split(values, groups)])
    means.sort()
    return float(means[(groups - 1) // 2])
