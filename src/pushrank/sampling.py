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

from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ContractViolationError, ValidationError

if TYPE_CHECKING:
    from .graph import Graph

__all__ = [
    "RngStream",
    "skip_sample",
    "alpha_walk_batch",
    "median_of_means",
]

_M64 = (1 << 64) - 1
# walks per uniforms call in alpha_walk_batch's step loop; a block's
# temporaries, at most 24 bytes a walk at once, stay in cache
_BLOCK = 1 << 15


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


def _gaps(rng: RngStream, log_q: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """One Geometric gap per entry of log_q = ln(1-p) by inversion,
    1 + floor(ln U / ln(1-p)) with U = 1 - uniform in (0, 1], capped at
    limit + 1.  The cap comes before the integer cast: tiny p makes the
    quotient overflow int64."""
    u = rng.uniforms(log_q.size)
    np.subtract(1.0, u, out=u)
    np.log(u, out=u)
    np.divide(u, log_q, out=u)
    np.floor(u, out=u)
    np.minimum(u, limit, out=u)
    gap = u.astype(np.int64)
    gap += 1
    return gap


def skip_sample(
    sizes: np.ndarray, probs: np.ndarray, rng: RngStream
) -> tuple[np.ndarray, np.ndarray]:
    """Include each position 1..sizes[i] of set i independently with
    probability probs[i]; return every inclusion as (owner, position).

    Each set jumps ahead by Geometric(probs[i]) gaps (Batagelj & Brandes,
    "Efficient generation of large random networks", 2005), drawn in
    blocks so that a call takes a few rounds rather than one per
    inclusion.  The first round draws one gap per set.  Each later round
    draws, in one block per set still short of its end, 1 + ceil(mu)
    gaps, where mu = (size - pos) * p is the set's expected number of
    further inclusions; a segmented cumulative sum turns them into
    positions.  Gaps that land past a set's end are drawn and counted but
    emit nothing, and a set whose last position is its end closes without
    a draw.  So the work is proportional to the number of inclusions plus
    one per set, and a call's draws are the sum of its block sizes.

    Inclusions come out round by round, and within a round set by set, so
    each set's positions are 1-based and strictly increasing.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    probs = np.asarray(probs, dtype=np.float64)
    # the initial values let an empty call through; a nan p fails both tests
    if sizes.min(initial=1) < 1:
        raise ValidationError(f"set sizes must be >= 1, got {int(sizes.min())}")
    if not (probs.min(initial=0.5) > 0.0 and probs.max(initial=0.5) < 1.0):
        raise ContractViolationError(
            "skip sampling needs probabilities in (0, 1); p <= 0 means no push "
            "and p >= 1 belongs to the deterministic branch"
        )
    log_q = np.log1p(-probs)
    pos = _gaps(rng, log_q, sizes)
    owner = (pos <= sizes).nonzero()[0]
    owners, positions = [owner], [pos[owner]]
    # the sets still short of their end, and the last position each reached
    active = (pos < sizes).nonzero()[0]
    last = pos[active]
    while active.size:
        size = sizes[active]
        remaining = size - last
        block = np.ceil(remaining * probs[active]).astype(np.int64)
        block += 1
        owner = active.repeat(block)
        stop = block.cumsum()
        # total[i] is the sum of the round's first i gaps, so a block's
        # gaps count on from its set's last position
        total = np.zeros(owner.size + 1, dtype=np.int64)
        _gaps(rng, log_q[owner], remaining.repeat(block)).cumsum(out=total[1:])
        position = total[1:]
        position += (last - total[stop - block]).repeat(block)
        inside = (position <= sizes[owner]).nonzero()[0]
        owners.append(owner[inside])
        positions.append(position[inside])
        last = position[stop - 1]
        live = (last < size).nonzero()[0]
        active, last = active[live], last[live]
    return np.concatenate(owners), np.concatenate(positions)


def alpha_walk_batch(
    g: Graph, starts: np.ndarray, alpha: float, rng: RngStream
) -> tuple[np.ndarray, int]:
    """Independent discounted walks, one per start: each step stops
    with probability alpha, otherwise moves to a uniform random neighbor.

    Each walk's move count is drawn up front by inversion,
    floor(ln U / ln(1 - alpha)) with U = 1 - uniform in (0, 1]: the
    Geometric law of a per-step stop coin, for one draw per walk.  The
    walks are stable-sorted by descending length, so the walks still
    moving at step s are a prefix of the sorted array; that prefix
    advances in place, in blocks of ``_BLOCK`` walks with one
    ``uniforms`` call per block.  The stream continues across calls, so
    the blocks draw the same numbers as one call per step would.  A walk
    therefore costs 1 + moves draws.  Returns (terminals aligned with
    starts, total moves); expected moves per walk are 1/alpha - 1.

    Memory: at most three int64 arrays per walk (the sort order, the
    positions and the terminals) plus O(``_BLOCK``) temporaries, on top
    of ``starts``, which may be a zero-stride broadcast.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0,1), got {alpha}")
    offsets, neighbors, degrees = g.offsets, g.neighbors, g.degrees
    starts = np.asarray(starts, dtype=np.int64)
    u = rng.uniforms(starts.shape[0])
    np.subtract(1.0, u, out=u)
    np.log(u, out=u)
    np.divide(u, np.log1p(-alpha), out=u)
    lengths = np.floor(u, out=u).astype(np.int64)
    del u
    longest = int(lengths.max(initial=0))
    moves = int(lengths.sum())
    # moving[s]: the walks with more than s moves, a prefix of the sorted walks
    moving = starts.shape[0] - np.bincount(lengths, minlength=longest + 1).cumsum()
    # ascending longest - lengths is descending length.  The stable radix
    # sort makes one pass over a uint8 key; longer walks sort on int64, in
    # place of the lengths
    key = lengths.astype(np.uint8) if longest < 1 << 8 else lengths
    np.subtract(longest, key, out=key)
    del lengths
    order = key.argsort(kind="stable")
    del key
    cur = starts[order]
    # floor(u * d) <= d - 1 holds with no clamp.  A uniform is at most
    # 1 - 2^-53, so the exact u * d is below d by at least d * 2^-53.  That
    # is more than half the float spacing just below d (exactly that
    # spacing when d is a power of two), so for d < 2^53 the product rounds
    # to a float below d.
    for k in moving[:longest].tolist():
        for lo in range(0, k, _BLOCK):
            c = cur[lo : min(lo + _BLOCK, k)]
            u = rng.uniforms(c.size)
            u *= degrees[c]
            j = u.astype(np.int64)
            j += offsets[c]
            np.take(neighbors, j, out=c)
    terminals = np.empty_like(cur)
    terminals[order] = cur
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
