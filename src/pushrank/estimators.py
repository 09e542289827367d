"""Single-node PageRank estimators with exact cost accounting.

Four methods, one contract: given a target node and an error
configuration, return an ``Estimate`` holding the value plus counters
(residue increments, walk moves, RNG draws) that make cost claims
testable without wall clocks.

* ``setpush`` propagates hop-indexed residues backward from the target,
  pushing deterministically while the per-neighbor share is large and
  switching to geometric-skip Bernoulli sampling of neighbors once the
  share drops below the push threshold times the degree.
* ``reverse_mc`` tallies discounted walks started at the target and
  reweights terminals by the degree ratio (valid on undirected graphs,
  where PPR mass is reversible).
* ``forward_mc`` is the classic estimator: walks from uniform sources,
  fraction terminating at the target.
* ``local_push`` is the deterministic backward push, run in rounds that
  push every node whose residue clears epsilon at once.

Both Monte-Carlo methods run all their walks in one ``alpha_walk_batch``
call, which draws each walk's length up front and then advances the
walks still moving as one array, one draw per move.
"""
from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, ValidationError
from .graph import Graph
from .oracle import truncation_levels
from .sampling import RngStream, alpha_walk_batch, median_of_means, skip_sample

__all__ = [
    "EstimatorConfig",
    "Estimate",
    "compute_threshold",
    "setpush",
    "reverse_mc",
    "forward_mc",
    "local_push",
    "amplified",
    "ESTIMATORS",
]


@dataclass
class EstimatorConfig:
    """Shared knobs: teleport probability, relative error target,
    failure probability, and an override for the derived push threshold.

    ``cost_constant`` scales the derived push threshold downward; the
    default 4 follows the Chebyshev derivation that carries an explicit
    failure-probability factor.  ``failure_prob`` must stay inside
    (0, 1), so the coarser published threshold alpha*c^2/(12*levels),
    which has no such factor, is built as cost_constant = 12 *
    failure_prob (1.2 at the default failure_prob 0.1).
    """

    alpha: float = 0.2
    c: float = 0.1
    failure_prob: float = 0.1
    threshold_override: float | None = None
    cost_constant: float = 4.0

    def __post_init__(self):
        # a spec's configs reach here unchecked: a str or a list would end
        # in a TypeError below, and a bool is an int to Python
        for name in ("alpha", "c", "failure_prob", "cost_constant", "threshold_override"):
            value = getattr(self, name)
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, numbers.Real)
            ):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0,1), got {self.alpha}")
        # written so that nan fails too: a nan or infinite threshold would
        # hand the skip sampler a probability outside (0, 1)
        if not 0.0 < self.c < math.inf:
            raise ConfigError(f"relative error c must be finite and > 0, got {self.c}")
        if not 0.0 < self.failure_prob < 1.0:
            raise ConfigError(f"failure_prob must be in (0,1), got {self.failure_prob}")
        if not 0.0 < self.cost_constant < math.inf:
            raise ConfigError(f"cost_constant must be finite and > 0, got {self.cost_constant}")
        if self.threshold_override is not None and not 0.0 < self.threshold_override < math.inf:
            raise ConfigError(
                f"threshold_override must be finite and > 0, got {self.threshold_override}"
            )

    def levels(self, n: int) -> int:
        """Hop cutoff for the truncated score this config targets."""
        return truncation_levels(n, self.alpha, self.c)


@dataclass
class Estimate:
    """Scalar estimate plus machine-independent cost counters.

    ``derived`` holds the parameters the estimator derived and used:
    ``theta`` for setpush, ``walks`` for the Monte-Carlo methods,
    ``epsilon`` for local_push.
    """

    value: float
    pushes: int = 0
    walk_steps: int = 0
    rng_draws: int = 0
    wall_nanos: int = 0
    derived: dict = field(default_factory=dict)


def compute_threshold(g: Graph, t: int, cfg: EstimatorConfig) -> float:
    """The push threshold ``setpush`` runs with: ``cfg.threshold_override``
    when it is set, and otherwise the derived default.

    The default is (alpha * c^2 * failure_prob / (cost_constant * levels))
    scaled by max{1/d_t, sqrt(2(1-alpha)/m)}: the first branch caps
    expected work near the target's degree, the second near sqrt(m).
    Larger c or failure probability relax the threshold and cut pushes.
    A c whose square leaves float range makes it 0 or infinite, which is
    a ConfigError: an infinite threshold leaves every sampled neighbor
    probability 0.
    """
    if cfg.threshold_override is not None:
        return cfg.threshold_override
    levels = cfg.levels(g.node_count)
    d_t = g.degree(t)
    m = g.edge_count
    scale = cfg.alpha * (cfg.c * cfg.c) * cfg.failure_prob / (cfg.cost_constant * levels)
    threshold = scale * max(1.0 / d_t, math.sqrt(2.0 * (1.0 - cfg.alpha) / m))
    if not 0.0 < threshold < math.inf:
        raise ConfigError(f"c = {cfg.c} makes the push threshold {threshold}, not finite and > 0")
    return threshold


def _concat_slices(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate arange(start, start+length) runs without Python loops."""
    total = int(lengths.sum())
    out = np.ones(total, dtype=np.int64)
    out[0] = starts[0]
    ends = np.cumsum(lengths)
    out[ends[:-1]] = starts[1:] - (starts[:-1] + lengths[:-1]) + 1
    return np.cumsum(out)


def _accumulate(
    n: int,
    idx: np.ndarray,
    weights: np.ndarray,
    hits: np.ndarray = np.empty(0, dtype=np.int64),
    hit_weight: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Sum ``weights`` by node in ``idx``, then add ``hit_weight`` once per
    entry of ``hits``: (ascending nodes, their sums).

    At most n/8 entries in all go through ``unique`` + ``bincount``, in
    time proportional to the entries; more go through one length-n
    ``bincount`` and ``np.add.at``, whose O(n) pass they pay for.  Either
    way every sum adds its terms in input order, so the result does not
    depend on which path ran.  Weights must be positive: the dense path
    keeps the nodes whose sum is.
    """
    if 8 * (idx.size + hits.size) <= n:
        nodes, inv = np.unique(np.concatenate([idx, hits]), return_inverse=True)
        sums = np.bincount(
            inv, weights=np.concatenate([weights, np.full(hits.size, hit_weight)])
        )
        return nodes, sums
    if idx.size:
        acc = np.bincount(idx, weights=weights, minlength=n)
    else:  # bincount of nothing is an integer array, whatever its weights
        acc = np.zeros(n)
    np.add.at(acc, hits, hit_weight)
    nodes = np.flatnonzero(acc > 0.0)  # a bool mask scans faster than floats
    return nodes, acc[nodes]


def _setpush_levels(
    g: Graph, t: int, cfg: EstimatorConfig, threshold: float, rng: RngStream
):
    """setpush's hop levels, one at a time: yields (ascending nodes, their
    residues, their degrees, pushes made) for level 0, which is the
    target's unit residue with no pushes, and then for every later level
    up to ``cfg.levels(n)`` or the first empty one, which is yielded too.

    The arrays are the frontier the next level is pushed from; callers
    read them and must not write to them.
    """
    n = g.node_count
    offsets, neighbors, degrees = g.offsets, g.neighbors, g.degrees
    alpha = cfg.alpha
    nodes = np.array([t], dtype=np.int64)
    vals = np.array([1.0])
    deg_nz = degrees[nodes]
    yield nodes, vals, deg_nz, 0

    for _ in range(cfg.levels(n)):
        if nodes.size == 0:
            return
        share = (1.0 - alpha) * vals
        # single fp criterion for both branches: deterministic iff the
        # per-neighbor probability would reach 1
        prob = share / (threshold * deg_nz)
        det = prob >= 1.0
        det_idx = hit = np.empty(0, dtype=np.int64)
        det_w = np.empty(0)

        det_nodes = nodes[det]
        if det_nodes.size:
            lens = deg_nz[det]
            det_idx = neighbors[_concat_slices(offsets[det_nodes], lens)]
            det_w = np.repeat(share[det] / lens, lens)

        samp_nodes = nodes[~det]
        if samp_nodes.size:
            owner, position = skip_sample(deg_nz[~det], prob[~det], rng)
            hit = neighbors[offsets[samp_nodes[owner]] + position - 1]

        nodes, vals = _accumulate(n, det_idx, det_w, hit, threshold)
        deg_nz = degrees[nodes]
        yield nodes, vals, deg_nz, det_idx.size + hit.size


def setpush(g: Graph, t: int, cfg: EstimatorConfig, rng: RngStream) -> Estimate:
    """Randomized backward set-push estimate of node t's PageRank.

    Starts with unit residue at the target and, for each hop level, either
    pushes a node's discounted residue share to every neighbor (when the
    share clears threshold * degree) or Bernoulli-samples neighbors via
    geometric skips and credits them a full threshold each.  The settled
    mass, degree-reweighted, estimates the truncated PageRank, which is
    within c/2 relative error of the true score by construction of the
    hop cutoff.

    ``pushes`` counts every residue increment.  Iteration over nonzero
    residues is in ascending node order so runs are bit-reproducible for
    a fixed stream.

    The levels come from ``_setpush_levels``, which holds each frontier
    as (ascending nodes, residues), so a level costs time in its own
    pushes, not in n: ``_accumulate`` sums a level's increments (the
    deterministic shares, then the sampled hits) with ``unique`` +
    ``bincount`` or, on a level with more than n/8 of them, in one dense
    array, to the same bits.  The sampled neighbors of a whole level come
    from one block-drawn ``skip_sample`` call.  Settled mass is never
    stored: each level adds alpha * sum(residue / degree) over its own
    frontier to a scalar, so a query with small frontiers makes no pass
    over all n nodes.
    """
    g._check_node(t)
    threshold = compute_threshold(g, t, cfg)
    start_draws = rng.draws
    t0 = time.perf_counter_ns()
    # the degree-weighted settled mass, sum over levels of alpha * residue / d
    settled = 0.0
    pushes = 0
    for _, vals, deg_nz, level_pushes in _setpush_levels(g, t, cfg, threshold, rng):
        settled += cfg.alpha * np.sum(vals / deg_nz)
        pushes += level_pushes

    return Estimate(
        value=float(g.degrees[t]) / g.node_count * float(settled),
        pushes=pushes,
        walk_steps=0,
        rng_draws=rng.draws - start_draws,
        wall_nanos=time.perf_counter_ns() - t0,
        derived={"theta": threshold},
    )


def _default_walks(cfg: EstimatorConfig, scale: float, factor: float = 1.0) -> int:
    """ceil(scale / (c^2 alpha) * factor), the Monte-Carlo methods' default
    walk count.  A c whose c^2 alpha leaves float range, or so small that
    the count does, is a ConfigError, not a ZeroDivisionError or
    OverflowError."""
    denominator = cfg.c * cfg.c * cfg.alpha
    if not 0.0 < denominator < math.inf:
        raise ConfigError(
            f"c = {cfg.c} makes the default walk count divide by c^2 alpha = {denominator}"
        )
    walks = scale / denominator * factor
    if not walks < math.inf:
        raise ConfigError(f"c = {cfg.c} makes the default walk count infinite")
    return math.ceil(walks)


def _check_int(name: str, value, low: int) -> None:
    # a bool is an int to Python; a float or str would only fail later, as a
    # TypeError or ValueError from numpy (a float walk count reaches np.full)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")


def reverse_mc(
    g: Graph,
    t: int,
    cfg: EstimatorConfig,
    rng: RngStream,
    walks: int | None = None,
) -> Estimate:
    """Monte-Carlo estimate from walks started at the target.

    Each walk's terminal s contributes d_t / (n * d_s); averaging over
    walks gives an unbiased estimate of the true score with variance at
    most d_t * pi(t) / (n * walks).  The default walk count
    ceil(3 d_t / (c^2 alpha)) makes a single run a constant-probability
    relative-error estimate.
    """
    g._check_node(t)
    d_t = g.degree(t)
    if walks is None:
        walks = _default_walks(cfg, 3.0 * d_t)
    _check_int("walks", walks, 1)
    n = g.node_count
    start_draws = rng.draws
    t0 = time.perf_counter_ns()
    terminals, moves = alpha_walk_batch(
        g, np.full(walks, t, dtype=np.int64), cfg.alpha, rng
    )
    acc = float(np.sum(1.0 / g.degrees[terminals]))
    return Estimate(
        value=d_t / (n * walks) * acc,
        pushes=0,
        walk_steps=moves,
        rng_draws=rng.draws - start_draws,
        wall_nanos=time.perf_counter_ns() - t0,
        derived={"walks": walks},
    )


def forward_mc(
    g: Graph,
    t: int,
    cfg: EstimatorConfig,
    rng: RngStream,
    walks: int | None = None,
) -> Estimate:
    """Classic forward estimate: fraction of uniformly-sourced walks
    terminating at the target.

    The default walk count substitutes the universal lower bound
    alpha/n for the unknown true score, which is why it grows with n.
    """
    g._check_node(t)
    n = g.node_count
    if walks is None:
        walks = _default_walks(
            cfg, (2.0 * cfg.c / 3.0 + 2.0) * n, math.log(1.0 / cfg.failure_prob)
        )
    _check_int("walks", walks, 1)
    start_draws = rng.draws
    t0 = time.perf_counter_ns()
    sources = np.minimum((rng.uniforms(walks) * n).astype(np.int64), n - 1)
    terminals, moves = alpha_walk_batch(g, sources, cfg.alpha, rng)
    value = float(np.count_nonzero(terminals == t)) / walks
    return Estimate(
        value=value,
        pushes=0,
        walk_steps=moves,
        rng_draws=rng.draws - start_draws,
        wall_nanos=time.perf_counter_ns() - t0,
        derived={"walks": walks},
    )


def _local_push_rounds(g: Graph, t: int, alpha: float, eps: float):
    """local_push's rounds, one at a time: yields (residue, reserve,
    pushes made) before the first round, with 0 pushes, and then after
    every round.

    ``residue`` and ``reserve`` are read-only views of the dense arrays
    the rounds update in place, so a caller that keeps them past the
    next round sees that round's state.
    """
    n = g.node_count
    offsets, neighbors, degrees = g.offsets, g.neighbors, g.degrees
    residue = np.zeros(n)
    reserve = np.zeros(n)
    residue[t] = 1.0
    state = residue.view(), reserve.view()
    for view in state:
        view.flags.writeable = False
    active = np.array([t] if residue[t] >= eps else [], dtype=np.int64)
    yield *state, 0

    while active.size:
        mass = residue[active]
        residue[active] = 0.0
        reserve[active] += alpha * mass
        lens = degrees[active]
        receivers = neighbors[_concat_slices(offsets[active], lens)]
        nodes, inc = _accumulate(n, receivers, np.repeat((1.0 - alpha) * mass, lens))
        residue[nodes] += inc / degrees[nodes]
        active = nodes[residue[nodes] >= eps]
        yield *state, receivers.size


def local_push(
    g: Graph,
    t: int,
    cfg: EstimatorConfig,
    rng: RngStream | None = None,
    epsilon: float | None = None,
) -> Estimate:
    """Deterministic round-synchronous backward push; ``rng`` is
    accepted for interface uniformity and never used.

    Each round pushes, at once, every node whose residue is at least
    epsilon (default c * alpha / n): it settles an alpha fraction of the
    node's residue into its reserve and spreads the rest to its
    neighbors, each share divided by the receiver's degree.  The next
    round's nodes are this round's receivers that now hold epsilon or
    more, so a round costs time in its own pushes.  It stops when every
    residue is below epsilon, at which point the reserve average
    underestimates the true score by at most a factor c of it; that
    guarantee does not depend on push order (Andersen, Borgs, Chayes,
    Hopcroft, Mirrokni & Teng, WAW 2007).  The rounds come from
    ``_local_push_rounds``.
    """
    g._check_node(t)
    n = g.node_count
    eps = epsilon if epsilon is not None else cfg.c * cfg.alpha / n
    # written so that nan fails too: a nan epsilon would settle nothing
    if isinstance(eps, bool) or not isinstance(eps, (int, float)) or not 0.0 < eps < math.inf:
        raise ConfigError(f"epsilon must be finite and > 0, got {eps!r}")
    t0 = time.perf_counter_ns()
    pushes = 0
    for _, reserve, round_pushes in _local_push_rounds(g, t, cfg.alpha, eps):
        pushes += round_pushes

    return Estimate(
        value=float(reserve.sum() / n),
        pushes=pushes,
        walk_steps=0,
        rng_draws=0,
        wall_nanos=time.perf_counter_ns() - t0,
        derived={"epsilon": eps},
    )


def amplified(
    inner: Callable[..., Estimate],
    g: Graph,
    t: int,
    cfg: EstimatorConfig,
    rng: RngStream,
    repetitions: int,
    groups: int,
    **kwargs,
) -> Estimate:
    """Median-of-means wrapper: repeat ``inner`` on independent
    substreams and aggregate, trading a log factor of repetitions for a
    driven-down failure probability.  Counters are summed; ``derived``
    is the inner estimates' (every repetition derives the same).
    """
    if not 1 <= groups <= repetitions:
        raise ValidationError(
            f"need repetitions >= groups >= 1, got {repetitions}, {groups}"
        )
    t0 = time.perf_counter_ns()
    values = []
    pushes = walk_steps = draws = 0
    for i in range(repetitions):
        est = inner(g, t, cfg, rng=rng.substream(i), **kwargs)
        values.append(est.value)
        pushes += est.pushes
        walk_steps += est.walk_steps
        draws += est.rng_draws
    return Estimate(
        value=median_of_means(values, groups),
        pushes=pushes,
        walk_steps=walk_steps,
        rng_draws=draws,
        wall_nanos=time.perf_counter_ns() - t0,
        derived=est.derived,
    )


ESTIMATORS: dict[str, Callable[..., Estimate]] = {
    "setpush": setpush,
    "reverse-mc": reverse_mc,
    "forward-mc": forward_mc,
    "local-push": local_push,
}


def default_groups(failure_prob: float, repetitions: int) -> int:
    """Conventional group count for median-of-means amplification,
    ceil(8 ln(1/failure_prob)), capped at the repetition count."""
    return max(1, min(repetitions, math.ceil(8.0 * math.log(1.0 / failure_prob))))
