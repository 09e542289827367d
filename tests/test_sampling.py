import math
from itertools import islice

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from pushrank import graph as pg
from pushrank import oracle
from pushrank.errors import ContractViolationError, ValidationError
from pushrank.estimators import EstimatorConfig, _setpush_levels
from pushrank.sampling import RngStream, alpha_walk_batch, median_of_means, skip_sample


class TestRngStream:
    def test_replay_identical(self):
        a = RngStream(123, 45)
        b = RngStream(123, 45)
        assert a.uniforms(64).tolist() == b.uniforms(64).tolist()

    def test_distinct_streams_differ(self):
        assert RngStream(123, 1).uniforms(8).tolist() != RngStream(123, 2).uniforms(8).tolist()

    def test_draw_counter(self):
        r = RngStream(0)
        r.uniforms(1)
        r.uniforms(10)
        assert r.draws == 11

    def test_substream_deterministic(self):
        a = RngStream(5, 9).substream(3)
        b = RngStream(5, 9).substream(3)
        assert a.stream_id == b.stream_id
        assert a.uniforms(4).tolist() == b.uniforms(4).tolist()
        assert a.stream_id != RngStream(5, 9).substream(4).stream_id


def _inclusion_masks(owner, position, sets):
    """Bit i-1 of mask[k] is set when set k included position i."""
    mask = np.zeros(sets, dtype=np.int64)
    np.bitwise_or.at(mask, owner, 1 << (position - 1))
    return mask


class _RecordingStream(RngStream):
    """RngStream that also records the size of every uniforms call."""

    def __init__(self, seed, stream_id=0):
        super().__init__(seed, stream_id)
        self.calls = []

    def uniforms(self, size):
        self.calls.append(int(size))
        return super().uniforms(size)


def _block_sizes(size, p, positions):
    """The uniforms each round of skip_sample draws for one set, derived
    from that set's output: one in round 1, then 1 + ceil((size - pos) * p)
    while every gap of the last block landed short of the end."""
    blocks, taken, block = [], 0, 1
    while True:
        blocks.append(block)
        got = positions[taken : taken + block]
        taken += len(got)
        if len(got) < block or got[-1] == size:
            break
        block = 1 + math.ceil((size - got[-1]) * p)
    assert taken == len(positions)
    return blocks


class TestGeometricSkip:
    def test_contract_violations(self):
        r = RngStream(1)
        for p in (0.0, 1.0, 1.5):
            with pytest.raises(ContractViolationError):
                skip_sample(np.array([5]), np.array([p]), r)
        with pytest.raises(ValidationError):
            skip_sample(np.array([0]), np.array([0.5]), r)
        assert r.draws == 0

    def test_p_one_emits_everything(self):
        # skip_sample refuses p = 1 (test_contract_violations); setpush's
        # deterministic branch owns it.  Here the per-neighbor probability
        # is exactly 1: share (1-a)*1 = 0.5 over threshold 0.125 * degree 4.
        cfg = EstimatorConfig(alpha=0.5, threshold_override=0.125)
        rng = RngStream(1)
        levels = _setpush_levels(pg.complete(5), 0, cfg, 0.125, rng)
        (_, _, _, level_0_pushes), (nodes, vals, _, level_1_pushes) = islice(levels, 2)
        assert dict(zip(nodes.tolist(), vals.tolist())) == {1: 0.125, 2: 0.125, 3: 0.125, 4: 0.125}
        assert (level_0_pushes, level_1_pushes) == (0, 4)
        assert rng.draws == 0

    def test_emitted_count_binomial_mean(self):
        # Binomial(10, 0.3) oracle: mean 3, sd sqrt(10*.3*.7)
        trials = 100_000
        owner, _ = skip_sample(np.full(trials, 10), np.full(trials, 0.3), RngStream(202))
        counts = np.bincount(owner, minlength=trials)
        sigma = math.sqrt(10 * 0.3 * 0.7 / trials)
        assert abs(counts.mean() - 3.0) < 3 * sigma

    def test_marginal_inclusion(self):
        # Bernoulli marginal oracle: index 7 appears w.p. 0.3 exactly
        trials = 100_000
        _, position = skip_sample(np.full(trials, 10), np.full(trials, 0.3), RngStream(203))
        hits = np.count_nonzero(position == 7)
        sigma = math.sqrt(0.3 * 0.7 / trials)
        assert abs(hits / trials - 0.3) < 3 * sigma

    def test_strictly_increasing_in_range(self):
        owner, position = skip_sample(np.full(200, 7), np.full(200, 0.6), RngStream(204))
        assert np.all((1 <= position) & (position <= 7))
        order = np.argsort(owner, kind="stable")
        same = owner[order][1:] == owner[order][:-1]
        assert np.all(np.diff(position[order])[same] > 0)

    def test_exact_pattern_chi_squared(self):
        # independence: all 2^3 inclusion patterns vs the product-Bernoulli
        # probabilities, significance 1e-3
        d, p, trials = 3, 0.4, 100_000
        owner, position = skip_sample(np.full(trials, d), np.full(trials, p), RngStream(205))
        observed = np.bincount(_inclusion_masks(owner, position, trials), minlength=8)
        expected = np.array(
            [
                trials
                * (p ** bin(mask).count("1"))
                * ((1 - p) ** (d - bin(mask).count("1")))
                for mask in range(8)
            ]
        )
        stat = float(np.sum((observed - expected) ** 2 / expected))
        crit = scipy.stats.chi2.ppf(1 - 1e-3, df=7)
        assert stat < crit, (stat, crit)

    def test_tiny_p_no_overflow(self):
        owner, position = skip_sample(np.array([10]), np.array([1e-18]), RngStream(206))
        assert owner.size == position.size == 0

    # the tests below reach the block top-up: sets expecting up to hundreds
    # of inclusions, drawn in a few rounds of many gaps each

    def test_topup_binomial_counts(self):
        # Binomial(1000, 0.3) oracle for the per-set count: mean within 3
        # sigma, and the count histogram by chi-squared at 1e-3
        d, p, trials = 1000, 0.3, 5000
        owner, _ = skip_sample(np.full(trials, d), np.full(trials, p), RngStream(207))
        counts = np.bincount(owner, minlength=trials)
        assert abs(counts.mean() - d * p) < 3 * math.sqrt(d * p * (1 - p) / trials)
        pmf = scipy.stats.binom.pmf(np.arange(d + 1), d, p)
        observed = np.bincount(counts, minlength=d + 1)
        # pool each tail into its last cell that expects at least 5
        keep = np.flatnonzero(trials * pmf >= 5)
        lo, hi = keep[0], keep[-1]

        def pooled(x):
            return np.concatenate([[x[: lo + 1].sum()], x[lo + 1 : hi], [x[hi:].sum()]])

        expected, got = trials * pooled(pmf), pooled(observed)
        stat = float(np.sum((got - expected) ** 2 / expected))
        assert stat < scipy.stats.chi2.ppf(1 - 1e-3, df=expected.size - 1), stat

    def test_topup_marginals(self):
        # every one of the 1000 positions, first block and top-ups alike, is
        # included w.p. 0.3: chi-squared over the positions at 1e-3
        d, p, trials = 1000, 0.3, 5000
        owner, position = skip_sample(np.full(trials, d), np.full(trials, p), RngStream(208))
        assert np.all((1 <= position) & (position <= d))
        hits = np.bincount(position - 1, minlength=d)
        stat = float(np.sum((hits - trials * p) ** 2 / (trials * p * (1 - p))))
        assert stat < scipy.stats.chi2.ppf(1 - 1e-3, df=d), stat
        # and no set includes a position twice
        assert np.unique(owner * d + position - 1).size == owner.size

    def test_mixed_sizes_and_probs(self):
        # sizes 1..2000 against p from 1e-4 to 0.9 (paired by a fixed
        # shuffle), ten copies of each set, plus two sets of 10^12 at 1e-18
        # and 1e-300, whose gaps overflow int64 unless clamped first
        kinds = 2000
        sizes = np.arange(1, kinds + 1)
        probs = np.random.default_rng(0).permutation(np.geomspace(1e-4, 0.9, kinds))
        reps = 10
        all_sizes = np.concatenate([np.tile(sizes, reps), [10**12, 10**12]])
        all_probs = np.concatenate([np.tile(probs, reps), [1e-18, 1e-300]])
        rng = _RecordingStream(209)
        owner, position = skip_sample(all_sizes, all_probs, rng)
        assert np.all((1 <= position) & (position <= all_sizes[owner]))
        assert np.all(owner < kinds * reps)
        # each kind's total over its copies is Binomial(reps*size, p); pool
        # the kinds into 20 bands of expected count, chi-squared at 1e-3
        counts = np.bincount(owner % kinds, minlength=kinds)
        mean = reps * sizes * probs
        var = mean * (1 - probs)
        bands = np.array_split(np.argsort(mean), 20)
        assert min(mean[b].sum() for b in bands) > 20
        stat = sum((counts[b].sum() - mean[b].sum()) ** 2 / var[b].sum() for b in bands)
        assert stat < scipy.stats.chi2.ppf(1 - 1e-3, df=len(bands)), stat
        assert abs(counts.sum() - mean.sum()) < 3 * math.sqrt(var.sum())
        # positions strictly increase per set in output order, across rounds
        order = np.argsort(owner, kind="stable")
        same = owner[order][1:] == owner[order][:-1]
        assert np.all(np.diff(position[order])[same] > 0)
        # the draws are exactly the block sizes: one per set in round 1,
        # then 1 + ceil((size - pos) * p) per set still short of its end
        per_set = np.split(
            position[order], np.cumsum(np.bincount(owner, minlength=all_sizes.size))[:-1]
        )
        rounds = [
            _block_sizes(int(all_sizes[i]), float(all_probs[i]), per_set[i].tolist())
            for i in range(all_sizes.size)
        ]
        by_round = [sum(b[r] for b in rounds if len(b) > r) for r in range(max(map(len, rounds)))]
        assert rng.calls == by_round
        assert rng.draws == sum(by_round)
        assert 2 < len(rng.calls) < 10


class _ScriptedStream(RngStream):
    """RngStream whose first uniforms call returns ``first`` and every
    later call ``rest``: each walk gets a chosen length and always moves to
    the same rank of neighbor, its first (lowest-id) one for the default
    ``rest`` of 0."""

    def __init__(self, first, rest=0.0):
        super().__init__(0)
        self.first = np.asarray(first, dtype=np.float64)
        self.rest = rest

    def uniforms(self, size):
        self.draws += int(size)
        if self.first is None:
            return np.full(size, self.rest)
        out, self.first = self.first, None
        assert out.size == size
        return out


class TestAlphaWalk:
    def test_terminal_distribution_k2(self):
        # oracle: closed-form PPR on two nodes, 5/9 stay / 4/9 cross
        g = pg.complete(2)
        trials = 100_000
        terms, _ = alpha_walk_batch(g, np.zeros(trials, dtype=np.int64), 0.2, RngStream(301))
        p = 5 / 9
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(np.mean(terms == 0) - p) < 3 * sigma

    def test_mean_moves(self):
        # moves ~ Geometric: mean (1-a)/a = 4, var (1-a)/a^2 = 20
        g = pg.complete(2)
        trials = 100_000
        _, moves = alpha_walk_batch(g, np.zeros(trials, dtype=np.int64), 0.2, RngStream(302))
        assert abs(moves / trials - 4.0) < 3 * math.sqrt(20 / trials)

    def test_high_alpha_stays_home(self):
        g = pg.complete(2)
        terms, moves = alpha_walk_batch(g, np.zeros(2000, dtype=np.int64), 0.999, RngStream(303))
        assert moves / 2000 < 0.01
        assert np.mean(terms == 0) > 0.99

    def test_terminal_distribution_star5(self):
        # oracle: PPR vector of the star center
        g = pg.star(5)
        trials = 60_000
        terms, moves = alpha_walk_batch(g, np.zeros(trials, dtype=np.int64), 0.2, RngStream(305))
        pv = oracle.ppr_vector(g, 0, 0.2)
        for node in range(g.node_count):
            p = pv[node]
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(np.mean(terms == node) - p) < 4 * sigma
        assert abs(moves / trials - 4.0) < 3 * math.sqrt(20 / trials)

    def test_alpha_validation(self):
        with pytest.raises(ValidationError):
            alpha_walk_batch(pg.complete(2), np.zeros(1, dtype=np.int64), 1.0, RngStream(0))

    def test_draws_one_per_walk_plus_one_per_move(self):
        g = pg.power_law(500, 2.5, 11)
        starts = np.arange(20_000, dtype=np.int64) % g.node_count
        rng = RngStream(311)
        _, moves = alpha_walk_batch(g, starts, 0.2, rng)
        assert moves > 0
        assert rng.draws == starts.size + moves

    def test_terminals_aligned_with_starts(self):
        # ring(10) is bipartite by parity; a walk ends on its start's side
        # iff it moves an even number of times, with P = 1 / (2 - alpha).
        # Terminals handed back out of start order would land near 1/2.
        g = pg.ring(10)
        trials = 100_000
        starts = np.arange(trials, dtype=np.int64) % 10
        terms, _ = alpha_walk_batch(g, starts, 0.2, RngStream(312))
        same_side = terms % 2 == starts % 2
        p = 1 / (2 - 0.2)
        for side in (0, 1):
            mine = same_side[starts % 2 == side]
            assert abs(mine.mean() - p) < 3 * math.sqrt(p * (1 - p) / mine.size)

    def test_empty_starts(self):
        rng = RngStream(313)
        terms, moves = alpha_walk_batch(pg.ring(6), np.empty(0, dtype=np.int64), 0.2, rng)
        assert terms.shape == (0,) and moves == 0 and rng.draws == 0

    def test_walks_of_2_15_moves_or_more(self):
        # lengths past 2^15 - 1 do not fit a 16-bit sort key.  On a path,
        # a walk that always takes its first neighbor steps down one id
        # per move, so each terminal is its start minus its length.
        alpha = 1e-4
        lengths = np.array([40_000, 3, 0, 1 << 15, 5, (1 << 15) - 1])
        rng = _ScriptedStream(1.0 - (1.0 - alpha) ** (lengths + 0.5))
        starts = np.full(lengths.size, 45_000, dtype=np.int64)
        terms, moves = alpha_walk_batch(pg.path(50_000), starts, alpha, rng)
        assert moves == lengths.sum()
        assert terms.tolist() == (starts - lengths).tolist()
        assert rng.draws == lengths.size + moves

    def test_largest_uniform_picks_last_neighbor(self):
        # the kernel takes floor(u * d) unclamped; the largest uniform,
        # 1 - 2^-53, must still give rank d - 1 for every degree
        top = np.nextafter(1.0, 0.0)
        for lo in range(1, 1 << 24, 1 << 20):
            d = np.arange(lo, min(lo + (1 << 20), 1 << 24), dtype=np.int64)
            assert np.array_equal((top * d).astype(np.int64), d - 1), lo
        # one move from the center of star(n) lands on its last leaf
        n = 70_001
        lengths = np.array([1, 1])
        rng = _ScriptedStream(1.0 - (1.0 - 0.2) ** (lengths + 0.5), rest=top)
        terms, _ = alpha_walk_batch(pg.star(n), np.zeros(2, dtype=np.int64), 0.2, rng)
        assert terms.tolist() == [n - 1, n - 1]


class TestMedianOfMeans:
    def test_constant(self):
        assert median_of_means([3, 3, 3, 3], 2) == 3

    def test_lower_median_convention(self):
        assert median_of_means([0, 0, 0, 100], 4) == 0

    def test_three_groups(self):
        assert median_of_means([1, 2, 3, 4, 5, 6], 3) == 3.5

    def test_single_group_is_mean(self):
        assert median_of_means([1.0, 2.0, 4.0], 1) == pytest.approx(7 / 3)

    def test_group_validation(self):
        with pytest.raises(ValidationError):
            median_of_means([1.0], 2)
        with pytest.raises(ValidationError):
            median_of_means([1.0], 0)
        with pytest.raises(ValidationError):
            median_of_means([], 1)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
        st.integers(1, 40),
    )
    def test_output_is_a_chunk_mean(self, values, groups):
        if groups > len(values):
            groups = len(values)
        got = median_of_means(values, groups)
        chunk_means = [float(c.mean()) for c in np.array_split(np.asarray(values), groups)]
        assert got in chunk_means
        assert min(chunk_means) <= got <= max(chunk_means)
