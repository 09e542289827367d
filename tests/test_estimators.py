import math
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from pushrank import graph as pg
from pushrank import oracle
from pushrank.errors import ConfigError, ValidationError
from pushrank.estimators import (
    ESTIMATORS,
    Estimate,
    EstimatorConfig,
    _accumulate,
    _local_push_rounds,
    _setpush_levels,
    amplified,
    compute_threshold,
    forward_mc,
    local_push,
    reverse_mc,
    setpush,
)
from pushrank.sampling import RngStream, skip_sample

from conftest import FP_DUST, clt_band, suite_graphs

A = 0.2


def setpush_level_entries(g, t, cfg, rng, theta=None):
    """Every level ``_setpush_levels`` yields for a setpush query, as
    (pushes made, {node: residue})."""
    threshold = compute_threshold(g, t, cfg) if theta is None else theta
    return [
        (pushes, dict(zip(nodes.tolist(), vals.tolist())))
        for nodes, vals, _, pushes in _setpush_levels(g, t, cfg, threshold, rng)
    ]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            EstimatorConfig(alpha=1.0)
        with pytest.raises(ConfigError):
            EstimatorConfig(c=0.0)
        with pytest.raises(ConfigError):
            EstimatorConfig(failure_prob=0.0)
        with pytest.raises(ConfigError):
            EstimatorConfig(cost_constant=0.0)
        for bad in (math.nan, math.inf):
            for field in ("c", "cost_constant"):
                with pytest.raises(ConfigError):
                    EstimatorConfig(**{field: bad})

    def test_levels_matches_truncation(self):
        cfg = EstimatorConfig()
        assert cfg.levels(2) == oracle.truncation_levels(2, 0.2, 0.1) == 24


class TestComputeThreshold:
    def test_low_degree_takes_inverse_degree_branch(self):
        g = pg.star(100)  # leaf degree 1 << sqrt(m / 1.6)
        cfg = EstimatorConfig()
        levels = cfg.levels(g.node_count)
        scale = A * cfg.c**2 * cfg.failure_prob / (4 * levels)
        assert compute_threshold(g, 1, cfg) == pytest.approx(scale * 1.0)

    def test_c_doubling_scales_by_four(self):
        # the hop cutoff L moves with c too, so compare theta * L
        g = pg.complete(16)
        lo, hi = EstimatorConfig(c=0.1), EstimatorConfig(c=0.2)
        t1 = compute_threshold(g, 0, lo) * lo.levels(16)
        t2 = compute_threshold(g, 0, hi) * hi.levels(16)
        assert t2 == pytest.approx(4 * t1)

    def test_override_wins(self):
        est = setpush(pg.complete(8), 0, EstimatorConfig(), RngStream(0), theta=0.03)
        assert est.derived == {"theta": 0.03}

    @pytest.mark.parametrize("c", [1e-300, 1e155])  # c*c is 0, then infinite
    def test_c_out_of_float_range(self, c):
        with pytest.raises(ConfigError, match=re.escape(f"c = {c} makes the push threshold")):
            compute_threshold(pg.complete(8), 0, EstimatorConfig(c=c))

    def test_complete16_hand_arithmetic(self):
        # n=16, m=120, d_t=15, L = ceil(log_{0.8}(0.02/32)) = 34
        g = pg.complete(16)
        cfg = EstimatorConfig()
        levels = cfg.levels(16)
        assert levels == math.ceil(math.log(0.1 * A / 32) / math.log(0.8)) == 34
        by_hand = (A * 0.01 * 0.1 / (4 * 34)) * max(1 / 15, math.sqrt(1.6 / 120))
        assert compute_threshold(g, 0, cfg) == pytest.approx(by_hand, rel=1e-12)

    def test_monotone_in_cost_constant(self):
        g = pg.complete(8)
        lo = compute_threshold(g, 0, EstimatorConfig(cost_constant=8.0))
        hi = compute_threshold(g, 0, EstimatorConfig(cost_constant=4.0))
        assert lo == pytest.approx(hi / 2)


class TestSetpushDeterministicRegime:
    def test_equals_truncated_with_zero_draws(self, suite):
        cfg = EstimatorConfig()
        for name, g in suite:
            if g.node_count > 64:
                continue
            tables = oracle.build_tables(g, A, 0.1)
            for t in range(0, g.node_count, max(1, g.node_count // 9)):
                rng = RngStream(11, t)
                est = setpush(g, t, cfg, rng, theta=1e-18)
                assert est.rng_draws == 0, name
                assert est.value == pytest.approx(tables.truncated[t], abs=1e-10), name

    def test_levels_see_exact_residues(self):
        # all-deterministic residues equal the per-hop mass over alpha
        g = pg.path(3)
        tables = oracle.build_tables(g, A, 0.1)
        cfg = EstimatorConfig()
        seen = [
            entries
            for _, entries in setpush_level_entries(g, 0, cfg, RngStream(1), theta=1e-18)
        ]
        assert seen[0] == {0: 1.0}
        for lvl in range(min(6, len(seen))):
            for v, r in seen[lvl].items():
                assert r == pytest.approx(tables.lhop_ppr[lvl, 0, v] / A, rel=1e-9)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ConfigError):
            setpush(pg.complete(2), 0, EstimatorConfig(), RngStream(0), theta=-1e-9)

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            setpush(pg.complete(2), 5, EstimatorConfig(), RngStream(0))


class TestSetpushStochastic:
    """Randomized-branch contracts, exercised with a ``theta``
    large enough that sampling actually happens on desk-size graphs."""

    RUNS = 10_000

    def test_residue_unbiasedness_per_level(self):
        # mean residue at (level, node) ~= per-hop mass / alpha (CLT band)
        g = pg.complete(2)
        cfg = EstimatorConfig()
        tables = oracle.build_tables(g, A, 0.1)
        levels = cfg.levels(2)
        sums = np.zeros((levels + 1, 2))
        sq = np.zeros((levels + 1, 2))
        for i in range(self.RUNS):
            for lvl, (nodes, vals, _, _) in enumerate(
                _setpush_levels(g, 0, cfg, 0.05, RngStream(400, i))
            ):
                sums[lvl, nodes] += vals
                sq[lvl, nodes] += vals * vals
        mean = sums / self.RUNS
        var = np.maximum(sq / self.RUNS - mean**2, 0.0)
        for lvl in range(levels + 1):
            for v in range(2):
                expect = tables.lhop_ppr[lvl, 0, v] / A
                band = clt_band(math.sqrt(var[lvl, v]), self.RUNS)
                assert abs(mean[lvl, v] - expect) < band, (lvl, v)

    def test_estimator_unbiasedness_and_variance_bound(self):
        g = pg.star(9)
        t = 0
        cfg = EstimatorConfig()
        tables = oracle.build_tables(g, A, 0.1)
        vals = np.array(
            [setpush(g, t, cfg, RngStream(500, i), theta=0.02).value for i in range(self.RUNS)]
        )
        assert vals.std() > 0, "theta must put runs in the sampling regime"
        band = clt_band(vals.std(ddof=1), self.RUNS)
        assert abs(vals.mean() - tables.truncated[t]) < band
        levels = cfg.levels(9)
        bound = levels * 0.02 * g.degree(t) / 9 * tables.pagerank[t]
        assert vals.var(ddof=1) <= bound * (1 + 5 / math.sqrt(self.RUNS))

    def test_cost_bound(self):
        g = pg.star(9)
        cfg = EstimatorConfig()
        pushes = np.mean(
            [setpush(g, 0, cfg, RngStream(600, i), theta=0.02).pushes for i in range(2000)]
        )
        assert pushes <= 1.1 / (A * 0.02)

    def test_relative_error_event_complete16(self):
        # symmetry fixes the truth at 1/16; the (c, p_f) contract demands
        # >= 90% of runs inside the relative-error band
        g = pg.complete(16)
        cfg = EstimatorConfig()
        hits = 0
        runs = 1000
        for i in range(runs):
            est = setpush(g, 3, cfg, RngStream(700, i))
            hits += abs(est.value - 1 / 16) <= 0.1 / 16
        assert hits >= 0.9 * runs

    def test_doubling_cost_constant_never_hurts(self):
        # halving the threshold can only push the error's upper quantiles down
        g = pg.complete(8)
        tables = oracle.build_tables(g, A, 3.0)
        pi = tables.pagerank
        errs = {}
        for k in (4.0, 8.0):
            cfg = EstimatorConfig(c=3.0, failure_prob=0.5, cost_constant=k)
            errs[k] = np.array(
                [
                    abs(setpush(g, 0, cfg, RngStream(800, i)).value - pi[0]) / pi[0]
                    for i in range(1000)
                ]
            )
        assert errs[4.0].std() > 0
        assert np.quantile(errs[8.0], 0.9) <= np.quantile(errs[4.0], 0.9) + FP_DUST

    def test_reproducible_estimates(self):
        g = pg.power_law(300, 2.5, 3)
        cfg = EstimatorConfig()
        a = setpush(g, 5, cfg, RngStream(42, 9))
        b = setpush(g, 5, cfg, RngStream(42, 9))
        assert (a.value, a.pushes, a.rng_draws) == (b.value, b.pushes, b.rng_draws)


def _reference_setpush(g, t, cfg, rng, theta=None, residues=None, bincount_switch=True):
    """The setpush with dense per-level arrays and a bincount switch for
    levels with many sampled hits, kept as the reference the shipped
    setpush (frontier-sized arrays) is compared against.  It draws through
    ``skip_sample`` and sums the degree-weighted settled mass level by
    level, as setpush does.  Returns (value, pushes, rng_draws); a
    ``residues`` list receives each level's dense residue vector.

    The switch tallies a level's hits with one ``bincount`` and then adds
    ``threshold`` once per hit, layer by layer; ``bincount_switch=False``
    adds the hits one at a time with ``np.add.at``.  Both give setpush's
    residues to the bit.  One ``threshold * hits`` product would not: it
    moves last bits, and a residue that ties prob == 1 then flips branch.
    ``theta`` overrides the derived threshold, as setpush's does."""
    n = g.node_count
    offsets, neighbors, degrees = g.offsets, g.neighbors, g.degrees
    threshold = theta if theta is not None else compute_threshold(g, t, cfg)
    alpha = cfg.alpha
    start_draws = rng.draws
    residue = np.zeros(n)
    residue[t] = 1.0
    settled = alpha * np.sum(residue[[t]] / degrees[[t]])
    pushes = 0
    for _ in range(cfg.levels(n)):
        nz = np.flatnonzero(residue > 0.0)
        if nz.size == 0:
            break
        share = (1.0 - alpha) * residue[nz]
        deg_nz = degrees[nz]
        prob = share / (threshold * deg_nz)
        det = prob >= 1.0
        nxt = np.zeros(n)
        det_nodes = nz[det]
        if det_nodes.size:
            lens = deg_nz[det]
            flat = np.concatenate(
                [np.arange(offsets[u], offsets[u] + d) for u, d in zip(det_nodes, lens)]
            )
            nxt += np.bincount(
                neighbors[flat], weights=np.repeat(share[det] / lens, lens), minlength=n
            )
            pushes += int(lens.sum())
        samp_nodes = nz[~det]
        if samp_nodes.size:
            owner, position = skip_sample(deg_nz[~det], prob[~det], rng)
            hit = neighbors[offsets[samp_nodes[owner]] + position - 1]
            if bincount_switch and hit.size > 128:
                counts = np.bincount(hit, minlength=n)
                for j in range(counts.max()):
                    nxt[counts > j] += threshold
            else:
                np.add.at(nxt, hit, threshold)
            pushes += hit.size
        residue = nxt
        nz = np.flatnonzero(residue > 0.0)
        settled += alpha * np.sum(residue[nz] / degrees[nz])
        if residues is not None:
            residues.append(residue)
    value = float(degrees[t]) / n * float(settled)
    return value, pushes, rng.draws - start_draws


_SUITE = suite_graphs()
_SPARSE_FRONTIER = [pg.ring(5000), pg.path(3000), pg.power_law(2000, 2.5, 7)]


class TestSetpushDifferential:
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(_SUITE),
        st.floats(0.0, 1.0, exclude_max=True),
        st.sampled_from([None, 0.02, 0.05]),
        st.integers(0, 2**32),
    )
    def test_matches_reference(self, named, where, theta, seed):
        _, g = named
        t = int(where * g.node_count)
        cfg = EstimatorConfig()
        est = setpush(g, t, cfg, RngStream(seed, t), theta=theta)
        value, pushes, draws = _reference_setpush(g, t, cfg, RngStream(seed, t), theta=theta)
        assert (est.pushes, est.rng_draws) == (pushes, draws)
        assert est.value == pytest.approx(value, rel=1e-12, abs=0.0)

    # frontiers far below n/8 for many levels: sparse levels and
    # (power_law) sparse levels after dense ones
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(_SPARSE_FRONTIER),
        st.floats(0.0, 1.0, exclude_max=True),
        st.sampled_from([None, 0.02]),
        st.integers(0, 2**32),
    )
    def test_sparse_frontier_bit_identical(self, g, where, theta, seed):
        t = int(where * g.node_count)
        cfg = EstimatorConfig()
        est = setpush(g, t, cfg, RngStream(seed, t), theta=theta)
        levels = setpush_level_entries(g, t, cfg, RngStream(seed, t), theta=theta)
        dense = []
        value, pushes, draws = _reference_setpush(
            g, t, cfg, RngStream(seed, t), theta=theta, residues=dense, bincount_switch=False
        )
        assert (est.pushes, est.rng_draws, est.value) == (pushes, draws, value)
        assert len(levels) == len(dense) + 1
        assert levels[0] == (0, {t: 1.0})
        assert sum(level_pushes for level_pushes, _ in levels) == pushes
        for (_, entries), res in zip(levels[1:], dense):
            nz = np.flatnonzero(res)
            assert entries == dict(zip(nz.tolist(), res[nz].tolist()))


class TestAccumulate:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_in_order_float_sum(self, data):
        # a setpush level's tally: deterministic shares, then the hits, each
        # worth the threshold; n on either side of the n/8 rule
        shares = data.draw(st.integers(0, 60))
        hits = data.draw(st.integers(0, 40))
        size = shares + hits
        n = max(1, 8 * size - data.draw(st.sampled_from([0, 1])))
        span = data.draw(st.sampled_from([min(n, 3), n]))  # 3 keys: many repeats
        keys = data.draw(st.lists(st.integers(0, span - 1), min_size=size, max_size=size))
        positive = st.floats(1e-12, 1e6)
        weights = data.draw(st.lists(positive, min_size=shares, max_size=shares))
        weights += [data.draw(positive)] * hits
        expected = {}
        for k, w in zip(keys, weights):
            expected[k] = expected.get(k, 0.0) + w
        nodes, sums = _accumulate(n, np.array(keys, dtype=np.int64), np.array(weights))
        assert nodes.tolist() == sorted(expected)
        assert sums.tolist() == [expected[k] for k in sorted(expected)]


class TestReverseMc:
    def test_k2_every_run_is_half(self):
        # both terminals have degree 1, so the reweighted tally is constant
        g = pg.complete(2)
        for i in range(5):
            est = reverse_mc(g, 0, EstimatorConfig(), RngStream(900, i), walks=64)
            assert est.value == pytest.approx(0.5, abs=1e-12)

    def test_default_walk_count(self):
        g = pg.star(9)
        est = reverse_mc(g, 0, EstimatorConfig(), RngStream(901))
        assert est.walk_steps > 0
        expected_walks = math.ceil(3 * 8 / (0.01 * A))
        assert expected_walks == 12000
        assert est.rng_draws >= expected_walks  # one stop-draw per walk at least

    def test_single_walk_support(self):
        # with one walk the estimate is an atom d_t / (n d_s): the walk
        # from the center ends at the center (d_s=4) or a leaf (d_s=1)
        g = pg.star(5)
        atoms = {4 / (5 * 4), 4 / (5 * 1)}
        for i in range(40):
            est = reverse_mc(g, 0, EstimatorConfig(), RngStream(902, i), walks=1)
            assert min(abs(est.value - a) for a in atoms) < 1e-12

    def test_unbiased_star9(self):
        g = pg.star(9)
        pi = oracle.pagerank(g, A)
        vals = np.array(
            [
                reverse_mc(g, 0, EstimatorConfig(), RngStream(903, i), walks=50).value
                for i in range(10_000)
            ]
        )
        assert abs(vals.mean() - pi[0]) < clt_band(vals.std(ddof=1), vals.size)

    def test_variance_bound_star9(self):
        g = pg.star(9)
        pi = oracle.pagerank(g, A)
        walks = 200
        vals = np.array(
            [
                reverse_mc(g, 0, EstimatorConfig(), RngStream(904, i), walks=walks).value
                for i in range(1000)
            ]
        )
        bound = g.degree(0) * pi[0] / (9 * walks)
        assert vals.var(ddof=1) <= bound * 1.2


class TestForwardMc:
    def test_complete8_symmetry(self):
        g = pg.complete(8)
        vals = [
            forward_mc(g, 0, EstimatorConfig(), RngStream(905, i), walks=2000).value
            for i in range(50)
        ]
        sigma = math.sqrt(0.125 * 0.875 / (2000 * 50))
        assert abs(np.mean(vals) - 0.125) < 4 * sigma

    def test_single_walk_is_indicator(self):
        g = pg.complete(8)
        seen = set()
        for i in range(60):
            est = forward_mc(g, 0, EstimatorConfig(), RngStream(906, i), walks=1)
            seen.add(est.value)
        assert seen <= {0.0, 1.0}

    def test_k2_binomial_distribution(self):
        # exact Binomial(20, 1/2) oracle, chi-squared over all 21 outcomes
        g = pg.complete(2)
        walks, reps = 20, 10_000
        counts = np.zeros(walks + 1)
        for i in range(reps):
            est = forward_mc(g, 0, EstimatorConfig(), RngStream(907, i), walks=walks)
            counts[round(est.value * walks)] += 1
        pmf = scipy.stats.binom.pmf(np.arange(walks + 1), walks, 0.5)
        expected = reps * pmf
        keep = expected >= 5  # standard chi-squared cell floor
        stat = np.sum((counts[keep] - expected[keep]) ** 2 / expected[keep])
        stat += (counts[~keep].sum() - expected[~keep].sum()) ** 2 / expected[~keep].sum()
        crit = scipy.stats.chi2.ppf(1 - 1e-3, df=int(keep.sum()))
        assert stat < crit

    def test_default_walk_count_formula(self):
        g = pg.complete(4)
        cfg = EstimatorConfig()
        expected = math.ceil((2 * 0.1 / 3 + 2) * 4 / (0.01 * A) * math.log(10))
        est = forward_mc(g, 0, cfg, RngStream(908))
        assert est.rng_draws >= expected  # sources + at least one draw per walk


class TestLocalPush:
    def test_epsilon_one_single_push(self):
        g = pg.star(5)
        est = local_push(g, 0, EstimatorConfig(), epsilon=1.0)
        assert est.value == pytest.approx(A / 5, abs=1e-15)
        assert est.pushes == g.degree(0)

    def test_k2_converges_to_half(self):
        est = local_push(pg.complete(2), 0, EstimatorConfig(), epsilon=1e-12)
        assert est.value == pytest.approx(0.5, abs=1e-9)

    def test_p3_default_epsilon_guarantee(self):
        g = pg.path(3)
        pi = oracle.pagerank(g, A)
        est = local_push(g, 1, EstimatorConfig())
        assert 0 <= pi[1] - est.value <= 0.1 * pi[1]

    def test_monotone_underestimate_and_accounting(self):
        # loop invariant: pi(t) = reserve average + residue-weighted
        # PageRank mass, so the value-so-far never exceeds the truth
        g = pg.erdos_renyi(50, 0.1, 101)
        pi = oracle.pagerank(g, A)
        t = 3
        pushes = 0
        for rounds, (residue, reserve, round_pushes) in enumerate(
            _local_push_rounds(g, t, A, 0.1 * A / g.node_count)
        ):
            pushes += round_pushes
            est_now = reserve.sum() / g.node_count
            assert est_now <= pi[t] + 1e-12
            carried = float(residue @ pi)
            assert est_now + carried == pytest.approx(pi[t], abs=1e-10)
        assert rounds > 1
        assert pushes == local_push(g, t, EstimatorConfig()).pushes

    def test_rounds_end_with_every_residue_below_epsilon(self, suite):
        for name, g in suite:
            eps = 0.1 * A / g.node_count  # local_push's default
            tops = [residue.max() for residue, _, _ in _local_push_rounds(g, 0, A, eps)]
            # a round runs only while some residue reaches epsilon
            assert all(top >= eps for top in tops[:-1]), name
            assert tops[-1] < eps, name

    def test_epsilon_above_unit_residue_runs_no_round(self):
        g = pg.ring(16)
        est = local_push(g, 0, EstimatorConfig(), epsilon=1.5)
        assert (est.value, est.pushes) == (0.0, 0)
        (residue, reserve, pushes), = _local_push_rounds(g, 0, A, 1.5)
        assert pushes == 0 and reserve.sum() == 0.0
        assert residue.tolist() == [1.0] + [0.0] * 15
        with pytest.raises(ValueError):
            residue[0] = 0.5  # the views are read-only

    def test_deterministic_without_rng(self):
        g = pg.power_law(200, 2.5, 6)
        a = local_push(g, 0, EstimatorConfig())
        b = local_push(g, 0, EstimatorConfig(), rng=RngStream(99))
        assert a.value == b.value and a.pushes == b.pushes
        assert a.rng_draws == 0

    def test_bad_epsilon(self):
        with pytest.raises(ConfigError):
            local_push(pg.complete(2), 0, EstimatorConfig(), epsilon=0.0)


class TestAmplified:
    def test_single_repetition_matches_inner(self):
        g = pg.star(9)
        cfg = EstimatorConfig()
        base = RngStream(123, 7)
        one = amplified(setpush, g, 0, cfg, base, repetitions=1, groups=1, theta=0.02)
        direct = setpush(g, 0, cfg, RngStream(123, 7).substream(0), theta=0.02)
        assert one.value == direct.value

    def test_deterministic_inner_invariant(self):
        g = pg.path(5)
        cfg = EstimatorConfig()
        single = local_push(g, 2, cfg).value
        for reps, groups in ((3, 1), (7, 3), (10, 10)):
            assert amplified(local_push, g, 2, cfg, RngStream(1), reps, groups).value == single

    def test_counters_summed(self):
        g = pg.complete(8)
        cfg = EstimatorConfig()
        est = amplified(setpush, g, 0, cfg, RngStream(5), repetitions=4, groups=2, theta=0.02)
        assert est.pushes > 0
        singles = [
            setpush(g, 0, cfg, RngStream(5).substream(i), theta=0.02).pushes for i in range(4)
        ]
        assert est.pushes == sum(singles)

    def test_star17_failure_rate_drops(self):
        # paired comparison: amplified runs must fail the relative-error
        # event strictly less often than single runs at a noisy threshold
        g = pg.star(17)
        cfg = EstimatorConfig()
        pi = oracle.pagerank(g, A)
        single_fail = amp_fail = 0
        runs = 200
        for i in range(runs):
            s = setpush(g, 0, cfg, RngStream(50, i), theta=0.03)
            single_fail += abs(s.value - pi[0]) > cfg.c * pi[0]
            a = amplified(
                setpush, g, 0, cfg, RngStream(51, i), repetitions=30, groups=5, theta=0.03
            )
            amp_fail += abs(a.value - pi[0]) > cfg.c * pi[0]
        assert single_fail > 0
        assert amp_fail < single_fail

    def test_validation(self):
        with pytest.raises(ValidationError):
            amplified(local_push, pg.complete(2), 0, EstimatorConfig(), RngStream(0), 2, 3)


def _estimate_with(param, value):
    """A query on complete:4 that takes ``value`` as its real-valued input
    ``param``, the way a caller passes it."""
    g = pg.complete(4)
    if param == "theta":
        return setpush(g, 0, EstimatorConfig(), RngStream(3), theta=value)
    if param == "epsilon":
        return local_push(g, 0, EstimatorConfig(), epsilon=value)
    return setpush(g, 0, EstimatorConfig(**{param: value}), RngStream(3))


_REAL_INPUTS = ["c", "cost_constant", "theta", "epsilon"]


class TestRealInputs:
    @pytest.mark.parametrize("param", _REAL_INPUTS)
    @pytest.mark.parametrize(
        "value", [np.float32(0.25), np.float64(0.25), 1, Fraction(1, 4)],
        ids=["float32", "float64", "int", "Fraction"],
    )
    def test_accepted(self, param, value):
        est = _estimate_with(param, value)
        assert 0.0 < est.value < math.inf

    @pytest.mark.parametrize("param", _REAL_INPUTS)
    @pytest.mark.parametrize(
        "value", [True, "0.1", [1], math.nan, math.inf, 0, -0.5],
        ids=["bool", "str", "list", "nan", "inf", "zero", "negative"],
    )
    def test_rejected_naming_the_parameter(self, param, value):
        with pytest.raises(ConfigError, match=rf"^{param} must be "):
            _estimate_with(param, value)


class TestDerivedReplays:
    """``Estimate.derived`` names each estimator's override keyword, so
    passing it back reproduces the estimate on an equal stream."""

    CFG = EstimatorConfig(c=0.5)  # keeps forward-mc's default walk count small

    @staticmethod
    def _fields(est):
        return est.value, est.pushes, est.walk_steps, est.rng_draws, est.derived

    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_replay(self, suite, name):
        fn = ESTIMATORS[name]
        for graph_name, g in suite:
            for t in (0, g.node_count // 2, g.node_count - 1):
                for seed in (5, 6):
                    est = fn(g, t, self.CFG, RngStream(seed, t))
                    again = fn(g, t, self.CFG, RngStream(seed, t), **est.derived)
                    assert self._fields(again) == self._fields(est), (graph_name, t, seed)
                    amp = amplified(fn, g, t, self.CFG, RngStream(seed, t), 3, 2)
                    amp_again = amplified(
                        fn, g, t, self.CFG, RngStream(seed, t), 3, 2, **amp.derived
                    )
                    assert self._fields(amp_again) == self._fields(amp), (graph_name, t, seed)


class TestRegistry:
    def test_uniform_call_surface(self):
        g = pg.complete(4)
        cfg = EstimatorConfig()
        for name, fn in ESTIMATORS.items():
            kwargs = {"walks": 32} if name.endswith("-mc") else {}
            est = fn(g, 0, cfg, rng=RngStream(7, 1), **kwargs)
            assert isinstance(est, Estimate)
            assert est.value >= 0
            assert est.pushes >= 0 and est.walk_steps >= 0 and est.rng_draws >= 0
