"""Acceptance suite: one test per numbered criterion, each printing a
single PASS/FAIL line with the binding measurement.

Run `pytest -s tests/test_acceptance.py -v` to see the lines live; plain
`pytest` shows them for failures only.
"""
import json
import math
import time

import numpy as np
import pytest
import scipy.stats
from click.testing import CliRunner

from pushrank import bench, graph as pg, oracle
from pushrank.cli import main as cli_main
from pushrank.estimators import (
    EstimatorConfig,
    compute_threshold,
    local_push,
    reverse_mc,
    setpush,
)
from pushrank.sampling import RngStream, skip_sample

from conftest import FP_DUST, small_suite_graphs, suite_graphs

A = 0.2


def _report(num: int, name: str, ok: bool, detail: str, elapsed: float, budget: float):
    ok = ok and elapsed < budget
    line = (
        f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: "
        f"{detail} [{elapsed:.1f}s / budget {budget:.0f}s]"
    )
    print(line)
    assert ok, line


def test_criterion_01_oracle_identities():
    t0 = time.time()
    worst = {"identity": 0.0, "reversibility": 0.0, "level_mass": 0.0, "level_rev": 0.0}
    lower_ok = True
    for name, g in suite_graphs():
        n = g.node_count
        pi = oracle.pagerank(g, A)
        lower_ok &= bool(np.all(pi >= A / n - 1e-12))
        mat = oracle.ppr_matrix(g, A)
        worst["identity"] = max(worst["identity"], float(np.max(np.abs(mat.mean(axis=1) - pi))))
        scaled = mat * g.degrees[None, :]
        worst["reversibility"] = max(worst["reversibility"], float(np.max(np.abs(scaled - scaled.T))))
        tables = oracle.lhop_ppr_tables(g, A, min(12, oracle.truncation_levels(n, A, 0.1)))
        d = g.degrees.astype(float)
        for lvl in range(tables.shape[0]):
            mass = tables[lvl].sum(axis=1)
            worst["level_mass"] = max(worst["level_mass"], float(np.max(np.abs(mass - A * (1 - A) ** lvl))))
            ds = d[:, None] * tables[lvl]
            worst["level_rev"] = max(worst["level_rev"], float(np.max(np.abs(ds - ds.T))))
    ok = lower_ok and all(v < 1e-10 for v in worst.values())
    _report(1, "oracle identities on 20 graphs", ok,
            f"max deviations {worst}, lower bound {'holds' if lower_ok else 'VIOLATED'}",
            time.time() - t0, 30.0)


def test_criterion_02_truncation_bound():
    t0 = time.time()
    ok = True
    worst_ratio = 0.0
    for name, g in suite_graphs():
        pi = oracle.pagerank(g, A)
        for c in (0.1, 0.5):
            tables = oracle.build_tables(g, A, c)
            gap = pi - tables.truncated
            ok &= bool(np.all(gap >= -1e-12))
            ratio = float(np.max(gap / pi))
            worst_ratio = max(worst_ratio, ratio / (c / 2))
            ok &= ratio <= c / 2 + 1e-12
    _report(2, "truncation within (c/2) relative", ok,
            f"worst gap at {worst_ratio:.3f} of the c/2 allowance",
            time.time() - t0, 30.0)


def test_criterion_03_deterministic_regime():
    t0 = time.time()
    cfg = EstimatorConfig()
    ok = True
    worst = 0.0
    graphs = [(n, g) for n, g in suite_graphs() if g.node_count <= 64]
    for name, g in graphs:
        truncated = oracle.build_tables(g, A, 0.1).truncated
        for t in range(g.node_count):
            est = setpush(g, t, cfg, RngStream(31, t), theta=1e-18)
            worst = max(worst, abs(est.value - truncated[t]))
            ok &= est.rng_draws == 0 and abs(est.value - truncated[t]) <= 1e-10
    _report(3, "tiny-threshold run equals truncated oracle", ok,
            f"{len(graphs)} graphs, max |diff| {worst:.2e}, all rng_draws 0",
            time.time() - t0, 10.0)


@pytest.fixture(scope="module")
def default_threshold_runs():
    """Per-target run statistics on the four-graph suite with the default
    threshold, shared by criteria 4-6.

    A run that consumes zero RNG draws is a deterministic function of the
    graph alone (branch choices never consult the stream), so its seeded
    replications are all equal; we verify that on 8 distinct streams and
    use the analytic mean/variance instead of burning 2e4 identical runs.
    Any target where draws occur falls back to the full 2e4-run sample.
    """
    runs = 20_000
    out = []
    for name, g in small_suite_graphs():
        tables = oracle.build_tables(g, A, 0.1)
        cfg = EstimatorConfig()
        for t in range(g.node_count):
            theta = compute_threshold(g, t, cfg)
            probe = setpush(g, t, cfg, RngStream(1000 + t, 0))
            if probe.rng_draws == 0:
                replicas = [setpush(g, t, cfg, RngStream(1000 + t, i)) for i in range(1, 8)]
                assert all(
                    r.value == probe.value and r.rng_draws == 0 and r.pushes == probe.pushes
                    for r in replicas
                )
                mean, var, mean_pushes, nruns = probe.value, 0.0, float(probe.pushes), runs
            else:
                vals = np.empty(runs)
                push_acc = 0
                for i in range(runs):
                    est = setpush(g, t, cfg, RngStream(1000 + t, i))
                    vals[i] = est.value
                    push_acc += est.pushes
                mean, var = float(vals.mean()), float(vals.var(ddof=1))
                mean_pushes, nruns = push_acc / runs, runs
            out.append(
                dict(graph=name, g=g, t=t, theta=theta, mean=mean, var=var,
                     mean_pushes=mean_pushes, runs=nruns,
                     truncated=float(tables.truncated[t]),
                     pagerank=float(tables.pagerank[t]),
                     levels=cfg.levels(g.node_count))
            )
    return out


def test_criterion_04_setpush_unbiasedness(default_threshold_runs):
    t0 = time.time()
    ok = True
    worst = 0.0
    for row in default_threshold_runs:
        band = 4.0 * math.sqrt(row["var"]) / math.sqrt(row["runs"]) + FP_DUST
        dev = abs(row["mean"] - row["truncated"])
        worst = max(worst, dev / band)
        ok &= dev <= band
    _report(4, "setpush mean matches truncated oracle", ok,
            f"22 targets, worst deviation at {worst:.3f} of the 4-sigma band",
            time.time() - t0, 120.0)


def test_criterion_05_setpush_variance_bound(default_threshold_runs):
    t0 = time.time()
    ok = True
    worst = 0.0
    for row in default_threshold_runs:
        bound = (
            row["levels"] * row["theta"] * row["g"].degree(row["t"])
            / row["g"].node_count * row["pagerank"] * 1.05
        )
        worst = max(worst, row["var"] / bound)
        ok &= row["var"] <= bound
    _report(5, "setpush variance within analytic bound", ok,
            f"worst sample variance at {worst:.2e} of the 1.05x bound",
            time.time() - t0, 120.0)


def test_criterion_06_setpush_cost_bound(default_threshold_runs):
    t0 = time.time()
    ok = True
    worst = 0.0
    for row in default_threshold_runs:
        bound = 1.1 / (A * row["theta"])
        worst = max(worst, row["mean_pushes"] / bound)
        ok &= row["mean_pushes"] <= bound
    _report(6, "setpush mean pushes within cost bound", ok,
            f"worst mean pushes at {worst:.2e} of 1.1/(alpha*theta)",
            time.time() - t0, 120.0)


def test_criterion_07_relative_error_contract():
    t0 = time.time()
    runs = 1000
    limit = 0.1 + 3 * math.sqrt(0.1 * 0.9 / runs)
    cfg = EstimatorConfig()
    ok = True
    details = []
    cases = [("complete16", pg.complete(16)), ("power_law2000", pg.power_law(2000, 2.5, 13))]
    for name, g in cases:
        pi = oracle.pagerank(g, A)
        t = int(np.random.default_rng(5).integers(g.node_count))
        for label, fn, seed in (("setpush", setpush, 100), ("reverse-mc", reverse_mc, 200)):
            fails = 0
            for i in range(runs):
                est = fn(g, t, cfg, RngStream(seed, i))
                fails += abs(est.value - pi[t]) > cfg.c * pi[t]
            rate = fails / runs
            details.append(f"{label}@{name}={rate:.3f}")
            ok &= rate <= limit
    _report(7, "(c, p_f) failure-rate contract", ok,
            f"rates {', '.join(details)} vs limit {limit:.3f}",
            time.time() - t0, 180.0)


def test_criterion_08_reverse_mc_variance_bound():
    t0 = time.time()
    batches = 1000
    ok = True
    details = []
    for name, g, t in (("star9", pg.star(9), 0), ("k2", pg.complete(2), 0)):
        pi = oracle.pagerank(g, A)
        cfg = EstimatorConfig()
        walks = math.ceil(3 * g.degree(t) / (cfg.c**2 * cfg.alpha))
        vals = np.array(
            [reverse_mc(g, t, cfg, RngStream(800, i)).value for i in range(batches)]
        )
        bound = g.degree(t) * pi[t] / (g.node_count * walks)
        var = vals.var(ddof=1)
        details.append(f"{name}: var {var:.3e} vs bound {bound:.3e}")
        ok &= var <= bound * 1.2
    _report(8, "reverse-MC variance within 1.2x bound", ok,
            "; ".join(details), time.time() - t0, 60.0)


def test_criterion_09_local_push_guarantee():
    t0 = time.time()
    ok = True
    worst = 0.0
    for name, g in suite_graphs():
        pi = oracle.pagerank(g, A)
        for c in (0.1, 0.5):
            cfg = EstimatorConfig(c=c)
            for t in range(g.node_count):
                gap = pi[t] - local_push(g, t, cfg).value
                ok &= -1e-12 <= gap <= c * pi[t] + 1e-12
                worst = max(worst, gap / (c * pi[t]))
    _report(9, "local-push one-sided relative-error guarantee", ok,
            f"every node, c in (0.1, 0.5); worst gap at {worst:.3f} of allowance",
            time.time() - t0, 60.0)


def test_criterion_10_cost_scaling():
    t0 = time.time()
    g = pg.power_law(50_000, 2.5, 11)
    cap = 0.3 * math.sqrt(g.edge_count / (2 * (1 - A)))
    push_curve = bench.scaling_study(
        g, ["setpush"], targets_per_bucket=5, seed=3, max_degree=cap
    )["setpush"]
    walk_curve = bench.scaling_study(
        g, ["forward-mc"], targets_per_bucket=5, seed=3,
        extras_by_estimator={"forward-mc": {"walks": 20_000}},
    )["forward-mc"]

    star = pg.star(10_000)
    cfg = EstimatorConfig()
    theta = compute_threshold(star, 0, cfg)
    sqrt_branch = (
        A * cfg.c**2 * cfg.failure_prob / (4 * cfg.levels(star.node_count))
        * math.sqrt(2 * (1 - A) / star.edge_count)
    )
    star_pushes = np.mean(
        [setpush(star, 0, cfg, RngStream(77, i)).pushes for i in range(3)]
    )
    plateau_ok = (
        star.degree(0) > math.sqrt(star.edge_count)
        and theta == pytest.approx(sqrt_branch)
        and star_pushes <= 1.1 / (A * theta)
    )
    ok = 0.8 <= push_curve.slope <= 1.2 and abs(walk_curve.slope) <= 0.15 and plateau_ok
    _report(10, "cost scaling versus target degree", ok,
            f"setpush slope {push_curve.slope:.3f}, forward-mc slope "
            f"{walk_curve.slope:.3f}, star pushes {star_pushes:.0f} <= "
            f"{1.1 / (A * theta):.2e}",
            time.time() - t0, 300.0)


def test_criterion_11_geometric_sampler():
    t0 = time.time()
    d, p, trials = 3, 0.4, 100_000
    owner, position = skip_sample(np.full(trials, d), np.full(trials, p), RngStream(205))
    mask = np.zeros(trials, dtype=np.int64)
    np.bitwise_or.at(mask, owner, 1 << (position - 1))
    observed = np.bincount(mask, minlength=2**d)
    total_emitted = owner.size
    index_hits = np.bincount(position - 1, minlength=d)
    expected = np.array(
        [trials * p ** bin(m).count("1") * (1 - p) ** (d - bin(m).count("1"))
         for m in range(2**d)]
    )
    stat = float(np.sum((observed - expected) ** 2 / expected))
    crit = float(scipy.stats.chi2.ppf(1 - 1e-3, df=2**d - 1))
    mean_count = total_emitted / trials
    count_band = 3 * math.sqrt(d * p * (1 - p) / trials)
    marg_band = 3 * math.sqrt(p * (1 - p) / trials)
    ok = (
        stat < crit
        and abs(mean_count - d * p) < count_band
        and all(abs(h / trials - p) < marg_band for h in index_hits)
    )
    _report(11, "geometric sampler Bernoulli independence", ok,
            f"chi2 {stat:.2f} < {crit:.2f}, mean emitted {mean_count:.4f} "
            f"vs {d * p}", time.time() - t0, 30.0)


def test_criterion_12_cli_determinism():
    t0 = time.time()
    runner = CliRunner()
    invocations = [
        ["query", "--gen", "power_law:200:2.5:7", "--target", "3",
         "--method", "setpush", "--seed", "42", "--json"],
        ["query", "--gen", "k2", "--target", "0", "--method", "reverse-mc",
         "--seed", "1", "--json"],
        ["query", "--gen", "complete:8", "--target", "2", "--method", "forward-mc",
         "--seed", "9", "--walks", "500", "--json"],
        ["query", "--gen", "star:9", "--target", "0", "--method", "local-push",
         "--seed", "7", "--json"],
        ["query", "--gen", "star:9", "--target", "0", "--method", "setpush",
         "--seed", "3", "--reps", "6", "--groups", "2", "--json"],
    ]
    ok = True
    for args in invocations:
        a = runner.invoke(cli_main, args, catch_exceptions=False)
        b = runner.invoke(cli_main, args, catch_exceptions=False)
        ok &= a.exit_code == 0 and a.output == b.output
        json.loads(a.output)  # schema-stable, parseable
    _report(12, "CLI --json byte-identical under fixed seed", ok,
            f"{len(invocations)} invocations replayed", time.time() - t0, 30.0)
