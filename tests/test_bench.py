import json
import math

import numpy as np
import pytest

from pushrank import bench, graph as pg, oracle
from pushrank.errors import ValidationError


def spec_complete16(**overrides):
    base = dict(
        graph="gen:complete:16",
        estimator="setpush",
        policy=bench.TargetPolicy("uniform", 3, seed=5),
        configs=[{}],
        repetitions=2,
        seed=9,
    )
    base.update(overrides)
    return bench.ExperimentSpec(**base)


class TestSpec:
    def test_json_round_trip(self):
        spec = spec_complete16()
        again = bench.ExperimentSpec.from_json(spec.to_json())
        assert again == spec

    def test_validation(self):
        with pytest.raises(ValidationError):
            spec_complete16(estimator="nope")
        with pytest.raises(ValidationError):
            spec_complete16(repetitions=0)
        with pytest.raises(ValidationError):
            spec_complete16(configs=[{"bogus_key": 1}])
        with pytest.raises(ValidationError):
            bench.TargetPolicy("sideways", 3, 0)


class TestRunExperiment:
    def test_record_count_and_single_record(self):
        records = bench.run_experiment(spec_complete16(repetitions=1, configs=[{}]))
        assert len(records) == 3
        records = bench.run_experiment(spec_complete16(configs=[{}, {"c": 0.5}]))
        assert len(records) == 3 * 2 * 2

    def test_determinism(self):
        a = bench.run_experiment(spec_complete16())
        b = bench.run_experiment(spec_complete16())
        assert bench.records_equal(a, b)

    def test_concurrency_independence(self):
        spec = spec_complete16(repetitions=4)
        serial = bench.run_experiment(spec, threads=1)
        pooled = bench.run_experiment(spec, threads=4)
        assert bench.records_equal(serial, pooled)

    def test_concurrency_independence_sparse_frontier(self):
        # ring frontiers stay far below n/8, so setpush runs its sparse
        # levels and the settled-piece fold on every pool thread at once
        spec = spec_complete16(
            graph="gen:ring:20000", policy=bench.TargetPolicy("uniform", 4, seed=5),
            repetitions=3, oracle=False,
        )
        serial = bench.run_experiment(spec, threads=1)
        pooled = bench.run_experiment(spec, threads=4)
        assert bench.records_equal(serial, pooled)

    def test_oracle_values_attached(self):
        records = bench.run_experiment(spec_complete16())
        for rec in records:
            assert rec.oracle_value == pytest.approx(1 / 16, abs=1e-10)

    def test_oracle_values_past_dense_vector_gate(self):
        # the oracle column comes from the sparse pagerank, so n above the
        # dense vector gate (10^4) still gets it
        spec = spec_complete16(graph="gen:ring:20000", repetitions=1)
        for rec in bench.run_experiment(spec):
            assert rec.oracle_value == pytest.approx(1 / 20000, rel=1e-9)
        spec = spec_complete16(graph="gen:ring:20000", repetitions=1, oracle=False)
        records = bench.run_experiment(spec)
        assert records[0].oracle_value is None

    def test_stream_ids_follow_task_order(self):
        records = bench.run_experiment(spec_complete16())
        assert [r.stream_id for r in records] == list(range(len(records)))

    def test_mixed_alpha_grid_rejected_with_oracle(self):
        spec = spec_complete16(configs=[{"alpha": 0.2}, {"alpha": 0.3}])
        with pytest.raises(ValidationError, match="single alpha"):
            bench.run_experiment(spec)


class TestTargetPolicies:
    def test_uniform_deterministic(self):
        g = pg.power_law(500, 2.5, 7)
        a = bench.select_targets(g, bench.TargetPolicy("uniform", 10, 3))
        b = bench.select_targets(g, bench.TargetPolicy("uniform", 10, 3))
        assert a == b
        assert len(a) == 10

    def test_degree_weighted_prefers_hubs(self):
        g = pg.star(400)
        picks = [
            bench.select_targets(g, bench.TargetPolicy("degree_weighted", 1, s))[0][0]
            for s in range(200)
        ]
        # center holds half the total degree mass
        frac = np.mean([p == 0 for p in picks])
        assert abs(frac - 0.5) < 4 * math.sqrt(0.25 / 200)

    def test_degree_buckets_partition(self):
        g = pg.power_law(10_000, 2.5, 21)
        bands = bench.degree_bands(g)
        targets = bench.select_targets(g, bench.TargetPolicy("degree_buckets", 5, 3))
        seen = set()
        for node, bucket in targets:
            assert node not in seen
            seen.add(node)
            lo, hi = bands[bucket]
            assert lo <= g.degree(node) < hi
        buckets = {b for _, b in targets}
        assert len(buckets) >= 3  # heavy tail fills several bands
        # bucket mean degrees are separated in band order
        means = {}
        for b in sorted(buckets):
            degs = [g.degree(u) for u, bb in targets if bb == b]
            means[b] = np.mean(degs)
        ordered = [means[b] for b in sorted(means)]
        assert all(x > y for x, y in zip(ordered, ordered[1:]))


class TestSummaries:
    def test_all_exact_gives_zero_error(self):
        spec = spec_complete16(estimator="local-push", configs=[{"c": 1e-9}])
        records = bench.run_experiment(spec)
        (summary,) = bench.summarize(records, spec.configs)
        assert summary.mean_rel_err < 1e-6
        assert summary.failure_rate == 0.0

    def test_single_record_variance_absent(self):
        spec = spec_complete16(
            repetitions=1, policy=bench.TargetPolicy("uniform", 1, 5)
        )
        records = bench.run_experiment(spec)
        (summary,) = bench.summarize(records, spec.configs)
        assert summary.runs == 1
        assert summary.variance is None

    def test_failure_rate_within_binomial_ci(self):
        spec = spec_complete16(
            repetitions=200, policy=bench.TargetPolicy("uniform", 1, 5)
        )
        records = bench.run_experiment(spec)
        (summary,) = bench.summarize(records, spec.configs)
        p = 0.1
        assert summary.failure_rate <= p + 3 * math.sqrt(p * (1 - p) / 200)

    def test_grouping_by_config(self):
        spec = spec_complete16(configs=[{}, {"c": 0.5}])
        summaries = bench.summarize(bench.run_experiment(spec), spec.configs)
        assert {s.config_index for s in summaries} == {0, 1}


class TestScalingStudy:
    def test_needs_two_buckets(self):
        g = pg.complete(16)  # all degrees equal: one bucket
        with pytest.raises(ValidationError, match="buckets"):
            bench.scaling_study(g, ["local-push"], targets_per_bucket=2, seed=1)

    def test_walk_cost_flat_on_power_law(self):
        g = pg.power_law(5000, 2.5, 31)
        curves = bench.scaling_study(
            g,
            ["forward-mc"],
            targets_per_bucket=3,
            seed=2,
            extras_by_estimator={"forward-mc": {"walks": 4000}},
        )
        assert abs(curves["forward-mc"].slope) < 0.15

    def test_push_cost_grows_on_power_law(self):
        g = pg.power_law(5000, 2.5, 31)
        cap = 0.3 * math.sqrt(g.edge_count / 1.6)
        curves = bench.scaling_study(
            g, ["setpush"], targets_per_bucket=3, seed=2, max_degree=cap
        )
        assert curves["setpush"].slope > 0.4


class TestWriters:
    def test_csv_and_json(self, tmp_path):
        spec = spec_complete16()
        records = bench.run_experiment(spec)
        csv_path, json_path = tmp_path / "records.csv", tmp_path / "summary.json"
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            bench.write_records_csv(records, fh)
        with open(json_path, "w", encoding="utf-8") as fh:
            bench.write_summary_json(bench.summarize(records, spec.configs), fh, spec)
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == len(records) + 1
        assert lines[0].startswith("estimator,target")
        doc = json.loads(json_path.read_text())
        assert doc["schema_version"] == bench.SCHEMA_VERSION
        assert doc["spec"]["estimator"] == "setpush"
        assert len(doc["summaries"]) == 1
