"""The tail-percentile rule and the failed-query accounting."""
import json
import math
import statistics

import pytest

import run
import workloads
from measure import Query, Tally, judge, mismatches, tail
from pushrank import estimators


def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 101))  # 1..100
    t = tail(values)
    assert (t.value, t.percentile, t.samples) == (90, 90.0, 100)
    assert sum(v > t.value for v in values) == 10


def test_tail_is_unordered_input_safe():
    assert tail([5, 1, 4, 2, 3] * 6).value == tail(sorted([5, 1, 4, 2, 3] * 6)).value


@pytest.mark.parametrize("n", [1, 2, 3, 4, 10, 19, 20])
def test_tail_is_the_upper_middle_below_21_samples(n):
    values = [float(v) for v in range(1, n + 1)]
    t = tail(values)
    assert t.value == values[n // 2]
    assert t.value >= statistics.median(values)


def test_tail_of_21_samples_is_rank_11():
    t = tail(range(21))
    assert t.value == 10 and math.isclose(t.percentile, 100 * 11 / 21)


def test_tail_rejects_empty():
    with pytest.raises(ValueError):
        tail([])


def test_judge_flags_each_failure_kind():
    assert judge(Query("m", 0, 0, value=1.05), 1.0, 0.1).error is None
    assert "above c" in judge(Query("m", 0, 0, value=1.2), 1.0, 0.1).error
    assert "non-finite" in judge(Query("m", 0, 0, value=float("nan")), 1.0, 0.1).error
    assert "non-positive" in judge(Query("m", 0, 0, value=0.0), 1.0, 0.1).error
    assert "non-positive" in judge(Query("m", 0, 0, value=None), 1.0, 0.1).error


def test_tally_counts_failed_against_attempted():
    tally = Tally()
    tally.add([Query("m", 0, 0), Query("m", 1, 1, error="boom"), Query("m", 2, 2)])
    assert (tally.attempted, tally.failed) == (3, 1)
    assert tally.failed_share == pytest.approx(1 / 3)


def test_mismatch_compares_value_bits_and_counters():
    a = Query("m", 0, 0, value=0.1, pushes=3)
    assert mismatches([a], [Query("m", 0, 0, value=0.1, pushes=3, seconds=9.0)]) == []
    assert mismatches([a], [Query("m", 0, 0, value=0.1, pushes=4)])
    assert mismatches([a], [Query("m", 0, 0, value=0.1 + 1e-17 * 2, pushes=3)])


class TinyPairs(workloads.EstimatorPairs):
    name = "tiny"
    spec = "ring:50"

    def pick_targets(self, g):
        return [[0, 7], [21, 30]]


def _raise(*args, **kwargs):
    raise RuntimeError("stub estimator failure")


def _nan(g, t, cfg, rng=None, **kwargs):
    return estimators.Estimate(value=float("nan"))


@pytest.mark.parametrize("stub", [_raise, _nan])
def test_stub_failures_are_counted_and_the_run_completes(stub, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setitem(workloads.WORKLOADS, "ring-1e6", TinyPairs)
    monkeypatch.setitem(estimators.ESTIMATORS, "setpush", stub)
    args = run.argparse.Namespace(workload="ring-1e6", seed=3, seconds=0.05, trace=0)
    status = run.run_one(args)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1 and result["correct"] is False
    # every request makes one setpush (failed) and one reverse-mc (answered)
    assert result["attempted"] == 2 * result["failed"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_healthy_run_is_correct_in_both_modes(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setitem(workloads.WORKLOADS, "ring-1e6", TinyPairs)
    for trace in (0, 1, 0):
        args = run.argparse.Namespace(workload="ring-1e6", seed=3, seconds=0.05, trace=trace)
        assert run.run_one(args) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert all(m["value"] == m["value"] for m in result["metrics"].values())
