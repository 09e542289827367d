import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from pushrank import oracle
from pushrank.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


class TestQuery:
    def test_local_push_symmetric_value(self, runner):
        res = invoke(
            runner, "query", "--gen", "complete:4", "--target", "0",
            "--method", "local-push", "--c", "1e-9",
        )
        assert res.exit_code == 0
        value = float(res.output.split("value")[1].split()[0])
        assert abs(value - 0.25) <= 1e-8

    def test_json_determinism(self, runner):
        args = ("query", "--gen", "k2", "--target", "0", "--method", "reverse-mc",
                "--seed", "1", "--json")
        a = invoke(runner, *args)
        b = invoke(runner, *args)
        assert a.exit_code == 0
        assert a.output == b.output
        doc = json.loads(a.output)
        assert doc["value"] == pytest.approx(0.5)
        assert "wall" not in a.output  # timing excluded from the stable schema

    def test_setpush_tiny_theta_matches_oracle(self, runner, tmp_path):
        p3 = tmp_path / "p3.txt"
        p3.write_text("0 1\n1 2\n")
        res = invoke(
            runner, "query", "--graph", str(p3), "--target", "1",
            "--method", "setpush", "--theta", "1e-18", "--json",
        )
        assert res.exit_code == 0
        doc = json.loads(res.output)
        oracle_res = invoke(runner, "oracle", "--graph", str(p3))
        truncated = float(oracle_res.output.strip().splitlines()[2].split(",")[2])
        assert abs(doc["value"] - truncated) <= 1e-10
        assert doc["counters"]["rng_draws"] == 0

    def test_amplified_flags(self, runner):
        args = ("query", "--gen", "star:9", "--target", "0", "--method", "setpush",
                "--seed", "3", "--reps", "6", "--groups", "2", "--json")
        a = invoke(runner, *args)
        assert a.exit_code == 0
        assert invoke(runner, *args).output == a.output

    def test_missing_graph_source(self, runner):
        res = runner.invoke(main, ["query", "--target", "0", "--method", "setpush"])
        assert res.exit_code == 1

    def test_unknown_target(self, runner):
        res = runner.invoke(
            main, ["query", "--gen", "k2", "--target", "7", "--method", "setpush"]
        )
        assert res.exit_code == 1
        assert "not present" in res.output or "error" in res.output

    def test_unknown_flag_rejected(self, runner):
        res = runner.invoke(
            main, ["query", "--gen", "k2", "--target", "0", "--method", "setpush",
                   "--frobnicate", "1"],
        )
        assert res.exit_code != 0

    @pytest.mark.parametrize("theta", ["nan", "inf"])
    def test_non_finite_theta(self, runner, theta):
        res = runner.invoke(
            main, ["query", "--gen", "k2", "--target", "0", "--method", "setpush",
                   "--theta", theta],
        )
        assert res.exit_code == 1, res.output
        assert res.output.startswith("error: theta")

    @pytest.mark.parametrize("method", ["reverse-mc", "forward-mc"])
    @pytest.mark.parametrize("c", ["1e-300", "1e-160"])  # c^2 underflows; the count overflows
    def test_tiny_c_default_walks(self, runner, method, c):
        res = runner.invoke(
            main, ["query", "--gen", "ring:50", "--target", "0", "--method", method, "--c", c],
        )
        assert res.exit_code == 1, res.output
        assert res.output.startswith(f"error: c = {float(c)} makes the default walk count")

    @pytest.mark.parametrize("method", ["setpush", "reverse-mc", "forward-mc"])
    @pytest.mark.parametrize("c", ["1e155", "1e200"])  # c*c is infinite
    def test_huge_c(self, runner, method, c):
        res = runner.invoke(
            main, ["query", "--gen", "ring:50", "--target", "0", "--method", method, "--c", c],
        )
        assert res.exit_code == 1, res.output
        assert res.output.startswith(f"error: c = {float(c)} makes the ")

    def test_out_of_memory(self, runner):
        # 7.5e16 default walks: 533 PiB of int64 starts, past any address
        # space, so the allocation fails at once
        res = runner.invoke(
            main, ["query", "--gen", "ring:50", "--target", "0", "--method", "reverse-mc",
                   "--c", "2e-8"],
        )
        assert res.exit_code == 1, res.output
        assert res.output.startswith("error: out of memory")

    @pytest.mark.parametrize("method", ["setpush", "reverse-mc", "forward-mc", "local-push"])
    @pytest.mark.parametrize("flag, value, methods", [
        ("theta", "0.05", {"setpush"}),
        ("walks", "100", {"reverse-mc", "forward-mc"}),
    ], ids=["theta", "walks"])
    def test_override_flag_per_method(self, runner, flag, value, methods, method):
        res = runner.invoke(
            main, ["query", "--gen", "k2", "--target", "0", "--method", method,
                   f"--{flag}", value, "--json"],
        )
        if method in methods:
            assert res.exit_code == 0, res.output
            assert json.loads(res.output)["derived"][flag] == float(value)
        else:
            assert res.exit_code == 1, res.output
            assert res.output == f"error: --{flag} does not apply to {method}\n"


class TestOracleCmd:
    def test_k2_rows(self, runner):
        res = invoke(runner, "oracle", "--gen", "k2")
        lines = res.output.strip().splitlines()
        assert lines[0] == "node,pagerank,truncated"
        for row in lines[1:]:
            assert float(row.split(",")[1]) == pytest.approx(0.5, abs=1e-12)

    def test_complete4_uniform(self, runner):
        res = invoke(runner, "oracle", "--gen", "complete:4")
        for row in res.output.strip().splitlines()[1:]:
            assert float(row.split(",")[1]) == pytest.approx(0.25, abs=1e-12)

    def test_ring_past_table_gate(self, runner):
        # no dense tables: on a ring every node has pagerank 1/n, and the
        # truncated value is the geometric sum over levels 0..L, over n
        n, alpha = 10_001, 0.2
        res = invoke(runner, "oracle", "--gen", f"ring:{n}")
        assert res.exit_code == 0
        rows = [line.split(",") for line in res.output.strip().splitlines()[1:]]
        assert len(rows) == n
        levels = oracle.truncation_levels(n, alpha, 0.1)
        truncated = (1 - (1 - alpha) ** (levels + 1)) / n
        for row in rows:
            assert float(row[1]) == pytest.approx(1 / n, rel=1e-12, abs=0)
            assert float(row[2]) == pytest.approx(truncated, rel=1e-12, abs=0)

    @pytest.mark.parametrize("flag", [("--c", "0"), ("--c", "nan"), ("--alpha", "1.5")])
    def test_bad_parameters_exit_code(self, runner, flag):
        res = runner.invoke(main, ["oracle", "--gen", "k2", *flag])
        assert res.exit_code == 1, res.output
        assert res.output.startswith("error: ")

    def test_out_file(self, runner, tmp_path):
        out = tmp_path / "o.csv"
        res = invoke(runner, "oracle", "--gen", "k2", "--out", str(out))
        assert res.exit_code == 0
        assert out.read_text().startswith("node,pagerank")


class TestBenchCmd:
    def test_single_record_csv(self, runner, tmp_path):
        res = invoke(
            runner, "bench", "--gen", "complete:16", "--method", "setpush",
            "--targets", "uniform:1", "--reps", "1", "--seed", "4",
            "--out-dir", str(tmp_path),
        )
        assert res.exit_code == 0
        lines = (tmp_path / "records.csv").read_text().strip().splitlines()
        assert len(lines) == 2

    def test_rerun_identical_summary(self, runner, tmp_path):
        for sub in ("a", "b"):
            invoke(
                runner, "bench", "--gen", "complete:16", "--method", "reverse-mc",
                "--targets", "uniform:2", "--reps", "3", "--seed", "11",
                "--out-dir", str(tmp_path / sub),
            )
        assert (tmp_path / "a/summary.json").read_text() == (
            tmp_path / "b/summary.json"
        ).read_text()

    def test_spec_file(self, runner, tmp_path):
        spec = {
            "graph": "gen:star:9",
            "estimator": "local-push",
            "policy": {"kind": "uniform", "count": 2, "seed": 1},
            "configs": [{"c": 0.5}],
            "repetitions": 1,
            "seed": 2,
            "oracle": True,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        res = invoke(runner, "bench", "--spec", str(path), "--out-dir", str(tmp_path / "out"))
        assert res.exit_code == 0
        doc = json.loads((tmp_path / "out/summary.json").read_text())
        assert doc["summaries"][0]["failure_rate"] == 0.0

    def test_negative_seed(self, runner, tmp_path):
        res = runner.invoke(main, ["bench", "--gen", "ring:50", "--method", "setpush",
                                   "--seed", "-1", "--out-dir", str(tmp_path)])
        assert res.exit_code == 1, res.output
        assert res.output.startswith("error: target policy seed must be an integer >= 0")

    def test_bad_targets_count(self, runner, tmp_path):
        res = runner.invoke(main, ["bench", "--gen", "complete:16", "--method", "setpush",
                                   "--targets", "uniform:abc", "--out-dir", str(tmp_path)])
        assert res.exit_code == 1, res.output
        assert "error: --targets count must be an integer" in res.output

    @pytest.mark.parametrize("text, message", [
        ('{"graph": "gen:k2", "estimator": "setpush"}', "'policy'"),
        ('{"graph": "gen:k2", "estimator": "setpush", "frobnicate": 1, '
         '"policy": {"kind": "uniform", "count": 1, "seed": 0}}', "frobnicate"),
        ('{"graph": "gen:k2",\n  "estimator": ', "error: line 2: spec is not JSON"),
        ('{"graph": "gen:k2", "estimator": "setpush", "seed": "x", '
         '"policy": {"kind": "uniform", "count": 1, "seed": 0}}',
         "seed must be an integer, got 'x'"),
        ('{"graph": "gen:k2", "estimator": "setpush", "seed": 1.5, '
         '"policy": {"kind": "uniform", "count": 1, "seed": 0}}',
         "seed must be an integer, got 1.5"),
        ('{"graph": "gen:k2", "estimator": "setpush", "repetitions": 1.5, '
         '"policy": {"kind": "uniform", "count": 1, "seed": 0}}',
         "repetitions must be an integer >= 1, got 1.5"),
        ('{"graph": "gen:k2", "estimator": "setpush", '
         '"policy": {"kind": "uniform", "count": 2.5, "seed": 0}}',
         "target count must be an integer >= 1, got 2.5"),
        ('{"graph": "gen:k2", "estimator": "setpush", '
         '"policy": {"kind": "uniform", "count": 1, "seed": "x"}}',
         "target policy seed must be an integer >= 0, got 'x'"),
        ('{"graph": 5, "estimator": "setpush", '
         '"policy": {"kind": "uniform", "count": 1, "seed": 0}}', "graph must be a string, got 5"),
        ('{"graph": "gen:k2", "estimator": "setpush", "oracle": "no", '
         '"policy": {"kind": "uniform", "count": 1, "seed": 0}}',
         "oracle must be true or false, got 'no'"),
    ], ids=["no-policy", "unknown-key", "not-json", "str-seed", "float-seed",
            "float-repetitions", "float-count", "str-policy-seed", "int-graph", "str-oracle"])
    def test_bad_spec_file(self, runner, tmp_path, text, message):
        path = tmp_path / "spec.json"
        path.write_text(text)
        res = runner.invoke(main, ["bench", "--spec", str(path), "--out-dir", str(tmp_path)])
        assert res.exit_code == 1, res.output
        assert res.output.startswith("error: ") and message in res.output

    @pytest.mark.parametrize("estimator, extras, message", [
        ("reverse-mc", '{"walks": 1.5}', "walks must be an integer >= 1, got 1.5"),
        ("local-push", '{"epsilon": NaN}', "epsilon must be finite and > 0, got nan"),
        ("setpush", '{"alpha": "x"}', "alpha must be a real number, got 'x'"),
        ("setpush", '{"levels_override": 2.5}', "unknown config keys ['levels_override'] for setpush"),
        ("setpush", '{"theta": "0.1"}', "theta must be a real number, got '0.1'"),
        ("setpush", '{"threshold_override": 0.1}',
         "unknown config keys ['threshold_override'] for setpush"),
        ("setpush", '{"cost_constant": [1]}', "cost_constant must be a real number, got [1]"),
        ("setpush", '{"walks": 10}', "unknown config keys ['walks'] for setpush"),
        ("reverse-mc", '{"epsilon": 0.1}', "unknown config keys ['epsilon'] for reverse-mc"),
        ("setpush", '{"c": 1e200}', "c = 1e+200 makes the push threshold inf"),
    ], ids=["float-walks", "nan-epsilon", "str-alpha", "float-levels", "str-threshold",
            "threshold-override-key", "list-cost-constant", "walks-on-setpush", "epsilon-on-reverse-mc", "huge-c"])
    def test_bad_spec_extras(self, runner, tmp_path, estimator, extras, message):
        # Python's json reads NaN, so a spec can carry it to the estimator
        path = tmp_path / "spec.json"
        path.write_text(
            f'{{"graph": "gen:star:9", "estimator": "{estimator}", '
            f'"policy": {{"kind": "uniform", "count": 2, "seed": 1}}, '
            f'"configs": [{extras}], "seed": 2}}'
        )
        res = runner.invoke(main, ["bench", "--spec", str(path), "--out-dir", str(tmp_path)])
        assert res.exit_code == 1, res.output
        assert res.output.startswith("error: ") and message in res.output


class TestGenValidate:
    def test_gen_then_validate(self, runner, tmp_path):
        out = tmp_path / "g.txt"
        res = invoke(runner, "gen", "power_law:300:2.5:7", "--out", str(out))
        assert res.exit_code == 0
        res = invoke(runner, "validate", "--graph", str(out))
        assert res.exit_code == 0
        assert "ok" in res.output

    def test_validate_reports_self_loop_drop(self, runner, tmp_path):
        path = tmp_path / "loop.txt"
        path.write_text("0 1\n1 1\n")
        res = invoke(runner, "validate", "--graph", str(path))
        assert res.exit_code == 0
        assert "1 self-loop" in res.output

    def test_validate_isolated_node_exit_one(self, runner, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("5 5\n1 2\n")
        res = runner.invoke(main, ["validate", "--graph", str(path)])
        assert res.exit_code == 1
        assert "5" in res.output

    def test_missing_file_is_io_error(self, runner, tmp_path):
        res = runner.invoke(main, ["validate", "--graph", str(tmp_path / "nope.txt")])
        assert res.exit_code == 2

    @pytest.mark.parametrize("content, line", [
        (b"0 1\n1 2\n99999999999999999999 0\n", 3),
        (b"0 1\n\xff\xfe 2\n", 2),
        (b"# caf\xe9\n0 1\n", 1),
    ])
    def test_bad_edge_list_is_parse_error(self, runner, tmp_path, content, line):
        path = tmp_path / "bad.txt"
        path.write_bytes(content)
        for args in (["validate", "--graph", str(path)],
                     ["query", "--graph", str(path), "--target", "0", "--method", "setpush"]):
            res = runner.invoke(main, args)
            assert res.exit_code == 1, res.output
            assert f"error: line {line}: " in res.output


def test_import_leaves_scipy_unloaded():
    code = "import pushrank.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)


def _readme_cli_commands():
    """The ``pushrank`` commands of the fenced bash block under README's
    ``## CLI``, continuation lines joined, each as its argument list."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    return [
        shlex.split(line)[1:]
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("pushrank ")
    ]


def test_readme_cli_examples_run(runner, tmp_path, monkeypatch):
    # relative --out/--out-dir paths land in tmp_path; the block's
    # graph.txt is the er.txt its gen line writes, so that line runs first
    monkeypatch.chdir(tmp_path)
    commands = _readme_cli_commands()
    commands.sort(key=lambda args: args[0] != "gen")
    assert len(commands) == 7 and commands[0][-1] == "er.txt"
    for args in commands:
        args = ["er.txt" if arg == "graph.txt" else arg for arg in args]
        res = runner.invoke(main, args)
        assert res.exit_code == 0, (args, res.output)
