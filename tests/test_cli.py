"""Harness tests: subcommands, aggregation oracles, reproducibility."""

import csv
import dataclasses
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from paretobo import cli
from paretobo.acquisition import CEI, EI
from paretobo.bench import OBJECTIVES
from paretobo.cli import (
    BLAS_THREAD_VARS,
    _map_tasks,
    aggregate_ranks,
    aggregate_tradeoff,
    bootstrap_ci,
    build_problem,
    main,
    run_grid,
    suite_problems,
)
from paretobo.engine import Trace, IterationRecord
from paretobo.errors import ConfigError, HarnessError


@pytest.fixture
def evaluations(monkeypatch):
    """The points the problems that ``cli.build_problem`` builds evaluate."""
    calls = []

    def counting_problem(*args, **kwargs):
        problem = build_problem(*args, **kwargs)

        def evaluate(u):
            calls.append(u)
            return problem.evaluate(u)

        return dataclasses.replace(problem, evaluate=evaluate)

    monkeypatch.setattr(cli, "build_problem", counting_problem)
    return calls


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def synthetic_trace(path, incumbents, costs, problem="p", seed=0):
    """Write a hand-built trace with the given incumbent/cost schedule."""
    records = []
    cumulative = 0.0
    best = math.inf
    for i, (y, c) in enumerate(zip(incumbents, costs), start=1):
        cumulative += c
        best = min(best, y)
        records.append(
            IterationRecord(
                iteration=i,
                phase="bo",
                point=np.array([0.5]),
                config=np.array([0.5]),
                y=y,
                cost=c,
                cumulative_cost=cumulative,
                incumbent=best,
            )
        )
    trace = Trace(records=records, problem={"name": problem}, run_config={"seed": seed})
    trace.write(path)
    return trace


class TestSuites:
    def test_default_suite_has_six_problems(self):
        assert len(suite_problems("default")) == 6

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError):
            suite_problems("imaginary")

    def test_build_problem_parses_ids(self):
        problem = build_problem("hartmann3/expensive")
        assert problem.name == "hartmann3"
        with pytest.raises(ConfigError):
            build_problem("hartmann3")
        with pytest.raises(ConfigError):
            build_problem("hartmann3/quadratic")


class TestTradeoffAggregation:
    @staticmethod
    def rows():
        # two problems, one seed; EI baseline plus one cheaper/worse method
        out = []
        for problem, f_opt in (("p1", 0.0), ("p2", 1.0)):
            out.append(
                dict(method="ei", problem=problem, seed=0, f_opt=f_opt,
                     final_incumbent=f_opt + 1.0, total_cost=10.0)
            )
            out.append(
                dict(method="alpha1", problem=problem, seed=0, f_opt=f_opt,
                     final_incumbent=f_opt + 1.5, total_cost=5.0)
            )
        return out

    def test_ei_is_self_normalized(self):
        table = {r["method"]: r for r in aggregate_tradeoff(self.rows())}
        assert table["ei"]["mean_rel_time_pct"] == pytest.approx(100.0)
        assert table["ei"]["mean_rel_loss_pct"] == pytest.approx(0.0)

    def test_relative_values(self):
        table = {r["method"]: r for r in aggregate_tradeoff(self.rows())}
        assert table["alpha1"]["mean_rel_time_pct"] == pytest.approx(50.0)
        assert table["alpha1"]["mean_rel_loss_pct"] == pytest.approx(50.0)

    def test_missing_baseline_is_harness_error(self):
        rows = [r for r in self.rows() if r["method"] != "ei"]
        with pytest.raises(HarnessError):
            aggregate_tradeoff(rows)


class TestRankAggregation:
    def test_hand_built_rank_table(self, tmp_path):
        # slow-but-accurate ei; fast-but-weak alpha1; cheap cei in between
        manifest = []
        schedules = {
            "ei": ([5.0, 2.0, 1.0], [2.0, 2.0, 2.0]),
            "alpha1": ([5.0, 4.0, 3.0], [1.0, 1.0, 1.0]),
            "cei0.5": ([5.0, 3.0, 2.0], [0.5, 0.5, 0.5]),
        }
        for method, (ys, costs) in schedules.items():
            path = tmp_path / f"{method}.jsonl"
            synthetic_trace(path, ys, costs)
            manifest.append(
                dict(method=method, problem="p", seed=0, trace=str(path))
            )
        table = aggregate_ranks(manifest, (1.0, 5.0))
        by_key = {(r["multiple_pct"], r["method"]): r["mean_rank"] for r in table}
        # minimal budget = 3.0: cheapest full run among the EI_alpha family
        # (ei, alpha1); cei does not define it.
        # at 1x: ei = 5 (one record fits), alpha1 = 3, cei = 2
        assert by_key[(100.0, "cei0.5")] == 1.0
        assert by_key[(100.0, "alpha1")] == 2.0
        assert by_key[(100.0, "ei")] == 3.0
        # at 5x: everyone finished; ei 1 < cei 2 < alpha1 3
        assert by_key[(500.0, "ei")] == 1.0
        assert by_key[(500.0, "cei0.5")] == 2.0
        assert by_key[(500.0, "alpha1")] == 3.0

    def test_identical_traces_share_average_rank(self, tmp_path):
        manifest = []
        for method in ("ei", "alpha1", "eipu"):
            path = tmp_path / f"{method}.jsonl"
            synthetic_trace(path, [3.0, 1.0], [1.0, 1.0])
            manifest.append(dict(method=method, problem="p", seed=0, trace=str(path)))
        table = aggregate_ranks(manifest, (1.0,))
        assert all(r["mean_rank"] == 2.0 for r in table)  # (3+1)/2

    def test_rank_rows_sum_to_method_count_invariant(self, tmp_path):
        rng = np.random.default_rng(5)
        manifest = []
        for method in ("ei", "alpha1", "cei0.5", "eipu"):
            for seed in (0, 1):
                path = tmp_path / f"{method}-{seed}.jsonl"
                ys = rng.uniform(0, 5, size=4).tolist()
                costs = rng.uniform(0.5, 2.0, size=4).tolist()
                synthetic_trace(path, ys, costs, seed=seed)
                manifest.append(
                    dict(method=method, problem="p", seed=seed, trace=str(path))
                )
        table = aggregate_ranks(manifest, (1.0, 2.0))
        for multiple in (100.0, 200.0):
            total = sum(r["mean_rank"] for r in table if r["multiple_pct"] == multiple)
            assert total == pytest.approx(4 * 5 / 2)

    def test_missing_trace_is_harness_error(self, tmp_path):
        path = tmp_path / "ei.jsonl"
        synthetic_trace(path, [1.0], [1.0])
        manifest = [
            dict(method="ei", problem="p", seed=0, trace=str(path)),
            dict(method="ei", problem="q", seed=0, trace=str(path)),
            dict(method="alpha1", problem="p", seed=0, trace=str(path)),
        ]
        with pytest.raises(HarnessError):
            aggregate_ranks(manifest, (1.0,))


class TestBootstrap:
    def test_deterministic(self):
        values = np.arange(20, dtype=float)
        assert bootstrap_ci(values) == bootstrap_ci(values)

    def test_brackets_the_mean_for_tight_data(self):
        values = np.full(50, 3.0)
        lo, hi = bootstrap_ci(values)
        assert lo == hi == 3.0

    @staticmethod
    def loop_oracle(values):
        """One resample per draw, as the interval was first computed."""
        rng = np.random.default_rng(cli.BOOTSTRAP_SEED)
        n = values.shape[0]
        stats = np.empty(cli.BOOTSTRAP_RESAMPLES)
        for b in range(cli.BOOTSTRAP_RESAMPLES):
            stats[b] = np.mean(values[rng.integers(0, n, size=n)])
        return float(np.percentile(stats, 2.5)), float(np.percentile(stats, 97.5))

    @pytest.mark.parametrize("n", [1, 2, 7, 20, 39, 100, 101, 1001])
    def test_one_draw_matches_the_loop_bit_for_bit(self, n):
        values = np.random.default_rng(n).lognormal(size=n)
        assert bootstrap_ci(values) == self.loop_oracle(values)


class TestCommands:
    def test_run_command_writes_trace_and_summary(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "run", "--problem", "branin/explinear", "--acq", "alpha:0.5",
                "--seed", "1", "--iters", "8", "--candidates", "64",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "trace.jsonl").exists()
        rows = read_csv(out / "summary.csv")
        assert len(rows) == 1
        assert int(rows[0]["iterations"]) == 8

    def test_run_command_determinism_criterion(self, tmp_path):
        args = [
            "run", "--problem", "branin/cheap", "--acq", "cei:0.5",
            "--seed", "7", "--iters", "8", "--candidates", "64",
        ]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a/trace.jsonl").read_bytes() == (
            tmp_path / "b/trace.jsonl"
        ).read_bytes()

    def test_biopt_command_end_to_end(self, tmp_path):
        out = tmp_path / "biopt"
        code = main(
            [
                "biopt", "--suite", "quick", "--seeds", "2", "--iters", "8",
                "--alphas", "0,1", "--lambdas", "", "--candidates", "64",
                "--out", str(out),
            ]
        )
        assert code == 0
        table = read_csv(out / "tradeoff.csv")
        methods = {r["method"] for r in table}
        assert methods == {"ei", "alpha1"}  # alpha 0 is EI, which runs once
        ei_row = next(r for r in table if r["method"] == "ei")
        assert float(ei_row["mean_rel_time_pct"]) == pytest.approx(100.0)
        assert float(ei_row["mean_rel_loss_pct"]) == pytest.approx(0.0)
        # traces are on disk, one per (method, problem, seed)
        assert len(read_csv(out / "runs.csv")) == 4

    def test_repeated_grid_entries_run_once(self, tmp_path):
        out = tmp_path / "biopt"
        code = main(
            [
                "biopt", "--suite", "quick", "--seeds", "1", "--iters", "6",
                "--alphas", "0.3,0.3", "--lambdas", "0.5,0.5", "--candidates", "16",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert [r["method"] for r in read_csv(out / "runs.csv")] == ["alpha0.3", "cei0.5", "ei"]
        runs = {r["method"]: r["runs"] for r in read_csv(out / "tradeoff.csv")}
        assert runs == {"alpha0.3": "1", "cei0.5": "1", "ei": "1"}

    def test_rank_command_reuses_stored_traces(self, tmp_path):
        out = tmp_path / "grid"
        main(
            [
                "time-alloc", "--suite", "quick", "--seeds", "1", "--iters", "8",
                "--alphas", "1", "--lambdas", "0.5", "--multiples", "1,10",
                "--candidates", "64", "--out", str(out),
            ]
        )
        first = (out / "ranks.csv").read_bytes()
        code = main(["rank", "--runs", str(out), "--multiples", "1,10"])
        assert code == 0
        assert (out / "ranks.csv").read_bytes() == first  # pure re-aggregation

    def test_cost_eval_command(self, tmp_path):
        out = tmp_path / "cost"
        code = main(
            [
                "cost-eval", "--train-sizes", "6,10", "--seeds", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out / "cost_eval.csv")
        assert {(r["kind"], r["n_train"]) for r in rows} == {
            (k, n) for k in ("lv1", "lv2", "lv3", "warped_gp", "gplv3", "limited_gp3")
            for n in ("6", "10")
        }
        transfer = read_csv(out / "transfer_eval.csv")
        assert {r["kind"] for r in transfer} == {
            "transfer_task_aware", "transfer_naive"
        }

    def test_pareto_trace_command(self, tmp_path):
        out = tmp_path / "pt"
        code = main(
            [
                "pareto-trace", "--problem", "branin/explinear", "--acq", "cei:0.3",
                "--seed", "2", "--iters", "9", "--candidates", "64",
                "--out", str(out),
            ]
        )
        assert code == 0
        fronts = read_csv(out / "fronts.csv")
        assert fronts
        markers = read_csv(out / "markers.csv")
        per_iter = {}
        for row in markers:
            per_iter.setdefault(row["iteration"], []).append(row)
        assert all(len(v) == 4 for v in per_iter.values())
        # the alpha=0 marker is the max-EI front point of its iteration
        for it, rows in per_iter.items():
            front_eis = [
                float(r["ei"]) for r in fronts if r["iteration"] == it
            ]
            alpha0 = next(r for r in rows if float(r["alpha"]) == 0.0)
            assert float(alpha0["ei"]) == pytest.approx(max(front_eis))
        alphas = read_csv(out / "implied_alpha.csv")
        assert len(alphas) == len(per_iter)

    @pytest.mark.parametrize(
        "command,flag",
        [
            ("run", "--suite"), ("run", "--seeds"), ("run", "--jobs"),
            ("pareto-trace", "--suite"), ("pareto-trace", "--seeds"),
            ("pareto-trace", "--jobs"),
            ("cost-eval", "--suite"), ("cost-eval", "--jobs"), ("cost-eval", "--noise"),
            ("cost-eval", "--cost-model"), ("cost-eval", "--candidates"),
            ("time-alloc", "--runs"),
        ],
    )
    def test_flags_a_command_does_not_read_are_rejected(self, tmp_path, command, flag):
        value = "lv3" if flag == "--cost-model" else "2"
        with pytest.raises(SystemExit) as exit_info:
            main([command, flag, value, "--out", str(tmp_path / "x")])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize(
        "argv,bad,error",
        [
            (["run", "--problem", "nope"], "nope", "ConfigError"),
            (["run", "--acq", "alpha:abc"], "abc", "ConfigError"),
            (["run", "--acq", "ei:0.5"], "ei:0.5", "ConfigError"),
            (["run", "--acq", "alpha:nan"], "alpha:nan", "ConfigError"),
            (["run", "--acq", "alpha:inf"], "alpha:inf", "ConfigError"),
            (["run", "--acq", "ei-cool:nan"], "ei-cool:nan", "ConfigError"),
            (["pareto-trace", "--acq", "cei:zz"], "zz", "ConfigError"),
            (["biopt", "--alphas", "0.1,q1"], "q1", "ConfigError"),
            (["biopt", "--lambdas", "0.5,q2"], "q2", "ConfigError"),
            (
                ["time-alloc", "--suite", "quick", "--seeds", "1", "--iters", "2",
                 "--multiples", "1,q3"],
                "q3",
                "ConfigError",
            ),
            (["rank", "--runs", "missing", "--multiples", "1,q4"], "q4", "ConfigError"),
            (["cost-eval", "--train-sizes", "4,q5"], "q5", "ConfigError"),
            (
                ["run", "--table", "{tmp}/missing.csv", "--space-file", "{tmp}/s.json"],
                "{tmp}/missing.csv",
                "FileNotFoundError",
            ),
            (
                ["run", "--table", "{tmp}/t.csv", "--space-file", "{tmp}/missing.json"],
                "{tmp}/missing.json",
                "FileNotFoundError",
            ),
            (
                ["cost-eval", "--data", "{tmp}/missing.csv", "--space-file",
                 "{tmp}/s.json"],
                "{tmp}/missing.csv",
                "FileNotFoundError",
            ),
            (["rank", "--runs", "{tmp}"], "{tmp}/gone.jsonl", "FileNotFoundError"),
            (
                ["cost-eval", "--data", "{tmp}/c.csv", "--space-file", "{tmp}/bad.json"],
                "a",
                "ConfigError",
            ),
            (["cost-eval", "--seeds", "0"], "0", "ConfigError"),
            (["biopt", "--seeds", "0"], "0", "ConfigError"),
            (["time-alloc", "--seeds", "-1"], "-1", "ConfigError"),
            (["cost-eval", "--train-sizes", "-3"], "-3", "ConfigError"),
            (["cost-eval", "--train-sizes", "4,0"], "0", "ConfigError"),
        ],
        ids=[
            "unknown-problem", "acq-alpha", "acq-ei-extra", "acq-alpha-nan",
            "acq-alpha-inf", "acq-ei-cool-nan", "acq-cei", "alphas", "lambdas",
            "time-alloc-multiples", "rank-multiples", "train-sizes",
            "missing-table", "missing-space-file", "missing-cost-data",
            "missing-trace", "space-file-list-name", "cost-eval-seeds",
            "biopt-seeds", "time-alloc-seeds", "train-size-negative",
            "train-size-zero",
        ],
    )
    def test_error_is_machine_readable(self, tmp_path, capsys, argv, bad, error):
        # Inputs that exist: space files, one with a list for a dimension name,
        # and a manifest naming a gone trace.
        OBJECTIVES["branin"].space.save(tmp_path / "s.json")
        bad_space = OBJECTIVES["branin"].space.to_dict()
        bad_space["dimensions"][0]["name"] = ["a"]
        (tmp_path / "bad.json").write_text(json.dumps(bad_space))
        (tmp_path / "runs.csv").write_text(
            f"method,problem,seed,trace\nei,p,0,{tmp_path}/gone.jsonl\n"
        )
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        code = main(argv + ["--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err.strip()
        record = json.loads(err)
        assert record["error"] == error
        assert repr(bad.format(tmp=tmp_path)) in record["message"]


    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--budget", "inf"], "cost budget must be finite and > 0, got inf"),
            (["--budget", "nan"], "cost budget must be finite and > 0, got nan"),
            (["--acq", "alpha:nan"], "alpha must be finite"),
            (["--acq", "ei-cool:nan"], "total_budget must be finite"),
        ],
        ids=["budget-inf", "budget-nan", "acq-alpha-nan", "acq-ei-cool-nan"],
    )
    def test_non_finite_run_value_fails_before_evaluating(
        self, tmp_path, capsys, evaluations, argv, message
    ):
        assert main(["run", *argv, "--out", str(tmp_path)]) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert message in record["message"]
        assert evaluations == []

    def test_ei_cool_without_a_cost_budget_fails_before_evaluating(
        self, tmp_path, capsys, evaluations
    ):
        argv = ["run", "--acq", "ei-cool", "--iters", "8", "--out", str(tmp_path)]
        assert main(argv) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert "total cost budget" in record["message"]
        assert evaluations == []

    def test_candidate_count_above_2_to_the_30_fails_before_evaluating(
        self, tmp_path, capsys, evaluations
    ):
        argv = ["run", "--candidates", "1073741825", "--out", str(tmp_path)]
        assert main(argv) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert "got 1073741825" in record["message"]
        assert evaluations == []


    @pytest.mark.parametrize(
        "argv,bad",
        [
            (["time-alloc", "--multiples", "0,1"], "0.0"),
            (["time-alloc", "--multiples", "1,-5"], "-5.0"),
            (["rank", "--runs", "{tmp}", "--multiples", "nan,inf"], "nan"),
            (["rank", "--runs", "{tmp}", "--multiples", "1,inf"], "inf"),
        ],
        ids=["time-alloc-zero", "time-alloc-negative", "rank-nan", "rank-inf"],
    )
    def test_bad_multiple_fails_before_any_run_or_trace_read(
        self, tmp_path, capsys, evaluations, argv, bad
    ):
        # rank's manifest names a gone trace, an OSError if rank read it first.
        (tmp_path / "runs.csv").write_text(
            f"method,problem,seed,trace\nei,p,0,{tmp_path}/gone.jsonl\n"
        )
        grid = ["--suite", "quick", "--seeds", "1", "--iters", "6", "--candidates", "16"]
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        if argv[0] == "time-alloc":
            argv += grid
        assert main(argv + ["--out", str(tmp_path / "x")]) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert f"--multiples {bad!r}" in record["message"]
        assert evaluations == []
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "alphas,bad", [("-1,0.3", "-1.0"), ("0.3,nan", "nan")], ids=["negative", "nan"]
    )
    def test_bad_alpha_fails_before_any_run(self, tmp_path, capsys, evaluations, alphas, bad):
        argv = [
            "biopt", "--suite", "quick", "--seeds", "1", "--iters", "6",
            "--candidates", "16", f"--alphas={alphas}", "--out", str(tmp_path / "x"),
        ]
        assert main(argv) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert f"alpha must be finite and >= 0, got {bad}" in record["message"]
        assert evaluations == []
        assert not (tmp_path / "x").exists()


class TestMalformedTraces:
    @staticmethod
    def grid(tmp_path):
        """A two-method manifest of hand-built traces; returns the ei trace."""
        rows = []
        for method in ("ei", "cei0.5"):
            path = tmp_path / f"{method}.jsonl"
            synthetic_trace(path, [3.0, 1.0, 2.0], [1.0, 1.0, 1.0])
            rows.append(dict(method=method, problem="p", seed=0, trace=str(path)))
        with open(tmp_path / "runs.csv", "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        return tmp_path / "ei.jsonl"

    @pytest.mark.parametrize("corruption", ["truncated line", "missing key", "wrong type"])
    def test_rank_reports_a_data_error(self, tmp_path, capsys, corruption):
        trace = self.grid(tmp_path)
        assert main(["rank", "--runs", str(tmp_path), "--multiples", "1"]) == 0
        capsys.readouterr()
        lines = trace.read_text().splitlines()
        if corruption == "truncated line":
            bad_line = len(lines)
            lines[-1] = lines[-1][: len(lines[-1]) // 2]
        else:
            bad_line = 3
            row = json.loads(lines[bad_line - 1])
            if corruption == "missing key":
                del row["y"]
            else:
                row["y"] = "abc"
            lines[bad_line - 1] = json.dumps(row)
        trace.write_text("\n".join(lines) + "\n")
        assert main(["rank", "--runs", str(tmp_path), "--multiples", "1"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        record = json.loads(err[0])
        assert record["error"] == "DataError"
        assert record["message"].startswith(f"{trace}:{bad_line}: ")

    @pytest.mark.parametrize(
        "manifest,expected",
        [
            ("", ": empty file"),
            ("method,problem,trace\nei,p,ei.jsonl\n", ": missing columns ['seed']"),
            (
                "method,problem,seed,trace\nei,p,0\n",
                ":2: malformed row: fewer cells than the header",
            ),
        ],
        ids=["empty", "no-seed-column", "short-row"],
    )
    def test_rank_reports_a_malformed_manifest(self, tmp_path, capsys, manifest, expected):
        (tmp_path / "runs.csv").write_text(manifest)
        assert main(["rank", "--runs", str(tmp_path), "--multiples", "1"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        record = json.loads(err[0])
        assert record["error"] == "DataError"
        assert record["message"] == f"{tmp_path / 'runs.csv'}{expected}"
        assert not (tmp_path / "ranks.csv").exists()

    @pytest.mark.parametrize("target", ["table", "manifest", "trace"])
    def test_input_that_is_not_utf8_is_a_data_error(self, tmp_path, capsys, target):
        """Bytes ``\\xff\\xfe`` on line 2 of each file the CLI reads as text."""
        if target == "table":
            space = OBJECTIVES["branin"].space
            space.save(tmp_path / "s.json")
            path = tmp_path / "t.csv"
            header = ",".join(space.names + ["y", "cost"]).encode()
            path.write_bytes(header + b"\n\xff\xfe,1.0,2.0,1.0\n")
            argv = ["run", "--table", str(path), "--space-file",
                    str(tmp_path / "s.json"), "--out", str(tmp_path / "x")]
        else:
            trace = self.grid(tmp_path)
            path = tmp_path / "runs.csv" if target == "manifest" else trace
            lines = path.read_bytes().split(b"\n")
            lines[1] = b"\xff\xfe" + lines[1]
            path.write_bytes(b"\n".join(lines))
            argv = ["rank", "--runs", str(tmp_path), "--multiples", "1"]
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        record = json.loads(err[0])
        assert record["error"] == "DataError"
        assert record["message"].startswith(f"{path}:2: ")


class TestParallelGrid:
    def test_two_jobs_write_what_one_job_writes(self, tmp_path):
        grid = dict(
            methods=[EI(), CEI(0.5)],
            problems=["branin/explinear"],
            seeds=1,
            iterations=8,
            candidate_count=64,
        )
        run_grid(out_dir=tmp_path / "serial", jobs=1, **grid)
        run_grid(out_dir=tmp_path / "parallel", jobs=2, **grid)
        serial = sorted((tmp_path / "serial").rglob("*.jsonl"))
        assert len(serial) == 2
        for path in serial:
            twin = tmp_path / "parallel" / path.relative_to(tmp_path / "serial")
            assert twin.read_bytes() == path.read_bytes()
        csv_serial = (tmp_path / "serial" / "runs.csv").read_text()
        csv_parallel = (tmp_path / "parallel" / "runs.csv").read_text()
        assert csv_parallel == csv_serial.replace(
            str(tmp_path / "serial"), str(tmp_path / "parallel")
        )

    def test_workers_start_with_one_blas_thread(self, monkeypatch):
        for var in BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        seen = _map_tasks(os.getenv, list(BLAS_THREAD_VARS), jobs=2)
        assert seen == ["1"] * len(BLAS_THREAD_VARS)
        assert not any(var in os.environ for var in BLAS_THREAD_VARS)

    def test_a_thread_count_the_user_set_wins(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert _map_tasks(os.getenv, ["OPENBLAS_NUM_THREADS"] * 2, jobs=2) == ["2", "2"]
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
