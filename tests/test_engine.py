"""Optimization-loop tests: budgets, determinism, traces, failures."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import paretobo.acquisition as acq_mod
import paretobo.cost as cost_mod
import paretobo.diagnostics as diagnostics_mod
import paretobo.engine as engine_mod
import paretobo.surrogate as surrogate_mod
from paretobo.acquisition import CEI, EI, EIAlpha, EICool, EIpu
from paretobo.bench import BlackBox, ExpLinear, make_synthetic
from paretobo.cli import build_problem
from paretobo.engine import (
    Iterations,
    RunConfig,
    SimulatedCost,
    constrained_best,
    read_trace,
    run,
    summary_row,
)
from paretobo.errors import ConfigError
from paretobo.space import Dimension, SearchSpace


def scripted_problem(ys, costs=None, space=None):
    """Black-box returning scripted (y, cost) values in call order."""
    space = space or SearchSpace(
        [Dimension("a", "continuous", 0, 1), Dimension("b", "continuous", 0, 1)]
    )
    ys = list(ys)
    costs = list(costs) if costs is not None else [1.0] * len(ys)
    calls = {"i": 0}

    def evaluate(u):
        i = calls["i"]
        calls["i"] += 1
        y, c = ys[i], costs[i]
        if y == "boom":
            raise RuntimeError("synthetic failure")
        return float(y), float(c)

    return BlackBox(space=space, evaluate=evaluate, name="scripted")


def quick_problem(seed=0):
    return make_synthetic("branin", ExpLinear(coefficients=(1.0, 0.5)), seed=seed)


def quick_config(**overrides):
    defaults = dict(
        seed=3, acquisition=EI(), budget=Iterations(9), candidate_count=64
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


class TestRunConfigChecks:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("cost_model", "bogus"),
            ("candidate_count", 0),
            ("candidate_count", acq_mod.MAX_CANDIDATE_COUNT + 1),
            ("init_design_size", 0),
            ("init_design_size", -2),
        ],
    )
    def test_bad_value_raises_before_any_evaluation(self, field, value):
        calls = []

        def evaluate(u):
            calls.append(u)
            return 1.0, 1.0

        problem = BlackBox(space=quick_problem().space, evaluate=evaluate, name="spy")
        with pytest.raises(ConfigError, match=field):
            run(problem, quick_config(**{field: value}))
        assert calls == []

    @pytest.mark.parametrize("tau", [math.inf, math.nan, 0.0, -1.0])
    def test_cost_budget_must_be_finite_and_positive(self, tau):
        with pytest.raises(ConfigError, match="cost budget"):
            SimulatedCost(tau)


class TestBudgets:
    def test_iteration_budget_equal_to_init_design(self):
        trace = run(
            scripted_problem([3.0, 1.0, 2.0]),
            RunConfig(seed=0, budget=Iterations(3), init_design_size=3),
        )
        assert len(trace) == 3
        assert all(r.phase == "init" for r in trace.records)

    def test_running_minimum_incumbents(self):
        trace = run(
            scripted_problem([3.0, 1.0, 2.0]),
            RunConfig(seed=0, budget=Iterations(3), init_design_size=3),
        )
        assert [r.incumbent for r in trace.records] == [3.0, 1.0, 1.0]

    def test_iteration_budget_exact_count(self):
        trace = run(quick_problem(), quick_config())
        assert len(trace) == 9
        assert sum(1 for r in trace.records if r.phase == "init") == 5  # max(5, d)

    def test_cumulative_cost_is_exact_sum(self):
        trace = run(quick_problem(), quick_config())
        np.testing.assert_allclose(
            [r.cumulative_cost for r in trace.records],
            np.cumsum([r.cost for r in trace.records]),
            rtol=0,
            atol=0,
        )

    def test_simulated_cost_budget_flags_crossing_record(self):
        costs = [1.0] * 20
        trace = run(
            scripted_problem([5.0] * 20, costs),
            RunConfig(seed=0, budget=SimulatedCost(6.5), init_design_size=3),
        )
        assert trace.total_cost >= 6.5
        assert trace.records[-1].over_budget
        assert all(not r.over_budget for r in trace.records[:-1])
        # stops right after crossing: 7 records of unit cost
        assert len(trace) == 7

    def test_simulated_cost_stops_during_init(self):
        trace = run(
            scripted_problem([1.0] * 10, [2.0] * 10),
            RunConfig(seed=0, budget=SimulatedCost(3.0), init_design_size=8),
        )
        assert len(trace) == 2
        assert trace.records[-1].over_budget


class TestDeterminism:
    def test_identical_seeds_byte_identical_traces(self, tmp_path):
        cfg = quick_config(acquisition=EIAlpha(0.5))
        t1 = run(quick_problem(), cfg)
        t2 = run(quick_problem(), cfg)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        t1.write(p1)
        t2.write(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seeds_differ(self):
        t1 = run(quick_problem(), quick_config(seed=1))
        t2 = run(quick_problem(), quick_config(seed=2))
        assert t1.to_jsonl() != t2.to_jsonl()

    def test_alpha_zero_identical_to_ei(self):
        t_ei = run(quick_problem(), quick_config(acquisition=EI()))
        t_a0 = run(quick_problem(), quick_config(acquisition=EIAlpha(0.0)))
        assert [tuple(r.point) for r in t_ei.records] == [
            tuple(r.point) for r in t_a0.records
        ]

    def test_objective_scale_invariant_choices(self):
        # standardization makes the chosen points invariant to y units
        base = quick_problem()
        scaled = make_synthetic("branin", ExpLinear(coefficients=(1.0, 0.5)), seed=0)
        original_eval = base.evaluate
        scaled.evaluate = lambda u: (
            lambda yc: (1000.0 * yc[0] + 5.0, yc[1])
        )(original_eval(u))
        t1 = run(quick_problem(), quick_config())
        t2 = run(scaled, quick_config())
        assert [tuple(r.point) for r in t1.records] == [
            tuple(r.point) for r in t2.records
        ]


class TestModelInputsIsolation:
    def test_models_see_only_prior_observations(self, monkeypatch):
        seen_sizes = []
        real_fit = engine_mod.gp_fit

        def spy_fit(X, y, **kwargs):
            seen_sizes.append(len(y))
            return real_fit(X, y, **kwargs)

        monkeypatch.setattr(engine_mod, "gp_fit", spy_fit)
        trace = run(quick_problem(), quick_config(budget=Iterations(8)))
        assert len(trace) == 8
        # fits happen before BO evaluations 6, 7, 8 on 5, 6, 7 observations
        assert seen_sizes == [5, 6, 7]

    @pytest.mark.parametrize("cost_model", ["warped_gp", "gplv3", "lv3"])
    def test_each_fit_is_warm_started_from_the_previous_model(
        self, monkeypatch, cost_model
    ):
        gp_calls, cost_calls, cost_gp_calls = [], [], []
        real_gp_fit = engine_mod.gp_fit
        real_cost_fit = engine_mod.fit_cost_model_unit
        real_cost_gp_fit = cost_mod.gp_fit

        def spy_gp_fit(X, y, **kwargs):
            model = real_gp_fit(X, y, **kwargs)
            gp_calls.append((kwargs["warm_start"], model))
            return model

        def spy_cost_fit(kind, U, costs, rng, previous):
            model = real_cost_fit(kind, U, costs, rng, previous)
            cost_calls.append((previous, model))
            return model

        def spy_cost_gp_fit(X, y, **kwargs):
            cost_gp_calls.append(kwargs["warm_start"])
            return real_cost_gp_fit(X, y, **kwargs)

        monkeypatch.setattr(engine_mod, "gp_fit", spy_gp_fit)
        monkeypatch.setattr(engine_mod, "fit_cost_model_unit", spy_cost_fit)
        monkeypatch.setattr(cost_mod, "gp_fit", spy_cost_gp_fit)
        run(quick_problem(), quick_config(cost_model=cost_model))
        for calls in (gp_calls, cost_calls):
            assert len(calls) == 4
            assert calls[0][0] is None
            assert all(calls[i][0] is calls[i - 1][1] for i in range(1, 4))
        # A GP cost kind warm-starts its GP from the previous model's GP.
        expected = [None] + [
            getattr(model, "gp", None) for _, model in cost_calls[:-1]
        ]
        if cost_model == "lv3":
            assert cost_gp_calls == []
        else:
            assert len(cost_gp_calls) == 4
            assert all(a is b for a, b in zip(cost_gp_calls, expected))


class TestTracedLayers:
    # Every layer the benchmark's tracer (perfbench/tracing.py) wraps, at the
    # attribute it wraps. A call that bypasses the attribute, such as
    # `acq.implied_alpha(sel)` in the engine, is timed as zero.
    WRAPPED = [
        (engine_mod, "gp_fit"),
        (surrogate_mod, "minimize"),
        (engine_mod, "fit_cost_model_unit"),
        (cost_mod, "gp_fit"),
        (cost_mod.CostModel, "predict_unit"),
        (acq_mod, "propose"),
        (acq_mod, "generate_candidates"),
        (acq_mod, "score_candidates"),
        (acq_mod, "select"),
        (acq_mod, "pareto_front"),
        (engine_mod, "implied_alpha"),
        (engine_mod, "front_persistence"),
        (acq_mod, "gp_posterior_many"),
    ]

    def test_run_calls_each_layer_through_its_wrapped_attribute(self, monkeypatch):
        calls = {}
        for owner, attr in self.WRAPPED:
            name = f"{owner.__name__}.{attr}"
            calls[name] = 0

            def spy(*args, _real=getattr(owner, attr), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, attr, spy)
        cfg = quick_config(acquisition=CEI(0.5), cost_model="gplv3")
        trace = run(build_problem("branin/expensive"), cfg, track_persistence=True)
        assert len(trace) == 9
        assert [name for name, n in calls.items() if n == 0] == []
        # Also wrapped, but by attribute only: the tracer fails on a missing one.
        assert callable(diagnostics_mod.gp_posterior_many)
        assert callable(engine_mod.Trace.write)

    def test_no_gp_fit_goes_through_scipy_minimize(self, monkeypatch):
        # `surrogate.minimize` drives L-BFGS-B itself; scipy's wrapper costs
        # tens of microseconds per MLL evaluation.
        import scipy.optimize
        import scipy.optimize._lbfgsb_py
        import scipy.optimize._minimize

        def refuse(*args, **kwargs):
            raise AssertionError("a GP fit called scipy's L-BFGS-B wrapper")

        monkeypatch.setattr(scipy.optimize, "minimize", refuse)
        for module in (scipy.optimize._minimize, scipy.optimize._lbfgsb_py):
            monkeypatch.setattr(module, "_minimize_lbfgsb", refuse)
        starts = []
        real_minimize = surrogate_mod.minimize

        def counting_minimize(*args):
            starts.append(args)
            return real_minimize(*args)

        monkeypatch.setattr(surrogate_mod, "minimize", counting_minimize)
        cfg = quick_config(acquisition=CEI(0.5), cost_model="gplv3")
        trace = run(build_problem("branin/expensive"), cfg)
        assert len(trace) == 9
        assert not any(record.failed for record in trace.records)
        assert len(starts) >= 8  # the objective and cost GPs, 4 BO steps each


class TestFailures:
    def test_failed_evaluation_recorded_and_excluded(self):
        ys = [3.0, "boom", 2.0, 1.5, 4.0, 2.5, 2.2, 2.1]
        trace = run(
            scripted_problem(ys, [1.0] * 8),
            RunConfig(seed=0, budget=Iterations(8), init_design_size=5,
                      candidate_count=32),
        )
        failed = [r for r in trace.records if r.failed]
        assert len(failed) == 1
        assert failed[0].y == math.inf
        # incumbent ignores the failure
        assert trace.records[1].incumbent == 3.0
        assert len(trace) == 8

    def test_all_failures_still_progress(self):
        ys = ["boom"] * 4 + [2.0, 1.0]
        trace = run(
            scripted_problem(ys, [1.0] * 6),
            RunConfig(seed=0, budget=Iterations(6), init_design_size=4,
                      candidate_count=16),
        )
        assert len(trace) == 6
        assert trace.final_incumbent == 1.0


def sabotaged(problem, call, y=None, cost=None):
    """``problem`` with its ``call``-th evaluation's y and/or cost replaced."""
    calls = {"i": 0}

    def evaluate(u):
        calls["i"] += 1
        y_true, cost_true = problem.evaluate(u)
        if calls["i"] != call:
            return y_true, cost_true
        return (
            y_true if y is None else y,
            cost_true if cost is None else cost,
        )

    return BlackBox(space=problem.space, evaluate=evaluate, name="sabotaged")


class TestBlackBoxContract:
    CONFIG = dict(budget=Iterations(12), candidate_count=64)

    @pytest.mark.parametrize("bad_y", [math.inf, -math.inf, math.nan])
    def test_non_finite_y_is_a_failed_row_charged_its_cost(self, bad_y):
        trace = run(sabotaged(quick_problem(), 3, y=bad_y), quick_config(**self.CONFIG))
        clean = run(quick_problem(), quick_config(**self.CONFIG))
        assert len(trace) == 12
        row = trace.records[2]
        assert row.failed and row.y == math.inf
        assert row.cost == clean.records[2].cost
        assert [r.failed for r in trace.records].count(True) == 1
        assert trace.final_incumbent < math.inf

    @pytest.mark.parametrize("bad_cost", [0.0, -1.0, math.inf, math.nan])
    def test_invalid_cost_is_a_failed_row_charged_a_stand_in(self, bad_cost):
        trace = run(
            sabotaged(quick_problem(), 3, cost=bad_cost), quick_config(**self.CONFIG)
        )
        assert len(trace) == 12
        row = trace.records[2]
        assert row.failed and row.y == math.inf
        # init-design row: the geometric mean of the two valid costs so far
        first_two = [r.cost for r in trace.records[:2]]
        assert row.cost == pytest.approx(math.exp(np.mean(np.log(first_two))))
        assert row.cumulative_cost == pytest.approx(sum(first_two) + row.cost)
        assert [r.failed for r in trace.records].count(True) == 1

    def test_invalid_cost_in_bo_phase_charged_predicted_cost(self):
        trace = run(sabotaged(quick_problem(), 8, cost=0.0), quick_config(**self.CONFIG))
        row = trace.records[7]
        assert row.phase == "bo" and row.failed
        assert row.cost == row.chosen_cost_pred


class TestEICool:
    def test_requires_total_budget_with_iteration_cap(self):
        with pytest.raises(ConfigError):
            run(quick_problem(), quick_config(acquisition=EICool()))

    def test_missing_total_budget_raises_before_any_evaluation(self):
        calls = []

        def evaluate(u):
            calls.append(u)
            return 1.0, 1.0

        problem = BlackBox(space=quick_problem().space, evaluate=evaluate, name="spy")
        with pytest.raises(ConfigError, match="total cost budget"):
            run(problem, quick_config(acquisition=EICool()))
        assert calls == []

    def test_resolves_from_simulated_cost_budget(self):
        cfg = quick_config(acquisition=EICool(), budget=SimulatedCost(40.0))
        trace = run(quick_problem(), cfg)
        assert trace.total_cost >= 40.0 or len(trace) >= 5

    def test_init_design_spending_the_budget_returns_its_trace(self):
        # The init design spends 12.83 of a 5.0 budget: no selection is left
        # to make, so EI-cool returns the same trace as any other rule.
        problem = build_problem("hartmann3/expensive", 0.0, seed=0)
        cfg = dict(seed=0, budget=SimulatedCost(5.0), candidate_count=64)
        traces = [
            run(problem, RunConfig(acquisition=kind, **cfg)) for kind in (EIAlpha(0.5), EICool())
        ]
        assert [r.phase for r in traces[1].records] == ["init", "init"]
        assert traces[1].total_cost > 5.0
        assert [r.to_dict() for r in traces[1].records] == [
            r.to_dict() for r in traces[0].records
        ]

    @pytest.mark.parametrize("total", [3.0, 5.0])
    def test_total_at_most_the_init_cost_raises_before_bo(self, total):
        calls = []

        def evaluate(u):
            calls.append(u)
            return float(np.sum(u)), 1.0

        problem = BlackBox(space=quick_problem().space, evaluate=evaluate, name="spy")
        cfg = quick_config(acquisition=EICool(total_budget=total), init_design_size=5)
        with pytest.raises(ConfigError, match=r"must exceed init budget \(5.0\)"):
            run(problem, cfg)
        assert len(calls) == 5

    def test_explicit_total_budget_with_iterations(self):
        cfg = quick_config(acquisition=EICool(total_budget=100.0))
        trace = run(quick_problem(), cfg)
        assert len(trace) == 9


class TestConstrainedBest:
    def test_full_budget_returns_overall_incumbent(self):
        trace = run(quick_problem(), quick_config())
        y_star, spend = constrained_best(trace, trace.total_cost + 1.0)
        assert y_star == trace.final_incumbent
        assert spend == trace.total_cost

    def test_budget_below_first_cost(self):
        trace = run(quick_problem(), quick_config())
        y_star, spend = constrained_best(trace, trace.records[0].cost / 2)
        assert y_star == math.inf
        assert spend == 0.0

    def test_matches_linear_scan_at_boundaries(self):
        trace = run(quick_problem(), quick_config(budget=Iterations(12)))
        for record in trace.records:
            tau = record.cumulative_cost
            y_star, spend = constrained_best(trace, tau)
            prefix = [r for r in trace.records if r.cumulative_cost <= tau]
            valid = [r.y for r in prefix if not r.failed]
            assert y_star == (min(valid) if valid else math.inf)
            assert spend == prefix[-1].cumulative_cost

    def test_rejects_nonpositive_tau(self):
        trace = run(quick_problem(), quick_config())
        with pytest.raises(ConfigError):
            constrained_best(trace, 0.0)

    @pytest.mark.parametrize("tau", [math.inf, math.nan])
    def test_rejects_non_finite_tau(self, tau):
        trace = run(quick_problem(), quick_config())
        with pytest.raises(ConfigError, match="tau must be finite"):
            constrained_best(trace, tau)


class TestTraceIO:
    def test_round_trip_preserves_records(self, tmp_path):
        trace = run(quick_problem(), quick_config(acquisition=CEI(0.5)))
        path = tmp_path / "t.jsonl"
        trace.write(path)
        loaded = read_trace(path)
        assert len(loaded) == len(trace)
        assert loaded.problem == trace.problem
        assert loaded.run_config == trace.run_config
        for a, b in zip(trace.records, loaded.records):
            assert a.iteration == b.iteration
            assert a.y == b.y
            assert a.cumulative_cost == b.cumulative_cost
            assert a.incumbent == b.incumbent
            assert a.cei_threshold == b.cei_threshold
            if a.front is not None:
                assert a.front.ei.tolist() == b.front.ei.tolist()
                assert a.front.cost.tolist() == b.front.cost.tolist()

    def test_round_trip_is_byte_identical_with_persistence(self, tmp_path):
        trace = run(
            quick_problem(),
            quick_config(acquisition=CEI(0.5)),
            track_persistence=True,
        )
        assert any(r.persistence is not None for r in trace.records)
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        trace.write(first)
        read_trace(first).write(second)
        assert second.read_bytes() == first.read_bytes()

    def test_bo_records_carry_selection_fields(self):
        trace = run(quick_problem(), quick_config(acquisition=CEI(0.25)))
        bo = [r for r in trace.records if r.phase == "bo"]
        assert bo
        for r in bo:
            assert r.max_ei is not None
            assert r.cei_threshold is not None
            assert r.front is not None
            assert np.all(np.diff(r.front.cost) >= 0)

    def test_summary_row_fields(self):
        trace = run(quick_problem(), quick_config())
        row = summary_row(trace)
        assert row["config_hash"] == quick_config().config_hash()
        assert row["iterations"] == 9
        assert row["seed"] == 3
        assert row["final_incumbent"] == trace.final_incumbent

    def test_persistence_tracking(self):
        trace = run(
            quick_problem(),
            quick_config(budget=Iterations(8)),
            track_persistence=True,
        )
        bo = [r for r in trace.records if r.phase == "bo"]
        assert all(r.persistence is not None for r in bo[1:])
        for r in bo[1:]:
            assert 0 <= r.persistence.survived <= r.persistence.total

    def test_persistence_rescores_under_the_proposal_floor(self, monkeypatch):
        class TinyCost:  # predictions between 1e-6 and the proposal's floor
            def predict_unit(self, points):
                return 1e-4 * (1.0 + points[:, 0])

        monkeypatch.setattr(engine_mod, "fit_cost_model_unit", lambda *a: TinyCost())
        trace = run(
            quick_problem(),
            quick_config(budget=Iterations(8)),
            track_persistence=True,
        )
        checked = 0
        for r in trace.records:
            if r.persistence is None:
                continue
            seen = [p.cost for p in trace.records[: r.iteration - 1] if not p.failed]
            floor = 0.01 * min(seen)
            assert floor > 1e-4 * 2.0
            assert r.chosen_cost_pred == floor
            assert np.all(r.persistence.rescored.cost == floor)
            checked += 1
        assert checked == 2


class TestTabularRuns:
    def test_run_snaps_to_table_rows(self, tmp_path):
        space = SearchSpace(
            [Dimension("a", "continuous", 0, 1), Dimension("b", "continuous", 0, 1)]
        )
        rng = np.random.default_rng(11)
        rows = rng.uniform(size=(40, 2))
        lines = ["a,b,y,cost"]
        for r in rows:
            lines.append(f"{r[0]},{r[1]},{r[0] + r[1]},{1.0 + r[0]}")
        path = tmp_path / "table.csv"
        path.write_text("\n".join(lines) + "\n")
        from paretobo.bench import load_tabular

        problem = load_tabular(path, space)
        trace = run(problem, RunConfig(seed=0, budget=Iterations(10), candidate_count=16))
        assert len(trace) == 10
        table_points = {tuple(np.round(r, 12)) for r in problem.candidate_pool}
        for record in trace.records:
            assert tuple(np.round(record.point, 12)) in table_points

    @pytest.mark.parametrize("seed", [1, 2])
    def test_fallback_without_valid_rows_stays_on_the_table(self, tmp_path, seed):
        # 11 of 12 rows have y = nan, so the loop often has no valid record
        # yet and must fall back to a draw; that draw must be a table row.
        space = SearchSpace(
            [Dimension("a", "continuous", 0, 1), Dimension("b", "continuous", 0, 1)]
        )
        rows = np.random.default_rng(13).uniform(size=(12, 2))
        lines = ["a,b,y,cost"]
        for i, r in enumerate(rows):
            lines.append(f"{r[0]},{r[1]},{1.0 if i == 0 else 'nan'},{1.0 + r[0]}")
        path = tmp_path / "table.csv"
        path.write_text("\n".join(lines) + "\n")
        from paretobo.bench import load_tabular

        problem = load_tabular(path, space)
        cfg = RunConfig(
            seed=seed, budget=Iterations(12), init_design_size=2, candidate_count=16
        )
        trace = run(problem, cfg)
        assert len(trace) == 12
        table_points = {tuple(r) for r in problem.candidate_pool}
        for record in trace.records:
            assert tuple(record.point) in table_points
        assert sum(not r.failed for r in trace.records) >= 1


class TestImports:
    def test_a_run_never_imports_scipy_stats(self):
        # A fresh interpreter: this test process has scipy.stats loaded already.
        code = (
            "import sys\n"
            "import paretobo, paretobo.cli\n"
            "from paretobo.bench import ExpLinear, make_synthetic\n"
            "from paretobo.engine import Iterations, RunConfig, run\n"
            "problem = make_synthetic('branin', ExpLinear(coefficients=(1.0, 0.5)), seed=0)\n"
            "trace = run(problem, RunConfig(seed=3, budget=Iterations(9), candidate_count=64))\n"
            "assert len(trace) == 9\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"
