"""Each correctness check passes on a real trace and fails on a corrupted one.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import copy
import dataclasses

import numpy as np
import pytest

from paretobo import acquisition as acq
from paretobo.bench import load_tabular
from paretobo.cli import build_problem
from paretobo.space import xgboost_space
from perfbench import checks, workloads

ITERATIONS = 12


def _recorded(tmp_path, spec, run_spec, problem):
    workload = workloads.Workload(spec, [run_spec], {run_spec: problem})
    path = tmp_path / f"{spec.name}.jsonl"
    recorded = workloads.record_run(workload, run_spec, path, ITERATIONS)
    records = checks.parse_records(path.read_text())
    return records, recorded.ledger, path.read_bytes()


@pytest.fixture(scope="module")
def synthetic(tmp_path_factory):
    """A CEI(0.5) run on branin/expensive with persistence tracking."""
    spec = dataclasses.replace(workloads.WORKLOADS["front8k"], name="mini", candidates=256)
    run_spec = workloads.RunSpec("branin/expensive", acq.CEI(0.5), 3, True)
    problem = build_problem(run_spec.problem_id, seed=3)
    return _recorded(tmp_path_factory.mktemp("synthetic"), spec, run_spec, problem)


@pytest.fixture(scope="module")
def eipu(tmp_path_factory):
    spec = dataclasses.replace(workloads.WORKLOADS["grid128"], name="mini")
    run_spec = workloads.RunSpec("branin/cheap", acq.EIpu(), 5, True)
    return _recorded(tmp_path_factory.mktemp("eipu"), spec, run_spec, build_problem("branin/cheap"))


@pytest.fixture(scope="module")
def replay(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("replay")
    table = workloads.make_replay_table(np.random.default_rng(7), rows=300)
    workloads.write_replay_csv(table, tmp / "table.csv")
    problem = load_tabular(tmp / "table.csv", xgboost_space())
    spec = dataclasses.replace(workloads.WORKLOADS["replay7d"], name="mini", candidates=128)
    run_spec = workloads.RunSpec("replay", acq.EIpu(), 1, True)
    records, ledger, _ = _recorded(tmp, spec, run_spec, problem)
    return records, ledger, table


def _bo(records):
    return next(i for i, r in enumerate(records) if r["phase"] == "bo")


def test_real_traces_pass_every_check(synthetic, eipu, replay):
    records, ledger, _ = synthetic
    assert checks.check_ledger(records, ledger) == []
    assert checks.check_formulas(records, "branin/expensive") == []
    assert checks.check_bounds(records, checks.OBJECTIVES["branin"][4], checks.OPTIMUM_TOL) == []
    assert checks.check_fronts(records) == []
    assert checks.check_selection(records, "cei", 0.5) == []
    records, ledger, _ = eipu
    assert checks.check_selection(records, "alpha", 1.0) == []
    records, ledger, table = replay
    assert checks.check_ledger(records, ledger) == []
    assert checks.check_table_rows(records, table.configs, table.y, table.cost) == []
    assert checks.check_bounds(records, float(table.y.min())) == []


@pytest.mark.parametrize("field", ["y", "cost", "cumulative_cost", "incumbent", "point"])
def test_ledger_catches_a_changed_field(synthetic, field):
    records, ledger, _ = synthetic
    bad = copy.deepcopy(records)
    rec = bad[4]
    rec[field] = [v * 0.5 for v in rec[field]] if field == "point" else rec[field] - 1.0
    assert checks.check_ledger(bad, ledger)


def test_ledger_catches_a_missing_record(synthetic):
    records, ledger, _ = synthetic
    assert checks.check_ledger(records[:-1], ledger)


def test_formulas_catch_a_wrong_objective_value(synthetic):
    records, _, _ = synthetic
    bad = copy.deepcopy(records)
    bad[6]["y"] += 1e-3
    assert checks.check_formulas(bad, "branin/expensive")
    assert checks.check_formulas(bad, "branin/expensive", objective=False) == []


def test_formulas_catch_a_wrong_cost(synthetic):
    records, _, _ = synthetic
    bad = copy.deepcopy(records)
    bad[2]["cost"] *= 1.001
    assert checks.check_formulas(bad, "branin/expensive")


def test_objective_probe():
    problem = build_problem("branin/explinear")
    assert checks.check_objective_probe(problem.evaluate, "branin") == []

    def shifted(u):
        y, cost = problem.evaluate(u)
        return y + 1e-4, cost

    assert checks.check_objective_probe(shifted, "branin")


def test_bounds_catch_a_point_outside_the_cube(synthetic):
    records, _, _ = synthetic
    bad = copy.deepcopy(records)
    bad[3]["point"][0] = 1.25
    assert checks.check_bounds(bad, checks.OBJECTIVES["branin"][4])


def test_bounds_catch_negative_regret(synthetic):
    records, _, _ = synthetic
    bad = copy.deepcopy(records)
    bad[-1]["y"] = bad[-1]["incumbent"] = checks.OBJECTIVES["branin"][4] - 0.01
    assert checks.check_bounds(bad, checks.OBJECTIVES["branin"][4], checks.OPTIMUM_TOL)


def test_fronts_catch_a_dominated_point(synthetic):
    records, _, _ = synthetic
    bad = copy.deepcopy(records)
    rec = bad[_bo(bad)]
    ei, cost = rec["front"][0]
    rec["front"].append([ei * 0.5, cost * 2.0])
    assert checks.check_fronts(bad)


def test_fronts_catch_a_choice_off_the_front(synthetic):
    records, _, _ = synthetic
    bad = copy.deepcopy(records)
    bad[_bo(bad)]["chosen_cost_pred"] *= 1.5
    assert checks.check_fronts(bad)


def test_fronts_catch_a_wrong_max_ei(synthetic):
    records, _, _ = synthetic
    bad = copy.deepcopy(records)
    bad[_bo(bad)]["max_ei"] *= 2.0
    assert checks.check_fronts(bad)


def test_fronts_catch_a_missing_front(synthetic):
    records, _, _ = synthetic
    bad = copy.deepcopy(records)
    bad[_bo(bad)]["front"] = None
    assert checks.check_fronts(bad)


def test_cei_catches_a_wrong_threshold(synthetic):
    records, _, _ = synthetic
    bad = copy.deepcopy(records)
    bad[_bo(bad)]["cei_threshold"] *= 0.5
    assert checks.check_selection(bad, "cei", 0.5)


def test_cei_catches_a_costlier_choice(synthetic):
    records, _, _ = synthetic
    bad = copy.deepcopy(records)
    rec = next(r for r in bad if r["front"] and r["front"][-1][1] > r["chosen_cost_pred"])
    rec["chosen_ei"], rec["chosen_cost_pred"] = rec["front"][-1]  # the max-EI point
    assert checks.check_selection(bad, "cei", 0.5)


def test_scalarised_rule_catches_a_lower_score(eipu):
    records, _, _ = eipu
    bad = copy.deepcopy(records)
    for rec in bad:
        if rec["front"] is None:
            continue
        scores = [e / c for e, c in rec["front"]]
        worst = int(np.argmin(scores))
        if scores[worst] < max(scores):
            rec["chosen_ei"], rec["chosen_cost_pred"] = rec["front"][worst]
            break
    else:
        pytest.skip("every front had a single score")
    assert checks.check_selection(bad, "alpha", 1.0)


def test_table_rows_catch_an_unknown_config(replay):
    records, _, table = replay
    bad = copy.deepcopy(records)
    bad[5]["config"][1] *= 1.01
    assert checks.check_table_rows(bad, table.configs, table.y, table.cost)


def test_table_rows_catch_a_wrong_value(replay):
    records, _, table = replay
    bad = copy.deepcopy(records)
    bad[5]["y"] += 1e-3
    assert checks.check_table_rows(bad, table.configs, table.y, table.cost)


def test_identical_catches_different_bytes(synthetic):
    _, _, data = synthetic
    assert checks.check_identical(data, data) == []
    assert checks.check_identical(data, data.replace(b'"iteration": 3', b'"iteration": 4'))
