"""Property tests for the record schema: traces, run configs, acquisition kinds.

Each encoding is derived from its dataclass's fields, so these check that
nothing is lost on the way to JSON and back, and that the derived run-config
encoding equals the hand-written one it replaced.
"""

import json
import typing

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from paretobo import acquisition as acq
from paretobo.acquisition import CandidateSet, kind_from_dict, kind_to_dict
from paretobo.cost import ONLINE_COST_KINDS
from paretobo.diagnostics import PersistenceStat
from paretobo.engine import IterationRecord, Iterations, RunConfig, SimulatedCost

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=200)

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-9, max_value=1e9)
optional_finite = st.none() | finite

KIND_STRATEGIES = {
    acq.EI: st.just(acq.EI()),
    acq.EIpu: st.just(acq.EIpu()),
    acq.EIAlpha: st.builds(acq.EIAlpha, st.floats(min_value=0.0, max_value=8.0)),
    acq.EICool: st.builds(acq.EICool, st.none() | positive, st.none() | positive),
    acq.CEI: st.builds(acq.CEI, st.floats(min_value=0.0, max_value=1.0)),
}
kinds = st.one_of(*KIND_STRATEGIES.values())


@st.composite
def records(draw):
    dim = draw(st.integers(1, 7))
    front = draw(
        st.none()
        | st.lists(st.tuples(st.floats(0.0, 10.0), positive), min_size=1, max_size=6)
    )
    total = draw(st.integers(0, 20))
    persistence = draw(st.none() | st.tuples(st.integers(0, total), st.just(total)))
    return IterationRecord(
        iteration=draw(st.integers(1, 10_000)),
        phase=draw(st.sampled_from(["init", "bo"])),
        point=np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=dim, max_size=dim))),
        config=np.array(draw(st.lists(finite, min_size=dim, max_size=dim))),
        y=draw(finite | st.just(float("inf"))),
        cost=draw(positive),
        cumulative_cost=draw(positive),
        incumbent=draw(finite | st.just(float("inf"))),
        failed=draw(st.booleans()),
        over_budget=draw(st.booleans()),
        max_ei=draw(optional_finite),
        chosen_ei=draw(optional_finite),
        chosen_cost_pred=draw(optional_finite),
        cei_threshold=draw(optional_finite),
        implied_alpha=draw(optional_finite),
        degenerate=draw(st.none() | st.booleans()),
        front=None
        if front is None
        else CandidateSet(np.full((len(front), dim), 0.5), *np.array(front).T),
        persistence=None
        if persistence is None
        else PersistenceStat(*persistence, rescored=None),
    )


def row_json(record: IterationRecord) -> str:
    return json.dumps(record.to_dict(), sort_keys=True)


@SETTINGS
@given(records())
def test_record_round_trips_through_json(record):
    line = row_json(record)
    assert row_json(IterationRecord.from_dict(json.loads(line))) == line


def test_every_acquisition_kind_has_a_strategy():
    assert set(KIND_STRATEGIES) == set(typing.get_args(acq.AcquisitionKind))


@SETTINGS
@given(kinds)
def test_kind_round_trips_through_json(kind):
    payload = json.loads(json.dumps(kind_to_dict(kind)))
    assert kind_from_dict(payload) == kind


def reference_run_config_dict(cfg: RunConfig) -> dict:
    """``RunConfig.to_dict`` as it was written out by hand, key by key."""
    budget = (
        {"iterations": cfg.budget.n}
        if isinstance(cfg.budget, Iterations)
        else {"simulated_cost": cfg.budget.tau}
    )
    return {
        "seed": cfg.seed,
        "acquisition": kind_to_dict(cfg.acquisition),
        "cost_model": cfg.cost_model,
        "budget": budget,
        "init_design_size": cfg.init_design_size,
        "candidate_count": cfg.candidate_count,
    }


iteration_budgets = st.builds(Iterations, st.integers(1, 500))
cost_budgets = st.builds(SimulatedCost, positive)


@st.composite
def run_configs(draw):
    """A valid RunConfig: EI-cool with no total budget gets a cost budget."""
    acquisition = draw(kinds)
    needs_cost_budget = (
        isinstance(acquisition, acq.EICool) and acquisition.total_budget is None
    )
    return RunConfig(
        seed=draw(st.integers(0, 2**32 - 1)),
        acquisition=acquisition,
        cost_model=draw(st.sampled_from(ONLINE_COST_KINDS)),
        budget=draw(cost_budgets if needs_cost_budget else iteration_budgets | cost_budgets),
        init_design_size=draw(st.none() | st.integers(1, 50)),
        candidate_count=draw(st.integers(1, 10_000)),
    )


@SETTINGS
@given(run_configs())
def test_run_config_dict_matches_the_hand_written_encoding(cfg):
    encoded, expected = cfg.to_dict(), reference_run_config_dict(cfg)
    assert encoded == expected
    assert json.dumps(encoded, sort_keys=True) == json.dumps(expected, sort_keys=True)
