"""Sequential optimization loop: init design, refits, proposals, budgets.

One run is strictly sequential and fully determined by its seed: the initial
design, every surrogate/cost-model refit, and candidate generation all draw
from a single seeded generator, so identical configs produce byte-identical
trace files. Budgets are either a fixed evaluation count or a simulated-cost
cap; the evaluation that crosses a cost cap is kept and flagged rather than
discarded, mirroring a wall-clock run where a started job completes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from types import UnionType
from typing import get_args, get_type_hints

import numpy as np

from . import acquisition as acq
from .acquisition import AcquisitionKind, CandidateSet, implied_alpha
from .bench import BlackBox
from .cost import ONLINE_COST_KINDS, fit_cost_model_unit
from .diagnostics import PersistenceStat, front_persistence
from .errors import ConfigError, DataError
from .space import from_unit, sample_uniform
from .surrogate import gp_fit


@dataclass(frozen=True)
class Iterations:
    """Budget: a fixed number of evaluations."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"iteration budget must be >= 1, got {self.n}")

    def exhausted(self, trace: Trace) -> bool:
        return len(trace) >= self.n


@dataclass(frozen=True)
class SimulatedCost:
    """Budget: a cap on cumulative simulated cost."""

    tau: float

    def __post_init__(self):
        if not (0.0 < self.tau < math.inf):
            raise ConfigError(f"cost budget must be finite and > 0, got {self.tau}")

    def exhausted(self, trace: Trace) -> bool:
        return trace.total_cost >= self.tau


Budget = Iterations | SimulatedCost

# Hyperparameter starts of the objective GP fit in every iteration; after the
# first fit, the random one runs only when the warm start is stale (gp_fit).
GP_RESTARTS = 2


@dataclass(frozen=True)
class RunConfig:
    seed: int
    acquisition: AcquisitionKind = acq.EI()
    cost_model: str = "lv3"
    budget: Budget = Iterations(50)
    init_design_size: int | None = None  # default: max(5, dimension count)
    candidate_count: int = acq.DEFAULT_CANDIDATE_COUNT

    def __post_init__(self):
        if self.cost_model not in ONLINE_COST_KINDS:
            raise ConfigError(
                f"cost_model {self.cost_model!r} is not one of {ONLINE_COST_KINDS}"
            )
        for name in ("candidate_count", "init_design_size"):  # None: the default
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.candidate_count > acq.MAX_CANDIDATE_COUNT:
            raise ConfigError(
                f"candidate_count must be <= {acq.MAX_CANDIDATE_COUNT}, "
                f"got {self.candidate_count}"
            )
        if (
            isinstance(self.acquisition, acq.EICool)
            and self.acquisition.total_budget is None
            and not isinstance(self.budget, SimulatedCost)
        ):
            raise ConfigError(
                "EI-cool needs a total cost budget: set total_budget or use a "
                "SimulatedCost budget"
            )

    def to_dict(self) -> dict:
        row = asdict(self)
        row["acquisition"] = acq.kind_to_dict(self.acquisition)
        row["budget"] = (
            {"iterations": self.budget.n}
            if isinstance(self.budget, Iterations)
            else {"simulated_cost": self.budget.tau}
        )
        return row

    def config_hash(self) -> str:
        return _config_hash(self.to_dict())


def _config_hash(config: dict) -> str:
    """Short digest of a run config in its ``RunConfig.to_dict`` form."""
    payload = json.dumps(config, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


@dataclass
class IterationRecord:
    iteration: int
    phase: str  # "init" or "bo"
    point: np.ndarray
    config: np.ndarray
    y: float
    cost: float
    cumulative_cost: float
    incumbent: float
    failed: bool = False
    over_budget: bool = False
    max_ei: float | None = None
    chosen_ei: float | None = None
    chosen_cost_pred: float | None = None
    cei_threshold: float | None = None
    implied_alpha: float | None = None
    degenerate: bool | None = None
    front: CandidateSet | None = None
    persistence: PersistenceStat | None = None

    def to_dict(self) -> dict:
        """The trace row: one key per field, arrays and diagnostics as lists."""
        row = {f.name: getattr(self, f.name) for f in fields(self)}
        row["point"] = [float(v) for v in self.point]
        row["config"] = [float(v) for v in self.config]
        if self.front is not None:
            row["front"] = [
                [e, c] for e, c in zip(self.front.ei.tolist(), self.front.cost.tolist())
            ]
        if self.persistence is not None:
            row["persistence"] = [self.persistence.survived, self.persistence.total]
        return row

    @classmethod
    def from_dict(cls, row: dict) -> IterationRecord:
        """Inverse of :meth:`to_dict`; the row must have exactly its keys.

        Fronts come back as sets without points, shape (k, 0), and persistence
        as its counts only.
        """
        names = {f.name for f in fields(cls)}
        if row.keys() != names:
            raise DataError(
                f"trace row has missing keys {sorted(names - row.keys())} "
                f"and unknown keys {sorted(row.keys() - names)}"
            )
        for f in fields(cls):
            if not _json_fits(row[f.name], _RECORD_TYPES[f.name]):
                raise DataError(
                    f"trace row field {f.name!r} is {row[f.name]!r:.40}, not {f.type}"
                )
        record = cls(**row)
        record.point = np.array(record.point)
        record.config = np.array(record.config)
        if record.front is not None:
            eis, costs = np.array(record.front, dtype=float).reshape(-1, 2).T
            record.front = CandidateSet(np.empty((len(eis), 0)), eis, costs)
        if record.persistence is not None:
            survived, total = record.persistence
            record.persistence = PersistenceStat(survived, total, rescored=None)
        return record


_RECORD_TYPES = get_type_hints(IterationRecord)


def _json_fits(value, hint) -> bool:
    """Whether a decoded JSON value stands for a record field of type ``hint``.

    Any JSON number fits a float (``Infinity`` included); arrays are lists
    of numbers, a front is a list of [ei, cost] pairs and persistence is
    its two counts.
    """
    if isinstance(hint, UnionType):
        return any(_json_fits(value, h) for h in get_args(hint))
    if hint is float:
        return type(value) in (int, float)
    if hint is np.ndarray:
        return type(value) is list and all(type(v) in (int, float) for v in value)
    if hint is CandidateSet:
        return type(value) is list and all(
            _json_fits(pair, np.ndarray) and len(pair) == 2 for pair in value
        )
    if hint is PersistenceStat:
        return type(value) is list and [type(v) for v in value] == [int, int]
    return type(value) is hint  # int, str, bool and NoneType


@dataclass
class Trace:
    records: list[IterationRecord]
    problem: dict = field(default_factory=dict)
    run_config: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def total_cost(self) -> float:
        return self.records[-1].cumulative_cost if self.records else 0.0

    @property
    def final_incumbent(self) -> float:
        return self.records[-1].incumbent if self.records else math.inf

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(
                {"type": "meta", "problem": self.problem, "config": self.run_config},
                sort_keys=True,
            )
        ]
        lines.extend(json.dumps(r.to_dict(), sort_keys=True) for r in self.records)
        return "\n".join(lines) + "\n"

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_jsonl())


def read_trace(path: str | Path) -> Trace:
    """Reload a trace written by :meth:`Trace.write`.

    Records come back through :meth:`IterationRecord.from_dict`. A line that
    is not UTF-8 or not JSON, or a row that does not match the record, raises
    a ``DataError`` naming the path and line.
    """
    records: list[IterationRecord] = []
    problem: dict = {}
    run_config: dict = {}
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                # Decoded here rather than by the file object, so that a
                # line that is not UTF-8 is named like any other bad line.
                line = raw.decode().strip()
                if not line:
                    continue
                payload = json.loads(line)
                if not isinstance(payload, dict):
                    raise DataError("trace line is not a JSON object")
                if payload.get("type") == "meta":
                    problem = payload.get("problem", {})
                    run_config = payload.get("config", {})
                else:
                    records.append(IterationRecord.from_dict(payload))
            except (ValueError, TypeError) as err:
                raise DataError(f"{path}:{lineno}: {err}") from err
    return Trace(records=records, problem=problem, run_config=run_config)


def constrained_best(trace: Trace, tau: float) -> tuple[float, float]:
    """Incumbent and spend over the prefix with cumulative cost <= tau.

    Returns (+inf, 0) when even the first evaluation exceeds the budget.
    """
    if tau <= 0:
        raise ConfigError(f"tau must be positive, got {tau}")
    best_y = math.inf
    spend = 0.0
    for record in trace.records:
        if record.cumulative_cost > tau:
            break
        spend = record.cumulative_cost
        if not record.failed and record.y < best_y:
            best_y = record.y
    if spend == 0.0:
        return math.inf, 0.0
    return best_y, spend


def _failure_cost(cost_pred: float | None, observed: list[float]) -> float:
    if cost_pred is not None:
        return cost_pred
    if observed:
        return float(np.exp(np.mean(np.log(observed))))
    return 1.0


def run(
    problem: BlackBox,
    cfg: RunConfig,
    track_persistence: bool = False,
) -> Trace:
    """Execute one budgeted optimization run and return its trace.

    ``track_persistence`` re-scores each iteration's previous front under the
    new models for front diagnostics.

    An evaluation that raises, returns a non-finite ``y``, or returns a cost
    that is not positive and finite becomes a failed row with ``y = inf``,
    left out of both model fits. It is charged its cost when that cost is
    valid, and otherwise the chosen point's predicted cost (the geometric
    mean of the valid observed costs, or 1, before any prediction).
    """
    rng = np.random.default_rng(cfg.seed)
    space = problem.space
    budget = cfg.budget
    trace = Trace(records=[], problem=problem.descriptor, run_config=cfg.to_dict())

    def record_eval(
        point: np.ndarray, phase: str, sel: acq.SelectionResult | None = None
    ) -> IterationRecord:
        try:
            y, cost = problem.evaluate(point)
        except Exception:
            y, cost = math.inf, math.nan
        # A failed evaluation keeps a valid cost; any other is charged a
        # stand-in. Neither model sees a failed row.
        cost_valid = math.isfinite(cost) and cost > 0
        failed = not (cost_valid and math.isfinite(y))
        if failed:
            y = math.inf
        if not cost_valid:
            cost = _failure_cost(
                sel.chosen.cost_pred if sel is not None else None,
                [r.cost for r in trace.records if not r.failed],
            )
        record = IterationRecord(
            iteration=len(trace) + 1,
            phase=phase,
            point=point,
            config=from_unit(space, point),
            y=y,
            cost=cost,
            cumulative_cost=trace.total_cost + cost,
            incumbent=min(trace.final_incumbent, y),
            failed=failed,
        )
        record.over_budget = (
            isinstance(budget, SimulatedCost) and record.cumulative_cost > budget.tau
        )
        if sel is not None:
            record.max_ei = float(sel.candidates.ei.max())
            record.chosen_ei = sel.chosen.ei
            record.chosen_cost_pred = sel.chosen.cost_pred
            record.cei_threshold = sel.threshold
            record.degenerate = sel.degenerate
            record.front = sel.front
        trace.records.append(record)
        return record

    # Initial design.
    init_size = cfg.init_design_size or max(5, len(space))
    init_points = sample_uniform(space, rng, init_size)
    if problem.candidate_pool is not None:
        # Tabular replay: the init design snaps to recorded rows.
        pool = problem.candidate_pool
        idx = rng.choice(pool.shape[0], size=min(init_size, pool.shape[0]), replace=False)
        init_points = pool[np.sort(idx)]
    for point in init_points:
        if budget.exhausted(trace):
            break
        record_eval(point, "init")

    # EI-cool's missing budgets come from the SimulatedCost cap and the init
    # spend; ei_cool_alpha checks total > init when the loop first selects.
    kind = cfg.acquisition
    if isinstance(kind, acq.EICool):
        kind = replace(
            kind,
            total_budget=kind.total_budget or budget.tau,
            init_budget=kind.init_budget or trace.total_cost,
        )

    model = cost_model = None  # the last fits, each the next one's warm start
    prev_front: CandidateSet | None = None

    # Sequential loop.
    while not budget.exhausted(trace):
        valid = [r for r in trace.records if not r.failed]
        if not valid:
            # No usable data yet (e.g. failing init design): a random row of
            # the table in replay, else a uniform sample.
            pool = problem.candidate_pool
            if pool is not None:
                point = pool[rng.choice(pool.shape[0])]
            else:
                point = sample_uniform(space, rng, 1)[0]
            record_eval(point, "bo")
            continue

        X = np.array([r.point for r in valid])
        ys = np.array([r.y for r in valid])
        costs = np.array([r.cost for r in valid])

        model = gp_fit(X, ys, restarts=GP_RESTARTS, rng=rng, warm_start=model)
        cost_model = fit_cost_model_unit(cfg.cost_model, X, costs, rng, cost_model)

        cost_floor = acq.cost_floor_for(costs)
        sel = acq.propose(
            kind,
            model,
            cost_model,
            history_points=X,
            history_targets=ys,
            cost_floor=cost_floor,
            candidate_count=cfg.candidate_count,
            rng=rng,
            spent=trace.total_cost,
            candidate_pool=problem.candidate_pool,
        )
        record = record_eval(sel.chosen.point, "bo", sel)
        if isinstance(kind, acq.CEI):
            record.implied_alpha = implied_alpha(sel)

        if track_persistence and prev_front is not None:
            record.persistence = front_persistence(
                prev_front, model, cost_model, float(np.min(ys)), sel.front, cost_floor
            )
        prev_front = sel.front

    return trace


def summary_row(trace: Trace) -> dict:
    """One-line run summary for the harness CSV."""
    cfg = trace.run_config
    return {
        "config_hash": _config_hash(cfg),
        "seed": cfg.get("seed"),
        "problem": trace.problem.get("name"),
        "final_incumbent": trace.final_incumbent,
        "total_cost": trace.total_cost,
        "iterations": len(trace),
    }
