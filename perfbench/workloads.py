"""The benchmark's workloads: run lists, replay tables and regret targets.

A *round* is one pass over a workload's run list; the benchmark always
executes whole rounds. Each round has two halves of equal size:

- the *seeded* half takes its inputs from the workload seed: its run seeds
  and, for ``replay7d``, its replay table;
- the *reference* half takes the same inputs from a fixed seed, whatever the
  workload seed. ``cost_to_target`` is computed on this half only, so it is
  one number per tree: lossless speed-ups leave it unchanged, and it moves
  only when a change alters which points are chosen.

Every run draws its own seed, so no two runs share an initial design.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from paretobo import acquisition as acq
from paretobo.bench import BlackBox, load_tabular
from paretobo.cli import build_problem
from paretobo.engine import Iterations, RunConfig, run
from paretobo.space import xgboost_space

ITERATIONS = 50
REPLAY_ROWS = 2000
GRID_PROBLEMS = tuple(
    f"{objective}/{surface}"
    for objective in ("branin", "hartmann3")
    for surface in ("explinear", "expensive", "cheap")
)

# Simple-regret targets for cost_to_target, in objective units. For a
# replay table the optimum is the table's best row.
REGRET_TARGETS = {"branin": 0.001, "hartmann3": 0.003, "replay": 0.001}
RUN_SEEDS, TABLE = 0, 1  # what a generator draws; see _rng()
# Median calibration-slice times (ms) on the reference machine, one BLAS thread.
REF_GRID, REF_FRONT, REF_REPLAY = 2.6, 22.5, 4.0


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    problems: tuple[str, ...]
    methods: tuple[acq.AcquisitionKind, ...]
    copies: int  # times each (problem, method) pair appears in a round
    candidates: int
    cost_model: str
    largest_layer: str  # the layer the traced run should find largest
    # A calibration slice (see calibrate.py) follows every calibration_every-th
    # evaluation; reference_slice_ms is its median time on the reference machine.
    calibration_every: int
    reference_slice_ms: float
    track_persistence: bool = False


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "grid128",
            GRID_PROBLEMS,
            (acq.EI(), acq.EIAlpha(0.3), acq.EIpu(), acq.CEI(0.5)),
            copies=1,
            candidates=128,
            cost_model="lv3",
            largest_layer="surrogate",
            calibration_every=1,
            reference_slice_ms=REF_GRID,
        ),
        WorkloadSpec(
            "front8k",
            ("branin/expensive", "hartmann3/expensive"),
            (acq.CEI(0.5), acq.EIpu()),
            copies=1,
            candidates=8192,
            cost_model="lv3",
            largest_layer="acquisition+diagnostics",
            calibration_every=3,
            reference_slice_ms=REF_FRONT,
            track_persistence=True,
        ),
        WorkloadSpec(
            "replay7d",
            ("replay",),
            (acq.EIpu(), acq.CEI(0.5)),
            copies=3,
            candidates=1024,
            cost_model="gplv3",
            largest_layer="cost",
            calibration_every=1,
            reference_slice_ms=REF_REPLAY,
        ),
    )
}


@dataclass(frozen=True)
class RunSpec:
    problem_id: str  # suite id such as "branin/expensive", or "replay"
    kind: acq.AcquisitionKind
    seed: int
    reference: bool

    @property
    def objective(self) -> str:
        return self.problem_id.split("/")[0]

    @property
    def label(self) -> str:
        half = "reference" if self.reference else "seeded"
        return f"{self.problem_id}:{acq.kind_id(self.kind)}:{self.seed}:{half}"


@dataclass
class ReplayTable:
    """The generated table in native units, with its objective and cost."""

    configs: np.ndarray  # (rows, 7)
    y: np.ndarray
    cost: np.ndarray


@dataclass
class Workload:
    spec: WorkloadSpec
    runs: list[RunSpec]
    problems: dict[RunSpec, BlackBox]
    tables: dict[bool, ReplayTable] = field(default_factory=dict)  # by half
    setup_s: float = 0.0  # problem construction and table loading

    def config(self, run_spec: RunSpec, iterations: int = ITERATIONS) -> RunConfig:
        return RunConfig(
            seed=run_spec.seed,
            acquisition=run_spec.kind,
            cost_model=self.spec.cost_model,
            budget=Iterations(iterations),
            candidate_count=self.spec.candidates,
        )


@dataclass
class RecordedRun:
    """One engine run with the ledger of every black-box call it made."""

    spec: RunSpec
    # (start, end, point, y, cost) per black-box call, in call order; ``end``
    # is when the call returned to the optimiser, after any calibration slice.
    ledger: list[tuple[float, float, list[float], float, float]] = field(
        default_factory=list
    )
    trace_bytes: int = 0
    seconds: float = 0.0  # the run and its trace writing, slices excluded
    slices: list[float] = field(default_factory=list)  # calibration slice seconds


def selection_rule(kind: acq.AcquisitionKind) -> tuple[str, float]:
    """("cei", lambda) or ("alpha", cost exponent) for the checks."""
    if isinstance(kind, acq.CEI):
        return "cei", kind.lam
    if isinstance(kind, acq.EIAlpha):
        return "alpha", kind.alpha
    return "alpha", 1.0 if isinstance(kind, acq.EIpu) else 0.0


def _rng(seed: int | None, purpose: int) -> np.random.Generator:
    """Generator for one half (``seed`` None for the reference half)."""
    return np.random.default_rng([0, 0, purpose] if seed is None else [seed, 1, purpose])


def round_specs(spec: WorkloadSpec, seed: int) -> list[RunSpec]:
    """One round: every (problem, method) pair ``copies`` times.

    The pairs alternate between the halves like a checkerboard over
    (problem, method, copy), so each half holds every problem and every
    method. Each half draws its run seeds from its own generator.
    """
    draws = {True: _rng(None, RUN_SEEDS), False: _rng(seed, RUN_SEEDS)}
    runs = []
    for copy in range(spec.copies):
        for i, problem in enumerate(spec.problems):
            for j, method in enumerate(spec.methods):
                reference = (i + j + copy) % 2 == 0
                run_seed = int(draws[reference].integers(0, 2**31 - 1))
                runs.append(RunSpec(problem, method, run_seed, reference))
    return runs


def _log_unit(values: np.ndarray, lower: float, upper: float) -> np.ndarray:
    return (np.log(values) - math.log(lower)) / (math.log(upper) - math.log(lower))


def make_replay_table(rng: np.random.Generator, rows: int = REPLAY_ROWS) -> ReplayTable:
    """Synthetic XGBoost tuning log over ``xgboost_space()``.

    Configurations are drawn uniformly in each dimension's own scale
    (log-uniform for log dimensions, integers rounded). The validation
    error is a sum of quadratic bowls in unit coordinates plus Gaussian
    noise (sd 0.002); the training cost is
    ``exp(-2 + log(rounds) + 0.15 depth + subsample + N(0, 0.1))`` seconds.
    """
    rounds = np.rint(np.exp(rng.uniform(0.0, math.log(256.0), rows)))
    learning_rate = np.exp(rng.uniform(math.log(0.01), 0.0, rows))
    gamma = rng.uniform(0.0, 0.1, rows)
    reg_alpha = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), rows))
    reg_lambda = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), rows))
    subsample = rng.uniform(0.01, 1.0, rows)
    depth = rng.integers(1, 17, rows).astype(float)
    configs = np.column_stack(
        [rounds, learning_rate, gamma, reg_alpha, reg_lambda, subsample, depth]
    )
    u_rounds = _log_unit(rounds, 1.0, 256.0)
    u_lr = _log_unit(learning_rate, 0.01, 1.0)
    u_alpha = _log_unit(reg_alpha, 1e-3, 1e3)
    u_depth = (depth - 1.0) / 15.0
    u_sub = (subsample - 0.01) / 0.99
    y = (
        0.05
        + 0.3 * (u_lr - 0.6) ** 2
        + 0.2 * (u_rounds - 0.75) ** 2
        + 0.1 * (u_depth - 0.4) ** 2
        + 0.05 * (u_sub - 0.8) ** 2
        + 0.02 * (u_alpha - 0.5) ** 2
        + 0.3 * gamma
        + rng.normal(0.0, 0.002, rows)
    )
    log_cost = -2.0 + np.log(rounds) + 0.15 * depth + subsample + rng.normal(0.0, 0.1, rows)
    return ReplayTable(configs=configs, y=y, cost=np.exp(log_cost))


def write_replay_csv(table: ReplayTable, path: Path) -> None:
    names = xgboost_space().names + ["y", "cost"]
    lines = [",".join(names)]
    for config, y, cost in zip(table.configs, table.y, table.cost):
        lines.append(",".join(repr(float(v)) for v in (*config, y, cost)))
    path.write_text("\n".join(lines) + "\n")


def build(name: str, seed: int, out_dir: Path) -> Workload:
    """Generate a workload's inputs and construct its problems."""
    spec = WORKLOADS[name]
    runs = round_specs(spec, seed)
    tables: dict[bool, ReplayTable] = {}
    if spec.problems == ("replay",):
        setup_s = 0.0
        loaded = {}
        for reference in (True, False):
            tables[reference] = make_replay_table(_rng(None if reference else seed, TABLE))
            path = out_dir / f"replay_{'reference' if reference else 'seeded'}.csv"
            write_replay_csv(tables[reference], path)
            start = time.perf_counter()
            loaded[reference] = load_tabular(path, xgboost_space())
            setup_s += time.perf_counter() - start
        problems = {run_spec: loaded[run_spec.reference] for run_spec in runs}
    else:
        start = time.perf_counter()
        problems = {
            run_spec: build_problem(run_spec.problem_id, seed=run_spec.seed)
            for run_spec in runs
        }
        setup_s = time.perf_counter() - start
    return Workload(spec, runs, problems, tables, setup_s)


def record_run(
    workload: Workload,
    run_spec: RunSpec,
    path: Path,
    iterations: int = ITERATIONS,
    tracer=None,
    calibrate: bool = False,
) -> RecordedRun:
    """Run one configuration, timing every black-box call, and write its trace.

    With a ``tracer``, each black-box call is also recorded as a
    ``bench.evaluate`` span. With ``calibrate``, the black box runs a
    calibration slice after every ``calibration_every``-th call, before it
    returns; the slice is part of neither the ledger's gaps nor ``seconds``.
    """
    from perfbench.calibrate import slice_seconds

    problem = workload.problems[run_spec]
    recorded = RecordedRun(spec=run_spec)
    ledger, slices = recorded.ledger, recorded.slices
    evaluate = problem.evaluate
    every = workload.spec.calibration_every

    def timed_evaluate(point: np.ndarray) -> tuple[float, float]:
        start = time.perf_counter()
        y, cost = evaluate(point)
        end = time.perf_counter()
        if tracer is not None:
            tracer.record("bench.evaluate", start, end)
        if calibrate and len(ledger) % every == 0:
            slices.append(slice_seconds(workload.spec.candidates))
        ledger.append((start, time.perf_counter(), [float(v) for v in point], y, cost))
        return y, cost

    timed = dataclasses.replace(problem, evaluate=timed_evaluate)
    start = time.perf_counter()
    trace = run(
        timed,
        workload.config(run_spec, iterations),
        track_persistence=workload.spec.track_persistence,
    )
    trace.write(path)
    recorded.seconds = time.perf_counter() - start - sum(slices)
    recorded.trace_bytes = path.stat().st_size
    return recorded
