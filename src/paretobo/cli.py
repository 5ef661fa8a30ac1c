"""Experiment harness: budgeted-run grids and figure-ready aggregates.

Subcommands:

- ``run``           one optimization run, trace + summary written to disk
- ``biopt``         fixed-iteration grid; accuracy/cost trade-off vs. the EI
                    baseline per method (relative time %, relative loss %)
- ``time-alloc``    same grid, then average ranks at multiples of the
                    per-problem minimal budget
- ``rank``          re-aggregate ranks from stored traces only
- ``cost-eval``     held-out log-RMSE of every cost-model family vs. the
                    number of training evaluations, plus the leave-one-task-
                    out transfer protocol
- ``pareto-trace``  one run with full front logging: per-iteration fronts,
                    EI_alpha maximizer markers, persistence stats

Aggregation is a pure function of the trace files; bootstrap intervals use
a fixed-seed resampler, so repeated aggregation is byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import acquisition as acq
from .bench import (
    BlackBox,
    CheapOptimum,
    ExpensiveOptimum,
    cost_bench_space,
    cost_suite_split,
    load_tabular,
    make_synthetic,
    synthetic_transfer_tasks,
)
from .cost import (
    ONLINE_COST_KINDS,
    CostSample,
    cost_rmse,
    fit_cost_model_unit,
    load_cost_csv,
    read_csv_rows,
    transfer_fit,
    unit_matrix,
)
from .engine import (
    Budget,
    Iterations,
    RunConfig,
    SimulatedCost,
    Trace,
    constrained_best,
    read_trace,
    run,
    summary_row,
)
from .errors import ConfigError, HarnessError, ParetoBOError
from .space import SearchSpace

BOOTSTRAP_RESAMPLES = 1000
BOOTSTRAP_SEED = 2024
MARKER_ALPHAS = (0.0, 0.25, 0.5, 1.0)

# Each suite cost surface; None is make_synthetic's default, ExpLinear((3/d,)*d).
SUITE_COSTS = {"explinear": None, "expensive": ExpensiveOptimum(), "cheap": CheapOptimum()}

SUITES = {
    "default": [(obj, cost) for obj in ("branin", "hartmann3") for cost in SUITE_COSTS],
    "expensive": [("branin", "expensive"), ("hartmann3", "expensive")],
    "quick": [("branin", "explinear")],
}


def build_problem(problem_id: str, noise_sd: float = 0.0, seed: int = 0) -> BlackBox:
    """Instantiate a suite problem like ``branin/expensive``."""
    try:
        objective, cost_id = problem_id.split("/")
    except ValueError:
        raise ConfigError(
            f"problem id must look like 'branin/expensive', got {problem_id!r}"
        ) from None
    if cost_id not in SUITE_COSTS:
        raise ConfigError(f"unknown cost surface {cost_id!r}")
    return make_synthetic(objective, SUITE_COSTS[cost_id], noise_sd=noise_sd, seed=seed)


def suite_problems(suite: str) -> list[str]:
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    return [f"{obj}/{cost}" for obj, cost in SUITES[suite]]


# ---------------------------------------------------------------------------
# Run grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunTask:
    problem_id: str
    noise_sd: float
    config: RunConfig
    out_dir: str


def _execute_task(task: RunTask) -> dict:
    cfg = task.config
    method = acq.kind_id(cfg.acquisition)
    problem = build_problem(task.problem_id, task.noise_sd, seed=cfg.seed)
    trace = run(problem, cfg)
    safe_problem = task.problem_id.replace("/", "_")
    path = Path(task.out_dir, "traces", method, safe_problem, f"seed{cfg.seed}.jsonl")
    path.parent.mkdir(parents=True, exist_ok=True)
    trace.write(path)
    row = summary_row(trace)
    row.update(
        method=method,
        problem=task.problem_id,
        seed=cfg.seed,
        trace=str(path),
        f_opt=problem.f_opt,
    )
    return row


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _one_blas_thread_for_children():
    """Child processes started inside inherit one BLAS thread, unless set.

    The matrices are small, so several BLAS threads per worker only compete
    for the cores the workers already use. Variables the user set win.
    """
    added = [var for var in BLAS_THREAD_VARS if var not in os.environ]
    for var in added:
        os.environ[var] = "1"
    try:
        yield
    finally:
        for var in added:
            os.environ.pop(var, None)


def _map_tasks(fn, tasks: list, jobs: int) -> list:
    """``[fn(t) for t in tasks]``, in ``jobs`` spawned worker processes if > 1."""
    if jobs <= 1:
        return [fn(task) for task in tasks]
    with _one_blas_thread_for_children(), ProcessPoolExecutor(
        max_workers=jobs, mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        return list(pool.map(fn, tasks))


def run_grid(
    methods: list[acq.AcquisitionKind],
    problems: list[str],
    seeds: int,
    out_dir: Path,
    iterations: int,
    noise_sd: float = 0.0,
    cost_model: str = "lv3",
    candidate_count: int = acq.DEFAULT_CANDIDATE_COUNT,
    jobs: int = 1,
) -> list[dict]:
    """Run methods x problems x seeds, write traces, return the manifest.

    With ``jobs > 1`` the runs execute in spawned worker processes, so a
    script calling this must guard its entry point with
    ``if __name__ == "__main__"``.
    """
    tasks = [
        RunTask(
            problem_id=problem,
            noise_sd=noise_sd,
            config=RunConfig(
                seed=seed,
                acquisition=kind,
                cost_model=cost_model,
                budget=Iterations(iterations),
                candidate_count=candidate_count,
            ),
            out_dir=str(out_dir),
        )
        for kind in methods
        for problem in problems
        for seed in range(seeds)
    ]
    rows = _map_tasks(_execute_task, tasks, jobs)
    rows.sort(key=lambda r: (r["method"], r["problem"], r["seed"]))
    _write_csv(out_dir / "runs.csv", rows)
    return rows


def _run_suite_grid(
    args: argparse.Namespace, methods: list[acq.AcquisitionKind]
) -> list[dict]:
    """``run_grid`` of ``methods`` plus the options' EI_alpha and CEI grids.

    A method listed twice runs once, where it is first listed. Two distinct
    methods with one ``kind_id``, which names their traces and table rows,
    are a ConfigError.
    """
    _check_each("--seeds", [args.seeds])
    # Alpha 0 is EI, which every grid runs; EIAlpha rejects a negative or NaN alpha.
    methods = methods + [acq.EIAlpha(a) for a in _parse_numbers(args.alphas) if a != 0]
    methods += [acq.CEI(l) for l in _parse_numbers(args.lambdas)]
    methods = list(dict.fromkeys(methods))
    by_id: dict[str, acq.AcquisitionKind] = {}
    for kind in methods:
        first = by_id.setdefault(acq.kind_id(kind), kind)
        if first != kind:
            raise ConfigError(
                f"{first} and {kind} share the method id {acq.kind_id(kind)!r}"
            )
    return run_grid(
        methods,
        suite_problems(args.suite),
        args.seeds,
        Path(args.out),
        iterations=args.iters,
        noise_sd=args.noise,
        cost_model=args.cost_model,
        candidate_count=args.candidates,
        jobs=args.jobs,
    )


def _write_csv(path: Path, rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    if not rows:
        path.write_text("")
        return
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _read_manifest(out_dir: Path) -> list[dict]:
    manifest = out_dir / "runs.csv"
    if not manifest.exists():
        raise HarnessError(f"no run manifest at {manifest}")
    return read_csv_rows(manifest, ("method", "problem", "seed", "trace"), dict)


def bootstrap_ci(values: np.ndarray) -> tuple[float, float]:
    """Seeded percentile bootstrap 95% interval of the mean of 1-D ``values``."""
    values = np.asarray(values)
    n = values.shape[0]
    draws = np.random.default_rng(BOOTSTRAP_SEED).integers(0, n, size=(BOOTSTRAP_RESAMPLES, n))
    stats = np.mean(values[draws], axis=1)
    return float(np.percentile(stats, 2.5)), float(np.percentile(stats, 97.5))


# ---------------------------------------------------------------------------
# biopt: accuracy/cost trade-off vs. the EI baseline
# ---------------------------------------------------------------------------


def aggregate_tradeoff(rows: list[dict]) -> list[dict]:
    """Per-method trade-off relative to the matched EI run.

    Relative time is total cost as a percentage of EI's on the same
    (problem, seed); relative loss compares simple regret (incumbent minus
    the problem's known optimum) against EI's, as a percentage.
    """
    baseline: dict[tuple[str, str], dict] = {}
    for row in rows:
        if row["method"] == "ei":
            baseline[(row["problem"], str(row["seed"]))] = row
    if not baseline:
        raise HarnessError("trade-off aggregation needs EI baseline runs")

    methods = sorted({row["method"] for row in rows})
    out = []
    for method in methods:
        rel_time, rel_loss = [], []
        for row in rows:
            if row["method"] != method:
                continue
            key = (row["problem"], str(row["seed"]))
            if key not in baseline:
                raise HarnessError(f"missing EI baseline for {key}")
            base = baseline[key]
            f_opt = float(row["f_opt"])
            regret = float(row["final_incumbent"]) - f_opt
            regret_base = float(base["final_incumbent"]) - f_opt
            rel_time.append(100.0 * float(row["total_cost"]) / float(base["total_cost"]))
            rel_loss.append(
                100.0 * (regret - regret_base) / max(regret_base, 1e-12)
            )
        rel_time = np.array(rel_time)
        rel_loss = np.array(rel_loss)
        time_ci = bootstrap_ci(rel_time)
        loss_ci = bootstrap_ci(rel_loss)
        out.append(
            {
                "method": method,
                "runs": len(rel_time),
                "mean_rel_time_pct": float(np.mean(rel_time)),
                "median_rel_time_pct": float(np.median(rel_time)),
                "mean_rel_time_ci_lo": time_ci[0],
                "mean_rel_time_ci_hi": time_ci[1],
                "mean_rel_loss_pct": float(np.mean(rel_loss)),
                "median_rel_loss_pct": float(np.median(rel_loss)),
                "mean_rel_loss_ci_lo": loss_ci[0],
                "mean_rel_loss_ci_hi": loss_ci[1],
            }
        )
    return out


def cmd_biopt(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    rows = _run_suite_grid(args, [acq.EI()] + ([acq.EIpu()] if args.eipu else []))
    table = aggregate_tradeoff(rows)
    _write_csv(out_dir / "tradeoff.csv", table)
    (out_dir / "tradeoff_meta.json").write_text(
        json.dumps(
            {
                "normalization": "simple regret (incumbent - known optimum) "
                "relative to the matched EI run; times relative to EI",
                "bootstrap_resamples": BOOTSTRAP_RESAMPLES,
                "bootstrap_seed": BOOTSTRAP_SEED,
            },
            indent=2,
        )
        + "\n"
    )
    for row in table:
        print(
            f"{row['method']:>12}: time {row['mean_rel_time_pct']:.1f}% "
            f"(median {row['median_rel_time_pct']:.1f}%), "
            f"loss {row['mean_rel_loss_pct']:.2f}% "
            f"(median {row['median_rel_loss_pct']:.2f}%)"
        )
    return 0


# ---------------------------------------------------------------------------
# time-alloc / rank: average ranks at budget multiples
# ---------------------------------------------------------------------------


def _alpha_grid_methods(methods: list[str]) -> list[str]:
    """Methods that define the minimal budget (the EI_alpha family)."""
    grid = [m for m in methods if m == "ei" or m == "eipu" or m.startswith("alpha")]
    return grid or list(methods)


def aggregate_ranks(
    manifest: list[dict], multiples: tuple[float, ...]
) -> list[dict]:
    """Average rank per (budget multiple, method) with bootstrap intervals.

    The minimal budget of a (problem, seed) pair is the smallest total cost
    at which a method from the EI_alpha family finished its full iteration
    budget; ranks (1 = lowest incumbent, ties averaged) are taken over all
    methods at each multiple of it, then averaged across pairs.
    """
    from scipy.stats import rankdata  # 0.3 s to import; only ranking needs it

    methods = sorted({row["method"] for row in manifest})
    pairs = sorted({(row["problem"], str(row["seed"])) for row in manifest})
    traces: dict[tuple[str, str, str], Trace] = {}
    for row in manifest:
        key = (row["method"], row["problem"], str(row["seed"]))
        traces[key] = read_trace(row["trace"])
    for pair in pairs:
        for method in methods:
            if (method, *pair) not in traces:
                raise HarnessError(f"missing trace for {method} on {pair}")

    grid_methods = _alpha_grid_methods(methods)
    minimal_budget = {
        pair: min(traces[(method, *pair)].total_cost for method in grid_methods)
        for pair in pairs
    }

    out = []
    for multiple in multiples:
        rank_rows = np.empty((len(pairs), len(methods)))
        for p, pair in enumerate(pairs):
            budget = multiple * minimal_budget[pair]
            best = [constrained_best(traces[(m, *pair)], budget)[0] for m in methods]
            rank_rows[p] = rankdata(best, method="average")
        for m, method in enumerate(methods):
            ci = bootstrap_ci(rank_rows[:, m])
            out.append(
                {
                    "multiple_pct": 100.0 * multiple,
                    "method": method,
                    "mean_rank": float(np.mean(rank_rows[:, m])),
                    "ci_lo": ci[0],
                    "ci_hi": ci[1],
                    "pairs": len(pairs),
                }
            )
    return out


def cmd_time_alloc(args: argparse.Namespace) -> int:
    multiples = tuple(_parse_numbers(args.multiples))
    _check_each("--multiples", multiples, lambda v: 0.0 < v < np.inf, "finite and > 0")
    manifest = _run_suite_grid(args, [acq.EI(), acq.EIpu()])
    _write_ranks(manifest, multiples, Path(args.out))
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    multiples = tuple(_parse_numbers(args.multiples))
    _check_each("--multiples", multiples, lambda v: 0.0 < v < np.inf, "finite and > 0")
    manifest = _read_manifest(Path(args.runs))
    _write_ranks(manifest, multiples, Path(args.out or args.runs))
    return 0


def _write_ranks(
    manifest: list[dict], multiples: tuple[float, ...], out_dir: Path
) -> None:
    """Aggregate ranks, write ``ranks.csv`` and print the table."""
    table = aggregate_ranks(manifest, multiples)
    _write_csv(out_dir / "ranks.csv", table)
    for row in table:
        print(
            f"{row['multiple_pct']:7.0f}% {row['method']:>12}: "
            f"rank {row['mean_rank']:.3f} [{row['ci_lo']:.3f}, {row['ci_hi']:.3f}]"
        )


# ---------------------------------------------------------------------------
# cost-eval: cost-model accuracy protocols
# ---------------------------------------------------------------------------

COST_EVAL_KINDS = ("lv1", "lv2", "lv3", "warped_gp", "gplv3", "limited_gp3")
COST_EVAL_TEST_SIZE = 200  # held-out samples per seed


def cost_model_sweep(
    train_sizes: list[int],
    seeds: int,
    data: tuple[SearchSpace, list[CostSample]] | None = None,
) -> list[dict]:
    """Held-out log-RMSE per (model kind, n_train), averaged over seeds.

    Without ``data``, samples come from the synthetic multiplicative-cost
    suite: training points concentrated in a random sub-box, test points
    cube-wide (cost models in an optimization loop predict far from their
    training data). With ``data`` (a space and its recorded samples), each
    seed shuffles the samples and holds out the last ones.
    """
    results: dict[tuple[str, int], list[float]] = {}
    skipped: set[tuple[str, int]] = set()
    for seed in range(seeds):
        rng = np.random.default_rng(1000 + seed)
        if data is None:
            eval_space, train_pool, test = cost_suite_split(
                rng, max(train_sizes), n_test=COST_EVAL_TEST_SIZE
            )
        else:
            eval_space, samples = data
            pool = [samples[i] for i in rng.permutation(len(samples))]
            n_test = COST_EVAL_TEST_SIZE
            test = pool[-n_test:] if len(pool) > n_test else pool[len(pool) // 2 :]
            train_pool = pool[: len(pool) - len(test)]
        for n_train in train_sizes:
            if n_train > len(train_pool):
                skipped.add(("*", n_train))
                continue
            train = train_pool[:n_train]
            U = unit_matrix(eval_space, train)
            costs = np.array([s.cost for s in train])
            for kind in COST_EVAL_KINDS:
                model = fit_cost_model_unit(kind, U, costs, np.random.default_rng(seed))
                rmse = cost_rmse(model, eval_space, test)
                results.setdefault((kind, n_train), []).append(rmse)
    for kind, n_train in sorted(skipped):
        print(
            f"warning: n_train={n_train} exceeds the dataset size; skipped",
            file=sys.stderr,
        )
    out = []
    for (kind, n_train), rmses in sorted(results.items()):
        ci = bootstrap_ci(np.array(rmses))
        out.append(
            {
                "kind": kind,
                "n_train": n_train,
                "mean_log_rmse": float(np.mean(rmses)),
                "ci_lo": ci[0],
                "ci_hi": ci[1],
                "seeds": len(rmses),
            }
        )
    return out


def transfer_loto(seeds: int) -> list[dict]:
    """Leave-one-task-out comparison of transfer cost models.

    Each seed draws 5 synthetic tasks of 40 samples; each task is held out once.
    """
    n_tasks = 5
    space = cost_bench_space(7)
    coefs = np.array([2.0, 0.0, -1.5, 0.0, 1.0, 0.0, 0.0])
    rmses: dict[str, list[float]] = {"transfer_task_aware": [], "transfer_naive": []}
    for seed in range(seeds):
        rng = np.random.default_rng(5000 + seed)
        data = synthetic_transfer_tasks(space, n_tasks, 40, rng, coefs)
        for held_out in range(n_tasks):
            train_tasks = [t for i, t in enumerate(data.tasks) if i != held_out]
            meta, test_samples = data.tasks[held_out]
            train_data = type(data)(tasks=train_tasks)
            for kind in ("task_aware", "naive"):
                model = transfer_fit(space, train_data, kind)
                rmses[f"transfer_{kind}"].append(
                    cost_rmse(model, space, test_samples, meta=meta)
                )
    out = []
    for kind, values in sorted(rmses.items()):
        ci = bootstrap_ci(np.array(values))
        out.append(
            {
                "kind": kind,
                "mean_log_rmse": float(np.mean(values)),
                "ci_lo": ci[0],
                "ci_hi": ci[1],
                "evaluations": len(values),
            }
        )
    return out


def cmd_cost_eval(args: argparse.Namespace) -> int:
    _check_each("--seeds", [args.seeds])
    train_sizes = _parse_numbers(args.train_sizes, int)
    _check_each("--train-sizes", train_sizes)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = None
    if args.data:
        if not args.space_file:
            raise ConfigError("--data needs --space-file for the dimension layout")
        space = SearchSpace.load(args.space_file)
        data = (space, load_cost_csv(args.data, space))
    table = cost_model_sweep(train_sizes, args.seeds, data)
    _write_csv(out_dir / "cost_eval.csv", table)
    transfer_table = transfer_loto(args.seeds)
    _write_csv(out_dir / "transfer_eval.csv", transfer_table)
    for row in table:
        print(
            f"{row['kind']:>12} n={row['n_train']:<4} "
            f"log-RMSE {row['mean_log_rmse']:.4f} "
            f"[{row['ci_lo']:.4f}, {row['ci_hi']:.4f}]"
        )
    for row in transfer_table:
        print(f"{row['kind']:>20}: log-RMSE {row['mean_log_rmse']:.4f}")
    return 0


# ---------------------------------------------------------------------------
# pareto-trace: full front logging for one run
# ---------------------------------------------------------------------------


def _marker_rows(record) -> list[dict]:
    """EI_alpha maximizers over the stored front (argmax is front-invariant)."""
    rows = []
    for alpha in MARKER_ALPHAS:
        chosen = acq.select(acq.EIAlpha(alpha), record.front).chosen
        rows.append(
            {
                "iteration": record.iteration,
                "alpha": alpha,
                "ei": float(chosen.ei),
                "cost": float(chosen.cost_pred),
            }
        )
    return rows


def cmd_pareto_trace(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    problem = build_problem(args.problem, args.noise, seed=args.seed)
    cfg = _run_config(args, Iterations(args.iters))
    trace = run(problem, cfg, track_persistence=True)
    trace.write(out_dir / "trace.jsonl")

    bo_records = [r for r in trace.records if r.phase == "bo" and r.front is not None]
    front_rows, marker_rows, persistence_rows, alpha_rows = [], [], [], []
    for record, after in zip(bo_records, bo_records[1:] + [None]):
        # The next record's persistence flags are this very front's, in order.
        stat = after.persistence if after is not None else None
        flags = [""] * len(record.front) if stat is None else [int(f) for f in stat.flags]
        front = zip(record.front.ei.tolist(), record.front.cost.tolist(), flags)
        for ei, cost, flag in front:
            front_rows.append(
                {"iteration": record.iteration, "ei": ei, "cost": cost, "survived_flag": flag}
            )
        marker_rows.extend(_marker_rows(record))
        if record.persistence is not None:
            persistence_rows.append(
                {
                    "iteration": record.iteration,
                    "survived": record.persistence.survived,
                    "total": record.persistence.total,
                }
            )
        alpha_rows.append(
            {
                "iteration": record.iteration,
                "implied_alpha": ""
                if record.implied_alpha is None
                else record.implied_alpha,
                "cei_threshold": ""
                if record.cei_threshold is None
                else record.cei_threshold,
            }
        )
    _write_csv(out_dir / "fronts.csv", front_rows)
    _write_csv(out_dir / "markers.csv", marker_rows)
    _write_csv(out_dir / "persistence.csv", persistence_rows)
    _write_csv(out_dir / "implied_alpha.csv", alpha_rows)
    print(
        f"wrote {len(front_rows)} front points over {len(bo_records)} iterations "
        f"to {out_dir}"
    )
    return 0


# ---------------------------------------------------------------------------
# run: a single optimization run
# ---------------------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.table:
        if not args.space_file:
            raise ConfigError("--table needs --space-file")
        space = SearchSpace.load(args.space_file)
        problem = load_tabular(args.table, space)
    else:
        problem = build_problem(args.problem, args.noise, seed=args.seed)
    budget = (
        SimulatedCost(args.budget) if args.budget is not None else Iterations(args.iters)
    )
    trace = run(problem, _run_config(args, budget))
    trace.write(out_dir / "trace.jsonl")
    row = summary_row(trace)
    _write_csv(out_dir / "summary.csv", [row])
    print(
        f"{problem.name} seed={args.seed}: best {trace.final_incumbent:.6g} "
        f"after {len(trace)} evaluations, total cost {trace.total_cost:.6g}"
    )
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _run_config(args: argparse.Namespace, budget: Budget) -> RunConfig:
    """The config of a single-run subcommand's options."""
    return RunConfig(
        seed=args.seed,
        acquisition=acq.parse_kind(args.acq),
        cost_model=args.cost_model,
        budget=budget,
        candidate_count=args.candidates,
    )


def _parse_numbers(text: str, convert=float) -> list:
    """A comma-separated option value; a malformed entry is a ConfigError."""
    try:
        return [convert(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as err:
        raise ConfigError(f"malformed list {text!r}: {err}") from None


def _check_each(option: str, values, ok=lambda v: v >= 1, rule="at least 1") -> None:
    """A ConfigError naming the first of an option's values that ``ok`` rejects."""
    for value in values:
        if not ok(value):
            raise ConfigError(f"{option} {str(value)!r}: must be {rule}")


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    """Options of every subcommand that runs the optimizer."""
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--noise", type=float, default=0.0, help="objective noise sd")
    parser.add_argument("--cost-model", default="lv3", choices=ONLINE_COST_KINDS)
    parser.add_argument("--candidates", type=int, default=acq.DEFAULT_CANDIDATE_COUNT)


def _add_grid_options(parser: argparse.ArgumentParser) -> None:
    """Options of the subcommands that run a problems x seeds grid."""
    parser.add_argument("--suite", default="default", help="problem suite name")
    parser.add_argument("--seeds", type=int, default=20, help="seeds per problem")
    parser.add_argument("--jobs", type=int, default=1, help="concurrent runs")
    parser.add_argument("--iters", type=int, default=50)
    parser.add_argument("--alphas", default="0.1,0.3,1", help="EI_alpha grid")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paretobo",
        description="Cost-aware Bayesian optimization experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="single optimization run")
    _add_run_options(p)
    p.add_argument("--problem", default="branin/explinear")
    p.add_argument("--table", default=None, help="tabular replay CSV")
    p.add_argument("--space-file", default=None, help="space JSON for --table")
    p.add_argument("--acq", default="ei")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iters", type=int, default=50)
    p.add_argument("--budget", type=float, default=None, help="simulated-cost cap")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("biopt", help="fixed-iteration trade-off grid")
    _add_run_options(p)
    _add_grid_options(p)
    p.add_argument("--lambdas", default="", help="CEI lambda grid")
    p.add_argument("--eipu", action="store_true", help="include the EIpu baseline")
    p.set_defaults(func=cmd_biopt)

    p = sub.add_parser("time-alloc", help="average ranks at budget multiples")
    _add_run_options(p)
    _add_grid_options(p)
    p.add_argument("--lambdas", default="0.5")
    p.add_argument("--multiples", default="1,5,10,20")
    p.set_defaults(func=cmd_time_alloc)

    p = sub.add_parser("rank", help="re-aggregate ranks from stored traces")
    p.add_argument("--runs", required=True)
    p.add_argument("--multiples", default="1,5,10,20")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("cost-eval", help="cost-model accuracy protocols")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seeds", type=int, default=20, help="data seeds per protocol")
    p.add_argument("--train-sizes", default="4,8,16,32,64")
    p.add_argument("--data", default=None, help="cost samples CSV")
    p.add_argument("--space-file", default=None, help="space JSON for --data")
    p.set_defaults(func=cmd_cost_eval)

    p = sub.add_parser("pareto-trace", help="one run with full front logging")
    _add_run_options(p)
    p.add_argument("--problem", default="branin/explinear")
    p.add_argument("--acq", default="ei")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iters", type=int, default=30)
    p.set_defaults(func=cmd_pareto_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParetoBOError, OSError) as err:
        record = {"error": type(err).__name__, "message": str(err)}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
