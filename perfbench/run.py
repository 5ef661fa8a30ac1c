"""Benchmark paretobo end to end and, in a traced run, layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload grid128 --seed 1 --seconds 10 --trace 0

The benchmark builds the workload's inputs from ``--seed``, pays one cold
set-up (import, problem construction, a short warm-up run), then executes
whole rounds of optimisation runs until ``--seconds`` have passed. Every
trace it wrote is then checked against independent oracles (see
``checks.py``). The last line of standard output is one JSON object:
``correct``, ``attempted`` and ``failed`` operations, and the metrics, which
are the end-to-end ones with ``--trace 0`` and the per-layer ones with
``--trace 1``. Traces and spans go to ``perfbench/out/<workload>/``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("grid128", "front8k", "replay7d")
WARMUP_ITERATIONS = 10


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time."""
    try:
        with open("/proc/self/stat") as handle:
            start_ticks = int(handle.read().rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _START


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def optimum(workload, spec) -> tuple[float, float]:
    """The known optimum of a run's problem and the tolerance it is known to."""
    from perfbench import checks

    if workload.tables:
        return float(workload.tables[spec.reference].y.min()), 0.0
    return checks.OBJECTIVES[spec.objective][4], checks.OPTIMUM_TOL


def check_runs(workload, runs: list, out_dir: Path) -> tuple[list[str], list[list[dict]], int, int]:
    """Check every written trace; return errors, parsed records, probes and failures.

    Each suite objective is also probed against its published formula once
    per round. A failing probe is a fault of the program that fails on every
    run, whatever the seed: it counts as a failed operation, and the per-run
    ``y`` check skips that objective.
    """
    from paretobo.cli import build_problem

    from perfbench import checks, workloads

    rerun = out_dir / "rerun.jsonl"
    workloads.record_run(workload, workload.runs[0], rerun, WARMUP_ITERATIONS)
    errors = checks.check_identical((out_dir / "warmup.jsonl").read_bytes(), rerun.read_bytes())

    failing = set()
    objectives = set() if workload.tables else {spec.objective for spec in workload.runs}
    for objective in sorted(objectives):
        probe = checks.check_objective_probe(build_problem(f"{objective}/explinear").evaluate, objective)
        if probe:
            failing.add(objective)
            print(f"objective probe failed (counted in failed): {probe[0]}")

    all_records = []
    for i, recorded in enumerate(runs):
        spec = recorded.spec
        records = checks.parse_records((out_dir / f"run{i:03d}.jsonl").read_text())
        all_records.append(records)
        found = checks.check_ledger(records, recorded.ledger)
        found += checks.check_fronts(records)
        found += checks.check_selection(records, *workloads.selection_rule(spec.kind))
        found += checks.check_bounds(records, *optimum(workload, spec))
        if workload.tables:
            table = workload.tables[spec.reference]
            found += checks.check_table_rows(records, table.configs, table.y, table.cost)
        else:
            found += checks.check_formulas(records, spec.problem_id, spec.objective not in failing)
        errors += [f"run {i} ({spec.label}): {e}" for e in found]
    rounds = len(runs) // len(workload.runs)
    return errors, all_records, rounds * len(objectives), rounds * len(failing)


def propose_gaps_ms(records: list[dict], ledger: list) -> list[float]:
    """Per BO evaluation: end of the previous black-box call to start of this one."""
    return [
        1e3 * (ledger[i][0] - ledger[i - 1][1])
        for i, rec in enumerate(records)
        if rec["phase"] == "bo" and i > 0
    ]


def cost_to_target(records: list[dict], f_opt: float, target: float) -> float:
    """Spend when simple regret first reaches ``target``, else the whole spend."""
    for rec in records:
        if rec["incumbent"] - f_opt <= target:
            return rec["cumulative_cost"]
    return records[-1]["cumulative_cost"]


def end_to_end_metrics(workload, runs: list, all_records: list, setup_s: float) -> dict:
    """The end-to-end metrics, with every run's times scaled to the reference speed.

    A run's scale is the calibration slice's reference time over its mean
    time in that run, so a run on a host running 20% slow is scaled by 1/1.2.
    """
    from perfbench import workloads

    scales = [1e-3 * workload.spec.reference_slice_ms / statistics.fmean(r.slices) for r in runs]
    raw = [propose_gaps_ms(records, r.ledger) for r, records in zip(runs, all_records)]
    gaps = [g * scale for run_gaps, scale in zip(raw, scales) for g in run_gaps]
    # The tail percentile is fixed by one round's sample count, so it does not
    # change when a faster commit fits more rounds into the run.
    per_round = len(gaps) * len(workload.runs) // len(runs)
    tail = math.floor(100.0 * (1.0 - 10 / per_round))
    tail_ms = statistics.quantiles(gaps, n=100, method="inclusive")[tail - 1]
    evaluations = sum(len(r.ledger) for r in runs)
    seconds = sum(r.seconds for r in runs)
    spends = [
        cost_to_target(records, optimum(workload, spec)[0], workloads.REGRET_TARGETS[spec.objective])
        for spec, records in zip(workload.runs, all_records)
        if spec.reference
    ]
    print(
        f"propose_ms: median of {len(gaps)} BO evaluations; propose_ms_tail: p{tail} "
        f"({sum(g > tail_ms for g in gaps)} samples beyond); cost_to_target: geometric mean "
        f"over the {len(spends)} reference runs of round 1"
    )
    print(
        f"host speed: {sum(len(r.slices) for r in runs)} calibration slices, run scales "
        f"{min(scales):.3f}-{max(scales):.3f} (median {statistics.median(scales):.3f}); unscaled: "
        f"{evaluations / seconds:.4g} evaluations/s, propose median "
        f"{statistics.median(g for run_gaps in raw for g in run_gaps):.4g} ms"
    )
    return {
        "setup_s": (setup_s, "s"),
        "iters_per_s": (evaluations / sum(r.seconds * k for r, k in zip(runs, scales)), "evaluations/s"),
        "propose_ms": (statistics.median(gaps), "ms"),
        "propose_ms_tail": (tail_ms, "ms"),
        "cost_to_target": (math.exp(statistics.fmean(math.log(s) for s in spends)), "sim_cost"),
    }


def main() -> int:
    args = parse_args()
    src = ROOT / "src"
    if not (src / "paretobo" / "__init__.py").is_file():
        print(f"perfbench: no paretobo sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    # One BLAS thread: the matrices here are small, one thread runs as fast
    # as two, and idle BLAS threads spin on a shared machine.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")

    start = time.perf_counter()
    import paretobo  # noqa: F401

    import_s = time.perf_counter() - start
    from perfbench import checks, tracing, workloads

    out_dir = ROOT / "perfbench" / "out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, workloads)

    # Cold set-up: inputs, problems, and a short run paying the lazy set-up.
    workload = workloads.build(args.workload, args.seed, out_dir)
    workloads.record_run(workload, workload.runs[0], out_dir / "warmup.jsonl", WARMUP_ITERATIONS)
    setup_s = process_age()

    # Timed: whole rounds until the time is up. The untraced run samples the
    # host's speed with calibration slices inside every run.
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < args.seconds:
        for spec in workload.runs:
            if tracer is not None:
                tracer.run = len(runs)
            path = out_dir / f"run{len(runs):03d}.jsonl"
            runs.append(workloads.record_run(workload, spec, path, tracer=tracer, calibrate=tracer is None))

    if tracer is not None:
        tracer.run = -1
    errors, all_records, probes, failed = check_runs(workload, runs, out_dir)
    for error in errors[:20]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {len(runs)} runs in {len(runs) // len(workload.runs)} "
        f"round(s), {sum(len(r.ledger) for r in runs)} evaluations in {sum(r.seconds for r in runs):.2f} s; "
        f"checks {'FAILED' if errors else 'passed'}"
    )

    if tracer is None:
        metrics = end_to_end_metrics(workload, runs, all_records, setup_s)
    else:
        round_runs = runs[: len(workload.runs)]
        metrics = tracing.layer_metrics(tracer, round_runs, workload.setup_s, import_s)
        metrics.update(tracing.gp_fit_probe(tracer, checks.hartmann3))
        tracer.restore()
        tracer.write(out_dir / "spans.jsonl")
        tracing.report_split(tracer, len(round_runs), workload.spec.largest_layer)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": not errors,
        "attempted": len(runs) + probes,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
