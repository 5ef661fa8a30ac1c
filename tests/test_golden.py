"""Golden trace digests: fixed configs must keep writing the same bytes.

Each digest is the SHA-256 of a short trace written by ``Trace.write``. A
change that is meant to be lossless (a refactor or a speed-up) keeps every
digest; a change that alters trace bytes on purpose updates the digest here
and says why in CHANGES.md.

Each trace also has a choice digest over only the columns that record what
the run evaluated and what it found (``CHOICE_COLUMNS``). A change that moves
only derived fields, such as EI values in their last bits, keeps it.
"""

import hashlib
import json

import numpy as np

from paretobo.acquisition import CEI, EIAlpha, EICool, EIpu
from paretobo.bench import BlackBox, cost_bench_space, load_tabular
from paretobo.cli import build_problem, main
from paretobo.engine import Iterations, RunConfig, SimulatedCost, run
from paretobo.errors import OutOfTableError
from paretobo.space import from_unit, xgboost_space

# The record columns that a choice digest covers, in this order.
CHOICE_COLUMNS = (
    "iteration",
    "phase",
    "point",
    "config",
    "y",
    "cost",
    "cumulative_cost",
    "incumbent",
    "failed",
    "over_budget",
)

# Criterion 12's configuration: branin/expensive, CEI(0.5), 15 evaluations.
CEI_BRANIN_SHA = (
    "246119c65dfc04eb82e9f3a458e9f7f5e65062a3ce67cd183e7295a0e6f3d573"
)
CEI_BRANIN_CHOICE_SHA = (
    "0ef2e6b1a2eaea9a3eca3c43d000dcaba1ea7e4f50cbb89147b26c2d07c968f8"
)
# hartmann3/expensive, EIpu, 12 evaluations, 2048 candidates, persistence on.
EIPU_HARTMANN3_SHA = (
    "b964f791eac3adf16c37e496ee5a8f177ce0b00b356b9b9fd443fe7bc6391883"
)
EIPU_HARTMANN3_CHOICE_SHA = (
    "02b92ba51f1009c1b2084cd0e9bf08168f55c615e0abb349cba6836f98399f52"
)
# 7-d tabular replay on the XGBoost space with the gplv3 cost model.
REPLAY7D_SHA = (
    "3757b8aa0c558607136c1a0af0b2d41bba0ced18ba79a10d0c374f346289d025"
)
REPLAY7D_CHOICE_SHA = (
    "0e18d7f412e26793e9149bfd2809d601bc031e8f139c5cfe0d5438f645cdee09"
)
# hartmann3/explinear, EI-cool resolved from an 80.0 cost budget: 14 evaluations,
# the last one over budget.
EICOOL_COST_BUDGET_SHA = (
    "710a986cf1b2c825ef9209c73823f6969d99b4cf1e79cb7683fd4696e144dcd5"
)
EICOOL_COST_BUDGET_CHOICE_SHA = (
    "1d8724433cce736e1e768a1154d34a4b68115281d6af54cb6b50e860b8dd4fb1"
)
# hartmann3/cheap, EIAlpha(0.3), a 60.0 cost budget and a black box that fails
# in every way the loop handles (see `_failing`): 20 evaluations, 13 failed.
FAILING_BLACK_BOX_SHA = (
    "1158a9b4cfe2dddd32297599c120269a9cf305af96cb9c7008a5c41f3eb84453"
)
FAILING_BLACK_BOX_CHOICE_SHA = (
    "2136cbf84cb142c7fd15ca2d4804507d1dad3ac36abf5173cc27d9ab7f16c7ea"
)
# `paretobo pareto-trace`: the trace and its four CSVs, in PARETO_TRACE_FILES order.
PARETO_TRACE_FILES = (
    "trace.jsonl",
    "fronts.csv",
    "markers.csv",
    "persistence.csv",
    "implied_alpha.csv",
)
PARETO_TRACE_SHA = (
    "61a803b235680b5fa15406625c960a7418a3fdd1c9fa1b2d4c6e0c15fdd5fdf1"
)
PARETO_TRACE_CHOICE_SHA = (
    "6985348137650331e76f736aabf4c145e809d9119ee45f851c64b9d35607f885"
)
# `paretobo cost-eval --data`: both CSVs, then stdout.
COST_EVAL_FILES = ("cost_eval.csv", "transfer_eval.csv")
COST_EVAL_DATA_SHA = (
    "b79d6b45c460dce49c1c062198f72e5f61b5135405b0e714172543dc81c08724"
)


def _choice_digest(path) -> str:
    """SHA-256 of the ``CHOICE_COLUMNS`` of every record of a trace file."""
    digest = hashlib.sha256()
    for line in path.read_text().splitlines():
        row = json.loads(line)
        if row.get("type") != "meta":
            digest.update(json.dumps([row[k] for k in CHOICE_COLUMNS]).encode() + b"\n")
    return digest.hexdigest()


def _digests(trace, tmp_path) -> tuple[str, str]:
    """The choice digest and the byte digest of ``trace`` as written."""
    path = tmp_path / "trace.jsonl"
    trace.write(path)
    return _choice_digest(path), hashlib.sha256(path.read_bytes()).hexdigest()


def _replay_table(path, rows=120):
    """A seeded 7-d table: smooth objective, log-linear cost, native units."""
    space = xgboost_space()
    rng = np.random.default_rng(7)
    units = rng.uniform(size=(rows, len(space)))
    lines = [",".join(space.names + ["y", "cost"])]
    for u in units:
        config = from_unit(space, u)
        y = float(np.sum((u - 0.4) ** 2) + 0.1 * np.sin(6.0 * u[1]))
        cost = float(np.exp(1.5 * u[0] + 0.8 * u[6] - 0.5 * u[5]))
        lines.append(",".join(repr(float(v)) for v in [*config, y, cost]))
    path.write_text("\n".join(lines) + "\n")
    return space


def _cost_table(path, space, rows=60):
    """A seeded cost CSV: native configurations and a log-linear cost."""
    rng = np.random.default_rng(13)
    lines = [",".join(space.names + ["cost"])]
    for u in rng.uniform(size=(rows, len(space))):
        cost = float(np.exp(0.5 + 2.0 * u[0] - u[2] + 0.2 * rng.normal()))
        lines.append(",".join(repr(float(v)) for v in [*from_unit(space, u), cost]))
    path.write_text("\n".join(lines) + "\n")


def _failing(problem):
    """``problem`` with failures by call number: calls 1-6 and every 7th
    raise, every 5th returns a NaN ``y`` and every 6th a cost of -1."""
    calls = {"n": 0}

    def evaluate(u):
        calls["n"] += 1
        n = calls["n"]
        if n <= 6 or n % 7 == 0:
            raise OutOfTableError(f"scripted failure on call {n}")
        y, cost = problem.evaluate(u)
        if n % 5 == 0:
            return float("nan"), cost
        if n % 6 == 0:
            return y, -1.0
        return y, cost

    return BlackBox(
        space=problem.space,
        evaluate=evaluate,
        name="failing",
        params={"wraps": problem.name},
        f_opt=problem.f_opt,
    )


def _file_digest(directory, names, extra: str = "") -> str:
    digest = hashlib.sha256()
    for name in names:
        data = (directory / name).read_bytes()
        digest.update(f"{name} {len(data)}\n".encode())
        digest.update(data)
    digest.update(extra.encode())
    return digest.hexdigest()


def test_cei_branin_expensive_digest(tmp_path):
    cfg = RunConfig(
        seed=11, acquisition=CEI(0.5), budget=Iterations(15), candidate_count=128
    )
    trace = run(build_problem("branin/expensive", 0.0, seed=11), cfg)
    assert _digests(trace, tmp_path) == (CEI_BRANIN_CHOICE_SHA, CEI_BRANIN_SHA)


def test_eipu_hartmann3_persistence_digest(tmp_path):
    cfg = RunConfig(
        seed=5, acquisition=EIpu(), budget=Iterations(12), candidate_count=2048
    )
    problem = build_problem("hartmann3/expensive", 0.0, seed=5)
    trace = run(problem, cfg, track_persistence=True)
    assert any(r.persistence is not None for r in trace.records)
    assert _digests(trace, tmp_path) == (EIPU_HARTMANN3_CHOICE_SHA, EIPU_HARTMANN3_SHA)


def test_replay7d_gplv3_digest(tmp_path):
    space = _replay_table(tmp_path / "table.csv")
    problem = load_tabular(tmp_path / "table.csv", space)
    cfg = RunConfig(
        seed=2,
        acquisition=CEI(0.5),
        cost_model="gplv3",
        budget=Iterations(12),
        candidate_count=64,
    )
    trace = run(problem, cfg)
    assert _digests(trace, tmp_path) == (REPLAY7D_CHOICE_SHA, REPLAY7D_SHA)


def test_ei_cool_cost_budget_digest(tmp_path):
    cfg = RunConfig(
        seed=4,
        acquisition=EICool(),
        budget=SimulatedCost(80.0),
        candidate_count=128,
    )
    trace = run(build_problem("hartmann3/explinear", 0.0, seed=4), cfg)
    assert len(trace) == 14
    assert trace.records[-1].over_budget
    assert not any(r.over_budget for r in trace.records[:-1])
    assert _digests(trace, tmp_path) == (
        EICOOL_COST_BUDGET_CHOICE_SHA, EICOOL_COST_BUDGET_SHA
    )


def test_failing_black_box_digest(tmp_path):
    cfg = RunConfig(
        seed=8,
        acquisition=EIAlpha(0.3),
        budget=SimulatedCost(60.0),
        candidate_count=128,
    )
    trace = run(_failing(build_problem("hartmann3/cheap", 0.0, seed=8)), cfg)
    assert len(trace) == 20
    assert sum(r.failed for r in trace.records) == 13
    # Calls 6 and 7 are fallback draws (no valid row yet); call 8 is the first valid.
    first_valid = next(r for r in trace.records if not r.failed)
    assert first_valid.iteration == 8 and first_valid.max_ei is None
    assert _digests(trace, tmp_path) == (
        FAILING_BLACK_BOX_CHOICE_SHA, FAILING_BLACK_BOX_SHA
    )


def test_pareto_trace_outputs_digest(tmp_path):
    argv = [
        "pareto-trace", "--problem", "branin/explinear", "--acq", "cei:0.3",
        "--seed", "1", "--iters", "20", "--candidates", "256", "--out", str(tmp_path),
    ]
    assert main(argv) == 0
    fronts = (tmp_path / "fronts.csv").read_text().splitlines()
    assert any(line.endswith(",0") for line in fronts)  # survival flags are written
    assert _choice_digest(tmp_path / "trace.jsonl") == PARETO_TRACE_CHOICE_SHA
    assert _file_digest(tmp_path, PARETO_TRACE_FILES) == PARETO_TRACE_SHA


def test_cost_eval_data_outputs_digest(tmp_path, capsys):
    space = cost_bench_space(4)
    space.save(tmp_path / "cs.json")
    _cost_table(tmp_path / "costs.csv", space)
    out = tmp_path / "out"
    argv = [
        "cost-eval", "--data", str(tmp_path / "costs.csv"),
        "--space-file", str(tmp_path / "cs.json"),
        "--seeds", "2", "--train-sizes", "4,8,16", "--out", str(out),
    ]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert _file_digest(out, COST_EVAL_FILES, stdout) == COST_EVAL_DATA_SHA
