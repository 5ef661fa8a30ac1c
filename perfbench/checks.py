"""Correctness checks on written traces, independent of the library.

Each check takes parsed trace records (dicts, as ``trace.jsonl`` stores
them) plus an independent source of truth, and returns a list of error
strings (empty when the check passes). The sources of truth are: the
ledger of what the benchmark's black box returned, the published test
functions and cost surfaces re-implemented here, the generated replay
table, and the selection rules' definitions. Nothing here imports
paretobo, so a fault in the library cannot hide itself from its oracle.
"""

from __future__ import annotations

import json
import math

import numpy as np

REL_TOL = 1e-9

# ---------------------------------------------------------------------------
# Published test functions (native domains) and their optima
# ---------------------------------------------------------------------------


def branin(x: np.ndarray) -> float:
    b, c, t = 5.1 / (4.0 * math.pi**2), 5.0 / math.pi, 1.0 / (8.0 * math.pi)
    return (x[1] - b * x[0] ** 2 + c * x[0] - 6.0) ** 2 + 10.0 * (1.0 - t) * math.cos(x[0]) + 10.0


_H3_ALPHA = np.array([1.0, 1.2, 3.0, 3.2])
_H3_A = np.array([[3.0, 10, 30], [0.1, 10, 35], [3.0, 10, 30], [0.1, 10, 35]])
_H3_P = np.array(
    [
        [0.3689, 0.1170, 0.2673],
        [0.4699, 0.4387, 0.7470],
        [0.1091, 0.8732, 0.5547],
        [0.0381, 0.5743, 0.8828],
    ]
)


def hartmann3(x: np.ndarray) -> float:
    return -float(_H3_ALPHA @ np.exp(-np.sum(_H3_A * (x - _H3_P) ** 2, axis=1)))


# name -> (function, lower bounds, upper bounds, a global minimizer, optimum)
OBJECTIVES = {
    "branin": (branin, np.array([-5.0, 0.0]), np.array([10.0, 15.0]), np.array([math.pi, 2.275]), 0.397887357729739),
    "hartmann3": (hartmann3, np.zeros(3), np.ones(3), np.array([0.114614, 0.555649, 0.852547]), -3.8627797873),
}
OPTIMUM_TOL = 1e-6  # the optima above are rounded
PROBE_POINTS = 16


def cost_surface(surface: str, objective: str, u: np.ndarray) -> float:
    """The suite's cost surfaces over the unit cube.

    ``explinear`` is exp((3/d) sum u); ``expensive`` peaks at 20x the base
    cost at the objective's minimizer and ``cheap`` bottoms out there, both
    log-linear in the distance to it.
    """
    _, lo, hi, minimizer, _ = OBJECTIVES[objective]
    if surface == "explinear":
        return math.exp(3.0 / len(u) * float(np.sum(u)))
    anchor = (minimizer - lo) / (hi - lo)
    share = float(np.linalg.norm(u - anchor) / np.linalg.norm(np.maximum(anchor, 1.0 - anchor)))
    if surface == "expensive":
        return 20.0 ** (1.0 - share)
    if surface == "cheap":
        return 20.0**share
    raise ValueError(f"unknown cost surface {surface!r}")


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def parse_records(text: str) -> list[dict]:
    """The evaluation records of a trace.jsonl text (its meta line dropped)."""
    lines = [json.loads(line) for line in text.splitlines() if line.strip()]
    return [line for line in lines if line.get("type") != "meta"]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def check_ledger(records: list[dict], ledger: list) -> list[str]:
    """Trace rows equal what the black box returned, with running sum and min."""
    errors = []
    if len(records) != len(ledger):
        errors.append(f"{len(records)} records but {len(ledger)} black-box calls")
    spent, best = 0.0, math.inf
    for rec, (_, _, point, y, cost) in zip(records, ledger):
        i = rec["iteration"]
        spent += cost
        best = min(best, y)
        if rec["failed"]:
            errors.append(f"iter {i}: marked failed after a successful call")
        if rec["point"] != point:
            errors.append(f"iter {i}: point differs from the evaluated point")
        if rec["y"] != y or rec["cost"] != cost:
            errors.append(f"iter {i}: (y, cost) {rec['y'], rec['cost']} != returned {y, cost}")
        if not math.isclose(rec["cumulative_cost"], spent, rel_tol=1e-12):
            errors.append(f"iter {i}: cumulative_cost {rec['cumulative_cost']} != {spent}")
        if rec["incumbent"] != best:
            errors.append(f"iter {i}: incumbent {rec['incumbent']} != running min {best}")
    return errors


def check_objective_probe(evaluate, objective: str) -> list[str]:
    """The library's objective equals the published one at fixed points.

    ``evaluate`` maps a unit point to (y, cost). The points, the published
    minimizer plus uniform draws from a fixed seed, do not depend on the
    workload seed, so a wrong objective fails this probe on every run.
    """
    fn, lo, hi, minimizer, _ = OBJECTIVES[objective]
    rng = np.random.default_rng(0)
    units = np.vstack([(minimizer - lo) / (hi - lo), rng.uniform(size=(PROBE_POINTS, len(lo)))])
    worst = 0.0
    for u in units:
        y, _ = evaluate(u)
        expected = fn(lo + u * (hi - lo))
        if not _close(y, expected):
            worst = max(worst, abs(y - expected))
    if worst:
        return [f"{objective} differs from the published function by up to {worst:.3g}"]
    return []


def check_formulas(records: list[dict], problem_id: str, objective: bool = True) -> list[str]:
    """Cost, and y unless ``objective`` is False, match the published formulas.

    Both are recomputed at the recorded native ``config``. Pass
    ``objective=False`` for an objective that already failed
    :func:`check_objective_probe`, whose failure is counted once per round.
    """
    name, surface = problem_id.split("/")
    fn, lo, hi, _, _ = OBJECTIVES[name]
    errors = []
    for rec in records:
        x = np.array(rec["config"], dtype=float)
        y = fn(x)
        cost = cost_surface(surface, name, (x - lo) / (hi - lo))
        if objective and not _close(rec["y"], y):
            errors.append(f"iter {rec['iteration']}: y {rec['y']} != {name}(config) = {y}")
        if not _close(rec["cost"], cost):
            errors.append(f"iter {rec['iteration']}: cost {rec['cost']} != {surface}(config) = {cost}")
    return errors


def check_bounds(records: list[dict], f_opt: float, tol: float = 0.0) -> list[str]:
    """Points lie in the unit cube; no value or incumbent beats the optimum."""
    errors = []
    for rec in records:
        i = rec["iteration"]
        if not all(0.0 <= v <= 1.0 for v in rec["point"]):
            errors.append(f"iter {i}: point {rec['point']} outside [0, 1]^d")
        if rec["y"] < f_opt - tol or rec["incumbent"] < f_opt - tol:
            errors.append(f"iter {i}: regret below zero (y {rec['y']}, optimum {f_opt})")
    return errors


def _front(rec: dict) -> tuple[np.ndarray, np.ndarray]:
    front = np.array(rec["front"], dtype=float).reshape(-1, 2)
    return front[:, 0], front[:, 1]


def check_fronts(records: list[dict]) -> list[str]:
    """Each front is mutually non-dominated, holds the choice and the max EI."""
    errors = []
    for rec in records:
        i = rec["iteration"]
        if (rec["phase"] == "bo") != (rec["front"] is not None):
            errors.append(f"iter {i}: {rec['phase']} record with front {rec['front'] is not None}")
            continue
        if rec["front"] is None:
            continue
        ei, cost = _front(rec)
        if ei.size == 0:
            errors.append(f"iter {i}: empty front")
            continue
        no_worse = (cost[:, None] <= cost[None, :]) & (ei[:, None] >= ei[None, :])
        better = (cost[:, None] < cost[None, :]) | (ei[:, None] > ei[None, :])
        dominated = np.flatnonzero(np.any(no_worse & better, axis=0))
        if dominated.size:
            errors.append(f"iter {i}: front points {dominated.tolist()} are dominated")
        if not np.any((ei == rec["chosen_ei"]) & (cost == rec["chosen_cost_pred"])):
            errors.append(f"iter {i}: chosen point is not on the front")
        if rec["max_ei"] != float(ei.max()):
            errors.append(f"iter {i}: max_ei {rec['max_ei']} != front maximum {ei.max()}")
    return errors


def check_selection(records: list[dict], rule: str, param: float) -> list[str]:
    """The choice obeys its rule over the front.

    ``rule`` is "cei" (``param`` = lambda) or "alpha" (``param`` = the cost
    exponent: 0 for EI, 1 for EIpu).
    """
    errors = []
    for rec in records:
        if rec["front"] is None:
            continue
        i = rec["iteration"]
        ei, cost = _front(rec)
        chosen_ei, chosen_cost = rec["chosen_ei"], rec["chosen_cost_pred"]
        if rule == "cei":
            threshold = (1.0 - param) * float(ei.max())
            recorded = rec["cei_threshold"]
            if recorded is None or not _close(recorded, threshold):
                errors.append(f"iter {i}: cei_threshold {recorded} != (1-lam) max EI {threshold}")
                continue
            if chosen_ei < recorded:
                errors.append(f"iter {i}: chosen EI {chosen_ei} below threshold {recorded}")
            cheaper = np.flatnonzero((cost < chosen_cost) & (ei >= recorded))
            if cheaper.size:
                errors.append(f"iter {i}: cheaper front points {cheaper.tolist()} clear the threshold")
        else:
            scores = ei / cost**param
            best = float(scores.max())
            if chosen_ei / chosen_cost**param < best * (1.0 - 1e-12):
                errors.append(f"iter {i}: chosen point does not maximise EI/cost^{param:g}")
    return errors


def check_table_rows(records: list[dict], configs: np.ndarray, y: np.ndarray, cost: np.ndarray) -> list[str]:
    """Every evaluated config is a row of the table, with that row's y and cost."""
    errors = []
    scale = np.maximum(1.0, np.abs(configs))
    for rec in records:
        x = np.array(rec["config"], dtype=float)
        rows = np.flatnonzero(np.all(np.abs(configs - x) <= REL_TOL * scale, axis=1))
        if rows.size == 0:
            errors.append(f"iter {rec['iteration']}: config {rec['config']} is not a table row")
        elif not any(rec["y"] == y[r] and rec["cost"] == cost[r] for r in rows):
            errors.append(f"iter {rec['iteration']}: (y, cost) differ from the table row")
    return errors


def check_identical(first: bytes, second: bytes) -> list[str]:
    """Two runs of one configuration wrote the same bytes."""
    if first == second:
        return []
    return [f"re-run trace differs ({len(first)} vs {len(second)} bytes)"]
