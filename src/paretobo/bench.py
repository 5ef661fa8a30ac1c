"""Desk-scale benchmark black-boxes.

Synthetic test objectives (branin, hartmann3, hartmann6, rosenbrock) crossed
with synthetic cost surfaces, plus replay of tabulated (config, y, cost)
datasets. Every black-box evaluates unit-cube points and returns
(objective value, positive cost).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .cost import CostSample, MetaFeatures, TransferDataset, check_cost, read_csv_rows
from .errors import ConfigError, OutOfTableError
from .space import Dimension, SearchSpace, from_unit, to_unit

# ---------------------------------------------------------------------------
# Test objectives (evaluated in unit coordinates; native domains below)
# ---------------------------------------------------------------------------


def _branin_native(x: np.ndarray) -> float:
    a = 1.0
    b = 5.1 / (4.0 * math.pi**2)
    c = 5.0 / math.pi
    r = 6.0
    s = 10.0
    t = 1.0 / (8.0 * math.pi)
    return float(
        a * (x[1] - b * x[0] ** 2 + c * x[0] - r) ** 2
        + s * (1.0 - t) * math.cos(x[0])
        + s
    )


_HART3_ALPHA = np.array([1.0, 1.2, 3.0, 3.2])
_HART3_A = np.array(
    [[3.0, 10.0, 30.0], [0.1, 10.0, 35.0], [3.0, 10.0, 30.0], [0.1, 10.0, 35.0]]
)
_HART3_P = 1e-4 * np.array(
    [[3689, 1170, 2673], [4699, 4387, 7470], [1091, 8732, 5547], [381, 5743, 8828]]
)

_HART6_ALPHA = np.array([1.0, 1.2, 3.0, 3.2])
_HART6_A = np.array(
    [
        [10.0, 3.0, 17.0, 3.5, 1.7, 8.0],
        [0.05, 10.0, 17.0, 0.1, 8.0, 14.0],
        [3.0, 3.5, 1.7, 10.0, 17.0, 8.0],
        [17.0, 8.0, 0.05, 10.0, 0.1, 14.0],
    ]
)
_HART6_P = 1e-4 * np.array(
    [
        [1312, 1696, 5569, 124, 8283, 5886],
        [2329, 4135, 8307, 3736, 1004, 9991],
        [2348, 1451, 3522, 2883, 3047, 6650],
        [4047, 8828, 8732, 5743, 1091, 381],
    ]
)


def _hartmann(x: np.ndarray, alpha, A, P) -> float:
    inner = np.sum(A * (x[None, :] - P) ** 2, axis=1)
    return float(-np.sum(alpha * np.exp(-inner)))


def _rosenbrock_native(x: np.ndarray) -> float:
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


@dataclass(frozen=True)
class _Objective:
    space: SearchSpace
    fn: Callable[[np.ndarray], float]
    minimizer_unit: np.ndarray
    f_opt: float

    def value(self, u: np.ndarray) -> float:
        return self.fn(from_unit(self.space, u))


def _continuous_space(bounds: list[tuple[float, float]], prefix: str) -> SearchSpace:
    return SearchSpace(
        [
            Dimension(f"{prefix}{i}", "continuous", lo, hi, "linear")
            for i, (lo, hi) in enumerate(bounds)
        ]
    )


def _objective_registry() -> dict[str, _Objective]:
    branin_space = _continuous_space([(-5.0, 10.0), (0.0, 15.0)], "x")
    hart3_space = _continuous_space([(0.0, 1.0)] * 3, "x")
    hart6_space = _continuous_space([(0.0, 1.0)] * 6, "x")
    rosen_space = _continuous_space([(-2.048, 2.048)] * 2, "x")
    return {
        "branin": _Objective(
            branin_space,
            _branin_native,
            to_unit(branin_space, np.array([math.pi, 2.275])),
            0.39788735772973816,
        ),
        "hartmann3": _Objective(
            hart3_space,
            lambda x: _hartmann(x, _HART3_ALPHA, _HART3_A, _HART3_P),
            np.array([0.114614, 0.555649, 0.852547]),
            -3.8627797869493365,
        ),
        "hartmann6": _Objective(
            hart6_space,
            lambda x: _hartmann(x, _HART6_ALPHA, _HART6_A, _HART6_P),
            np.array([0.20169, 0.150011, 0.476874, 0.275332, 0.311652, 0.6573]),
            -3.322368011391339,
        ),
        "rosenbrock": _Objective(
            rosen_space,
            _rosenbrock_native,
            to_unit(rosen_space, np.array([1.0, 1.0])),
            0.0,
        ),
    }


OBJECTIVES = _objective_registry()


# ---------------------------------------------------------------------------
# Cost surfaces over the unit cube
# ---------------------------------------------------------------------------


def _check_range(surface, low: float, high: float) -> None:
    """Raise unless a surface's least and greatest cost are positive and finite."""
    if not (0.0 < low and high < math.inf):
        raise ConfigError(f"{surface!r} costs {low} to {high}; both must be positive and finite")


@dataclass(frozen=True)
class ExpLinear:
    """cost(u) = exp(bias + coefficients . u)."""

    coefficients: tuple[float, ...]
    bias: float = 0.0

    def __post_init__(self):
        # The exponent's ends on the unit cube: bias + sum(min(c, 0)), bias + sum(max(c, 0)).
        c = np.asarray(self.coefficients, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            ends = np.exp(self.bias + np.array([np.minimum(c, 0).sum(), np.maximum(c, 0).sum()]))
        _check_range(self, *ends)

    def __call__(self, u: np.ndarray) -> float:
        return math.exp(self.bias + float(np.dot(self.coefficients, u)))


@dataclass(frozen=True)
class _AnchoredCost:
    """Cost set by the distance to ``anchor`` over its largest value in the cube."""

    base: float = 1.0
    contrast: float = 20.0
    anchor: tuple[float, ...] = ()

    def __post_init__(self):
        if self.contrast <= 1:
            raise ConfigError(f"contrast must exceed 1, got {self.contrast}")
        _check_range(self, self.base, self.base * self.contrast)

    def _fraction(self, u: np.ndarray) -> float:
        anchor = np.asarray(self.anchor)
        d_max = float(np.linalg.norm(np.maximum(anchor, 1.0 - anchor)))
        dist = float(np.linalg.norm(u - anchor))
        return dist / d_max


class ExpensiveOptimum(_AnchoredCost):
    """Cost peaks (base * contrast) at the objective's global minimizer."""

    def __call__(self, u: np.ndarray) -> float:
        return self.base * self.contrast ** (1.0 - self._fraction(u))


class CheapOptimum(_AnchoredCost):
    """Cost bottoms out (base) at the objective's global minimizer."""

    def __call__(self, u: np.ndarray) -> float:
        return self.base * self.contrast ** self._fraction(u)


CostSurface = ExpLinear | ExpensiveOptimum | CheapOptimum


# ---------------------------------------------------------------------------
# BlackBox
# ---------------------------------------------------------------------------


@dataclass
class BlackBox:
    """An evaluable problem: unit point -> (objective value, positive cost)."""

    space: SearchSpace
    evaluate: Callable[[np.ndarray], tuple[float, float]]
    name: str
    params: dict = field(default_factory=dict)
    f_opt: float | None = None
    candidate_pool: np.ndarray | None = None

    @property
    def descriptor(self) -> dict:
        return {"name": self.name, "f_opt": self.f_opt, **self.params}


def make_synthetic(
    objective: str,
    cost: CostSurface | None = None,
    noise_sd: float = 0.0,
    seed: int = 0,
) -> BlackBox:
    """Synthetic black-box: a test objective paired with a cost surface.

    ExpensiveOptimum / CheapOptimum surfaces are anchored at the objective's
    known global minimizer unless given an anchor; a surface whose dimension
    is not the objective's is a ConfigError. With noise_sd = 0 the black-box
    is a pure function; otherwise Gaussian noise from an owned, seeded
    generator is added to the objective (never to the cost).
    """
    if objective not in OBJECTIVES:
        raise ConfigError(
            f"unknown objective {objective!r}; choose from {sorted(OBJECTIVES)}"
        )
    if not (math.isfinite(noise_sd) and noise_sd >= 0):
        raise ConfigError(f"noise_sd must be finite and >= 0, got {noise_sd}")
    obj = OBJECTIVES[objective]
    d = len(obj.space)
    if cost is None:
        cost = ExpLinear(coefficients=(3.0 / d,) * d)
    if not isinstance(cost, CostSurface):
        raise ConfigError(f"unknown cost surface {cost!r}")
    if isinstance(cost, _AnchoredCost) and not cost.anchor:
        cost = replace(cost, anchor=tuple(obj.minimizer_unit))
    cost_dim = len(cost.coefficients if isinstance(cost, ExpLinear) else cost.anchor)
    if cost_dim != d:
        raise ConfigError(f"{cost!r} is {cost_dim}-dimensional; {objective} is {d}-dimensional")
    rng = np.random.default_rng(seed)

    def evaluate(u: np.ndarray) -> tuple[float, float]:
        y = obj.value(u)
        if noise_sd > 0:
            y += noise_sd * rng.normal()
        return y, cost(u)

    return BlackBox(
        space=obj.space,
        evaluate=evaluate,
        name=objective,
        params={"cost": repr(cost), "noise_sd": noise_sd, "seed": seed},
        f_opt=obj.f_opt,
    )


def load_tabular(
    path: str | Path,
    space: SearchSpace,
    tolerance: float = 1e-9,
) -> BlackBox:
    """Replay recorded evaluations from CSV (dimension columns, `y`, `cost`).

    Every cost must be positive and finite; a bad row is a DataError naming
    the file and row. ``f_opt`` is the least finite ``y``, or None if no row
    has one.

    Queries return the nearest recorded row within ``tolerance`` (Euclidean,
    unit coordinates); anything farther raises. The black box exposes its
    rows as the candidate pool, so proposals snap to recorded configurations
    and objective values are never interpolated.
    """

    def build(row: dict) -> tuple[np.ndarray, float, float]:
        unit = to_unit(space, [float(row[n]) for n in space.names])
        return unit, float(row["y"]), check_cost(float(row["cost"]))

    rows = read_csv_rows(path, space.names + ["y", "cost"], build)
    table, y_arr, cost_arr = map(np.array, zip(*rows))
    finite_y = y_arr[np.isfinite(y_arr)]

    def evaluate(u: np.ndarray) -> tuple[float, float]:
        dists = np.linalg.norm(table - np.asarray(u, dtype=float)[None, :], axis=1)
        idx = int(np.argmin(dists))
        if dists[idx] > tolerance:
            raise OutOfTableError(
                f"query {u} is {dists[idx]:.3g} from the nearest recorded row "
                f"(tolerance {tolerance:.3g})"
            )
        return float(y_arr[idx]), float(cost_arr[idx])

    return BlackBox(
        space=space,
        evaluate=evaluate,
        name=f"tabular:{Path(path).name}",
        params={"rows": len(y_arr), "tolerance": tolerance},
        f_opt=float(np.min(finite_y)) if finite_y.size else None,
        candidate_pool=table,
    )


# ---------------------------------------------------------------------------
# Synthetic cost-data generators for the cost-model protocols
# ---------------------------------------------------------------------------


def cost_bench_space(d: int = 7) -> SearchSpace:
    """Continuous space with mixed scales for cost-model experiments."""
    dims = []
    for i in range(d):
        if i % 2 == 0:
            dims.append(Dimension(f"c{i}", "continuous", 1e-3, 1e3, "log"))
        else:
            dims.append(Dimension(f"c{i}", "continuous", 0.0, 1.0, "linear"))
    return SearchSpace(dims)


def synthetic_cost_samples(
    space: SearchSpace,
    n: int,
    rng: np.random.Generator,
    coefs: np.ndarray,
    interaction: tuple[int, int, float] | None = None,
    noise_sd: float = 0.1,
    box: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[CostSample]:
    """Multiplicative cost law: log cost = 1 + coefs . u, plus noise.

    ``coefs`` has one entry per dimension (zero = inactive feature);
    ``interaction`` optionally adds gamma * u_i * u_j. ``box`` restricts
    sampling to a sub-box of the cube (used to mimic the concentrated
    configurations an optimizer visits, versus cube-wide candidates).
    """
    lo = np.zeros(len(space)) if box is None else np.asarray(box[0], dtype=float)
    hi = np.ones(len(space)) if box is None else np.asarray(box[1], dtype=float)
    U = rng.uniform(lo, hi, size=(n, len(space)))
    logc = 1.0 + U @ np.asarray(coefs, dtype=float)
    if interaction is not None:
        i, j, gamma = interaction
        logc = logc + gamma * U[:, i] * U[:, j]
    if noise_sd > 0:
        logc = logc + noise_sd * rng.normal(size=n)
    return [
        CostSample(config=from_unit(space, u), cost=float(np.exp(lc)))
        for u, lc in zip(U, logc)
    ]


# Default multiplicative-cost suite: one dominant feature, two secondary
# ones, an interaction, and noise. Training configurations come from a
# random sub-box (optimizers sample locally), test configurations from the
# whole cube, so held-out error includes the extrapolation regime cost
# models face inside an optimization loop.
COST_SUITE_COEFS = (4.0, 0.0, -1.5, 0.0, 0.8, 0.0, 0.0)
COST_SUITE_INTERACTION = (0, 2, 0.75)
COST_SUITE_NOISE_SD = 0.2
COST_SUITE_BOX_WIDTH = 0.6


def cost_suite_split(
    rng: np.random.Generator, n_train: int, n_test: int = 200
) -> tuple[SearchSpace, list[CostSample], list[CostSample]]:
    """One seed of the multiplicative-cost suite: (space, train, test)."""
    space = cost_bench_space(len(COST_SUITE_COEFS))
    coefs = np.array(COST_SUITE_COEFS)
    lo = rng.uniform(0.0, 1.0 - COST_SUITE_BOX_WIDTH, size=len(space))
    train = synthetic_cost_samples(
        space,
        n_train,
        rng,
        coefs,
        interaction=COST_SUITE_INTERACTION,
        noise_sd=COST_SUITE_NOISE_SD,
        box=(lo, lo + COST_SUITE_BOX_WIDTH),
    )
    test = synthetic_cost_samples(
        space,
        n_test,
        rng,
        coefs,
        interaction=COST_SUITE_INTERACTION,
        noise_sd=COST_SUITE_NOISE_SD,
    )
    return space, train, test


def synthetic_transfer_tasks(
    space: SearchSpace,
    n_tasks: int,
    n_per_task: int,
    rng: np.random.Generator,
    coefs: np.ndarray,
) -> TransferDataset:
    """Multi-task cost law with meta-feature effects.

    log cost = log(rows) + 0.5*log(cols) + coefs . u + noise, noise ~ N(0, 0.05^2)
    """
    tasks = []
    for _ in range(n_tasks):
        meta = MetaFeatures(
            n_rows=int(rng.integers(100, 100_000)),
            n_cols=int(rng.integers(5, 200)),
            n_classes=int(rng.choice([0, 2, 3, 5, 10])),
        )
        U = rng.uniform(0.0, 1.0, size=(n_per_task, len(space)))
        logc = (
            math.log(meta.n_rows)
            + 0.5 * math.log(meta.n_cols)
            + U @ np.asarray(coefs, dtype=float)
        )
        logc = logc + 0.05 * rng.normal(size=n_per_task)
        samples = [
            CostSample(config=from_unit(space, u), cost=float(np.exp(lc)))
            for u, lc in zip(U, logc)
        ]
        tasks.append((meta, samples))
    return TransferDataset(tasks=tasks)
