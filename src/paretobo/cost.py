"""Evaluation-cost prediction models.

All models regress the log cost. Features are the unit-cube coordinates of
the configuration, i.e. each dimension enters through its fitting transform
(log for log-scaled dimensions, identity otherwise) rescaled to [0, 1];
predictions with an intercept are invariant to that affine rescaling.

Families:

- ``lv{k}``        ordinary least squares on the k most significant features
                   ("low-variance" linear model),
- ``warped_gp``    GP on all features vs. log cost,
- ``gplv{k}``      LV(k) plus a GP on its log-residuals,
- ``limited_gp3``  GP restricted to the 3 most significant features,
- ``transfer_*``   LV models pooled across tasks, optionally with log
                   dataset meta-features as extra regressors,
- ``constant``     geometric mean of observed costs (low-data fallback): the
                   linear model with no features.

Predictions are exp(log-space prediction) - the median of the implied
log-normal - which avoids variance blow-ups when GPs extrapolate.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DataError, UsageError
from .space import SearchSpace, to_unit
from .surrogate import GPModel, gp_fit, gp_posterior_many

# Keeps exp() finite while leaving any realistic prediction untouched.
_LOG_CLIP = 300.0

RIDGE_LAMBDA = 1e-8


def check_cost(cost: float) -> float:
    """``cost`` itself if it is positive and finite, else a DataError."""
    if not (cost > 0 and math.isfinite(cost)):
        raise DataError(f"cost must be positive and finite, got {cost}")
    return cost


@dataclass(frozen=True)
class CostSample:
    """One recorded evaluation: native configuration and positive cost."""

    config: np.ndarray
    cost: float

    def __post_init__(self):
        object.__setattr__(self, "config", np.asarray(self.config, dtype=float))
        check_cost(self.cost)


@dataclass(frozen=True)
class MetaFeatures:
    """Core dataset descriptors used by transfer cost models."""

    n_rows: int
    n_cols: int
    n_classes: int = 0

    def __post_init__(self):
        if self.n_rows < 1 or self.n_cols < 1 or self.n_classes < 0:
            raise DataError(f"bad meta-features {self}")

    def to_regressors(self) -> np.ndarray:
        # log1p for classes: regression tasks carry n_classes = 0.
        return np.array(
            [math.log(self.n_rows), math.log(self.n_cols), math.log1p(self.n_classes)]
        )


@dataclass
class TransferDataset:
    """Cost samples grouped by task, each task tagged with meta-features."""

    tasks: list[tuple[MetaFeatures, list[CostSample]]]

    def __post_init__(self):
        if not self.tasks or not any(samples for _, samples in self.tasks):
            raise DataError("transfer dataset needs at least one task with samples")


class CostModel:
    """Base interface: strictly positive finite cost predictions."""

    def predict_log_unit(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def predict_unit(self, points: np.ndarray) -> np.ndarray:
        """Predicted costs at unit-cube points of shape (m, d)."""
        logp = self.predict_log_unit(np.atleast_2d(np.asarray(points, float)))
        return np.exp(np.clip(logp, -_LOG_CLIP, _LOG_CLIP))


@dataclass
class LinearCost(CostModel):
    """OLS of log cost on centered selected features (ridge on rank loss).

    With no features it is the constant model: ``intercept`` everywhere.
    """

    kind: str
    selected_features: tuple[int, ...]
    coef: np.ndarray
    intercept: float
    feature_means: np.ndarray
    ridge_fallback: bool = False
    n_meta: int = 0  # trailing regressors taken from meta-features

    def predict_log_unit(self, points, meta: MetaFeatures | None = None):
        cols = points[:, list(self.selected_features)]
        if self.n_meta:
            if meta is None:
                raise UsageError(
                    f"{self.kind} model requires meta-features at predict time"
                )
            meta_cols = np.tile(meta.to_regressors(), (points.shape[0], 1))
            cols = np.hstack([cols, meta_cols])
        return self.intercept + (cols - self.feature_means) @ self.coef


@dataclass
class GPCost(CostModel):
    """GP on (a subset of) features vs. log cost; optional linear base."""

    kind: str
    gp: GPModel | None
    selected_features: tuple[int, ...]
    base: LinearCost | None = None

    @property
    def ridge_fallback(self) -> bool:
        return self.base is not None and self.base.ridge_fallback

    def predict_log_unit(self, points):
        logp = np.zeros(points.shape[0])
        if self.base is not None:
            logp = self.base.predict_log_unit(points)
        if self.gp is not None:
            sub = (
                points[:, list(self.selected_features)]
                if self.selected_features
                else points
            )
            means, _ = gp_posterior_many(self.gp, sub)
            logp = logp + means
        return logp


def unit_matrix(space: SearchSpace, samples: Sequence[CostSample]) -> np.ndarray:
    """Unit-cube coordinates of the samples' configurations, one row each."""
    return np.array([to_unit(space, s.config) for s in samples])


# ---------------------------------------------------------------------------
# Model families, fitted on unit coordinates U and log costs
# ---------------------------------------------------------------------------

# Hyperparameter starts of every cost-model GP fit; a warm-started fit runs
# its random ones only when the warm start is stale (gp_fit).
GP_RESTARTS = 3


def select_features(U: np.ndarray, logc: np.ndarray, k: int) -> list[int]:
    """Indices of the k columns of U with highest univariate R-squared vs. logc.

    Simple-regression R-squared equals the squared correlation, so the
    ranking is invariant to the affine unit-cube rescaling. Ties break
    toward the lower dimension index; k is capped at the dimension count.
    """
    d = U.shape[1]
    k_eff = min(k, d)
    if len(logc) < k_eff + 2:
        raise DataError(f"need at least {k_eff + 2} samples to select {k_eff} features")
    yc = logc - logc.mean()
    y_var = float(yc @ yc)
    # Guard against ulp-level residuals of constant targets masquerading
    # as signal (mean() of identical floats is not exact).
    scale = max(1.0, float(np.max(np.abs(logc))))
    degenerate_y = y_var <= len(logc) * (1e-12 * scale) ** 2
    r_squared = np.zeros(d)
    if not degenerate_y:
        for j in range(d):
            xc = U[:, j] - U[:, j].mean()
            x_var = float(xc @ xc)
            if x_var > 0:
                r_squared[j] = (float(xc @ yc) ** 2) / (x_var * y_var)
    order = sorted(range(d), key=lambda j: (-r_squared[j], j))
    return order[:k_eff]


def _fit_constant(U, logc, rng=None, warm_start=None) -> LinearCost:
    return LinearCost("constant", (), np.zeros(0), float(np.mean(logc)), np.zeros(0))


def _fit_lv(U, logc, rng=None, warm_start=None, *, k, meta_cols=None) -> LinearCost:
    """OLS of log cost on the k selected features and any ``meta_cols``.

    Columns are centered; a rank-deficient design is solved by ridge
    (lambda = RIDGE_LAMBDA) instead.
    """
    features = select_features(U, logc, k)
    cols = U[:, features]
    if meta_cols is not None:
        cols = np.hstack([cols, meta_cols])
    means = cols.mean(axis=0)
    Xc = cols - means
    yc = logc - logc.mean()
    ridge = np.linalg.matrix_rank(Xc) < Xc.shape[1]
    if ridge:
        gram = Xc.T @ Xc + RIDGE_LAMBDA * np.eye(Xc.shape[1])
        coef = np.linalg.solve(gram, Xc.T @ yc)
    else:
        coef, *_ = np.linalg.lstsq(Xc, yc, rcond=None)
    return LinearCost(
        kind=f"lv{len(features)}",
        selected_features=tuple(features),
        coef=coef,
        intercept=float(logc.mean()),
        feature_means=means,
        ridge_fallback=ridge,
        n_meta=0 if meta_cols is None else meta_cols.shape[1],
    )


def _fit_warped_gp(U, logc, rng=None, warm_start=None) -> GPCost:
    gp = gp_fit(U, logc, restarts=GP_RESTARTS, rng=rng, warm_start=warm_start)
    return GPCost(kind="warped_gp", gp=gp, selected_features=())


def _fit_limited_gp(U, logc, rng=None, warm_start=None) -> GPCost:
    features = select_features(U, logc, 3)
    gp = gp_fit(
        U[:, features], logc, restarts=GP_RESTARTS, rng=rng, warm_start=warm_start
    )
    return GPCost(kind="limited_gp3", gp=gp, selected_features=tuple(features))


def _fit_gplv(U, logc, rng=None, warm_start=None, *, k) -> GPCost:
    base = _fit_lv(U, logc, k=k)
    resid = logc - base.predict_log_unit(U)
    gp = gp_fit(U, resid, restarts=GP_RESTARTS, rng=rng, warm_start=warm_start)
    kind = f"gplv{len(base.selected_features)}"
    model = GPCost(kind=kind, gp=gp, selected_features=(), base=base)
    # Keep the residual GP only when it does not worsen the in-sample fit,
    # so GPLV's training error never exceeds the base model's.
    gp_rmse = float(np.sqrt(np.mean((logc - model.predict_log_unit(U)) ** 2)))
    base_rmse = float(np.sqrt(np.mean(resid**2)))
    if gp_rmse > base_rmse:
        model.gp = None
    return model


# Each online kind's minimum sample count and its fit (U, logc, rng, warm_start).
_ONLINE_KINDS = {
    "constant": (1, _fit_constant),
    "lv1": (3, partial(_fit_lv, k=1)),
    "lv2": (4, partial(_fit_lv, k=2)),
    "lv3": (5, partial(_fit_lv, k=3)),
    "warped_gp": (3, _fit_warped_gp),
    "gplv1": (3, partial(_fit_gplv, k=1)),
    "gplv2": (4, partial(_fit_gplv, k=2)),
    "gplv3": (5, partial(_fit_gplv, k=3)),
    "limited_gp3": (5, _fit_limited_gp),
}
ONLINE_COST_KINDS = tuple(_ONLINE_KINDS)


def fit_cost_model_unit(
    kind: str,
    unit_points: np.ndarray,
    costs: np.ndarray,
    rng: np.random.Generator | None = None,
    previous: CostModel | None = None,
) -> CostModel:
    """Fit an online cost model of ``kind`` on unit coordinates and costs.

    Falls back to the constant (geometric mean) predictor while fewer
    samples than the kind's minimum are available, so a usable cost
    estimate exists from the first iteration. The GP of ``previous``, the
    last fit in a sequential loop, warm-starts a GP kind's fit (see
    ``gp_fit``); without one, the fit is cold.
    """
    if kind not in _ONLINE_KINDS:
        raise ConfigError(
            f"unknown cost model kind {kind!r}; choose from {ONLINE_COST_KINDS}"
        )
    U = np.atleast_2d(np.asarray(unit_points, dtype=float))
    costs = np.asarray(costs, dtype=float)
    if costs.size < 1:
        raise DataError("need at least one cost observation")
    if np.any(costs <= 0) or not np.all(np.isfinite(costs)):
        raise DataError("costs must be positive and finite")
    min_samples, fit = _ONLINE_KINDS[kind]
    if len(costs) < min_samples:
        fit = _fit_constant
    warm_start = previous.gp if isinstance(previous, GPCost) else None
    return fit(U, np.log(costs), rng, warm_start)


def transfer_fit(
    space: SearchSpace,
    data: TransferDataset,
    kind: str,
) -> LinearCost:
    """Offline LV3 model pooled across tasks.

    ``task_aware`` appends log meta-features (rows, cols, log1p classes) as
    regressors, so predictions need the target task's meta-features;
    ``naive`` pools all samples and ignores task identity.
    """
    if kind not in ("task_aware", "naive"):
        raise ConfigError(f"unknown transfer kind {kind!r}")
    samples = [s for _, task_samples in data.tasks for s in task_samples]
    meta_cols = None
    if kind == "task_aware":
        meta_cols = np.array(
            [meta.to_regressors() for meta, task_samples in data.tasks for _ in task_samples]
        )
    U = unit_matrix(space, samples)
    logc = np.log([s.cost for s in samples])
    model = _fit_lv(U, logc, k=3, meta_cols=meta_cols)
    model.kind = f"transfer_{kind}"
    return model


def cost_rmse(
    model: CostModel,
    space: SearchSpace,
    test: Sequence[CostSample],
    meta: MetaFeatures | None = None,
) -> float:
    """Root-mean-squared error in log-cost space on held-out samples.

    ``meta`` is the test task's meta-features, for a transfer model.
    """
    if not test:
        raise DataError("need at least one test sample")
    U = unit_matrix(space, test)
    pred_log = model.predict_log_unit(U, meta) if meta else model.predict_log_unit(U)
    true_log = np.log([s.cost for s in test])
    return float(np.sqrt(np.mean((pred_log - true_log) ** 2)))


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------


def read_csv_rows(path: str | Path, columns: Sequence[str], build: Callable) -> list:
    """``build(row)`` of each data row of the CSV at ``path``, in file order.

    ``row`` is the row's dict of strings; every name in ``columns`` must be
    in the header. An empty file, a missing column or a file without data
    rows raises a DataError naming the path; a file that is not UTF-8 text, a
    row with fewer cells than the header, or a ``build`` that raises
    TypeError or ValueError, one naming the path and the file line.
    """
    raw = Path(path).read_bytes()
    try:
        text = raw.decode()
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}:{line}: not UTF-8 text: {exc}") from exc
    reader = csv.DictReader(io.StringIO(text, newline=""))
    if reader.fieldnames is None:
        raise DataError(f"{path}: empty file")
    missing = [n for n in columns if n not in reader.fieldnames]
    if missing:
        raise DataError(f"{path}: missing columns {missing}")
    built = []
    for row in reader:
        try:
            if None in row.values():
                raise ValueError("fewer cells than the header")
            built.append(build(row))
        except (TypeError, ValueError) as exc:
            # line_num counts the blank lines the reader skipped.
            raise DataError(f"{path}:{reader.line_num}: malformed row: {exc}") from exc
    if not built:
        raise DataError(f"{path}: no data rows")
    return built


def load_cost_csv(path: str | Path, space: SearchSpace) -> list[CostSample]:
    """Read cost samples: one column per dimension (native units), then `cost`."""

    def build(row: dict) -> CostSample:
        config = np.array([float(row[n]) for n in space.names])
        return CostSample(config=config, cost=float(row["cost"]))

    return read_csv_rows(path, space.names + ["cost"], build)
