"""Instrumentation for the EI-cost front dynamics across iterations.

Two views of why the front moves between consecutive iterations:

- ``ei_decomposition`` splits the change in a point's EI into the incumbent
  shift (constant across the space) and a residual local term driven by the
  surrogate update. The two terms sum to the exact delta by construction.
- ``front_persistence`` re-scores the previous iteration's front under the
  new surrogate/cost models and counts how many points remain non-dominated
  against the current front.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .acquisition import Candidate, ei, front_indices, score_candidates
from .cost import CostModel
from .surrogate import GPModel, gp_posterior_many


@dataclass(frozen=True)
class EIDecomposition:
    """Exact two-term split of EI_{t+1}(x) - EI_t(x)."""

    global_term: float  # incumbent shift, constant across the space
    local_term: float   # residual: surrogate-update effect at x
    exact_delta: float


@dataclass(frozen=True)
class FrontSnapshot:
    """The non-dominated candidate set at one iteration."""

    iteration: int
    front: tuple[Candidate, ...]


@dataclass(frozen=True)
class PersistenceStat:
    """How much of a previous front survives re-scoring."""

    survived: int
    total: int
    rescored: tuple[tuple[tuple[float, float], tuple[float, float]], ...]
    flags: tuple[bool, ...] = ()


def _ei_at(model: GPModel, x: np.ndarray, f_min: float) -> float:
    means, variances = gp_posterior_many(model, np.asarray(x, float)[None, :])
    return float(ei(float(means[0]), float(np.sqrt(variances[0])), f_min))


def ei_decomposition(
    model_t: GPModel,
    model_t1: GPModel,
    y_min_t: float,
    y_min_t1: float,
    x: np.ndarray,
) -> EIDecomposition:
    """Split the EI change at ``x`` between iterations t and t+1.

    global_term is the incumbent difference y_min(t+1) - y_min(t);
    local_term is defined as the residual so that
    global_term + local_term == exact_delta exactly.
    """
    ei_t = _ei_at(model_t, x, y_min_t)
    ei_t1 = _ei_at(model_t1, x, y_min_t1)
    exact_delta = ei_t1 - ei_t
    global_term = y_min_t1 - y_min_t
    return EIDecomposition(
        global_term=global_term,
        local_term=exact_delta - global_term,
        exact_delta=exact_delta,
    )


def front_persistence(
    prev: FrontSnapshot,
    model_t1: GPModel,
    cost_model_t1: CostModel,
    y_min_t1: float,
    current_front: Sequence[Candidate],
    cost_floor: float,
) -> PersistenceStat:
    """Survival of the previous front under the new models.

    Each previous front point is re-scored with the new surrogate and cost
    model, its predicted cost clamped at ``cost_floor`` as the current
    candidates' were; it survives if it is non-dominated within the union of the
    re-scored previous front and the current candidate front.
    """
    old = prev.front
    points = np.array([c.point for c in old], dtype=float)
    new = score_candidates(
        points, model_t1, cost_model_t1.predict_unit(points), y_min_t1, cost_floor
    )
    union_ei = np.concatenate([new.ei, [c.ei for c in current_front]])
    union_cost = np.concatenate([new.cost, [c.cost_pred for c in current_front]])
    survivors = set(front_indices(union_ei, union_cost).tolist())
    flags = tuple(i in survivors for i in range(len(old)))
    rescored = tuple(
        ((c.ei, c.cost_pred), (float(e), float(k)))
        for c, e, k in zip(old, new.ei, new.cost)
    )
    return PersistenceStat(
        survived=sum(flags), total=len(old), rescored=rescored, flags=flags
    )
