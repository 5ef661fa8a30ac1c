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

import numpy as np

from .acquisition import CandidateSet, ei, front_indices, score_candidates
from .cost import CostModel
# gp_posterior_many stays a module attribute: perfbench/tracing.py wraps it here.
from .surrogate import GPModel, gp_posterior, gp_posterior_many  # noqa: F401


@dataclass(frozen=True)
class EIDecomposition:
    """Exact two-term split of EI_{t+1}(x) - EI_t(x)."""

    global_term: float  # incumbent shift, constant across the space
    local_term: float   # residual: surrogate-update effect at x
    exact_delta: float


@dataclass(frozen=True)
class PersistenceStat:
    """How much of a previous front survives re-scoring.

    ``rescored`` is the previous front under the new models (None when the
    stat is read back from a trace, which keeps only the counts).
    """

    survived: int
    total: int
    rescored: CandidateSet | None
    flags: tuple[bool, ...] = ()


def _ei_at(model: GPModel, x: np.ndarray, f_min: float) -> float:
    post = gp_posterior(model, x)
    return ei(post.mean, np.sqrt(post.variance), f_min)


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
    prev_front: CandidateSet,
    model_t1: GPModel,
    cost_model_t1: CostModel,
    y_min_t1: float,
    current_front: CandidateSet,
    cost_floor: float,
) -> PersistenceStat:
    """Survival of the previous front under the new models.

    Each previous front point is re-scored with the new surrogate and cost
    model, its predicted cost clamped at ``cost_floor`` as the current
    candidates' were; it survives if it is non-dominated within the union of the
    re-scored previous front and the current candidate front.
    """
    points = prev_front.points
    new = score_candidates(
        points, model_t1, cost_model_t1.predict_unit(points), y_min_t1, cost_floor
    )
    survivors = front_indices(
        np.concatenate([new.ei, current_front.ei]),
        np.concatenate([new.cost, current_front.cost]),
    )
    flags = tuple(np.isin(np.arange(len(new)), survivors).tolist())
    return PersistenceStat(survived=sum(flags), total=len(new), rescored=new, flags=flags)
