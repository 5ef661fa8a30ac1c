"""Cost-aware acquisition functions and Pareto-front selection.

The family implemented here scores candidates in the (expected improvement,
predicted cost) plane:

- ``EI``                 plain expected improvement,
- ``EIpu``               EI per unit cost, EI(x) / c(x),
- ``EIAlpha(alpha)``     scalarization EI(x) / c(x)**alpha,
- ``EICool``             EIAlpha with alpha decaying from 1 to 0 as the
                         budget is consumed,
- ``CEI(lam)``           minimum predicted cost among candidates whose EI is
                         at least (1 - lam) times the maximum EI.

Selection happens over a finite candidate set (quasi-random points plus
local perturbations of past evaluations), which makes the per-iteration
EI-cost Pareto front an explicit, loggable object. Every selection rule
here picks a member of that front.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import ndtr, xlogy
from scipy.stats import qmc

from .errors import ConfigError, NumericError, UsageError
from .surrogate import GPModel, gp_posterior_many

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Candidate generation: the default quasi-random count, and the fixed local
# perturbations (count per past point, unit-cube sd); see generate_candidates().
DEFAULT_CANDIDATE_COUNT = 2048
PERTURBATIONS_PER_HISTORY_POINT = 10
PERTURBATION_SD = 0.05

# Scan grid for implied_alpha(): alpha = 0 plus a log-spaced sweep up to 8.
IMPLIED_ALPHA_GRID = np.concatenate(
    [[0.0], np.logspace(-3, math.log10(8.0), 120)]
)


@dataclass(frozen=True)
class EI:
    """Plain expected improvement."""


@dataclass(frozen=True)
class EIpu:
    """Expected improvement per unit cost."""


@dataclass(frozen=True)
class EIAlpha:
    """EI / cost**alpha with a fixed exponent."""

    alpha: float

    def __post_init__(self):
        if not (0.0 <= self.alpha < math.inf):
            raise ConfigError(f"alpha must be finite and >= 0, got {self.alpha}")


@dataclass(frozen=True)
class EICool:
    """EI / cost**alpha with alpha decaying from 1 to 0 over the budget.

    ``total_budget``/``init_budget`` may be left as None and resolved by the
    optimization loop (total from the run budget, init from the cost of the
    initial design).
    """

    total_budget: float | None = None
    init_budget: float | None = None

    def __post_init__(self):
        for name in ("total_budget", "init_budget"):
            value = getattr(self, name)
            if value is not None and not (0.0 < value < math.inf):
                raise ConfigError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class CEI:
    """Cost minimization constrained to near-maximal EI."""

    lam: float

    def __post_init__(self):
        if not (0.0 <= self.lam <= 1.0):
            raise ConfigError(f"lambda must be in [0, 1], got {self.lam}")


AcquisitionKind = EI | EIpu | EIAlpha | EICool | CEI


@dataclass(frozen=True)
class Candidate:
    """A proposed point scored with (EI, predicted cost)."""

    point: np.ndarray
    ei: float
    cost_pred: float


@dataclass(frozen=True)
class CandidateSet:
    """A scored candidate set as arrays: points (m, d), EI (m,), cost (m,).

    Both a scored set and its Pareto front are candidate sets. Indexing
    materializes one :class:`Candidate` with its own copy of the point; the
    selection rules read the arrays directly.
    """

    points: np.ndarray
    ei: np.ndarray
    cost: np.ndarray

    def __len__(self) -> int:
        return len(self.ei)

    def __getitem__(self, i: int) -> Candidate:
        return Candidate(
            point=self.points[i].copy(), ei=float(self.ei[i]), cost_pred=float(self.cost[i])
        )

    def subset(self, indices: np.ndarray) -> CandidateSet:
        """The members at ``indices``, in that order, as a new set."""
        return CandidateSet(
            points=self.points[indices], ei=self.ei[indices], cost=self.cost[indices]
        )


@dataclass
class SelectionResult:
    """Outcome of one acquisition step over a scored candidate set."""

    chosen: Candidate
    chosen_index: int
    front: CandidateSet
    candidates: CandidateSet
    threshold: float | None = None
    degenerate: bool = False


def ei(mu, sigma, f_min):
    """Expected improvement under a Gaussian posterior, minimization form.

    For sigma > 0 returns (f_min - mu) * Phi(z) + sigma * phi(z) with
    z = (f_min - mu) / sigma; for sigma = 0 the deterministic improvement
    max(0, f_min - mu). Accepts scalars or arrays; always nonnegative.
    """
    mu_arr = np.asarray(mu, dtype=float)
    sigma_arr = np.asarray(sigma, dtype=float)
    if not (
        np.all(np.isfinite(mu_arr))
        and np.all(np.isfinite(sigma_arr))
        and np.isfinite(f_min)
    ):
        raise NumericError("non-finite inputs to ei()")
    if np.any(sigma_arr < 0):
        raise NumericError("negative sigma in ei()")

    gap = f_min - mu_arr
    z = np.where(sigma_arr > 0, gap / np.where(sigma_arr > 0, sigma_arr, 1.0), 0.0)
    pdf = _INV_SQRT2PI * np.exp(-0.5 * z * z)
    cdf = ndtr(z)
    value = np.where(sigma_arr > 0, gap * cdf + sigma_arr * pdf, np.maximum(gap, 0.0))
    value = np.maximum(value, 0.0)
    if np.ndim(mu) == 0 and np.ndim(sigma) == 0:
        return float(value)
    return value


def ei_gradients(mu: float, sigma: float, f_min: float) -> tuple[float, float]:
    """Analytic (dEI/dmu, dEI/dsigma); requires sigma > 0."""
    if sigma <= 0:
        raise NumericError("ei_gradients requires sigma > 0")
    z = (f_min - mu) / sigma
    pdf = _INV_SQRT2PI * math.exp(-0.5 * z * z)
    cdf = 0.5 * (1.0 + math.erf(z * _INV_SQRT2))
    return -cdf, pdf


def ei_cool_alpha(total_budget: float, init_budget: float, spent: float) -> float:
    """Cooling exponent (total - spent) / (total - init), clamped to [0, 1]."""
    if total_budget <= init_budget:
        raise ConfigError(
            f"total budget ({total_budget}) must exceed init budget ({init_budget})"
        )
    alpha = (total_budget - spent) / (total_budget - init_budget)
    return min(max(alpha, 0.0), 1.0)


def front_indices(eis: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """Indices of the non-dominated points of a nonempty set, by cost, then index.

    A point is on the front when its EI is the largest at its cost and
    exceeds every EI at a strictly lower cost. Duplicates are all kept.
    """
    order = np.lexsort((-eis, costs))  # stable: equal keys keep index order
    e, c = eis[order], costs[order]
    new_group = np.empty(len(c), dtype=bool)
    new_group[0] = True
    np.not_equal(c[1:], c[:-1], out=new_group[1:])
    group = np.cumsum(new_group) - 1
    head = e[new_group]  # each cost group's largest EI
    best_cheaper = np.empty_like(head)
    best_cheaper[0] = -math.inf
    np.maximum.accumulate(head[:-1], out=best_cheaper[1:])
    on_front = (head > best_cheaper)[group] & (e == head[group])
    return order[on_front]


def pareto_front(cands: CandidateSet) -> CandidateSet:
    """Non-dominated candidates, sorted by ascending predicted cost.

    Duplicates (identical cost and EI) are all retained.
    """
    if not len(cands):
        raise UsageError("pareto_front needs at least one candidate")
    return cands.subset(front_indices(cands.ei, cands.cost))


def _effective_alpha(kind: AcquisitionKind, spent: float) -> float:
    """Cost exponent implied by an EI-family acquisition kind."""
    if isinstance(kind, EI):
        return 0.0
    if isinstance(kind, EIpu):
        return 1.0
    if isinstance(kind, EIAlpha):
        return kind.alpha
    if isinstance(kind, EICool):
        if kind.total_budget is None or kind.init_budget is None:
            raise ConfigError("EICool budgets not resolved")
        return ei_cool_alpha(kind.total_budget, kind.init_budget, spent)
    raise UsageError(f"{kind!r} has no pointwise cost exponent")


def _log_scores(front: CandidateSet, alpha) -> np.ndarray:
    """log EI - alpha log cost: -inf at zero EI, and exactly log EI at alpha 0."""
    with np.errstate(divide="ignore"):  # log(0) is -inf
        log_ei = np.log(front.ei)
    return log_ei - xlogy(alpha, front.cost)


def _first_copy(cands: CandidateSet, ei: float, cost: float) -> int:
    """Lowest index of a candidate with this (EI, cost) pair."""
    return int(np.argmax((cands.ei == ei) & (cands.cost == cost)))


def _selection(
    cands: CandidateSet, front: CandidateSet, position: int, threshold: float | None
) -> SelectionResult:
    """The result that chooses front member ``position``, as its first copy in ``cands``."""
    index = _first_copy(cands, front.ei[position], front.cost[position])
    return SelectionResult(
        chosen=cands[index],
        chosen_index=index,
        front=front,
        candidates=cands,
        threshold=threshold,
        degenerate=bool(np.max(front.ei) <= 0.0),
    )


def cei_select(cands: CandidateSet, lam: float) -> SelectionResult:
    """Cheapest front member with EI >= (1 - lam) * max EI.

    It is the minimum-cost candidate among those over the threshold, with
    cost ties to the higher EI, then to the lower index.
    """
    if not (0.0 <= lam <= 1.0):
        raise ConfigError(f"lambda must be in [0, 1], got {lam}")
    front = pareto_front(cands)
    threshold = (1.0 - lam) * float(np.max(front.ei))
    return _selection(cands, front, int(np.argmax(front.ei >= threshold)), threshold)


def select(kind: AcquisitionKind, cands: CandidateSet, spent: float = 0.0) -> SelectionResult:
    """Apply an acquisition rule to an already-scored candidate set.

    Every rule picks a position on the front, which is ordered by cost, then
    by falling EI, then by index. The EI-family rules take the first maximum
    of ``log EI - alpha log cost``, so ties go to the lower cost, then to the
    higher EI, then to the lower index.
    """
    if isinstance(kind, CEI):
        return cei_select(cands, kind.lam)
    front = pareto_front(cands)
    scores = _log_scores(front, _effective_alpha(kind, spent))
    return _selection(cands, front, int(np.argmax(scores)), None)


def generate_candidates(
    dim: int,
    history_points: np.ndarray | None,
    candidate_count: int,
    rng: np.random.Generator,
    candidate_pool: np.ndarray | None = None,
) -> np.ndarray:
    """Candidate set: quasi-random points plus local history perturbations.

    When ``candidate_pool`` is given (tabular replay), candidates are drawn
    from the pool instead, so proposals always land on recorded rows.
    """
    if candidate_count < 1:
        raise ConfigError(f"candidate_count must be >= 1, got {candidate_count}")
    if candidate_pool is not None:
        pool = np.atleast_2d(np.asarray(candidate_pool, dtype=float))
        if pool.shape[0] <= candidate_count:
            return pool.copy()
        idx = rng.choice(pool.shape[0], size=candidate_count, replace=False)
        return pool[np.sort(idx)]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # non-power-of-two draws
        sobol = qmc.Sobol(d=dim, scramble=True, seed=rng)
        cands = sobol.random(candidate_count)
    if history_points is not None and len(history_points) > 0:
        hist = np.atleast_2d(np.asarray(history_points, dtype=float))
        shape = (hist.shape[0], PERTURBATIONS_PER_HISTORY_POINT, dim)
        noise = rng.normal(0.0, PERTURBATION_SD, size=shape)
        local = np.clip(hist[:, None, :] + noise, 0.0, 1.0).reshape(-1, dim)
        cands = np.vstack([cands, local])
    return cands


def cost_floor_for(observed_costs: np.ndarray) -> float:
    """Lower clamp for predicted costs: max(1e-6, 0.01 * min observed cost).

    The clamp avoids the divide-by-vanishing-cost pathology of
    cost-normalized acquisitions; 1e-6 before any cost is observed.
    """
    if len(observed_costs) == 0:
        return 1e-6
    return max(1e-6, 0.01 * float(np.min(observed_costs)))


def score_candidates(
    points: np.ndarray,
    model: GPModel,
    cost_predictions: np.ndarray,
    f_min: float,
    cost_floor: float,
) -> CandidateSet:
    """Score unit-cube points with (EI, clamped predicted cost)."""
    means, variances = gp_posterior_many(model, points)
    return CandidateSet(
        points=points,
        ei=ei(means, np.sqrt(variances), f_min),
        cost=np.maximum(np.asarray(cost_predictions, dtype=float), cost_floor),
    )


def propose(
    kind: AcquisitionKind,
    model: GPModel,
    cost_model,
    history_points: np.ndarray,
    history_targets: np.ndarray,
    cost_floor: float,
    candidate_count: int,
    rng: np.random.Generator,
    spent: float = 0.0,
    candidate_pool: np.ndarray | None = None,
) -> SelectionResult:
    """One acquisition step: generate, score, and select a candidate.

    ``cost_model`` must expose ``predict_unit(points) -> costs`` over unit
    coordinates. Predicted costs are clamped below at ``cost_floor`` (see
    :func:`cost_floor_for`).
    """
    points = generate_candidates(
        model.train_inputs.shape[1], history_points, candidate_count, rng, candidate_pool
    )
    f_min = float(np.min(history_targets))
    cost_pred = cost_model.predict_unit(points)
    cands = score_candidates(points, model, cost_pred, f_min, cost_floor)
    return select(kind, cands, spent)


# Encoded name of each acquisition kind; its other keys are the class's fields.
_KIND_CLASSES: dict[str, type] = {
    "ei": EI,
    "eipu": EIpu,
    "ei_alpha": EIAlpha,
    "ei_cool": EICool,
    "cei": CEI,
}
_KIND_NAMES = {cls: name for name, cls in _KIND_CLASSES.items()}


def kind_to_dict(kind: AcquisitionKind) -> dict:
    """JSON-friendly encoding of an acquisition kind."""
    if type(kind) not in _KIND_NAMES:
        raise ConfigError(f"unknown acquisition kind {kind!r}")
    return {"kind": _KIND_NAMES[type(kind)], **asdict(kind)}


def kind_from_dict(payload: dict) -> AcquisitionKind:
    """Inverse of :func:`kind_to_dict`."""
    fields = dict(payload)
    cls = _KIND_CLASSES.get(fields.pop("kind", None))
    if cls is None:
        raise ConfigError(f"unknown acquisition kind {payload!r}")
    try:
        return cls(**fields)
    except TypeError as err:
        raise ConfigError(f"bad acquisition fields {payload!r}: {err}") from None


def parse_kind(text: str) -> AcquisitionKind:
    """Parse CLI notation: ei, eipu, alpha:0.5, cei:0.25, ei-cool[:TOTAL[:INIT]].

    Any bad notation or parameter is a ConfigError naming ``text``.
    """
    name, *parts = text.strip().lower().split(":")
    try:
        return _kind_of(name, [float(v) for v in parts])
    except ValueError as err:  # ConfigError included
        raise ConfigError(f"acquisition {text!r}: {err}") from None


def _kind_of(name: str, values: list[float]) -> AcquisitionKind:
    if name in ("ei", "eipu"):
        if values:
            raise ConfigError(f"{name} takes no parameters")
        return EI() if name == "ei" else EIpu()
    if name in ("alpha", "ei-alpha", "ei_alpha"):
        if len(values) != 1:
            raise ConfigError("expected alpha:<value>")
        return EIAlpha(alpha=values[0])
    if name == "cei":
        if len(values) != 1:
            raise ConfigError("expected cei:<lambda>")
        return CEI(lam=values[0])
    if name in ("ei-cool", "ei_cool", "cool"):
        if len(values) > 2:
            raise ConfigError("expected ei-cool[:TOTAL[:INIT]]")
        total = values[0] if len(values) > 0 else None
        init = values[1] if len(values) > 1 else None
        return EICool(total_budget=total, init_budget=init)
    raise ConfigError("unknown acquisition kind")


def kind_id(kind: AcquisitionKind) -> str:
    """Compact identifier used in file names and tables."""
    if isinstance(kind, EI):
        return "ei"
    if isinstance(kind, EIpu):
        return "eipu"
    if isinstance(kind, EIAlpha):
        return f"alpha{kind.alpha:g}"
    if isinstance(kind, EICool):
        return "ei-cool"
    if isinstance(kind, CEI):
        return f"cei{kind.lam:g}"
    raise ConfigError(f"unknown acquisition kind {kind!r}")


def implied_alpha(sel: SelectionResult) -> float | None:
    """Exponent that EIAlpha would have needed to pick the same candidate.

    Scores the front once per grid value (0 plus log-spaced values up to 8),
    as one matrix with ``select``'s score and tie-break, finds the first
    longest run of consecutive grid values whose choice is the selection's,
    and returns that run's midpoint. None when no grid value reproduces the
    choice, as for a candidate off the front or a later copy of one on it.
    """
    front, chosen = sel.front, sel.chosen
    if _first_copy(sel.candidates, chosen.ei, chosen.cost_pred) != sel.chosen_index:
        return None
    winners = np.argmax(_log_scores(front, IMPLIED_ALPHA_GRID[:, None]), axis=-1)
    hits = np.flatnonzero(
        (front.ei[winners] == chosen.ei) & (front.cost[winners] == chosen.cost_pred)
    )
    if not len(hits):
        return None
    run = max(np.split(hits, np.flatnonzero(np.diff(hits) > 1) + 1), key=len)
    lo, hi = IMPLIED_ALPHA_GRID[run[0]], IMPLIED_ALPHA_GRID[run[-1]]
    return float(0.5 * (lo + hi))
