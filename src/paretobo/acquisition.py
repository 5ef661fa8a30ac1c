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

import functools
import math
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np
import scipy
from scipy.special import ndtr, xlogy

from .errors import ConfigError, NumericError, UsageError
from .surrogate import GPModel, gp_posterior_many

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Candidate generation: the default quasi-random count, and the fixed local
# perturbations (count per past point, unit-cube sd); see generate_candidates().
DEFAULT_CANDIDATE_COUNT = 2048
PERTURBATIONS_PER_HISTORY_POINT = 10
PERTURBATION_SD = 0.05

# Scrambled Sobol points carry 30 bits, so at most 2**30 distinct points, and
# the direction-number table covers 21201 dimensions (see _sobol()).
SOBOL_BITS = 30
SOBOL_MAX_DIM = 21201
MAX_CANDIDATE_COUNT = 2**SOBOL_BITS

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


def cei_select(cands: CandidateSet, lam: float) -> SelectionResult:
    """``select(CEI(lam), cands)``: the cheapest front member with EI >= (1 - lam) * max EI."""
    return select(CEI(lam), cands)


def select(kind: AcquisitionKind, cands: CandidateSet, spent: float = 0.0) -> SelectionResult:
    """Apply an acquisition rule to an already-scored candidate set.

    Every rule picks a position on the front, which is ordered by cost, then
    by falling EI, then by index, and the result is that member's first copy
    in ``cands``. CEI takes the first member whose EI reaches its threshold.
    The EI-family rules take the first maximum of ``log EI - alpha log
    cost``, so ties go to the lower cost, then to the higher EI, then to the
    lower index.
    """
    front = pareto_front(cands)
    threshold = None
    if isinstance(kind, CEI):
        threshold = (1.0 - kind.lam) * float(np.max(front.ei))
        position = int(np.argmax(front.ei >= threshold))
    else:
        position = int(np.argmax(_log_scores(front, _effective_alpha(kind, spent))))
    index = _first_copy(cands, front.ei[position], front.cost[position])
    return SelectionResult(
        chosen=cands[index],
        chosen_index=index,
        front=front,
        candidates=cands,
        threshold=threshold,
        degenerate=bool(np.max(front.ei) <= 0.0),
    )


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
    if not 1 <= candidate_count <= MAX_CANDIDATE_COUNT:
        raise ConfigError(
            f"candidate_count must be in [1, {MAX_CANDIDATE_COUNT}], got {candidate_count}"
        )
    if not 1 <= dim <= SOBOL_MAX_DIM:
        raise ConfigError(f"dim must be in [1, {SOBOL_MAX_DIM}], got {dim}")
    if candidate_pool is not None:
        pool = np.atleast_2d(np.asarray(candidate_pool, dtype=float))
        if pool.shape[0] <= candidate_count:
            return pool.copy()
        idx = rng.choice(pool.shape[0], size=candidate_count, replace=False)
        return pool[np.sort(idx)]

    cands = _sobol(dim, candidate_count, rng)
    if history_points is not None and len(history_points) > 0:
        hist = np.atleast_2d(np.asarray(history_points, dtype=float))
        shape = (hist.shape[0], PERTURBATIONS_PER_HISTORY_POINT, dim)
        noise = rng.normal(0.0, PERTURBATION_SD, size=shape)
        local = np.clip(hist[:, None, :] + noise, 0.0, 1.0).reshape(-1, dim)
        cands = np.vstack([cands, local])
    return cands


@functools.cache
def _sobol_table() -> tuple[np.ndarray, np.ndarray]:
    """Joe & Kuo's primitive polynomials and initial direction numbers.

    Read from the file scipy ships them in, by path, so that scipy.stats
    is never imported.
    """
    path = Path(scipy.__file__).parent / "stats" / "_sobol_direction_numbers.npz"
    with np.load(path) as table:
        poly, vinit = table["poly"], table["vinit"]
    poly.flags.writeable = vinit.flags.writeable = False  # shared by every caller
    return poly, vinit


@functools.cache
def _sobol_directions(dim: int) -> np.ndarray:
    """Unscrambled direction numbers (dim, 30), column j shifted left by 29 - j."""
    poly_all, vinit = _sobol_table()
    poly = poly_all[:dim]
    degree = np.frexp(poly)[1] - 1
    # Row 0 is all ones; row d starts from its first degree[d] initial
    # numbers and follows its polynomial's recurrence after them.
    v = np.zeros((dim, SOBOL_BITS), dtype=np.int64)
    given = np.arange(vinit.shape[1]) < degree[:, None]
    v[:, : vinit.shape[1]] = np.where(given, vinit[:dim], 0)
    v[0] = 1
    for j in range(SOBOL_BITS):
        r = np.flatnonzero(j >= degree)
        m, p = degree[r], poly[r]
        new = v[r, j - m]
        for k in range(int(m.max())):
            # Coefficient k of the polynomial, read from its top bit down.
            on = (k < m) & ((p >> np.maximum(m - 1 - k, 0)) & 1).astype(bool)
            new ^= np.where(on, v[r, np.maximum(j - k - 1, 0)] << (k + 1), 0)
        v[r, j] = new
    directions = (v << np.arange(SOBOL_BITS - 1, -1, -1)).astype(np.uint32)
    directions.flags.writeable = False  # shared by every caller
    return directions


def _sobol(dim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """The first ``n`` points of a scrambled Sobol sequence, shape (n, dim).

    Bit-identical to ``scipy.stats.qmc.Sobol(dim, scramble=True,
    seed=rng).random(n)``: Joe & Kuo's direction numbers (SIAM J. Sci.
    Comput. 30(5), 2008), Matousek's linear matrix scramble plus a digital
    shift (J. Complexity 14, 1998), drawn from one spawned child of ``rng``
    (so ``rng``'s own stream is left as it was), and points in Gray-code
    order.
    """
    child = rng.spawn(1)[0]
    shift = np.dot(
        child.integers(2, size=(dim, SOBOL_BITS), dtype=np.uint32),
        2 ** np.arange(SOBOL_BITS, dtype=np.uint32),
    )
    ltm = np.tril(child.integers(2, size=(dim, SOBOL_BITS, SOBOL_BITS), dtype=np.uint32))
    diag = np.arange(SOBOL_BITS)
    ltm[:, diag, diag] = 1
    # Scramble only the columns the n points use: bit 29 - p of a scrambled
    # direction number is the GF(2) product of ltm's row p with its bits.
    cols = int(n - 1).bit_length()
    msb_first = np.arange(SOBOL_BITS - 1, -1, -1, dtype=np.uint32)
    bits = (_sobol_directions(dim)[:, :cols, None] >> msb_first) & 1
    scrambled = ((bits @ ltm.transpose(0, 2, 1)) & 1) << msb_first
    directions = scrambled.sum(axis=2, dtype=np.uint32)
    # Gray-code order: points 2**b .. 2**(b+1) - 1 are the points before them
    # in reverse, XORed with direction b.
    quasi = np.empty((n, dim), dtype=np.uint32)
    quasi[0] = shift
    for b in range(cols):
        half = 1 << b
        count = min(half, n - half)
        quasi[half : half + count] = quasi[half - count : half][::-1] ^ directions[:, b]
    return quasi * (1.0 / 2**SOBOL_BITS)


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
    history_targets: np.ndarray,
    cost_floor: float,
    candidate_count: int,
    rng: np.random.Generator,
    spent: float = 0.0,
    candidate_pool: np.ndarray | None = None,
) -> SelectionResult:
    """One acquisition step: generate, score, and select a candidate.

    The local perturbations are of the model's training inputs.
    ``cost_model`` must expose ``predict_unit(points) -> costs`` over unit
    coordinates. Predicted costs are clamped below at ``cost_floor`` (see
    :func:`cost_floor_for`).
    """
    history = model.train_inputs
    points = generate_candidates(history.shape[1], history, candidate_count, rng, candidate_pool)
    f_min = float(np.min(history_targets))
    cost_pred = cost_model.predict_unit(points)
    cands = score_candidates(points, model, cost_pred, f_min, cost_floor)
    return select(kind, cands, spent)


# Each kind's encoded name, then the names its CLI notation accepts; the
# first CLI name also starts its compact id. The encoding's other keys, and
# the values after a CLI name, are the class's fields in order.
KINDS: dict[type, tuple[str, tuple[str, ...]]] = {
    EI: ("ei", ("ei",)),
    EIpu: ("eipu", ("eipu",)),
    EIAlpha: ("ei_alpha", ("alpha", "ei-alpha", "ei_alpha")),
    EICool: ("ei_cool", ("ei-cool", "ei_cool", "cool")),
    CEI: ("cei", ("cei",)),
}


def kind_to_dict(kind: AcquisitionKind) -> dict:
    """JSON-friendly encoding of an acquisition kind."""
    return {"kind": KINDS[type(kind)][0], **asdict(kind)}


def kind_from_dict(payload: dict) -> AcquisitionKind:
    """Inverse of :func:`kind_to_dict`."""
    values = dict(payload)
    name = values.pop("kind", None)
    cls = next((cls for cls, (code, _) in KINDS.items() if code == name), None)
    if cls is None:
        raise ConfigError(f"unknown acquisition kind {payload!r}")
    try:
        return cls(**values)
    except TypeError as err:
        raise ConfigError(f"bad acquisition fields {payload!r}: {err}") from None


def parse_kind(text: str) -> AcquisitionKind:
    """Parse CLI notation: ei, eipu, alpha:0.5, cei:0.25, ei-cool[:TOTAL[:INIT]].

    The values after the name are the kind's fields, in order. Any bad
    notation or parameter is a ConfigError naming ``text``.
    """
    name, *parts = text.strip().lower().split(":")
    cls = next((cls for cls, (_, cli) in KINDS.items() if name in cli), None)
    try:
        if cls is None:
            raise ConfigError("unknown acquisition kind")
        return cls(*[float(v) for v in parts])
    except (ValueError, TypeError) as err:  # ConfigError included
        raise ConfigError(f"acquisition {text!r}: {err}") from None


def kind_id(kind: AcquisitionKind) -> str:
    """Compact identifier used in file names and tables.

    The kind's first CLI name, then the values of its fields that have no
    default: ``alpha0.3``, ``cei0.5``, and plain ``ei-cool``.
    """
    values = [getattr(kind, f.name) for f in fields(kind) if f.default is MISSING]
    return KINDS[type(kind)][1][0] + "".join(f"{v:g}" for v in values)


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
