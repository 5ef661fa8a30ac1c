"""Gaussian process regression over the unit cube.

Matern-5/2 kernel with per-dimension (ARD) lengthscales, a constant mean
and Gaussian observation noise. Targets are standardized to zero mean and
unit variance before fitting; posteriors are reported in native units.

Hyperparameters are obtained by multi-start bounded quasi-Newton (L-BFGS-B)
maximization of the log marginal likelihood, parameterized as
``theta = [log signal_variance, log lengthscale_1..d, log noise_variance,
mean_constant]`` with analytic gradients. A fit warm-started from a previous
model runs its random starts only when that warm start has gone stale, and
stops L-BFGS-B from the warm start at a looser tolerance than the others.

L-BFGS-B is scipy's compiled routine, driven here through its private entry
point ``scipy.optimize._lbfgsb.setulb`` rather than through
``scipy.optimize.minimize``, whose per-evaluation wrappers cost about as much
as a small MLL evaluation. ``minimize`` below reproduces scipy's iterates and
evaluation count bit for bit; ``tests/test_surrogate.py`` checks it against
scipy's own ``minimize`` and fails if a scipy release changes ``setulb``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs
from scipy.optimize import _lbfgsb

from .errors import ConfigError, DataError, ModelError, NumericError

SQRT5 = math.sqrt(5.0)

# Optimizer bounds in theta space.
LOG_SIGNAL_BOUNDS = (math.log(1e-4), math.log(1e4))
LOG_LENGTHSCALE_BOUNDS = (math.log(1e-3), math.log(1e3))
LOG_NOISE_BOUNDS = (math.log(1e-8), math.log(1e2))
MEAN_BOUNDS = (-5.0, 5.0)

# L-BFGS-B iteration cap per start of a hyperparameter fit.
LBFGS_MAXITER = 60

# scipy's L-BFGS-B defaults: relative reduction of f per iteration below
# which it stops (``ftol``), projected-gradient tolerance, number of stored
# corrections and line-search steps per iteration.
LBFGS_FTOL = 2.2204460492503131e-09
LBFGS_PGTOL = 1e-5
LBFGS_MEMORY = 10
LBFGS_MAXLS = 20

# ``setulb``'s task codes: evaluate f and g at x, a new iterate, and stop
# because the iteration limit is reached.
_TASK_FG, _TASK_NEW_X = 3, 1
_TASK_STOP_MAXITER = (5, 504)

# Relative MLL improvement per iteration below which L-BFGS-B from a warm
# start stops (scipy's ``ftol``). A warm start is usually near its optimum,
# where scipy's default of 2.2e-9 spends many evaluations on gains far below
# a nat; the default start and the random starts keep that default
# (LBFGS_FTOL).
WARM_LBFGS_FTOL = 1e-6

# A warm start is stale, so a fit runs its random starts too, when L-BFGS-B
# from it gains more than STALE_GAIN_PER_POINT nats of MLL per training
# point, ends more than STALE_DROP_PER_POINT nats per point below the
# warm-start model's own MLL per point, or ends less than
# STALE_GAIN_PER_POINT per point above WHITE_NOISE_MLL_PER_POINT.
STALE_GAIN_PER_POINT = 0.01
STALE_DROP_PER_POINT = 0.02

# MLL per point of standardized targets under independent unit-variance
# noise: the best fit of a model that sees no correlation, such as one with
# every lengthscale at its lower bound. L-BFGS-B from there barely moves.
WHITE_NOISE_MLL_PER_POINT = -0.5 * (1.0 + math.log(2.0 * math.pi))

# Diagonal jitter escalation on Cholesky failure.
JITTERS = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)

# Cells (rows times training points) of one cross-kernel block: 128 KiB of
# float64, so a block and its two scratch arrays fit in a 2 MiB L2 cache.
KERNEL_BLOCK_CELLS = 16384

# LAPACK Cholesky factorization, Cholesky solve, triangular inverse and
# triangular solve, and the BLAS product A^T A, looked up once. The MLL forms
# K^-1 = L^-T L^-1 by trtri and syrk rather than potri, whose L^T L step
# (OpenBLAS's lauum) gives other bits under more than one BLAS thread.
_POTRF, _POTRS, _TRTRI, _TRTRS = get_lapack_funcs(
    ("potrf", "potrs", "trtri", "trtrs"), dtype=np.float64
)
(_SYRK,) = get_blas_funcs(("syrk",), dtype=np.float64)
_SETULB = _lbfgsb.setulb


@dataclass(frozen=True)
class KernelParams:
    """Kernel hyperparameters in standardized-target space."""

    signal_variance: float
    lengthscales: np.ndarray
    noise_variance: float
    mean_constant: float = 0.0

    def __post_init__(self):
        object.__setattr__(
            self, "lengthscales", np.asarray(self.lengthscales, dtype=float)
        )
        if self.signal_variance <= 0:
            raise DataError("signal_variance must be positive")
        if np.any(self.lengthscales <= 0):
            raise DataError("lengthscales must be positive")
        if self.noise_variance < 0:
            raise DataError("noise_variance must be nonnegative")

    def to_theta(self) -> np.ndarray:
        return np.concatenate(
            [
                [math.log(self.signal_variance)],
                np.log(self.lengthscales),
                [math.log(max(self.noise_variance, 1e-12)), self.mean_constant],
            ]
        )

    @classmethod
    def from_theta(cls, theta: np.ndarray, dim: int) -> "KernelParams":
        return cls(
            signal_variance=math.exp(theta[0]),
            lengthscales=np.exp(theta[1 : 1 + dim]),
            noise_variance=math.exp(theta[1 + dim]),
            mean_constant=float(theta[2 + dim]),
        )


@dataclass(frozen=True)
class Posterior:
    """Predictive mean/variance in native target units."""

    mean: float
    variance: float


@dataclass
class GPModel:
    """Fitted GP: training data, hyperparameters and cached factorization."""

    train_inputs: np.ndarray
    train_targets_std: np.ndarray
    params: KernelParams
    target_mean: float
    target_std: float
    degenerate_targets: bool
    chol: np.ndarray = field(repr=False, default=None)
    alpha: np.ndarray = field(repr=False, default=None)
    jitter: float = 0.0
    fit_info: dict = field(default_factory=dict)

    @property
    def n_train(self) -> int:
        return self.train_inputs.shape[0]


def _matern52(
    scaled_sq: np.ndarray,
    signal_variance: float,
    scratch: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Matern-5/2 values from squared lengthscale-scaled distances, into ``out``.

    Works in place: ``scaled_sq`` is overwritten (it ends holding exp(-s))
    and ``scratch``, an array of the same shape, is used as a temporary.
    The operations are those of ``sv * (1 + s + s*s/3) * exp(-s)``, in order,
    with ``s = sqrt(5 * scaled_sq)`` taken as ``sqrt(scaled_sq) * sqrt(5)``.
    ``scaled_sq`` is a sum of squares, so it is never negative, and a NaN
    in it stays NaN.
    """
    s = np.sqrt(scaled_sq, out=scaled_sq)
    s *= SQRT5
    k = np.add(s, 1.0, out=out)
    np.multiply(s, s, out=scratch)
    scratch /= 3.0
    k += scratch
    k *= signal_variance
    np.negative(s, out=s)
    np.exp(s, out=s)
    k *= s
    return k


def _fill_cross_kernel(
    X1: np.ndarray,
    X2: np.ndarray,
    params: KernelParams,
    out: np.ndarray,
    work: np.ndarray,
) -> np.ndarray:
    """Kernel between ``X1`` (m, d) and ``X2`` (n, d), written into ``out``.

    ``work`` holds two scratch arrays of ``out``'s shape.
    """
    # Sum the scaled squared distance one dimension at a time, in dimension
    # order, instead of building the (m, n, d) difference tensor. The first
    # dimension starts the sum; the others share one difference buffer. A
    # column of X1 against a row of X2 broadcasts to the outer difference.
    lengthscales = params.lengthscales
    scaled_sq, diff = work
    np.subtract(X1[:, :1], X2[:, 0], out=scaled_sq)
    scaled_sq /= lengthscales[0]
    scaled_sq *= scaled_sq
    for k in range(1, len(lengthscales)):
        np.subtract(X1[:, k : k + 1], X2[:, k], out=diff)
        diff /= lengthscales[k]
        diff *= diff
        scaled_sq += diff
    return _matern52(scaled_sq, params.signal_variance, diff, out)


def _cross_kernel(X1: np.ndarray, X2: np.ndarray, params: KernelParams) -> np.ndarray:
    """Kernel matrix (m, n) between ``X1`` (m, d) and ``X2`` (n, d)."""
    out = np.empty((X1.shape[0], X2.shape[0]))
    return _fill_cross_kernel(X1, X2, params, out, np.empty((2, *out.shape)))


def _factorize(K: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of ``K`` with escalating diagonal jitter.

    Returns the factor, a new array whose strict upper triangle is zero, and
    the jitter that made ``K`` positive definite; ``K`` is left as it is.
    Raises NumericError on a non-finite ``K`` and ModelError when the last
    jitter still fails.
    """
    if not np.isfinite(K).all():
        raise NumericError("kernel matrix has non-finite entries")
    for jitter in JITTERS:
        if jitter:
            K_jit = K.copy()
            K_jit[np.diag_indices_from(K_jit)] += jitter
        else:
            K_jit = K
        chol, info = _POTRF(K_jit, lower=1, clean=1)
        if info == 0:
            return chol, jitter
    raise ModelError(
        f"kernel factorization failed at jitter {JITTERS[-1]}: "
        f"{info}-th leading minor of the array is not positive definite"
    )


def _standardize(y: np.ndarray) -> tuple[np.ndarray, float, float, bool]:
    mean = float(np.mean(y))
    std = float(np.std(y))
    if std < 1e-12:
        return np.zeros_like(y), mean, 1.0, True
    # Rounding canonicalizes the standardized targets so that affine
    # re-scalings of y (unit changes) produce bit-identical fits.
    return np.round((y - mean) / std, 12), mean, std, False


def _training_data(X, y) -> tuple[np.ndarray, np.ndarray]:
    """``X`` (n, d) and ``y`` (n,) as float arrays, else a DataError."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0] or y.shape[0] < 1:
        raise DataError(f"bad training shapes X={X.shape} y={y.shape}")
    if not np.all(np.isfinite(y)):
        raise DataError("non-finite training targets")
    if not np.all(np.isfinite(X)):
        raise DataError("non-finite training inputs")
    return X, y


def build_model(X: np.ndarray, y: np.ndarray, params: KernelParams) -> GPModel:
    """Assemble a GPModel with given hyperparameters (no fitting)."""
    X, y = _training_data(X, y)
    y_std, t_mean, t_std, degenerate = _standardize(y)
    K = _cross_kernel(X, X, params)
    K[np.diag_indices_from(K)] += params.noise_variance
    chol, jitter = _factorize(K)
    alpha, _ = _POTRS(chol, y_std - params.mean_constant, lower=1)
    return GPModel(
        train_inputs=X,
        train_targets_std=y_std,
        params=params,
        target_mean=t_mean,
        target_std=t_std,
        degenerate_targets=degenerate,
        chol=chol,
        alpha=alpha,
        jitter=jitter,
    )


class _MLLWorkspace:
    """Scratch arrays for the MLL evaluations of one fit on n points.

    One workspace serves every evaluation of a ``gp_fit`` call; each
    evaluation overwrites all of it, so no value carries over between them.
    ``upper`` marks the strict upper triangle; ``s_flat`` and ``base_flat``
    are ``s`` and ``base`` as vectors, and ``base_diag`` is ``base``'s
    diagonal, all views made once.
    """

    def __init__(self, n: int):
        self.upper = np.triu(np.ones((n, n), dtype=bool), 1)
        self.s, self.exp_neg_s, self.one_plus_s, self.kf, self.base = np.empty(
            (5, n, n)
        )
        self.s_flat = self.s.reshape(-1)
        self.base_flat = self.base.reshape(-1)
        self.base_diag = self.base_flat[:: n + 1]


def _mll_value_and_grad(
    theta: np.ndarray,
    X: np.ndarray,
    y_std: np.ndarray,
    sq_diffs: np.ndarray,
    work: _MLLWorkspace | None = None,
) -> tuple[float, np.ndarray]:
    """Log marginal likelihood and its gradient w.r.t. theta.

    ``sq_diffs`` is the precomputed (d, n, n) tensor of per-dimension squared
    coordinate differences, or the same flattened to (d, n*n) as ``gp_fit``
    passes it, and ``work`` the scratch arrays (built here when not given).
    Gradients use the standard trace identity
    dMLL/dp = 0.5 tr((aa^T - K^{-1}) dK/dp) with a = K^{-1}(y - m), and
    K^{-1} = L^{-T} L^{-1} comes from the Cholesky factor L. Every step runs
    in place, in the order of the plain expressions in the comments, so the
    results are bit for bit those of the expressions.
    """
    n, d = X.shape
    if work is None:
        work = _MLLWorkspace(n)
    if sq_diffs.ndim == 3:
        sq_diffs = sq_diffs.reshape(d, -1)
    sv = math.exp(theta[0])
    ls = np.exp(theta[1 : 1 + d])
    nv = math.exp(theta[1 + d])
    m = theta[2 + d]

    # s = sqrt(5) * sqrt(sum_i sq_diffs_i / ls_i^2); the sum of nonnegative
    # terms is nonnegative.
    inv_ls_sq = 1.0 / (ls * ls)
    s = work.s
    np.matmul(inv_ls_sq, sq_diffs, out=work.s_flat)
    np.sqrt(s, out=s)
    s *= SQRT5
    # Kf = sv * (1 + s + s*s/3) * exp(-s)
    exp_neg_s = np.negative(s, out=work.exp_neg_s)
    np.exp(exp_neg_s, out=exp_neg_s)
    one_plus_s = np.add(s, 1.0, out=work.one_plus_s)
    Kf = np.multiply(s, s, out=work.kf)
    Kf /= 3.0
    Kf += one_plus_s
    Kf *= sv
    Kf *= exp_neg_s
    # K = Kf + nv I, held in base's buffer until the factorization copies it.
    K = work.base
    np.copyto(K, Kf)
    work.base_diag += nv

    chol, _ = _factorize(K)
    resid = y_std - m
    a, _ = _POTRS(chol, resid, lower=1)
    log_det = 2.0 * np.log(chol.diagonal()).sum()
    mll = -0.5 * float(resid @ a) - 0.5 * log_det - 0.5 * n * math.log(2.0 * math.pi)

    # L^-1 over the factor, whose strict upper triangle is zero and stays
    # zero; syrk sets the lower triangle of L^-T L^-1, mirrored upward.
    L_inv, _ = _TRTRI(chol, lower=1, overwrite_c=1)
    K_inv = _SYRK(1.0, L_inv, trans=1, lower=1)
    np.copyto(K_inv, K_inv.T, where=work.upper)
    # A = outer(a, a) - K^-1, in the inverse's own array.
    A = np.subtract(np.multiply(a[:, None], a, out=work.base), K_inv, out=K_inv)

    grad = np.empty_like(theta)
    grad[0] = 0.5 * np.vdot(A, Kf)
    # dK/dlog(ls_i) = sv * (5/3) (1 + s) exp(-s) * sq_diffs_i / ls_i^2, so with
    # W = A * sv * (5/3) (1 + s) exp(-s),
    # grad_i = 0.5 * inv_ls_sq_i * sum(sq_diffs_i * W), for every i at once.
    W = np.multiply(one_plus_s, sv * (5.0 / 3.0), out=work.base)
    W *= exp_neg_s
    W *= A
    grad[1 : 1 + d] = 0.5 * (inv_ls_sq * (sq_diffs @ work.base_flat))
    grad[1 + d] = 0.5 * nv * A.trace()
    grad[2 + d] = float(a.sum())
    return mll, grad


class LBFGSResult(NamedTuple):
    x: np.ndarray
    nfev: int


def minimize(
    fun, x0: np.ndarray, lo: np.ndarray, hi: np.ndarray, maxiter: int, ftol: float
) -> LBFGSResult:
    """Minimize ``fun`` over the box ``[lo, hi]`` by L-BFGS-B from ``x0``.

    ``fun(x)`` returns the value and the gradient at ``x``; ``x0`` must lie in
    the box. The iterates and evaluations are those of
    ``scipy.optimize.minimize(fun, x0, jac=True, method="L-BFGS-B",
    bounds=..., options={"maxiter": maxiter, "ftol": ftol})``: ``fun`` runs
    once at ``x0``, then only when ``setulb`` asks for f and g at a point
    other than the last one evaluated, and always on a copy of the point.
    scipy's cap of 15000 evaluations is left out: an iteration makes at most
    two line searches of ``LBFGS_MAXLS`` steps, so the cap cannot bind below
    350 iterations. Returns the last iterate and the number of evaluations.
    ``setulb`` checks its arrays' types but not their lengths, so bounds or a
    gradient of another length than ``x0`` are a DataError.
    """
    n = len(x0)
    if np.shape(lo) != (n,) or np.shape(hi) != (n,):
        raise DataError(
            f"bounds of shapes {np.shape(lo)}, {np.shape(hi)} for {n} variables"
        )

    def evaluate(point: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = fun(point.copy())
        if np.shape(grad) != (n,):
            raise DataError(f"gradient of shape {np.shape(grad)} for {n} variables")
        return value, grad

    m = LBFGS_MEMORY
    x = np.array(x0, dtype=np.float64)
    x_evaluated = x.copy()
    f, g = evaluate(x)
    nfev = 1
    nbd = np.full(n, 2, dtype=np.int32)  # both bounds on every variable
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task, ln_task = np.zeros((2, 2), dtype=np.int32)
    lsave = np.zeros(4, dtype=np.int32)
    isave = np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29)
    factr = ftol / np.finfo(float).eps
    iterations = 0
    while True:
        _SETULB(
            m, x, lo, hi, nbd, f, g, factr, LBFGS_PGTOL, wa, iwa, task, lsave, isave,
            dsave, LBFGS_MAXLS, ln_task,
        )
        if task[0] == _TASK_FG:
            if not (x == x_evaluated).all():
                x_evaluated = x.copy()
                f, g = evaluate(x)
                nfev += 1
        elif task[0] == _TASK_NEW_X:
            iterations += 1
            if iterations >= maxiter:
                task[:] = _TASK_STOP_MAXITER
        else:
            return LBFGSResult(x, nfev)


def _default_start(d: int) -> np.ndarray:
    params = KernelParams(
        signal_variance=1.0,
        lengthscales=np.full(d, 0.3),
        noise_variance=1e-3,
        mean_constant=0.0,
    )
    return params.to_theta()


def _random_start(d: int, rng: np.random.Generator) -> np.ndarray:
    theta = np.empty(d + 3)
    theta[0] = rng.uniform(math.log(0.1), math.log(10.0))
    theta[1 : 1 + d] = rng.uniform(math.log(0.05), math.log(2.0), size=d)
    theta[1 + d] = rng.uniform(math.log(1e-6), math.log(1e-1))
    theta[2 + d] = rng.uniform(-0.5, 0.5)
    return theta


def _stale(warm_start: GPModel, init_mll: float, fitted_mll: float, n: int) -> bool:
    """Whether a fit from ``warm_start``'s parameters, which took the MLL from
    ``init_mll`` to ``fitted_mll`` on ``n`` points, shows them to be stale."""
    previous = log_marginal_likelihood(warm_start) / warm_start.n_train
    return (
        fitted_mll - init_mll > STALE_GAIN_PER_POINT * n
        or fitted_mll / n < previous - STALE_DROP_PER_POINT
        or fitted_mll / n < WHITE_NOISE_MLL_PER_POINT + STALE_GAIN_PER_POINT
    )


def gp_fit(
    X: np.ndarray,
    y: np.ndarray,
    restarts: int = 5,
    rng: np.random.Generator | None = None,
    warm_start: GPModel | None = None,
) -> GPModel:
    """Fit GP hyperparameters by multi-start L-BFGS-B on the MLL.

    ``X`` is (n, d), or (n,) for one dimension. The first start is the
    default parameters, or those of ``warm_start``, a previous fit such as
    the last iteration's in a sequential loop. The other ``restarts - 1``
    starts are random and are drawn from ``rng`` whether they run or not;
    ``restarts`` below 1 is a ConfigError. L-BFGS-B from a warm start stops
    at a relative MLL gain per iteration of ``WARM_LBFGS_FTOL``; every other
    start runs at scipy's default, ``LBFGS_FTOL``.

    Without a warm start every start runs. With one, the random starts run
    only when it is stale: L-BFGS-B from it raised the MLL by more than
    ``STALE_GAIN_PER_POINT * n`` nats, or its fitted MLL per point is more
    than ``STALE_DROP_PER_POINT`` below ``warm_start``'s own, or less than
    ``STALE_GAIN_PER_POINT`` above ``WHITE_NOISE_MLL_PER_POINT``.

    The returned model's MLL is at least the initial MLL of every start that
    ran. Its ``fit_info`` holds that MLL, the initial MLL of each start that
    ran (``init_mlls``), their count (``restarts``) and each one's number of
    MLL evaluations (``nfev``).
    """
    if restarts < 1:
        raise ConfigError(f"restarts must be at least 1, got {restarts}")
    X = np.asarray(X, dtype=float)
    X, y = _training_data(X[:, None] if X.ndim == 1 else X, y)
    if rng is None:
        rng = np.random.default_rng(0)
    n, d = X.shape

    y_std, t_mean, t_std, degenerate = _standardize(y)
    sq_diffs = ((X.T[:, :, None] - X.T[:, None, :]) ** 2).reshape(d, -1)  # (d, n*n)
    work = _MLLWorkspace(n)

    # Every value computed, keyed by the point's bytes, so that start and end
    # points are not evaluated again. (L-BFGS-B's last evaluation is not
    # always at the point it returns.)
    seen: dict[bytes, float] = {}

    def neg_mll(theta: np.ndarray) -> tuple[float, np.ndarray]:
        try:
            mll, grad = _mll_value_and_grad(theta, X, y_std, sq_diffs, work)
        except ModelError:
            mll = math.nan
        if not math.isfinite(mll):
            value, grad = 1e25, np.zeros_like(theta)
        else:
            value = -mll
            np.negative(grad, out=grad)
        seen[theta.tobytes()] = value
        return value, grad

    def mll_at(theta: np.ndarray) -> float:
        value = seen.get(theta.tobytes())
        return -(neg_mll(theta)[0] if value is None else value)

    starts = [
        warm_start.params.to_theta() if warm_start is not None else _default_start(d)
    ]
    for _ in range(restarts - 1):
        starts.append(_random_start(d, rng))

    # Contiguous rows, as setulb requires.
    lo, hi = np.array(
        [LOG_SIGNAL_BOUNDS, *[LOG_LENGTHSCALE_BOUNDS] * d, LOG_NOISE_BOUNDS, MEAN_BOUNDS]
    ).T.copy()

    evaluated: list[tuple[float, np.ndarray]] = []
    init_mlls: list[float] = []
    nfev: list[int] = []
    for theta0 in starts:
        theta0 = np.clip(theta0, lo, hi)
        warm = warm_start is not None and not init_mlls
        ftol = WARM_LBFGS_FTOL if warm else LBFGS_FTOL
        result = minimize(neg_mll, theta0, lo, hi, LBFGS_MAXITER, ftol)
        init_mlls.append(mll_at(theta0))
        nfev.append(result.nfev)
        evaluated.append((init_mlls[-1], theta0))
        evaluated.append((mll_at(result.x), result.x))
        if warm_start is not None and len(init_mlls) == 1:
            fitted = max(init_mlls[0], evaluated[1][0])
            if not _stale(warm_start, init_mlls[0], fitted, n):
                break

    best_mll, best_theta = max(evaluated, key=lambda item: item[0])
    if not np.isfinite(best_mll):
        raise ModelError("all hyperparameter starts failed to factorize")

    params = KernelParams.from_theta(best_theta, d)
    model = build_model(X, y, params)
    model.fit_info = {
        "mll": best_mll,
        "init_mlls": init_mlls,
        "restarts": len(init_mlls),
        "nfev": nfev,
    }
    return model


def gp_posterior_many(model: GPModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means/variances (native units) at points ``X`` of shape (m, d).

    Rows go ``KERNEL_BLOCK_CELLS // n_train`` at a time. For each block, the
    mean is ``k* @ alpha`` and the variance ``sv + nv - sum(v**2)`` with
    ``v = L^-1 k*^T``, one triangular solve on the Cholesky factor ``L``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d = model.train_inputs.shape[1]
    if X.ndim != 2 or X.shape[1] != d:
        raise DataError(f"points of shape {X.shape} for a model of {d} columns")
    params = model.params
    m, n = X.shape[0], model.n_train
    rows = max(1, KERNEL_BLOCK_CELLS // n)
    k_star = np.empty((min(rows, m), n))
    work = np.empty((2, *k_star.shape))
    mean_std = np.empty(m)
    var_std = np.empty(m)
    for start in range(0, m, rows):
        block = slice(start, min(start + rows, m))
        k = k_star[: block.stop - start]
        with np.errstate(over="ignore", invalid="ignore"):  # a bad point is reported below
            _fill_cross_kernel(X[block], model.train_inputs, params, k, work[:, : len(k)])
        if not np.isfinite(k).all():
            raise NumericError("non-finite cross-kernel entries")
        np.matmul(k, model.alpha, out=mean_std[block])
        # v = L^-1 k^T, written over k: chol's lower triangle is L.
        v, _ = _TRTRS(model.chol, k.T, lower=1, overwrite_b=1)
        np.einsum("nm,nm->m", v, v, out=var_std[block])
    mean_std += params.mean_constant
    prior_var = params.signal_variance + params.noise_variance
    var_std = np.maximum(prior_var - var_std, 0.0)
    mean = model.target_mean + model.target_std * mean_std
    var = (model.target_std**2) * var_std
    return mean, var


def gp_posterior(model: GPModel, x: np.ndarray) -> Posterior:
    """Posterior at a single point, de-standardized to native units."""
    means, variances = gp_posterior_many(model, np.asarray(x, dtype=float)[None, :])
    return Posterior(mean=float(means[0]), variance=float(variances[0]))


def log_marginal_likelihood(model: GPModel) -> float:
    """Exact MLL of the standardized targets under the model's params."""
    resid = model.train_targets_std - model.params.mean_constant
    log_det = 2.0 * np.log(model.chol.diagonal()).sum()
    n = model.n_train
    return float(
        -0.5 * resid @ model.alpha - 0.5 * log_det - 0.5 * n * math.log(2 * math.pi)
    )
