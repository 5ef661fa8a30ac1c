"""Gaussian process regression over the unit cube.

Matern-5/2 kernel with per-dimension (ARD) lengthscales, a constant mean
and Gaussian observation noise. Targets are standardized to zero mean and
unit variance before fitting; posteriors are reported in native units.

Hyperparameters are obtained by multi-start bounded quasi-Newton (L-BFGS-B)
maximization of the log marginal likelihood, parameterized as
``theta = [log signal_variance, log lengthscale_1..d, log noise_variance,
mean_constant]`` with analytic gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.optimize import minimize

from .errors import DataError, ModelError, NumericError

SQRT5 = math.sqrt(5.0)

# Optimizer bounds in theta space.
LOG_SIGNAL_BOUNDS = (math.log(1e-4), math.log(1e4))
LOG_LENGTHSCALE_BOUNDS = (math.log(1e-3), math.log(1e3))
LOG_NOISE_BOUNDS = (math.log(1e-8), math.log(1e2))
MEAN_BOUNDS = (-5.0, 5.0)

# L-BFGS-B iteration cap per start of a hyperparameter fit.
LBFGS_MAXITER = 60

# Diagonal jitter escalation on Cholesky failure.
JITTERS = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)

# LAPACK Cholesky factorization and solve, looked up once.
_POTRF, _POTRS = get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


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
    scaled_sq: np.ndarray, signal_variance: float, scratch: np.ndarray
) -> np.ndarray:
    """Matern-5/2 values from squared lengthscale-scaled distances.

    Works in place: ``scaled_sq`` is overwritten (it ends holding exp(-s))
    and ``scratch``, an array of the same shape, is used as a temporary.
    The operations are those of ``sv * (1 + s + s*s/3) * exp(-s)``, in order.
    """
    s = np.maximum(scaled_sq, 0.0, out=scaled_sq)
    np.sqrt(s, out=s)
    s *= SQRT5
    k = s + 1.0
    np.multiply(s, s, out=scratch)
    scratch /= 3.0
    k += scratch
    k *= signal_variance
    np.negative(s, out=s)
    np.exp(s, out=s)
    k *= s
    return k


def _cross_kernel(X1: np.ndarray, X2: np.ndarray, params: KernelParams) -> np.ndarray:
    # Sum the scaled squared distance one dimension at a time, in dimension
    # order, instead of building the (m, n, d) difference tensor. The first
    # dimension starts the sum; the others share one difference buffer.
    lengthscales = params.lengthscales
    scaled_sq = np.subtract.outer(X1[:, 0], X2[:, 0])
    scaled_sq /= lengthscales[0]
    scaled_sq *= scaled_sq
    diff = np.empty_like(scaled_sq)
    for k in range(1, len(lengthscales)):
        np.subtract.outer(X1[:, k], X2[:, k], out=diff)
        diff /= lengthscales[k]
        diff *= diff
        scaled_sq += diff
    return _matern52(scaled_sq, params.signal_variance, diff)


def _factorize(K: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of ``K`` with escalating diagonal jitter.

    Returns the factor and the jitter that made ``K`` positive definite. Only
    the lower triangle of the factor is set; the upper one keeps ``K``'s
    entries. Raises NumericError on a non-finite ``K`` and ModelError when
    the last jitter still fails.
    """
    if not np.isfinite(K).all():
        raise NumericError("kernel matrix has non-finite entries")
    for jitter in JITTERS:
        if jitter:
            K_jit = K.copy()
            K_jit[np.diag_indices_from(K_jit)] += jitter
        else:
            K_jit = K
        chol, info = _POTRF(K_jit, lower=1, clean=0)
        if info == 0:
            return chol, jitter
    raise ModelError(
        f"kernel factorization failed at jitter {JITTERS[-1]}: "
        f"{info}-th leading minor of the array is not positive definite"
    )


def _solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``K x = b`` given the lower Cholesky factor of ``K``."""
    x, _ = _POTRS(chol, b, lower=1)
    return x


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
    alpha = _solve(chol, y_std - params.mean_constant)
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
    """Scratch arrays for the MLL evaluations of one fit on n points in d dims.

    One workspace serves every evaluation of a ``gp_fit`` call; each
    evaluation overwrites all of it, so no value carries over between them.
    """

    def __init__(self, n: int, d: int):
        self.eye = np.eye(n)
        self.s, self.exp_neg_s, self.one_plus_s, self.kf, self.base = np.empty(
            (5, n, n)
        )
        self.block = np.empty((d, n, n))


def _mll_value_and_grad(
    theta: np.ndarray,
    X: np.ndarray,
    y_std: np.ndarray,
    sq_diffs: np.ndarray,
    work: _MLLWorkspace | None = None,
) -> tuple[float, np.ndarray]:
    """Log marginal likelihood and its gradient w.r.t. theta.

    ``sq_diffs`` is the precomputed (d, n, n) tensor of per-dimension squared
    coordinate differences, and ``work`` the scratch arrays (built here when
    not given). Gradients use the standard trace identity
    dMLL/dp = 0.5 tr((aa^T - K^{-1}) dK/dp) with a = K^{-1}(y - m).
    Every step runs in place, in the order of the plain expressions in the
    comments, so the results are bit for bit those of the expressions.
    """
    n, d = X.shape
    if work is None:
        work = _MLLWorkspace(n, d)
    sv = math.exp(theta[0])
    ls = np.exp(theta[1 : 1 + d])
    nv = math.exp(theta[1 + d])
    m = theta[2 + d]

    # s = sqrt(5) * sqrt(max(sum_i sq_diffs_i / ls_i^2, 0))
    inv_ls_sq = 1.0 / (ls * ls)
    s = work.s
    np.matmul(inv_ls_sq, sq_diffs.reshape(d, -1), out=s.reshape(-1))
    np.maximum(s, 0.0, out=s)
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
    K.reshape(-1)[:: n + 1] += nv

    chol, _ = _factorize(K)
    resid = y_std - m
    a = _solve(chol, resid)
    log_det = 2.0 * np.sum(np.log(np.diag(chol)))
    mll = -0.5 * float(resid @ a) - 0.5 * log_det - 0.5 * n * math.log(2.0 * math.pi)

    # A = outer(a, a) - K^-1, in the solve's own output array.
    A = _solve(chol, work.eye)
    np.subtract(np.multiply.outer(a, a, out=work.base), A, out=A)

    grad = np.empty_like(theta)
    grad[0] = 0.5 * np.sum(np.multiply(A, Kf, out=work.base))
    # dK/dlog(ls_i) = sv * (5/3) (1 + s) exp(-s) * sq_diffs_i / ls_i^2, and
    # grad_i = 0.5 * sum(A * dK_i), for every i at once.
    base = np.multiply(one_plus_s, sv * (5.0 / 3.0), out=work.base)
    base *= exp_neg_s
    P = np.multiply(sq_diffs, inv_ls_sq[:, None, None], out=work.block)
    P *= base
    P *= A
    grad[1 : 1 + d] = 0.5 * P.reshape(d, -1).sum(axis=1)
    grad[1 + d] = 0.5 * nv * np.trace(A)
    grad[2 + d] = float(np.sum(a))
    return mll, grad


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


def gp_fit(
    X: np.ndarray,
    y: np.ndarray,
    restarts: int = 5,
    rng: np.random.Generator | None = None,
    warm_start: KernelParams | None = None,
) -> GPModel:
    """Fit GP hyperparameters by multi-start L-BFGS-B on the MLL.

    ``X`` is (n, d), or (n,) for one dimension. The returned model's MLL is
    at least the MLL of every start's initial parameters. ``warm_start`` (e.g. the previous iteration's params in a
    sequential loop) replaces the default first start.
    """
    X = np.asarray(X, dtype=float)
    X, y = _training_data(X[:, None] if X.ndim == 1 else X, y)
    if rng is None:
        rng = np.random.default_rng(0)
    n, d = X.shape

    y_std, t_mean, t_std, degenerate = _standardize(y)
    sq_diffs = (X.T[:, :, None] - X.T[:, None, :]) ** 2  # (d, n, n)
    work = _MLLWorkspace(n, d)

    # Every value computed, keyed by the point's bytes, so that start and end
    # points are not evaluated again. (``result.fun`` is not always the value
    # at ``result.x``.)
    seen: dict[bytes, float] = {}

    def neg_mll(theta: np.ndarray) -> tuple[float, np.ndarray]:
        try:
            mll, grad = _mll_value_and_grad(theta, X, y_std, sq_diffs, work)
        except ModelError:
            mll = math.nan
        if not np.isfinite(mll):
            value, grad = 1e25, np.zeros_like(theta)
        else:
            value, grad = -mll, -grad
        seen[theta.tobytes()] = value
        return value, grad

    def mll_at(theta: np.ndarray) -> float:
        value = seen.get(theta.tobytes())
        return -(neg_mll(theta)[0] if value is None else value)

    starts = [warm_start.to_theta() if warm_start is not None else _default_start(d)]
    for _ in range(max(0, restarts - 1)):
        starts.append(_random_start(d, rng))

    bounds = (
        [LOG_SIGNAL_BOUNDS]
        + [LOG_LENGTHSCALE_BOUNDS] * d
        + [LOG_NOISE_BOUNDS, MEAN_BOUNDS]
    )
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])

    evaluated: list[tuple[float, np.ndarray]] = []
    init_mlls: list[float] = []
    for theta0 in starts:
        theta0 = np.clip(theta0, lo, hi)
        result = minimize(
            neg_mll,
            theta0,
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": LBFGS_MAXITER},
        )
        init_mlls.append(mll_at(theta0))
        evaluated.append((init_mlls[-1], theta0))
        evaluated.append((mll_at(result.x), result.x))

    best_mll, best_theta = max(evaluated, key=lambda item: item[0])
    if not np.isfinite(best_mll):
        raise ModelError("all hyperparameter starts failed to factorize")

    params = KernelParams.from_theta(best_theta, d)
    model = build_model(X, y, params)
    model.fit_info = {
        "mll": best_mll,
        "init_mlls": init_mlls,
        "restarts": len(starts),
    }
    return model


def gp_posterior_many(model: GPModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means/variances (native units) at points ``X`` of shape (m, d)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    params = model.params
    k_star = _cross_kernel(X, model.train_inputs, params)  # (m, n)
    mean_std = params.mean_constant + k_star @ model.alpha
    if not np.isfinite(k_star).all():
        raise NumericError("non-finite cross-kernel entries")
    v = _solve(model.chol, k_star.T)  # (n, m)
    var_std = (
        params.signal_variance
        + params.noise_variance
        - np.einsum("mn,nm->m", k_star, v)
    )
    var_std = np.maximum(var_std, 0.0)
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
    log_det = 2.0 * np.sum(np.log(np.diag(model.chol)))
    n = model.n_train
    return float(
        -0.5 * resid @ model.alpha - 0.5 * log_det - 0.5 * n * math.log(2 * math.pi)
    )
