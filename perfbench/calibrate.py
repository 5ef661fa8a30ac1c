"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark's host is a share of a machine whose speed drifts by 15-30%
over seconds to minutes, with other tenants' load. Timings are therefore
reported at a *reference speed*. The benchmark's black box runs a short
*slice* of this kernel after every few evaluations, outside the time it
reports for the evaluation, so the slices sample the host's speed all through
a run. A run's times are then scaled by how much slower (or faster) its
slices ran than on the reference machine.

The kernel uses numpy and scipy only, never the library, so it does the same
work on every commit. Its mix resembles a BO iteration: Matern-5/2 GP
marginal-likelihood evaluations with gradients on 40 fixed points in 3-d,
then a kernel matrix against as many fixed candidates as the workload scores.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import cho_factor, cho_solve

MLL_EVALUATIONS = 6
MAX_CANDIDATES = 8192

_DIM = 3
_rng = np.random.default_rng(12345)
_X = _rng.uniform(size=(40, _DIM))
_y = np.sin(6.0 * _X).sum(axis=1) + 0.05 * _rng.normal(size=40)
_Y = (_y - _y.mean()) / _y.std()
_THETA = np.zeros(_DIM + 2)
_CANDIDATES = np.random.default_rng(7).uniform(size=(MAX_CANDIDATES, _DIM))


def _neg_mll(theta: np.ndarray) -> tuple[float, np.ndarray]:
    lengthscales = np.exp(theta[:_DIM])
    signal, noise = np.exp(theta[_DIM]), np.exp(theta[_DIM + 1])
    diff = (_X[:, None, :] - _X[None, :, :]) / lengthscales
    r2 = (diff**2).sum(-1)
    r = np.sqrt(5.0 * r2 + 1e-12)
    K = signal * (1.0 + r + 5.0 * r2 / 3.0) * np.exp(-r)
    chol = cho_factor(K + (noise + 1e-8) * np.eye(len(_Y)), lower=True)
    a = cho_solve(chol, _Y)
    value = 0.5 * _Y @ a + np.log(np.diag(chol[0])).sum()
    W = np.outer(a, a) - cho_solve(chol, np.eye(len(_Y)))
    dK_dr2 = -signal * 5.0 / 6.0 * (1.0 + r) * np.exp(-r)
    grad = np.empty(_DIM + 2)
    for k in range(_DIM):
        grad[k] = -0.5 * (W * dK_dr2 * (-2.0 * diff[:, :, k] ** 2)).sum()
    grad[_DIM] = -0.5 * (W * K).sum()
    grad[_DIM + 1] = -0.5 * np.trace(W) * noise
    return value, grad


def slice_seconds(candidates: int) -> float:
    """Run one slice of reference work and return the seconds it took."""
    start = time.perf_counter()
    for _ in range(MLL_EVALUATIONS):
        _neg_mll(_THETA)
    diff = _CANDIDATES[:candidates, None, :] - _X[None, :, :]
    np.exp(-np.sqrt((diff**2).sum(-1))).sum()
    return time.perf_counter() - start
