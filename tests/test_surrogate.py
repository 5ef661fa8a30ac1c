"""GP regression tests against direct linear-algebra oracles."""

import inspect
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dtrtri
from scipy.optimize import minimize as scipy_minimize
from scipy.optimize._lbfgsb_py import _minimize_lbfgsb

import paretobo.surrogate as surrogate_mod
from paretobo.cli import BLAS_THREAD_VARS
from paretobo.errors import ConfigError, DataError, NumericError
from paretobo.surrogate import (
    JITTERS,
    KERNEL_BLOCK_CELLS,
    LBFGS_FTOL,
    LBFGS_MAXITER,
    LOG_LENGTHSCALE_BOUNDS,
    LOG_NOISE_BOUNDS,
    LOG_SIGNAL_BOUNDS,
    MEAN_BOUNDS,
    STALE_DROP_PER_POINT,
    STALE_GAIN_PER_POINT,
    WARM_LBFGS_FTOL,
    WHITE_NOISE_MLL_PER_POINT,
    KernelParams,
    _MLLWorkspace,
    _cross_kernel,
    _default_start,
    _fill_cross_kernel,
    _mll_value_and_grad,
    _random_start,
    _standardize,
    build_model,
    gp_fit,
    gp_posterior,
    gp_posterior_many,
    log_marginal_likelihood,
)


def direct_posterior(model, x):
    """O(n^3) oracle: explicit solve of the standard GP equations."""
    params = model.params
    X = model.train_inputs
    n = X.shape[0]
    K = (
        _cross_kernel(X, X, params)
        + (params.noise_variance + model.jitter) * np.eye(n)
    )
    k_star = _cross_kernel(np.atleast_2d(x), X, params)[0]
    resid = model.train_targets_std - params.mean_constant
    mean_std = params.mean_constant + k_star @ np.linalg.solve(K, resid)
    var_std = (
        params.signal_variance
        + params.noise_variance
        - k_star @ np.linalg.solve(K, k_star)
    )
    mean = model.target_mean + model.target_std * mean_std
    var = model.target_std**2 * max(var_std, 0.0)
    return mean, var


def direct_mll(model):
    params = model.params
    X = model.train_inputs
    n = X.shape[0]
    K = (
        _cross_kernel(X, X, params)
        + (params.noise_variance + model.jitter) * np.eye(n)
    )
    resid = model.train_targets_std - params.mean_constant
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    return float(
        -0.5 * resid @ np.linalg.solve(K, resid)
        - 0.5 * logdet
        - 0.5 * n * math.log(2 * math.pi)
    )


@pytest.fixture
def minimize_calls(monkeypatch):
    """Each ``surrogate.minimize`` call's ftol and result, in call order."""
    calls = []
    real = surrogate_mod.minimize

    def spy(fun, x0, lo, hi, maxiter, ftol):
        result = real(fun, x0, lo, hi, maxiter, ftol)
        calls.append((ftol, result))
        return result

    monkeypatch.setattr(surrogate_mod, "minimize", spy)
    return calls


class TestFit:
    def test_single_point_interpolation(self):
        model = gp_fit(np.array([[0.3, 0.7]]), np.array([5.0]), restarts=2)
        post = gp_posterior(model, np.array([0.3, 0.7]))
        assert post.mean == pytest.approx(5.0, abs=1e-6)

    def test_final_mll_never_below_any_start(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            X = rng.uniform(size=(n, 2))
            y = rng.normal(size=n)
            model = gp_fit(X, y, restarts=3, rng=rng)
            assert model.fit_info["mll"] >= max(model.fit_info["init_mlls"]) - 1e-9

    def test_posterior_matches_direct_oracle(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(3, 2))
        y = np.array([1.0, -0.5, 2.0])
        model = gp_fit(X, y, restarts=2, rng=rng)
        for _ in range(5):
            x = rng.uniform(size=2)
            post = gp_posterior(model, x)
            mean, var = direct_posterior(model, x)
            assert post.mean == pytest.approx(mean, abs=1e-8)
            assert post.variance == pytest.approx(var, abs=1e-8)

    def test_rejects_non_finite_targets(self):
        with pytest.raises(DataError):
            gp_fit(np.array([[0.5]]), np.array([math.nan]))

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(DataError):
            gp_fit(np.zeros((3, 2)), np.zeros(4))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_inputs_like_build_model(self, bad):
        X = np.array([[0.1, 0.2], [0.5, bad], [0.9, 0.4]])
        y = np.array([1.0, 2.0, 0.5])
        with pytest.raises(DataError, match="non-finite training inputs"):
            gp_fit(X, y, restarts=1)
        with pytest.raises(DataError, match="non-finite training inputs"):
            build_model(X, y, KernelParams(1.0, np.array([0.3, 0.3]), 1e-3))

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_rejects_fewer_than_one_start(self, restarts):
        X = np.array([[0.1], [0.5], [0.9]])
        with pytest.raises(ConfigError, match="restarts"):
            gp_fit(X, np.array([1.0, 2.0, 0.5]), restarts=restarts)

    def test_nfev_counts_each_start_s_evaluations(self, minimize_calls):
        rng = np.random.default_rng(4)
        X = rng.uniform(size=(12, 2))
        model = gp_fit(X, np.sin(3 * X[:, 0]) + X[:, 1], restarts=3, rng=rng)
        assert model.fit_info["restarts"] == len(minimize_calls) == 3
        assert model.fit_info["nfev"] == [result.nfev for _, result in minimize_calls]
        assert all(count > 0 for count in model.fit_info["nfev"])

    def test_each_start_s_nfev_is_its_count_of_mll_evaluations(self, monkeypatch):
        evaluations = 0
        per_start = []
        real_mll = surrogate_mod._mll_value_and_grad
        real_minimize = surrogate_mod.minimize

        def counting_mll(*args):
            nonlocal evaluations
            evaluations += 1
            return real_mll(*args)

        def counting_minimize(*args):
            before = evaluations
            result = real_minimize(*args)
            per_start.append(evaluations - before)
            return result

        monkeypatch.setattr(surrogate_mod, "_mll_value_and_grad", counting_mll)
        monkeypatch.setattr(surrogate_mod, "minimize", counting_minimize)
        rng = np.random.default_rng(4)
        X = rng.uniform(size=(12, 2))
        y = np.sin(3 * X[:, 0]) + X[:, 1]
        cold = gp_fit(X, y, restarts=3, rng=rng)
        assert cold.fit_info["nfev"] == per_start
        stale = build_model(X, y, KernelParams(50.0, np.full(2, 5.0), 0.5, 1.0))
        warm = gp_fit(X, y, restarts=3, rng=rng, warm_start=stale)
        assert cold.fit_info["nfev"] + warm.fit_info["nfev"] == per_start
        assert len(per_start) == 6

    def test_accepts_one_dimensional_inputs(self):
        X = np.array([0.1, 0.4, 0.8])
        y = np.array([1.0, -0.5, 2.0])
        one_d = gp_fit(X, y, restarts=2, rng=np.random.default_rng(3))
        two_d = gp_fit(X[:, None], y, restarts=2, rng=np.random.default_rng(3))
        assert one_d.train_inputs.shape == (3, 1)
        assert one_d.params.to_theta().tobytes() == two_d.params.to_theta().tobytes()


class TestWarmStartRestarts:
    """A warm-started fit runs its random starts only when the warm start is stale."""

    @staticmethod
    def data():
        X = np.random.default_rng(21).uniform(size=(20, 3))
        return X, np.sin(3 * X[:, 0]) + X[:, 1] * X[:, 2]

    def test_warm_start_at_the_optimum_runs_one_start(self):
        X, y = self.data()
        fitted = gp_fit(X, y, restarts=3, rng=np.random.default_rng(1))
        assert fitted.fit_info["restarts"] == 3
        model = gp_fit(X, y, restarts=3, rng=np.random.default_rng(2), warm_start=fitted)
        assert model.fit_info["restarts"] == 1
        assert len(model.fit_info["init_mlls"]) == 1
        assert model.fit_info["mll"] >= model.fit_info["init_mlls"][0]

    def test_stale_warm_start_runs_every_start(self):
        X, y = self.data()
        # Far from the optimum: L-BFGS-B gains far more than the stale gain.
        stale = build_model(X, y, KernelParams(50.0, np.full(3, 5.0), 0.5, 1.0))
        model = gp_fit(X, y, restarts=3, rng=np.random.default_rng(2), warm_start=stale)
        assert model.fit_info["restarts"] == 3
        assert len(model.fit_info["init_mlls"]) == 3
        assert model.fit_info["mll"] >= max(model.fit_info["init_mlls"])

    def test_fit_worse_per_point_than_the_warm_start_runs_every_start(self):
        rng = np.random.default_rng(21)
        X = rng.uniform(size=(20, 3))
        y = np.sin(3 * X[:, 0]) + X[:, 1] * X[:, 2] + 0.3 * rng.normal(size=20)
        params = gp_fit(X, y, restarts=3, rng=np.random.default_rng(1)).params
        # The same parameters on smooth targets: L-BFGS-B from them gains
        # nothing on y, but y's MLL per point is far below the warm start's.
        warm = build_model(X, X[:, 0], params)
        alone = gp_fit(X, y, restarts=1, warm_start=warm)
        gain = alone.fit_info["mll"] - alone.fit_info["init_mlls"][0]
        assert gain < STALE_GAIN_PER_POINT * len(y)
        drop = log_marginal_likelihood(warm) / 20 - alone.fit_info["mll"] / 20
        assert drop > STALE_DROP_PER_POINT
        model = gp_fit(X, y, restarts=3, rng=np.random.default_rng(2), warm_start=warm)
        assert model.fit_info["restarts"] == 3
        assert model.fit_info["mll"] > alone.fit_info["mll"]  # a restart did better

    def test_rng_ends_at_the_same_position_whether_or_not_restarts_ran(self):
        X, y = self.data()
        fitted = gp_fit(X, y, restarts=3, rng=np.random.default_rng(1))
        stale = build_model(X, y, KernelParams(50.0, np.full(3, 5.0), 0.5, 1.0))
        states = []
        for warm, ran in ((None, 3), (fitted, 1), (stale, 3)):
            rng = np.random.default_rng(9)
            model = gp_fit(X, y, restarts=3, rng=rng, warm_start=warm)
            assert model.fit_info["restarts"] == ran
            states.append(rng.bit_generator.state)
        drawn = np.random.default_rng(9)
        for _ in range(2):
            _random_start(3, drawn)
        assert states == [drawn.bit_generator.state] * 3


class TestWhiteNoiseWarmStart:
    def test_standardized_targets_under_unit_noise(self):
        X = np.random.default_rng(3).uniform(size=(9, 2))
        y = np.random.default_rng(4).normal(size=9)
        # Lengthscales far below the points' spacing: K is (sv + nv) I.
        model = build_model(X, y, KernelParams(0.25, np.full(2, 1e-6), 0.75))
        assert log_marginal_likelihood(model) / 9 == pytest.approx(
            WHITE_NOISE_MLL_PER_POINT, abs=1e-12
        )

    def test_warm_start_at_white_noise_runs_every_start(self):
        X = np.random.default_rng(21).uniform(size=(20, 3))
        y = np.sin(3 * X[:, 0]) + X[:, 1] * X[:, 2]
        # Every lengthscale at its lower bound: L-BFGS-B from here neither
        # gains nor drops, yet the fit explains nothing.
        lower = math.exp(LOG_LENGTHSCALE_BOUNDS[0])
        warm = build_model(X, y, KernelParams(0.01, np.full(3, lower), 0.99))
        alone = gp_fit(X, y, restarts=1, warm_start=warm)
        mll = alone.fit_info["mll"]
        assert mll - alone.fit_info["init_mlls"][0] < STALE_GAIN_PER_POINT * 20
        assert mll / 20 >= log_marginal_likelihood(warm) / 20 - STALE_DROP_PER_POINT
        assert mll / 20 < WHITE_NOISE_MLL_PER_POINT + STALE_GAIN_PER_POINT
        model = gp_fit(X, y, restarts=3, rng=np.random.default_rng(2), warm_start=warm)
        assert model.fit_info["restarts"] == 3
        assert model.fit_info["mll"] / 20 > WHITE_NOISE_MLL_PER_POINT + 1.0


class TestWarmStartTolerance:
    """Only L-BFGS-B from a warm start stops at ``WARM_LBFGS_FTOL``."""

    # scipy's default L-BFGS-B ftol: factr 1e7 times machine epsilon.
    SCIPY_FTOL = 1e7 * np.finfo(float).eps

    @staticmethod
    def data(n=20):
        rng = np.random.default_rng(22)
        X = rng.uniform(size=(n, 3))
        return X, np.sin(3 * X[:, 0]) + X[:, 1] * X[:, 2] + 0.05 * rng.normal(size=n)

    def test_only_the_warm_start_gets_the_looser_tolerance(self, minimize_calls):
        X, y = self.data()
        gp_fit(X, y, restarts=3, rng=np.random.default_rng(1))
        stale = build_model(X, y, KernelParams(50.0, np.full(3, 5.0), 0.5, 1.0))
        model = gp_fit(X, y, restarts=3, rng=np.random.default_rng(2), warm_start=stale)
        assert model.fit_info["restarts"] == 3
        tolerances = [ftol for ftol, _ in minimize_calls]
        assert len(tolerances) == 6
        assert tolerances[:3] == [LBFGS_FTOL] * 3  # the cold fit
        assert tolerances[3] == WARM_LBFGS_FTOL
        assert tolerances[4:] == [LBFGS_FTOL] * 2  # random starts

    def test_warm_start_stops_sooner_and_close_to_a_full_tolerance_run(
        self, monkeypatch
    ):
        # The last fit before one more point, as in a sequential loop.
        X, y = self.data(30)
        previous = gp_fit(X[:-1], y[:-1], restarts=3, rng=np.random.default_rng(1))
        loose = gp_fit(X, y, restarts=3, rng=np.random.default_rng(2), warm_start=previous)
        monkeypatch.setattr(surrogate_mod, "WARM_LBFGS_FTOL", self.SCIPY_FTOL)
        full = gp_fit(X, y, restarts=3, rng=np.random.default_rng(2), warm_start=previous)
        assert loose.fit_info["restarts"] == full.fit_info["restarts"] == 1
        assert loose.fit_info["nfev"][0] < full.fit_info["nfev"][0]
        assert abs(full.fit_info["mll"] - loose.fit_info["mll"]) < 1e-4 * len(y)


class TestPosterior:
    def test_interpolates_training_points_at_low_noise(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(6, 2))
        y = np.sin(4 * X[:, 0]) + X[:, 1]
        params = KernelParams(1.0, np.array([0.4, 0.4]), 1e-10)
        model = build_model(X, y, params)
        means, variances = gp_posterior_many(model, X)
        np.testing.assert_allclose(means, y, atol=1e-4)
        assert np.all(variances <= 1e-8 * params.signal_variance + 1e-10)

    def test_reverts_to_prior_far_from_data(self):
        X = np.full((4, 2), 0.5) + 1e-3 * np.arange(8).reshape(4, 2)
        y = np.array([0.4, 0.6, 0.5, 0.7])
        params = KernelParams(2.0, np.array([0.01, 0.01]), 0.1, mean_constant=0.2)
        model = build_model(X, y, params)
        far = np.array([0.95, 0.05])  # tens of lengthscales away
        post = gp_posterior(model, far)
        prior_mean = model.target_mean + model.target_std * params.mean_constant
        prior_var = model.target_std**2 * (2.0 + 0.1)
        assert abs(post.mean - prior_mean) < 1e-3 * model.target_std
        assert abs(post.variance - prior_var) < 1e-3 * prior_var

    def test_matches_oracle_on_random_models(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(size=(5, 3))
        y = rng.normal(size=5)
        params = KernelParams(1.3, np.array([0.2, 0.5, 1.0]), 0.05, -0.1)
        model = build_model(X, y, params)
        probes = rng.uniform(size=(20, 3))
        means, variances = gp_posterior_many(model, probes)
        for i, x in enumerate(probes):
            mean, var = direct_posterior(model, x)
            assert means[i] == pytest.approx(mean, abs=1e-8)
            assert variances[i] == pytest.approx(var, abs=1e-8)

    def test_non_finite_query_raises(self):
        params = KernelParams(1.0, np.array([0.3]), 1e-3)
        model = build_model(np.array([[0.2], [0.8]]), np.array([1.0, 2.0]), params)
        with pytest.raises(ValueError):
            gp_posterior_many(model, np.array([[math.nan]]))

    def test_variance_nonnegative_everywhere(self):
        rng = np.random.default_rng(13)
        X = rng.uniform(size=(8, 2))
        y = rng.normal(size=8)
        model = gp_fit(X, y, restarts=2, rng=rng)
        _, variances = gp_posterior_many(model, rng.uniform(size=(500, 2)))
        assert np.all(variances >= 0)


class TestMLL:
    def test_single_point_closed_form(self):
        params = KernelParams(0.7, np.array([0.5]), 0.3)
        model = build_model(np.array([[0.5]]), np.array([3.0]), params)
        # one standardized target of 0: -(log 2pi + log(sv + nv)) / 2
        v = params.signal_variance + params.noise_variance
        expected = -0.5 * (math.log(2 * math.pi) + math.log(v))
        assert log_marginal_likelihood(model) == pytest.approx(expected, abs=1e-12)

    def test_pure_noise_closed_form_under_noise_doubling(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(6, 2))
        y = rng.normal(size=6)
        y_std = (y - y.mean()) / y.std()
        for nv in (0.5, 1.0):
            params = KernelParams(1e-10, np.array([0.5, 0.5]), nv)
            model = build_model(X, y, params)
            expected = (
                -0.5 * float(y_std @ y_std) / nv
                - 3.0 * math.log(nv)
                - 3.0 * math.log(2 * math.pi)
            )
            assert log_marginal_likelihood(model) == pytest.approx(expected, abs=1e-8)

    def test_agrees_with_direct_evaluation(self):
        rng = np.random.default_rng(21)
        X = rng.uniform(size=(4, 2))
        y = rng.normal(size=4)
        params = KernelParams(1.1, np.array([0.3, 0.8]), 0.02, 0.05)
        model = build_model(X, y, params)
        assert log_marginal_likelihood(model) == pytest.approx(
            direct_mll(model), abs=1e-10
        )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(size=(6, 3))
        y = rng.normal(size=6)
        sq = (X.T[:, :, None] - X.T[:, None, :]) ** 2
        theta = np.array([0.1, -0.4, 0.2, -0.9, -2.5, 0.15])
        _, grad = _mll_value_and_grad(theta, X, y, sq)
        h = 1e-5
        for i in range(len(theta)):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            fd = (
                _mll_value_and_grad(tp, X, y, sq)[0]
                - _mll_value_and_grad(tm, X, y, sq)[0]
            ) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)


class TestInvariances:
    def test_permutation_invariant_predictions(self):
        rng = np.random.default_rng(17)
        X = rng.uniform(size=(7, 2))
        y = rng.normal(size=7)
        params = KernelParams(0.9, np.array([0.3, 0.6]), 0.01)
        model = build_model(X, y, params)
        perm = rng.permutation(7)
        permuted = build_model(X[perm], y[perm], params)
        probes = rng.uniform(size=(10, 2))
        m1, v1 = gp_posterior_many(model, probes)
        m2, v2 = gp_posterior_many(permuted, probes)
        np.testing.assert_allclose(m1, m2, atol=1e-8)
        np.testing.assert_allclose(v1, v2, atol=1e-8)

    def test_standardization_equivariance(self):
        rng = np.random.default_rng(23)
        X = rng.uniform(size=(8, 2))
        y = np.sin(5 * X[:, 0]) + 0.3 * X[:, 1]
        a, b = 7.0, 2.5
        model = gp_fit(X, y, restarts=2, rng=np.random.default_rng(0))
        scaled = gp_fit(X, a + b * y, restarts=2, rng=np.random.default_rng(0))
        probes = rng.uniform(size=(10, 2))
        m1, v1 = gp_posterior_many(model, probes)
        m2, v2 = gp_posterior_many(scaled, probes)
        np.testing.assert_allclose(m2, a + b * m1, rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(np.sqrt(v2), b * np.sqrt(v1), rtol=1e-8, atol=1e-8)

    def test_degenerate_targets_use_unit_scale(self):
        model = gp_fit(np.array([[0.1], [0.9]]), np.array([4.0, 4.0]), restarts=2)
        assert model.degenerate_targets
        assert model.target_std == 1.0
        post = gp_posterior(model, np.array([0.5]))
        assert post.mean == pytest.approx(4.0, abs=1e-6)


def reference_mll_value_and_grad(theta, X, y_std, sq_diffs):
    """The MLL and gradient through scipy's checked Cholesky wrappers.

    Same arithmetic, in the same order, as the library's direct LAPACK path,
    which must reproduce it bit for bit: ``K^-1`` as ``L^-T L^-1`` from
    ``dtrtri`` and ``dsyrk`` on ``cho_factor``'s factor ``L``, with its lower
    triangle mirrored, the signal gradient as one ``vdot`` and the
    lengthscale gradients as one matrix-vector product.
    """
    n, d = X.shape
    sv = math.exp(theta[0])
    ls = np.exp(theta[1 : 1 + d])
    nv = math.exp(theta[1 + d])
    m = theta[2 + d]

    inv_ls_sq = 1.0 / (ls * ls)
    scaled_sq = np.tensordot(inv_ls_sq, sq_diffs, axes=(0, 0))
    s = math.sqrt(5.0) * np.sqrt(scaled_sq)
    exp_term = np.exp(-s)
    Kf = sv * (1.0 + s + s * s / 3.0) * exp_term
    K = Kf + nv * np.eye(n)

    for jitter in JITTERS:
        try:
            chol = cho_factor(K + jitter * np.eye(n), lower=True)
            break
        except np.linalg.LinAlgError:
            continue
    else:
        raise AssertionError("reference factorization failed")
    resid = y_std - m
    a = cho_solve(chol, resid)
    log_det = 2.0 * np.sum(np.log(np.diag(chol[0])))
    mll = -0.5 * float(resid @ a) - 0.5 * log_det - 0.5 * n * math.log(2.0 * math.pi)

    L_inv, info = dtrtri(chol[0], lower=1)
    assert info == 0
    lower_inv = dsyrk(1.0, np.tril(L_inv), trans=1, lower=1)
    K_inv = np.tril(lower_inv) + np.tril(lower_inv, -1).T
    A = np.outer(a, a) - K_inv
    grad = np.empty_like(theta)
    grad[0] = 0.5 * np.vdot(A, Kf)
    W = sv * (5.0 / 3.0) * (1.0 + s) * exp_term * A
    grad[1 : 1 + d] = 0.5 * (inv_ls_sq * (sq_diffs.reshape(d, -1) @ W.reshape(-1)))
    grad[1 + d] = 0.5 * nv * np.trace(A)
    grad[2 + d] = float(np.sum(a))
    return mll, grad, jitter


def _sq_diffs(X):
    return (X.T[:, :, None] - X.T[:, None, :]) ** 2


def dense_mll_value_and_grad(theta, X, y_std):
    """The MLL and gradient from ``np.linalg.inv`` and each dK/dtheta built whole.

    Uses the jitter of the first diagonal that ``np.linalg.cholesky`` accepts,
    as the library does.
    """
    n, d = X.shape
    sv, nv, m = math.exp(theta[0]), math.exp(theta[1 + d]), theta[2 + d]
    ls = np.exp(theta[1 : 1 + d])
    sq = (X[:, None, :] - X[None, :, :]) ** 2  # (n, n, d)
    r = np.sqrt(np.sum(sq / ls**2, axis=-1))
    decay = np.exp(-math.sqrt(5.0) * r)
    Kf = sv * (1.0 + math.sqrt(5.0) * r + 5.0 * r**2 / 3.0) * decay
    for jitter in JITTERS:
        K = Kf + (nv + jitter) * np.eye(n)
        try:
            np.linalg.cholesky(K)
            break
        except np.linalg.LinAlgError:
            continue
    K_inv = np.linalg.inv(K)
    resid = y_std - m
    a = K_inv @ resid
    mll = (
        -0.5 * resid @ a
        - 0.5 * np.linalg.slogdet(K)[1]
        - 0.5 * n * math.log(2.0 * math.pi)
    )
    # dk/dlog(ls_i) = dk/dr * dr/dlog(ls_i), with dr/dlog(ls_i) = -sq_i / (ls_i^2 r).
    dk_dr_over_r = -sv * (5.0 / 3.0) * (1.0 + math.sqrt(5.0) * r) * decay
    dKs = (
        [Kf]
        + [-dk_dr_over_r * sq[:, :, i] / ls[i] ** 2 for i in range(d)]
        + [nv * np.eye(n)]
    )
    grad = [0.5 * a @ dK @ a - 0.5 * np.trace(K_inv @ dK) for dK in dKs]
    return mll, np.array(grad + [np.sum(a)])


class TestDenseOracle:
    """The MLL and gradient against a dense oracle, to 1e-9 relative.

    The gradient's tolerance is relative to its largest component.
    """

    @staticmethod
    def assert_close(theta, X, y_std):
        mll, grad = _mll_value_and_grad(theta, X, y_std, _sq_diffs(X))
        dense_mll, dense_grad = dense_mll_value_and_grad(theta, X, y_std)
        assert mll == pytest.approx(dense_mll, rel=1e-9)
        scale = np.max(np.abs(dense_grad))
        np.testing.assert_allclose(grad, dense_grad, rtol=1e-9, atol=1e-9 * scale)

    def test_random_cases(self):
        rng = np.random.default_rng(2025)
        for _ in range(60):
            n = int(rng.integers(1, 61))
            d = int(rng.integers(1, 8))
            X = rng.uniform(size=(n, d))
            y_std = _standardize(rng.normal(size=n))[0]
            self.assert_close(_random_start(d, rng), X, y_std)

    def test_jitter_escalation(self):
        # A repeated point with one target: K + jitter I stays well conditioned
        # along the data, though K itself is singular.
        rng = np.random.default_rng(7)
        X = rng.uniform(size=(7, 3))
        X = np.vstack([X, X[:1]])
        y = rng.normal(size=8)
        y[7] = y[0]
        y_std = _standardize(y)[0]
        sq = _sq_diffs(X)
        # The smallest signal variance (near the optimizer's bound) whose
        # factorization needs jitter.
        for log_sv in np.linspace(math.log(1e-4), math.log(2e-4), 200):
            theta = np.array([log_sv, *np.log([0.1] * 3), math.log(1e-30), 0.1])
            if reference_mll_value_and_grad(theta, X, y_std, sq)[2] > 0:
                break
        else:
            raise AssertionError("no signal variance needed jitter")
        self.assert_close(theta, X, y_std)


class TestLapackPathMatchesReference:
    """The direct LAPACK path against scipy's ``cho_factor``/``cho_solve``."""

    def test_bitwise_equal_on_random_cases(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            n = int(rng.integers(1, 61))
            d = int(rng.integers(1, 8))
            X = rng.uniform(size=(n, d))
            y_std = _standardize(rng.normal(size=n))[0]
            theta = _random_start(d, rng)
            sq = _sq_diffs(X)
            mll, grad = _mll_value_and_grad(theta, X, y_std, sq)
            ref_mll, ref_grad, _ = reference_mll_value_and_grad(theta, X, y_std, sq)
            assert mll.hex() == ref_mll.hex()
            assert grad.tobytes() == ref_grad.tobytes()

    def test_bitwise_equal_under_jitter_escalation(self):
        rng = np.random.default_rng(7)
        X = np.repeat(rng.uniform(size=(6, 2)), 3, axis=0)  # every point thrice
        y_std = _standardize(rng.normal(size=18))[0]
        # Noise far below the optimizer's floor: K is numerically singular.
        theta = np.array([0.0, math.log(0.3), math.log(0.3), math.log(1e-20), 0.0])
        sq = _sq_diffs(X)
        ref_mll, ref_grad, jitter = reference_mll_value_and_grad(theta, X, y_std, sq)
        assert jitter > 0
        mll, grad = _mll_value_and_grad(theta, X, y_std, sq)
        assert mll.hex() == ref_mll.hex()
        assert grad.tobytes() == ref_grad.tobytes()
        params = KernelParams.from_theta(theta, 2)
        assert build_model(X, rng.normal(size=18), params).jitter == jitter

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        # OpenBLAS's threaded lauum, the L^T L step of potri, changes bits
        # under two threads even at n = 5; trtri and syrk do not.
        code = (
            "import numpy as np\n"
            "from paretobo.surrogate import _mll_value_and_grad, _random_start\n"
            "rng = np.random.default_rng(12)\n"
            "for n, d in ((5, 2), (20, 3), (55, 7)):\n"
            "    X = rng.uniform(size=(n, d))\n"
            "    y = rng.normal(size=n)\n"
            "    sq = (X.T[:, :, None] - X.T[:, None, :]) ** 2\n"
            "    mll, grad = _mll_value_and_grad(_random_start(d, rng), X, y, sq)\n"
            "    print(mll.hex(), grad.tobytes().hex())\n"
        )
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
            env.update({var: threads for var in BLAS_THREAD_VARS})
            result = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True
            )
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0].count("\n") == 3
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_theta_raises(self, bad):
        X = np.random.default_rng(3).uniform(size=(5, 2))
        theta = _default_start(2)
        theta[0] = bad
        with pytest.raises(ValueError):
            _mll_value_and_grad(theta, X, np.zeros(5), _sq_diffs(X))

    def test_init_mlls_are_reference_mlls_at_clipped_starts(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(size=(12, 3))
        y = np.sin(3 * X[:, 0]) + X[:, 1] * X[:, 2]
        warm = KernelParams(2e4, np.array([0.2, 5e3, 0.5]), 1e-9, 0.1)
        model = gp_fit(
            X, y, restarts=3, rng=np.random.default_rng(5),
            warm_start=build_model(X, y, warm),
        )

        start_rng = np.random.default_rng(5)
        starts = [warm.to_theta()] + [_random_start(3, start_rng) for _ in range(2)]
        bounds = np.array(
            [LOG_SIGNAL_BOUNDS]
            + [LOG_LENGTHSCALE_BOUNDS] * 3
            + [LOG_NOISE_BOUNDS, MEAN_BOUNDS]
        )
        lo, hi = bounds.T
        y_std = _standardize(y)[0]
        expected = [
            reference_mll_value_and_grad(np.clip(t, lo, hi), X, y_std, _sq_diffs(X))[0]
            for t in starts
        ]
        assert [v.hex() for v in model.fit_info["init_mlls"]] == [
            v.hex() for v in expected
        ]


def reference_cross_kernel(X1, X2, params):
    """The (m, n, d) difference-tensor form of the cross-kernel.

    Carries its own copy of the Matern-5/2 formula, with fresh arrays at every
    step, so the library's in-place evaluation is checked against it.
    """
    diff = X1[:, None, :] - X2[None, :, :]
    scaled_sq = np.sum((diff / params.lengthscales) ** 2, axis=-1)
    s = math.sqrt(5.0) * np.sqrt(np.maximum(scaled_sq, 0.0))
    return params.signal_variance * (1.0 + s + s * s / 3.0) * np.exp(-s)


class TestCrossKernel:
    @pytest.mark.parametrize("d", range(1, 8))
    def test_bitwise_equal_to_reference(self, d):
        rng = np.random.default_rng(100 + d)
        sizes = [(1, 1), (3, 17), (257, 40)]
        if d in (2, 3):
            sizes.append((8192, 50))  # front8k's candidate count
        for m, n in sizes:
            params = KernelParams(
                float(rng.uniform(0.1, 3.0)), rng.uniform(0.01, 2.0, size=d), 1e-3
            )
            X1 = rng.uniform(size=(m, d))
            X2 = rng.uniform(size=(n, d))
            got = _cross_kernel(X1, X2, params)
            assert got.shape == (m, n)
            assert np.array_equal(got, reference_cross_kernel(X1, X2, params))

    @pytest.mark.parametrize("d", [1, 3])
    def test_inputs_left_unchanged(self, d):
        rng = np.random.default_rng(300 + d)
        X = rng.uniform(size=(12, d))
        y = rng.normal(size=12)
        params = KernelParams(1.2, rng.uniform(0.1, 1.0, size=d), 1e-3, 0.1)
        model = build_model(X, y, params)
        probes = rng.uniform(size=(40, d))
        saved = [a.copy() for a in (X, probes, params.lengthscales)]
        _cross_kernel(probes, X, params)
        gp_posterior_many(model, probes)
        for before, after in zip(saved, (X, probes, params.lengthscales)):
            assert after.tobytes() == before.tobytes()
        assert model.train_inputs.tobytes() == X.tobytes()


class TestWorkspace:
    """One ``gp_fit``'s MLL scratch arrays must not carry state to another."""

    def test_repeated_fits_are_identical(self):
        rng = np.random.default_rng(31)
        X = rng.uniform(size=(25, 7))
        y = np.sin(4 * X[:, 0]) + X[:, 1] * X[:, 2] + 0.05 * rng.normal(size=25)
        first, second = (
            gp_fit(X, y, restarts=3, rng=np.random.default_rng(8)) for _ in range(2)
        )
        assert first.params.to_theta().tobytes() == second.params.to_theta().tobytes()
        assert repr(first.fit_info) == repr(second.fit_info)

    def test_reused_workspace_matches_the_reference(self):
        rng = np.random.default_rng(33)
        n, d = 20, 4
        X = rng.uniform(size=(n, d))
        y_std = _standardize(rng.normal(size=n))[0]
        sq = _sq_diffs(X)
        work = _MLLWorkspace(n)
        for _ in range(5):
            theta = _random_start(d, rng)
            mll, grad = _mll_value_and_grad(theta, X, y_std, sq, work)
            ref_mll, ref_grad, _ = reference_mll_value_and_grad(theta, X, y_std, sq)
            assert mll.hex() == ref_mll.hex()
            assert grad.tobytes() == ref_grad.tobytes()


def block_model(n, d=2, noise=0.05, seed=0):
    """A model on ``n`` random points and the row count of its posterior blocks."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, d))
    y = np.sin(3.0 * X.sum(axis=1)) + 0.1 * rng.normal(size=n)
    params = KernelParams(1.4, rng.uniform(0.2, 0.8, size=d), noise, 0.1)
    return build_model(X, y, params), KERNEL_BLOCK_CELLS // n


def dense_posterior(model, probes):
    """Means and ``k** - k*^T K^-1 k*`` (native units) by one dense solve."""
    params = model.params
    X = model.train_inputs
    K = reference_cross_kernel(X, X, params) + (
        params.noise_variance + model.jitter
    ) * np.eye(len(X))
    k_star = reference_cross_kernel(probes, X, params)
    resid = model.train_targets_std - params.mean_constant
    mean_std = params.mean_constant + k_star @ np.linalg.solve(K, resid)
    quad = np.sum(k_star.T * np.linalg.solve(K, k_star.T), axis=0)
    var_std = params.signal_variance + params.noise_variance - quad
    return (
        model.target_mean + model.target_std * mean_std,
        model.target_std**2 * var_std,
    )


class TestBlockedPosterior:
    @pytest.mark.parametrize("n", [1, 37])
    @pytest.mark.parametrize("extra,blocks", [(-1, 1), (0, 1), (1, 1), (1, 2)])
    def test_matches_a_dense_solve_at_block_edges(self, n, extra, blocks):
        model, rows = block_model(n)
        m = blocks * rows + extra  # rows - 1, rows, rows + 1 and 2 rows + 1
        probes = np.random.default_rng(n + m).uniform(size=(m, 2))
        means, variances = gp_posterior_many(model, probes)
        dense_means, dense_variances = dense_posterior(model, probes)
        np.testing.assert_allclose(variances, dense_variances, rtol=1e-10, atol=0)
        np.testing.assert_allclose(
            means, dense_means, rtol=1e-10, atol=1e-12 * model.target_std
        )

    def test_variance_never_negative(self):
        # Probes on the training points of a noise-free model: there the
        # subtracted quadratic form equals the prior variance, up to rounding.
        model, rows = block_model(60, noise=0.0)
        assert model.jitter == 0.0
        rng = np.random.default_rng(4)
        X = model.train_inputs
        probes = np.vstack([np.repeat(X, 3 * rows // len(X) + 1, axis=0), X + 1e-9])
        probes = probes[rng.permutation(len(probes))]
        _, variances = gp_posterior_many(model, probes)
        assert len(probes) > 3 * rows
        assert np.all(variances >= 0.0)

    @pytest.mark.parametrize("m,n", [(1000, 37), (5, 4000), (20000, 1)])
    def test_blocked_cross_kernel_is_bitwise_one_block(self, m, n):
        # The row blocks gp_posterior_many fills, against one whole-matrix fill.
        rng = np.random.default_rng(m + n)
        params = KernelParams(0.9, rng.uniform(0.1, 1.0, size=3), 1e-3)
        X1 = rng.uniform(size=(m, 3))
        X2 = rng.uniform(size=(n, 3))
        rows = KERNEL_BLOCK_CELLS // n
        assert m > rows  # at least two blocks
        one_block = _cross_kernel(X1, X2, params)
        work = np.empty((2, rows, n))
        for start in range(0, m, rows):
            block = X1[start : start + rows]
            k = np.empty((len(block), n))
            _fill_cross_kernel(block, X2, params, k, work[:, : len(block)])
            assert k.tobytes() == one_block[start : start + rows].tobytes()

    def test_points_with_other_column_counts_raise(self):
        one_d, _ = block_model(6, d=1)
        with pytest.raises(DataError, match="1 columns"):
            gp_posterior_many(one_d, np.linspace(0, 1, 5))
        three_d, _ = block_model(6, d=3)
        with pytest.raises(DataError, match="3 columns"):
            gp_posterior_many(three_d, np.random.default_rng(2).uniform(size=(4, 5)))
        assert len(gp_posterior_many(one_d, np.linspace(0, 1, 5)[:, None])[0]) == 5

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_point_in_the_last_block_raises(self, bad):
        model, rows = block_model(37)
        probes = np.random.default_rng(8).uniform(size=(2 * rows + 1, 2))
        probes[-1, 1] = bad
        with pytest.raises(NumericError, match="non-finite cross-kernel"):
            gp_posterior_many(model, probes)


def lbfgs_problem(seed, n, d, failing=None):
    """gp_fit's objective, the negated MLL, on random data of ``n`` by ``d``.

    Returns the objective, the theta bounds and a generator for starts. With
    ``failing`` "region", points with log noise variance below log(1e-5)
    return gp_fit's failure value (1e25 with a zero gradient); with
    "everywhere", every point does.
    """
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, d))
    y_std = _standardize(np.sin(3 * X @ rng.normal(size=d)) + 0.1 * rng.normal(size=n))[0]
    sq = _sq_diffs(X)

    def neg_mll(theta):
        if failing == "everywhere" or (failing == "region" and theta[1 + d] < math.log(1e-5)):
            return 1e25, np.zeros_like(theta)
        mll, grad = _mll_value_and_grad(theta, X, y_std, sq)
        return -mll, -grad

    lo, hi = np.array(
        [LOG_SIGNAL_BOUNDS, *[LOG_LENGTHSCALE_BOUNDS] * d, LOG_NOISE_BOUNDS, MEAN_BOUNDS]
    ).T.copy()
    return neg_mll, lo, hi, rng


def start_for(kind, d, lo, hi, rng):
    if kind == "default":
        return _default_start(d)
    if kind == "random":
        return _random_start(d, rng)
    # Wider than the box, so that some coordinates are clipped onto a bound.
    return np.clip(rng.uniform(lo - (hi - lo) / 2, hi + (hi - lo) / 2), lo, hi)


class TestLBFGSDriver:
    """``surrogate.minimize`` against ``scipy.optimize.minimize``'s L-BFGS-B.

    The driver calls scipy's private ``setulb`` in place of ``minimize``; if a
    scipy release changes that routine or how ``minimize`` drives it, the
    points evaluated here stop matching.
    """

    @staticmethod
    def assert_same_run(fun, x0, lo, hi, maxiter, ftol):
        """Run both; return scipy's result and the driver's evaluation values."""
        points = {"driver": [], "scipy": []}
        values = []

        def recording(side):
            def evaluate(x):
                points[side].append(x.tobytes())
                value, grad = fun(x)
                if side == "driver":
                    values.append(value)
                x[:] = math.nan  # the caller must have passed a copy
                return value, grad

            return evaluate

        ours = surrogate_mod.minimize(recording("driver"), x0, lo, hi, maxiter, ftol)
        theirs = scipy_minimize(
            recording("scipy"),
            x0,
            jac=True,
            method="L-BFGS-B",
            bounds=list(zip(lo, hi)),
            options={"maxiter": maxiter, "ftol": ftol},
        )
        assert ours.x.tobytes() == theirs.x.tobytes()
        assert ours.nfev == theirs.nfev == len(points["driver"])
        assert points["driver"] == points["scipy"]
        return theirs, values

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 40),
        d=st.integers(1, 7),
        start=st.sampled_from(["default", "random", "clipped"]),
        ftol=st.sampled_from([LBFGS_FTOL, WARM_LBFGS_FTOL]),
        maxiter=st.sampled_from([LBFGS_MAXITER, 1, 4]),
        failing=st.sampled_from([None, "region", "everywhere"]),
    )
    def test_same_iterates_as_scipy(self, seed, n, d, start, ftol, maxiter, failing):
        fun, lo, hi, rng = lbfgs_problem(seed, n, d, failing)
        self.assert_same_run(fun, start_for(start, d, lo, hi, rng), lo, hi, maxiter, ftol)

    def test_constants_are_scipy_s_defaults(self):
        defaults = inspect.signature(_minimize_lbfgsb).parameters
        for name, value in (
            ("ftol", LBFGS_FTOL),
            ("gtol", surrogate_mod.LBFGS_PGTOL),
            ("maxcor", surrogate_mod.LBFGS_MEMORY),
            ("maxls", surrogate_mod.LBFGS_MAXLS),
        ):
            assert defaults[name].default == value

    @pytest.mark.parametrize("ftol", [LBFGS_FTOL, WARM_LBFGS_FTOL])
    def test_a_run_that_stops_at_the_iteration_cap(self, ftol):
        fun, lo, hi, _ = lbfgs_problem(8, 10, 6)
        result, _ = self.assert_same_run(
            fun, _default_start(6), lo, hi, LBFGS_MAXITER, ftol
        )
        assert result.nit == LBFGS_MAXITER
        assert "ITERATIONS REACHED LIMIT" in result.message

    def test_a_run_through_the_failure_value(self):
        fun, lo, hi, _ = lbfgs_problem(3, 12, 2, failing="region")
        _, values = self.assert_same_run(
            fun, _default_start(2), lo, hi, LBFGS_MAXITER, LBFGS_FTOL
        )
        assert 1e25 in values and min(values) < 1e25

    def test_a_start_at_the_failure_value_stays_put(self):
        fun, lo, hi, _ = lbfgs_problem(3, 12, 2, failing="everywhere")
        x0 = _default_start(2)
        result, values = self.assert_same_run(fun, x0, lo, hi, LBFGS_MAXITER, LBFGS_FTOL)
        assert values == [1e25]
        assert result.x.tobytes() == x0.tobytes()

    def test_lengths_setulb_does_not_check_are_checked(self):
        x0 = np.full(3, 0.5)
        box = -np.ones(3), np.ones(3)
        with pytest.raises(DataError, match="bounds"):
            surrogate_mod.minimize(lambda x: (0.0, x), x0, box[0][:1], box[1][:1], 5, LBFGS_FTOL)
        with pytest.raises(DataError, match="gradient"):
            surrogate_mod.minimize(lambda x: (0.0, x[:1]), x0, *box, 5, LBFGS_FTOL)
