"""GP regression tests against direct linear-algebra oracles."""

import math

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from paretobo.errors import DataError
from paretobo.surrogate import (
    JITTERS,
    LOG_LENGTHSCALE_BOUNDS,
    LOG_NOISE_BOUNDS,
    LOG_SIGNAL_BOUNDS,
    MEAN_BOUNDS,
    KernelParams,
    _MLLWorkspace,
    _cross_kernel,
    _default_start,
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

    def test_accepts_one_dimensional_inputs(self):
        X = np.array([0.1, 0.4, 0.8])
        y = np.array([1.0, -0.5, 2.0])
        one_d = gp_fit(X, y, restarts=2, rng=np.random.default_rng(3))
        two_d = gp_fit(X[:, None], y, restarts=2, rng=np.random.default_rng(3))
        assert one_d.train_inputs.shape == (3, 1)
        assert one_d.params.to_theta().tobytes() == two_d.params.to_theta().tobytes()


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
    which must reproduce it bit for bit.
    """
    n, d = X.shape
    sv = math.exp(theta[0])
    ls = np.exp(theta[1 : 1 + d])
    nv = math.exp(theta[1 + d])
    m = theta[2 + d]

    inv_ls_sq = 1.0 / (ls * ls)
    scaled_sq = np.tensordot(inv_ls_sq, sq_diffs, axes=(0, 0))
    s = math.sqrt(5.0) * np.sqrt(np.maximum(scaled_sq, 0.0))
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

    A = np.outer(a, a) - cho_solve(chol, np.eye(n))
    grad = np.empty_like(theta)
    grad[0] = 0.5 * np.sum(A * Kf)
    base = sv * (5.0 / 3.0) * (1.0 + s) * exp_term
    for i in range(d):
        grad[1 + i] = 0.5 * np.sum(A * (base * (sq_diffs[i] * inv_ls_sq[i])))
    grad[1 + d] = 0.5 * nv * np.trace(A)
    grad[2 + d] = float(np.sum(a))
    return mll, grad, jitter


def _sq_diffs(X):
    return (X.T[:, :, None] - X.T[:, None, :]) ** 2


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
        model = gp_fit(X, y, restarts=3, rng=np.random.default_rng(5), warm_start=warm)

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
        work = _MLLWorkspace(n, d)
        for _ in range(5):
            theta = _random_start(d, rng)
            mll, grad = _mll_value_and_grad(theta, X, y_std, sq, work)
            ref_mll, ref_grad, _ = reference_mll_value_and_grad(theta, X, y_std, sq)
            assert mll.hex() == ref_mll.hex()
            assert grad.tobytes() == ref_grad.tobytes()
