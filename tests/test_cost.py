"""Cost-model tests: feature selection, linear/GP families, transfer."""

import hashlib
import math

import numpy as np
import pytest

from paretobo.bench import (
    cost_bench_space,
    cost_suite_split,
    synthetic_cost_samples,
    synthetic_transfer_tasks,
)
from paretobo.cost import (
    ONLINE_COST_KINDS,
    CostSample,
    MetaFeatures,
    LinearCost,
    TransferDataset,
    cost_rmse,
    fit_cost_model_unit,
    load_cost_csv,
    select_features,
    transfer_fit,
    unit_matrix,
)
from paretobo.errors import DataError, UsageError
from paretobo.space import Dimension, SearchSpace, from_unit, to_unit


def log_space(d=6):
    return SearchSpace(
        [Dimension(f"x{i}", "continuous", 1e-2, 1e2, "log") for i in range(d)]
    )


def make_samples(space, rng, n, log_cost_fn, noise_sd=0.0):
    U = rng.uniform(0.02, 0.98, size=(n, len(space)))
    samples = []
    for u in U:
        cfg = from_unit(space, u)
        logc = log_cost_fn(np.log(cfg), u)
        if noise_sd > 0:
            logc += noise_sd * rng.normal()
        samples.append(CostSample(config=cfg, cost=float(math.exp(logc))))
    return samples


def fit(kind, space, samples, rng=None):
    """Fit an online cost-model kind on samples through the unit-array API."""
    costs = np.array([s.cost for s in samples])
    return fit_cost_model_unit(kind, unit_matrix(space, samples), costs, rng)


def select(space, samples, k):
    return select_features(
        unit_matrix(space, samples), np.log([s.cost for s in samples]), k
    )


class TestSelectFeatures:
    def test_single_informative_feature(self):
        space = log_space()
        rng = np.random.default_rng(0)
        samples = make_samples(space, rng, 30, lambda lx, u: 3.0 * lx[1])
        assert select(space, samples, 1) == [1]

    def test_constant_cost_tie_break(self):
        space = log_space()
        rng = np.random.default_rng(1)
        U = rng.uniform(size=(10, 6))
        samples = [CostSample(from_unit(space, u), 2.5) for u in U]
        assert select(space, samples, 1) == [0]

    def test_two_features_ordered_by_strength(self):
        space = log_space()
        rng = np.random.default_rng(2)
        samples = make_samples(
            space, rng, 200, lambda lx, u: 4.0 * u[2] + 1.5 * u[5], noise_sd=0.01
        )
        assert select(space, samples, 2) == [2, 5]

    def test_matches_exhaustive_r_squared_oracle(self):
        space = log_space()
        rng = np.random.default_rng(3)
        samples = make_samples(
            space, rng, 60, lambda lx, u: u[0] - 2 * u[3] + 0.5 * u[4], noise_sd=0.1
        )
        U = np.array([to_unit(space, s.config) for s in samples])
        logc = np.log([s.cost for s in samples])
        r2 = np.array(
            [np.corrcoef(U[:, j], logc)[0, 1] ** 2 for j in range(len(space))]
        )
        oracle = sorted(range(len(space)), key=lambda j: (-r2[j], j))[:3]
        assert select(space, samples, 3) == oracle

    def test_too_few_samples(self):
        space = log_space()
        samples = [CostSample(from_unit(space, np.full(6, 0.5)), 1.0)] * 2
        with pytest.raises(DataError):
            select(space, samples, 1)


class TestLVFit:
    def test_exact_log_linear_recovery(self):
        space = log_space()
        rng = np.random.default_rng(4)
        samples = make_samples(space, rng, 40, lambda lx, u: 1.0 + 2.0 * lx[1])
        model = fit("lv1", space, samples)
        assert model.selected_features == (1,)
        assert cost_rmse(model, space, samples) <= 1e-8

    def test_constant_cost_intercept_only(self):
        space = log_space()
        rng = np.random.default_rng(5)
        U = rng.uniform(size=(12, 6))
        samples = [CostSample(from_unit(space, u), 3.7) for u in U]
        model = fit("lv1", space, samples)
        probes = rng.uniform(size=(20, 6))
        np.testing.assert_allclose(model.predict_unit(probes), 3.7, rtol=1e-10)

    def test_noisy_coefficients_within_three_se(self):
        space = log_space()
        rng = np.random.default_rng(6)
        true = np.array([2.0, -1.2, 0.7])
        samples = make_samples(
            space,
            rng,
            400,
            lambda lx, u: 0.5 + true[0] * u[0] + true[1] * u[1] + true[2] * u[2],
            noise_sd=0.05,
        )
        model = fit("lv3", space, samples)
        # independent normal-equations oracle on the same design
        U = np.array([to_unit(space, s.config) for s in samples])
        logc = np.log([s.cost for s in samples])
        feats = list(model.selected_features)
        X = U[:, feats] - U[:, feats].mean(axis=0)
        y = logc - logc.mean()
        beta = np.linalg.solve(X.T @ X, X.T @ y)
        np.testing.assert_allclose(np.sort(model.coef), np.sort(beta), atol=1e-8)
        resid = y - X @ beta
        sigma2 = resid @ resid / (len(y) - 3)
        se = np.sqrt(sigma2 * np.diag(np.linalg.inv(X.T @ X)))
        by_dim = dict(zip(feats, zip(model.coef, se)))
        for j, coef_true in enumerate(true):
            coef, se_j = by_dim[j]
            assert abs(coef - coef_true) <= 3 * se_j

    def test_rank_deficient_falls_back_to_ridge(self):
        space = SearchSpace(
            [
                Dimension("a", "continuous", 0.0, 1.0),
                Dimension("b", "continuous", 0.0, 1.0),
            ]
        )
        rng = np.random.default_rng(7)
        t = rng.uniform(size=10)
        samples = [
            CostSample(np.array([v, v]), float(np.exp(1.0 + v))) for v in t
        ]
        model = fit("lv2", space, samples)
        assert model.ridge_fallback
        assert cost_rmse(model, space, samples) <= 1e-6
        gplv = fit("gplv2", space, samples, np.random.default_rng(0))
        assert gplv.base.ridge_fallback
        assert gplv.ridge_fallback


class TestGPFamilies:
    def test_warped_gp_interpolates_training_costs(self):
        space = log_space(3)
        rng = np.random.default_rng(8)
        samples = make_samples(
            space, rng, 20, lambda lx, u: 0.5 * u[0] + np.sin(3 * u[1])
        )
        model = fit("warped_gp", space, samples, np.random.default_rng(0))
        for s in samples[:5]:
            pred = model.predict_unit(to_unit(space, s.config))[0]
            assert pred == pytest.approx(s.cost, rel=1e-3)

    def test_gplv_collapses_to_lv_on_log_linear_data(self):
        space = log_space()
        rng = np.random.default_rng(9)
        samples = make_samples(space, rng, 30, lambda lx, u: 1.0 + 2.0 * u[1])
        lv = fit("lv1", space, samples)
        gplv = fit("gplv1", space, samples, np.random.default_rng(0))
        U = np.array([to_unit(space, s.config) for s in samples])
        resid = np.log([s.cost for s in samples]) - lv.predict_log_unit(U)
        assert np.max(np.abs(resid)) <= 1e-8
        probes = rng.uniform(size=(30, 6))
        np.testing.assert_allclose(
            gplv.predict_log_unit(probes), lv.predict_log_unit(probes), atol=1e-6
        )

    def test_gplv_in_sample_never_worse_than_base(self):
        space = cost_bench_space(5)
        rng = np.random.default_rng(10)
        for seed in range(5):
            gen = np.random.default_rng(100 + seed)
            samples = synthetic_cost_samples(
                space, 30, gen, np.array([2.0, 0.0, -1.0, 0.5, 0.0]),
                interaction=(0, 2, 1.0), noise_sd=0.2,
            )
            gplv = fit("gplv3", space, samples, np.random.default_rng(seed))
            lv = fit("lv3", space, samples)
            lv_rmse = cost_rmse(lv, space, samples)
            assert cost_rmse(gplv, space, samples) <= lv_rmse + 1e-8

    def test_gplv_beats_warped_gp_on_interaction_data(self):
        gplv_scores, warped_scores = [], []
        for seed in range(20):
            gen = np.random.default_rng(200 + seed)
            space, train, test = cost_suite_split(gen, 50)
            gplv = fit("gplv3", space, train, np.random.default_rng(seed))
            warped = fit("warped_gp", space, train, np.random.default_rng(seed))
            gplv_scores.append(cost_rmse(gplv, space, test))
            warped_scores.append(cost_rmse(warped, space, test))
        assert np.mean(gplv_scores) <= np.mean(warped_scores)

    def test_limited_gp_uses_three_features(self):
        space = cost_bench_space(7)
        rng = np.random.default_rng(11)
        samples = synthetic_cost_samples(
            space, 40, rng, np.array([2.0, 0.0, -1.5, 0.0, 1.0, 0.0, 0.0])
        )
        model = fit("limited_gp3", space, samples, np.random.default_rng(0))
        assert len(model.selected_features) == 3
        assert set(model.selected_features) == {0, 2, 4}


class TestTransfer:
    def test_single_task_matches_naive(self):
        space = log_space(4)
        rng = np.random.default_rng(12)
        samples = make_samples(
            space, rng, 30, lambda lx, u: 1.0 + u[0] - 0.5 * u[2], noise_sd=0.02
        )
        data = TransferDataset(tasks=[(MetaFeatures(1000, 20, 3), samples)])
        aware = transfer_fit(space, data, "task_aware")
        naive = transfer_fit(space, data, "naive")
        assert aware.ridge_fallback  # constant meta columns centered to zero
        probes = rng.uniform(size=(25, 4))
        np.testing.assert_allclose(
            np.exp(aware.predict_log_unit(probes, MetaFeatures(1000, 20, 3))),
            np.exp(naive.predict_log_unit(probes)),
            rtol=1e-8,
        )

    def test_task_aware_recovers_meta_coefficient(self):
        space = log_space(4)
        rng = np.random.default_rng(13)
        tasks = []
        for rows in (100, 1000, 20_000, 500_000):
            meta = MetaFeatures(rows, int(rng.integers(5, 50)), 2)
            samples = make_samples(
                space, rng, 30, lambda lx, u: math.log(rows) + 2.0 * u[1]
            )
            tasks.append((meta, samples))
        data = TransferDataset(tasks=tasks)
        aware = transfer_fit(space, data, "task_aware")
        # trailing meta coefficients: [log rows, log cols, log1p classes]
        rows_coef = aware.coef[len(aware.selected_features)]
        assert rows_coef == pytest.approx(1.0, abs=1e-6)
        for meta, samples in tasks:
            assert cost_rmse(aware, space, samples, meta=meta) <= 1e-6

        naive = transfer_fit(space, data, "naive")
        naive_rmse = np.mean([cost_rmse(naive, space, s) for _, s in tasks])
        assert naive_rmse > 0.1  # cross-task bias it cannot express

    def test_leave_one_task_out_ordering(self):
        space = cost_bench_space(5)
        coefs = np.array([1.5, 0.0, -1.0, 0.0, 0.5])
        aware_rmse, naive_rmse = [], []
        for seed in range(3):
            rng = np.random.default_rng(300 + seed)
            data = synthetic_transfer_tasks(space, 5, 30, rng, coefs)
            for held in range(5):
                train = TransferDataset(
                    tasks=[t for i, t in enumerate(data.tasks) if i != held]
                )
                meta, test_samples = data.tasks[held]
                aware = transfer_fit(space, train, "task_aware")
                aware_rmse.append(cost_rmse(aware, space, test_samples, meta=meta))
                naive = transfer_fit(space, train, "naive")
                naive_rmse.append(cost_rmse(naive, space, test_samples))
        assert np.mean(aware_rmse) <= np.mean(naive_rmse)

    def test_task_aware_requires_meta_at_predict(self):
        space = log_space(4)
        rng = np.random.default_rng(14)
        tasks = [
            (
                MetaFeatures(int(rows), 10, 0),
                make_samples(space, rng, 20, lambda lx, u: u[0]),
            )
            for rows in (100, 10_000)
        ]
        aware = transfer_fit(space, TransferDataset(tasks=tasks), "task_aware")
        with pytest.raises(UsageError):
            aware.predict_unit(rng.uniform(size=(3, 4)))


class TestCostRMSE:
    def test_perfect_model_scores_zero(self):
        space = log_space(3)
        rng = np.random.default_rng(15)
        samples = make_samples(space, rng, 20, lambda lx, u: 1.0 + u[0])
        model = fit("lv1", space, samples)
        assert cost_rmse(model, space, samples) == pytest.approx(0.0, abs=1e-9)

    def test_constant_predictor_unit_error(self):
        space = log_space(2)
        m = 1.3
        model = LinearCost("constant", (), np.zeros(0), m, np.zeros(0))
        test = [
            CostSample(from_unit(space, np.array([0.3, 0.4])), math.exp(m + 1)),
            CostSample(from_unit(space, np.array([0.6, 0.7])), math.exp(m - 1)),
        ]
        assert cost_rmse(model, space, test) == pytest.approx(1.0)

    def test_matches_direct_recomputation(self):
        space = log_space(3)
        rng = np.random.default_rng(16)
        samples = make_samples(space, rng, 25, lambda lx, u: u[0] + 0.2 * u[2], 0.3)
        model = fit("lv2", space, samples[:15])
        test = samples[15:]
        expected = math.sqrt(
            np.mean(
                [
                    (math.log(model.predict_unit(to_unit(space, s.config))[0])
                     - math.log(s.cost)) ** 2
                    for s in test
                ]
            )
        )
        assert cost_rmse(model, space, test) == pytest.approx(expected, abs=1e-10)


class TestInvariants:
    def test_positivity_across_kinds(self):
        space = cost_bench_space(5)
        rng = np.random.default_rng(17)
        samples = synthetic_cost_samples(
            space, 25, rng, np.array([3.0, 0.0, -2.0, 1.0, 0.0]), noise_sd=0.3
        )
        U = np.array([to_unit(space, s.config) for s in samples])
        costs = np.array([s.cost for s in samples])
        probes = rng.uniform(size=(200, 5))
        for kind in ("constant", "lv1", "lv3", "warped_gp", "gplv3", "limited_gp3"):
            model = fit_cost_model_unit(kind, U, costs, np.random.default_rng(0))
            pred = model.predict_unit(probes)
            assert np.all(pred > 0)
            assert np.all(np.isfinite(pred))

    def test_lv_nesting_in_k(self):
        space = cost_bench_space(6)
        rng = np.random.default_rng(18)
        samples = synthetic_cost_samples(
            space, 40, rng, np.array([2.0, -1.0, 0.5, 0.2, 0.0, 0.0]), noise_sd=0.2
        )
        rmses = [
            cost_rmse(fit(f"lv{k}", space, samples), space, samples) for k in (1, 2, 3)
        ]
        assert rmses[0] >= rmses[1] - 1e-12
        assert rmses[1] >= rmses[2] - 1e-12

    def test_scale_equivariance_exact_for_lv(self):
        space = log_space(4)
        rng = np.random.default_rng(19)
        samples = make_samples(space, rng, 30, lambda lx, u: u[0] - u[2], 0.1)
        beta = 37.5
        scaled = [CostSample(s.config, s.cost * beta) for s in samples]
        m1 = fit("lv2", space, samples)
        m2 = fit("lv2", space, scaled)
        probes = rng.uniform(size=(20, 4))
        np.testing.assert_allclose(
            m2.predict_unit(probes), beta * m1.predict_unit(probes), rtol=1e-12
        )

    def test_scale_equivariance_gp_kinds(self):
        space = log_space(3)
        rng = np.random.default_rng(20)
        samples = make_samples(space, rng, 15, lambda lx, u: u[0] + 0.5 * u[1], 0.05)
        beta = 12.0
        scaled = [CostSample(s.config, s.cost * beta) for s in samples]
        m1 = fit("warped_gp", space, samples, np.random.default_rng(3))
        m2 = fit("warped_gp", space, scaled, np.random.default_rng(3))
        probes = rng.uniform(size=(20, 3))
        np.testing.assert_allclose(
            m2.predict_unit(probes), beta * m1.predict_unit(probes), rtol=1e-6
        )

    def test_low_data_fallback_to_constant(self):
        space = cost_bench_space(4)
        U = np.array([[0.2, 0.3, 0.4, 0.5], [0.6, 0.7, 0.8, 0.9]])
        costs = np.array([2.0, 8.0])
        model = fit_cost_model_unit("lv3", U, costs, np.random.default_rng(0))
        assert isinstance(model, LinearCost) and model.kind == "constant"
        assert model.predict_unit(U)[0] == pytest.approx(4.0)  # geometric mean


class TestCSV:
    def test_cost_csv_round_trip(self, tmp_path):
        space = log_space(2)
        path = tmp_path / "costs.csv"
        path.write_text("x0,x1,cost\n1.0,2.0,3.5\n0.5,10.0,1.25\n")
        samples = load_cost_csv(path, space)
        assert len(samples) == 2
        assert samples[0].cost == 3.5
        np.testing.assert_allclose(samples[1].config, [0.5, 10.0])

    def test_cost_csv_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,cost\n1.0,2.0\n")
        with pytest.raises(DataError, match="missing columns"):
            load_cost_csv(path, log_space(2))

    def test_cost_csv_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,x1,cost\n1.0,oops,2.0\n")
        with pytest.raises(DataError, match="malformed"):
            load_cost_csv(path, log_space(2))
        path.write_text("x0,x1,cost\n1.0,2.0,3.0\n1.0,2.0,nan\n")
        with pytest.raises(DataError, match="bad.csv:3: malformed row"):
            load_cost_csv(path, log_space(2))
        path.write_text("x0,x1,cost\n1.0,2.0,3.0\n\n1.0,2.0,nan\n")
        with pytest.raises(DataError, match="bad.csv:4: malformed row"):
            load_cost_csv(path, log_space(2))

    @pytest.mark.parametrize("bad_line", [2, 3000])
    def test_cost_csv_not_utf8(self, tmp_path, bad_line):
        path = tmp_path / "bin.csv"
        rows = [b"x0,x1,cost"] + [b"1.0,2.0,3.0"] * 3000
        rows[bad_line - 1] = b"1.0,\xff\xfe,3.0"
        path.write_bytes(b"\n".join(rows) + b"\n")
        with pytest.raises(DataError, match=f"bin.csv:{bad_line}: not UTF-8 text"):
            load_cost_csv(path, log_space(2))


class TestKindParity:
    """Every online kind, fallback included, keeps predicting the same bytes.

    The digest is the SHA-256 of each fit's kind, selected features and
    ``predict_log_unit`` output, over every kind in ``ONLINE_COST_KINDS`` at
    n in {2, 4, 6, 30} on fixed ``cost_suite_split`` data. A lossless change
    to the fitting code keeps it; a change meant to alter predictions
    updates it here and says why in CHANGES.md.
    """

    SHA = "3ccea5b716aa49a54953d434f3bcedcf6c8f4a8c215692afa63e31d8d9b20389"

    def test_predictions_digest(self):
        digest = hashlib.sha256()
        for n in (2, 4, 6, 30):
            space, train, test = cost_suite_split(np.random.default_rng(400 + n), n)
            U = unit_matrix(space, train)
            costs = np.array([s.cost for s in train])
            probes = unit_matrix(space, test[:50])
            for kind in ONLINE_COST_KINDS:
                model = fit_cost_model_unit(kind, U, costs, np.random.default_rng(n))
                label = f"{n} {kind} {model.kind} {model.selected_features}"
                digest.update(label.encode())
                digest.update(model.predict_log_unit(probes).tobytes())
        assert digest.hexdigest() == self.SHA


class TestTransferParity:
    """Both transfer kinds keep fitting and predicting the same bytes.

    The digest is the SHA-256 of each ``transfer_fit`` model's kind, selected
    features, ``coef`` and ``predict_log_unit(probes, meta)`` output, for
    ``task_aware`` and ``naive`` on fixed ``synthetic_transfer_tasks`` data
    with 1 task (the task-aware fit falls back to ridge) and with 5 tasks.
    ``meta`` is the first task's meta-features. A lossless change to the
    fitting code keeps it; a change meant to alter the transfer models
    updates it here and says why in CHANGES.md.
    """

    SHA = "2e66256cc7e46b89987f1a429ee483fbe352f7d36f7242d46433b77da6d573e3"

    def test_predictions_digest(self):
        space = cost_bench_space(7)
        coefs = np.array([2.0, 0.0, -1.5, 0.0, 1.0, 0.0, 0.0])
        digest = hashlib.sha256()
        for n_tasks in (1, 5):
            rng = np.random.default_rng(500 + n_tasks)
            data = synthetic_transfer_tasks(space, n_tasks, 30, rng, coefs)
            probes = rng.uniform(size=(50, len(space)))
            meta = data.tasks[0][0]
            for kind in ("task_aware", "naive"):
                model = transfer_fit(space, data, kind)
                label = f"{n_tasks} {model.kind} {model.selected_features}"
                digest.update(label.encode())
                digest.update(model.coef.tobytes())
                digest.update(model.predict_log_unit(probes, meta).tobytes())
        assert digest.hexdigest() == self.SHA
