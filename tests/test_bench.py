"""Benchmark black-box tests: objectives, cost surfaces, tabular replay."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from paretobo.bench import (
    CheapOptimum,
    ExpLinear,
    ExpensiveOptimum,
    OBJECTIVES,
    load_tabular,
    make_synthetic,
)
from paretobo.errors import ConfigError, DataError, OutOfTableError
from paretobo.space import from_unit


class TestObjectives:
    def test_branin_minimum_matches_grid_refined_oracle(self):
        obj = OBJECTIVES["branin"]
        grid = np.meshgrid(np.linspace(0, 1, 120), np.linspace(0, 1, 120))
        pts = np.stack([grid[0].ravel(), grid[1].ravel()], axis=1)
        values = [obj.value(u) for u in pts]
        start = pts[int(np.argmin(values))]
        # local refinement from the best grid point
        res = minimize(
            obj.value, start, method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-12}
        )
        assert obj.f_opt == pytest.approx(res.fun, abs=1e-4)
        assert obj.value(obj.minimizer_unit) == pytest.approx(obj.f_opt, abs=1e-4)

    @pytest.mark.parametrize("name", ["hartmann3", "hartmann6", "rosenbrock"])
    def test_value_at_known_minimizer(self, name):
        obj = OBJECTIVES[name]
        assert obj.value(obj.minimizer_unit) == pytest.approx(obj.f_opt, abs=1e-4)
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert obj.value(rng.uniform(size=len(obj.space))) >= obj.f_opt - 1e-9

    @pytest.mark.parametrize("name", sorted(OBJECTIVES))
    def test_published_optimum_at_minimizer(self, name):
        obj = OBJECTIVES[name]
        assert abs(obj.value(obj.minimizer_unit) - obj.f_opt) <= 1e-9

    def test_unknown_objective_rejected(self):
        with pytest.raises(ConfigError):
            make_synthetic("styblinski", None)


class TestCostSurfaces:
    def test_exp_linear_degenerate_is_one(self):
        surface = ExpLinear(coefficients=(0.0, 0.0))
        rng = np.random.default_rng(1)
        for _ in range(50):
            assert surface(rng.uniform(size=2)) == 1.0

    def test_expensive_optimum_contrast_ratio(self):
        problem = make_synthetic("branin", ExpensiveOptimum(base=1.0, contrast=20.0))
        minimizer = OBJECTIVES["branin"].minimizer_unit
        corners = [np.array([i, j], dtype=float) for i in (0, 1) for j in (0, 1)]
        far_corner = max(corners, key=lambda c: np.linalg.norm(c - minimizer))
        _, cost_at_min = problem.evaluate(minimizer)
        _, cost_at_corner = problem.evaluate(far_corner)
        assert cost_at_min / cost_at_corner >= 10.0

    def test_cheap_optimum_trough_at_minimizer(self):
        problem = make_synthetic("hartmann3", CheapOptimum(base=1.0, contrast=20.0))
        minimizer = OBJECTIVES["hartmann3"].minimizer_unit
        _, cost_at_min = problem.evaluate(minimizer)
        assert cost_at_min == pytest.approx(1.0, rel=1e-9)
        rng = np.random.default_rng(2)
        for _ in range(100):
            _, c = problem.evaluate(rng.uniform(size=3))
            assert c >= cost_at_min - 1e-12

    @pytest.mark.parametrize(
        "surface,dim",
        [
            (ExpLinear(coefficients=(1.5, -0.5, 1.0)), 3),
            (ExpensiveOptimum(base=1.0, contrast=20.0, anchor=(0.3, 0.7)), 2),
            (ExpensiveOptimum(base=0.5, contrast=1000.0, anchor=(1.0, 1.0)), 2),
            (CheapOptimum(base=2.0, contrast=5.0, anchor=(0.5, 0.5)), 2),
        ],
    )
    def test_strictly_positive_on_probe(self, surface, dim):
        rng = np.random.default_rng(3)
        for u in rng.uniform(0.0, 1.0, size=(10_000, dim)):
            assert 0.0 < surface(u) < math.inf

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ExpLinear(coefficients=(800.0, 0.0)),
            lambda: ExpLinear(coefficients=(-800.0, 0.0)),
            lambda: ExpLinear(coefficients=(0.0, 0.0), bias=-760.0),
            lambda: ExpensiveOptimum(base=-1.0),
            lambda: ExpensiveOptimum(base=math.inf),
            lambda: ExpensiveOptimum(base=math.nan),
            lambda: CheapOptimum(base=1e308),
        ],
        ids=[
            "exp-overflow", "exp-underflow", "exp-bias-underflow", "base-negative",
            "base-inf", "base-nan", "peak-overflow",
        ],
    )
    def test_nonpositive_or_infinite_range_rejected_when_built(self, build):
        with pytest.raises(ConfigError, match="positive and finite"):
            build()

    @pytest.mark.parametrize(
        "objective,surface",
        [
            ("branin", ExpLinear(coefficients=(1.0, 1.0, 1.0))),
            ("hartmann3", ExpLinear(coefficients=(1.0, 1.0))),
            ("branin", CheapOptimum(anchor=(0.5, 0.5, 0.5))),
            ("hartmann3", ExpensiveOptimum(anchor=(0.5, 0.5))),
        ],
    )
    def test_surface_of_another_dimension_rejected(self, objective, surface):
        with pytest.raises(ConfigError, match="dimensional"):
            make_synthetic(objective, surface)

    def test_unknown_surface_rejected(self):
        with pytest.raises(ConfigError, match="unknown cost surface"):
            make_synthetic("branin", lambda u: 1.0)

    def test_contrast_must_exceed_one(self):
        with pytest.raises(ConfigError):
            ExpensiveOptimum(base=1.0, contrast=0.5)
        with pytest.raises(ConfigError):
            CheapOptimum(base=1.0, contrast=1.0)

    @pytest.mark.parametrize(
        "surface,name",
        [(CheapOptimum, "CheapOptimum"), (ExpensiveOptimum, "ExpensiveOptimum")],
    )
    def test_descriptor_names_the_anchored_surface(self, surface, name):
        # The trace's meta line carries this string.
        anchor = "anchor=(np.float64(0.5427728435726529), np.float64(0.15166666666666667))"
        expected = f"{name}(base=1.0, contrast=20.0, {anchor})"
        assert make_synthetic("branin", surface()).descriptor["cost"] == expected


class TestSyntheticBlackBox:
    def test_noiseless_is_pure(self):
        problem = make_synthetic("branin", ExpLinear(coefficients=(1.0, 1.0)), 0.0, 5)
        u = np.array([0.4, 0.6])
        assert problem.evaluate(u) == problem.evaluate(u)

    def test_noise_changes_objective_not_cost(self):
        problem = make_synthetic("branin", ExpLinear(coefficients=(1.0, 1.0)), 0.5, 5)
        u = np.array([0.4, 0.6])
        y1, c1 = problem.evaluate(u)
        y2, c2 = problem.evaluate(u)
        assert y1 != y2
        assert c1 == c2

    @pytest.mark.parametrize("noise_sd", [-1.0, math.nan, math.inf])
    def test_invalid_noise_rejected(self, noise_sd):
        with pytest.raises(ConfigError, match="noise_sd"):
            make_synthetic("branin", noise_sd=noise_sd)

    def test_descriptor_carries_problem_identity(self):
        problem = make_synthetic("hartmann3", None, 0.0, 9)
        desc = problem.descriptor
        assert desc["name"] == "hartmann3"
        assert desc["f_opt"] == problem.f_opt


class TestTabular:
    @staticmethod
    def write_table(path, space, rows):
        header = ",".join(space.names + ["y", "cost"])
        lines = [header]
        for cfg, y, c in rows:
            lines.append(",".join(str(v) for v in list(cfg) + [y, c]))
        path.write_text("\n".join(lines) + "\n")

    def test_exact_lookup(self, tmp_path):
        space = OBJECTIVES["branin"].space
        cfg = from_unit(space, np.array([0.25, 0.75]))
        path = tmp_path / "t.csv"
        self.write_table(path, space, [(cfg, 1.5, 2.5), (from_unit(space, np.array([0.9, 0.1])), 3.0, 1.0)])
        problem = load_tabular(path, space)
        from paretobo.space import to_unit

        y, c = problem.evaluate(to_unit(space, cfg))
        assert (y, c) == (1.5, 2.5)

    def test_single_row_any_in_tolerance_query(self, tmp_path):
        space = OBJECTIVES["branin"].space
        cfg = from_unit(space, np.array([0.5, 0.5]))
        path = tmp_path / "t.csv"
        self.write_table(path, space, [(cfg, 2.0, 4.0)])
        problem = load_tabular(path, space, tolerance=1.0)
        y, c = problem.evaluate(np.array([0.52, 0.49]))
        assert (y, c) == (2.0, 4.0)

    def test_matches_linear_scan_oracle(self, tmp_path):
        space = OBJECTIVES["branin"].space
        rng = np.random.default_rng(4)
        units = rng.uniform(size=(30, 2))
        rows = [(from_unit(space, u), float(i), float(i + 1)) for i, u in enumerate(units)]
        path = tmp_path / "t.csv"
        self.write_table(path, space, rows)
        problem = load_tabular(path, space, tolerance=10.0)
        from paretobo.space import to_unit

        table = np.array([to_unit(space, r[0]) for r in rows])
        for _ in range(50):
            q = rng.uniform(size=2)
            idx = int(np.argmin(np.linalg.norm(table - q, axis=1)))
            y, c = problem.evaluate(q)
            assert y == rows[idx][1]
            assert c == rows[idx][2]

    def test_out_of_table_query(self, tmp_path):
        space = OBJECTIVES["branin"].space
        path = tmp_path / "t.csv"
        self.write_table(path, space, [(from_unit(space, np.array([0.5, 0.5])), 1.0, 1.0)])
        problem = load_tabular(path, space)
        with pytest.raises(OutOfTableError):
            problem.evaluate(np.array([0.9, 0.9]))

    def test_candidate_pool_exposed_in_table_mode(self, tmp_path):
        space = OBJECTIVES["branin"].space
        rng = np.random.default_rng(5)
        rows = [(from_unit(space, u), 0.0, 1.0) for u in rng.uniform(size=(6, 2))]
        path = tmp_path / "t.csv"
        self.write_table(path, space, rows)
        assert load_tabular(path, space).candidate_pool.shape == (6, 2)

    def test_best_row_is_known_optimum(self, tmp_path):
        space = OBJECTIVES["branin"].space
        rows = [
            (from_unit(space, np.array([0.1, 0.2])), 5.0, 1.0),
            (from_unit(space, np.array([0.3, 0.4])), -2.0, 1.0),
        ]
        path = tmp_path / "t.csv"
        self.write_table(path, space, rows)
        assert load_tabular(path, space).f_opt == -2.0

    def test_optimum_skips_nan_rows(self, tmp_path):
        space = OBJECTIVES["branin"].space
        points = [from_unit(space, np.array(u)) for u in ([0.1, 0.2], [0.3, 0.4])]
        path = tmp_path / "t.csv"
        rows = [(points[0], 2.0, 1.0), (points[1], math.nan, 1.0)]
        self.write_table(path, space, rows)
        problem = load_tabular(path, space)
        assert problem.f_opt == 2.0
        assert problem.descriptor["f_opt"] == 2.0
        self.write_table(path, space, [(points[0], math.nan, 1.0)])
        assert load_tabular(path, space).f_opt is None

    def test_empty_and_malformed_files(self, tmp_path):
        space = OBJECTIVES["branin"].space
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(DataError):
            load_tabular(empty, space)
        headers_only = tmp_path / "h.csv"
        headers_only.write_text(",".join(space.names + ["y", "cost"]) + "\n")
        with pytest.raises(DataError):
            load_tabular(headers_only, space)
        bad = tmp_path / "bad.csv"
        bad.write_text(",".join(space.names + ["y", "cost"]) + "\nx,1,2,3\n")
        with pytest.raises(DataError):
            load_tabular(bad, space)
        nonpositive = tmp_path / "np.csv"
        nonpositive.write_text(",".join(space.names + ["y", "cost"]) + "\n0.0,1.0,2.0,0.0\n")
        with pytest.raises(DataError):
            load_tabular(nonpositive, space)
        for cost in ("nan", "inf"):
            nonfinite = tmp_path / f"{cost}.csv"
            header = ",".join(space.names + ["y", "cost"])
            nonfinite.write_text(f"{header}\n0.0,1.0,2.0,1.0\n0.0,1.0,2.0,{cost}\n")
            with pytest.raises(DataError, match=f"{cost}.csv:3: malformed row"):
                load_tabular(nonfinite, space)
        outside = tmp_path / "out.csv"
        outside.write_text(",".join(space.names + ["y", "cost"]) + "\n99.0,1.0,2.0,1.0\n")
        with pytest.raises(DataError, match="out.csv:2: malformed row"):
            load_tabular(outside, space)
