"""Unit-cube mapping tests for search spaces."""

import math

import numpy as np
import pytest

from paretobo.errors import BoundsError, ConfigError
from paretobo.space import (
    Dimension,
    SearchSpace,
    from_unit,
    sample_uniform,
    to_unit,
    xgboost_space,
)


def small_space():
    return SearchSpace(
        [
            Dimension("lr", "continuous", 1e-3, 1e3, "log"),
            Dimension("frac", "continuous", 0.0, 0.1, "linear"),
            Dimension("rounds", "integer", 1, 256, "log"),
            Dimension("depth", "integer", 1, 16, "linear"),
        ]
    )


class TestToUnit:
    def test_log_lower_bound_maps_to_zero(self):
        dim = Dimension("lr", "continuous", 1e-3, 1e3, "log")
        assert dim.to_unit(1e-3) == 0.0

    def test_log_geometric_midpoint(self):
        dim = Dimension("lr", "continuous", 1e-3, 1e3, "log")
        assert dim.to_unit(1.0) == pytest.approx(0.5, abs=1e-12)

    def test_linear_affine_midpoint(self):
        dim = Dimension("frac", "continuous", 0.0, 0.1, "linear")
        assert dim.to_unit(0.05) == pytest.approx(0.5, abs=1e-12)

    def test_out_of_bounds_names_dimension(self):
        space = small_space()
        with pytest.raises(BoundsError, match="frac"):
            to_unit(space, [1.0, 0.2, 8, 4])


class TestFromUnit:
    def test_integer_log_bounds(self):
        dim = Dimension("rounds", "integer", 1, 256, "log")
        assert dim.from_unit(0.0) == 1
        assert dim.from_unit(1.0) == 256

    def test_integer_linear_rounds_half_up(self):
        # affine map gives 1 + 0.5 * 15 = 8.5, which rounds half-up to 9
        dim = Dimension("depth", "integer", 1, 16, "linear")
        assert dim.from_unit(0.5) == 9

    def test_out_of_unit_interval_rejected(self):
        space = small_space()
        with pytest.raises(BoundsError):
            from_unit(space, [0.5, 1.1, 0.5, 0.5])

    def test_clamping_at_unit_endpoints(self):
        space = small_space()
        for coord in (0.0, 1.0):
            cfg = from_unit(space, [coord] * 4)
            for dim, value in zip(space.dims, cfg):
                assert dim.lower <= value <= dim.upper


class TestRoundTrip:
    def test_continuous_round_trip(self):
        space = SearchSpace(
            [
                Dimension("a", "continuous", 1e-3, 1e3, "log"),
                Dimension("b", "continuous", -5.0, 10.0, "linear"),
            ]
        )
        rng = np.random.default_rng(0)
        for _ in range(200):
            u = rng.uniform(size=2)
            cfg = from_unit(space, u)
            back = from_unit(space, to_unit(space, cfg))
            np.testing.assert_allclose(back, cfg, rtol=1e-12)

    def test_monotonicity_per_dimension(self):
        for dim in small_space().dims:
            grid = np.linspace(0.02, 0.98, 40)
            values = [dim.from_unit(g) for g in grid]
            units = [dim.to_unit(v) for v in sorted(set(values))]
            assert all(a < b for a, b in zip(units, units[1:]))


class TestSampleUniform:
    def test_shape_and_range(self):
        space = small_space()
        pts = sample_uniform(space, np.random.default_rng(7), 3)
        assert pts.shape == (3, 4)
        assert np.all((pts >= 0) & (pts <= 1))

    def test_deterministic_given_seed(self):
        space = small_space()
        a = sample_uniform(space, np.random.default_rng(11), 5)
        b = sample_uniform(space, np.random.default_rng(11), 5)
        np.testing.assert_array_equal(a, b)

    def test_law_of_large_numbers(self):
        space = small_space()
        pts = sample_uniform(space, np.random.default_rng(3), 10_000)
        means = pts.mean(axis=0)
        assert np.all((means > 0.45) & (means < 0.55))

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ConfigError):
            sample_uniform(small_space(), np.random.default_rng(0), 0)


class TestXGBoostSpace:
    def test_seven_dimensions(self):
        assert len(xgboost_space()) == 7

    def test_learning_rate_spec(self):
        dim = {d.name: d for d in xgboost_space().dims}["learning_rate"]
        assert dim.kind == "continuous"
        assert dim.scale == "log"
        assert (dim.lower, dim.upper) == (0.01, 1.0)

    def test_gamma_spec(self):
        dim = {d.name: d for d in xgboost_space().dims}["gamma"]
        assert dim.kind == "continuous"
        assert dim.scale == "linear"
        assert (dim.lower, dim.upper) == (0.0, 0.1)

    def test_boost_rounds_spec(self):
        dim = {d.name: d for d in xgboost_space().dims}["num_boost_round"]
        assert dim.kind == "integer"
        assert dim.scale == "log"
        assert (dim.lower, dim.upper) == (1, 256)


class TestValidation:
    def test_inverted_bounds(self):
        with pytest.raises(ConfigError):
            Dimension("x", "continuous", 2.0, 1.0)

    def test_log_requires_positive_lower(self):
        with pytest.raises(ConfigError):
            Dimension("x", "continuous", 0.0, 1.0, "log")

    def test_integer_bounds_must_be_integral(self):
        with pytest.raises(ConfigError):
            Dimension("x", "integer", 0.5, 4)

    @pytest.mark.parametrize(
        "lower,upper", [(-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0), (0.0, math.nan)]
    )
    def test_non_finite_bounds(self, lower, upper):
        with pytest.raises(ConfigError, match="finite"):
            Dimension("x", "continuous", lower, upper)

    @pytest.mark.parametrize("name", [["a"], 3, None])
    def test_name_must_be_a_string(self, name):
        with pytest.raises(ConfigError, match="not a string"):
            Dimension(name, "continuous", 0.0, 1.0)
        entry = {"name": name, "kind": "continuous", "lower": 0.0, "upper": 1.0}
        with pytest.raises(ConfigError, match="not a string"):
            SearchSpace.from_dict({"dimensions": [entry]})

    def test_duplicate_names(self):
        dim = Dimension("x", "continuous", 0, 1)
        with pytest.raises(ConfigError):
            SearchSpace([dim, dim])

    def test_empty_space(self):
        with pytest.raises(ConfigError):
            SearchSpace([])


class TestSerialization:
    def test_round_trip_file(self, tmp_path):
        space = xgboost_space()
        path = tmp_path / "space.json"
        space.save(path)
        loaded = SearchSpace.load(path)
        assert loaded.to_dict() == space.to_dict()

    def test_malformed_config(self, tmp_path):
        with pytest.raises(ConfigError):
            SearchSpace.from_dict({"dimensions": [{"name": "x"}]})
        entry = {"name": "x", "kind": "continuous", "lower": "abc", "upper": 1.0}
        with pytest.raises(ConfigError, match="abc"):
            SearchSpace.from_dict({"dimensions": [entry]})
        path = tmp_path / "space.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="space.json"):
            SearchSpace.load(path)
