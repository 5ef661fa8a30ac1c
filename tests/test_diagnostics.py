"""Front-dynamics diagnostics: EI decomposition and persistence."""

import numpy as np
import pytest

from paretobo.acquisition import (
    CandidateSet,
    dominates,
    ei,
    pareto_front,
    score_candidates,
)
from paretobo.cost import ConstantCost
from paretobo.diagnostics import ei_decomposition, front_persistence
from paretobo.surrogate import KernelParams, build_model, gp_posterior


def scored(points, model, cost_model, f_min):
    """Candidates at ``points`` under the given models, floor 1e-6."""
    points = np.asarray(points, dtype=float)
    return score_candidates(
        points, model, cost_model.predict_unit(points), f_min, cost_floor=1e-6
    )


def toy_model(seed, n=6):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, 2))
    y = rng.normal(size=n)
    params = KernelParams(1.0, np.array([0.3, 0.4]), 0.01)
    return build_model(X, y, params)


class TestDecomposition:
    def test_nothing_changed_gives_zeros(self):
        model = toy_model(0)
        x = np.array([0.5, 0.5])
        dec = ei_decomposition(model, model, 0.3, 0.3, x)
        assert abs(dec.global_term) < 1e-12
        assert abs(dec.local_term) < 1e-12
        assert abs(dec.exact_delta) < 1e-12

    def test_incumbent_drop_in_high_certainty_region(self):
        # at a point whose posterior sits far below both incumbents, the EI
        # change is exactly the incumbent drop and the local term vanishes
        model = toy_model(1)
        x = model.train_inputs[0]
        post = gp_posterior(model, x)
        sigma = np.sqrt(post.variance)
        y_min_t = post.mean + 8 * sigma + 1.0
        delta = 0.25
        dec = ei_decomposition(model, model, y_min_t, y_min_t - delta, x)
        assert dec.exact_delta == pytest.approx(-delta, abs=1e-6)
        assert dec.local_term == pytest.approx(0.0, abs=1e-6)

    def test_exact_delta_is_definitional(self):
        rng = np.random.default_rng(7)
        for seed in range(20):
            m_t = toy_model(seed)
            m_t1 = toy_model(seed + 100)
            y_t = float(rng.normal())
            y_t1 = y_t - abs(rng.normal())
            x = rng.uniform(size=2)
            dec = ei_decomposition(m_t, m_t1, y_t, y_t1, x)
            p_t = gp_posterior(m_t, x)
            p_t1 = gp_posterior(m_t1, x)
            direct = ei(p_t1.mean, np.sqrt(p_t1.variance), y_t1) - ei(
                p_t.mean, np.sqrt(p_t.variance), y_t
            )
            assert dec.exact_delta == pytest.approx(direct, abs=1e-12)
            assert dec.global_term + dec.local_term == pytest.approx(
                dec.exact_delta, abs=1e-12
            )


class TestPersistence:
    @staticmethod
    def front_of(model, cost_model, points, f_min):
        return pareto_front(scored(points, model, cost_model, f_min))

    def test_unchanged_models_full_survival(self):
        model = toy_model(2)
        cost_model = ConstantCost(log_cost=0.5, _space=None)
        rng = np.random.default_rng(3)
        points = rng.uniform(size=(12, 2))
        f_min = 0.0
        front = self.front_of(model, cost_model, points, f_min)
        stat = front_persistence(front, model, cost_model, f_min, front, 1e-6)
        assert stat.survived == stat.total == len(front)

    def test_constructed_dethroning(self):
        model = toy_model(4)
        cost_model = ConstantCost(log_cost=0.0, _space=None)
        old_point = model.train_inputs[0]
        old_front = CandidateSet(old_point[None, :], np.array([0.9]), np.array([1.0]))
        post = gp_posterior(model, old_point)
        # incumbent far below the posterior: re-scored EI collapses to ~0
        f_min = post.mean - 10 * np.sqrt(post.variance) - 5.0
        challenger = CandidateSet(np.array([[0.9, 0.9]]), np.array([0.5]), np.array([0.5]))
        stat = front_persistence(
            old_front, model, cost_model, f_min, challenger, cost_floor=1e-6
        )
        assert stat.total == 1
        assert stat.survived == 0

    def test_matches_brute_force_recount(self):
        rng = np.random.default_rng(9)
        for seed in range(10):
            m_t = toy_model(seed, n=5)
            m_t1 = toy_model(seed + 50, n=5)
            cost_model = ConstantCost(log_cost=0.2, _space=None)
            points = rng.uniform(size=(15, 2))
            prev_front = self.front_of(m_t, cost_model, points, 0.5)
            current = scored(rng.uniform(size=(15, 2)), m_t1, cost_model, 0.2)
            current_front = pareto_front(current)
            stat = front_persistence(
                prev_front, m_t1, cost_model, 0.2, current_front, 1e-6
            )

            new = scored(prev_front.points, m_t1, cost_model, 0.2)
            rescored = [new[i] for i in range(len(new))]
            union = rescored + [current_front[i] for i in range(len(current_front))]
            expected = sum(
                1
                for c in rescored
                if not any(
                    dominates(other, c) == "strict"
                    for other in union
                    if other is not c
                )
            )
            assert stat.survived == expected
            assert 0 <= stat.survived <= stat.total
            assert len(stat.flags) == stat.total
            assert stat.rescored.ei.tolist() == new.ei.tolist()
            assert stat.rescored.cost.tolist() == new.cost.tolist()
