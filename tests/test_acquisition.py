"""Acquisition family tests: EI math, dominance, fronts, selection rules."""

import math
import re
import tracemalloc
import typing
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import xlogy
from test_acceptance import _oracle_front_ids

from paretobo.acquisition import (
    CEI,
    AcquisitionKind,
    EI,
    Candidate,
    CandidateSet,
    EIAlpha,
    EICool,
    EIpu,
    IMPLIED_ALPHA_GRID,
    KINDS,
    MAX_CANDIDATE_COUNT,
    SOBOL_MAX_DIM,
    SelectionResult,
    _effective_alpha,
    cei_select,
    cost_floor_for,
    ei,
    ei_cool_alpha,
    ei_gradients,
    front_indices,
    generate_candidates,
    implied_alpha,
    kind_from_dict,
    kind_id,
    kind_to_dict,
    parse_kind,
    pareto_front,
    propose,
    select,
)
from paretobo.errors import ConfigError, NumericError, UsageError
from paretobo.surrogate import KernelParams, build_model


def cand(ei_value, cost, point=None):
    return Candidate(
        point=np.zeros(2) if point is None else point, ei=ei_value, cost_pred=cost
    )


def cset(pairs):
    """A scored set of (ei, cost) pairs whose point i is [i]."""
    eis, costs = np.array(pairs, dtype=float).reshape(-1, 2).T
    return CandidateSet(np.arange(len(eis), dtype=float)[:, None], eis, costs)


def pairs(cands):
    return list(zip(cands.ei.tolist(), cands.cost.tolist()))


def members(cands):
    return [cands[i] for i in range(len(cands))]


def score(kind, cand, spent=0.0):
    """Pointwise reference of select's score, log EI - alpha log cost."""
    with np.errstate(divide="ignore"):  # log(0) is -inf
        return float(np.log(cand.ei) - xlogy(_effective_alpha(kind, spent), cand.cost_pred))


def dominates(p, q):
    """Dominance of p over q in the (cost, EI) plane.

    Weak: p costs no more and has at least the EI of q. Strict: weak with
    at least one inequality strict.
    """
    if p.cost_pred <= q.cost_pred and p.ei >= q.ei:
        if p.cost_pred < q.cost_pred or p.ei > q.ei:
            return "strict"
        return "weak"
    return "none"


def brute_force_front(cands):
    """O(n^2) oracle: indices of the members no other member strictly dominates."""
    listed = members(cands)
    return [
        i
        for i, c in enumerate(listed)
        if not any(
            dominates(other, c) == "strict" for j, other in enumerate(listed) if j != i
        )
    ]


def random_candidates(rng, n, duplicates=False):
    if duplicates:
        eis = rng.choice(np.linspace(0, 1, 5), size=n)
        costs = rng.choice(np.linspace(0.5, 2.0, 5), size=n)
    else:
        eis = rng.uniform(0, 1, size=n)
        costs = rng.uniform(0.1, 5.0, size=n)
    return cset(np.column_stack([eis, costs]))


class TestEI:
    def test_deterministic_improvement(self):
        assert ei(1.0, 0.0, 3.0) == 2.0

    def test_no_improvement_possible(self):
        assert ei(3.0, 0.0, 1.0) == 0.0

    def test_matches_monte_carlo_at_zero_gap(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=1_000_000)
        samples = np.maximum(0.0, -z)
        mc = samples.mean()
        se = samples.std() / math.sqrt(len(samples))
        assert abs(ei(0.0, 1.0, 0.0) - mc) < 3 * se

    def test_always_at_least_deterministic_improvement(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            mu, sigma, f_min = rng.normal(), rng.uniform(0, 2), rng.normal()
            assert ei(mu, sigma, f_min) >= max(0.0, f_min - mu) - 1e-12

    def test_monotone_in_f_min_and_sigma(self):
        f_grid = np.linspace(-2, 2, 30)
        values = [ei(0.0, 1.0, f) for f in f_grid]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        s_grid = np.linspace(0.01, 3, 30)
        values = [ei(0.0, s, 0.5) for s in s_grid]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        h = 1e-5
        for _ in range(50):
            mu, sigma, f_min = rng.normal(), rng.uniform(0.05, 2), rng.normal()
            d_mu, d_sigma = ei_gradients(mu, sigma, f_min)
            fd_mu = (ei(mu + h, sigma, f_min) - ei(mu - h, sigma, f_min)) / (2 * h)
            fd_sigma = (ei(mu, sigma + h, f_min) - ei(mu, sigma - h, f_min)) / (2 * h)
            assert d_mu == pytest.approx(fd_mu, rel=1e-4, abs=1e-8)
            assert d_sigma == pytest.approx(fd_sigma, rel=1e-4, abs=1e-8)

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            ei(math.nan, 1.0, 0.0)
        with pytest.raises(NumericError):
            ei(0.0, -1.0, 0.0)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(11)
        mus = rng.normal(size=20)
        sigmas = rng.uniform(0, 2, size=20)
        values = ei(mus, sigmas, 0.3)
        for i in range(20):
            assert values[i] == pytest.approx(ei(mus[i], sigmas[i], 0.3), abs=1e-14)


class TestEICool:
    def test_starts_at_one(self):
        assert ei_cool_alpha(100.0, 20.0, 20.0) == 1.0

    def test_ends_at_zero(self):
        assert ei_cool_alpha(100.0, 20.0, 100.0) == 0.0

    def test_midpoint(self):
        assert ei_cool_alpha(100.0, 20.0, 60.0) == 0.5

    def test_clamps_outside_schedule(self):
        assert ei_cool_alpha(100.0, 20.0, 5.0) == 1.0
        assert ei_cool_alpha(100.0, 20.0, 150.0) == 0.0

    def test_bad_budgets(self):
        with pytest.raises(ConfigError):
            ei_cool_alpha(10.0, 10.0, 5.0)


class TestScore:
    def test_eipu_arithmetic(self):
        assert score(EIAlpha(1.0), cand(0.4, 4.0)) == pytest.approx(math.log(0.1))

    def test_alpha_zero_reduces_to_ei(self):
        assert score(EIAlpha(0.0), cand(0.4, 4.0)) == np.log(0.4)

    def test_alpha_half(self):
        assert score(EIAlpha(0.5), cand(0.4, 4.0)) == pytest.approx(math.log(0.2))

    def test_cool_uses_schedule(self):
        kind = EICool(total_budget=100.0, init_budget=20.0)
        assert score(kind, cand(0.4, 4.0), spent=100.0) == np.log(0.4)
        assert score(kind, cand(0.4, 4.0), spent=20.0) == pytest.approx(math.log(0.1))

    def test_cei_has_no_pointwise_score(self):
        with pytest.raises(UsageError):
            score(CEI(0.5), cand(0.4, 4.0))


class TestDominance:
    def test_strictly_better_in_both(self):
        assert dominates(cand(0.5, 1.0), cand(0.4, 2.0)) == "strict"

    def test_identical_is_weak_only(self):
        assert dominates(cand(0.4, 1.0), cand(0.4, 1.0)) == "weak"

    def test_tradeoff_pair_incomparable(self):
        assert dominates(cand(0.4, 1.0), cand(0.5, 2.0)) == "none"


class TestParetoFront:
    def test_three_point_example(self):
        front = pareto_front(cset([(0.5, 1.0), (0.4, 2.0), (0.9, 3.0)]))
        assert pairs(front) == [(0.5, 1.0), (0.9, 3.0)]
        assert front.points.tolist() == [[0.0], [2.0]]

    def test_single_candidate(self):
        front = pareto_front(cset([(0.3, 2.0)]))
        assert pairs(front) == [(0.3, 2.0)]
        assert front.points.tolist() == [[0.0]]

    def test_duplicates_both_retained(self):
        front = pareto_front(cset([(0.5, 1.0), (0.5, 1.0), (0.2, 2.0)]))
        assert len(front) == 2
        assert np.all(front.ei == 0.5)

    def test_sorted_by_ascending_cost(self):
        rng = np.random.default_rng(3)
        front = pareto_front(random_candidates(rng, 100))
        costs = front.cost.tolist()
        assert costs == sorted(costs)

    @pytest.mark.parametrize("duplicates", [False, True])
    def test_matches_brute_force_oracle(self, duplicates):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(1, 200))
            cands = random_candidates(rng, n, duplicates=duplicates)
            fast = pareto_front(cands)
            oracle = brute_force_front(cands)
            assert sorted(fast.points[:, 0].tolist()) == oracle


def loop_front_indices(eis, costs):
    """The former Python walk over cost groups, kept as the front reference."""
    order = np.lexsort((-eis, costs))
    front = []
    best_cheaper = -math.inf
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and costs[order[j]] == costs[order[i]]:
            j += 1
        group = order[i:j]
        group_max = eis[group[0]]
        if group_max > best_cheaper:
            front.extend(sorted(int(g) for g in group if eis[g] == group_max))
        best_cheaper = max(best_cheaper, group_max)
        i = j
    return front


def parity_sets(rng):
    """Scored sets with ties, duplicates, all-zero EI and a single point."""
    sets = []
    for n in (1, 2, 7, 40, 300):
        sets.append((rng.uniform(0, 1, size=n), rng.uniform(0.1, 5.0, size=n)))
        sets.append(
            (
                rng.choice(np.linspace(0, 1, 4), size=n),
                rng.choice(np.linspace(0.5, 2.0, 4), size=n),
            )
        )
        sets.append((np.zeros(n), rng.choice([0.5, 1.0, 1.5], size=n)))
    sets.append((np.array([0.0]), np.array([2.0])))
    return sets


def reference_select(kind, listed, spent):
    """Chosen index and threshold of a rule, candidate by candidate."""
    if isinstance(kind, CEI):
        threshold = (1.0 - kind.lam) * max(c.ei for c in listed)
        feasible = [i for i, c in enumerate(listed) if c.ei >= threshold]
        chosen = min(feasible, key=lambda i: (listed[i].cost_pred, -listed[i].ei, i))
        return chosen, threshold
    scores = [score(kind, c, spent) for c in listed]
    top = max(scores)
    best = [i for i, v in enumerate(scores) if v == top]
    return min(best, key=lambda i: (listed[i].cost_pred, -listed[i].ei, i)), None


class TestCandidateSetParity:
    KINDS = (
        EI(),
        EIpu(),
        EIAlpha(0.3),
        EIAlpha(2.0),
        EICool(total_budget=10.0, init_budget=1.0),
        CEI(0.0),
        CEI(0.5),
        CEI(1.0),
    )

    @staticmethod
    def scored_set(eis, costs, rng):
        return CandidateSet(points=rng.uniform(size=(len(eis), 3)), ei=eis, cost=costs)

    def test_front_matches_loop_reference(self):
        rng = np.random.default_rng(21)
        for eis, costs in parity_sets(rng):
            expected = loop_front_indices(eis, costs)
            assert front_indices(eis, costs).tolist() == expected
            scored = self.scored_set(eis, costs, rng)
            front = pareto_front(scored)
            assert pairs(front) == [(float(eis[i]), float(costs[i])) for i in expected]
            assert np.array_equal(front.points, scored.points[expected])
            assert not np.shares_memory(front.points, scored.points)
            for i in range(len(front)):
                assert not np.shares_memory(front[i].point, front.points)

    @pytest.mark.parametrize("kind", KINDS, ids=kind_id)
    def test_every_rule_agrees_on_lists_and_sets(self, kind):
        """The array rule picks what a candidate-by-candidate reference picks."""
        rng = np.random.default_rng(22)
        for eis, costs in parity_sets(rng):
            scored = self.scored_set(eis, costs, rng)
            listed = members(scored)
            for spent in (1.0, 5.5):
                sel = select(kind, scored, spent=spent)
                index, threshold = reference_select(kind, listed, spent)
                assert sel.chosen_index == index
                assert (sel.chosen.ei, sel.chosen.cost_pred) == (
                    listed[index].ei,
                    listed[index].cost_pred,
                )
                assert np.array_equal(sel.chosen.point, scored.points[index])
                assert sel.threshold == threshold
                assert sel.degenerate == (max(c.ei for c in listed) <= 0.0)
                assert pairs(sel.front) == pairs(pareto_front(scored))

    def test_empty_set_rejected(self):
        empty = CandidateSet(points=np.zeros((0, 2)), ei=np.zeros(0), cost=np.zeros(0))
        with pytest.raises(UsageError):
            pareto_front(empty)
        with pytest.raises(UsageError):
            select(EI(), empty)
        with pytest.raises(UsageError):
            cei_select(empty, 0.5)


class TestCEISelect:
    def test_three_candidate_example(self):
        cands = cset([(1.0, 10.0), (0.9, 2.0), (0.5, 1.0)])
        sel = cei_select(cands, 0.2)
        assert sel.threshold == pytest.approx(0.8)
        assert (sel.chosen.ei, sel.chosen.cost_pred) == (0.9, 2.0)

    def test_lambda_zero_picks_cheapest_max_ei(self):
        cands = cset([(1.0, 5.0), (1.0, 2.0), (0.9, 0.5)])
        sel = cei_select(cands, 0.0)
        assert (sel.chosen.ei, sel.chosen.cost_pred) == (1.0, 2.0)

    def test_lambda_one_picks_min_cost(self):
        cands = cset([(1.0, 5.0), (0.1, 0.5), (0.9, 2.0)])
        sel = cei_select(cands, 1.0)
        assert sel.chosen.cost_pred == 0.5

    def test_chosen_always_non_dominated(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            cands = random_candidates(rng, int(rng.integers(1, 60)), duplicates=True)
            sel = cei_select(cands, float(rng.uniform()))
            assert not any(
                dominates(other, sel.chosen) == "strict" for other in members(cands)
            )

    def test_lambda_monotonicity(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            cands = random_candidates(rng, 40)
            costs, eis = [], []
            for lam in np.linspace(0, 1, 11):
                sel = cei_select(cands, float(lam))
                costs.append(sel.chosen.cost_pred)
                eis.append(sel.chosen.ei)
            assert all(a >= b - 1e-12 for a, b in zip(costs, costs[1:]))
            assert all(a >= b - 1e-12 for a, b in zip(eis, eis[1:]))

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            cei_select(cset([]), 0.5)

    def test_is_select_with_cei(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            cands = random_candidates(rng, int(rng.integers(1, 60)), duplicates=True)
            lam = float(rng.uniform())
            got, want = cei_select(cands, lam), select(CEI(lam), cands)
            assert got.chosen_index == want.chosen_index
            assert (got.threshold, got.degenerate) == (want.threshold, want.degenerate)
            assert pairs(got.front) == pairs(want.front)

    @pytest.mark.parametrize("lam", [-0.1, 1.5, math.nan])
    def test_bad_lambda_rejected(self, lam):
        with pytest.raises(ConfigError, match=re.escape(f"lambda must be in [0, 1], got {lam}")):
            cei_select(cset([(1.0, 1.0)]), lam)


class TestSelect:
    def test_alpha_zero_equals_ei(self):
        rng = np.random.default_rng(37)
        cands = random_candidates(rng, 64)
        assert select(EI(), cands).chosen_index == select(EIAlpha(0.0), cands).chosen_index

    def test_eipu_equals_alpha_one(self):
        rng = np.random.default_rng(38)
        cands = random_candidates(rng, 64)
        assert select(EIpu(), cands).chosen_index == select(EIAlpha(1.0), cands).chosen_index

    def test_zero_ei_scores_minus_inf_when_cost_power_underflows(self):
        # Every cost**100 underflows to 0; in log space EI 0 scores -inf, not 0/0.
        cands = cset([(0.0, 1e-5), (0.2, 1e-4), (0.1, 2e-5)])
        assert select(EIAlpha(100.0), cands).chosen_index == 2
        assert score(EIAlpha(100.0), cands[0]) == -math.inf

    def test_order_kept_where_cost_power_underflows(self):
        # Both cost**100 underflow to 0, so EI / cost**100 would score inf twice;
        # log EI - 100 log cost is 1144.4 against 1150.3.
        cands = cset([(1e-3, 1e-5), (1.0, 1.01e-5)])
        assert select(EIAlpha(100.0), cands).chosen_index == 1

    def test_subnormal_ei_beats_zero_ei_at_equal_cost(self):
        # 5e-324 / 2 rounds to 0, the score of EI 0; log 5e-324 is finite.
        cands = cset([(0.0, 2.0), (5e-324, 2.0)])
        sel = select(EIAlpha(1.0), cands)
        assert sel.chosen_index == 1
        assert not sel.degenerate

    def test_tie_among_infinite_costs_goes_to_lower_index(self):
        cands = cset([(0.0, 1.0), (1.0, math.inf), (1.0, math.inf)])
        assert select(EI(), cands).chosen_index == 1

    def test_zero_ei_plateau_picks_cheapest(self):
        cands = cset([(0.0, 3.0), (0.0, 1.0), (0.0, 2.0)])
        sel = select(EI(), cands)
        assert sel.degenerate
        assert sel.chosen.cost_pred == 1.0

    def test_every_kind_picks_non_dominated(self):
        rng = np.random.default_rng(41)
        kinds = [EI(), EIpu(), EIAlpha(0.5), EIAlpha(2.0), CEI(0.25),
                 EICool(total_budget=10.0, init_budget=1.0)]
        for _ in range(50):
            cands = random_candidates(rng, 50, duplicates=True)
            for kind in kinds:
                sel = select(kind, cands, spent=float(rng.uniform(1, 10)))
                assert not any(
                    dominates(other, sel.chosen) == "strict" for other in members(cands)
                )


def loop_argmax_with_tiebreak(scores, eis, costs):
    """The tie-break as a filter: best score, then lower cost, higher EI, index."""
    tied = np.flatnonzero(scores == scores.max())
    tied = tied[costs[tied] == costs[tied].min()]
    tied = tied[eis[tied] == eis[tied].max()]
    return int(tied[0])


class TestSelectTieBreak:
    def test_tie_heavy_sets_match_the_loop_oracle(self):
        rng = np.random.default_rng(43)
        cases = [
            # exact EI ties at different costs, at equal costs, and all tied
            (np.array([[1.0, 1.0, 0.5], [0.5, 1.0, 1.0], [2.0, 2.0, 2.0]]),
             np.array([2.0, 1.0, 1.0])),
            (np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0]]),
             np.array([1.0, math.inf, math.inf])),
        ]
        for _ in range(200):
            k = int(rng.integers(1, 10))
            eis = rng.choice([0.0, 0.5, 1.0], size=(7, k))
            cases.append((eis, rng.choice([0.5, 1.0, math.inf], size=k)))
        for rows, costs in cases:
            for eis in rows:
                cands = cset(np.column_stack([eis, costs]))
                for kind in (EI(), EIpu(), EIAlpha(2.0)):
                    scores = np.array([score(kind, c) for c in members(cands)])
                    expected = loop_argmax_with_tiebreak(scores, eis, costs)
                    assert select(kind, cands).chosen_index == expected


class TestImpliedAlpha:
    def test_max_ei_choice_matches_alpha_zero(self):
        cands = cset([(1.0, 5.0), (0.6, 1.0), (0.2, 0.5)])
        sel = cei_select(cands, 0.0)  # picks the max-EI point
        value = implied_alpha(sel)
        assert value is not None
        # alpha = 0 must reproduce the choice
        assert int(np.argmax(cands.ei)) == sel.chosen_index

    def test_eipu_choice_interval_contains_one(self):
        # candidate 1 maximizes ei/cost; CEI with moderate lambda picks it
        cands = cset([(1.0, 4.0), (0.9, 1.0), (0.3, 0.9)])
        sel = cei_select(cands, 0.15)
        assert sel.chosen_index == 1
        eis, costs = cands.ei, cands.cost
        matched = [
            g
            for g, alpha in enumerate(IMPLIED_ALPHA_GRID)
            if int(np.argmax(eis / costs**alpha)) == sel.chosen_index
        ]
        lo = IMPLIED_ALPHA_GRID[matched[0]]
        hi = IMPLIED_ALPHA_GRID[matched[-1]]
        assert lo <= 1.0 <= hi
        value = implied_alpha(sel)
        assert lo <= value <= hi

    def test_grid_scan_matches_exhaustive_oracle(self):
        cands = cset([(1.0, 10.0), (0.9, 2.0), (0.5, 1.0)])
        sel = cei_select(cands, 0.2)
        eis, costs = cands.ei, cands.cost
        matches = []
        for alpha in IMPLIED_ALPHA_GRID:
            scores = eis / costs**alpha
            best = np.flatnonzero(scores == scores.max())
            best = best[costs[best] == costs[best].min()]
            matches.append(int(best[0]) == sel.chosen_index)
        value = implied_alpha(sel)
        if not any(matches):
            assert value is None
        else:
            runs = []
            start = None
            for g, hit in enumerate(matches):
                if hit and start is None:
                    start = g
                if not hit and start is not None:
                    runs.append((start, g - 1))
                    start = None
            if start is not None:
                runs.append((start, len(matches) - 1))
            best_run = max(runs, key=lambda r: r[1] - r[0] + 1)
            expected = 0.5 * (
                IMPLIED_ALPHA_GRID[best_run[0]] + IMPLIED_ALPHA_GRID[best_run[1]]
            )
            assert value == pytest.approx(expected)

    def test_none_when_unreproducible(self):
        # cheap mid-EI point shadowed at every alpha by the cheaper-but-lower
        # and dearer-but-higher alternatives
        cands = cset([(1.0, 1.0), (0.99, 0.99), (0.5, 0.98)])
        sel = cei_select(cands, 0.03)
        assert sel.chosen_index == 1
        assert implied_alpha(sel) is None or implied_alpha(sel) >= 0


def full_scan_implied_alpha(sel):
    """The 121-value scan over every candidate, with select's log score."""
    eis, costs = sel.candidates.ei, sel.candidates.cost
    matches = np.zeros(len(IMPLIED_ALPHA_GRID), dtype=bool)
    for g, alpha in enumerate(IMPLIED_ALPHA_GRID):
        with np.errstate(divide="ignore"):  # log(0) is -inf
            scores = np.log(eis) - xlogy(alpha, costs)
        matches[g] = loop_argmax_with_tiebreak(scores, eis, costs) == sel.chosen_index
    best_len, best_start = 0, -1
    run_len, run_start = 0, 0
    for g, hit in enumerate(matches):
        if hit:
            if run_len == 0:
                run_start = g
            run_len += 1
            if run_len > best_len:
                best_len, best_start = run_len, run_start
        else:
            run_len = 0
    if best_len == 0:
        return None
    lo = IMPLIED_ALPHA_GRID[best_start]
    hi = IMPLIED_ALPHA_GRID[best_start + best_len - 1]
    return float(0.5 * (lo + hi))


# EIs that are zero, subnormal or ordinary; costs of 0 clamp to the floor.
SPECIAL_EIS = st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308])
EI_VALUES = st.one_of(SPECIAL_EIS, st.floats(1e-300, 10.0))
COST_VALUES = st.one_of(st.just(0.0), st.floats(0.0, 100.0))


@st.composite
def clamped_sets(draw):
    """A scored set drawn from a few (EI, cost) pairs, so pairs repeat, with
    its costs clamped to a floor that many of them fall under."""
    pairs = draw(st.lists(st.tuples(EI_VALUES, COST_VALUES), min_size=1, max_size=12))
    picks = draw(st.lists(st.integers(0, len(pairs) - 1), min_size=1, max_size=40))
    floor = draw(st.sampled_from([1e-6, 0.37, 5.0]))
    eis = np.array([pairs[i][0] for i in picks])
    costs = np.maximum([pairs[i][1] for i in picks], floor)
    return CandidateSet(np.arange(len(eis), dtype=float)[:, None], eis, costs)


# A selection rule, or an int: the index of an arbitrary chosen member.
RULES = st.one_of(
    st.sampled_from([EI(), EIpu(), CEI(0.0), CEI(1.0)]),
    st.builds(EIAlpha, st.floats(0.0, 8.0)),
    st.builds(CEI, st.floats(0.0, 1.0)),
    st.integers(0, 40),
)


# Every selection rule; EI-cool cools over spends drawn from [0, 12].
SELECTION_RULES = st.one_of(
    st.sampled_from([EI(), EIpu(), EICool(total_budget=10.0, init_budget=1.0)]),
    st.builds(EIAlpha, st.floats(0.0, 8.0)),
    st.builds(CEI, st.floats(0.0, 1.0)),
)


class TestSelectionOnTheFront:
    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(cands=clamped_sets(), rule=SELECTION_RULES, spent=st.floats(0.0, 12.0))
    @example(cands=cset([(0.0, 2.0), (5e-324, 2.0)]), rule=EIAlpha(1.0), spent=0.0)
    def test_every_rule_picks_the_first_copy_of_a_front_member(self, cands, rule, spent):
        sel = select(rule, cands, spent=spent)
        index = sel.chosen_index
        assert index in _oracle_front_ids(cands.ei, cands.cost)
        copies = (cands.ei == sel.chosen.ei) & (cands.cost == sel.chosen.cost_pred)
        assert not np.any(copies[:index])


class TestImpliedAlphaExactness:
    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(cands=clamped_sets(), rule=RULES)
    @example(cands=cset([(0.3, 1.0)]), rule=CEI(0.5))
    @example(cands=cset([(0.0, 1.0)]), rule=EI())
    @example(cands=cset([(0.3, 1.0), (0.3, 1.0)]), rule=CEI(0.5))
    @example(cands=cset([(0.2, 1.0), (0.3, 1.0)]), rule=0)
    @example(cands=cset([(5e-324, 2.0), (0.0, 1.0)]), rule=CEI(1.0))
    @example(cands=cset([(0.9, 3.0), (0.3, 1.0)]), rule=CEI(0.5))
    # Off the front: an equal-cost member has a higher EI, and a higher log EI
    # at every alpha, so no grid value reproduces the choice.
    @example(cands=cset([(0.0, 2.0), (5e-324, 2.0)]), rule=0)
    @example(cands=cset([(1e-310, 100.0), (2e-310, 100.0)]), rule=0)
    def test_front_scan_equals_the_full_scan(self, cands, rule):
        if isinstance(rule, int):
            index = rule % len(cands)
            sel = SelectionResult(cands[index], index, pareto_front(cands), cands)
        else:
            sel = select(rule, cands)
        assert implied_alpha(sel) == full_scan_implied_alpha(sel)

    @pytest.mark.parametrize(
        "points,rule,expect_none",
        [
            # EI ties at alpha 0, at different costs and at equal costs
            ([(1.0, 1.0), (1.0, 2.0), (0.5, 0.5)], CEI(0.0), False),
            ([(1.0, 1.0), (1.0, 1.0), (0.5, 0.5)], CEI(0.0), False),
            ([(1.0, 1.0), (1.0, 1.0), (0.5, 0.5)], 1, True),
            ([(1.0, 1.0), (1.0, 2.0), (0.5, 0.5)], CEI(0.5), False),
            # three-way score tie at alpha = 1 only, which is not on the grid
            ([(0.5, 1.0), (0.5, 1.0), (1.0, 2.0), (0.25, 0.5)], CEI(0.5), True),
            # below the chord of its neighbours in (log cost, log EI)
            ([(1.0, 1.0), (1.105, 2.718), (2.718, 7.389)], CEI(0.62), True),
        ],
    )
    def test_front_scan_equals_the_full_scan_with_ties(self, points, rule, expect_none):
        cands = cset(points)
        if isinstance(rule, int):
            sel = SelectionResult(cands[rule], rule, pareto_front(cands), cands)
        else:
            sel = select(rule, cands)
        assert implied_alpha(sel) == full_scan_implied_alpha(sel)
        assert (implied_alpha(sel) is None) == expect_none

    @pytest.mark.parametrize("duplicates", [False, True])
    def test_front_scan_equals_the_full_scan_on_large_sets(self, duplicates):
        rng = np.random.default_rng(17)
        for _ in range(20):
            cands = random_candidates(rng, 2000, duplicates=duplicates)
            for kind in (CEI(0.1), CEI(0.5), EIpu(), EIAlpha(0.3)):
                sel = select(kind, cands)
                assert implied_alpha(sel) == full_scan_implied_alpha(sel)


class TestCandidateGeneration:
    def test_deterministic_given_rng_state(self):
        a = generate_candidates(3, None, 64, np.random.default_rng(5))
        b = generate_candidates(3, None, 64, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)
        c = generate_candidates(np.int64(3), None, np.int64(64), np.random.default_rng(5))
        np.testing.assert_array_equal(a, c)

    def test_includes_history_perturbations(self):
        hist = np.array([[0.5, 0.5]])
        cands = generate_candidates(2, hist, 32, np.random.default_rng(0))
        assert cands.shape == (32 + 10, 2)
        assert np.all((cands >= 0) & (cands <= 1))

    def test_pool_mode_snaps_to_rows(self):
        pool = np.random.default_rng(1).uniform(size=(20, 3))
        cands = generate_candidates(3, None, 64, np.random.default_rng(2), pool)
        assert cands.shape == (20, 3)
        np.testing.assert_array_equal(cands, pool)

    def test_pool_subsampling(self):
        pool = np.random.default_rng(1).uniform(size=(50, 2))
        cands = generate_candidates(2, None, 16, np.random.default_rng(2), pool)
        assert cands.shape == (16, 2)
        pool_rows = {tuple(row) for row in pool}
        assert all(tuple(row) in pool_rows for row in cands)

    @pytest.mark.parametrize("dim", [*range(1, 12), 21, 40])
    def test_sobol_points_are_the_bytes_of_scipy_qmc(self, dim):
        # Only the library must not import scipy.stats; the oracle may.
        from scipy.stats import qmc

        for n in (1, 2, 3, 5, 64, 128, 129, 250, 1000, 1024, 8192):
            for seed in range(3):
                ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # n not a power of 2
                    expected = qmc.Sobol(dim, scramble=True, seed=theirs).random(n)
                got = generate_candidates(dim, None, n, ours)
                assert (got.shape, got.dtype) == (expected.shape, expected.dtype)
                assert got.tobytes() == expected.tobytes(), (n, seed)
                # Both drew from one spawned child and left the parent's stream.
                assert ours.bit_generator.state == theirs.bit_generator.state
                assert ours.spawn(1)[0].random() == theirs.spawn(1)[0].random()

    @pytest.mark.parametrize(
        "dim,count,bad",
        [
            (SOBOL_MAX_DIM + 1, 64, "21202"),
            (0, 64, "got 0"),
            (2, MAX_CANDIDATE_COUNT + 1, "1073741825"),
        ],
        ids=["dim-above-table", "dim-zero", "count-above-2**30"],
    )
    def test_out_of_range_input_raises_before_allocating(self, dim, count, bad):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=bad):
                generate_candidates(dim, None, count, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestPropose:
    @staticmethod
    def toy_setup(seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(6, 2))
        y = np.sin(5 * X[:, 0]) + X[:, 1]
        model = build_model(X, y, KernelParams(1.0, np.array([0.3, 0.3]), 1e-4))

        class FakeCost:
            def predict_unit(self, pts):
                return 0.5 + 2.0 * pts[:, 0]

        return rng, X, y, model, FakeCost()

    def test_chosen_is_non_dominated(self):
        for seed in range(5):
            rng, X, y, model, cost_model = self.toy_setup(seed)
            for kind in (EI(), EIpu(), EIAlpha(0.3), CEI(0.5)):
                sel = propose(
                    kind, model, cost_model, y, cost_floor=0.01,
                    candidate_count=64, rng=rng,
                )
                scored = sel.candidates
                assert not np.any(
                    (scored.cost <= sel.chosen.cost_pred)
                    & (scored.ei >= sel.chosen.ei)
                    & ((scored.cost < sel.chosen.cost_pred) | (scored.ei > sel.chosen.ei))
                )
                assert pairs(sel.front) == pairs(pareto_front(scored))

    def test_cost_floor_applied(self):
        rng, X, y, model, _ = self.toy_setup(0)

        class TinyCost:
            def predict_unit(self, pts):
                return np.full(pts.shape[0], 1e-12)

        floor = cost_floor_for(np.array([2.0, 3.0]))
        assert floor == 0.02  # 0.01 * min cost
        sel = propose(
            EIpu(), model, TinyCost(), y, cost_floor=floor,
            candidate_count=32, rng=rng,
        )
        assert np.all(sel.candidates.cost == floor)

    def test_cost_floor_bounds(self):
        assert cost_floor_for(np.array([])) == 1e-6
        assert cost_floor_for(np.array([1e-5, 3.0])) == 1e-6


# Values after each kind's CLI name, in field order: EI-cool may stop early.
positive_budget = st.floats(min_value=1e-9, max_value=1e12)
KIND_VALUES = {
    EI: st.just([]),
    EIpu: st.just([]),
    EIAlpha: st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=1),
    EICool: st.lists(positive_budget, max_size=2),
    CEI: st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=1),
}


def reference_kind_id(kind):
    """``kind_id`` as it was written by hand, one branch per kind."""
    if isinstance(kind, EI):
        return "ei"
    if isinstance(kind, EIpu):
        return "eipu"
    if isinstance(kind, EIAlpha):
        return f"alpha{kind.alpha:g}"
    if isinstance(kind, EICool):
        return "ei-cool"
    if isinstance(kind, CEI):
        return f"cei{kind.lam:g}"
    raise AssertionError(f"no reference id for {kind!r}")


class TestKindCodecs:
    @pytest.mark.parametrize(
        "kind",
        [EI(), EIpu(), EIAlpha(0.7), CEI(0.25), EICool(total_budget=9.0, init_budget=2.0)],
    )
    def test_dict_round_trip(self, kind):
        assert kind_from_dict(kind_to_dict(kind)) == kind

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "ucb"},
            {"alpha": 0.5},
            {"kind": "cei"},
            {"kind": "ei_alpha", "lam": 0.5},
            {"kind": "ei", "alpha": 0.5},
            {"kind": "cei", "lam": 0.5, "alpha": 1.0},
        ],
    )
    def test_bad_payload_is_config_error(self, payload):
        with pytest.raises(ConfigError):
            kind_from_dict(payload)

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("ei", EI()),
            ("eipu", EIpu()),
            ("alpha:0.3", EIAlpha(0.3)),
            ("cei:0.75", CEI(0.75)),
            ("ei-cool:50", EICool(total_budget=50.0)),
            ("ei-cool:100:10", EICool(100.0, 10.0)),
            ("ei-alpha:0.3", EIAlpha(0.3)),
            ("ei_alpha:0.3", EIAlpha(0.3)),
            ("ei_cool", EICool()),
            ("cool", EICool()),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_kind(text) == expected

    @pytest.mark.parametrize(
        "text",
        [
            "entropy", "alpha:abc", "cei:x", "ei-cool:x",
            "ei:0.5", "eipu:2", "ei-cool:100:10:5",
            "alpha:nan", "alpha:inf", "alpha:-inf", "cei:nan",
            "ei-cool:nan", "ei-cool:inf", "ei-cool:0", "ei-cool:100:nan",
            "ei-cool:100:-1", "alpha", "cei", "alpha:0.1:0.2", "cool:1:2:3",
        ],
    )
    def test_parse_rejects_garbage(self, text):
        with pytest.raises(ConfigError, match=re.escape(repr(text))):
            parse_kind(text)

    def test_table_names_every_kind(self):
        assert set(KINDS) == set(typing.get_args(AcquisitionKind))

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.data())
    def test_every_cli_name_parses_its_fields_in_order(self, data):
        cls = data.draw(st.sampled_from(list(KINDS)), label="kind")
        name = data.draw(st.sampled_from(KINDS[cls][1]), label="name")
        values = data.draw(KIND_VALUES[cls], label="values")
        kind = cls(*values)
        text = "".join([name, *(f":{v!r}" for v in values)])
        assert parse_kind(text) == kind
        assert parse_kind(text.upper()) == kind
        assert kind_id(kind) == reference_kind_id(kind)

    def test_ids_unique(self):
        kinds = [EI(), EIpu(), EIAlpha(0.1), EIAlpha(1.0), CEI(0.5)]
        ids = [kind_id(k) for k in kinds]
        assert len(set(ids)) == len(ids)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigError):
            EIAlpha(-0.5)
        with pytest.raises(ConfigError):
            CEI(1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected_when_built(self, bad):
        with pytest.raises(ConfigError, match="alpha"):
            EIAlpha(bad)
        with pytest.raises(ConfigError, match="total_budget"):
            EICool(total_budget=bad)
        with pytest.raises(ConfigError, match="init_budget"):
            EICool(total_budget=100.0, init_budget=bad)

    @pytest.mark.parametrize("bad", [0.0, -5.0])
    def test_non_positive_ei_cool_budgets_rejected_when_built(self, bad):
        with pytest.raises(ConfigError, match="total_budget"):
            EICool(total_budget=bad)
        with pytest.raises(ConfigError, match="init_budget"):
            EICool(init_budget=bad)
