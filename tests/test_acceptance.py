"""Acceptance suite: every criterion checked at its stated tolerance.

Each test prints one `[acceptance] criterion NN PASS/FAIL` line (visible
with `pytest -s` or in failure output). The two end-to-end criteria share
one grid of optimization runs built by a module-scoped fixture.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import rankdata

from paretobo.acquisition import (
    CEI,
    EI,
    CandidateSet,
    EIAlpha,
    EICool,
    EIpu,
    cei_select,
    ei,
    ei_cool_alpha,
    ei_gradients,
    kind_id,
    pareto_front,
    select,
)
from paretobo.bench import cost_suite_split
from paretobo.cli import build_problem, suite_problems, transfer_loto
from paretobo.cost import cost_rmse, fit_cost_model_unit, unit_matrix
from paretobo.diagnostics import ei_decomposition
from paretobo.engine import Iterations, RunConfig, constrained_best, run
from paretobo.space import Dimension, SearchSpace, from_unit
from paretobo.surrogate import (
    KernelParams,
    _cross_kernel,
    build_model,
    gp_fit,
    gp_posterior,
)

SEEDS = 20
ITERS = 50
CANDIDATES = 128
ALPHA_GRID = (0.0, 0.1, 0.3, 1.0)
RANK_MULTIPLE = 10.0  # the 1000% budget multiple


def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:02d} {status}: {detail}")
    assert ok, f"criterion {num:02d} failed: {detail}"


def test_criterion_01_ei_monte_carlo_oracle():
    """Closed-form EI vs 1e6-sample Monte Carlo, >= 196 of 200 in 3 SE.

    Triples span improvement probabilities from ~3e-5 to ~1 (|z| <= 4);
    beyond that the Monte Carlo estimate carries no information to test
    against. Each triple gets an independent sample.
    """
    started = time.time()
    rng = np.random.default_rng(101)
    hits = 0
    for _ in range(200):
        mu = float(rng.normal())
        sigma = float(rng.uniform(0.05, 2.0))
        f_min = mu + sigma * float(rng.uniform(-4.0, 4.0))
        z = rng.standard_normal(1_000_000)
        samples = np.maximum(0.0, f_min - (mu + sigma * z))
        mc = samples.mean()
        se = samples.std() / math.sqrt(len(samples))
        if abs(ei(mu, sigma, f_min) - mc) <= 3 * se:
            hits += 1
    elapsed = time.time() - started
    _report(
        1,
        hits >= 196 and elapsed < 60.0,
        f"{hits}/200 triples within 3 MC standard errors in {elapsed:.1f}s",
    )


def test_criterion_02_ei_gradient_check():
    """Analytic EI gradients vs central differences, 1e-4 relative.

    Points keep |z| <= 3.5 so both gradients stay clear of the float
    roundoff floor of the h = 1e-5 difference quotient.
    """
    rng = np.random.default_rng(102)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        mu = float(rng.normal())
        sigma = float(rng.uniform(0.01, 2.0))
        f_min = mu + sigma * float(rng.uniform(-3.5, 3.5))
        d_mu, d_sigma = ei_gradients(mu, sigma, f_min)
        fd_mu = (ei(mu + h, sigma, f_min) - ei(mu - h, sigma, f_min)) / (2 * h)
        fd_sigma = (ei(mu, sigma + h, f_min) - ei(mu, sigma - h, f_min)) / (2 * h)
        for analytic, fd in ((d_mu, fd_mu), (d_sigma, fd_sigma)):
            worst = max(worst, abs(analytic - fd) / max(abs(fd), 1e-8))
    _report(2, worst <= 1e-4, f"max relative gradient error {worst:.2e}")


def _direct_posterior(model, x):
    params = model.params
    X = model.train_inputs
    K = _cross_kernel(X, X, params) + (params.noise_variance + model.jitter) * np.eye(
        X.shape[0]
    )
    k_star = _cross_kernel(np.atleast_2d(x), X, params)[0]
    resid = model.train_targets_std - params.mean_constant
    mean_std = params.mean_constant + k_star @ np.linalg.solve(K, resid)
    var_std = (
        params.signal_variance
        + params.noise_variance
        - k_star @ np.linalg.solve(K, k_star)
    )
    return (
        model.target_mean + model.target_std * mean_std,
        model.target_std**2 * max(var_std, 0.0),
    )


def test_criterion_03_gp_correctness():
    """Posterior matches the O(n^3) oracle to 1e-8; MLL(final) >= MLL(init)."""
    rng = np.random.default_rng(103)
    worst = 0.0
    mll_ok = True
    for _ in range(50):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(1, 4))
        X = rng.uniform(size=(n, d))
        y = rng.normal(size=n)
        model = gp_fit(X, y, restarts=2, rng=rng)
        mll_ok = mll_ok and model.fit_info["mll"] >= max(
            model.fit_info["init_mlls"]
        ) - 1e-9
        for _ in range(4):
            x = rng.uniform(size=d)
            post = gp_posterior(model, x)
            mean, var = _direct_posterior(model, x)
            worst = max(worst, abs(post.mean - mean), abs(post.variance - var))
    _report(
        3,
        worst <= 1e-8 and mll_ok,
        f"max posterior deviation {worst:.2e}; MLL contract {'held' if mll_ok else 'broken'}",
    )


def _oracle_front_ids(eis, costs):
    """Vectorized O(n^2) non-dominated filter."""
    strict = (
        (costs[:, None] <= costs[None, :])
        & (eis[:, None] >= eis[None, :])
        & ((costs[:, None] < costs[None, :]) | (eis[:, None] > eis[None, :]))
    )
    return set(np.flatnonzero(~strict.any(axis=0)))


def test_criterion_04_pareto_oracle_equivalence():
    """pareto_front equals the brute-force set on 200 random candidate sets."""
    rng = np.random.default_rng(104)
    for trial in range(200):
        n = int(rng.integers(1, 513))
        if trial % 2 == 0:
            eis = rng.uniform(0, 1, size=n)
            costs = rng.uniform(0.1, 5.0, size=n)
        else:  # heavy duplication
            eis = rng.choice(np.linspace(0, 1, 7), size=n)
            costs = rng.choice(np.linspace(0.5, 2.0, 7), size=n)
        cands = CandidateSet(points=np.arange(n)[:, None], ei=eis, cost=costs)
        front = pareto_front(cands)
        got_ids = set(front.points[:, 0].tolist())
        expected_ids = _oracle_front_ids(eis, costs)
        if got_ids != expected_ids:
            _report(4, False, f"mismatch at trial {trial} (n={n})")
    _report(4, True, "200/200 candidate sets matched the brute-force front")


def _random_scored_set(rng):
    n = int(rng.integers(1, 65))
    if rng.uniform() < 0.3:  # duplicated plateaus
        eis = rng.choice(np.linspace(0, 0.8, 4), size=n)
        costs = rng.choice(np.linspace(0.5, 3.0, 4), size=n)
    else:
        eis = rng.uniform(0, 1, size=n)
        costs = rng.uniform(0.1, 5.0, size=n)
    return CandidateSet(points=np.zeros((n, 1)), ei=eis, cost=costs)


def test_criterion_05_pareto_membership_all_kinds():
    """Every selection rule returns a non-dominated candidate, 1000 sets."""
    rng = np.random.default_rng(105)
    total_budget, init_budget = 10.0, 1.0
    kinds = [EIAlpha(a) for a in (0.0, 0.1, 0.5, 1.0, 2.0)]
    kinds += [CEI(l) for l in (0.0, 0.25, 0.5, 0.75, 1.0)]
    schedule = [
        init_budget + frac * (total_budget - init_budget)
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    failures = 0
    for _ in range(1000):
        cands = _random_scored_set(rng)
        front_ids = _oracle_front_ids(cands.ei, cands.cost)
        for kind in kinds:
            if select(kind, cands).chosen_index not in front_ids:
                failures += 1
        for spent in schedule:
            kind = EICool(total_budget=total_budget, init_budget=init_budget)
            if select(kind, cands, spent=spent).chosen_index not in front_ids:
                failures += 1
    _report(5, failures == 0, f"{failures} dominated selections out of 15000")


def test_criterion_06_cei_lambda_monotonicity():
    """Chosen cost and EI non-increasing over the lambda sweep, 500 sets."""
    rng = np.random.default_rng(106)
    lams = np.round(np.linspace(0, 1, 11), 10)
    violations = 0
    for _ in range(500):
        cands = _random_scored_set(rng)
        costs, eis = [], []
        for lam in lams:
            sel = cei_select(cands, float(lam))
            costs.append(sel.chosen.cost_pred)
            eis.append(sel.chosen.ei)
        if any(b > a for a, b in zip(costs, costs[1:])):
            violations += 1
        if any(b > a for a, b in zip(eis, eis[1:])):
            violations += 1
    _report(6, violations == 0, f"{violations} monotonicity violations in 500 sweeps")


def test_criterion_07_ei_cool_endpoints():
    """alpha = 1 at the start of the schedule and 0 at the end, exactly."""
    start = ei_cool_alpha(100.0, 20.0, 20.0)
    end = ei_cool_alpha(100.0, 20.0, 100.0)
    _report(7, start == 1.0 and end == 0.0, f"alpha(start)={start}, alpha(end)={end}")


def test_criterion_08_cost_model_suite():
    """LV exactness, LV(k) nesting, and LV(3) <= WarpedGP at low data."""
    # (a) exactly log-linear data inside the model class
    space = SearchSpace(
        [Dimension(f"x{i}", "continuous", 1e-2, 1e2, "log") for i in range(5)]
    )
    rng = np.random.default_rng(108)
    U = rng.uniform(size=(30, 5))
    from paretobo.cost import CostSample

    samples = [
        CostSample(from_unit(space, u), float(np.exp(0.7 + 2.0 * u[1] - 1.0 * u[3])))
        for u in U
    ]
    exact_rmse = cost_rmse(
        fit_cost_model_unit(
            "lv3", space, unit_matrix(space, samples), [s.cost for s in samples]
        ),
        samples,
    )

    # (b) in-sample log-RMSE non-increasing in k
    suite_space, noisy, _ = cost_suite_split(np.random.default_rng(208), 40)
    nest = [
        cost_rmse(
            fit_cost_model_unit(
                f"lv{k}",
                suite_space,
                unit_matrix(suite_space, noisy),
                [s.cost for s in noisy],
            ),
            noisy,
        )
        for k in (1, 2, 3)
    ]
    nested_ok = nest[0] >= nest[1] - 1e-12 and nest[1] >= nest[2] - 1e-12

    # (c) LV(3) vs warped GP, held out, n_train <= 10, 50 seeds
    lv_scores, gp_scores = [], []
    for seed in range(50):
        data_rng = np.random.default_rng(308 + seed)
        sp, train, test = cost_suite_split(data_rng, 10)
        lv_scores.append(
            cost_rmse(
                fit_cost_model_unit(
                    "lv3", sp, unit_matrix(sp, train), [s.cost for s in train]
                ),
                test,
            )
        )
        gp_scores.append(
            cost_rmse(
                fit_cost_model_unit(
                    "warped_gp",
                    sp,
                    unit_matrix(sp, train),
                    [s.cost for s in train],
                    np.random.default_rng(seed),
                ),
                test,
            )
        )
    lv_mean, gp_mean = float(np.mean(lv_scores)), float(np.mean(gp_scores))
    ok = exact_rmse <= 1e-6 and nested_ok and lv_mean <= gp_mean
    _report(
        8,
        ok,
        f"exact {exact_rmse:.1e}; nesting {['%.3f' % v for v in nest]}; "
        f"LV(3) {lv_mean:.3f} vs WarpedGP {gp_mean:.3f} at n_train=10",
    )


def test_criterion_09_transfer_models():
    """Leave-one-task-out: task-aware <= naive mean log-RMSE."""
    table = {row["kind"]: row["mean_log_rmse"] for row in transfer_loto(20)}
    aware, naive = table["transfer_task_aware"], table["transfer_naive"]
    _report(9, aware <= naive, f"task-aware {aware:.4f} vs naive {naive:.4f}")


# ---------------------------------------------------------------------------
# Shared end-to-end grid for criteria 10 and 11
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def e2e_grid():
    methods = [EIAlpha(a) if a > 0 else EI() for a in ALPHA_GRID]
    problems = suite_problems("default")
    expensive = [p for p in problems if "expensive" in p]
    extra = [EIpu(), CEI(0.5)]

    started = time.time()
    traces = {}
    summaries = {}

    def execute(kind, problem_id, seed):
        problem = build_problem(problem_id, 0.0, seed=seed)
        cfg = RunConfig(
            seed=seed,
            acquisition=kind,
            budget=Iterations(ITERS),
            candidate_count=CANDIDATES,
        )
        trace = run(problem, cfg)
        for record in trace.records:  # fronts not needed; free the memory
            record.front = None
        key = (kind_id(kind), problem_id, seed)
        traces[key] = trace
        summaries[key] = {
            "cost": trace.total_cost,
            "regret": trace.final_incumbent - problem.f_opt,
        }

    for kind in methods:
        for problem_id in problems:
            for seed in range(SEEDS):
                execute(kind, problem_id, seed)
    for kind in extra:
        for problem_id in expensive:
            for seed in range(SEEDS):
                execute(kind, problem_id, seed)

    return {
        "traces": traces,
        "summaries": summaries,
        "problems": problems,
        "expensive": expensive,
        "elapsed": time.time() - started,
    }


def test_criterion_10_alpha_tradeoff(e2e_grid):
    """Mean total cost non-increasing in alpha (5% tol); EI best regret."""
    summaries = e2e_grid["summaries"]
    problems = e2e_grid["problems"]
    method_ids = [kind_id(EIAlpha(a) if a > 0 else EI()) for a in ALPHA_GRID]
    mean_cost = {}
    mean_regret = {}
    for mid in method_ids:
        costs = [summaries[(mid, p, s)]["cost"] for p in problems for s in range(SEEDS)]
        regrets = [
            summaries[(mid, p, s)]["regret"] for p in problems for s in range(SEEDS)
        ]
        mean_cost[mid] = float(np.mean(costs))
        mean_regret[mid] = float(np.mean(regrets))

    cost_seq = [mean_cost[mid] for mid in method_ids]
    monotone = all(b <= a * 1.05 for a, b in zip(cost_seq, cost_seq[1:]))
    ei_best = all(
        mean_regret["ei"] <= mean_regret[mid] + 1e-12 for mid in method_ids[1:]
    )
    in_time = e2e_grid["elapsed"] <= 15 * 60
    detail = (
        "mean cost over alpha "
        + " -> ".join(f"{c:.1f}" for c in cost_seq)
        + "; mean regret "
        + ", ".join(f"{mid}={mean_regret[mid]:.5f}" for mid in method_ids)
        + f"; grid built in {e2e_grid['elapsed']:.0f}s"
    )
    _report(10, monotone and ei_best and in_time, detail)


def test_criterion_11_cei_beats_eipu_on_expensive_optima(e2e_grid):
    """CEI(0.5) mean rank strictly better than EIpu at the 1000% multiple."""
    traces = e2e_grid["traces"]
    expensive = e2e_grid["expensive"]
    alpha_ids = [kind_id(EIAlpha(a) if a > 0 else EI()) for a in ALPHA_GRID]
    method_ids = alpha_ids + ["eipu", "cei0.5"]
    ranks = {mid: [] for mid in method_ids}
    for problem_id in expensive:
        for seed in range(SEEDS):
            minimal = min(traces[(g, problem_id, seed)].total_cost for g in alpha_ids)
            best = [
                constrained_best(traces[(mid, problem_id, seed)], RANK_MULTIPLE * minimal)[0]
                for mid in method_ids
            ]
            for mid, rank in zip(method_ids, rankdata(best, method="average")):
                ranks[mid].append(rank)
    cei_rank = float(np.mean(ranks["cei0.5"]))
    eipu_rank = float(np.mean(ranks["eipu"]))
    _report(
        11,
        cei_rank < eipu_rank,
        f"mean rank CEI(0.5) {cei_rank:.3f} vs EIpu {eipu_rank:.3f} "
        f"over {len(ranks['eipu'])} (problem, seed) pairs",
    )


def test_criterion_12_determinism(tmp_path):
    """Identical config and seed produce byte-identical trace files."""
    cfg = RunConfig(
        seed=11,
        acquisition=CEI(0.5),
        budget=Iterations(15),
        candidate_count=CANDIDATES,
    )
    paths = []
    for name in ("a", "b"):
        problem = build_problem("branin/expensive", 0.0, seed=11)
        trace = run(problem, cfg)
        path = tmp_path / f"{name}.jsonl"
        trace.write(path)
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    _report(12, identical, f"{paths[0].stat().st_size} bytes, identical={identical}")


def test_criterion_13_decomposition_identity():
    """global + local == exact delta to 1e-12; local term vanishes when
    the posterior is far below both incumbents."""
    rng = np.random.default_rng(113)
    worst_identity = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 8))
        X1 = rng.uniform(size=(n, 2))
        X2 = rng.uniform(size=(n, 2))
        p1 = KernelParams(
            float(rng.uniform(0.5, 2.0)), rng.uniform(0.2, 1.0, size=2), 0.01
        )
        p2 = KernelParams(
            float(rng.uniform(0.5, 2.0)), rng.uniform(0.2, 1.0, size=2), 0.02
        )
        m_t = build_model(X1, rng.normal(size=n), p1)
        m_t1 = build_model(X2, rng.normal(size=n), p2)
        y_t = float(rng.normal())
        y_t1 = y_t - abs(rng.normal())
        x = rng.uniform(size=2)
        dec = ei_decomposition(m_t, m_t1, y_t, y_t1, x)
        worst_identity = max(
            worst_identity, abs(dec.global_term + dec.local_term - dec.exact_delta)
        )

    model = build_model(
        rng.uniform(size=(5, 2)),
        rng.normal(size=5),
        KernelParams(1.0, np.array([0.3, 0.3]), 0.01),
    )
    x = model.train_inputs[2]
    post = gp_posterior(model, x)
    y_min_t = post.mean + 9 * math.sqrt(post.variance) + 2.0
    delta = 0.4
    dec = ei_decomposition(model, model, y_min_t, y_min_t - delta, x)
    certainty_ok = (
        abs(dec.exact_delta + delta) <= 1e-6 and abs(dec.local_term) <= 1e-6
    )
    _report(
        13,
        worst_identity <= 1e-12 and certainty_ok,
        f"max identity residual {worst_identity:.2e}; "
        f"high-certainty local term {dec.local_term:.2e}",
    )
