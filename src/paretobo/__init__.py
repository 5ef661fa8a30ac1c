"""Cost-aware Bayesian optimization with Pareto-efficient acquisitions."""

from .acquisition import (
    CEI,
    EI,
    Candidate,
    CandidateSet,
    EIAlpha,
    EICool,
    EIpu,
    SelectionResult,
    cei_select,
    ei,
    ei_cool_alpha,
    implied_alpha,
    pareto_front,
    propose,
    select,
)
from .bench import BlackBox, load_tabular, make_synthetic
from .cost import (
    CostSample,
    MetaFeatures,
    TransferDataset,
    cost_rmse,
    fit_cost_model_unit,
    select_features,
    transfer_fit,
)
from .engine import (
    Budget,
    Iterations,
    RunConfig,
    SimulatedCost,
    Trace,
    constrained_best,
    run,
)
from .space import Dimension, SearchSpace, from_unit, sample_uniform, to_unit, xgboost_space
from .surrogate import GPModel, KernelParams, Posterior, gp_fit, gp_posterior, log_marginal_likelihood

__version__ = "0.1.0"
