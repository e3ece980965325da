"""Random measures with exponential-family jump densities.

Construct measures whose jump-size densities are proper exponential-family
densities with parameters varying along the index line, sample them by
Poisson superposition, verify them against closed-form and Monte Carlo
oracles, and push priors to posteriors through parametric translation.
"""

from .conjugacy import (
    ConjugatePair,
    finite_dim_tv,
    make_pair,
    pair_names,
    posterior_context,
    posterior_levy_density,
    posterior_path,
    posterior_process_params,
)
from .config import (
    config_hash,
    load_json,
    parse_component,
    parse_prior_config,
    parse_sample_config,
)
from .construct import (
    DiscretizationPlan,
    LaplaceEstimate,
    discrete_laplace,
    discretization_gap,
    empirical_laplace,
    sample_discretized,
)
from .errors import (
    AtomLinkError,
    ConditionError,
    ConfigError,
    CrmError,
    DerivativeDomainError,
    DivergenceError,
    NaturalSpaceError,
    SupportError,
    TruncationError,
)
from .expfam import (
    ExpFamilySpec,
    ParameterPath,
    SufficientStat,
    Support,
    family_names,
    make_family,
    moment_suff_stat,
    raw_moment,
    raw_moment_beta,
)
from .levy import (
    BaseMeasure,
    ConditionReport,
    FiniteActivity,
    InfiniteActivity,
    LevyContext,
    NotTimeHomogeneous,
    check_conditions,
    classify_activity,
    density_table,
    laplace_exponent,
    levy_density_s,
    levy_density_u,
    levy_integrand,
    stat_laplace,
)
from .piecewise import Piece, PiecewiseFunction
from .sampler import (
    CRMDraw,
    LikelihoodDraw,
    evaluate_path,
    link_names,
    sample_crm,
    sample_likelihood,
)
from .verify import run_suite, suite_names

__version__ = "0.1.0"

__all__ = [
    "AtomLinkError",
    "BaseMeasure",
    "CRMDraw",
    "ConditionError",
    "ConditionReport",
    "ConfigError",
    "ConjugatePair",
    "CrmError",
    "DerivativeDomainError",
    "DiscretizationPlan",
    "DivergenceError",
    "ExpFamilySpec",
    "FiniteActivity",
    "InfiniteActivity",
    "LaplaceEstimate",
    "LevyContext",
    "LikelihoodDraw",
    "NaturalSpaceError",
    "NotTimeHomogeneous",
    "ParameterPath",
    "Piece",
    "PiecewiseFunction",
    "SufficientStat",
    "Support",
    "SupportError",
    "TruncationError",
    "check_conditions",
    "classify_activity",
    "config_hash",
    "density_table",
    "discrete_laplace",
    "discretization_gap",
    "empirical_laplace",
    "evaluate_path",
    "family_names",
    "finite_dim_tv",
    "laplace_exponent",
    "levy_density_s",
    "levy_density_u",
    "levy_integrand",
    "link_names",
    "load_json",
    "make_family",
    "make_pair",
    "moment_suff_stat",
    "pair_names",
    "parse_component",
    "parse_prior_config",
    "parse_sample_config",
    "posterior_context",
    "posterior_levy_density",
    "posterior_path",
    "posterior_process_params",
    "raw_moment",
    "raw_moment_beta",
    "run_suite",
    "sample_crm",
    "sample_discretized",
    "sample_likelihood",
    "stat_laplace",
    "suite_names",
    "__version__",
]
