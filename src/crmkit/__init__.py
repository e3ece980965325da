"""Random measures with exponential-family jump densities.

Construct measures whose jump-size densities are proper exponential-family
densities with parameters varying along the index line, sample them by
Poisson superposition, verify them against closed-form and Monte Carlo
oracles, and push priors to posteriors through parametric translation.

``import crmkit`` loads only the modules that parse a config and build a
context (``errors``, ``piecewise``, ``expfam``, ``levy``, ``config``); the
other submodules and the names they serve load on first access (PEP 562).
"""

from importlib import import_module

from .config import (
    config_hash,
    load_json,
    parse_component,
    parse_prior_config,
    parse_sample_config,
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

# submodule -> the public names it serves; each loads on first access
_ON_FIRST_USE = {
    "conjugacy": (
        "ConjugatePair",
        "finite_dim_tv",
        "make_pair",
        "pair_names",
        "posterior_context",
        "posterior_levy_density",
        "posterior_path",
        "posterior_process_params",
    ),
    "construct": (
        "DiscretizationPlan",
        "LaplaceEstimate",
        "discrete_laplace",
        "discretization_gap",
        "empirical_laplace",
        "sample_discretized",
    ),
    "quadpack": (),
    "sampler": (
        "CRMDraw",
        "LikelihoodDraw",
        "evaluate_path",
        "link_names",
        "sample_crm",
        "sample_likelihood",
    ),
    "verify": ("run_suite", "suite_names"),
}
_HOME = {name: module for module, names in _ON_FIRST_USE.items() for name in names}


def __getattr__(name: str):
    """A name of a submodule in ``_ON_FIRST_USE``, or that submodule itself,
    imported on first access.  A name is looked up in its submodule on every
    access and never bound here, so a patch of the submodule's attribute, and
    its undoing, shows through the package."""
    module = _HOME.get(name, name)
    if module not in _ON_FIRST_USE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f".{module}", __name__)
    return value if module == name else getattr(value, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


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
