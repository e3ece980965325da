"""Random measures with exponential-family jump densities.

Construct measures whose jump-size densities are proper exponential-family
densities with parameters varying along the index line, sample them by
Poisson superposition, verify them against closed-form and Monte Carlo
oracles, and push priors to posteriors through parametric translation.

``_PUBLIC`` is the one list of public names and of when each loads: it maps
each submodule to the names it serves, and ``__all__`` is every name there.
``import crmkit`` loads only the submodules of ``_AT_IMPORT``, those that
parse a config and build a context, and binds their names; the other
submodules and the names they serve load on first access (PEP 562).
"""

from importlib import import_module

_PUBLIC = {
    "config": ("config_hash", "load_json", "parse_component", "parse_prior_config", "parse_sample_config"),
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
    "errors": (
        "AtomLinkError",
        "ConditionError",
        "ConfigError",
        "CrmError",
        "DerivativeDomainError",
        "DivergenceError",
        "NaturalSpaceError",
        "SupportError",
        "TruncationError",
    ),
    "expfam": (
        "ExpFamilySpec",
        "ParameterPath",
        "SufficientStat",
        "Support",
        "family_names",
        "make_family",
        "moment_suff_stat",
        "raw_moment",
        "raw_moment_beta",
    ),
    "levy": (
        "BaseMeasure",
        "ConditionReport",
        "FiniteActivity",
        "InfiniteActivity",
        "LevyContext",
        "NotTimeHomogeneous",
        "check_conditions",
        "classify_activity",
        "density_table",
        "laplace_exponent",
        "levy_density_s",
        "levy_density_u",
        "levy_integrand",
        "stat_laplace",
    ),
    "piecewise": ("Piece", "PiecewiseFunction"),
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
# loaded with the package, in this order; each name they serve is bound here
_AT_IMPORT = ("config", "errors", "expfam", "levy", "piecewise")
globals().update(
    (name, getattr(import_module(f".{module}", __name__), name))
    for module in _AT_IMPORT
    for name in _PUBLIC[module]
)
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}


def __getattr__(name: str):
    """A public name not bound here, or a submodule of ``_PUBLIC``, imported on
    first access.  A name is looked up in its submodule on every access and
    never bound here, so a patch of the submodule's attribute, and its undoing,
    shows through the package."""
    module = _HOME.get(name, name)
    if module not in _PUBLIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f".{module}", __name__)
    return value if module == name else getattr(value, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"

__all__ = sorted(name for names in _PUBLIC.values() for name in names) + ["__version__"]
