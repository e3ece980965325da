"""The public surface is pinned: a name joins an ``__all__`` only on purpose.

Adding or removing a public name means editing the lists below in the same
change, next to the caller that needs it.
"""

import dataclasses
import importlib
import inspect

import pytest

import crmkit

PACKAGE_ALL = [
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

MODULE_ALL = {
    "cli": ["main"],
    "config": [
        "config_hash",
        "load_json",
        "parse_component",
        "parse_sample_config",
        "parse_prior_config",
        "component_to_obj",
        "shift_component_obj",
        "override_component_obj",
    ],
    "conjugacy": [
        "ConjugatePair",
        "make_pair",
        "pair_names",
        "posterior_path",
        "posterior_context",
        "posterior_levy_density",
        "posterior_process_params",
        "finite_dim_tv",
    ],
    "construct": [
        "DiscretizationPlan",
        "sample_discretized",
        "discrete_laplace",
        "empirical_laplace",
        "discretization_gap",
        "LaplaceEstimate",
    ],
    "errors": [
        "CrmError",
        "SupportError",
        "NaturalSpaceError",
        "DerivativeDomainError",
        "ConditionError",
        "DivergenceError",
        "TruncationError",
        "AtomLinkError",
        "ConfigError",
    ],
    "expfam": [
        "Support",
        "SufficientStat",
        "ExpFamilySpec",
        "ParameterPath",
        "make_family",
        "family_names",
        "density",
        "moment_suff_stat",
        "raw_moment",
        "raw_moment_beta",
        "sample_each",
    ],
    "levy": [
        "BaseMeasure",
        "ConditionCheck",
        "ConditionReport",
        "check_conditions",
        "LevyContext",
        "levy_density_s",
        "levy_density_u",
        "levy_integrand",
        "laplace_exponent",
        "stat_laplace",
        "classify_activity",
        "FiniteActivity",
        "InfiniteActivity",
        "NotTimeHomogeneous",
        "density_table",
    ],
    "piecewise": ["Piece", "PiecewiseFunction", "checked_quad"],
    "sampler": [
        "CRMDraw",
        "LikelihoodDraw",
        "sample_crm",
        "sample_likelihood",
        "evaluate_path",
        "link_rule",
        "link_names",
    ],
    "verify": ["CheckRow", "SuiteResult", "run_suite", "suite_names", "report_csv"],
}


def test_package_all_is_pinned():
    assert crmkit.__all__ == PACKAGE_ALL
    for name in PACKAGE_ALL:
        assert hasattr(crmkit, name), name


@pytest.mark.parametrize("module", sorted(MODULE_ALL))
def test_module_all_is_pinned(module):
    mod = importlib.import_module(f"crmkit.{module}")
    assert mod.__all__ == MODULE_ALL[module]
    for name in mod.__all__:
        assert hasattr(mod, name), name


def test_importing_the_package_leaves_scipy_stats_unloaded(heavy_modules_after):
    # scipy.stats costs about half a second of import time and the package's
    # goodness-of-fit checks use scipy.special alone; scipy.integrate,
    # scipy.optimize and mpmath load on first use (a quadrature fallback, a
    # func-piece location, a pareto_loglog family), so none loads here
    assert heavy_modules_after("import crmkit") == []


def test_a_pareto_loglog_family_loads_mpmath(heavy_modules_after):
    assert heavy_modules_after("import crmkit; crmkit.make_family('pareto_loglog')") == ["mpmath"]


@pytest.mark.parametrize(
    "func, params",
    [
        (crmkit.classify_activity, ["ctx", "t"]),
        (crmkit.LevyContext.build, ["family", "path", "base", "k", "require_conditions"]),
        (crmkit.sample_crm, ["components", "z_max", "rng", "truncation"]),
        (crmkit.finite_dim_tv, ["pair", "eta", "observations"]),
        (crmkit.sample_discretized, ["ctx", "plan", "t", "rng"]),
        (crmkit.discrete_laplace, ["ctx", "plan", "t", "theta"]),
        (crmkit.empirical_laplace, ["ctx", "plan", "t", "theta", "replicates", "rng"]),
        (crmkit.levy_density_s, ["ctx", "t", "s"]),
        (crmkit.levy_density_u, ["ctx", "t", "u"]),
    ],
    ids=[
        "classify_activity",
        "LevyContext.build",
        "sample_crm",
        "finite_dim_tv",
        "sample_discretized",
        "discrete_laplace",
        "empirical_laplace",
        "levy_density_s",
        "levy_density_u",
    ],
)
def test_signatures_take_no_option_that_no_caller_sets(func, params):
    # the relative tolerance, the condition grid, the tail mass and the TV
    # grid size are fixed in their modules; every window is (0, t]
    assert list(inspect.signature(func).parameters) == params


def test_family_spec_fields_are_pinned():
    # a family declares its natural space once, in ``natural``
    assert [f.name for f in dataclasses.fields(crmkit.ExpFamilySpec)] == [
        "name",
        "support",
        "stats",
        "log_carrier",
        "log_partition_fn",
        "natural",
        "sampler",
        "cdf",
        "quantile",
        "cumulants",
        "stat_moment",
        "fixed",
    ]
