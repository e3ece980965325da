"""The public surface is pinned: a name joins an ``__all__`` only on purpose.

Adding or removing a public name means editing the lists below in the same
change, next to the caller that needs it.
"""

import ast
import collections
import dataclasses
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

import crmkit
from crmkit import sampler

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
        "path_to_obj",
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
    "floatrepr": ["csv_rows"],
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
    "quadpack": ["REASONS", "qag"],
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
    # scipy.stats costs about half a second of import time and the package
    # never needs it; scipy.special and scipy.optimize load on first use (a
    # special function, a func-piece location), so neither loads here, and
    # with "scipy" among the heavy modules no scipy module does
    assert heavy_modules_after("import crmkit") == []


def test_pareto_loglog_loads_no_mpmath(heavy_modules_after, tmp_path):
    # on the face A(eta) is closed form; off it the density, the moments and
    # the quantile all read ln Gamma(a, x) in doubles from _log_upper_gamma,
    # which takes scipy.special, and E[(ln ln x)^m] takes one quadrature
    spec = "spec = crmkit.make_family('pareto_loglog')"
    on_face = f"import crmkit; {spec}; spec.at([-1.0, -2.5]).density([3.0, 20.0])"
    assert heavy_modules_after(on_face) == []
    density = f"import crmkit; {spec}; spec.at([-2.0, -2.5]).density([3.0, 20.0])"
    assert heavy_modules_after(density) == ["scipy", "scipy.special"]
    moment = f"import crmkit; {spec}; crmkit.moment_suff_stat(spec, [-2.0, -2.5], k=1, m=1)"
    assert heavy_modules_after(moment) == ["scipy", "scipy.special"]
    moment = f"import crmkit; {spec}; crmkit.moment_suff_stat(spec, [-2.0, -2.5], k=2, m=1)"
    # the quadrature is the package's own
    assert heavy_modules_after(moment) == ["scipy", "scipy.special"]
    newton = f"import crmkit; {spec}; spec.at([-2.0, -2.5]).quantile(0.5)"  # gamma shape -1.5
    assert heavy_modules_after(newton) == ["scipy", "scipy.special"]
    suite = f"from crmkit import cli; cli.main(['verify', '--suite', 'moments', '--out', {str(tmp_path)!r}])"
    assert "mpmath" not in heavy_modules_after(suite)


def test_verify_all_loads_no_scipy_integrate(heavy_modules_after, tmp_path):
    # every quadrature of every suite runs crmkit.quadpack
    suite = f"from crmkit import cli; cli.main(['verify', '--suite', 'all', '--out', {str(tmp_path)!r}])"
    loaded = heavy_modules_after(suite)
    assert "scipy.integrate" not in loaded and "mpmath" not in loaded, loaded


def _names_in_code(source: str) -> set:
    """Every identifier the code of ``source`` uses: names, attributes and the
    parts of imported module paths and names (strings and docstrings aside)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."), [node.asname])
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.update(node.module.split("."))
    return names


def test_piecewise_is_the_one_door_to_quadpack():
    # checked_quad integrates one integrand or a batch; no other module stages
    # QUADPACK's passes itself.  __init__ lists the submodule by a string key only
    package = Path(crmkit.__file__).parent
    naming = [
        path.stem for path in sorted(package.glob("*.py"))
        if {"quadpack", "_quadpack"} & _names_in_code(path.read_text())
    ]
    assert naming == ["piecewise"]


# what parsing a sample config and building its contexts needs; the other
# submodules load on first use
_BUILD_MODULES = ["crmkit.config", "crmkit.errors", "crmkit.expfam", "crmkit.levy", "crmkit.piecewise"]
_CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("config", ["gamma.json", "pareto_series.json"])
def test_parsing_a_sample_config_loads_only_the_modules_it_builds_with(crmkit_modules_after, config):
    text = repr((_CONFIGS / config).read_text())
    code = f"import crmkit; crmkit.parse_sample_config(crmkit.load_json({text}))"
    assert crmkit_modules_after(code) == _BUILD_MODULES


def test_a_location_integral_loads_quadpack_and_keeps_its_double(fresh_interpreter):
    # a gamma rate affine in z under an integer shape: levy_density_u is the
    # stretch's closed form and loads no quadrature, laplace_exponent's tilt
    # takes one 21-point pass
    code = """
import sys, crmkit
from crmkit.piecewise import Piece, PiecewiseFunction
rate = PiecewiseFunction([Piece(0.0, float("inf"), "affine", c0=1.0, c1=1.0)])
path = crmkit.ParameterPath([PiecewiseFunction.constant(1.0), rate])
ctx = crmkit.LevyContext.build(crmkit.make_family("gamma"), path, crmkit.BaseMeasure.lebesgue(1.0), k=2)
before = "crmkit.quadpack" in sys.modules
density = repr(crmkit.levy_density_u(ctx, 1.0, 0.7))
after_density = "crmkit.quadpack" in sys.modules
laplace = repr(crmkit.laplace_exponent(ctx, 1.0, 1.0))
print((before, density, after_density, laplace, "crmkit.quadpack" in sys.modules))
"""
    assert fresh_interpreter(code) == (False, "0.5150251081337565", False, "0.4054651081081644", True)


def test_the_csv_formatter_loads_on_the_first_csv_text(fresh_interpreter):
    # neither the cli's import nor a parse, a build or a draw compiles it, so
    # set-up pays nothing for it
    text = repr((_CONFIGS / "gamma.json").read_text())
    code = f"""
import sys, numpy as np
import crmkit, crmkit.cli
contexts, z_max = crmkit.parse_sample_config(crmkit.load_json({text}))
draw = crmkit.sample_crm(contexts, z_max, np.random.default_rng(1))
before = "crmkit.floatrepr" in sys.modules
draw.csv_text()
print((before, "crmkit.floatrepr" in sys.modules))
"""
    assert fresh_interpreter(code) == (False, True)


def test_importing_the_cli_loads_every_module_the_benchmark_tracer_wraps(crmkit_modules_after):
    # crmbench/spans.py::_targets reads these from sys.modules right after the
    # benchmark worker imports crmkit.cli, before any subcommand runs
    traced = ["config", "conjugacy", "construct", "expfam", "levy", "piecewise", "sampler", "verify"]
    loaded = crmkit_modules_after("import crmkit.cli")
    assert {f"crmkit.{m}" for m in traced} <= set(loaded), loaded


def test_every_target_of_the_benchmark_tracer_is_on_its_owner_with_its_kind(fresh_interpreter):
    # the tracer replaces each target in its owner's namespace, so a target
    # deleted, moved to a base class or turned into another kind of attribute
    # (a cached_property for a property) breaks a traced benchmark run
    spans = Path(__file__).resolve().parents[1] / "crmbench" / "spans.py"
    code = f"""
import importlib.util
import crmkit.cli
spec = importlib.util.spec_from_file_location("spans", {str(spans)!r})
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
kinds = {{"classmethod": lambda v: isinstance(v, classmethod), "property": lambda v: isinstance(v, property)}}
targets = spans._targets()
bad = [name for name, owner, attr, kind in targets if not kinds.get(kind, callable)(vars(owner).get(attr))]
print((len(targets), bad))
"""
    assert fresh_interpreter(code) == (26, [])


def test_the_package_names_resolve_on_first_access(fresh_interpreter):
    # after a bare import, each name of __all__ resolves to the object of the
    # module that exports it; a name served on first access stays unbound in
    # the package, so every lookup reads its module
    homes = {name: module for module, names in MODULE_ALL.items() for name in names if name in PACKAGE_ALL}
    assert set(homes) == set(PACKAGE_ALL) - {"__version__"}
    code = f"""
import importlib, crmkit
unbound = sorted(n for n in crmkit.__all__ if n not in vars(crmkit))
undir = sorted(set(crmkit.__all__) - set(dir(crmkit)))
foreign = [n for n, m in {homes!r}.items()
           if getattr(crmkit, n) is not getattr(importlib.import_module("crmkit." + m), n)]
print((unbound, undir, foreign, sorted(n for n in crmkit.__all__ if n not in vars(crmkit))))
"""
    unbound, undir, foreign, still_unbound = fresh_interpreter(code)
    assert unbound == still_unbound
    assert unbound == sorted(n for n, m in homes.items() if m in ("conjugacy", "construct", "sampler", "verify"))
    assert undir == foreign == []


def test_a_patched_submodule_name_shows_through_the_package_and_its_undoing_too(monkeypatch):
    # a tracer or a test that patches sampler.sample_crm, then undoes it,
    # leaves the package serving the original
    original = sampler.sample_crm

    def fake(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(sampler, "sample_crm", fake)
    assert crmkit.sample_crm is fake
    monkeypatch.undo()
    assert crmkit.sample_crm is original is sampler.sample_crm


def test_a_star_import_binds_every_public_name(fresh_interpreter):
    code = """
namespace = {}
exec("from crmkit import *", namespace)
import crmkit
print(sorted(set(crmkit.__all__) - set(namespace)))
"""
    assert fresh_interpreter(code) == []


def test_a_submodule_resolves_as_a_package_attribute(fresh_interpreter):
    code = "import crmkit; print(crmkit.verify.run_suite is crmkit.run_suite)"
    assert fresh_interpreter(code) is True


def test_an_unknown_package_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'crmkit' has no attribute 'no_such_name'"):
        crmkit.no_such_name  # noqa: B018
    assert not hasattr(crmkit, "no_such_name")


def test_runtime_dependencies_are_numpy_and_scipy():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(crmkit.__file__).resolve().parents[2] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert [re.match(r"[\w-]+", dep).group() for dep in project["dependencies"]] == ["numpy", "scipy"]


# The first use of each kind of special function, in this order, so that a
# fresh interpreter loads scipy.special and builds the ln Gamma(a, x) series
# tables inside these calls
_FIRST_SPECIAL_CALLS = """
import sys
import numpy as np
from crmkit import expfam, make_family, sampler
special_loaded_before = "scipy.special" in sys.modules
beta, gamma, poisson = (make_family(name) for name in ("beta", "gamma", "poisson"))
values = [
    beta.at([2.5, 1.5]).log_partition,
    beta.at([2.5, 1.5]).cdf(0.3),
    beta.at([2.5, 1.5]).quantile(0.7),
    gamma.at([2.5, 1.5]).log_partition,
    gamma.at([2.5, 1.5]).cdf(0.8),
    gamma.at([2.5, 1.5]).quantile(0.7),
    poisson.at([0.4]).cdf(2.0),
    sampler._bernoulli_prob(np.array([0.3]))[0][0],
    expfam._log_upper_gamma(-1.5, 1.0)[()],
    expfam._log_upper_gamma(-1.5, 3.0)[()],
    expfam._log_upper_gamma(0.3, 0.5)[()],
    expfam._log_upper_gamma(2.5, 3.0)[()],
]
"""


def test_first_special_function_use_gives_the_same_doubles(fresh_interpreter):
    # a fresh interpreter loads scipy.special and builds the series tables
    # on first use; this process has long done both, so a missed call site or
    # a table built differently on first use shows as different bits
    namespace = {}
    exec(_FIRST_SPECIAL_CALLS, namespace)
    here = [repr(float(v)) for v in namespace["values"]]
    fresh = fresh_interpreter(
        _FIRST_SPECIAL_CALLS + "print((special_loaded_before, [repr(float(v)) for v in values]))"
    )
    assert fresh == (False, here)


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
        "normaliser",
        "stat_terms",
        "fixed",
    ]


def test_sufficient_stat_fields_are_pinned():
    # a statistic's inverse is declared once, by its family's ``stat_terms``
    assert [f.name for f in dataclasses.fields(crmkit.SufficientStat)] == ["name", "value", "sign", "image"]


def test_every_boundary_the_benchmark_traces_exists():
    # crmbench/spans.py wraps these names from outside the package (``import
    # crmkit`` has loaded every module it reads); one that is renamed or
    # deleted would break a traced benchmark run, not a test
    path = Path(__file__).resolve().parents[1] / "crmbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_crmbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [name for name, owner, attr, _ in spans._targets() if attr not in vars(owner)]
    assert missing == []


def test_the_package_source_names_each_public_name_once():
    # __init__.py's table is the one list of public names: an import block, a
    # literal __all__ or a second table would name each of them again
    tree = ast.parse(Path(crmkit.__file__).read_text())
    said = collections.Counter(
        node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)
    )
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    public = [name for name in crmkit.__all__ if name != "__version__"]
    assert {name: said[name] for name in public if said[name] != 1} == {}
    assert imported.isdisjoint(public), sorted(imported & set(public))
