import numpy as np
import pytest

from crmkit import verify
from crmkit.errors import CrmError


def test_suite_registry():
    assert verify.suite_names() == ("moments", "laplace", "conjugacy", "activity", "examples")
    with pytest.raises(CrmError) as exc:
        verify.run_suite("bogus")
    # listed in run order, not sorted
    assert str(exc.value) == "unknown suite 'bogus'; registered: moments, laplace, conjugacy, activity, examples"


@pytest.mark.parametrize("name", verify.suite_names())
def test_suites_pass_with_pinned_defaults(name):
    res = verify.run_suite(name)
    failed = [r.check for r in res.rows if not r.passed]
    assert res.passed, f"failed checks: {failed}"


def test_report_csv_format():
    res = verify.run_suite("activity")
    lines = verify.report_csv(res).splitlines()
    assert lines[0] == "suite,check,observed,expected,tolerance,passed"
    assert len(lines) == len(res.rows) + 1
    assert lines[1].startswith("activity,")


def test_report_csv_joins_suites_under_one_header():
    first, second = verify.run_suite("conjugacy"), verify.run_suite("examples")
    lines = verify.report_csv(first, second).splitlines()
    assert lines[0] == "suite,check,observed,expected,tolerance,passed"
    assert lines[1:] == (
        verify.report_csv(first).splitlines()[1:] + verify.report_csv(second).splitlines()[1:]
    )


def test_laplace_tables_have_convergence_rows():
    res = verify.run_suite("laplace")
    header, rows = res.tables["laplace_convergence.csv"]
    assert header == ("n", "estimate", "se", "oracle", "gap")
    assert [r[0] for r in rows] == [8, 32, 128, 512]
    # the recorded gap is |estimate - oracle|
    for n, est, se, oracle, gap in rows:
        assert gap == pytest.approx(abs(est - oracle))
    # the closed-form per-location transform is checked against quadrature
    row = next(r for r in res.rows if r.check == "laplace-tilt-vs-quad")
    assert row.passed and row.tolerance == 1e-8
    assert row.observed == pytest.approx(0.5625, rel=1e-12)


def test_examples_suite_flags_printed_variant_as_informational():
    res = verify.run_suite("examples")
    row = next(r for r in res.rows if "printed-variant" in r.check)
    assert row.passed  # recorded for inspection, not enforced
    assert row.observed != pytest.approx(row.expected)


def test_moment_oracle_gamma_and_poisson_means():
    import math

    from scipy import special

    from crmkit import expfam

    gamma = expfam.make_family("gamma")
    assert verify._stat_expectation(gamma, [[2.0, 3.0]], 2, lambda u, m: u**m, [1]) == [
        pytest.approx(2.0 / 3.0, rel=1e-9)
    ]
    ((want, rel),) = verify._moment_oracle(gamma, [([2.0, 3.0], 1, 1)])
    assert rel == 1e-6  # the log statistic has no closed moment: quadrature
    assert want == pytest.approx(special.digamma(2.0) - math.log(3.0), rel=1e-9)  # E[ln X]
    poisson = expfam.make_family("poisson")
    assert verify._moment_oracle(poisson, [([math.log(2.0)], 1, 1)]) == [(pytest.approx(2.0, rel=1e-9), 1e-10)]


def test_moments_suite_checks_high_orders_and_every_sampler():
    res = verify.run_suite("moments")
    checks = [r.check for r in res.rows]
    assert all("," not in c for c in checks)  # report.csv does not quote
    for name in ("bernoulli", "beta", "gamma", "lognormal", "pareto", "pareto_loglog", "poisson"):
        assert f"{name}-stat-moment pt=0 k=1 m=6" in checks
        assert sum(c.startswith(f"{name}-sampler-gof ") for c in checks) == 1
    assert "pareto_loglog-sampler-gof eta=[-2 0.7]" in checks
    closed = next(r for r in res.rows if r.check == "gamma-stat-moment pt=0 k=2 m=6")
    assert closed.tolerance == pytest.approx(1e-10 * closed.expected)


def test_one_moments_pass_integrates_each_statistic_in_one_batch(monkeypatch):
    # the oracle takes every eta and order of a statistic as one QUADPACK batch,
    # the engine the orders of one (eta, k) from one ln Gamma
    from crmkit import expfam, quadpack

    calls = {"qag": 0, "_log_upper_gamma": 0}
    for module, name in ((quadpack, "qag"), (expfam, "_log_upper_gamma")):
        routine = getattr(module, name)

        def counted(*args, routine=routine, name=name):
            calls[name] += 1
            return routine(*args)

        monkeypatch.setattr(module, name, counted)
    assert verify.run_suite("moments").passed
    assert calls["qag"] <= 8 and calls["_log_upper_gamma"] <= 10, calls


def test_the_moments_suite_checks_each_declared_inverse(monkeypatch):
    # beta's stat_terms with its carrier off by 1e-5 scales every pushforward density
    # by e^1e-5: the oracle reads it, so a high-order row, gated at 1e-6 relative, fails
    import dataclasses

    from crmkit import expfam

    factory, params = expfam._REGISTRY["beta"]

    def planted():
        spec = factory()

        def stat_terms(k, u):
            carrier, values, tilt = spec.stat_terms(k, u)
            return carrier + 1e-5, values, tilt

        return dataclasses.replace(spec, stat_terms=stat_terms)

    monkeypatch.setitem(expfam._REGISTRY, "beta", (planted, params))
    rows = [r for r in verify.run_suite("moments").rows if r.check.startswith("beta-stat-moment")]
    failed = [r.check for r in rows if not r.passed]
    assert failed and all(" m=4" in check or " m=6" in check for check in failed), failed


def test_the_engine_batch_gives_each_order_its_double_alone(monkeypatch):
    from crmkit import expfam

    batches, batch = [], expfam._stat_moments
    monkeypatch.setattr(expfam, "_stat_moments", lambda *args: batches.append((args, out := batch(*args))) or out)
    verify.run_suite("moments")
    monkeypatch.undo()
    assert {args[0].name for args, _ in batches} == set(expfam.family_names())
    for (spec, eta, k, ms), values in batches:
        assert [v.hex() for v in values] == [expfam.moment_suff_stat(spec, eta, k, m).hex() for m in ms]


@pytest.mark.parametrize("name", ["beta", "gamma", "pareto_loglog"])
def test_a_merged_oracle_row_is_the_double_of_its_row_alone(name):
    from crmkit import expfam

    spec = expfam.make_family(name)
    grid = verify._admissible_grid(name, np.random.default_rng(5), 3)
    rows = [(eta, k, m) for eta in grid for k in range(1, spec.dimension + 1) for m in (1, 2, 4, 6)]
    merged = verify._moment_oracle(spec, rows)
    assert [float(v).hex() for v, _ in merged] == [
        float(verify._moment_oracle(spec, [row])[0][0]).hex() for row in rows
    ]


@pytest.mark.parametrize("check", ["mass a=1,b=2", "mass\na=1"])
def test_check_names_cannot_break_report_rows(check):
    res = verify.SuiteResult("activity")
    with pytest.raises(CrmError, match="suite 'activity': check name .* comma or newline"):
        res.add(check, 1.0, 1.0, 0.0)
    assert res.rows == []
    res.add("mass a=1 b=2", 1.0, 1.0, 0.0)
    assert verify.report_csv(res).splitlines()[1].split(",")[:2] == ["activity", "mass a=1 b=2"]


def test_the_moments_suite_refuses_a_replicate_count_that_is_not_an_integer():
    # replicates=2.5 used to draw 2 and return a failing suite
    with pytest.raises(CrmError, match="^replicates must be an integer >= 2, got 2.5$"):
        verify.run_suite("moments", replicates=2.5)


@pytest.mark.parametrize(
    "given, message",
    [
        ({"seed": -1}, "seed must be an integer >= 0, got -1"),
        ({"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
        ({"seed": True}, "seed must be an integer >= 0, got True"),
        ({"replicates": 1}, "replicates must be an integer >= 2, got 1"),
    ],
    ids=["negative-seed", "float-seed", "bool-seed", "one-replicate"],
)
def test_a_suite_refuses_a_seed_or_replicate_count_crm_verify_would_refuse(given, message):
    # each used to reach numpy: a ValueError, a TypeError, seed 1, or a failing
    # moments suite with two RuntimeWarnings
    with pytest.raises(CrmError) as exc:
        verify.run_suite("moments", **given)
    assert str(exc.value) == message
