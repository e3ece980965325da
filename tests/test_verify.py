import pytest

from crmkit import verify
from crmkit.errors import CrmError


def test_suite_registry():
    assert verify.suite_names() == ("moments", "laplace", "conjugacy", "activity", "examples")
    with pytest.raises(CrmError, match="unknown suite"):
        verify.run_suite("bogus")


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


def test_stat_moment_quad_gamma_mean():
    from crmkit import expfam

    gamma = expfam.make_family("gamma")
    assert verify.stat_moment_quad(gamma, [2.0, 3.0], 2, 1) == pytest.approx(
        2.0 / 3.0, rel=1e-9
    )
    poisson = expfam.make_family("poisson")
    import math

    assert verify.stat_moment_quad(poisson, [math.log(2.0)], 1, 1) == pytest.approx(
        2.0, rel=1e-9
    )


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


@pytest.mark.parametrize("check", ["mass a=1,b=2", "mass\na=1"])
def test_check_names_cannot_break_report_rows(check):
    res = verify.SuiteResult("activity")
    with pytest.raises(CrmError, match="suite 'activity': check name .* comma or newline"):
        res.add(check, 1.0, 1.0, 0.0)
    assert res.rows == []
    res.add("mass a=1 b=2", 1.0, 1.0, 0.0)
    assert verify.report_csv(res).splitlines()[1].split(",")[:2] == ["activity", "mass a=1 b=2"]
