import json
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

import crmkit
from crmkit import cli, verify

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def run(*argv):
    return cli.main([str(a) for a in argv])


def test_sample_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    rc = run("sample", "--config", CONFIG_DIR / "gamma.json", "--seed", 42, "--out", out)
    assert rc == 0
    atoms = (out / "atoms.csv").read_text()
    assert atoms.startswith("component,location,weight\n")
    path_csv = (out / "path.csv").read_text()
    assert path_csv.startswith("t,value\n")
    assert len(path_csv.splitlines()) == 202
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "sample"
    assert manifest["seed"] == 42
    assert manifest["outputs"] == ["atoms.csv", "path.csv"]
    assert manifest["tail_mass"] == 0.0
    assert len(manifest["config_hash"]) == 64
    assert sorted(manifest["versions"]) == ["crmkit", "numpy", "python", "scipy"]
    assert manifest["versions"]["crmkit"] == crmkit.__version__
    assert manifest["versions"]["numpy"] == np.__version__
    assert manifest["versions"]["python"] == platform.python_version()


def test_sample_replay_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("sample", "--config", CONFIG_DIR / "gamma.json", "--seed", 7, "--out", out) == 0
    assert (a / "atoms.csv").read_bytes() == (b / "atoms.csv").read_bytes()
    assert (a / "path.csv").read_bytes() == (b / "path.csv").read_bytes()


def test_sample_empty_base_header_only(tmp_path):
    rc = run("sample", "--config", CONFIG_DIR / "empty_base.json", "--seed", 1, "--out", tmp_path)
    assert rc == 0
    assert (tmp_path / "atoms.csv").read_text() == "component,location,weight\n"


def test_sample_zmax_flag_overrides_config(tmp_path):
    rc = run(
        "sample", "--config", CONFIG_DIR / "gamma.json",
        "--seed", 3, "--zmax", 0.5, "--out", tmp_path,
    )
    assert rc == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["z_max"] == 0.5


def test_sample_requires_some_zmax(tmp_path):
    cfg = {"components": [json.loads((CONFIG_DIR / "gamma.json").read_text())["components"][0]]}
    p = tmp_path / "no_zmax.json"
    p.write_text(json.dumps(cfg))
    assert run("sample", "--config", p, "--seed", 1, "--out", tmp_path) == 2


def test_sample_unbounded_zmax_exits_1(tmp_path, capsys):
    rc = run(
        "sample", "--config", CONFIG_DIR / "gamma.json",
        "--seed", 1, "--zmax", "inf", "--out", tmp_path,
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: component 1 has non-finite base mass")


def test_sample_truncation_records_tail(tmp_path):
    rc = run(
        "sample", "--config", CONFIG_DIR / "pareto_series.json",
        "--seed", 5, "--truncation", 2, "--out", tmp_path,
    )
    assert rc == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["truncation_level"] == 2
    assert manifest["tail_mass"] == pytest.approx(0.4620981203732969)


def test_sample_bad_config_exits_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"components": [{"family": {"name": "gamma"}}]}')
    assert run("sample", "--config", p, "--seed", 1, "--out", tmp_path) == 2
    assert run("sample", "--config", tmp_path / "missing.json", "--seed", 1) == 2
    rc = run(
        "sample", "--config", CONFIG_DIR / "gamma.json",
        "--seed", 1, "--zmax", -1.0, "--out", tmp_path,
    )
    assert rc == 2


def test_verify_single_suite(tmp_path, capsys):
    rc = run("verify", "--suite", "conjugacy", "--out", tmp_path)
    assert rc == 0
    report = (tmp_path / "report.csv").read_text().splitlines()
    assert report[0] == "suite,check,observed,expected,tolerance,passed"
    assert all(line.endswith(",true") for line in report[1:])
    assert "conjugacy: PASS" in capsys.readouterr().out
    versions = json.loads((tmp_path / "manifest.json").read_text())["versions"]
    assert versions["scipy"] == scipy.__version__ and "mpmath" not in versions


def test_verify_report_is_report_csv_of_the_suites(tmp_path):
    rc = run("verify", "--suite", "examples", "--out", tmp_path)
    assert rc == 0
    want = verify.report_csv(verify.run_suite("examples"))
    assert (tmp_path / "report.csv").read_text() == want


def test_verify_emits_convergence_table(tmp_path):
    rc = run("verify", "--suite", "laplace", "--out", tmp_path)
    assert rc == 0
    table = (tmp_path / "laplace_convergence.csv").read_text().splitlines()
    assert table[0] == "n,estimate,se,oracle,gap"
    assert [row.split(",")[0] for row in table[1:]] == ["8", "32", "128", "512"]


def test_verify_failure_exits_1(tmp_path, monkeypatch):
    def failing(seed, replicates):
        res = verify.SuiteResult("laplace")
        res.add("laplace-forced-failure", 1.0, 0.0, 0.5)
        return res

    monkeypatch.setitem(verify._SUITES, "laplace", failing)
    rc = run("verify", "--suite", "laplace", "--out", tmp_path)
    assert rc == 1
    report = (tmp_path / "report.csv").read_text()
    assert ",false" in report


def test_verify_filter_restricts_rows(tmp_path):
    rc = run("verify", "--suite", "examples", "--out", tmp_path, "pareto-series")
    assert rc == 0
    rows = (tmp_path / "report.csv").read_text().splitlines()[1:]
    assert rows and all("pareto-series" in r for r in rows)


def test_verify_filter_that_matches_nothing_is_a_config_error(tmp_path, capsys):
    rc = run("verify", "--suite", "activity", "--out", tmp_path, "nosuchcheck")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'nosuchcheck'" in err and "activity" in err
    assert not (tmp_path / "report.csv").exists()


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    rc = run("sample", "--config", CONFIG_DIR / "gamma.json", "--seed", -1, "--out", tmp_path)
    assert rc == 2
    assert "config error: --seed must be >= 0, got -1" in capsys.readouterr().err
    rc = run("verify", "--suite", "laplace", "--seed", -3, "--out", tmp_path)
    assert rc == 2
    assert "config error: --seed must be >= 0, got -3" in capsys.readouterr().err
    assert not (tmp_path / "atoms.csv").exists() and not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("suite", ["moments", "laplace"])
@pytest.mark.parametrize("replicates", [0, 1, -2])
def test_fewer_than_two_replicates_is_a_config_error(tmp_path, capsys, suite, replicates):
    rc = run("verify", "--suite", suite, "--replicates", replicates, "--out", tmp_path)
    assert rc == 2
    assert f"config error: --replicates must be >= 2, got {replicates}" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


def test_posterior_uniform(tmp_path, capsys):
    rc = run(
        "posterior", "--config", CONFIG_DIR / "gamma_lognormal_prior.json",
        "--observations", CONFIG_DIR / "observations_lognormal.csv",
        "--out", tmp_path,
    )
    assert rc == 0
    post = json.loads((tmp_path / "posterior_config.json").read_text())
    # four observations of 1.0 shift the shape coordinate by n/2 = 2
    assert post["component"]["path"][0][0]["const"] == 4.0
    assert post["component"]["path"][1][0]["const"] == 3.0
    assert "shift" in (tmp_path / "diff.txt").read_text()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["versions"]["crmkit"] == crmkit.__version__


def test_posterior_per_atom(tmp_path):
    rc = run(
        "posterior", "--config", CONFIG_DIR / "beta_bernoulli_prior.json",
        "--observations", CONFIG_DIR / "observations_bernoulli.csv",
        "--mode", "per-atom", "--out", tmp_path,
    )
    assert rc == 0
    post = json.loads((tmp_path / "posterior_config.json").read_text())
    assert post["component"]["atom_overrides"] == [[0.5, [2.6, 2.4]]]
    diff = (tmp_path / "diff.txt").read_text()
    assert "(0.6, 1.4) -> (2.6, 2.4)" in diff


@pytest.mark.parametrize("mode", ["uniform", "per-atom"])
def test_posterior_checks_each_observation_once(tmp_path, monkeypatch, mode):
    checked = []
    original = crmkit.ConjugatePair.check_observation

    def counted(self, y):
        checked.append(y)
        return original(self, y)

    monkeypatch.setattr(crmkit.ConjugatePair, "check_observation", counted)
    rc = run(
        "posterior", "--config", CONFIG_DIR / "beta_bernoulli_prior.json",
        "--observations", CONFIG_DIR / "observations_bernoulli.csv",
        "--mode", mode, "--out", tmp_path,
    )
    assert rc == 0
    assert sorted(checked) == [0.0, 1.0, 1.0]


def test_posterior_empty_observations(tmp_path):
    obs = tmp_path / "none.csv"
    obs.write_text("location,value\n")
    rc = run(
        "posterior", "--config", CONFIG_DIR / "gamma_lognormal_prior.json",
        "--observations", obs, "--out", tmp_path,
    )
    assert rc == 0
    post = json.loads((tmp_path / "posterior_config.json").read_text())
    prior = json.loads((CONFIG_DIR / "gamma_lognormal_prior.json").read_text())
    assert post["component"] == prior["component"]
    assert "posterior equals prior" in (tmp_path / "diff.txt").read_text()


def test_posterior_bad_observations_exit_2(tmp_path):
    obs = tmp_path / "bad.csv"
    obs.write_text("loc,val\n1,2\n")
    rc = run(
        "posterior", "--config", CONFIG_DIR / "gamma_lognormal_prior.json",
        "--observations", obs, "--out", tmp_path,
    )
    assert rc == 2


def test_posterior_out_of_support_observation_exits_1(tmp_path):
    obs = tmp_path / "neg.csv"
    obs.write_text("location,value\n0.5,-3.0\n")
    rc = run(
        "posterior", "--config", CONFIG_DIR / "gamma_lognormal_prior.json",
        "--observations", obs, "--out", tmp_path,
    )
    assert rc == 1


@pytest.mark.parametrize(
    "base, want",
    [
        (
            {"pieces": [{"from": 0.0, "const": 1.0}], "jumps": [[0.5, float("nan")]]},
            "/components/0/base: base measure jump (0.5, nan) must be nonnegative",
        ),
        (
            {"pieces": [{"from": 0.0, "const": 1.0}], "jumps": [[float("nan"), 1.0]]},
            "/components/0/base: base measure jump (nan, 1.0) must be nonnegative",
        ),
        (
            {"pieces": [{"from": 0.0, "const": float("nan")}]},
            "/components/0/base/pieces/0: piece on (0.0, inf] has c0 = NaN",
        ),
    ],
    ids=["jump-mass", "jump-location", "piece-const"],
)
def test_sample_refuses_a_nan_base_value_at_its_pointer(tmp_path, capsys, base, want):
    obj = json.loads((CONFIG_DIR / "gamma.json").read_text())
    obj["components"][0]["base"] = base
    config = tmp_path / "nan.json"
    config.write_text(json.dumps(obj))  # a NaN literal, which JSON parsing accepts
    out = tmp_path / "run"
    assert run("sample", "--config", config, "--seed", 1, "--out", out) == 2
    assert capsys.readouterr().err == f"config error: {want}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "override, want",
    [
        ([0.5, [float("nan"), 3.0]], "atom override at z=0.5 is not finite: (nan, 3.0)"),
        ([float("nan"), [2, 3]], "atom override at z=nan is not finite: (2.0, 3.0)"),
        ([0.5, [2.0, float("inf")]], "atom override at z=0.5 is not finite: (2.0, inf)"),
    ],
    ids=["value-nan", "location-nan", "value-inf"],
)
def test_sample_refuses_a_non_finite_atom_override(tmp_path, capsys, override, want):
    obj = json.loads((CONFIG_DIR / "gamma.json").read_text())
    obj["components"][0]["atom_overrides"] = [override]
    config = tmp_path / "override.json"
    config.write_text(json.dumps(obj))  # NaN and Infinity literals, which JSON parsing accepts
    out = tmp_path / "run"
    assert run("sample", "--config", config, "--seed", 1, "--out", out) == 2
    assert capsys.readouterr().err == f"config error: /components/0/path: {want}\n"
    assert not out.exists()


def test_sample_refuses_a_nan_family_scale_at_its_pointer(tmp_path, capsys):
    obj = json.loads((CONFIG_DIR / "gamma.json").read_text())
    component = obj["components"][0]
    component.update(family={"name": "pareto", "params": {"scale": float("nan")}}, k=1)
    component["path"] = [[{"from": 0.0, "const": -3.0}]]
    config = tmp_path / "nan_scale.json"
    config.write_text(json.dumps(obj))
    out = tmp_path / "run"
    assert run("sample", "--config", config, "--seed", 1, "--out", out) == 2
    err = capsys.readouterr().err
    assert err == "config error: /components/0/family: pareto: scale must be positive and finite, got nan\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "piece, want",
    [
        ({"from": 0.0, "to": 2.0, "affine": [1, -1]}, "affine piece on (0.0, 2.0]"),
        ({"from": 0.0, "const": -1}, "const piece on (0.0, inf]"),
        ({"from": 0.0, "to": 2.0, "ratio": [1, 0, -1, 1]}, "ratio piece on (0.0, 2.0]"),
    ],
    ids=["affine", "const", "ratio-pole"],
)
def test_sample_refuses_a_negative_base_density_at_its_pointer(tmp_path, capsys, piece, want):
    obj = json.loads((CONFIG_DIR / "gamma.json").read_text())
    obj["components"][0]["base"] = {"pieces": [piece]}
    config = tmp_path / "negative.json"
    config.write_text(json.dumps(obj))
    out = tmp_path / "run"
    assert run("sample", "--config", config, "--seed", 1, "--out", out) == 2
    assert capsys.readouterr().err == f"config error: /components/0/base: base density {want} must be nonnegative\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "series, want",
    [
        ({"alpha": {"const": "x"}}, "/pareto_series/alpha/const: expected a number"),
        ({"alpha": {"const": None}}, "/pareto_series/alpha/const: expected a number"),
        ({"alpha": {"const": True}}, "/pareto_series/alpha/const: expected a number"),
        ({"alpha": {"const": 0}}, "/pareto_series/alpha: alpha(z) = 0.0 + 0.0 z must be positive on (0.25, 1.0]"),
        ({"alpha": {"const": -1}}, "/pareto_series/alpha: alpha(z) = -1.0 + 0.0 z must be positive on (0.25, 1.0]"),
        (
            {"alpha": {"affine": [2.0, -4.0]}},
            "/pareto_series/alpha: alpha(z) = 2.0 + -4.0 z must be positive on (0.25, 1.0]",
        ),
        ({"scale": "1"}, "/pareto_series/scale: expected a number"),
    ],
    ids=["const-string", "const-null", "const-bool", "const-zero", "const-negative", "affine-crosses-0", "scale"],
)
def test_sample_refuses_a_bad_pareto_series_number_at_its_pointer(tmp_path, capsys, series, want):
    obj = json.loads((CONFIG_DIR / "pareto_series.json").read_text())
    obj["pareto_series"].update(series)
    config = tmp_path / "series.json"
    config.write_text(json.dumps(obj))
    out = tmp_path / "run"
    assert run("sample", "--config", config, "--seed", 1, "--out", out) == 2
    assert capsys.readouterr().err == f"config error: {want}\n"
    assert not out.exists()


def test_sample_refuses_a_loglog_scale_whose_exponential_overflows(tmp_path, capsys):
    obj = json.loads((CONFIG_DIR / "gamma.json").read_text())
    component = obj["components"][0]
    component.update(family={"name": "pareto_loglog", "params": {"scale": 710.0}}, k=1)
    component.update(path=[[{"from": 0.0, "const": -2.0}], [{"from": 0.0, "const": -2.5}]])
    component["enforce_conditions"] = False
    config = tmp_path / "loglog.json"
    config.write_text(json.dumps(obj))
    out = tmp_path / "run"
    assert run("sample", "--config", config, "--seed", 1, "--out", out) == 2
    assert capsys.readouterr().err == (
        "config error: /components/0/family: pareto(log-log): scale must be below "
        "ln(max double) = 709.782712893384, got 710.0\n"
    )
    assert not out.exists()


def test_sample_nan_zmax_exits_2_naming_it(tmp_path, capsys):
    rc = run(
        "sample", "--config", CONFIG_DIR / "gamma.json",
        "--seed", 1, "--zmax", "nan", "--out", tmp_path,
    )
    assert rc == 2
    assert "--zmax must be positive, got nan" in capsys.readouterr().err
    assert not (tmp_path / "atoms.csv").exists()
