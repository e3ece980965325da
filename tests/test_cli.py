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


def test_options_of_one_call_do_not_carry_into_the_next(tmp_path):
    # the parser is built once per process; each call parses afresh
    config = CONFIG_DIR / "pareto_series.json"
    args = ("sample", "--config", config, "--seed", 5)
    assert run(*args, "--zmax", 5.0, "--truncation", 1, "--out", tmp_path / "a") == 0
    assert run(*args, "--out", tmp_path / "b") == 0
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest["z_max"] == json.loads(config.read_text())["z_max"]
    assert manifest["truncation_level"] == 3 and manifest["tail_mass"] == 0.0
    rows = (tmp_path / "b" / "atoms.csv").read_text().splitlines()[1:]
    assert {row.split(",")[0] for row in rows} == {"1", "2", "3"}

    assert run("verify", "--suite", "examples", "--out", tmp_path / "c", "pareto-series") == 0
    assert run("verify", "--suite", "examples", "--out", tmp_path / "d") == 0
    want = verify.report_csv(verify.run_suite("examples"))
    assert (tmp_path / "d" / "report.csv").read_text() == want
    assert len(want.splitlines()) > len((tmp_path / "c" / "report.csv").read_text().splitlines())


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


@pytest.mark.parametrize(
    "zmax, mass", [(1e12, "1000000000000.0"), (1e308, "1e+308")], ids=["1e12", "1e308"]
)
def test_a_region_past_the_atom_cap_is_an_error_not_a_traceback(tmp_path, capsys, zmax, mass):
    # masses from 1e8 up to numpy's Poisson limit (about 9.2e18) were drawn,
    # and the atom arrays of that size allocated
    out = tmp_path / "run"
    rc = run("sample", "--config", CONFIG_DIR / "gamma.json", "--seed", 1, "--zmax", zmax, "--out", out)
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: component 1 brings the summed base mass over (0, {zmax!r}] to {mass}, more than "
        "the 1e+08 expected atoms a draw may hold; restrict the region or the base density\n"
    )
    assert not out.exists()


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    rc = run("sample", "--config", CONFIG_DIR / "gamma.json", "--seed", -1, "--out", tmp_path)
    assert rc == 2
    assert "config error: --seed must be >= 0, got -1" in capsys.readouterr().err
    # crm verify takes the rule of verify.run_suite, and its text
    rc = run("verify", "--suite", "laplace", "--seed", -3, "--out", tmp_path)
    assert rc == 2
    assert capsys.readouterr().err == "config error: seed must be an integer >= 0, got -3\n"
    assert not (tmp_path / "atoms.csv").exists() and not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("suite", ["moments", "laplace"])
@pytest.mark.parametrize("replicates", [0, 1, -2])
def test_fewer_than_two_replicates_is_a_config_error(tmp_path, capsys, suite, replicates):
    rc = run("verify", "--suite", suite, "--replicates", replicates, "--out", tmp_path)
    assert rc == 2
    assert capsys.readouterr().err == f"config error: replicates must be an integer >= 2, got {replicates}\n"
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


@pytest.mark.parametrize(
    "text, message",
    [
        ("", ": empty observations file"),
        ("location,value\n0.5,1.0,2.0\n", ":2: expected two columns"),
        ("location,value\n0.5,1.0\n1.5,abc\n", ":3: non-numeric entry ['1.5', 'abc']"),
    ],
    ids=["empty-file", "three-columns", "non-numeric"],
)
def test_posterior_refuses_a_malformed_observations_file_before_writing(tmp_path, capsys, text, message):
    obs = tmp_path / "obs.csv"
    obs.write_text(text)
    out = tmp_path / "run"
    rc = run(
        "posterior", "--config", CONFIG_DIR / "gamma_lognormal_prior.json",
        "--observations", obs, "--out", out,
    )
    assert rc == 2
    assert capsys.readouterr().err == f"config error: {obs}{message}\n"
    assert not out.exists()


def test_posterior_uniform_shifts_an_affine_piece_and_an_atom_override(tmp_path):
    # ln y = 1 and 2: the shape coordinate moves by n/2 = 1 and the rate by
    # (1 + 4)/2 = 2.5, in the affine intercept, the const and the override alike
    prior = json.loads((CONFIG_DIR / "gamma_lognormal_prior.json").read_text())
    prior["component"]["path"][0] = [{"from": 0.0, "affine": [2.0, 0.5]}]
    prior["component"]["atom_overrides"] = [[1.0, [5.0, 6.0]]]
    config, obs = tmp_path / "prior.json", tmp_path / "obs.csv"
    config.write_text(json.dumps(prior))
    obs.write_text(f"location,value\n0.5,{np.e!r}\n1.5,{np.e**2!r}\n")
    out = tmp_path / "run"
    assert run("posterior", "--config", config, "--observations", obs, "--out", out) == 0
    want = {
        "pair": {"name": "gamma-lognormal", "fixed": {"mu": 0.0}},
        "component": {
            "family": {"name": "gamma"},
            "k": 2,
            "path": [[{"from": 0.0, "affine": [3.0, 0.5]}], [{"from": 0.0, "const": 5.5}]],
            "base": {"pieces": [{"from": 0.0, "to": 4.0, "const": 1.0}]},
            "atom_overrides": [[1.0, [6.0, 8.5]]],
        },
    }
    assert (out / "posterior_config.json").read_text() == json.dumps(want, indent=2, sort_keys=True) + "\n"
    assert "shift: (+1, +2.5) applied to every coordinate" in (out / "diff.txt").read_text()


def test_posterior_per_atom_writes_an_integer_written_prior_as_floats_that_read_back(tmp_path):
    prior = {
        "pair": {"name": "beta-bernoulli"},
        "component": {
            "family": {"name": "beta"},
            "k": 1,
            "path": [[{"from": 0, "to": 5, "const": 2}], [{"from": 0, "to": 5, "affine": [3, 1]}]],
            "base": {"pieces": [{"from": 0, "to": 5, "const": 1}], "jumps": [[2, 1]]},
            "atom_overrides": [[4, [1, 2]]],
        },
    }
    config, obs = tmp_path / "prior.json", tmp_path / "obs.csv"
    config.write_text(json.dumps(prior))
    obs.write_text("location,value\n2,1\n")
    out = tmp_path / "run"
    assert run("posterior", "--config", config, "--observations", obs, "--mode", "per-atom", "--out", out) == 0
    post = json.loads((out / "posterior_config.json").read_text())
    # the path and overrides are written as floats; the family, k and base as given
    want = dict(
        prior["component"],
        path=[[{"from": 0.0, "to": 5.0, "const": 2.0}], [{"from": 0.0, "to": 5.0, "affine": [3.0, 1.0]}]],
        atom_overrides=[[2.0, [3.0, 5.0]], [4.0, [1.0, 2.0]]],
    )
    # json.dumps tells 2 from 2.0, which == does not
    assert json.dumps(post["component"], sort_keys=True) == json.dumps(want, sort_keys=True)
    _, written = crmkit.parse_prior_config(post)
    _, given = crmkit.parse_prior_config(prior)
    zs = [1.0, 2.0, 4.0, 5.0]
    want = given.path.with_override(2.0, [3.0, 5.0]).eval_many(zs)
    assert np.array_equal(written.path.eval_many(zs), want)


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
            "/components/0/base/jumps/0: expected a list of 2 numbers",
        ),
        (
            {"pieces": [{"from": 0.0, "const": 1.0}], "jumps": [[float("nan"), 1.0]]},
            "/components/0/base/jumps/0: expected a list of 2 numbers",
        ),
        (
            {"pieces": [{"from": 0.0, "const": float("nan")}]},
            "/components/0/base/pieces/0/const: expected a number",
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
        ([0.5, [float("nan"), 3.0]], "expected a list of 2 numbers"),
        ([float("nan"), [2, 3]], "override location must be a number"),
        ([0.5, [2.0, float("inf")]], "expected a list of 2 numbers"),
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
    assert capsys.readouterr().err == f"config error: /components/0/atom_overrides/0: {want}\n"
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
    assert err == "config error: /components/0/family/params/scale: expected a number\n"
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


@pytest.mark.parametrize("row", ["nan,1.0", "0.5,inf", "0.5,1e999"], ids=["nan", "inf", "overflow"])
def test_posterior_refuses_a_non_finite_observation_where_it_is_read(tmp_path, capsys, row):
    obs = tmp_path / "obs.csv"
    obs.write_text(f"location,value\n0.5,1.0\n{row}\n")
    out = tmp_path / "run"
    rc = run(
        "posterior", "--config", CONFIG_DIR / "gamma_lognormal_prior.json",
        "--observations", obs, "--out", out,
    )
    assert rc == 2
    assert capsys.readouterr().err == f"config error: {obs}:3: non-finite entry {row.split(',')!r}\n"
    assert not out.exists()


def _set(doc, pointer, value):
    *parents, last = pointer.split("/")[1:]
    node = doc
    for token in parents:
        node = node[int(token)] if isinstance(node, list) else node[token]
    node[int(last) if isinstance(node, list) else last] = value


# (config, pointer set, value, the error it gives)
BAD_VALUES = [
    ("gamma_lognormal_prior.json", "/component/atom_overrides", 5, "/component/atom_overrides: expected list"),
    ("gamma_lognormal_prior.json", "/component/base/jumps", 5, "/component/base/jumps: expected list"),
    (
        "gamma_lognormal_prior.json", "/component/family", {"name": "lognormal", "params": {"mu": "abc"}},
        "/component/family/params/mu: expected a number",
    ),
    ("gamma_lognormal_prior.json", "/pair/fixed", {"mu": "abc"}, "/pair/fixed/mu: expected a number"),
    ("gamma_lognormal_prior.json", "/pair/fixed", {"mu": None}, "/pair/fixed/mu: expected a number"),
    (
        "gamma_lognormal_prior.json", "/component/family", {"name": "pareto", "parms": {"scale": 2.0}},
        "/component/family: unknown family keys ['parms']",
    ),
    (
        "gamma_lognormal_prior.json", "/pair", {"name": "gamma-pareto", "fixd": {"x_m": 2.0}},
        "/pair: unknown pair keys ['fixd']",
    ),
    (
        "pareto_series.json", "/pareto_series/alpha", {"const": 1.0, "afine": [0.5, 2.0]},
        "/pareto_series/alpha: unknown alpha keys ['afine']",
    ),
    (
        "gamma_lognormal_prior.json", "/component/path/0/0", {"from": 0, "const": "x"},
        "/component/path/0/0/const: expected a number",
    ),
    (
        "pareto_series.json", "/pareto_series/scale", -1,
        "/pareto_series/scale: pareto: scale must be positive and finite, got -1.0",
    ),
    (
        "gamma_lognormal_prior.json", "/component/atom_overrides", [[0.5, [4, 5]], [0.5, [9, 9]]],
        "/component/atom_overrides/1: override location 0.5 repeats an earlier one",
    ),
]


@pytest.mark.parametrize(
    "name, pointer, value, want",
    BAD_VALUES,
    ids=[
        "overrides-not-a-list", "jumps-not-a-list", "string-mu", "string-fixed", "null-fixed",
        "family-key", "pair-key", "alpha-key", "piece-const", "series-scale", "repeated-override",
    ],
)
def test_a_bad_config_value_is_refused_at_its_pointer(tmp_path, capsys, name, pointer, value, want):
    obj = json.loads((CONFIG_DIR / name).read_text())
    _set(obj, pointer, value)
    parse = crmkit.parse_prior_config if "pair" in obj else crmkit.parse_sample_config
    with pytest.raises(crmkit.ConfigError) as exc:
        parse(obj)
    assert (exc.value.pointer, str(exc.value)) == (want.partition(": ")[0], want)
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(obj))
    out = tmp_path / "run"
    if "pair" in obj:
        rc = run("posterior", "--config", config, "--observations", CONFIG_DIR / "observations_lognormal.csv", "--out", out)
    else:
        rc = run("sample", "--config", config, "--seed", 1, "--out", out)
    assert rc == 2
    assert capsys.readouterr().err == f"config error: {want}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("sample", "--config", CONFIG_DIR / "gamma.json", "--seed", 3),
        ("verify", "--suite", "all"),
        ("verify", "--suite", "moments"),
        (
            "posterior", "--config", CONFIG_DIR / "beta_bernoulli_prior.json",
            "--observations", CONFIG_DIR / "observations_bernoulli.csv", "--mode", "per-atom",
        ),
    ],
    ids=["sample", "verify-all", "verify-moments", "posterior"],
)
def test_a_manifest_lists_exactly_the_files_its_command_wrote(tmp_path, argv):
    out = tmp_path / "run"
    assert run(*argv, "--out", out) in (0, 1)
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert len(outputs) == len(set(outputs))
    assert sorted(outputs) == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")


def test_a_refused_context_names_where_its_path_fails(tmp_path, capsys):
    obj = json.loads((CONFIG_DIR / "gamma.json").read_text())
    component = obj["components"][0]
    component["path"][0] = [{"from": 0.0, "to": 5.0, "affine": [2.0, -1.0]}]  # shape 2 - z
    component["path"][1] = [{"from": 0.0, "to": 5.0, "const": 3.0}]
    config = tmp_path / "shape.json"
    config.write_text(json.dumps(obj))
    out = tmp_path / "run"
    assert run("sample", "--config", config, "--seed", 1, "--out", out) == 2
    err = capsys.readouterr().err
    report = crmkit.parse_component(dict(component, enforce_conditions=False)).report
    check = report.check("path_in_natural_space")
    z, reason = check.witnesses[0]
    assert z > 2.0 and reason.startswith("gamma: shape must be positive, got -")
    assert err == (
        "config error: /components/0: cannot build context: construction conditions fail: "
        "invertible_statistic=pass; path_in_natural_space=FAIL; contraction_closure=pass; "
        f"path_in_natural_space: {check.detail}, first witness ({z!r}, {reason!r})\n"
    )
    assert not out.exists()


def test_an_overflowing_path_piece_is_refused_naming_its_z(tmp_path, capsys):
    # 1 + 1e308 z overflows on the condition grid; the witness names the z,
    # not numpy's overflow warning, which tier-1 turns into an error
    obj = json.loads((CONFIG_DIR / "gamma.json").read_text())
    obj["components"][0]["path"][0] = [{"from": 0.0, "affine": [1.0, 1e308]}]
    config = tmp_path / "overflow.json"
    config.write_text(json.dumps(obj))
    out = tmp_path / "run"
    assert run("sample", "--config", config, "--seed", 1, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "path_in_natural_space=FAIL" in err
    assert "first witness (1.8758124999999999, 'parameter path not finite at z=1.8758124999999999: [inf  3.]')" in err
    assert not out.exists()


def test_sample_refuses_a_non_positive_zmax(tmp_path, capsys):
    out = tmp_path / "run"
    rc = run("sample", "--config", CONFIG_DIR / "gamma.json", "--seed", 1, "--zmax", 0, "--out", out)
    assert rc == 2
    assert capsys.readouterr().err == "config error: --zmax must be positive, got 0.0\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "jumps, warned",
    [([], True), ([[0.5, 0.0]], True), ([[0.5, 1.0]], False), ([[0.25, 1.0]], True)],
    ids=["no-point-mass", "massless-point", "point-mass-there", "point-mass-elsewhere"],
)
def test_posterior_per_atom_warns_where_an_override_changes_nothing(tmp_path, capsys, jumps, warned):
    # an override acts on the measure only through a positive point mass of the
    # base at its location; elsewhere the emitted posterior is the prior in law
    prior = json.loads((CONFIG_DIR / "beta_bernoulli_prior.json").read_text())
    prior["component"]["base"]["jumps"] = jumps
    config = tmp_path / "prior.json"
    config.write_text(json.dumps(prior))
    rc = run(
        "posterior", "--config", config, "--observations", CONFIG_DIR / "observations_bernoulli.csv",
        "--mode", "per-atom", "--out", tmp_path / "post",
    )
    assert rc == 0
    warning = (
        "warning: atom 0.5 is no point mass of the base, so its override leaves the law of the posterior"
        " unchanged"
    )
    assert capsys.readouterr().err == (warning + "\n" if warned else "")
    post = json.loads((tmp_path / "post" / "posterior_config.json").read_text())
    assert post["component"]["atom_overrides"] == [[0.5, [2.6, 2.4]]]
    assert (tmp_path / "post" / "diff.txt").read_text() == (
        "pair: beta-bernoulli\nmode: per-atom\nobservations: 3\natom 0.5: (0.6, 1.4) -> (2.6, 2.4)\n"
    )

