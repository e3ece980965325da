import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from crmkit import cli, errors
from crmkit import config as cfg
from crmkit.errors import ConfigError, CrmError
from crmkit.expfam import ParameterPath
from crmkit.piecewise import Piece, PiecewiseFunction

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

GAMMA_COMPONENT = {
    "family": {"name": "gamma"},
    "k": 2,
    "path": [[{"from": 0.0, "const": 2.0}], [{"from": 0.0, "const": 3.0}]],
    "base": {"pieces": [{"from": 0.0, "const": 1.0}]},
}


def test_config_hash_is_order_insensitive():
    a = {"x": 1, "y": [1, 2]}
    b = {"y": [1, 2], "x": 1}
    assert cfg.config_hash(a) == cfg.config_hash(b)
    assert cfg.config_hash(a) != cfg.config_hash({"x": 2, "y": [1, 2]})


def test_load_json_accepts_text_path_and_objects(tmp_path):
    assert cfg.load_json('{"a": 1}') == {"a": 1}
    p = tmp_path / "c.json"
    p.write_text('{"b": 2}')
    assert cfg.load_json(str(p)) == {"b": 2}
    assert cfg.load_json({"c": 3}) == {"c": 3}


def test_parse_component_roundtrip():
    ctx = cfg.parse_component(GAMMA_COMPONENT)
    assert ctx.family.name == "gamma"
    assert ctx.k == 2
    np.testing.assert_allclose(ctx.path.eval(1.0), [2.0, 3.0])
    assert ctx.base.increment(0.0, 2.0) == 2.0


def test_parse_component_error_pointers():
    bad = dict(GAMMA_COMPONENT, k=5)
    with pytest.raises(ConfigError, match="/component/k"):
        cfg.parse_component(bad)

    bad = dict(GAMMA_COMPONENT)
    bad = json.loads(json.dumps(bad))
    bad["path"][0][0] = {"from": 0.0}
    with pytest.raises(ConfigError, match="/component/path/0/0"):
        cfg.parse_component(bad)

    with pytest.raises(ConfigError, match="unknown component keys"):
        cfg.parse_component(dict(GAMMA_COMPONENT, extra=1))

    bad = json.loads(json.dumps(GAMMA_COMPONENT))
    bad["family"] = {"name": "gamma", "params": {"bogus": 1}}
    with pytest.raises(ConfigError, match="/component/family"):
        cfg.parse_component(bad)


def test_ratio_pieces_only_in_bases():
    bad = json.loads(json.dumps(GAMMA_COMPONENT))
    bad["path"][0][0] = {"from": 0.0, "ratio": [1.0, 0.0, 1.0, 1.0]}
    with pytest.raises(ConfigError, match="ratio"):
        cfg.parse_component(bad)

    ok = json.loads(json.dumps(GAMMA_COMPONENT))
    ok["base"] = {"pieces": [{"from": 0.0, "to": 2.0, "ratio": [1.0, 1.0, 2.0, 1.0]}]}
    ctx = cfg.parse_component(ok)
    assert ctx.base.density(1.0) == pytest.approx(2.0 / 3.0)


def test_ratio_pieces_parse_to_the_ratio_kind():
    obj = json.loads(json.dumps(GAMMA_COMPONENT))
    obj["base"] = {"pieces": [{"from": 0.0, "to": 2.0, "ratio": [1.0, 1.0, 2.0, 1.0]}]}
    (piece,) = cfg.parse_component(obj).base.density.pieces
    assert (piece.kind, piece.c0, piece.c1, piece.d0, piece.d1) == ("ratio", 1.0, 1.0, 2.0, 1.0)
    # a constant denominator is the affine piece (p0 + p1 z) / q0
    obj["base"] = {"pieces": [{"from": 0.0, "to": 2.0, "ratio": [1.0, 3.0, 2.0, 0.0]}]}
    (piece,) = cfg.parse_component(obj).base.density.pieces
    assert (piece.kind, piece.c0, piece.c1) == ("affine", 0.5, 1.5)
    obj["base"] = {"pieces": [{"from": 0.0, "to": 2.0, "ratio": [1.0, 3.0, 0.0, 0.0]}]}
    with pytest.raises(ConfigError, match="/component/base/pieces/0/ratio"):
        cfg.parse_component(obj)


def test_atom_overrides_parse():
    obj = json.loads(json.dumps(GAMMA_COMPONENT))
    obj["atom_overrides"] = [[0.5, [4.0, 5.0]]]
    ctx = cfg.parse_component(obj)
    np.testing.assert_allclose(ctx.path.eval(0.5), [4.0, 5.0])
    np.testing.assert_allclose(ctx.path.eval(0.6), [2.0, 3.0])


def test_an_override_location_the_prior_already_overrides_is_written_once():
    obj = json.loads(json.dumps(GAMMA_COMPONENT))
    obj["atom_overrides"] = [[0.5, [4.0, 5.0]], [1.5, [6.0, 7.0]]]
    path = cfg.parse_component(obj).path.with_override(0.5, [9.0, 9.0])
    out = dict(obj, **cfg.path_to_obj(path))
    assert out["atom_overrides"] == [[0.5, [9.0, 9.0]], [1.5, [6.0, 7.0]]]
    np.testing.assert_allclose(cfg.parse_component(out).path.eval(0.5), [9.0, 9.0])
    obj["atom_overrides"].append([0.5, [9.0, 9.0]])
    with pytest.raises(ConfigError) as exc:
        cfg.parse_component(obj)
    assert exc.value.pointer == "/component/atom_overrides/2"


def test_enforce_conditions_flag():
    obj = {
        "family": {"name": "pareto", "params": {"scale": 1.0}},
        "k": 1,
        "path": [[{"from": 0.0, "const": -3.0}]],
        "base": {"pieces": [{"from": 0.0, "const": 1.0}]},
    }
    with pytest.raises(ConfigError, match="cannot build context"):
        cfg.parse_component(obj)
    obj["enforce_conditions"] = False
    ctx = cfg.parse_component(obj)
    assert not ctx.report.passed


def test_parse_sample_config():
    obj = {"z_max": 2.0, "components": [GAMMA_COMPONENT]}
    contexts, z_max = cfg.parse_sample_config(obj)
    assert len(contexts) == 1 and z_max == 2.0

    with pytest.raises(ConfigError, match="no components"):
        cfg.parse_sample_config({"components": []})
    with pytest.raises(ConfigError, match="z_max"):
        cfg.parse_sample_config({"z_max": -1.0, "components": [GAMMA_COMPONENT]})
    with pytest.raises(ConfigError, match="unknown config keys"):
        cfg.parse_sample_config({"components": [GAMMA_COMPONENT], "zmax": 1.0})


def test_pareto_series_expansion():
    obj = {
        "pareto_series": {
            "components": 3,
            "scale": 1.0,
            "support": [0.25, 1.0],
            "alpha": {"affine": [0.0, 1.0]},
        }
    }
    contexts, _ = cfg.parse_sample_config(obj)
    assert len(contexts) == 3
    # component n has shape n z, so eta = -(n z + 1), and base 1 / (n z)
    for n, ctx in enumerate(contexts, start=1):
        assert ctx.path.eval(0.5)[0] == pytest.approx(-(n * 0.5 + 1.0))
        assert ctx.base.density(0.5) == pytest.approx(1.0 / (n * 0.5))
        assert ctx.base.increment(0.25, 1.0) == pytest.approx(math.log(4.0) / n, rel=1e-9)


@pytest.mark.parametrize(
    "change, error",
    [
        ({"components": 0}, "/pareto_series/components: components must be >= 1"),
        ({"support": [1.0, 0.25]}, "/pareto_series/support: support must satisfy 0 <= from < to"),
        (
            {"alpha": {"const": 2.0, "affine": [0.0, 1.0]}},
            '/pareto_series/alpha: alpha needs exactly one of "const", "affine"',
        ),
    ],
    ids=["no-components", "support-out-of-order", "alpha-both-keys"],
)
def test_a_pareto_series_refuses_a_bad_count_support_or_alpha_at_its_pointer(change, error):
    series = {"components": 3, "scale": 1.0, "support": [0.25, 1.0], "alpha": {"const": 2.0}, **change}
    with pytest.raises(ConfigError) as exc:
        cfg.parse_sample_config({"pareto_series": series})
    assert str(exc.value) == error


def test_parse_prior_config_checks_family():
    obj = {"pair": {"name": "beta-bernoulli"}, "component": GAMMA_COMPONENT}
    with pytest.raises(ConfigError, match="does not match pair prior"):
        cfg.parse_prior_config(obj)
    with pytest.raises(ConfigError) as exc:
        cfg.parse_prior_config({"pair": {"name": "nope"}, "component": GAMMA_COMPONENT})
    assert exc.value.pointer == "/pair/name"
    assert str(exc.value) == (
        "/pair/name: unknown pair 'nope'; registered: "
        "beta-bernoulli, gamma-lognormal, gamma-pareto, gamma-poisson"
    )


@pytest.mark.parametrize("params", [{}, {"scale": "x"}], ids=["no-params", "bad-params-value"])
def test_an_unknown_family_name_is_refused_at_the_family(params):
    # the name is reported before any params value is read
    obj = {**GAMMA_COMPONENT, "family": {"name": "weibull", "params": params}}
    with pytest.raises(ConfigError) as exc:
        cfg.parse_component(obj)
    assert exc.value.pointer == "/component/family"
    assert str(exc.value) == (
        "/component/family: unknown family 'weibull'; registered: "
        "bernoulli, beta, gamma, lognormal, pareto, pareto_loglog, poisson"
    )


# paths a component object can hold: const and affine pieces, finite and
# infinite ends, atom overrides (given out of order)
_WRITTEN_PATHS = {
    "const": ([[{"from": 0.0, "const": 2.0}], [{"from": 0.0, "const": 3.0}]], []),
    "affine-finite-ends": (
        [
            [{"from": 0.0, "to": 1.5, "affine": [2.0, 0.5]}, {"from": 1.5, "to": 4.0, "const": 2.75}],
            [{"from": 0.0, "to": 4.0, "affine": [3.0, -0.25]}],
        ],
        [],
    ),
    "overrides": (
        [[{"from": 0.0, "const": 2.0}], [{"from": 0.0, "to": 2.5, "affine": [1.0, 1e-3]}]],
        [[2.0, [5.0, 6.5]], [0.25, [4.0, 0.125]]],
    ),
}


@pytest.mark.parametrize("case", sorted(_WRITTEN_PATHS))
def test_a_written_path_reads_back_as_the_same_path(case):
    coords, overrides = _WRITTEN_PATHS[case]
    obj = dict(GAMMA_COMPONENT, path=coords, atom_overrides=overrides)
    for path in (cfg.parse_component(obj).path, cfg.parse_component(obj).path.shifted([1.5, -0.5])):
        written = dict(obj, **cfg.path_to_obj(path))
        back = cfg.parse_component(written).path
        zs = [z for z in path.breakpoints() if 0 < z < math.inf] + sorted(path.atom_overrides) + [0.1, 2.4]
        assert np.array_equal(back.eval_many(zs), path.eval_many(zs))
        assert back.atom_overrides.keys() == path.atom_overrides.keys()
        assert cfg.path_to_obj(back) == cfg.path_to_obj(path)
        assert json.dumps(dict(obj, **cfg.path_to_obj(back))) == json.dumps(written)
        assert [loc for loc, _ in written["atom_overrides"]] == sorted(loc for loc, _ in overrides)
        # a piece's "to" is written where it is finite and only there
        assert [["to" in p for p in coord] for coord in written["path"]] == [
            ["to" in p for p in coord] for coord in coords
        ]


def test_a_path_with_a_ratio_or_func_piece_has_no_config_form():
    ratio = Piece(0.0, 2.0, "ratio", c0=1.0, c1=0.0, d0=1.0, d1=1.0)
    path = ParameterPath([PiecewiseFunction([ratio]), PiecewiseFunction.constant(3.0)])
    with pytest.raises(CrmError, match=r"^ratio piece on \(0.0, 2.0\] has no config form$"):
        cfg.path_to_obj(path)
    path = ParameterPath([PiecewiseFunction.from_callable(lambda z: 2.0), PiecewiseFunction.constant(3.0)])
    with pytest.raises(CrmError, match=r"^func piece on \(0.0, inf\] has no config form$"):
        cfg.path_to_obj(path)


@pytest.mark.parametrize("text", ["NaN", "-1.0", "0", "Infinity"])
def test_a_nan_or_nonpositive_z_max_is_refused_with_its_value(text):
    obj = cfg.load_json('{"z_max": %s, "components": []}' % text)
    obj["components"] = [GAMMA_COMPONENT]
    with pytest.raises(ConfigError) as exc:
        cfg.parse_sample_config(obj)
    want = "expected a number" if text in ("NaN", "Infinity") else f"z_max must be positive, got {float(text)}"
    assert str(exc.value) == f"/z_max: {want}"


@pytest.mark.parametrize("value", [True, False])
def test_a_json_boolean_is_no_integer(value):
    # bool is an int subclass in Python; JSON true must not build k = 1
    obj = {"z_max": 2.0, "components": [dict(GAMMA_COMPONENT, k=value)]}
    with pytest.raises(ConfigError) as exc:
        cfg.parse_sample_config(obj)
    assert (exc.value.pointer, str(exc.value)) == ("/components/0/k", "/components/0/k: expected int")
    series = {"components": value, "scale": 1.0, "support": [0.25, 1.0], "alpha": {"const": 2.0}}
    with pytest.raises(ConfigError) as exc:
        cfg.parse_sample_config({"pareto_series": series})
    assert str(exc.value) == "/pareto_series/components: expected int"


# every configs/ file, and a component that also holds family params, atom
# overrides, point masses and the enforce flag
POINTER_DOCS = {path.name: json.loads(path.read_text()) for path in sorted(CONFIG_DIR.glob("*.json"))}
POINTER_DOCS["full component"] = {
    "z_max": 2.0,
    "components": [
        dict(
            GAMMA_COMPONENT,
            family={"name": "gamma", "params": {}},
            atom_overrides=[[0.5, [4.0, 5.0]]],
            base={"pieces": [{"from": 0.0, "to": 1.0, "const": 1.0}], "jumps": [[0.5, 1.0]]},
            enforce_conditions=True,
        )
    ],
}


# what JSON cannot hold but Python's json module reads: NaN, Infinity, -Infinity
# and an integer beyond the double range
NON_FINITE = (math.inf, -math.inf, math.nan, 10**400)


def _mutations(node, path=()):
    """(path, mutated copy) pairs: an unknown key added to each object, each
    value below the root replaced by one of a wrong JSON type, and each number
    replaced by each value of ``NON_FINITE``."""
    if isinstance(node, dict):
        yield path, dict(node, bogus=1)
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield (*path, key), 5 if isinstance(child, (str, list, dict)) else "x"
        if isinstance(child, (int, float)) and not isinstance(child, bool):
            yield from (((*path, key), value) for value in NON_FINITE)
        yield from _mutations(child, (*path, key))


def _replace(doc, path, value):
    if not path:
        return value
    out = json.loads(json.dumps(doc))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def _tokens(pointer):
    return pointer.split("/")[1:] if pointer else []


@pytest.mark.parametrize("name", sorted(POINTER_DOCS))
def test_every_refusal_points_at_the_value_at_fault(name):
    doc = POINTER_DOCS[name]
    parse = cfg.parse_prior_config if "pair" in doc else cfg.parse_sample_config
    faults = []
    for path, value in _mutations(doc):
        where = [str(key) for key in path]
        try:
            parse(_replace(doc, path, value))
        except ConfigError as exc:
            tokens = _tokens(exc.pointer)
            message = str(exc)[len(exc.pointer) + 2 :] if exc.pointer else str(exc)
            # the pointer names the mutated value or one of the objects above it, once
            if tokens != where[: len(tokens)] or message.startswith("/"):
                faults.append((where, value, str(exc)))
        except Exception as exc:  # any other exception is itself the fault
            faults.append((where, value, repr(exc)))
        else:
            faults.append((where, value, "parsed"))
    assert faults == []


@pytest.mark.parametrize(
    "name, path, value",
    [
        ("gamma.json", ("components", 0, "family", "nmae"), "gamma"),
        ("gamma_lognormal_prior.json", ("pair", "fixed", "mu"), "x"),
        ("gamma.json", ("components", 0, "base", "jumps"), [[0.5, 1e999]]),
        ("beta_bernoulli_prior.json", ("component", "base", "pieces", 0, "to"), 1e999),
    ],
    ids=["unknown-key", "wrong-type", "non-finite-jump-mass", "non-finite-to"],
)
def test_a_refused_mutation_exits_2_through_the_cli(tmp_path, capsys, name, path, value):
    doc = _replace(POINTER_DOCS[name], path, value)
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(doc))  # 1e999 reads back as inf, written as Infinity
    out = tmp_path / "run"
    if "pair" in doc:
        observations = "observations_bernoulli.csv" if "bernoulli" in name else "observations_lognormal.csv"
        argv = ["posterior", "--observations", str(CONFIG_DIR / observations)]
    else:
        argv = ["sample", "--seed", "1"]
    assert cli.main(argv + ["--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not out.exists()


def test_numpy_family_parameters_are_accepted_as_make_family_accepts_them():
    # a numpy float32 is a real number, as a bool is not
    obj = {
        "family": {"name": "pareto", "params": {"scale": np.float32(2.0)}},
        "k": 1,
        "path": [[{"from": 0.0, "const": np.float32(-2.5)}]],
        "base": {"pieces": [{"from": 0.0, "to": 1.0, "const": 1.0}]},
        "enforce_conditions": False,
    }
    ctx = cfg.parse_component(obj)
    want = cfg.parse_component(json.loads(json.dumps(obj, default=float)))
    assert ctx.family.support == want.family.support == cfg.expfam.make_family("pareto", scale=np.float32(2.0)).support
    xs = np.array([2.5, 4.0])
    assert ctx.family.at([-2.5]).density(xs).tolist() == want.family.at([-2.5]).density(xs).tolist()
    obj["family"]["params"]["scale"] = True
    with pytest.raises(ConfigError, match=r"^/component/family/params/scale: expected a number$"):
        cfg.parse_component(obj)


@pytest.mark.parametrize(
    "value, real, integer",
    [
        (2.5, True, False),
        (3, True, True),
        (10**300, True, True),
        (np.float32(2.0), True, False),
        (np.int64(-(2**63)), True, True),
        (math.inf, False, False),
        (-math.inf, False, False),
        (math.nan, False, False),
        (np.float32(math.inf), False, False),
        (10**400, False, False),
        (-(10**400), False, False),
        (True, False, False),
        ("1", False, False),
        (None, False, False),
    ],
    ids=[
        "float", "int", "big-int", "float32", "int64", "inf", "-inf", "nan", "float32-inf",
        "int-beyond-double", "-int-beyond-double", "bool", "str", "none",
    ],
)
def test_a_number_is_a_finite_real_that_is_not_a_bool(value, real, integer):
    # decided without a warning and without converting an int beyond the double range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert (errors._real(value), errors._integer(value)) == (real, integer)


@pytest.mark.parametrize("count", [10_001, 10**9])
def test_a_pareto_series_refuses_a_count_above_its_bound_before_building_a_context(monkeypatch, count):
    def refuse(*args, **kwargs):
        raise AssertionError("a context was built")

    monkeypatch.setattr(cfg.LevyContext, "build", refuse)
    series = {"components": count, "scale": 1.0, "support": [0.25, 1.0], "alpha": {"const": 2.0}}
    with pytest.raises(ConfigError) as exc:
        cfg.parse_sample_config({"pareto_series": series})
    assert str(exc.value) == f"/pareto_series/components: components must be <= 10000, got {count}"


# refusal -> (call, its exact message)
_CONFIG_REFUSALS = {
    "unreadable-file": (
        lambda: cfg.load_json("no/such/config.json"),
        "cannot read config: [Errno 2] No such file or directory: 'no/such/config.json'",
    ),
    "malformed-json": (
        lambda: cfg.load_json("{"),
        "cannot read config: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
    ),
    "path-length": (
        lambda: cfg.parse_component(dict(GAMMA_COMPONENT, path=GAMMA_COMPONENT["path"][:1])),
        "/component/path: path needs 2 coordinate(s), got 1",
    ),
}


@pytest.mark.parametrize("case", sorted(_CONFIG_REFUSALS))
def test_a_config_refusal_names_its_cause(case):
    call, message = _CONFIG_REFUSALS[case]
    with pytest.raises(ConfigError) as exc:
        call()
    assert str(exc.value) == message
