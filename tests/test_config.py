import json
import math

import numpy as np
import pytest

from crmkit import config as cfg
from crmkit.errors import ConfigError

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


def test_parse_prior_config_checks_family():
    obj = {"pair": {"name": "beta-bernoulli"}, "component": GAMMA_COMPONENT}
    with pytest.raises(ConfigError, match="does not match pair prior"):
        cfg.parse_prior_config(obj)
    with pytest.raises(ConfigError, match="unknown pair"):
        cfg.parse_prior_config({"pair": {"name": "nope"}, "component": GAMMA_COMPONENT})


def test_shift_component_obj():
    shifted = cfg.shift_component_obj(GAMMA_COMPONENT, [1.5, -0.5])
    ctx = cfg.parse_component(shifted)
    np.testing.assert_allclose(ctx.path.eval(1.0), [3.5, 2.5])
    # the original object is untouched
    assert GAMMA_COMPONENT["path"][0][0]["const"] == 2.0


def test_override_component_obj():
    out = cfg.override_component_obj(GAMMA_COMPONENT, {0.5: np.array([9.0, 9.0])})
    ctx = cfg.parse_component(out)
    np.testing.assert_allclose(ctx.path.eval(0.5), [9.0, 9.0])
    np.testing.assert_allclose(ctx.path.eval(1.5), [2.0, 3.0])
