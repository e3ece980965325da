"""Pinned bytes of sampling runs.

The values were recorded before the sampling path was vectorized; the array
path must consume the generator in the same order and produce the same bits,
so every digest here stays fixed.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from crmkit import cli, config, make_family, sampler

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# A gamma mix of about 2,250 expected atoms over (0, 2]: a constant base with
# two point masses (one carrying an atom override), an affine base under an
# affine path, and a piecewise path over a base whose head is a ratio piece.
MIX_CONFIG = {
    "z_max": 2.0,
    "components": [
        {
            "family": {"name": "gamma"},
            "k": 2,
            "path": [[{"from": 0.0, "const": 2.5}], [{"from": 0.0, "const": 1.5}]],
            "atom_overrides": [[0.75, [4.0, 2.0]]],
            "base": {
                "pieces": [{"from": 0.0, "const": 400.0}],
                "jumps": [[0.75, 100.0], [1.25, 100.0]],
            },
        },
        {
            "family": {"name": "gamma"},
            "k": 2,
            "path": [
                [{"from": 0.0, "affine": [1.5, 0.75]}],
                [{"from": 0.0, "affine": [2.0, 0.5]}],
            ],
            "base": {"pieces": [{"from": 0.0, "affine": [200.0, 200.0]}]},
        },
        {
            "family": {"name": "gamma"},
            "k": 2,
            "path": [
                [{"from": 0.0, "to": 1.1, "const": 2.0}, {"from": 1.1, "affine": [0.9, 1.0]}],
                [{"from": 0.0, "to": 1.1, "affine": [1.0, 1.5]}, {"from": 1.1, "const": 2.65}],
            ],
            "base": {
                "pieces": [
                    {"from": 0.0, "to": 0.8, "ratio": [300.0, 150.0, 1.0, 1.0]},
                    {"from": 0.8, "const": 200.0},
                ]
            },
        },
    ],
}

GOLDEN = {
    "gamma.json": (
        "49a7c5c07909c8fc7e6ffcaf8f1cae13af2a067e261e583ad116dab06e972a0e",
        "ef7470936bd3ff490b500b972d87cbaebca81971f4c011e0a9825c02a7301ddf",
    ),
    "pareto_series.json": (
        "630950dbe1dd71a520bebe6aaf45cf389d301ce044c7c6ec83242445af4183e1",
        "22fc046e6a626a2afb2fee647e057ee6465925fe9e3a19cef42552740926e2ba",
    ),
    "mix": (
        "85151f2cda2fb39b3180239c7e5606409ba740450c58d42a47d4d3d00ad78b5d",
        "047e3822b223c4dc0985961b7eb476164976a2eb97ff57270acde8435f5abbba",
    ),
}
MIX_ATOMS = 2332
MIX_LIKELIHOOD = "ba90d06b11e42811aad1d8794347e67c5d2268384d3da3bf7ec270693d1b79f0"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sample(config_path, out):
    assert cli.main(["sample", "--config", str(config_path), "--seed", "7", "--out", str(out)]) == 0
    return json.loads((out / "manifest.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sample_bytes_are_pinned(tmp_path, name):
    if name == "mix":
        config_path = tmp_path / "mix.json"
        config_path.write_text(json.dumps(MIX_CONFIG))
    else:
        config_path = CONFIG_DIR / name
    out = tmp_path / "run"
    manifest = _sample(config_path, out)
    draw_id, path_sha = GOLDEN[name]
    assert manifest["draw_id"] == draw_id
    assert _sha((out / "atoms.csv").read_bytes()) == draw_id
    assert _sha((out / "path.csv").read_bytes()) == path_sha
    if name == "mix":
        assert manifest["atoms"] == MIX_ATOMS


def test_likelihood_bytes_are_pinned():
    contexts, z_max = config.parse_sample_config(MIX_CONFIG)
    rng = np.random.default_rng(7)
    draw = sampler.sample_crm(contexts, z_max, rng)
    assert draw.draw_id == GOLDEN["mix"][0]
    lik = sampler.sample_likelihood(draw, make_family("poisson"), "poisson_rate", rng)
    assert lik.base_reference == GOLDEN["mix"][0]
    assert _sha(lik.csv_text().encode()) == MIX_LIKELIHOOD
