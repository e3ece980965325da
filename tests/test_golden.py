"""Pinned bytes of sampling and posterior runs.

The sampling values were recorded before the sampling path was vectorized;
the array path must consume the generator in the same order and produce the
same bits.  The digests of the draws with ratio base pieces
(``pareto_series.json``, the mix and the likelihood drawn over it) were
re-pinned once, when ratio pieces moved from brentq over quadrature to an
array inversion of their exact mass, which moves their locations in the last
bits.  The
posterior digests pin the written config and diff of ``crm posterior`` in
both update modes.
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
        "0d15de88a69ddb328aa6e9baa9717260f19ae82d86ba136b7193564dd06a2747",
        "2438a996806766bed56faf6c9bf6abddb6a581fae6ed10adaf9baf0f4f214c50",
    ),
    "mix": (
        "0945103bfec0d7bf3414c37ac7abf1fd22a49ba96a2a82ed8d165935f6fdff8d",
        "ed3d9ce0bdc23adb725ba9bf7c3515c824c07c02bdf5a307f2d7015de7bf2131",
    ),
}
MIX_ATOMS = 2332
# (prior config, observations, mode) -> sha256 of (posterior_config.json, diff.txt)
POSTERIOR_GOLDEN = {
    ("gamma_lognormal_prior.json", "observations_lognormal.csv", "uniform"): (
        "378b928fcae91f4d94bd46fb382ad3c512c1db41c53ddacb5c6300f7d374968a",
        "11666bc73911f26254aa102b58d246fab46382295fc7c609b10d0f7d49bf5e25",
    ),
    ("gamma_lognormal_prior.json", "observations_lognormal.csv", "per-atom"): (
        "07d11d06ddee1ebd620eaa4e7c0d6df627d8021b90f334d7af5c60576684d9da",
        "d595b4e40e0101cff6024485b50d23f9af19dd2b44a6271a6dbc54daa60fdd47",
    ),
    ("beta_bernoulli_prior.json", "observations_bernoulli.csv", "uniform"): (
        "eda86387e5361749bbb718d52eb8c60a5ede0a11d53f8958fa8ae11399465d17",
        "10e8dbb0fb6b13f14820af52866f6824c2c0a248a3db88a374f52b5b995cd478",
    ),
    ("beta_bernoulli_prior.json", "observations_bernoulli.csv", "per-atom"): (
        "9dd2acc2e02b230fbeea4304cea24a06953403fb1b86e20617b8745f6d44322e",
        "334a29cd00e57058fae7ff60d9f7a5c013e03ed505b2f5b39b6dc0856b0cc57c",
    ),
}
MIX_LIKELIHOOD = "c96bbd3d85a3b5174cfbcea174e9538b1e37d44cfb6c8a0e1bc10851a1e35604"


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


@pytest.mark.parametrize("name", ["gamma.json", "pareto_series.json"])
def test_sample_loads_no_heavy_module(tmp_path, heavy_modules_after, name):
    # closed-form paths and base pieces need no quadrature, root finding or
    # multiprecision, so a whole run imports none of them
    argv = ["sample", "--config", str(CONFIG_DIR / name), "--seed", "7", "--out", str(tmp_path)]
    assert heavy_modules_after(f"from crmkit import cli; assert cli.main({argv!r}) == 0") == []
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["draw_id"] == GOLDEN[name][0]


def test_likelihood_bytes_are_pinned():
    contexts, z_max = config.parse_sample_config(MIX_CONFIG)
    rng = np.random.default_rng(7)
    draw = sampler.sample_crm(contexts, z_max, rng)
    assert draw.draw_id == GOLDEN["mix"][0]
    lik = sampler.sample_likelihood(draw, make_family("poisson"), "poisson_rate", rng)
    assert lik.base_reference == GOLDEN["mix"][0]
    assert _sha(lik.csv_text().encode()) == MIX_LIKELIHOOD


@pytest.mark.parametrize("prior, observations, mode", sorted(POSTERIOR_GOLDEN))
def test_posterior_bytes_are_pinned(tmp_path, prior, observations, mode):
    args = ["posterior", "--config", str(CONFIG_DIR / prior), "--mode", mode]
    args += ["--observations", str(CONFIG_DIR / observations), "--out", str(tmp_path)]
    assert cli.main(args) == 0
    config_sha, diff_sha = POSTERIOR_GOLDEN[prior, observations, mode]
    assert _sha((tmp_path / "posterior_config.json").read_bytes()) == config_sha
    assert _sha((tmp_path / "diff.txt").read_bytes()) == diff_sha
