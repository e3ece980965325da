"""Acceptance suite: one test per release criterion.

Each test states its tolerance inline and computes its oracle locally so a
regression in the library cannot silently weaken the check.  Run with
``pytest tests/test_acceptance.py -v`` for one pass/fail line per criterion.
"""

import filecmp
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special, stats

from crmkit import (
    BaseMeasure,
    DiscretizationPlan,
    FiniteActivity,
    LevyContext,
    NotTimeHomogeneous,
    ParameterPath,
    classify_activity,
    discrete_laplace,
    empirical_laplace,
    expfam,
    finite_dim_tv,
    laplace_exponent,
    levy_density_s,
    levy_integrand,
    make_family,
    make_pair,
    moment_suff_stat,
    pair_names,
    parse_sample_config,
    posterior_path,
    posterior_process_params,
    raw_moment,
    raw_moment_beta,
    sample_crm,
)
from crmkit import cli, config, verify
from crmkit.piecewise import Piece, PiecewiseFunction

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def test_beta_raw_moments_match_gamma_ratio_and_monte_carlo():
    """Criterion 1: E[X^m] for Beta(a, b) via tilting vs the Gamma-function
    ratio (rel 1e-8) and vs 1e5 Monte Carlo draws (within 3 standard errors).
    """
    spec = make_family("beta")
    rng = np.random.default_rng(101)
    for a, b in ((2.0, 3.0), (0.5, 0.5), (5.0, 1.0)):
        draws = rng.beta(a, b, size=100_000)
        for m in (1, 2, 3):
            closed = math.exp(
                special.gammaln(a + m)
                + special.gammaln(a + b)
                - special.gammaln(a + b + m)
                - special.gammaln(a)
            )
            engine = raw_moment(spec, np.array([a, b]), k=1, m=m)
            assert abs(engine - closed) <= 1e-8 * abs(closed)
            assert abs(raw_moment_beta(a, b, m) - closed) <= 1e-8 * abs(closed)
            sample = draws**m
            se = sample.std(ddof=1) / math.sqrt(sample.size)
            assert abs(sample.mean() - closed) < 3.0 * se


def _lattice_moment(spec, eta, k, m):
    bound = spec.at(eta)
    stat = spec.stats[k - 1]
    total, x, prev, falling = 0.0, spec.support.lo, math.inf, False
    while x <= spec.support.hi and x - spec.support.lo <= 1e6:
        dens = bound.density(x)
        total += dens * float(stat.value(x)) ** m
        falling = falling or dens < prev
        prev = dens
        if falling and dens < 1e-18:
            break
        x += 1.0
    return total


def _quad_moment(spec, eta, k, m):
    bound = spec.at(eta)
    stat = spec.stats[k - 1]
    out = integrate.quad(
        lambda x: float(stat.value(x)) ** m * bound.density(x),
        spec.support.lo,
        spec.support.hi,
        epsabs=1e-11,
        epsrel=1e-9,
        limit=400,
        full_output=1,
    )
    val, abserr = out[0], out[1]
    # the oracle must be far more accurate than the 1e-4 check it backs
    assert abserr <= 1e-6 * max(abs(val), 1e-9)
    return val


def test_stat_moments_match_direct_quadrature_for_every_family():
    """Criterion 2: moment_suff_stat vs quadrature (or lattice sum) of
    T_k(x)^m against the density, rel 1e-4, 20 random admissible points per
    family, every statistic, m in {1, 2, 3}.
    """
    rng = np.random.default_rng(202)
    for name in expfam.family_names():
        spec = make_family(name)
        oracle = _lattice_moment if spec.support.discrete else _quad_moment
        for eta in verify._admissible_grid(name, rng, 20):
            assert spec.in_natural_space(eta)
            for k in range(1, spec.dimension + 1):
                for m in (1, 2, 3):
                    want = oracle(spec, eta, k, m)
                    got = moment_suff_stat(spec, eta, k, m)
                    assert got == pytest.approx(want, rel=1e-4), (
                        f"{name} eta={eta} k={k} m={m}"
                    )


def test_discretized_laplace_transform_converges_to_exponent():
    """Criterion 3: gamma component, constant eta=(2, 3), unit Lebesgue base.
    The exact gap |discrete Laplace(n) - exp(-psi(1, 1))| decreases over n in
    {8, 32, 128, 512}; each empirical Laplace(n) at 1e4 replicates lies
    within 4 standard errors of its exact discrete Laplace(n); and the final
    empirical gap is below 0.02.  Beyond n = 8 the exact gaps are below the
    standard error, so the empirical gaps would order noise.
    """
    ctx = LevyContext.build(
        make_family("gamma"),
        ParameterPath.constant([2.0, 3.0]),
        BaseMeasure.lebesgue(1.0),
        k=2,
    )
    t, theta = 1.0, 1.0
    oracle = math.exp(-laplace_exponent(ctx, t, theta))
    assert oracle == pytest.approx(math.exp(-(1.0 - (3.0 / 4.0) ** 2)), rel=1e-12)

    exact_gaps = []
    for n in (8, 32, 128, 512):
        plan = DiscretizationPlan.build(ctx, t, n)
        exact = discrete_laplace(ctx, plan, t, theta)
        exact_gaps.append(abs(exact - oracle))
        est = empirical_laplace(ctx, plan, t, theta, 10_000, np.random.default_rng([8, n]))
        assert abs(est.mean - exact) <= 4.0 * est.se, (n, est, exact)
    assert all(b < a for a, b in zip(exact_gaps, exact_gaps[1:])), exact_gaps
    assert abs(est.mean - oracle) < 0.02


def _beta_mixture_context(n):
    # density Beta(1, c(z) + n) with base c(z) / (c(z) + n), c(z) = 1 + z
    path = ParameterPath(
        [
            PiecewiseFunction.constant(1.0),
            PiecewiseFunction([Piece(0.0, math.inf, "affine", c0=1.0 + n, c1=1.0)]),
        ]
    )
    base = BaseMeasure(
        PiecewiseFunction(
            [Piece(0.0, math.inf, "func", func=lambda z, n=n: (1.0 + z) / (1.0 + z + n))]
        )
    )
    return LevyContext.build(make_family("beta"), path, base, k=1)


def test_beta_mixture_integrand_matches_closed_form():
    """Criterion 4: the beta mixture integrand equals c(z) (1-s)^(c(z)+n-1)
    pointwise (abs 1e-8) and its z-integral matches quadrature of the closed
    form, for n in {1, 2, 5} with c(z) = 1 + z.
    """
    for n in (1, 2, 5):
        ctx = _beta_mixture_context(n)
        for z in (0.25, 0.75, 1.5, 3.0):
            c = 1.0 + z
            for s in (0.05, 0.2, 0.5, 0.8, 0.95):
                want = c * (1.0 - s) ** (c + n - 1.0)
                assert abs(levy_integrand(ctx, z, s) - want) <= 1e-8
        for s in (0.1, 0.5, 0.9):
            want, _ = integrate.quad(
                lambda z: (1.0 + z) * (1.0 - s) ** (z + n), 0.0, 2.0, epsabs=1e-12
            )
            assert abs(levy_density_s(ctx, 2.0, s) - want) <= 1e-8


def _gamma_mixture_context(k, h, c_const=None):
    # density Gamma(h, c(z) / (k+1)) with base 1 / ((k+1)^h h), c(z) = 1 + z
    scale = 1.0 / (k + 1.0)
    if c_const is None:
        rate = PiecewiseFunction([Piece(0.0, math.inf, "affine", c0=scale, c1=scale)])
    else:
        rate = PiecewiseFunction.constant(c_const * scale)
    path = ParameterPath([PiecewiseFunction.constant(float(h)), rate])
    base = BaseMeasure.lebesgue(1.0 / ((k + 1.0) ** h * h))
    return LevyContext.build(make_family("gamma"), path, base, k=2)


def test_gamma_mixture_integrand_matches_closed_form():
    """Criterion 5: the gamma mixture integrand equals the Gamma(h, c(z)/(k+1))
    density scaled by 1/((k+1)^h h), pointwise abs 1e-8, for (k, h) in
    {(0, 1), (1, 2)} with c(z) = 1 + z.
    """
    for k, h in ((0, 1), (1, 2)):
        ctx = _gamma_mixture_context(k, h)
        norm = 1.0 / ((k + 1.0) ** h * h)
        for z in (0.25, 0.75, 1.5, 3.0):
            rate = (1.0 + z) / (k + 1.0)
            for s in (0.1, 0.5, 1.0, 2.0, 5.0):
                want = norm * stats.gamma.pdf(s, a=h, scale=1.0 / rate)
                assert abs(levy_integrand(ctx, z, s) - want) <= 1e-8
        for s in (0.2, 1.0, 3.0):
            want, _ = integrate.quad(
                lambda z: norm * stats.gamma.pdf(s, a=h, scale=(k + 1.0) / (1.0 + z)),
                0.0,
                1.5,
                epsabs=1e-12,
            )
            assert abs(levy_density_s(ctx, 1.5, s) - want) <= 1e-8


PAIR_CASES = {
    "beta-bernoulli": ([2.0, 3.0], [1.0, 0.0, 1.0], [0.0, 1.0]),
    "gamma-poisson": ([2.0, 3.0], [2.0, 0.0, 5.0], [1.0]),
    "gamma-lognormal": ([2.0, 3.0], [0.5, 2.0], [1.5, 0.3]),
    "gamma-pareto": ([2.0, 1.0], [math.e, math.e**2], [3.0]),
}

PINNED_UPDATES = [
    ("gamma-poisson", [2.0, 3.0], [2.0, 0.0, 5.0], (9.0, 6.0)),
    ("gamma-lognormal", [2.0, 3.0], [1.0, 1.0, 1.0, 1.0], (4.0, 3.0)),
    ("gamma-pareto", [2.0, 1.0], [math.e, math.e**2], (4.0, 4.0)),
    ("beta-bernoulli", [0.6, 1.4], [1.0, 1.0, 0.0], (2.6, 2.4)),
]


def test_posterior_map_identity_sequential_bayes_and_pinned_updates():
    """Criterion 6: for every conjugate pair, tau(eta, []) = eta exactly,
    sequential application equals pooled application exactly, the grid-Bayes
    total variation gap stays below 1e-3, and the named updates reproduce
    their integer-friendly values exactly.
    """
    for name in pair_names():
        pair = make_pair(name)
        eta, y1, y2 = PAIR_CASES[name]
        eta = np.asarray(eta)
        assert np.array_equal(pair.tau(eta, []), eta)
        pooled = pair.tau(eta, list(y1) + list(y2))
        assert np.array_equal(pair.tau(pair.tau(eta, y1), y2), pooled)
        assert finite_dim_tv(pair, eta, y1) < 1e-3
    for name, eta, ys, want in PINNED_UPDATES:
        got = make_pair(name).tau(np.asarray(eta), ys)
        assert tuple(got) == want


def test_beta_bernoulli_atom_update_in_both_parameterizations():
    """Criterion 7: five-atom beta-bernoulli scenario with c = 2, B0 = 0.3 and
    three observations (two successes) at one atom: the natural update gives
    (2.6, 2.4) exactly, the process form gives (5, 0.52), and the two agree
    under reparameterization.
    """
    pair = make_pair("beta-bernoulli")
    locations = (0.1, 0.2, 0.3, 0.4, 0.5)
    ctx = LevyContext.build(
        make_family("beta"),
        ParameterPath.constant([0.6, 1.4]),
        BaseMeasure.atoms([(loc, 1.0) for loc in locations]),
        k=1,
    )
    ys = [1.0, 1.0, 0.0]
    post = posterior_path(pair, ctx.path, {0.3: ys}, mode="per-atom")
    assert tuple(post.eval(0.3)) == (2.6, 2.4)
    for loc in (0.1, 0.2, 0.4, 0.5):
        assert tuple(post.eval(loc)) == (0.6, 1.4)

    c_post, b_post = posterior_process_params(pair, 2.0, 0.3, ys)
    assert (c_post, b_post) == (5.0, 0.52)
    assert (c_post * b_post, c_post * (1.0 - b_post)) == (2.6, 2.4)


def test_activity_classification_trichotomy():
    """Criterion 8: constant-rate gamma mixture classifies as finite activity
    with unit mass and rate (ratio tolerance 1e-6), the z-dependent Pareto
    component is flagged as not time homogeneous, and a null base yields
    finite activity with zero mass.
    """
    act = classify_activity(_gamma_mixture_context(0, 1, c_const=2.0), 1.0)
    assert isinstance(act, FiniteActivity)
    assert act.total_mass == pytest.approx(1.0, abs=1e-6)
    assert act.rate == pytest.approx(1.0, abs=1e-6)

    pareto_ctx = LevyContext.build(
        make_family("pareto", scale=1.0),
        ParameterPath([PiecewiseFunction([Piece(0.0, math.inf, "affine", c0=-1.0, c1=-1.0)])]),
        BaseMeasure.lebesgue(1.0),
        k=1,
        require_conditions=False,
    )
    assert isinstance(classify_activity(pareto_ctx, 1.0), NotTimeHomogeneous)

    null_ctx = LevyContext.build(
        make_family("gamma"),
        ParameterPath.constant([2.0, 3.0]),
        BaseMeasure.null(),
        k=2,
    )
    null_act = classify_activity(null_ctx, 1.0)
    assert isinstance(null_act, FiniteActivity)
    assert null_act.total_mass == 0.0


def test_sampled_component_counts_are_poisson_calibrated():
    """Criterion 9: 1000 seeded draws of the three-component Pareto series
    config.  Per component, the mean atom count lands within 3 standard
    errors of the base-measure increment ln(4)/n and a chi-square
    goodness-of-fit test against the Poisson law passes at the 1% level.
    """
    obj = config.load_json((CONFIG_DIR / "pareto_series.json").read_text())
    contexts, z_max = parse_sample_config(obj)
    lams = [math.log(4.0) / n for n in (1, 2, 3)]

    runs = 1000
    counts = np.zeros((runs, len(contexts)), dtype=int)
    for i in range(runs):
        draw = sample_crm(contexts, z_max, np.random.default_rng([909, i]))
        for comp, n_atoms in draw.component_counts().items():
            counts[i, comp - 1] = n_atoms

    for j, lam in enumerate(lams):
        obs = counts[:, j]
        se = obs.std(ddof=1) / math.sqrt(runs)
        assert abs(obs.mean() - lam) < 3.0 * se

        kmax = int(obs.max())
        probs = [math.exp(-lam) * lam**k / math.factorial(k) for k in range(kmax + 1)]
        expected = np.array(probs + [1.0 - sum(probs)]) * runs
        observed = np.array([np.sum(obs == k) for k in range(kmax + 1)] + [0], dtype=float)
        # pool the upper tail until every expected bin holds at least 5
        while len(expected) > 2 and expected[-1] < 5.0:
            expected[-2] += expected[-1]
            observed[-2] += observed[-1]
            expected, observed = expected[:-1], observed[:-1]
        _, pvalue = stats.chisquare(observed, expected)
        assert pvalue > 0.01, f"component {j + 1}: p={pvalue}"


def test_manifest_replay_reproduces_outputs_byte_for_byte(tmp_path):
    """Criterion 10: rerunning `crm sample` with the parameters recorded in a
    manifest reproduces atoms.csv and path.csv byte for byte.
    """
    for stem, seed in (("gamma", "4242"), ("pareto_series", "77")):
        cfg_path = str(CONFIG_DIR / f"{stem}.json")
        first = tmp_path / f"{stem}_first"
        assert cli.main(["sample", "--config", cfg_path, "--seed", seed, "--out", str(first)]) == 0

        manifest = json.loads((first / "manifest.json").read_text())
        replay = tmp_path / f"{stem}_replay"
        rc = cli.main(
            [
                "sample",
                "--config",
                cfg_path,
                "--seed",
                str(manifest["seed"]),
                "--truncation",
                str(manifest["truncation_level"]),
                "--zmax",
                repr(manifest["z_max"]),
                "--out",
                str(replay),
            ]
        )
        assert rc == 0
        for name in ("atoms.csv", "path.csv"):
            assert filecmp.cmp(first / name, replay / name, shallow=False), name
