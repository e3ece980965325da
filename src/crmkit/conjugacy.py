"""Conjugate posterior updates of the natural-parameter path.

Each registered pair couples a prior family on the weight variable with a
likelihood family whose parameter is the weight itself (through a link
rule).  Every pair updates by the same rule: tau(eta, Y) = eta + S(Y), a
translation of the natural parameters by a symmetric statistic S of the
observations, which the pair stores.  Posterior paths are the prior paths
shifted (uniform mode) or overridden at observed atoms (per-atom mode), and
the posterior process is the same construction rebuilt on the updated path.

Registered pairs (``_PAIRS``): beta-bernoulli, gamma-lognormal (known drift
mu), gamma-pareto (known scale x_m), gamma-poisson.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import expfam
from .errors import CrmError, SupportError, _float_params, _registered
from .expfam import ExpFamilySpec, ParameterPath
from .levy import LevyContext, _default_grid, levy_density_u
from .sampler import link_rule

__all__ = [
    "ConjugatePair",
    "make_pair",
    "pair_names",
    "posterior_path",
    "posterior_context",
    "posterior_levy_density",
    "posterior_process_params",
    "finite_dim_tv",
]


@dataclass(frozen=True)
class ConjugatePair:
    """Prior family, likelihood family, link rule, and the statistic S(Y) of tau.

    ``statistic(ys, **fixed)`` returns S(Y) for the observation array ``ys``;
    ``fixed`` holds the pair's known hyperparameters.  Construct through
    :func:`make_pair`, which takes both from the pair registry.
    """

    name: str
    prior_family: ExpFamilySpec
    likelihood_family: ExpFamilySpec
    link: str
    statistic: Callable
    fixed: dict = field(default_factory=dict)

    def check_observation(self, y: float) -> None:
        if not self.likelihood_family.support.contains(float(y)):
            raise SupportError(
                f"{self.name}: observation {y} outside the {self.likelihood_family.name} support"
            )

    def shift(self, observations: Sequence[float]) -> np.ndarray:
        """tau(eta, Y) - eta = S(Y); depends on Y only through symmetric statistics."""
        ys = np.asarray(list(observations), dtype=float)
        for y in ys:
            self.check_observation(y)
        return np.array(self.statistic(ys, **self.fixed), dtype=float)

    def tau(self, eta, observations: Sequence[float]) -> np.ndarray:
        """eta + S(Y), checked in the prior family by :func:`~crmkit.expfam._as_eta`:
        length, finiteness and natural space."""
        return expfam._as_eta(self.prior_family, np.asarray(eta, dtype=float) + self.shift(observations))


# name -> (prior family, likelihood factory, link rule, fixed hyperparameters
# with their defaults, S).  The likelihood factory and S take the fixed
# hyperparameters by name, S after the observations.
_PAIRS = {
    "beta-bernoulli": (
        "beta", lambda: expfam.make_family("bernoulli"), "bernoulli_prob", {},
        lambda ys: (ys.sum(), len(ys) - ys.sum()),
    ),
    "gamma-lognormal": (
        "gamma", lambda mu: expfam.make_family("lognormal", mu=mu), "lognormal_precision",
        {"mu": 0.0},
        lambda ys, mu: (len(ys) / 2.0, float(np.sum((np.log(ys) - mu) ** 2) / 2.0)),
    ),
    "gamma-pareto": (
        "gamma", lambda x_m: expfam.make_family("pareto", scale=x_m), "pareto_shape",
        {"x_m": 1.0},
        lambda ys, x_m: (float(len(ys)), float(np.sum(np.log(ys / x_m)))),
    ),
    "gamma-poisson": (
        "gamma", lambda: expfam.make_family("poisson"), "poisson_rate", {},
        lambda ys: (ys.sum(), float(len(ys))),
    ),
}


def make_pair(name: str, **fixed) -> ConjugatePair:
    prior, likelihood, link, defaults, statistic = _registered(_PAIRS, name, "pair")
    fixed = _float_params(name, "hyperparameter", fixed, defaults)
    return ConjugatePair(name, expfam.make_family(prior), likelihood(**fixed), link, statistic, fixed)


def pair_names() -> tuple[str, ...]:
    return tuple(sorted(_PAIRS))


def posterior_path(
    pair: ConjugatePair,
    prior_path: ParameterPath,
    observations,
    mode: str = "uniform",
) -> ParameterPath:
    """tau applied along the path.

    ``uniform`` treats ``observations`` as one flat collection and shifts the
    whole path; ``per-atom`` takes a mapping location -> observation list and
    overrides the path value only at those locations, refusing one the prior's
    pieces do not cover before it reads any observation.  The updated path must
    lie in the natural space on its check grid, else :class:`NaturalSpaceError`.
    """
    if prior_path.dimension != pair.prior_family.dimension:
        raise CrmError(
            f"path dimension {prior_path.dimension} != "
            f"{pair.prior_family.name} dimension {pair.prior_family.dimension}"
        )
    if mode == "uniform":
        new = prior_path.shifted(pair.shift(observations))
    elif mode == "per-atom":
        items = sorted(dict(observations).items())
        locs = np.array([loc for loc, _ in items], dtype=float)
        undefined = locs[~prior_path.defined_at(locs)]
        if undefined.size:
            raise CrmError(f"prior path is undefined at observed atom {float(undefined[0])}")
        overrides = dict(prior_path.atom_overrides or {})
        for loc, (_, ys), eta in zip(locs.tolist(), items, prior_path.eval_many(locs)):
            overrides[loc] = pair.tau(eta, ys)
        new = ParameterPath(prior_path.components, overrides)
    else:
        raise CrmError(f"mode must be 'uniform' or 'per-atom', got {mode!r}")
    new.natural_etas(
        pair.prior_family,
        _default_grid(new),
        lambda i, z: f"updated path exits the natural space at z={z}",
    )
    return new


def posterior_context(
    pair: ConjugatePair,
    prior_ctx: LevyContext,
    observations,
    mode: str = "uniform",
) -> LevyContext:
    """The prior construction rebuilt on the tau-updated path."""
    if prior_ctx.family.name != pair.prior_family.name:
        raise CrmError(
            f"context family {prior_ctx.family.name!r} does not match "
            f"pair prior {pair.prior_family.name!r}"
        )
    new_path = posterior_path(pair, prior_ctx.path, observations, mode=mode)
    return LevyContext.build(
        prior_ctx.family,
        new_path,
        prior_ctx.base,
        prior_ctx.k,
        require_conditions=prior_ctx.require_conditions,
    )


def posterior_levy_density(
    pair: ConjugatePair,
    prior_ctx: LevyContext,
    observations,
    t: float,
    u,
    mode: str = "uniform",
) -> float | np.ndarray:
    """:func:`~crmkit.levy.levy_density_u` of the posterior context at one u or
    an array of u, so a table builds that context once."""
    return levy_density_u(posterior_context(pair, prior_ctx, observations, mode=mode), t, u)


def posterior_process_params(
    pair: ConjugatePair, concentration: float, base_value: float, observations
) -> tuple[float, float]:
    """Update in (concentration, base-increment) coordinates.

    The round trip runs through the natural coordinates of the prior family:
    a beta prior maps (c, B0) to (c B0, c (1 - B0)) and back via
    (a + b, a / (a + b)); a gamma prior maps (c, G0) to shape a = c, rate
    b = c G0 and back via (a, b / a).
    """
    c = float(concentration)
    g0 = float(base_value)
    if c <= 0:
        raise CrmError(f"concentration must be positive, got {c}")
    if pair.prior_family.name == "beta":
        if not 0.0 < g0 < 1.0:
            raise CrmError(f"base increment must lie in (0, 1), got {g0}")
        eta = np.array([c * g0, c * (1.0 - g0)])
        a, b = pair.tau(eta, observations)
        return float(a + b), float(a / (a + b))
    if g0 <= 0:
        raise CrmError(f"base increment must be positive, got {g0}")
    eta = np.array([c, c * g0])
    a, b = pair.tau(eta, observations)
    return float(a), float(b / a)


# midpoint cells of the grid-Bayes posterior in finite_dim_tv
_TV_GRID_POINTS = 2000


def finite_dim_tv(pair: ConjugatePair, eta, observations) -> float:
    """Total variation between grid-Bayes and the tau-updated prior density.

    The fixed-z conjugacy identity: renormalizing prior(x | eta) times the
    observation likelihood on a midpoint grid of ``_TV_GRID_POINTS`` cells
    over the prior's parameter support must reproduce the prior family's
    density at tau(eta, Y).  The link maps the whole grid to one batch of
    likelihood parameters, and the likelihood is the product of the
    observations' densities, taken in observation order.
    """
    eta = np.asarray(eta, dtype=float)
    ys = np.asarray(list(observations), dtype=float)
    eta_post = pair.tau(eta, ys)
    prior = pair.prior_family

    if np.isfinite(prior.support.hi):
        lo, hi = prior.support.lo, prior.support.hi
    else:
        hi = max(
            prior.at(eta).quantile(1.0 - 1e-10),
            prior.at(eta_post).quantile(1.0 - 1e-10),
        )
        lo = prior.support.lo
    h = (hi - lo) / _TV_GRID_POINTS
    xs = lo + (np.arange(_TV_GRID_POINTS) + 0.5) * h

    prior_vals = np.asarray(expfam.density(prior, eta, xs), dtype=float)
    etas = np.array(link_rule(pair.link)(xs), dtype=float)
    lik_vals = np.ones(xs.size)
    for row in np.exp(expfam._log_density_many(pair.likelihood_family, etas, ys)):
        lik_vals = lik_vals * row
    post = prior_vals * lik_vals
    norm = post.sum() * h
    if norm <= 0:
        raise CrmError("grid posterior has zero mass; grid does not cover the support")
    post /= norm
    tau_vals = np.asarray(expfam.density(prior, eta_post, xs), dtype=float)
    return float(0.5 * np.sum(np.abs(post - tau_vals)) * h)
