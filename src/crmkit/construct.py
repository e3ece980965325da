"""Discretized construction of the random measure's total statistic.

The location axis is cut into cells of width 1/n.  Cell i covers
((i-1)/n, i/n], carries base mass A_i = A_0((i-1)/n, i/n], and evaluates the
path at its midpoint.  A draw keeps cell i's statistic T_k(S_i), with
S_i ~ p(. | eta(midpoint_i)), when a uniform falls below A_i; cells whose
mass exceeds one contribute a Poisson(A_i)-distributed number of independent
statistics instead.  The per-cell transform is then exactly
1 - A_i (1 - E[e^{-theta T_k}]) (resp. exp(-A_i (1 - E[...]))), so the
product converges to exp(-psi(t, theta)) as n grows.

Everything fixed for one window (0, t] of a plan -- the cell slice, the
masses and etas, the split into small and count-mode cells, the
statistic -- is set up once per :func:`sample_discretized` or
:func:`empirical_laplace` call.  The replicates of a call are then drawn in
array passes over chunks of replicates, each pass one uniform block, one
family batch over every kept cell and one Poisson vector per count-mode
cell; :func:`sample_discretized` is the one-replicate call of that draw.
Its exact transform, :func:`discrete_laplace`, takes every cell's
per-location factor from one :func:`~crmkit.levy.stat_laplace` call over
the batch of the window's distinct etas, one per column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CrmError
from .levy import LevyContext, laplace_exponent, stat_laplace

__all__ = [
    "DiscretizationPlan",
    "sample_discretized",
    "discrete_laplace",
    "empirical_laplace",
    "discretization_gap",
    "LaplaceEstimate",
]


@dataclass(frozen=True)
class DiscretizationPlan:
    """Cells of width 1/n over (0, z_hi] with midpoint parameters and masses."""

    n: int
    z_hi: float
    midpoints: np.ndarray
    masses: np.ndarray
    etas: np.ndarray

    @classmethod
    def build(cls, ctx: LevyContext, t: float, n: int) -> "DiscretizationPlan":
        if not (t > 0):
            raise CrmError(f"horizon must be positive, got t={t}")
        if not (isinstance(n, (int, np.integer)) and n >= 1):
            raise CrmError(f"cells per unit must be a positive integer, got {n}")
        m = int(math.floor(t * n + 1e-9))
        if m < 1:
            raise CrmError(f"horizon t={t} shorter than one cell width 1/{n}")
        idx = np.arange(1, m + 1, dtype=float)
        mids = (idx - 0.5) / n
        masses = np.array([ctx.base.increment((i - 1.0) / n, i / n) for i in idx])
        etas = ctx.path.natural_etas(
            ctx.family, mids, lambda i, z: f"cell {i + 1}, midpoint z={z!r}"
        )
        return cls(int(n), m / n, mids, masses, etas)

    def cell_range(self, t: float) -> int:
        """The end hi of the index slice [0, hi) of cells inside (0, t]."""
        if not (0 <= t <= self.z_hi + 1e-9):
            raise CrmError(f"window end {t} is not within the planned horizon {self.z_hi}")
        hi = min(int(math.floor(t * self.n + 1e-9)), len(self.midpoints))
        if abs(hi / self.n - t) > 1e-9:
            raise CrmError(f"window (0, {t}] must align with the cell grid of width 1/{self.n}")
        return hi


# Cells per array pass: the (replicates, cells) uniform block of one pass
# holds at most 2 MB, or one replicate's cells where they are more
_CHUNK_CELLS = 2**18


def _draw_totals(
    ctx: LevyContext, plan: DiscretizationPlan, t: float, replicates: int, rng: np.random.Generator
) -> np.ndarray:
    """``replicates`` draws of the discretized total statistic over (0, t].

    The window is set up once.  The replicates are drawn in chunks of r, with
    r * cells at most ``_CHUNK_CELLS``; each chunk draws from ``rng``, in this
    order: one (r, cells) uniform block, a small cell being kept where its
    uniform falls below its mass; one family batch over the kept cells, in
    replicate then cell order; and per count-mode cell (mass > 1) a vector of
    r Poisson counts and one batch of their total.  A replicate's total is the
    sequential sum (``np.bincount``) of its kept cells' statistics, in cell
    order, plus that of each count-mode cell's statistics in turn.  When every
    cell of the window has one eta, the batch passes that eta once, which
    draws what the per-row batch draws (``BoundFamily.sample``).  The plan
    checked every cell's eta when it was built, so no draw binds the family
    again.
    """
    hi = plan.cell_range(t)
    masses, etas = plan.masses[:hi], plan.etas[:hi]
    totals = np.zeros(replicates)
    if hi == 0:
        return totals
    small = masses <= 1.0
    # a count-mode cell is never kept: no uniform falls below 0
    keep_below = np.where(small, masses, 0.0)
    counted = [(masses[j], etas[j]) for j in np.flatnonzero(~small)]
    shared = etas[0] if np.all(etas == etas[0]) else None
    sampler, value = ctx.family.sampler, ctx.stat().value
    chunk = max(1, _CHUNK_CELLS // hi)
    for start in range(0, replicates, chunk):
        r = min(chunk, replicates - start)
        out = totals[start:start + r]  # a view: adding to it fills totals
        rows, cells = np.nonzero(rng.random((r, hi)) < keep_below)
        if len(rows):
            draws = sampler(etas[cells] if shared is None else shared, rng, len(rows))
            out += np.bincount(rows, weights=value(draws), minlength=r)
        for mass, eta in counted:
            counts = rng.poisson(mass, r)
            n_draws = int(counts.sum())
            if n_draws:
                draws = sampler(eta, rng, n_draws)
                out += np.bincount(np.repeat(np.arange(r), counts), weights=value(draws), minlength=r)
    return totals


def sample_discretized(
    ctx: LevyContext,
    plan: DiscretizationPlan,
    t: float,
    rng: np.random.Generator,
) -> float:
    """One draw of the discretized total statistic over the window (0, t]."""
    return float(_draw_totals(ctx, plan, t, 1, rng)[0])


def discrete_laplace(ctx: LevyContext, plan: DiscretizationPlan, t: float, theta: float) -> float:
    """Exact E[e^{-theta X_n}] of the discretized draw (product over cells)."""
    if not (theta >= 0):
        raise CrmError(f"theta must be nonnegative, got {theta}")
    live = np.flatnonzero(plan.masses[:plan.cell_range(t)] != 0.0)
    # cells often share an eta: one batch over the distinct ones
    distinct, which = np.unique(plan.etas[live], axis=0, return_inverse=True)
    inners = stat_laplace(ctx.family, distinct.T, ctx.k, theta)
    log_total = 0.0
    for j, u in zip(live, which.reshape(-1)):
        mass, inner = plan.masses[j], inners[u]
        if mass <= 1.0:
            factor = 1.0 - mass * (1.0 - inner)
            if factor <= 0.0:
                raise CrmError(f"cell {j + 1} transform is nonpositive ({factor})")
            log_total += math.log(factor)
        else:
            log_total += -mass * (1.0 - inner)
    return math.exp(log_total)


@dataclass(frozen=True)
class LaplaceEstimate:
    mean: float
    se: float
    replicates: int


def empirical_laplace(
    ctx: LevyContext,
    plan: DiscretizationPlan,
    t: float,
    theta: float,
    replicates: int,
    rng: np.random.Generator,
) -> LaplaceEstimate:
    """Monte Carlo mean of e^{-theta X_n} over ``replicates`` draws.

    One generator, ``rng``, feeds every replicate, in array passes over
    chunks of replicates, so one seed fixes the estimate to the bit.  Its
    target is :func:`discrete_laplace`, the exact transform of the same draw.
    """
    if replicates < 2:
        raise CrmError(f"need at least 2 replicates, got {replicates}")
    vals = np.exp(-theta * _draw_totals(ctx, plan, t, replicates, rng))
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(replicates))
    return LaplaceEstimate(mean, se, replicates)


def discretization_gap(ctx: LevyContext, plan: DiscretizationPlan, t: float, theta: float) -> float:
    """|exact discretized transform - exp(-psi(t, theta))|; shrinks with n."""
    return abs(discrete_laplace(ctx, plan, t, theta) - math.exp(-laplace_exponent(ctx, t, theta)))
