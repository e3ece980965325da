"""Discretized construction of the random measure's total statistic.

The location axis is cut into cells of width 1/n.  Cell i covers
((i-1)/n, i/n], carries base mass A_i = A_0((i-1)/n, i/n], and evaluates the
path, without its atom overrides, at its midpoint.  A draw keeps cell i's
statistic T_k(S_i), with S_i ~ p(. | eta(midpoint_i)), with probability A_i;
a count-mode cell, one whose mass exceeds one or that holds a base point
mass, contributes a Poisson(A_i)-distributed number of independent
statistics instead.  The per-cell transform is then exactly
1 - A_i (1 - E[e^{-theta T_k}]) (resp. exp(-A_i (1 - E[...]))).  A cell
without a point mass has A_i of order 1/n, where the two agree to
O(A_i^2); a point mass keeps its mass as n grows, and its Poisson count
gives its atom's own factor.  So the product converges to
exp(-psi(t, theta)) as n grows where the path is continuous at every point
mass and no atom override sits on one.

Everything fixed for one window (0, t] of a plan -- the cell slice, the
masses and etas, the split into small and count-mode cells, the
statistic -- is set up once per :func:`sample_discretized` or
:func:`empirical_laplace` call.  The replicates of a call are then drawn in
array passes over chunks of replicates.  Each pass draws the kept
(replicate, cell) pairs themselves by Bernoulli thinning (Devroye 1986): a
binomial number of candidate pairs at the largest small-cell mass, placed
uniformly, each kept by one uniform; then one family batch over every kept
cell and one Poisson vector per count-mode cell.  Its work grows with the
pairs it keeps, not with replicates times cells.
:func:`sample_discretized` is the one-replicate call of that draw.
Its exact transform, :func:`discrete_laplace`, takes every cell's
per-location factor from one :func:`~crmkit.levy.stat_laplace` call over
the batch of the window's distinct etas, one per column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import _MAX_ATOMS, CrmError, TruncationError, _integer, _real
from .levy import LevyContext, _check_theta, laplace_exponent, stat_laplace

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
        if not (_real(t) and t > 0):
            raise CrmError(f"horizon must be a finite number > 0, got t={t}")
        if not (_integer(n) and n >= 1):
            raise CrmError(f"cells per unit must be a positive integer, got {n}")
        m = int(math.floor(t * n + 1e-9))
        if m < 1:
            raise CrmError(f"horizon t={t} shorter than one cell width 1/{n}")
        idx = np.arange(1, m + 1, dtype=float)
        mids = (idx - 0.5) / n
        masses = ctx.base._cell_masses(np.arange(m + 1, dtype=float) / n)
        # the path without its atom overrides (levy's plan path), which act only
        # through the point masses
        etas = ctx._plan.path.natural_etas(
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


def _counted(ctx: LevyContext, plan: DiscretizationPlan, hi: int) -> np.ndarray:
    """Whether each of the window's ``hi`` cells is count-mode: its mass is above 1,
    or it holds a base point mass of positive mass."""
    counted = plan.masses[:hi] > 1.0
    locs = [loc for loc, mass in ctx.base.jumps if mass > 0.0]
    cells = np.searchsorted(np.arange(hi + 1) / plan.n, locs) - 1  # cell i covers (i / n, (i + 1) / n]
    counted[cells[(cells >= 0) & (cells < hi)]] = True
    return counted


# (replicate, cell) pairs per array pass, or one replicate's cells where they
# are more: a pass's candidate positions, at most every pair, hold at most 2 MB
_CHUNK_CELLS = 2**18


def _draw_totals(
    ctx: LevyContext, plan: DiscretizationPlan, t: float, replicates: int, rng: np.random.Generator
) -> np.ndarray:
    """``replicates`` draws of the discretized total statistic over (0, t].

    The window is set up once.  The replicates are drawn in chunks of r, with
    r * cells at most ``_CHUNK_CELLS``.  With p the largest mass of a small
    cell (mass <= 1 and no base point mass), each chunk draws from ``rng``,
    in this order: a count N ~ Binomial(r * cells, p); a uniform N-subset of
    the flat positions ``range(r * cells)`` of the (replicate, cell) pairs
    (``rng.choice(..., replace=False, shuffle=False)``), sorted into
    replicate then cell order; one uniform per candidate, which keeps it
    where it falls below A_j / p, A_j being its cell's mass; one family batch
    over the kept cells, in replicate then cell order; and per count-mode
    cell (mass > 1, or a point mass) a vector of r Poisson counts and one
    batch of their total.  Each pair of a small cell j is so kept
    independently with probability A_j; a count-mode cell's is 0.  Where p
    is 0, the count is 0 and no position or uniform is drawn.  Count-mode
    cells whose summed mass passes ``errors._MAX_ATOMS`` are refused before
    any draw.  A replicate's total is the sequential sum (``np.bincount``) of
    its kept cells' statistics, in cell order, plus that of each count-mode
    cell's statistics in turn.  When every cell of the window has one eta,
    the batch passes that eta once, which draws what the per-row batch draws
    (``BoundFamily.sample``).  The plan checked every cell's eta when it was
    built, so no draw binds the family again.
    """
    hi = plan.cell_range(t)
    masses, etas = plan.masses[:hi], plan.etas[:hi]
    totals = np.zeros(replicates)
    if hi == 0:
        return totals
    small = ~_counted(ctx, plan, hi)
    # a count-mode cell is never kept
    keep = np.where(small, masses, 0.0)
    # the atoms a replicate expects from the count-mode cells, before any draw
    counted_mass = np.cumsum(masses - keep)
    if not counted_mass[-1] <= _MAX_ATOMS:
        j = int(np.argmax(~(counted_mass <= _MAX_ATOMS)))
        raise TruncationError(
            f"cell {j + 1} brings the summed base mass of the count-mode cells to "
            f"{counted_mass[j]}, more than the {_MAX_ATOMS:g} expected atoms a draw may "
            "hold; restrict the base density"
        )
    counted = [(j, masses[j], etas[j]) for j in np.flatnonzero(~small)]
    shared = etas[0] if np.all(etas == etas[0]) else None
    sampler, value = ctx.family.sampler, ctx.stat().value
    top = float(keep.max())
    accept = keep / top if top > 0.0 else keep
    chunk = max(1, _CHUNK_CELLS // hi)
    for start in range(0, replicates, chunk):
        r = min(chunk, replicates - start)
        out = totals[start:start + r]  # a view: adding to it fills totals
        # candidate (replicate, cell) pairs, each in with probability top, in row-major order
        pairs = np.sort(rng.choice(r * hi, rng.binomial(r * hi, top), replace=False, shuffle=False))
        rows, cells = np.divmod(pairs, hi)
        kept = rng.random(len(pairs)) < accept[cells]
        rows, cells = rows[kept], cells[kept]
        if len(rows):
            draws = sampler(etas[cells] if shared is None else shared, rng, len(rows))
            out += np.bincount(rows, weights=value(draws), minlength=r)
        for j, mass, eta in counted:
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
    _check_theta(theta)
    hi = plan.cell_range(t)
    live, counted = np.flatnonzero(plan.masses[:hi] != 0.0), _counted(ctx, plan, hi).tolist()
    # cells often share an eta: one batch over the distinct ones
    distinct, which = np.unique(plan.etas[live], axis=0, return_inverse=True)
    inners = stat_laplace(ctx.family, distinct.T, ctx.k, theta).tolist()
    log_total = 0.0
    # in Python floats: the same arithmetic, with no numpy scalar per cell
    for j, mass, u in zip(live.tolist(), plan.masses[live].tolist(), which.reshape(-1).tolist()):
        inner = inners[u]
        if not counted[j]:
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
    _check_theta(theta)
    if not (_integer(replicates) and replicates >= 2):
        raise CrmError(f"replicates must be an integer >= 2, got {replicates}")
    vals = np.exp(-theta * _draw_totals(ctx, plan, t, replicates, rng))
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(replicates))
    return LaplaceEstimate(mean, se, replicates)


def discretization_gap(ctx: LevyContext, plan: DiscretizationPlan, t: float, theta: float) -> float:
    """|exact discretized transform - exp(-psi(t, theta))|; shrinks with n."""
    return abs(discrete_laplace(ctx, plan, t, theta) - math.exp(-laplace_exponent(ctx, t, theta)))
