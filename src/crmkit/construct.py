"""Discretized construction of the random measure's total statistic.

The location axis is cut into cells of width 1/n.  Cell i covers
((i-1)/n, i/n], carries base mass A_i = A_0((i-1)/n, i/n], and evaluates the
path at its midpoint.  A draw keeps cell i's statistic T_k(S_i), with
S_i ~ p(. | eta(midpoint_i)), when a uniform falls below A_i; cells whose
mass exceeds one contribute a Poisson(A_i)-distributed number of independent
statistics instead.  The per-cell transform is then exactly
1 - A_i (1 - E[e^{-theta T_k}]) (resp. exp(-A_i (1 - E[...]))), so the
product converges to exp(-psi(t, theta)) as n grows.

Everything fixed for one window (0, t] of a plan -- the condition gate,
the cell slice, the masses and etas, the split into small and count-mode
cells, the statistic -- is set up once per :func:`sample_discretized` or
:func:`empirical_laplace` call; a replicate then draws only its uniforms, one
family batch over the kept cells and the count-mode Poisson draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CrmError, NaturalSpaceError
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
        ctx.gate()
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
        etas = ctx.path.eval_many(mids)
        try:
            ctx.family.check_natural(etas.T)
        except NaturalSpaceError as exc:
            raise NaturalSpaceError(
                f"cell {exc.index + 1}, midpoint z={float(mids[exc.index])!r}: {exc}",
                coord=exc.coord, index=exc.index,
            ) from exc
        return cls(int(n), m / n, mids, masses, etas)

    def cell_range(self, t: float) -> int:
        """The end hi of the index slice [0, hi) of cells inside (0, t]."""
        if not (0 <= t <= self.z_hi + 1e-9):
            raise CrmError(f"window end {t} is not within the planned horizon {self.z_hi}")
        hi = min(int(math.floor(t * self.n + 1e-9)), len(self.midpoints))
        if abs(hi / self.n - t) > 1e-9:
            raise CrmError(f"window (0, {t}] must align with the cell grid of width 1/{self.n}")
        return hi


def _window_draw(ctx: LevyContext, plan: DiscretizationPlan, t: float):
    """A function rng -> one draw of the discretized total statistic over (0, t].

    The window is set up here once.  Each call then draws, from ``rng`` and in
    this order: one uniform per cell of the window, kept where it falls below
    a small cell's mass; one family batch over the kept cells, in cell order;
    and per count-mode cell (mass > 1) a Poisson count and that many draws.
    When every cell of the window has one eta, the batch passes that eta
    once, which draws what the per-row batch draws (``BoundFamily.sample``).
    The plan checked every cell's eta when it was built, so no draw binds the
    family again.
    """
    ctx.gate()
    hi = plan.cell_range(t)
    masses, etas = plan.masses[:hi], plan.etas[:hi]
    m = len(masses)
    small = masses <= 1.0
    # a count-mode cell is never kept: no uniform falls below 0
    keep_below = np.where(small, masses, 0.0)
    counted = [(masses[j], etas[j]) for j in np.flatnonzero(~small)]
    shared = etas[0] if m and np.all(etas == etas[0]) else None
    sampler, value = ctx.family.sampler, ctx.stat().value

    def draw(rng: np.random.Generator) -> float:
        if m == 0:
            return 0.0
        pick = rng.random(m) < keep_below
        total = 0.0
        n_picked = int(np.count_nonzero(pick))
        if n_picked:
            draws = sampler(etas[pick] if shared is None else shared, rng, n_picked)
            total += float(np.sum(value(draws)))
        for mass, eta in counted:
            count = rng.poisson(mass)
            if count:
                total += float(np.sum(value(sampler(eta, rng, int(count)))))
        return total

    return draw


def sample_discretized(
    ctx: LevyContext,
    plan: DiscretizationPlan,
    t: float,
    rng: np.random.Generator,
) -> float:
    """One draw of the discretized total statistic over the window (0, t]."""
    return _window_draw(ctx, plan, t)(rng)


def discrete_laplace(ctx: LevyContext, plan: DiscretizationPlan, t: float, theta: float) -> float:
    """Exact E[e^{-theta X_n}] of the discretized draw (product over cells)."""
    ctx.gate()
    if not (theta >= 0):
        raise CrmError(f"theta must be nonnegative, got {theta}")
    log_total = 0.0
    for j in range(plan.cell_range(t)):
        mass = plan.masses[j]
        if mass == 0.0:
            continue
        inner = stat_laplace(ctx.family, plan.etas[j], ctx.k, theta)
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
    """Monte Carlo mean of e^{-theta X_n} with independent child streams.

    The window is set up once per call; replicate r draws from child r of
    ``rng.spawn(replicates)`` exactly what :func:`sample_discretized` draws
    from that child, so the child streams fix the estimate to the bit.  The
    spawn, one fresh generator per replicate, is the per-replicate cost left
    besides the draws themselves.
    """
    if replicates < 2:
        raise CrmError(f"need at least 2 replicates, got {replicates}")
    draw = _window_draw(ctx, plan, t)
    vals = np.empty(replicates)
    for r, child in enumerate(rng.spawn(replicates)):
        vals[r] = math.exp(-theta * draw(child))
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(replicates))
    return LaplaceEstimate(mean, se, replicates)


def discretization_gap(ctx: LevyContext, plan: DiscretizationPlan, t: float, theta: float) -> float:
    """|exact discretized transform - exp(-psi(t, theta))|; shrinks with n."""
    return abs(discrete_laplace(ctx, plan, t, theta) - math.exp(-laplace_exponent(ctx, t, theta)))
