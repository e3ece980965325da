"""Discretized construction of the random measure's total statistic.

The location axis is cut into cells of width 1/n.  Cell i covers
((i-1)/n, i/n], carries base mass A_i = A_0((i-1)/n, i/n], and evaluates the
path at its midpoint.  A draw keeps cell i's statistic T_k(S_i), with
S_i ~ p(. | eta(midpoint_i)), when a uniform falls below A_i; cells whose
mass exceeds one contribute a Poisson(A_i)-distributed number of independent
statistics instead.  The per-cell transform is then exactly
1 - A_i (1 - E[e^{-theta T_k}]) (resp. exp(-A_i (1 - E[...]))), so the
product converges to exp(-psi(t, theta)) as n grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expfam
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
        if t <= 0:
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

    def cell_range(self, start: float, t: float) -> tuple[int, int]:
        """Index slice [lo, hi) of cells inside (start, t]."""
        if t > self.z_hi + 1e-9:
            raise CrmError(f"window end {t} exceeds the planned horizon {self.z_hi}")
        hi = min(int(math.floor(t * self.n + 1e-9)), len(self.midpoints))
        lo = int(math.floor(start * self.n + 1e-9))
        if abs(lo / self.n - start) > 1e-9 or abs(hi / self.n - t) > 1e-9:
            raise CrmError(
                f"window ({start}, {t}] must align with the cell grid of width 1/{self.n}"
            )
        return lo, hi


def sample_discretized(
    ctx: LevyContext,
    plan: DiscretizationPlan,
    t: float,
    rng: np.random.Generator,
    start: float = 0.0,
) -> float:
    """One draw of the discretized total statistic over the window (start, t]."""
    ctx.gate()
    lo, hi = plan.cell_range(start, t)
    if hi <= lo:
        return 0.0
    masses = plan.masses[lo:hi]
    etas = plan.etas[lo:hi]
    stat = ctx.stat()

    small = masses <= 1.0
    keep = rng.random(len(masses)) < masses
    pick = small & keep
    total = 0.0
    if np.any(pick):
        draws = expfam.sample_each(ctx.family, etas[pick], rng)
        total += float(np.sum(stat.value(draws)))
    # the plan checked every cell's eta when it was built, so a count-mode
    # cell draws from its eta without binding the family again
    for j in np.nonzero(~small)[0]:
        count = rng.poisson(masses[j])
        if count:
            draws = ctx.family.sampler(etas[j], rng, int(count))
            total += float(np.sum(stat.value(draws)))
    return total


def discrete_laplace(
    ctx: LevyContext, plan: DiscretizationPlan, t: float, theta: float, start: float = 0.0
) -> float:
    """Exact E[e^{-theta X_n}] of the discretized draw (product over cells)."""
    ctx.gate()
    if theta < 0:
        raise CrmError(f"theta must be nonnegative, got {theta}")
    lo, hi = plan.cell_range(start, t)
    log_total = 0.0
    for j in range(lo, hi):
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
    start: float = 0.0,
) -> LaplaceEstimate:
    """Monte Carlo mean of e^{-theta X_n} with independent child streams."""
    if replicates < 2:
        raise CrmError(f"need at least 2 replicates, got {replicates}")
    children = rng.spawn(replicates)
    vals = np.empty(replicates)
    for r, child in enumerate(children):
        x = sample_discretized(ctx, plan, t, child, start=start)
        vals[r] = math.exp(-theta * x)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(replicates))
    return LaplaceEstimate(mean, se, replicates)


def discretization_gap(ctx: LevyContext, plan: DiscretizationPlan, t: float, theta: float) -> float:
    """|exact discretized transform - exp(-psi(t, theta))|; shrinks with n."""
    return abs(discrete_laplace(ctx, plan, t, theta) - math.exp(-laplace_exponent(ctx, t, theta)))
