"""Levy measures of random measures built from an exponential family.

A context bundles a family, a parameter path eta(z), a base measure A_0, and
the index k of a monotone statistic.  The induced Levy density is

    dL_t(s) = ( int_{(0,t]} p(s | eta(z)) dA_0(z) ) ds

in the family's own coordinate, and its pushforward under u = T_k(s) in the
weight coordinate.  The Laplace exponent is
int (1 - e^{-theta u}) dL_t(u) = int_{(0,t]} (1 - E_{eta(z)}[e^{-theta T_k}]) dA_0(z).

The per-location transform is closed form, the log-partition tilt
E_eta[e^{-theta T_k}] = exp(A(eta - sign_k theta e_k) - A(eta)).  Location
integrals split exactly at piece breakpoints, use one adaptive quadrature
(:func:`~crmkit.piecewise.checked_quad`) per smooth stretch, and add atom
contributions of A_0 exactly; the window convention is (0, t] (a jump at t
counts, one at 0 does not).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import expfam
from .errors import ConditionError, CrmError, DivergenceError, NaturalSpaceError, SupportError
from .expfam import ExpFamilySpec, ParameterPath
from .piecewise import PiecewiseFunction, checked_quad

__all__ = [
    "BaseMeasure",
    "ConditionCheck",
    "ConditionReport",
    "check_conditions",
    "LevyContext",
    "levy_density_s",
    "levy_density_u",
    "levy_integrand",
    "laplace_exponent",
    "stat_laplace",
    "classify_activity",
    "FiniteActivity",
    "InfiniteActivity",
    "NotTimeHomogeneous",
    "density_table",
]

_INF = float("inf")


@dataclass(frozen=True)
class BaseMeasure:
    """Nonnegative measure on [0, inf): a piecewise density plus point masses."""

    density: PiecewiseFunction
    jumps: tuple = ()

    def __post_init__(self):
        jumps = tuple(sorted((float(loc), float(mass)) for loc, mass in self.jumps))
        for loc, mass in jumps:
            if loc < 0 or mass < 0:
                raise CrmError(f"base measure jump ({loc}, {mass}) must be nonnegative")
        object.__setattr__(self, "jumps", jumps)

    @classmethod
    def lebesgue(cls, scale: float = 1.0, lo: float = 0.0, hi: float = _INF) -> "BaseMeasure":
        return cls(PiecewiseFunction.constant(scale, lo, hi))

    @classmethod
    def null(cls) -> "BaseMeasure":
        return cls(PiecewiseFunction.constant(0.0))

    @classmethod
    def atoms(cls, jumps: Sequence[tuple]) -> "BaseMeasure":
        return cls(PiecewiseFunction.constant(0.0), tuple(jumps))

    def jumps_in(self, a: float, b: float):
        """Point masses with location in (a, b]."""
        return [(loc, mass) for loc, mass in self.jumps if a < loc <= b]

    def increment(self, a: float, b: float) -> float:
        """A_0(a, b]."""
        if not a < b:
            return 0.0
        mass = self.density.integral(a, b)
        mass += sum(m for _, m in self.jumps_in(a, b))
        return float(mass)

    def breakpoints(self) -> list[float]:
        return sorted(set(self.density.breakpoints()) | {loc for loc, _ in self.jumps})


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    detail: str = ""
    witnesses: tuple = ()


@dataclass(frozen=True)
class ConditionReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> ConditionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary(self) -> str:
        return "; ".join(f"{c.name}={'pass' if c.passed else 'FAIL'}" for c in self.checks)


_CONTRACTIONS = (0.1, 0.5, 0.9)


def check_conditions(
    family: ExpFamilySpec, path: ParameterPath, k: int, grid: Sequence[float]
) -> ConditionReport:
    """Validity report for the construction; failures are entries, not errors.

    Checks: (1) the chosen statistic has a declared differentiable inverse
    and round-trips numerically; (2) eta(z) lies in the natural space at
    every grid point; (3) the natural space is closed under contracting
    coordinate k toward zero (epsilon in {0.1, 0.5, 0.9}) along the grid.
    """
    if path.dimension != family.dimension:
        raise CrmError(
            f"path dimension {path.dimension} != family dimension {family.dimension}"
        )
    if not (1 <= k <= family.dimension):
        raise CrmError(f"statistic index k={k} out of range 1..{family.dimension}")
    grid = np.asarray(sorted(grid), dtype=float)
    if grid.size == 0 or np.any(grid <= 0):
        raise CrmError("condition grid must be nonempty and strictly positive")

    checks = []
    stat = family.stats[k - 1]

    # (1) invertible statistic
    if stat.inverse is None or stat.inverse_deriv is None:
        checks.append(
            ConditionCheck(
                "invertible_statistic",
                False,
                f"statistic {stat.name!r} declares no differentiable inverse",
            )
        )
    else:
        xs = family.support.grid(101)
        back = np.asarray(stat.inverse(np.asarray(stat.value(xs))), dtype=float)
        err = np.abs(back - xs) / np.maximum(1.0, np.abs(xs))
        bad = xs[err > 1e-10]
        checks.append(
            ConditionCheck(
                "invertible_statistic",
                bad.size == 0,
                f"max relative round-trip error {err.max():.3e}",
                tuple(bad[:3]),
            )
        )

    # (2) path in natural space
    witnesses = []
    for z in grid:
        if not path.defined_at(z):
            witnesses.append((float(z), "path undefined"))
            continue
        try:
            family.check_natural(path.eval(z))
        except Exception as exc:  # record, don't raise
            witnesses.append((float(z), str(exc)))
    checks.append(
        ConditionCheck(
            "path_in_natural_space",
            not witnesses,
            f"{len(witnesses)} of {grid.size} grid points fail",
            tuple(witnesses[:5]),
        )
    )

    # (3) contraction closure in coordinate k
    witnesses = []
    for z in grid:
        if not path.defined_at(z):
            continue
        eta = path.eval(z)
        if not family.in_natural_space(eta):
            continue
        for eps in _CONTRACTIONS:
            contracted = eta.copy()
            contracted[k - 1] *= eps
            if not family.in_natural_space(contracted):
                witnesses.append((float(z), eps))
                break
    checks.append(
        ConditionCheck(
            "contraction_closure",
            not witnesses,
            f"{len(witnesses)} grid points leave the natural space under contraction",
            tuple(witnesses[:5]),
        )
    )

    return ConditionReport(tuple(checks))


def _default_grid(path: ParameterPath, base: BaseMeasure) -> np.ndarray:
    lo = max(c.lo for c in path.components)
    hi = min(c.hi for c in path.components)
    hi_eff = hi if np.isfinite(hi) else max(10.0, lo + 10.0)
    lo_eff = max(lo, 1e-4 * max(1.0, hi_eff))
    pts = set(np.geomspace(lo_eff if lo_eff > 0 else 1e-4, hi_eff, 24))
    pts.update(np.linspace(lo_eff, hi_eff, 17))
    for b in path.breakpoints() + base.breakpoints():
        if lo < b < hi:
            pts.add(b)
    return np.asarray(sorted(p for p in pts if lo < p and p <= hi), dtype=float)


@dataclass(frozen=True)
class LevyContext:
    """A family, parameter path, base measure, and weight statistic index.

    Construct through :meth:`build`, which attaches the condition report and,
    unless ``require_conditions=False`` is passed explicitly, refuses to
    build when the report fails.
    """

    family: ExpFamilySpec
    path: ParameterPath
    base: BaseMeasure
    k: int
    report: ConditionReport
    require_conditions: bool = True

    @classmethod
    def build(
        cls,
        family: ExpFamilySpec,
        path: ParameterPath,
        base: BaseMeasure,
        k: int,
        grid: Sequence[float] | None = None,
        require_conditions: bool = True,
    ) -> "LevyContext":
        if grid is None:
            grid = _default_grid(path, base)
        report = check_conditions(family, path, k, grid)
        if require_conditions and not report.passed:
            raise ConditionError(
                f"construction conditions fail: {report.summary()}", report=report
            )
        return cls(family, path, base, k, report, require_conditions)

    def stat(self):
        return self.family.stats[self.k - 1]

    def gate(self):
        if self.require_conditions and not self.report.passed:
            raise ConditionError(
                f"evaluation refused, condition report failed: {self.report.summary()}",
                report=self.report,
            )


def _z_integral(ctx: LevyContext, g: Callable, z_lo: float, z_hi: float) -> float:
    """int_(z_lo, z_hi] g(z) dA_0(z), split at breakpoints, atoms exact."""
    if not z_lo < z_hi:
        return 0.0
    total = 0.0
    cuts = [z_lo, z_hi]
    for b in ctx.path.breakpoints() + ctx.base.breakpoints():
        if z_lo < b < z_hi:
            cuts.append(b)
    cuts = sorted(set(cuts))
    dens = ctx.base.density
    for a, b in zip(cuts, cuts[1:]):
        for piece in dens.pieces:
            lo, hi = max(a, piece.lo), min(b, piece.hi)
            if lo < hi:
                total += checked_quad(lambda z, p=piece: g(z) * p.value(z), lo, hi)
    for loc, mass in ctx.base.jumps_in(z_lo, z_hi):
        if mass > 0:
            total += mass * g(loc)
    return total


def levy_density_s(ctx: LevyContext, t: float, s: float, z_window=None) -> float:
    """Levy density at s in the family coordinate, over the window (0, t].

    ``z_window=(a, b]`` restricts the location integral; the default is
    (0, t], and dL over (0, t1+t2] = dL over (0, t1] + dL over (t1, t1+t2].
    """
    ctx.gate()
    if t <= 0 and z_window is None:
        raise CrmError(f"time must be positive, got t={t}")
    if not ctx.family.support.contains(s):
        raise SupportError(f"s={s} outside the family support")
    z_lo, z_hi = z_window if z_window is not None else (0.0, t)
    return _z_integral(ctx, lambda z: expfam.density(ctx.family, ctx.path.eval(z), s), z_lo, z_hi)


def levy_integrand(ctx: LevyContext, z: float, s: float) -> float:
    """Density-in-z of the Levy measure: p(s | eta(z)) a_0(z), atoms excluded."""
    ctx.gate()
    if not ctx.family.support.contains(s):
        raise SupportError(f"s={s} outside the family support")
    if not ctx.base.density.defined_at(z):
        return 0.0
    return float(expfam.density(ctx.family, ctx.path.eval(z), s) * ctx.base.density(z))


def levy_density_u(ctx: LevyContext, t: float, u: float, z_window=None) -> float:
    """Levy density in the weight coordinate u = T_k(s) (pushforward form)."""
    ctx.gate()
    stat = ctx.stat()
    if stat.inverse is None or stat.inverse_deriv is None:
        raise CrmError(f"statistic {stat.name!r} has no declared inverse")
    if not stat.in_image(u):
        raise SupportError(f"u={u} outside the image {stat.image} of statistic {stat.name!r}")
    with np.errstate(over="ignore"):
        s = float(stat.inverse(u))
        jac = abs(float(stat.inverse_deriv(u)))
    if not (np.isfinite(s) and np.isfinite(jac)):
        # u is in the image but the inverse overflows: deep tail, density 0
        return 0.0
    return levy_density_s(ctx, t, s, z_window=z_window) * jac


def stat_laplace(family: ExpFamilySpec, eta: np.ndarray, k: int, theta: float) -> float:
    """E[e^{-theta T_k(S)}] under the family density at eta, by the log-partition tilt.

    The transform is exp(A(eta - sign_k theta e_k) - A(eta)).  It is infinite
    exactly where the tilted parameter leaves the natural space; there it
    raises :class:`DivergenceError` with ``partial=inf``.  An eta outside the
    natural space raises :class:`NaturalSpaceError`.
    """
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    a0 = expfam.log_partition(family, eta)
    tilted = eta.copy()
    tilted[k - 1] -= family.stats[k - 1].sign * theta
    try:
        a1 = expfam.log_partition(family, tilted)
    except NaturalSpaceError as exc:
        raise DivergenceError(
            f"{family.name}: E[exp(-{theta} T_{k})] is infinite, the tilted coordinate "
            f"eta_{k} = {tilted[k - 1]} leaves the natural space ({exc})",
            partial=_INF,
        ) from exc
    return float(np.exp(a1 - a0))


def laplace_exponent(ctx: LevyContext, t: float, theta: float) -> float:
    """int (1 - e^{-theta u}) dL_t(u); 0 at theta=0 or t=0.

    Raises :class:`DivergenceError` carrying the partial value when either
    axis fails to stabilize (improper tails or infinite location mass).
    """
    ctx.gate()
    if theta < 0:
        raise CrmError(f"theta must be nonnegative, got {theta}")
    if t < 0:
        raise CrmError(f"time must be nonnegative, got {t}")
    if theta == 0.0 or t == 0.0:
        return 0.0

    def g(z):
        eta = ctx.path.eval(z)
        return 1.0 - stat_laplace(ctx.family, eta, ctx.k, theta)

    return _z_integral(ctx, g, 0.0, t)


@dataclass(frozen=True)
class FiniteActivity:
    """Finite total mass; when proportional to t, compound-Poisson data.

    ``rate`` is M(t)/t and ``weight_density`` the normalized weight density
    sigma(u); both are None for the null measure.
    """

    total_mass: float
    rate: float
    weight_density: Callable | None


@dataclass(frozen=True)
class InfiniteActivity:
    detail: str = ""


@dataclass(frozen=True)
class NotTimeHomogeneous:
    total_mass: float
    detail: str = ""
    witnesses: tuple = ()


def _mass_with_shrinking_cutoffs(f: Callable, lo: float, hi: float) -> float:
    """Integral of f over (lo, hi) with geometric endpoint refinement.

    Declares divergence when a refinement strip adds more than 1% of the
    running total for 20 consecutive refinements of the same endpoint.
    """
    if np.isfinite(hi):
        a0 = lo + (hi - lo) * 0.25 if np.isfinite(lo) else hi - 1.0
        b0 = hi - (hi - lo) * 1e-9
    else:
        a0 = lo + 1.0 if lo > -1.0 else lo + abs(lo) * 0.25 + 1e-3
        b0 = a0 + 10.0
    total = checked_quad(f, a0, b0)

    # refine toward the lower endpoint
    width, a, streak = a0 - lo, a0, 0
    for _ in range(200):
        width *= 0.5
        strip = checked_quad(f, lo + width, a)
        total += strip
        a = lo + width
        if strip > 0.01 * max(abs(total), 1e-300):
            streak += 1
            if streak >= 20:
                raise DivergenceError("mass diverges at the lower endpoint", partial=total)
        else:
            streak = 0
        if strip < 1e-12 * max(abs(total), 1e-12):
            break

    # expand toward the upper endpoint
    b, streak, grown = b0, 0, 0.0
    if not np.isfinite(hi):
        for _ in range(200):
            strip = checked_quad(f, b, 2.0 * b if b > 0 else b + 10.0)
            b = 2.0 * b if b > 0 else b + 10.0
            total += strip
            if strip > 0.01 * max(abs(total), 1e-300):
                streak += 1
                if streak >= 20:
                    raise DivergenceError("mass diverges at the upper endpoint", partial=total)
            else:
                streak = 0
            if strip < 1e-12 * max(abs(total), 1e-12):
                grown += 1
                if grown >= 2:
                    break
    else:
        width = hi - b0
        for _ in range(60):
            width *= 0.5
            strip = checked_quad(f, b, hi - width)
            total += strip
            b = hi - width
            if strip < 1e-12 * max(abs(total), 1e-12):
                break
    return total


def classify_activity(ctx: LevyContext, t: float, ratio_tol: float = 1e-6):
    """Total-mass and time-proportionality classification at horizon t.

    Returns FiniteActivity (with rate M(t)/t and normalized weight density)
    when the mass is finite and dL is proportional to t (checked by
    u-independent ratios at {t/2, t, 2t}); NotTimeHomogeneous when the mass
    is finite but the ratios move; InfiniteActivity when the mass diverges.
    """
    ctx.gate()
    if t <= 0:
        raise CrmError(f"time must be positive, got t={t}")
    if ctx.family.support.discrete:
        raise CrmError("activity classification needs a continuous support")

    stat = ctx.stat()
    if stat.image is None:
        raise CrmError(f"statistic {stat.name!r} has no image interval")
    u_lo, u_hi = stat.image

    try:
        mass = _mass_with_shrinking_cutoffs(lambda u: levy_density_u(ctx, t, u), u_lo, u_hi)
    except DivergenceError as exc:
        return InfiniteActivity(detail=str(exc))

    if mass <= 1e-14:
        return FiniteActivity(total_mass=0.0, rate=0.0, weight_density=None)

    # probe grid in the weight coordinate via family draws pushed through T_k
    probe_rng = np.random.default_rng(20210614)
    z_ref = _default_grid(ctx.path, ctx.base)
    z_mid = float(z_ref[len(z_ref) // 2])
    z_probe = min(z_mid, t)
    if not ctx.path.defined_at(z_probe):
        z_probe = z_mid
    s_probe = expfam.sample(ctx.family, ctx.path.eval(z_probe), probe_rng, size=64)
    u_grid = np.unique(np.asarray(stat.value(s_probe), dtype=float))[::8]

    witnesses = []
    for u in u_grid:
        if not stat.in_image(float(u)):
            continue
        d_half = levy_density_u(ctx, t / 2.0, float(u))
        d_one = levy_density_u(ctx, t, float(u))
        d_two = levy_density_u(ctx, 2.0 * t, float(u))
        if d_half <= 0 or d_one <= 0:
            witnesses.append((float(u), "vanishing density"))
            continue
        r1, r2 = d_one / d_half, d_two / d_one
        if abs(r1 - 2.0) > 2.0 * ratio_tol or abs(r2 - 2.0) > 2.0 * ratio_tol:
            witnesses.append((float(u), r1, r2))
    if witnesses:
        return NotTimeHomogeneous(
            total_mass=mass,
            detail=f"{len(witnesses)} probe weights break dL_t proportional to t",
            witnesses=tuple(witnesses[:5]),
        )

    norm = mass

    def sigma(u):
        return levy_density_u(ctx, t, float(u)) / norm

    return FiniteActivity(total_mass=mass, rate=mass / t, weight_density=sigma)


def density_table(ctx: LevyContext, t: float, us: Sequence[float]):
    """Rows (t, u, dL_t(u)) for CSV dumps."""
    return [(float(t), float(u), levy_density_u(ctx, t, float(u))) for u in us]
