"""Levy measures of random measures built from an exponential family.

A context bundles a family, a parameter path eta(z), a base measure A_0, and
the index k of a monotone statistic.  The induced Levy density is

    dL_t(s) = ( int_{(0,t]} p(s | eta(z)) dA_0(z) ) ds

in the family's own coordinate, and its pushforward under u = T_k(s) in the
weight coordinate.  The Laplace exponent is
int (1 - e^{-theta u}) dL_t(u) = int_{(0,t]} (1 - E_{eta(z)}[e^{-theta T_k}]) dA_0(z).

The per-location transform is closed form, the log-partition tilt
E_eta[e^{-theta T_k}] = exp(A(eta - sign_k theta e_k) - A(eta)), which
:func:`stat_laplace` evaluates at one eta or at a batch, one eta per column.
Each functional hands its location integral one integrand h(eta, x), at one
eta or a batch and at its points x (theta, or one s or an array of s), so a
density table is one walk over the locations.  Location integrals split
exactly at piece breakpoints and add atoms of A_0 exactly over (0, t] (a
jump at t counts, one at 0 does not).  Where eta is one constant on a
stretch the integral is h(eta, x) A_0(stretch).  Any other stretch takes,
per base piece, one 21-point Gauss-Kronrod pass (QUADPACK's ``qk21``) with h
on a batch of eta at its nodes and every point, and falls back to
:func:`~crmkit.piecewise.checked_quad` with h on one eta per node only for a
point where QUADPACK would not stop after that pass: each value is the
double ``quad`` gives, at one point or in any array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import expfam
from .errors import ConditionError, CrmError, DivergenceError, NaturalSpaceError, SupportError
from .expfam import ExpFamilySpec, ParameterPath
from .piecewise import _EPSABS, _EPSREL, PiecewiseFunction, checked_quad

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
    """Nonnegative measure on [0, inf): a piecewise density plus point masses.
    Const, affine and ratio pieces are checked nonnegative exactly, ``func`` pieces not."""

    density: PiecewiseFunction
    jumps: tuple = ()

    def __post_init__(self):
        for p in self.density.pieces:
            if p.kind != "func" and not p.nonnegative():
                raise CrmError(f"base density {p.kind} piece on ({p.lo}, {p.hi}] must be nonnegative")
        jumps = tuple(sorted((float(loc), float(mass)) for loc, mass in self.jumps))
        for loc, mass in jumps:
            if not (loc >= 0 and mass >= 0):
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
        """A_0(a, b]; 0 for an empty window, an error for a NaN end."""
        if not a < b:
            if math.isnan(a) or math.isnan(b):
                raise CrmError(f"base measure window ({a}, {b}] has a NaN end")
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
    Checks (2) and (3) are sampled at the grid points alone, so a pass says
    nothing between them or beyond the last one; the grid of
    :meth:`LevyContext.build` stops at z = max(10, lo + 10) on a domain with
    no upper end.
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

    # (2) path in natural space: evaluated point by point, so an undefined
    # point or a raising piece is a witness, then tested in one batch
    witnesses = []
    zs, etas = [], []
    for z in grid:
        if not path.defined_at(z):
            witnesses.append((float(z), "path undefined"))
            continue
        try:
            etas.append(path.eval(z))
        except Exception as exc:  # record, don't raise
            witnesses.append((float(z), str(exc)))
            continue
        zs.append(float(z))
    zs, etas = np.array(zs), np.array(etas).reshape(-1, family.dimension)
    ok = family.in_natural_space(etas.T)
    for z, eta in zip(zs[~ok], etas[~ok]):
        try:
            family.check_natural(eta)
        except NaturalSpaceError as exc:
            witnesses.append((float(z), str(exc)))
    witnesses.sort(key=lambda w: w[0])
    checks.append(
        ConditionCheck(
            "path_in_natural_space",
            not witnesses,
            f"{len(witnesses)} of {grid.size} grid points fail",
            tuple(witnesses[:5]),
        )
    )

    # (3) contraction closure in coordinate k, at the points that pass (2),
    # every contraction of every point in one batch of shape (l, points, eps)
    contracted = np.repeat(etas[ok].T[:, :, None], len(_CONTRACTIONS), axis=2)
    contracted[k - 1] *= _CONTRACTIONS
    closed = family.in_natural_space(contracted)
    witnesses = [
        (float(z), _CONTRACTIONS[int(np.argmin(row))])
        for z, row in zip(zs[ok], closed)
        if not row.all()
    ]
    checks.append(
        ConditionCheck(
            "contraction_closure",
            not witnesses,
            f"{len(witnesses)} grid points leave the natural space under contraction",
            tuple(witnesses[:5]),
        )
    )

    return ConditionReport(tuple(checks))


def _default_grid(path: ParameterPath, cuts: Sequence[float] = ()) -> np.ndarray:
    """Check points on the path's domain (lo, hi].

    24 geometric and 17 linear points, plus every path breakpoint and every
    extra cut that lies strictly inside the domain.
    """
    lo = max(c.lo for c in path.components)
    hi = min(c.hi for c in path.components)
    hi_eff = hi if np.isfinite(hi) else max(10.0, lo + 10.0)
    lo_eff = max(lo, 1e-4 * max(1.0, hi_eff))
    pts = set(np.geomspace(lo_eff if lo_eff > 0 else 1e-4, hi_eff, 24))
    pts.update(np.linspace(lo_eff, hi_eff, 17))
    for b in [*path.breakpoints(), *cuts]:
        if lo < b < hi:
            pts.add(b)
    return np.asarray(sorted(p for p in pts if lo < p and p <= hi), dtype=float)


@dataclass(frozen=True)
class LevyContext:
    """A family, parameter path, base measure, and weight statistic index.

    Construct through :meth:`build`, which attaches the condition report.
    A strict context (``require_conditions``, the default) cannot hold a
    failed report: making one, also by ``dataclasses.replace``, raises
    :class:`ConditionError`, so no functional checks it again.
    """

    family: ExpFamilySpec
    path: ParameterPath
    base: BaseMeasure
    k: int
    report: ConditionReport
    require_conditions: bool = True

    def __post_init__(self):
        if self.require_conditions and not self.report.passed:
            raise ConditionError(
                f"construction conditions fail: {self.report.summary()}", report=self.report
            )

    @classmethod
    def build(
        cls,
        family: ExpFamilySpec,
        path: ParameterPath,
        base: BaseMeasure,
        k: int,
        require_conditions: bool = True,
    ) -> "LevyContext":
        """The context with its condition report on the path's check grid.

        Checks (2) and (3) of :func:`check_conditions` are sampled on that
        grid.  On a domain with no upper end it stops at z = max(10, lo + 10),
        plus any breakpoint beyond, so a passing report says nothing about
        eta(z) past that point.
        """
        report = check_conditions(family, path, k, _default_grid(path, base.breakpoints()))
        return cls(family, path, base, k, report, require_conditions)

    def stat(self):
        return self.family.stats[self.k - 1]


def _cuts(ctx: LevyContext, lo: float, hi: float) -> list[float]:
    """lo, hi and every path or base breakpoint strictly between, ascending."""
    inner = [b for b in ctx.path.breakpoints() + ctx.base.breakpoints() if lo < b < hi]
    return sorted({lo, hi, *inner})


# QUADPACK dqk21 (Piessens et al. 1983): the 10-point Gauss rule's abscissae
# are _XGK[1::2], their weights _WG; the 21-point Kronrod rule adds _XGK[0::2]
# and the centre, with weights _WGK (the centre's last)
_XGK = np.array((
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
))
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_EPMACH = 2.220446049250313e-16  # d1mach(4)
_UFLOW = 2.2250738585072014e-308  # d1mach(1)


def _gk21(f_many: Callable, a: float, b: float) -> list:
    """QUADPACK's first pass over finite (a, b) per point, or None where it would go on.

    ``f_many`` maps the 21 nodes to one row of 21 values per point (shape
    (..., 21)).  Each row's sums and error estimate are ``dqk21``'s, in its
    order, in Python floats; under ``dqagse``'s first-pass rule at
    ``checked_quad``'s tolerances the result is the double ``quad`` returns
    after 21 evaluations, else None."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    absc = hlgth * _XGK
    rows = f_many(np.concatenate(([centr], centr - absc, centr + absc))).reshape(-1, 21)
    out = []
    for fc, *fv in rows.tolist():
        fv1, fv2 = fv[:10], fv[10:]
        resg = 0.0
        resk = _WGK[10] * fc
        resabs = abs(resk)
        for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):  # the Gauss pairs, then the Kronrod-only ones
            fsum = fv1[j] + fv2[j]
            if j % 2:
                resg += _WG[j // 2] * fsum
            resk += _WGK[j] * fsum
            resabs += _WGK[j] * (abs(fv1[j]) + abs(fv2[j]))
        reskh = resk * 0.5
        resasc = _WGK[10] * abs(fc - reskh)
        for j in range(10):
            resasc += _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
        result = resk * hlgth
        resabs *= abs(hlgth)
        resasc *= abs(hlgth)
        abserr = abs((resk - resg) * hlgth)
        if resasc != 0.0 and abserr != 0.0:
            ratio = 200.0 * abserr / resasc  # min(1, ratio^1.5) without overflow
            abserr = resasc if ratio >= 1.0 else resasc * ratio ** 1.5
        if resabs > _UFLOW / (50.0 * _EPMACH):
            abserr = max((_EPMACH * 50.0) * resabs, abserr)
        errbnd = max(_EPSABS, _EPSREL * abs(result))
        roundoff = abserr <= 100.0 * _EPMACH * resabs and abserr > errbnd
        done = (abserr <= errbnd and abserr != resasc) or abserr == 0.0
        out.append(result if math.isfinite(result) and not roundoff and done else None)
    return out


def _without_overrides(ctx: LevyContext) -> LevyContext:
    """``ctx`` without its path's atom overrides, which act on the measure only
    through base point masses: densities in z read the path without them."""
    if not ctx.path.atom_overrides:
        return ctx
    return replace(ctx, path=ParameterPath(ctx.path.components))


def _stretch_integral(ctx: LevyContext, h: Callable, x, piece, lo, hi) -> np.ndarray:
    """int_(lo, hi] h(eta(z), x) a_0(z) dz on one base piece at each point of x: one
    :func:`_gk21` pass over every point, then :func:`checked_quad` with h on one eta
    per node for each point it declines, such as every point on an infinite stretch."""
    points = x.ravel().tolist()
    passes = [None] * len(points)
    if math.isfinite(hi):
        try:
            with np.errstate(all="ignore"):
                passes = _gk21(lambda zs: h(ctx.path.eval_many(zs).T, x) * piece.value(zs), lo, hi)
        except CrmError:
            pass
    return np.array([
        checked_quad(lambda z: h(ctx.path.eval(z), p) * piece.value(z), lo, hi) if v is None else v
        for v, p in zip(passes, points)
    ]).reshape(x.shape)


def _z_integral(ctx: LevyContext, h: Callable, t: float, x) -> float | np.ndarray:
    """int_(0, t] h(eta(z), x) dA_0(z) at each point of x, split at breakpoints, atoms
    exact: of shape ``np.shape(x)``, or the float 0.0 where nothing adds to it.

    ``h`` maps one eta (shape (l,)) to shape ``np.shape(x)`` and a batch (shape
    (l, m)) to ``np.shape(x) + (m,)``, each entry that eta's and point's double.
    A stretch where every path component is one ``const`` piece gives h(eta, x)
    A_0(stretch), h not run where that mass is 0; any other takes
    :func:`_stretch_integral` per base piece.  Atom overrides act only through
    the base point masses.  The callers check t > 0.
    """
    total, x = 0.0, np.asarray(x, dtype=float)
    plain = _without_overrides(ctx)
    cuts = _cuts(ctx, 0.0, t)
    for a, b in zip(cuts, cuts[1:]):
        pieces = [comp.piece_at(b) for comp in ctx.path.components]
        if all(p is not None and p.kind == "const" for p in pieces):
            mass = ctx.base.density.integral(a, b)
            if mass != 0.0:
                total += h(np.array([p.c0 for p in pieces]), x) * mass
            continue
        for piece in ctx.base.density.pieces:
            lo, hi = max(a, piece.lo), min(b, piece.hi)
            if lo < hi:
                total += _stretch_integral(plain, h, x, piece, lo, hi)
    for loc, mass in ctx.base.jumps_in(0.0, t):
        if mass > 0:
            total += mass * h(ctx.path.eval(loc), x)
    return total


def levy_density_s(ctx: LevyContext, t: float, s):
    """Levy density dL_t(s) in the family coordinate over (0, t]: a float at one s, at an
    array of s an array of the doubles each s alone gives, from one walk over the
    locations.  The first s outside the family support raises :class:`SupportError`."""
    if not (t > 0):
        raise CrmError(f"time must be positive, got t={t}")
    if not ctx.family.support.contains(s):
        bad = next(v for v in np.ravel(s) if not ctx.family.support.contains(v))
        raise SupportError(f"s={bad} outside the family support")
    density = _z_integral(ctx, lambda eta, x: np.exp(expfam._log_density_many(ctx.family, eta, x)), t, s)
    return density + np.zeros(np.shape(s)) if np.ndim(s) else float(density)


def levy_integrand(ctx: LevyContext, z: float, s: float) -> float:
    """Density-in-z of the Levy measure: p(s | eta(z)) a_0(z), atoms and overrides excluded."""
    if not ctx.family.support.contains(s):
        raise SupportError(f"s={s} outside the family support")
    if not ctx.base.density.defined_at(z):
        return 0.0
    eta = _without_overrides(ctx).path.eval(z)
    return float(expfam.density(ctx.family, eta, s) * ctx.base.density(z))


def _pushforward(ctx: LevyContext, u, density_s: Callable):
    """density_s(s) |ds/du| at s = T_k^{-1}(u), at one u (a float) or an array, from one
    ``density_s`` call: at s of u's shape, or, where the inverse or its derivative overflows
    (the deep tail, 0.0), at the others.  The first u outside the image raises SupportError."""
    stat = ctx.stat()
    if stat.inverse is None or stat.inverse_deriv is None:
        raise CrmError(f"statistic {stat.name!r} has no declared inverse")
    us = np.asarray(u, dtype=float)
    if not stat.in_image(us).all():
        bad = next(v for v in us.flat if not stat.in_image(v))
        raise SupportError(f"u={bad} outside the image {stat.image} of statistic {stat.name!r}")
    with np.errstate(over="ignore"):
        s, jac = stat.inverse(us), np.abs(stat.inverse_deriv(us))
    keep = np.isfinite(s) & np.isfinite(jac)
    if keep.all():  # at u's own shape, so one u takes the one-point path
        return density_s(s) * jac if us.ndim else float(density_s(s) * jac)
    out = np.zeros(us.shape)
    if keep.any():
        out[keep] = density_s(s[keep]) * jac[keep]
    return out if us.ndim else float(out)


def levy_density_u(ctx: LevyContext, t: float, u):
    """The pushforward of :func:`levy_density_s` to the weight coordinate
    u = T_k(s), at one u or an array alike: 0.0 where the inverse overflows,
    and the first u outside the image raises :class:`SupportError`."""
    if not (t > 0):
        raise CrmError(f"time must be positive, got t={t}")
    return _pushforward(ctx, u, lambda s: levy_density_s(ctx, t, s))


def stat_laplace(family: ExpFamilySpec, eta, k: int, theta: float) -> float | np.ndarray:
    """E[e^{-theta T_k(S)}] under the family density at eta, by the log-partition tilt.

    The transform is exp(A(eta - sign_k theta e_k) - A(eta)), at one eta of
    shape (l,) (a float) or at a batch of shape (l, m), one eta per column
    (an array, each column the double of that eta alone); eta and its tilt
    are each bound once (:func:`~crmkit.expfam._tilt`).  It is infinite
    exactly where the tilted parameter leaves the natural space; there it
    raises :class:`DivergenceError` with ``partial=inf``, naming the tilted
    coordinate of the first such column.  An eta outside the natural space
    raises :class:`NaturalSpaceError`.
    """
    return expfam._tilt(family, eta, k, -theta)


def laplace_exponent(ctx: LevyContext, t: float, theta: float) -> float:
    """int (1 - e^{-theta u}) dL_t(u); 0 at theta=0 or t=0.

    Raises :class:`DivergenceError` carrying the partial value when either
    axis fails to stabilize (improper tails or infinite location mass).
    """
    if not (theta >= 0):
        raise CrmError(f"theta must be nonnegative, got {theta}")
    if not (t >= 0):
        raise CrmError(f"time must be nonnegative, got {t}")
    if theta == 0.0 or t == 0.0:
        return 0.0

    return float(_z_integral(ctx, lambda eta, th: 1.0 - stat_laplace(ctx.family, eta, ctx.k, th), t, theta))


@dataclass(frozen=True)
class FiniteActivity:
    """Finite total mass; when proportional to t, compound-Poisson data.

    ``rate`` is M(t)/t and ``weight_density`` the normalized weight density
    sigma(u) at one u or an array; for the null measure rate 0 and density None.
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


# relative difference of a coordinate of eta or of a_0 that breaks time proportionality
_RATIO_TOL = 1e-6


def _homogeneity_witnesses(ctx: LevyContext, t: float) -> list:
    """Points z of (0, 2t] where p(. | eta(z)) a_0(z) is not the value at the first point.

    A base point mass in (0, 2t] is a witness.  Otherwise eta and a_0 are
    compared at the path's check grid in (0, 2t], the midpoint of every
    stretch between cuts, and 2t; a point where either is undefined is a
    witness.  The comparison reads the path without its atom overrides.
    """
    horizon = 2.0 * t
    jumps = ctx.base.jumps_in(0.0, horizon)
    if jumps:
        return [(loc, "base point mass", mass) for loc, mass in jumps]
    cuts = _cuts(ctx, 0.0, horizon)
    points = {z for z in _default_grid(ctx.path, cuts) if z <= horizon}
    points.update(0.5 * (a + b) for a, b in zip(cuts, cuts[1:]))
    points.add(horizon)
    zs = np.array(sorted(points))
    defined = np.array([ctx.path.defined_at(z) and ctx.base.density.defined_at(z) for z in zs])
    witnesses = [(float(z), "path or base density undefined") for z in zs[~defined]]
    zs = zs[defined]
    if zs.size:
        etas = _without_overrides(ctx).path.eval_many(zs)
        values = np.column_stack([etas, ctx.base.density(zs)])
        moved = np.any(np.abs(values - values[0]) > _RATIO_TOL * np.abs(values[0]), axis=1)
        witnesses += [(float(z), *map(float, v)) for z, v in zip(zs[moved], values[moved])]
    return witnesses


def classify_activity(ctx: LevyContext, t: float):
    """Total-mass and time-proportionality classification at horizon t.

    Mass: every p(. | eta(z)) is a probability density and u = T_k(s) keeps
    mass, so by Tonelli the Levy mass over (0, t] is exactly A_0((0, t]).  A
    base whose mass there diverges gives InfiniteActivity; a null mass gives
    FiniteActivity with rate 0 and no weight density.

    Time proportionality: dL_s is proportional to s for every s <= 2t exactly
    when p(. | eta(z)) a_0(z) does not depend on z on (0, 2t], because a
    minimal family identifies eta by its density.  It is decided by no point
    mass of A_0 in (0, 2t] and one value of eta and of a_0 at the check points
    of :func:`_homogeneity_witnesses`, up to a relative difference of 1e-6
    in each coordinate of eta and of a_0 from their values at the first
    check point.  The check is exact for ``const`` and ``affine``
    pieces and a sampled one for ``func`` pieces.

    Returns FiniteActivity (rate M(t)/t and the normalized weight density
    p(T_k^{-1}(u) | eta) |dT_k^{-1}/du| at the one eta, the pushforward of
    :func:`levy_density_u`) when proportional, NotTimeHomogeneous with up to
    five z witnesses otherwise.
    """
    if not (t > 0):
        raise CrmError(f"time must be positive, got t={t}")
    if ctx.family.support.discrete:
        raise CrmError("activity classification needs a continuous support")

    try:
        mass = ctx.base.increment(0.0, t)
    except DivergenceError as exc:
        return InfiniteActivity(detail=f"A_0((0, {t}]) diverges, partial {exc.partial!r}: {exc}")
    if mass == 0.0:
        return FiniteActivity(total_mass=0.0, rate=0.0, weight_density=None)

    witnesses = _homogeneity_witnesses(ctx, t)
    if witnesses:
        return NotTimeHomogeneous(
            total_mass=mass,
            detail=f"dL_s is not proportional to s on (0, {2.0 * t}]; witnesses: {len(witnesses)}",
            witnesses=tuple(witnesses[:5]),
        )

    bound = ctx.family.at([comp(t) for comp in ctx.path.components])

    return FiniteActivity(mass, mass / t, weight_density=lambda u: _pushforward(ctx, u, bound.density))


def density_table(ctx: LevyContext, t: float, us: Sequence[float]):
    """Rows (t, u, dL_t(u)) for CSV dumps, from one :func:`levy_density_u` call."""
    values = levy_density_u(ctx, t, np.asarray(us, dtype=float))
    return [(float(t), float(u), v) for u, v in zip(us, values.tolist())]
