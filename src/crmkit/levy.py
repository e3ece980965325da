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
Each functional hands its location integral one integrand h(eta, A(eta), x),
at one bound eta or a batch and at its points x (theta, or the positions of
one s or an array of s), so a density table is one walk over the locations.
The walk reads the context's stretch plan, the part that depends on neither
t nor x: the cuts of (0, inf) at every path and base breakpoint and, per
stretch, its base pieces, its kind, and its path as coefficient rows
(c0, c1) where every component is ``const`` or ``affine``, so the eta of a
batch of nodes is one broadcast c0 + c1 z.  Each context builds its own plan
on the first functional call and keeps it; a constant stretch binds
(eta, A(eta)) on first use and keeps them, and a failure is never kept.
Each call clips the plan to (0, t] and adds the atoms of A_0 exactly over
(0, t] (a jump at t counts, one at 0 does not).  A stretch is of one of
three kinds:

- constant, every path component one ``const`` piece: it contributes
  h(eta, A(eta), x) A_0(stretch within (0, t]);
- exponential-polynomial, one component ``affine`` and the others ``const``,
  where the family declares e^{-A} a polynomial times an exponential in that
  coordinate, the base cancels it to a polynomial q(z) and eta stays in the
  natural space (:class:`_ExpPoly`): a density takes the closed form of
  q(z) e^{lambda_0 + lambda_1 z} over each finite base piece, in long double
  from the points' own input, rounded to a double once with the walk's other
  parts; the Laplace exponent's tilt integrand, which is no such product,
  takes QUADPACK there;
- general, every other one (a ``func`` piece, a gamma shape that is no
  integer under an affine rate, ``pareto_loglog``, a base that cancels no
  factor, a piece clipped to an infinite t): per base piece that is not
  identically 0, one :func:`~crmkit.piecewise.checked_quad` over the points,
  QUADPACK's routine in lockstep: its integrand h at the first step on a
  batch of eta at the nodes and every point, and at each later step on the
  nodes of each point still bisecting, paired with that point, so each value
  is the double QUADPACK gives, at one point or in any array.

Each public functional checks its inputs once, at its door, and hands them to
the private walk, which checks them no more: t; u against the statistic's
image; s against the support; or theta.  A density in the weight coordinate
reads a point's carrier and statistics from u alone, through the family's
``stat_terms``, the statistic's declared inverse, ln|ds/du| folded into the
carrier or into a tilt of eta; no s is formed, as s = T_k^{-1}(u) may round
onto an end of the support or overflow where the density at u is a normal
double.  Every density, in either coordinate, takes its terms in double on
general stretches and in long double on constant stretches and for the closed
forms, rounded to a double once.  One point travels as a
numpy scalar, an array as an array, through the same code.  The density
reads the carrier and the statistics at the call's points once.  The eta of
each batch of nodes is checked once, where it is made: finite as
:meth:`_Stretch.etas` makes it (naming the first such z),
then in the natural space (with the failing node's ``index``), and A(eta) is
evaluated with no further check.  The door enters one
``np.errstate(all="ignore")``: no division by zero, overflow, underflow or
invalid value in the call is warned about.  A point whose first rule is not
finite bisects, and the routine raises where it finds no finite value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import expfam
from .errors import ConditionError, CrmError, DivergenceError, NaturalSpaceError, SupportError
from .errors import _horizon, _real
from .expfam import ExpFamilySpec, ParameterPath
from .piecewise import Piece, PiecewiseFunction, checked_quad

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
        for loc, mass in self.jumps:
            if not (_real(loc) and _real(mass)):
                raise CrmError(f"base measure jump ({loc}, {mass}) must be finite")
            if not (loc >= 0 and mass >= 0):
                raise CrmError(f"base measure jump ({float(loc)}, {float(mass)}) must be nonnegative")
        object.__setattr__(self, "jumps", tuple(sorted((float(a), float(m)) for a, m in self.jumps)))

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
        return self.segments(a, b)[2]

    def segments(self, a: float, b: float):
        """Where A_0 puts its mass on a window (a, b], a < b: ``(pieces, jumps, total)``.

        ``pieces`` holds (piece, lo, hi, mass) for each density piece that
        meets the window, (lo, hi] being its part inside; ``jumps`` is
        ``jumps_in(a, b)``; ``total``, the density's mass and then each jump's
        added in location order, is ``increment(a, b)``.
        """
        pieces, total = self.density._window(a, b)
        jumps = self.jumps_in(a, b)
        return pieces, jumps, total + sum(m for _, m in jumps)

    def breakpoints(self) -> list[float]:
        return sorted(set(self.density.breakpoints()) | {loc for loc, _ in self.jumps})

    def _cell_masses(self, edges: np.ndarray) -> np.ndarray:
        """``increment(edges[i], edges[i + 1])`` for every cell i of the ascending
        ``edges``, to the bit, in one pass over the pieces and one over the jumps.

        As in :meth:`segments`, a cell's piece masses add in piece order and its
        jumps in location order, then the two sums.  A const or affine piece
        integrates over every cell it meets as one array; where a cell's value
        is not finite, :meth:`Piece.integral` there raises its error.  A ratio
        piece (``math.log1p``, which ``np.log1p`` need not match to the bit) or
        a callable one integrates cell by cell.
        """
        a, b = edges[:-1], edges[1:]
        density, jumps = np.zeros(len(a)), np.zeros(len(a))
        for p in self.density.pieces:
            lo, hi = np.maximum(a, p.lo), np.minimum(b, p.hi)
            meet = np.flatnonzero(lo < hi)
            if p.kind in ("const", "affine"):
                mass = p._closed(lo[meet], hi[meet])
                bad = meet[~np.isfinite(mass)]
                if bad.size:  # the first such cell raises as increment raised there
                    p.integral(lo[bad[0]], hi[bad[0]])
            else:
                mass = [p.integral(x, y) for x, y in zip(lo[meet].tolist(), hi[meet].tolist())]
            density[meet] += mass
        for loc, mass in self.jumps:
            # cell i covers (edges[i], edges[i + 1]]
            i = int(np.searchsorted(edges, loc)) - 1
            if 0 <= i < len(a):
                jumps[i] += mass
        return density + jumps


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

    Checks: (1) the family declares the statistics' inverse, its
    ``stat_terms``, and it round-trips numerically: at each x of
    ``family.support.grid(101)``, the statistics evaluated there once,
    ``stat_terms(k, T_k(x))`` gives back every T_j(x) within a relative
    1e-10 (the witnesses are the first x where it does not); (2) eta(z) lies
    in the natural space at every grid point; (3) the natural space is
    closed under contracting coordinate k toward zero (epsilon in {0.1,
    0.5, 0.9}) along the grid.
    Checks (2) and (3) are sampled at the grid points alone, so a pass says
    nothing between them or beyond the last one; the grid of
    :meth:`LevyContext.build` stops at z = max(10, lo + 10) on a domain with
    no upper end.  Check (2) finds the points the path's pieces do not cover
    (an override there does not count) in one ``defined_at`` call and
    evaluates the others in one ``eval_many`` call; it walks them point by
    point only where that call raises, a ``func`` piece raising or eta not
    finite, to name each such point as a witness.
    """
    if path.dimension != family.dimension:
        raise CrmError(f"path dimension {path.dimension} != family dimension {family.dimension}")
    k = expfam._check_k(family, k)
    grid = np.sort(np.asarray(grid, dtype=float))
    if grid.size == 0 or np.any(grid <= 0):
        raise CrmError("condition grid must be nonempty and strictly positive")
    stat = family.stats[k - 1]

    # (1) invertible statistic: the terms at u = T_k(x) give back each T_j(x)
    if family.stat_terms is None:
        detail = f"statistic {stat.name!r} declares no differentiable inverse"
        invertible = ConditionCheck("invertible_statistic", False, detail)
    else:
        xs = family.support.grid(101)
        values = [each.value(xs) for each in family.stats]
        back = family.stat_terms(k, values[k - 1])[1]
        errs = (np.abs(b - v) / np.maximum(1.0, np.abs(v)) for b, v in zip(back, values))
        err = functools.reduce(np.maximum, errs)
        bad = xs[~(err <= 1e-10)]  # a nan is no round trip
        detail = f"max relative round-trip error {err.max():.3e}"
        invertible = ConditionCheck("invertible_statistic", bad.size == 0, detail, tuple(bad[:3].tolist()))

    # (2) path in natural space: the defined points in one batch; only if that
    # raises, point by point, so a raising piece or a non-finite eta is a witness
    defined = path.defined_at(grid)
    witnesses = [(float(z), "path undefined") for z in grid[~defined]]
    zs = grid[defined]
    try:
        etas = path.eval_many(zs)
    except Exception:  # some point fails: walk the points to name each one
        kept = []
        for z in zs.tolist():
            try:
                kept.append((z, path.eval(z)))
            except Exception as exc:  # record, don't raise
                witnesses.append((z, str(exc)))
        zs = np.array([z for z, _ in kept])
        etas = np.array([eta for _, eta in kept]).reshape(-1, family.dimension)
    ok = family.in_natural_space(etas.T)
    for z, eta in zip(zs[~ok], etas[~ok]):
        try:
            family.check_natural(eta)
        except NaturalSpaceError as exc:
            witnesses.append((float(z), str(exc)))
    witnesses.sort(key=lambda w: w[0])
    detail = f"{len(witnesses)} of {grid.size} grid points fail"
    in_space = ConditionCheck("path_in_natural_space", not witnesses, detail, tuple(witnesses[:5]))

    # (3) contraction closure in coordinate k, at the points that pass (2),
    # every contraction of every point in one batch of shape (l, points, eps);
    # witnesses are made for the first five open rows alone
    contracted = np.repeat(etas[ok].T[:, :, None], len(_CONTRACTIONS), axis=2)
    contracted[k - 1] *= _CONTRACTIONS
    closed = family.in_natural_space(contracted)
    open_rows = np.flatnonzero(~closed.all(axis=1))
    witnesses = tuple(
        (float(z), _CONTRACTIONS[int(i)])
        for z, i in zip(zs[ok][open_rows[:5]], closed[open_rows[:5]].argmin(axis=1))
    )
    detail = f"{open_rows.size} grid points leave the natural space under contraction"
    closure = ConditionCheck("contraction_closure", not open_rows.size, detail, witnesses)
    return ConditionReport((invertible, in_space, closure))


def _default_grid(path: ParameterPath, cuts: Sequence[float] = ()) -> np.ndarray:
    """Check points on the path's domain (lo, hi].

    24 geometric and 17 linear points, plus every path breakpoint and every
    extra cut that lies strictly inside the domain.
    """
    lo = max(c.lo for c in path.components)
    hi = min(c.hi for c in path.components)
    hi_eff = hi if np.isfinite(hi) else max(10.0, lo + 10.0)
    lo_eff = max(lo, 1e-4 * max(1.0, hi_eff))
    extra = np.array([*path.breakpoints(), *cuts], dtype=float)
    pts = np.concatenate(
        [
            np.geomspace(lo_eff, hi_eff, 24),
            np.linspace(lo_eff, hi_eff, 17),
            extra[(lo < extra) & (extra < hi)],
        ]
    )
    return _sorted_distinct(pts[(lo < pts) & (pts <= hi)])


def _sorted_distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of x, ascending, with no call to ``np.unique``,
    whose first call imports ``numpy.ma``."""
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


@dataclass(frozen=True)
class LevyContext:
    """A family, parameter path, base measure, and weight statistic index.

    Construct through :meth:`build`, which attaches the condition report.
    A strict context (``require_conditions``, the default) cannot hold a
    failed report: making one, also by ``dataclasses.replace``, raises
    :class:`ConditionError`, so no functional checks it again.

    The Levy functionals read the context's stretch plan (:class:`_Plan`).
    It is built lazily, on the first functional call, and kept by this
    instance alone: a ``dataclasses.replace`` copy builds its own, and
    :meth:`build` and the sampler never build one.  A failure while building
    or reading it is never kept, so it raises again on the next call.
    """

    family: ExpFamilySpec
    path: ParameterPath
    base: BaseMeasure
    k: int
    report: ConditionReport
    require_conditions: bool = True

    def __post_init__(self):
        if self.require_conditions and not self.report.passed:
            failed = "".join(
                f"; {c.name}: {c.detail}" + (f", first witness {c.witnesses[0]}" if c.witnesses else "")
                for c in self.report.checks if not c.passed
            )
            raise ConditionError(
                f"construction conditions fail: {self.report.summary()}{failed}", report=self.report
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

    @cached_property
    def _plan(self) -> "_Plan":
        return _Plan(self)


_ROWS = ("const", "affine")  # the path piece kinds a stretch evaluates as coefficient rows


class _Stretch:
    """One stretch (lo, hi] of a plan, with no path or base breakpoint inside it,
    of one of three kinds, decided once, when the plan is built.

    ``rows`` holds the path as coefficient columns (c0, c1), each of shape
    (l, 1), where every component is one ``const`` or ``affine`` piece there,
    so eta at the nodes is the one broadcast c0 + c1 z (a ``const`` row takes
    c1 = -0.0, which keeps c0 to the bit at every z > 0, where 0.0 z would turn
    a c0 of -0.0 into +0.0); elsewhere it is None and the plan's path gives eta.
    ``base`` holds (piece, lo, hi) for each base piece that is not identically 0
    and overlaps the stretch, clipped to it.  The kinds:

    - constant: ``eta`` is the one eta where every component is a ``const``
      piece, else None;
    - exponential-polynomial: ``poly`` is an :class:`_ExpPoly` where the base
      cancels the family's normaliser (:func:`_ExpPoly.classify`), else None;
    - general: every other stretch, integrated by QUADPACK.
    """

    def __init__(self, ctx: "LevyContext", path: ParameterPath, lo: float, hi: float):
        self.lo, self.hi, self.family, self.path = lo, hi, ctx.family, path
        pieces = [comp.piece_at(hi) for comp in path.components]
        self.eta = np.array([p.c0 for p in pieces]) if all(p and p.kind == "const" for p in pieces) else None
        rows = [(p.c0, -0.0 if p.kind == "const" else p.c1) for p in pieces if p and p.kind in _ROWS]
        self.rows = tuple(np.array(rows).T.copy()[:, :, None]) if len(rows) == len(pieces) else None
        self.base = tuple((p, a, b) for p, a, b in ctx.base.density._meeting(lo, hi) if not p.zero)
        self.poly = None
        if self.eta is None and self.rows is not None:
            self.poly = _ExpPoly.classify(ctx.family, pieces, self.base, lo, hi)

    @cached_property
    def bound(self) -> tuple[np.ndarray, float]:
        """(eta, A(eta)) of a constant stretch, by :func:`~crmkit.expfam._bind_many`."""
        return expfam._bind_many(self.family, self.eta)

    def etas(self, zs: np.ndarray) -> np.ndarray:
        """eta at each z of the 1-D ``zs`` inside the stretch, shape (l, zs.size),
        checked finite as :meth:`~crmkit.expfam.ParameterPath.eval_many` checks it,
        and nowhere else."""
        if self.rows is None:
            return self.path.eval_many(zs).T
        etas = self.rows[0] + self.rows[1] * zs
        expfam._check_finite_path(zs, etas.T)
        return etas


_ONE_POINT = np.intp(0)  # the position of a call's one point
_LD = np.longdouble  # x87 extended on x86-64, a 64-bit significand: a closed form rounds to a double once
_LD_ZERO = _LD(0.0)  # x + _LD_ZERO is x in long double, at a tenth of the constructor's cost
_EPS_LD = float(np.finfo(_LD).epsneg)


def _ld(x):
    """x, a double or an array of them, in long double."""
    return x.astype(_LD) if isinstance(x, np.ndarray) else x + _LD_ZERO


def _upward_from(degree: int) -> float:
    """The mu from which :func:`_weighted` takes the upward recurrence at this degree:
    there its steps amplify W_0's relative error by (d + 1)!/mu^d <= 2^6 at most."""
    return (math.factorial(degree + 1) / 64.0) ** (1.0 / degree) if degree else 0.0


def _weighted(mu, coeffs: list, upward: float):
    """sum_k r_k W_k(mu) over the coefficients r_k, in long double at one mu >= 0, where
    W_k(mu) = int_0^1 theta^k e^{-mu theta} dtheta = k! e^{-mu} phi_{k+1}(mu) and
    phi_k(x) = sum_i x^i / (i + k)! are the phi-functions of exponential
    integrators (Hochbruck and Ostermann, *Acta Numerica* 19, 2010).

    W_0 = -expm1(-mu)/mu.  From ``upward`` (:func:`_upward_from`) on,
    W_k = (k W_{k-1} - e^{-mu})/mu upward; below it, where that recurrence would
    cancel, the top order d is d! e^{-mu} phi_{d+1}(mu), phi's series of positive
    terms, and the lower ones follow downward, W_{k-1} = (mu W_k + e^{-mu})/k
    (phi_k = x phi_{k+1} + 1/k!), a sum of positive terms.
    """
    degree = len(coeffs) - 1
    if mu == 0.0:
        return sum(coeff / (k + 1) for k, coeff in enumerate(coeffs))
    if mu >= upward:
        weight = -np.expm1(-mu) / mu
        total = coeffs[0] * weight
        if degree:
            decay = np.exp(-mu)
            for k in range(1, degree + 1):
                weight = (k * weight - decay) / mu
                total = total + coeffs[k] * weight
        return total
    decay = np.exp(-mu)
    i, term = degree + 1, (_LD_ZERO + 1.0) / math.factorial(degree + 1)
    series = term
    while term > _EPS_LD * series:
        i += 1
        term = term * mu / i
        series = series + term
    weight = math.factorial(degree) * decay * series
    total = coeffs[degree] * weight
    for k in range(degree, 0, -1):
        weight = (mu * weight + decay) / k
        total = total + coeffs[k - 1] * weight
    return total


def _taylor(scale, factors, z, step) -> list:
    """The coefficients, in theta, of scale prod (a + b z') at z' = z + step theta, in
    long double."""
    coeffs = [scale]
    for a, b in factors:
        f, g = a + b * z, b * step
        coeffs = [x * f + y * g for x, y in zip(coeffs + [_LD_ZERO], [_LD_ZERO, *coeffs])]
    return coeffs


class _ExpPoly:
    """An exponential-polynomial stretch: one path coordinate j is affine,
    eta_j = a + b z, the others are constant, and each base piece a_0 times the
    family's normaliser e^{-A(eta(z))} = P(eta_j) e^{c eta_j} (its declared
    ``normaliser``) is a polynomial q(z), kept as a constant times linear
    factors.  At a point s the integrand is then

        p(s | eta(z)) a_0(z) = q(z) exp(E(z)),  E(z) = lambda_0(s) + lambda_1(s) z,

    with lambda_0 = ln h(s) + sum_{i != j} sign_i eta_i T_i(s) + a w and
    lambda_1 = b w, w = sign_j T_j(s) + c, both linear in T(s).  Over (lo, hi],
    h = hi - lo, with z* the end where E is larger and z = z* +- h theta
    into the stretch,

        int q(z) e^{E(z)} dz = h e^{E(z*)} sum_k r_k W_k(|lambda_1| h),

    r_k the coefficients of q in theta and W_k of :func:`_weighted`.  Expanded
    at that end no exponential overflows where the value is finite, and each
    r_k W_k is positive where the linear factors have their roots on the side
    of z*, as the normaliser's do: e^{E} grows toward the natural space's
    boundary, where P vanishes.  The arithmetic is in long double, from
    statistics computed in long double from the call's own input
    (:attr:`_Density.precise`), so the double the walk rounds it to is the
    nearest one to the integral except within a small multiple of long
    double's epsilon (2^-63 on x86-64) of a midpoint between two doubles;
    where the platform's long double is a double, it is within a few ulps.

    ``pieces`` holds, per base piece of the stretch, q's constant and linear
    factors, the piece's lower end, eta_j there and q's coefficients there in
    powers of z - lo, and its :func:`_upward_from`.
    """

    def __init__(self, family: ExpFamilySpec, j: int, eta: np.ndarray, slope: float, c, polys, base):
        self.j, self.c, self.negate = j, c, family.stats[j].sign < 0
        self.slope, self.intercept = slope + _LD_ZERO, eta[j] + _LD_ZERO
        self.others = [(i, (v if stat.sign > 0 else -v) + _LD_ZERO)
                       for i, (v, stat) in enumerate(zip(eta.tolist(), family.stats)) if i != j]
        self.pieces = []
        for (scale, factors), (_, lo, _) in zip(polys, base):
            lo = lo + _LD_ZERO
            self.pieces.append((scale, factors, lo, self.intercept + self.slope * lo,
                                _taylor(scale, factors, lo, 1.0), _upward_from(len(factors))))

    @classmethod
    def classify(cls, family: ExpFamilySpec, pieces, base, lo: float, hi: float) -> "_ExpPoly | None":
        """The stretch as exponential-polynomial, or None where it is not: where
        not exactly one path piece is ``affine``, where the family declares no
        polynomial normaliser in that coordinate, where eta leaves the natural
        space on (lo, hi] (an affine eta is monotone: eta at hi, its limit on an
        infinite stretch, lies in it and no factor of P is negative at lo), or
        where a base piece times P is no polynomial: a ``func`` piece, or a
        ``ratio`` whose denominator is no factor of P (d0 b' == d1 a', exactly,
        for the factor a' + b' z)."""
        kinds = [p.kind for p in pieces]
        if family.normaliser is None or kinds.count("affine") != 1:
            return None
        j = kinds.index("affine")
        eta = np.array([p.c0 for p in pieces])
        declared = family.normaliser(eta, j + 1)
        if declared is None:
            return None
        factors, c, divisor = declared
        a, b = pieces[j].c0, pieces[j].c1
        at_hi = eta.copy()
        at_hi[j] = a + b * hi if b else a
        factors = [(p0 + p1 * a, p1 * b) for p0, p1 in factors]
        if not family.in_natural_space(at_hi) or any(f + g * lo < 0.0 for f, g in factors):
            return None
        polys = []
        for piece, _, _ in base:
            kept, scale = list(factors), (_LD_ZERO + 1.0) / divisor
            if piece.kind == "func":
                return None
            if piece.kind == "ratio":
                cancels = [i for i, (f, g) in enumerate(kept) if f * piece.d1 == g * piece.d0]
                if not cancels:
                    return None
                scale = scale * kept.pop(cancels[0])[1] / piece.d1
            if piece.kind != "const" and piece.c1 != 0.0:
                kept.append((piece.c0, piece.c1))
            else:
                scale = scale * piece.c0
            polys.append((scale, kept))
        return cls(family, j, eta, b, c, polys, base)

    def integral(self, index: int, hi: float, terms):
        """int_(lo, hi] p(s | eta(z)) a_0(z) dz over base piece ``index`` from its lower
        end lo, at every point s: a long double at one point, else an array of the
        points' shape; None where some value is not a finite double.  ``terms`` are
        the points' carrier and statistics in long double.  Each point takes the
        same long-double arithmetic, one scalar at a time, alone or in any batch."""
        scale, factors, lo, eta_lo, coeffs_lo, upward = self.pieces[index]
        carrier, values = terms
        shape = np.shape(carrier)
        if shape:
            carriers, columns = carrier.ravel().tolist(), [value.ravel().tolist() for value in values]
        else:
            carriers, columns = [carrier], [[value] for value in values]
        width = (hi + _LD_ZERO) - lo
        stat, negate, c, slope, others = columns[self.j], self.negate, self.c, self.slope, self.others
        at_lo = at_hi = None
        out = []
        for p, exponent in enumerate(carriers):
            w = -stat[p] if negate else stat[p]
            if c:
                w = w + c
            for i, coef in others:
                exponent = exponent + coef * columns[i][p]
            rate = slope * w
            if rate > 0.0:
                if at_hi is None:
                    end = lo + width  # hi in long double
                    at_hi = (self.intercept + slope * end, _taylor(scale, factors, end, -width))
                eta_end, coeffs = at_hi
            else:
                if at_lo is None:  # q's coefficients at lo, in theta = (z - lo)/width
                    at_lo, power = [coeffs_lo[0]], width
                    for coeff in coeffs_lo[1:]:
                        at_lo.append(coeff * power)
                        power = power * width
                    at_lo = (eta_lo, at_lo)
                eta_end, coeffs = at_lo
            value = width * np.exp(exponent + eta_end * w) * _weighted(abs(rate) * width, coeffs, upward)
            if not math.isfinite(float(value)):
                return None
            out.append(value)
        return np.array(out, dtype=_LD).reshape(shape) if shape else out[0]


def _precise_density(ctx: LevyContext, loc: float, h: "_Density"):
    """h at a point mass in long double, from its ``precise`` terms and A(eta) in long
    double: eta is the atom override at loc, else the path's ``const`` and ``affine``
    pieces there in long double, and the family declares its normaliser polynomial
    in some coordinate at that eta; else None."""
    family, override = ctx.family, ctx.path.atom_overrides.get(loc)
    if override is not None:
        eta = np.array(override, dtype=_LD)
    else:
        pieces = [comp.piece_at(loc) for comp in ctx.path.components]
        if not all(p.kind in _ROWS for p in pieces):
            return None
        eta = np.array([p.c0 + (_LD_ZERO + p.c1) * loc if p.kind == "affine" else _LD_ZERO + p.c0 for p in pieces])
    for j in range(family.dimension):
        declared = family.normaliser(eta, j + 1) if family.normaliser is not None else None
        if declared is not None:
            break
    else:
        return None
    factors, c, divisor = declared
    log_partition = np.log(_LD_ZERO + divisor) - c * eta[j] - sum(np.log(p0 + p1 * eta[j]) for p0, p1 in factors)
    return h(eta, log_partition, h.points, h.precise)


class _Plan:
    """What the functionals of a context need that depends on neither t nor the
    points: ``stat``, the weight statistic; ``path``, the parameter path without
    its atom overrides (which act on the measure only through the base point
    masses); ``jumps``, the point masses of A_0 with positive location and mass;
    and ``stretches``, the :class:`_Stretch` between consecutive cuts of (0, inf)
    at every path and base breakpoint, each classified constant,
    exponential-polynomial or general as it is built."""

    def __init__(self, ctx: "LevyContext"):
        self.stat, self.path = ctx.stat(), ParameterPath(ctx.path.components)
        self.jumps = [(loc, mass) for loc, mass in ctx.base.jumps if loc > 0.0 and mass > 0.0]
        cuts = [0.0, *sorted({b for b in ctx.path.breakpoints() + ctx.base.breakpoints() if b > 0.0}), _INF]
        self.stretches = tuple(_Stretch(ctx, self.path, lo, hi) for lo, hi in zip(cuts, cuts[1:]))


@functools.lru_cache(maxsize=32)
def _positions(shape: tuple) -> np.ndarray:
    """The positions of a call's points of this shape, one array per recent shape, never
    written."""
    return np.arange(math.prod(shape)).reshape(shape)


class _Density:
    """h(eta, A, pos) = p(s | eta) at the points of one call, read by position.

    The points are s in the family coordinate, checked in the support, whose
    carrier and statistics are :func:`~crmkit.expfam._terms` at s; or, with
    ``k``, u = T_k(s) in the weight coordinate, checked in the image, whose
    terms are the family's ``stat_terms(k, u)``, ln|ds/du| folded into the
    carrier and its ``tilt`` added to every eta, so h is the pushforward density
    and no s is formed.  ``terms`` is that one source at the points and
    ``precise`` the same at the points in long double, for the closed forms and
    the constant stretches; each is computed on first use and read
    from then on.  A tilt is read with the terms; the closed forms read none,
    as a family that declares a normaliser returns none.  ``points`` stands for
    all the points: ``np.intp(0)`` at one point, else the positions in the
    points' shape, so the walk passes it where it passes its points.  A subset
    of positions, the points still bisecting that QUADPACK's later steps pass,
    reads those points' terms.
    """

    __slots__ = ("family", "x", "k", "points", "tilt", "_terms", "_precise")

    def __init__(self, family: ExpFamilySpec, x, k: int | None = None):
        self.family, self.x, self.k = family, x, k
        self._terms = self._precise = self.tilt = None
        self.points = _positions(x.shape) if x.ndim else _ONE_POINT

    def _source(self, x):
        if self.k is None:
            return expfam._terms(self.family, x)
        carrier, values, self.tilt = self.family.stat_terms(self.k, x)
        return carrier, values

    @property
    def terms(self):
        if self._terms is None:
            self._terms = self._source(self.x)
        return self._terms

    @property
    def precise(self):
        if self._precise is None:
            self._precise = self._source(_ld(self.x))
        return self._precise

    def __call__(self, eta, log_partition, pos, terms=None):
        terms = terms or self._terms or self.terms
        if pos is not self.points:
            carrier, values = terms
            terms = np.ravel(carrier)[pos], [np.ravel(value)[pos] for value in values]
        if self.tilt is not None:
            eta = (eta.T + self.tilt).T  # along eta's first axis, of any batch
        return np.exp(expfam._exponent(self.family, eta, log_partition, None, terms))


def _stretch_integral(stretch: _Stretch, h: Callable, x, piece: Piece, lo, hi) -> np.ndarray:
    """int_(lo, hi] h(eta(z), A(eta(z)), x) a_0(z) dz on one base piece of a stretch at
    each point of x (a float at one point), by :func:`checked_quad` over the points.
    The eta of each batch of nodes is checked finite where it is made
    (:meth:`_Stretch.etas`), then only in the natural space; the nodes of a
    later step, one row per point (shape (r, 2n)), give eta of shape (l, r, 2n)."""
    family = stretch.family
    value = piece.value if piece.kind != "const" else lambda zs: piece.c0  # a_0 at the nodes

    def integrand(zs, points):
        etas = stretch.etas(zs) if zs.ndim == 1 else stretch.etas(zs.ravel()).reshape(-1, *zs.shape)
        family.check_natural(etas)
        return h(etas, family.log_partition_fn(etas), points) * value(zs)

    return checked_quad(integrand, lo, hi, x)


def _z_integral(ctx: LevyContext, h: Callable, t: float, x) -> float | np.ndarray:
    """int_(0, t] h(eta(z), A(eta(z)), x) dA_0(z) at each point of x, on the plan's
    stretches clipped to (0, t], atoms exact: an array of x's shape, and at one point
    (a numpy scalar, :func:`~crmkit.expfam._float64`) a float, 0.0 where nothing adds.

    ``h`` maps one bound eta (shape (l,), A a float) to the shape of x and a batch
    (shape (l, m), A of shape (m,)) to ``x.shape + (m,)``, each entry that eta's
    and point's double; a batch of shape (l, r, m) with x of shape (r,) pairs
    row i of the batch with point i, to shape (r, m).  A constant stretch gives
    h(eta, A, x) A_0(stretch), h not run where that mass is 0, and a density h
    (a :class:`_Density`, x its ``points``) that product in long double
    (:attr:`_Density.precise`) rounded to a double once, which keeps the
    rounding of its terms out of its exponent.  An exponential-polynomial
    stretch gives a density its closed form per nonzero base piece that ends
    below infinity (:meth:`_ExpPoly.integral`), or :func:`_stretch_integral` where
    that form is not a finite double; any other h or stretch takes
    :func:`_stretch_integral` per nonzero base piece.  The point masses take h
    at one batch of their eta, added in location order, or, once a closed form
    has been taken, each density in long double where the family's normaliser
    is polynomial at its eta (:func:`_precise_density`); atom overrides act only
    through them.  With closed forms the long-double parts and the double
    ones are summed and rounded to a double once.  The callers check t > 0 and
    x, under the call's one ``np.errstate``.
    """
    total, exact, plan = 0.0, None, ctx._plan
    density = isinstance(h, _Density)  # in long double where it can be, rounded once
    for stretch in plan.stretches:
        if not stretch.lo < t:
            break
        if stretch.eta is not None:
            mass = sum(piece.integral(lo, min(hi, t)) for piece, lo, hi in stretch.base)
            if mass != 0.0 and density:
                total += (h(*stretch.bound, x, h.precise) * mass).astype(float)
            elif mass != 0.0:
                total += h(*stretch.bound, x) * mass
            continue
        closed = stretch.poly is not None and density
        for index, (piece, lo, hi) in enumerate(stretch.base):
            if lo < (end := min(hi, t)):
                value = stretch.poly.integral(index, end, h.precise) if closed and end < _INF else None
                if value is None:
                    total += _stretch_integral(stretch, h, x, piece, lo, end)
                else:
                    exact = value if exact is None else exact + value
    jumps = [(loc, mass) for loc, mass in plan.jumps if loc <= t]
    if jumps:  # one batch of eta, added a mass at a time in location order
        locs, masses = zip(*jumps)
        etas, log_partitions = expfam._bind_many(ctx.family, ctx.path.eval_many(locs).T)
        # a walk with a closed-form part takes each point mass in long double where it can
        precise = [] if exact is None else [_precise_density(ctx, loc, h) for loc in locs]
        if precise and all(value is not None for value in precise):
            for mass, value in zip(masses, precise):
                exact = exact + mass * value
        else:
            values = h(etas, log_partitions, x)
            for i, mass in enumerate(masses):
                total += mass * values[..., i]
    total = total + np.zeros(x.shape) if x.ndim else total
    if exact is None:
        return total
    exact = exact + total  # rounded to a double once
    return exact.astype(float) if x.ndim else float(exact)


def levy_density_s(ctx: LevyContext, t: float, s):
    """Levy density dL_t(s) in the family coordinate over (0, t]: a float at one s, at an
    array of s an array of the doubles each s alone gives, from one walk over the
    locations.  The first s outside the family support raises :class:`SupportError`."""
    _check_time(t)
    expfam._check_support(ctx.family, s)
    with np.errstate(all="ignore"):
        h = _Density(ctx.family, xs := expfam._float64(s))
        density = _z_integral(ctx, h, t, h.points)
    return density if xs.ndim else float(density)


def levy_integrand(ctx: LevyContext, z: float, s):
    """Density-in-z of the Levy measure, p(s | eta(z)) a_0(z) at one z, atoms and overrides
    excluded: a float at one s, at an array of s an array of the doubles each s alone gives."""
    expfam._check_support(ctx.family, s)
    if not ctx.base.density.defined_at(z):
        return np.zeros(np.shape(s)) if np.ndim(s) else 0.0
    with np.errstate(all="ignore"):
        eta, h = ctx._plan.path.eval(z), _Density(ctx.family, xs := expfam._float64(s))
        ctx.family.check_natural(eta)
        value = h(eta, float(ctx.family.log_partition_fn(eta)), h.points) * ctx.base.density(z)
    return value if xs.ndim else float(value)


def _pushforward(ctx: LevyContext, u, density: Callable):
    """density(h) at one u (a float) or an array, from one ``density`` call, h the
    :class:`_Density` at the points u of the weight coordinate, whose terms are the
    family's ``stat_terms``, the statistic's declared inverse: no s is formed.  A
    statistic of a family that declares no ``stat_terms`` has no declared inverse
    and is refused, and then the first u outside the image raises SupportError.
    The door of :func:`levy_density_u` and of a :class:`FiniteActivity`'s weight
    density, under one ``np.errstate``."""
    family, stat = ctx.family, ctx._plan.stat
    if family.stat_terms is None:
        raise CrmError(f"statistic {stat.name!r} has no declared inverse")
    inside = stat.in_image(us := expfam._float64(u))
    if not expfam._all(inside):
        bad = us.flat[np.argmin(inside)]
        raise SupportError(f"u={bad} outside the image {stat.image} of statistic {stat.name!r}")
    with np.errstate(all="ignore"):
        value = density(_Density(family, us, ctx.k))
    return value if us.ndim else float(value)


def levy_density_u(ctx: LevyContext, t: float, u):
    """The pushforward of :func:`levy_density_s` to the weight coordinate
    u = T_k(s), at one u or an array alike; the first u outside the image
    raises :class:`SupportError`."""
    _check_time(t)
    return _pushforward(ctx, u, lambda h: _z_integral(ctx, h, t, h.points))


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


def _check_theta(theta) -> None:
    """Refuse a theta that is not a finite number >= 0 (:func:`~crmkit.errors._real`)."""
    if not (_real(theta) and theta >= 0):
        raise CrmError(f"theta must be a finite number >= 0, got {theta}")


def _check_time(t, zero: bool = False) -> None:
    """Refuse a horizon t that :func:`~crmkit.errors._horizon` refuses (a bool, NaN)
    or that is not > 0 (>= 0 where ``zero``)."""
    if not (_horizon(t) and (t >= 0 if zero else t > 0)):
        raise CrmError(f"time must be nonnegative, got {t}" if zero else f"time must be positive, got t={t}")


def laplace_exponent(ctx: LevyContext, t: float, theta: float) -> float:
    """int (1 - e^{-theta u}) dL_t(u); 0 at theta=0 or t=0.

    Raises :class:`DivergenceError` carrying the partial value when either
    axis fails to stabilize (improper tails or infinite location mass).
    """
    _check_theta(theta)
    _check_time(t, zero=True)
    if theta == 0.0 or t == 0.0:
        return 0.0

    def gap(eta, log_partition, th):  # 1 - stat_laplace, binding the tilted eta alone
        return 1.0 - expfam._tilted(ctx.family, eta, log_partition, ctx.k, -th)

    with np.errstate(all="ignore"):
        return float(_z_integral(ctx, gap, t, expfam._float64(theta)))


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
    stretch of the plan, and 2t; a point where either is undefined is a
    witness.  The comparison reads the path without its atom overrides.
    """
    horizon = 2.0 * t
    jumps = ctx.base.jumps_in(0.0, horizon)
    if jumps:
        return [(loc, "base point mass", mass) for loc, mass in jumps]
    plan = ctx._plan
    cuts = [stretch.lo for stretch in plan.stretches if stretch.lo < horizon] + [horizon]
    grid = _default_grid(ctx.path, cuts)
    mids = 0.5 * (np.array(cuts[:-1]) + np.array(cuts[1:]))
    zs = _sorted_distinct(np.concatenate([grid[grid <= horizon], mids, [horizon]]))
    defined = ctx.path.defined_at(zs) & ctx.base.density.defined_at(zs)
    witnesses = [(float(z), "path or base density undefined") for z in zs[~defined]]
    zs = zs[defined]
    if zs.size:
        etas = plan.path.eval_many(zs)
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
    _check_time(t)
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

    bound = expfam._bind_many(ctx.family, [comp(t) for comp in ctx.path.components], batch=False)
    return FiniteActivity(
        mass, mass / t, lambda u: _pushforward(ctx, u, lambda h: h(*bound, h.points, h.precise).astype(float))
    )


def density_table(ctx: LevyContext, t: float, us: Sequence[float]):
    """Rows (t, u, dL_t(u)) for CSV dumps, from one :func:`levy_density_u` call."""
    values = levy_density_u(ctx, t, np.asarray(us, dtype=float))
    return [(float(t), float(u), v) for u, v in zip(us, values.tolist())]
