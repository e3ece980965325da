"""Positive exponential families in canonical form, and parameter paths.

A family here is a density against Lebesgue (or counting) measure

    p(x | eta) = h(x) * exp( sum_j sign_j * eta_j * T_j(x) - A(eta) ),

with natural parameter vector eta in an open convex set Xi, sufficient
statistics T_j, and log-partition A.  The per-statistic ``sign`` lets the
natural coordinates stay in their textbook form (e.g. gamma shape/rate both
positive) while the canonical linear coefficient is ``sign_j * eta_j``; the
moment engine corrects cumulants accordingly, so the identity

    E[T_k(X)^m] = e^{-A} * d^m/dc_k^m e^{A},   c_k the canonical coefficient,

holds throughout.  "Positive" means at least one statistic keeps a constant
sign on the support.

Registered families: beta, gamma, pareto (single-statistic, scale ``scale``),
pareto_loglog (two-statistic log/log-log form, scale ``scale``), lognormal
(known drift ``mu``), poisson, bernoulli.  Each family has one sampler,
which takes one natural parameter for all draws or one per draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import mpmath as mp
import numpy as np
from scipy import integrate, optimize, special

from .errors import (
    DerivativeDomainError,
    NaturalSpaceError,
    SupportError,
)
from .errors import CrmError
from .piecewise import PiecewiseFunction

__all__ = [
    "Support",
    "SufficientStat",
    "ExpFamilySpec",
    "ParameterPath",
    "make_family",
    "family_names",
    "density",
    "log_density",
    "log_partition",
    "moment_suff_stat",
    "raw_moment",
    "raw_moment_beta",
    "sample",
    "sample_each",
    "cdf_numeric",
    "quantile_numeric",
]

_INF = float("inf")


@dataclass(frozen=True)
class Support:
    """Interval of the real line carrying the family's densities."""

    lo: float
    hi: float
    discrete: bool = False

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        inside = (x > self.lo) & (x < self.hi)
        if self.discrete:
            inside = (x >= self.lo) & (x <= self.hi) & (x == np.floor(x))
        return bool(np.all(inside))

    def grid(self, n: int = 201) -> np.ndarray:
        """Interior points for dense sign/round-trip checks."""
        if self.discrete:
            hi = self.hi if np.isfinite(self.hi) else self.lo + n
            return np.arange(self.lo, hi + 1.0)
        lo = self.lo if np.isfinite(self.lo) else -50.0
        hi = self.hi if np.isfinite(self.hi) else max(lo, 0.0) + 50.0
        width = hi - lo
        eps = 1e-6 * max(1.0, abs(width))
        return np.linspace(lo + eps, hi - eps, n)


@dataclass(frozen=True)
class SufficientStat:
    """One sufficient statistic with its optional inverse data.

    ``sign`` is the canonical coefficient sign: the density's exponent carries
    ``sign * eta_j * T_j(x)``.  ``inverse`` and ``inverse_deriv`` (the signed
    derivative of the inverse) are declared only when the statistic is
    monotone on the support; ``image`` is the open interval of statistic
    values reached on the support.
    """

    name: str
    value: Callable
    sign: int = 1
    inverse: Callable | None = None
    inverse_deriv: Callable | None = None
    image: tuple[float, float] | None = None

    def in_image(self, u: float) -> bool:
        if self.image is None:
            return False
        lo, hi = self.image
        return lo < u < hi


@dataclass(frozen=True)
class ExpFamilySpec:
    """Everything needed to evaluate, differentiate, and sample a family."""

    name: str
    support: Support
    stats: tuple[SufficientStat, ...]
    log_carrier: Callable
    log_partition_fn: Callable
    check_natural: Callable  # eta of shape (l,) or (l, m); raises NaturalSpaceError
    # (eta, rng, size) -> size draws, in order; eta of shape (l,) is shared by
    # every draw, eta of shape (size, l) gives one row per draw
    sampler: Callable
    log_partition_partials: Callable | None = None  # (eta, k) -> (d1, d2, d3)
    stat_moment: Callable | None = None  # (eta, k, m) -> float | None
    fixed: dict = field(default_factory=dict)

    @property
    def dimension(self) -> int:
        return len(self.stats)

    def in_natural_space(self, eta) -> bool:
        try:
            self.check_natural(np.asarray(eta, dtype=float))
        except NaturalSpaceError:
            return False
        return True

    def at(self, eta) -> "BoundFamily":
        """The family at one natural parameter; see :class:`BoundFamily`."""
        return BoundFamily(self, eta)


def _as_eta(spec: ExpFamilySpec, eta) -> np.ndarray:
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    if eta.shape != (spec.dimension,):
        raise CrmError(
            f"{spec.name}: natural parameter must have length {spec.dimension}, got shape {eta.shape}"
        )
    if not np.all(np.isfinite(eta)):
        raise NaturalSpaceError(f"{spec.name}: natural parameter must be finite, got {eta}")
    return eta


def _check_k(spec: ExpFamilySpec, k: int) -> int:
    if not (isinstance(k, (int, np.integer)) and 1 <= k <= spec.dimension):
        raise CrmError(f"{spec.name}: statistic index k must satisfy 1 <= k <= {spec.dimension}, got {k}")
    return int(k)


class BoundFamily:
    """A family at one fixed natural parameter eta.

    Construction validates eta (length, finiteness, natural space) and
    computes A(eta) once; :meth:`log_density` and :meth:`density` then do only
    the support check, the carrier and the statistics.  Bind once wherever
    many points share one eta, such as the x-quadrature of a density at
    fixed eta.  Invalid eta raises :class:`CrmError` or
    :class:`NaturalSpaceError` here, a point outside the support raises
    :class:`SupportError` at evaluation.
    """

    __slots__ = ("spec", "eta", "log_partition")

    def __init__(self, spec: ExpFamilySpec, eta):
        eta = _as_eta(spec, eta)
        spec.check_natural(eta)
        self.spec = spec
        self.eta = eta
        self.log_partition = float(spec.log_partition_fn(eta))

    def log_density(self, x) -> float | np.ndarray:
        spec = self.spec
        xs = np.asarray(x, dtype=float)
        if not spec.support.contains(xs):
            raise SupportError(
                f"{spec.name}: point outside support ({spec.support.lo}, {spec.support.hi})"
            )
        exponent = spec.log_carrier(xs) - self.log_partition
        for j, stat in enumerate(spec.stats):
            exponent = exponent + stat.sign * self.eta[j] * stat.value(xs)
        return exponent if np.ndim(x) else float(exponent)

    def density(self, x) -> float | np.ndarray:
        """p(x | eta) in canonical form."""
        return np.exp(self.log_density(x))

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw from the family; deterministic given the generator state.

        ``size`` draws equal :func:`sample_each` on that many copies of eta.
        """
        out = self.spec.sampler(self.eta, rng, 1 if size is None else int(size))
        return float(out[0]) if size is None else np.asarray(out, dtype=float)


def log_partition(spec: ExpFamilySpec, eta) -> float:
    """A(eta); validates eta lies in the natural parameter space."""
    return spec.at(eta).log_partition


def log_density(spec: ExpFamilySpec, eta, x) -> float | np.ndarray:
    return spec.at(eta).log_density(x)


def density(spec: ExpFamilySpec, eta, x) -> float | np.ndarray:
    """p(x | eta) in canonical form."""
    return spec.at(eta).density(x)


def _cumulants_to_moments(kappas: Sequence[float], sign: int, m: int) -> float:
    """Raw moments of the statistic from canonical-coordinate cumulants."""
    k = [sign ** j * kappas[j - 1] for j in range(1, m + 1)]
    if m == 1:
        return k[0]
    if m == 2:
        return k[1] + k[0] ** 2
    if m == 3:
        return k[2] + 3.0 * k[0] * k[1] + k[0] ** 3
    raise CrmError("cumulant conversion implemented for m <= 3")


def moment_suff_stat(spec: ExpFamilySpec, eta, k: int, m: int) -> float:
    """E[T_k(X)^m] via the log-partition derivative identity.

    Uses, in order of preference: a closed-form statistic moment declared by
    the family, closed-form log-partition partials for m <= 3 (converted
    through the cumulant-moment relations), then a central m-th difference
    of the tilted partition.
    """
    eta = _as_eta(spec, eta)
    spec.check_natural(eta)
    k = _check_k(spec, k)
    if not (isinstance(m, (int, np.integer)) and m >= 1):
        raise CrmError(f"moment order m must be a positive integer, got {m}")
    m = int(m)

    if spec.stat_moment is not None:
        val = spec.stat_moment(eta, k, m)
        if val is not None:
            return float(val)

    sign = spec.stats[k - 1].sign
    if m <= 3 and spec.log_partition_partials is not None:
        kappas = spec.log_partition_partials(eta, k)
        return float(_cumulants_to_moments(kappas, sign, m))

    # central m-th difference of the tilted partition
    # g(delta) = exp(A(eta + delta e_k) - A(eta)), so the result is already
    # e^{-A} d^m e^A.
    a0 = float(spec.log_partition_fn(eta))

    def g(delta):
        shifted = eta.copy()
        shifted[k - 1] += delta
        spec.check_natural(shifted)
        return math.exp(float(spec.log_partition_fn(shifted)) - a0)

    h = 10.0 ** (-8.0 / (m + 2)) * max(1.0, abs(eta[k - 1]))
    while True:
        try:
            g(-(m / 2.0) * h)
            g((m / 2.0) * h)
            break
        except NaturalSpaceError:
            h *= 0.5
            if h < 1e-13:
                raise DerivativeDomainError(
                    f"{spec.name}: no admissible finite-difference step in coordinate {k}"
                )
    deriv = sum(
        (-1) ** i * special.comb(m, i, exact=True) * g((m / 2.0 - i) * h) for i in range(m + 1)
    ) / h ** m
    return float(sign ** m * deriv)


def raw_moment(spec: ExpFamilySpec, eta, k: int, m: int) -> float:
    """E[exp(m * T_k(X))] by tilting the k-th canonical coefficient by m.

    For the beta family with k=1 this is the raw moment E[X^m]; in general
    it exists exactly when the tilted parameter stays in the natural space.
    """
    eta = _as_eta(spec, eta)
    spec.check_natural(eta)
    k = _check_k(spec, k)
    tilted = eta.copy()
    tilted[k - 1] += spec.stats[k - 1].sign * m
    spec.check_natural(tilted)
    return float(np.exp(spec.log_partition_fn(tilted) - spec.log_partition_fn(eta)))


def raw_moment_beta(alpha: float, beta: float, m: int) -> float:
    """E[X^m] for X ~ Beta(alpha, beta) via the gamma-function ratio."""
    if alpha <= 0 or beta <= 0:
        raise NaturalSpaceError("beta parameters must be positive")
    return float(
        np.exp(
            special.gammaln(alpha + m)
            + special.gammaln(alpha + beta)
            - special.gammaln(alpha + beta + m)
            - special.gammaln(alpha)
        )
    )


def sample(spec: ExpFamilySpec, eta, rng: np.random.Generator, size: int | None = None):
    """Draw from the family; deterministic given the generator state."""
    return spec.at(eta).sample(rng, size)


def sample_each(spec: ExpFamilySpec, etas: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw per row of ``etas`` (shape (m, l)), in row order."""
    etas = np.asarray(etas, dtype=float)
    if etas.ndim != 2 or etas.shape[1] != spec.dimension:
        raise CrmError(f"{spec.name}: expected eta array of shape (m, {spec.dimension})")
    if etas.shape[0] == 0:
        return np.empty(0)
    return np.asarray(spec.sampler(etas, rng, len(etas)), dtype=float)


def cdf_numeric(spec: ExpFamilySpec, eta, x: float) -> float:
    """CDF by numeric integration of the density (continuous families)."""
    if spec.support.discrete:
        total = 0.0
        v = spec.support.lo
        while v <= min(x, spec.support.hi):
            total += density(spec, eta, v)
            v += 1.0
        return float(total)
    if x <= spec.support.lo:
        return 0.0
    val, _ = integrate.quad(
        spec.at(eta).density, spec.support.lo, min(x, spec.support.hi),
        epsabs=1e-11, epsrel=1e-10, limit=400,
    )
    return float(min(val, 1.0))


def quantile_numeric(spec: ExpFamilySpec, eta, q: float, tail: float = 1e-12) -> float:
    """Quantile by bisection on the numeric CDF with a geometric bracket."""
    if not 0.0 < q < 1.0:
        raise CrmError("quantile level must lie in (0, 1)")
    lo = spec.support.lo
    hi = lo + 1.0 if not np.isfinite(spec.support.hi) else spec.support.hi
    if not np.isfinite(spec.support.hi):
        while cdf_numeric(spec, eta, hi) < max(q, 1.0 - tail):
            hi = lo + (hi - lo) * 2.0
            if hi - lo > 1e12:
                break
    return float(optimize.brentq(lambda x: cdf_numeric(spec, eta, x) - q, lo + 1e-300, hi))


# ---------------------------------------------------------------------------
# Registered families
# ---------------------------------------------------------------------------


def _require(ok, message: str, value, coord: int):
    """Raise unless the comparison ``ok`` holds, at every entry for an array.

    ``message`` is formatted with ``value`` only on failure, so a passing
    check costs the comparison alone.  A scalar comparison is tested by its
    truth value: ``numpy.bool_.all()`` is many times slower, and the scalar
    check runs at every quadrature node of a density integral.
    """
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        raise NaturalSpaceError(message.format(value), coord=coord)


def _batched(check: Callable) -> Callable:
    """A family's ``check`` for eta of shape (l,) or, one column each, (l, m).

    ``check`` is written with array comparisons, so a batch is validated in
    one pass.  When the batch fails, its columns are re-checked in order and
    the first failing column's own error is raised, with ``index`` set to
    that column.
    """

    def check_natural(eta):
        try:
            check(eta)
        except NaturalSpaceError:
            eta = np.asarray(eta)
            if eta.ndim < 2:
                raise
            for i, column in enumerate(eta.T):
                try:
                    check(column)
                except NaturalSpaceError as exc:
                    exc.index = i
                    raise
            raise

    return check_natural


def _beta_family() -> ExpFamilySpec:
    stats = (
        SufficientStat(
            "log_x", np.log, inverse=np.exp, inverse_deriv=np.exp, image=(-_INF, 0.0)
        ),
        SufficientStat(
            "log_1mx",
            lambda x: np.log1p(-np.asarray(x, dtype=float)),
            inverse=lambda u: 1.0 - np.exp(u),
            inverse_deriv=lambda u: -np.exp(u),
            image=(-_INF, 0.0),
        ),
    )

    def check(eta):
        _require(eta[0] > 0, "beta: first coordinate must be positive, got {}", eta[0], 1)
        _require(eta[1] > 0, "beta: second coordinate must be positive, got {}", eta[1], 2)

    def a(eta):
        return special.gammaln(eta[0]) + special.gammaln(eta[1]) - special.gammaln(eta[0] + eta[1])

    def partials(eta, k):
        i = k - 1
        return (
            special.digamma(eta[i]) - special.digamma(eta[0] + eta[1]),
            special.polygamma(1, eta[i]) - special.polygamma(1, eta[0] + eta[1]),
            special.polygamma(2, eta[i]) - special.polygamma(2, eta[0] + eta[1]),
        )

    return ExpFamilySpec(
        name="beta",
        support=Support(0.0, 1.0),
        stats=stats,
        log_carrier=lambda x: -np.log(x) - np.log1p(-np.asarray(x, dtype=float)),
        log_partition_fn=a,
        check_natural=_batched(check),
        sampler=lambda eta, rng, size: rng.beta(eta.T[0], eta.T[1], size),
        log_partition_partials=partials,
    )


def _gamma_family() -> ExpFamilySpec:
    stats = (
        SufficientStat(
            "log_x", np.log, inverse=np.exp, inverse_deriv=np.exp, image=(-_INF, _INF)
        ),
        SufficientStat(
            "x",
            lambda x: np.asarray(x, dtype=float) + 0.0,
            sign=-1,
            inverse=lambda u: u,
            inverse_deriv=lambda u: np.ones_like(np.asarray(u, dtype=float)),
            image=(0.0, _INF),
        ),
    )

    def check(eta):
        _require(eta[0] > 0, "gamma: shape must be positive, got {}", eta[0], 1)
        _require(eta[1] > 0, "gamma: rate must be positive, got {}", eta[1], 2)

    def a(eta):
        return special.gammaln(eta[0]) - eta[0] * np.log(eta[1])

    def partials(eta, k):
        shape, rate = eta
        if k == 1:
            return (
                special.digamma(shape) - np.log(rate),
                special.polygamma(1, shape),
                special.polygamma(2, shape),
            )
        return (-shape / rate, shape / rate ** 2, -2.0 * shape / rate ** 3)

    return ExpFamilySpec(
        name="gamma",
        support=Support(0.0, _INF),
        stats=stats,
        log_carrier=lambda x: -np.log(x),
        log_partition_fn=a,
        check_natural=_batched(check),
        sampler=lambda eta, rng, size: rng.gamma(eta.T[0], 1.0 / eta.T[1], size),
        log_partition_partials=partials,
    )


def _pareto_family(scale: float) -> ExpFamilySpec:
    """Single-statistic form: density a*u_m^a/x^(a+1) on (u_m, inf), eta = -(a+1)."""
    if scale <= 0:
        raise CrmError("pareto: scale must be positive")
    u_m = float(scale)
    stats = (
        SufficientStat(
            "log_x", np.log, inverse=np.exp, inverse_deriv=np.exp, image=(np.log(u_m), _INF)
        ),
    )

    def check(eta):
        _require(eta[0] < -1, "pareto: coordinate must be < -1, got {}", eta[0], 1)

    def a(eta):
        return (eta[0] + 1.0) * np.log(u_m) - np.log(-eta[0] - 1.0)

    def partials(eta, k):
        alpha = -eta[0] - 1.0
        return (np.log(u_m) + 1.0 / alpha, 1.0 / alpha ** 2, 2.0 / alpha ** 3)

    def sampler(eta, rng, size):
        alpha = -eta.T[0] - 1.0
        return u_m * (1.0 - rng.random(size)) ** (-1.0 / alpha)

    return ExpFamilySpec(
        name="pareto",
        support=Support(u_m, _INF),
        stats=stats,
        log_carrier=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        log_partition_fn=a,
        check_natural=_batched(check),
        sampler=sampler,
        log_partition_partials=partials,
        fixed={"scale": u_m},
    )


def _pareto_loglog_family(scale: float) -> ExpFamilySpec:
    """Two-statistic form with T = (ln x, ln ln x) on (e^{u_m}, inf).

    At eta = (-1, -(a+1)) the pushforward of the density under u = ln x is
    the Pareto(u_m, a) density, which is what makes this family the seed of
    the Pareto-weight random measures.  The natural space is
    {eta_1 < -1} union {eta_1 = -1, eta_2 < -1}.
    """
    if scale <= 0:
        raise CrmError("pareto: scale must be positive")
    u_m = float(scale)
    x_lo = float(np.exp(u_m))
    stats = (
        SufficientStat("log_x", np.log, inverse=np.exp, inverse_deriv=np.exp, image=(u_m, _INF)),
        SufficientStat(
            "log_log_x",
            lambda x: np.log(np.log(x)),
            inverse=lambda v: np.exp(np.exp(v)),
            inverse_deriv=lambda v: np.exp(v) * np.exp(np.exp(v)),
            image=(np.log(u_m), _INF),
        ),
    )

    _FACE_TOL = 1e-12

    def on_face(eta):
        return abs(eta[0] + 1.0) <= _FACE_TOL

    def check(eta):
        _require(
            eta[0] <= -1.0 + _FACE_TOL,
            "pareto(log-log): first coordinate must be <= -1, got {}",
            eta[0],
            1,
        )
        _require(
            (abs(eta[0] + 1.0) > _FACE_TOL) | (eta[1] < -1.0),
            "pareto(log-log): on the face eta_1 = -1 the second coordinate must be < -1, got {}",
            eta[1],
            2,
        )

    def a_mp(e1, e2):
        """log of int_{u_m}^inf exp((e1+1) w) w^{e2} dw at ambient precision."""
        if abs(e1 + 1.0) <= _FACE_TOL:
            return mp.mpf(e2 + 1.0) * mp.log(u_m) - mp.log(-(mp.mpf(e2) + 1.0))
        s = -(mp.mpf(e1) + 1.0)
        upper = mp.gammainc(mp.mpf(e2) + 1.0, s * u_m, mp.inf)
        return -(mp.mpf(e2) + 1.0) * mp.log(s) + mp.log(upper)

    def a(eta):
        with mp.workdps(40):
            return float(a_mp(eta[0], eta[1]))

    def stat_moment(eta, k, m):
        alpha = -eta[1] - 1.0
        if k == 1:
            # moments of w = ln x, Pareto(u_m, alpha) on the face
            if on_face(eta):
                if alpha <= m:
                    raise DerivativeDomainError(
                        f"pareto(log-log): E[(ln x)^{m}] diverges for shape {alpha} <= {m}"
                    )
                return alpha * u_m ** m / (alpha - m)
            with mp.workdps(40):
                s = -(mp.mpf(eta[0]) + 1.0)
                num = mp.gammainc(mp.mpf(eta[1]) + 1.0 + m, s * u_m, mp.inf)
                den = mp.gammainc(mp.mpf(eta[1]) + 1.0, s * u_m, mp.inf)
                return float(num / den / s ** m)
        # k == 2: moments of ln w
        if on_face(eta):
            # ln w = ln u_m + Y/alpha with Y standard exponential
            total = 0.0
            for j in range(m + 1):
                total += (
                    special.comb(m, j, exact=True)
                    * math.log(u_m) ** (m - j)
                    * math.factorial(j)
                    / alpha ** j
                )
            return total
        if m > 3:
            return None  # defer to the generic high-order fallback
        # raw moment of ln w as e^{-A} d^m e^A / d eta_2^m; explicit stencils
        # with steps sized for 60-digit arithmetic (truncation ~h^2, roundoff
        # ~1e-60 / h^m, both far below double precision)
        with mp.workdps(60):
            a0 = a_mp(eta[0], eta[1])
            g = lambda y: mp.e ** (a_mp(eta[0], y) - a0)
            x0 = mp.mpf(eta[1])
            h = mp.mpf("1e-10") if m <= 2 else mp.mpf("1e-8")
            if m == 1:
                val = (g(x0 + h) - g(x0 - h)) / (2 * h)
            elif m == 2:
                val = (g(x0 + h) - 2 * g(x0) + g(x0 - h)) / h ** 2
            else:
                val = (g(x0 + 2 * h) - 2 * g(x0 + h) + 2 * g(x0 - h) - g(x0 - 2 * h)) / (
                    2 * h ** 3
                )
            return float(val)

    spec_cell: list = []

    def sampler(eta, rng, size):
        """One uniform per draw: closed form on the face, numeric inversion off it."""
        us = rng.random(size)
        etas = np.broadcast_to(eta, (size, 2))
        face = on_face(etas.T)
        draws = np.empty(size)
        draws[face] = np.exp(u_m * (1.0 - us[face]) ** (-1.0 / (-etas[face, 1] - 1.0)))
        for i in np.flatnonzero(~face):
            draws[i] = quantile_numeric(spec_cell[0], etas[i], float(us[i]))
        return draws

    spec = ExpFamilySpec(
        name="pareto_loglog",
        support=Support(x_lo, _INF),
        stats=stats,
        log_carrier=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        log_partition_fn=a,
        check_natural=_batched(check),
        sampler=sampler,
        stat_moment=stat_moment,
        fixed={"scale": u_m},
    )
    spec_cell.append(spec)
    return spec


def _lognormal_family(mu: float) -> ExpFamilySpec:
    """Log-normal with known drift; natural parameter is the precision of ln X."""
    mu = float(mu)
    stats = (
        SufficientStat(
            "half_sq_centered_log",
            lambda x: 0.5 * (np.log(x) - mu) ** 2,
            sign=-1,
            image=(0.0, _INF),
        ),
    )

    def check(eta):
        _require(eta[0] > 0, "lognormal: precision must be positive, got {}", eta[0], 1)

    def partials(eta, k):
        lam = eta[0]
        return (-0.5 / lam, 0.5 / lam ** 2, -1.0 / lam ** 3)

    return ExpFamilySpec(
        name="lognormal",
        support=Support(0.0, _INF),
        stats=stats,
        log_carrier=lambda x: -np.log(x) - 0.5 * np.log(2.0 * np.pi),
        log_partition_fn=lambda eta: -0.5 * np.log(eta[0]),
        check_natural=_batched(check),
        sampler=lambda eta, rng, size: np.exp(mu + rng.standard_normal(size) / np.sqrt(eta.T[0])),
        log_partition_partials=partials,
        fixed={"mu": mu},
    )


def _poisson_family() -> ExpFamilySpec:
    stats = (SufficientStat("x", lambda x: np.asarray(x, dtype=float) + 0.0, image=(0.0, _INF)),)

    def check(eta):
        _require(np.isfinite(eta[0]), "poisson: log-rate must be finite", eta[0], 1)

    return ExpFamilySpec(
        name="poisson",
        support=Support(0.0, _INF, discrete=True),
        stats=stats,
        log_carrier=lambda x: -special.gammaln(np.asarray(x, dtype=float) + 1.0),
        log_partition_fn=lambda eta: np.exp(eta[0]),
        check_natural=_batched(check),
        sampler=lambda eta, rng, size: rng.poisson(np.exp(eta.T[0]), size).astype(float),
        log_partition_partials=lambda eta, k: (np.exp(eta[0]),) * 3,
    )


def _bernoulli_family() -> ExpFamilySpec:
    stats = (SufficientStat("x", lambda x: np.asarray(x, dtype=float) + 0.0, image=(0.0, 1.0)),)

    def check(eta):
        _require(np.isfinite(eta[0]), "bernoulli: log-odds must be finite", eta[0], 1)

    def partials(eta, k):
        p = special.expit(eta[0])
        return (p, p * (1.0 - p), p * (1.0 - p) * (1.0 - 2.0 * p))

    return ExpFamilySpec(
        name="bernoulli",
        support=Support(0.0, 1.0, discrete=True),
        stats=stats,
        log_carrier=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        log_partition_fn=lambda eta: np.logaddexp(0.0, eta[0]),
        check_natural=_batched(check),
        sampler=lambda eta, rng, size: (rng.random(size) < special.expit(eta.T[0])).astype(float),
        log_partition_partials=partials,
    )


# name -> (factory, the factory's keyword parameters with their defaults)
_REGISTRY = {
    "beta": (_beta_family, {}),
    "gamma": (_gamma_family, {}),
    "pareto": (_pareto_family, {"scale": 1.0}),
    "pareto_loglog": (_pareto_loglog_family, {"scale": 1.0}),
    "lognormal": (_lognormal_family, {"mu": 0.0}),
    "poisson": (_poisson_family, {}),
    "bernoulli": (_bernoulli_family, {}),
}


def family_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def make_family(name: str, **params) -> ExpFamilySpec:
    """Construct a registered family by name.

    ``pareto`` and ``pareto_loglog`` accept ``scale``, ``lognormal`` accepts
    ``mu``; the other families take no parameters.
    """
    if name not in _REGISTRY:
        raise CrmError(f"unknown family {name!r}; registered: {', '.join(family_names())}")
    factory, defaults = _REGISTRY[name]
    extra = set(params) - set(defaults)
    if extra:
        raise CrmError(f"{name} does not accept parameter(s) {sorted(extra)}")
    return factory(**{**defaults, **params})


# ---------------------------------------------------------------------------
# Parameter paths
# ---------------------------------------------------------------------------


class ParameterPath:
    """A piecewise parameter path z -> eta(z), left-continuous per component.

    Each component's pieces cover (lo, hi], so at a shared breakpoint the
    path takes the value of the piece that ends there.

    ``atom_overrides`` carries exact-location parameter replacements produced
    by atom-local posterior updates; evaluation at exactly such a z returns
    the override.
    """

    def __init__(
        self,
        components: Sequence[PiecewiseFunction],
        atom_overrides: dict[float, tuple] | None = None,
    ):
        if not components:
            raise CrmError("parameter path needs at least one component")
        self.components = tuple(components)
        self.atom_overrides = dict(atom_overrides or {})
        for loc, eta in self.atom_overrides.items():
            if len(eta) != self.dimension:
                raise CrmError(f"atom override at z={loc} has wrong dimension")

    @classmethod
    def constant(cls, eta: Sequence[float]) -> "ParameterPath":
        return cls([PiecewiseFunction.constant(float(v)) for v in np.atleast_1d(eta)])

    @property
    def dimension(self) -> int:
        return len(self.components)

    def defined_at(self, z: float) -> bool:
        return all(c.defined_at(z) for c in self.components)

    def eval(self, z: float) -> np.ndarray:
        if z in self.atom_overrides:
            return np.asarray(self.atom_overrides[z], dtype=float)
        out = np.empty(self.dimension)
        for j, comp in enumerate(self.components):
            out[j] = comp(z)
        if not np.all(np.isfinite(out)):
            raise CrmError(f"parameter path not finite at z={z}: {out}")
        return out

    def eval_many(self, zs) -> np.ndarray:
        """eta at every z, shape ``zs.shape + (l,)``; the array form of :meth:`eval`.

        Each component is evaluated over the whole array with one mask per
        piece (pieces cover (lo, hi], the left piece wins at a shared
        breakpoint); a z that matches an atom override exactly takes the
        override.  Raises :class:`CrmError` naming the first z that no piece
        covers or where the path is not finite.
        """
        zs = np.asarray(zs, dtype=float)
        flat = zs.ravel()
        out = np.empty((flat.size, self.dimension))
        hit = np.zeros(flat.size, dtype=bool)
        if self.atom_overrides:
            locs = sorted(self.atom_overrides)
            keys = np.array(locs, dtype=float)
            pos = np.searchsorted(keys, flat).clip(max=keys.size - 1)
            hit = keys[pos] == flat
            etas = np.array([self.atom_overrides[loc] for loc in locs], dtype=float)
            out[hit] = etas[pos[hit]]
        free = ~hit
        for j, comp in enumerate(self.components):
            out[free, j] = comp(flat[free])
        bad = free & ~np.isfinite(out).all(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            raise CrmError(f"parameter path not finite at z={float(flat[i])}: {out[i]}")
        return out.reshape(zs.shape + (self.dimension,))

    def breakpoints(self) -> list[float]:
        pts: set[float] = set()
        for comp in self.components:
            pts.update(comp.breakpoints())
        return sorted(pts)

    def shifted(self, delta: Sequence[float]) -> "ParameterPath":
        """Add a constant vector; used by translation-form posterior updates."""
        delta = np.atleast_1d(np.asarray(delta, dtype=float))
        if delta.shape != (self.dimension,):
            raise CrmError("shift vector dimension mismatch")
        comps = [c.shifted(float(d)) for c, d in zip(self.components, delta)]
        overrides = {
            loc: tuple(np.asarray(eta, dtype=float) + delta)
            for loc, eta in self.atom_overrides.items()
        }
        return ParameterPath(comps, overrides)

    def with_override(self, z: float, eta: Sequence[float]) -> "ParameterPath":
        overrides = dict(self.atom_overrides)
        overrides[float(z)] = tuple(float(v) for v in eta)
        return ParameterPath(self.components, overrides)
