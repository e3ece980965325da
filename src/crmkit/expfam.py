"""Positive exponential families in canonical form, and parameter paths.

A family here is a density against Lebesgue (or counting) measure

    p(x | eta) = h(x) * exp( sum_j sign_j * eta_j * T_j(x) - A(eta) ),

with natural parameter vector eta in an open convex set Xi, sufficient
statistics T_j, and log-partition A.  The per-statistic ``sign`` lets the
natural coordinates stay in their textbook form (e.g. gamma shape/rate both
positive) while the canonical linear coefficient is ``sign_j * eta_j``, so
the cumulants of T_k are ``sign_k^j * d^j A / d eta_k^j``.

"Positive" means at least one statistic keeps a constant sign on the support.

Registered families: beta, gamma, pareto (single-statistic, scale ``scale``),
pareto_loglog (two-statistic log/log-log form, scale ``scale``), lognormal
(known drift ``mu``), poisson, bernoulli.  Each declares its natural space
once, as ``natural`` rules of array comparisons that test one eta or a batch,
one eta per column.  Each declares its distribution from A and the special
functions, with no generic numeric fallback: ``cumulants(eta, k, n)``, the
derivatives of A of orders 1..n, from which :func:`moment_suff_stat` builds
moments of every order (unless a ``stat_moment`` answers first; off its
face, ``pareto_loglog`` takes one quadrature for E[(ln ln x)^m]); ``cdf``
and, for continuous families, ``quantile``, reached through
:meth:`ExpFamilySpec.at`; and one exact sampler, for one natural parameter
shared by all draws or one per draw.  Off its face ``eta_1 = -1``, ``pareto_loglog`` draws by inversion
for ``eta_2 > 0`` and by rejection from ``u_m + Exp(-(eta_1 + 1))`` for
``eta_2 <= 0``.

Binding (:func:`_bind_many`), the log-density and the log-partition tilt
each take one eta of shape (l,) or a batch of shape (l, m), one eta per
column, and give a column the doubles of that eta alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import CrmError, DerivativeDomainError, DivergenceError, NaturalSpaceError, SupportError
from .piecewise import PiecewiseFunction, checked_quad

__all__ = [
    "Support",
    "SufficientStat",
    "ExpFamilySpec",
    "ParameterPath",
    "make_family",
    "family_names",
    "density",
    "moment_suff_stat",
    "raw_moment",
    "raw_moment_beta",
    "sample_each",
]

_INF = float("inf")
_LOG_MAX = math.log(np.finfo(float).max)


@functools.cache
def _special():
    """``scipy.special``, imported on first use so that ``import crmkit`` loads no scipy module."""
    from scipy import special

    return special


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
        return bool(inside.all())

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

    def in_image(self, u) -> bool | np.ndarray:
        if self.image is None:
            return False
        lo, hi = self.image
        return (lo < u) & (u < hi)


@dataclass(frozen=True)
class ExpFamilySpec:
    """Everything needed to evaluate, differentiate, and sample a family.

    ``natural`` declares the natural space once, as rules ``(coord, test,
    message)``: eta lies in it when every ``test(eta)``, an array comparison
    that reads one eta of shape (l,) and a batch of shape (l, m) alike,
    holds.  A failing rule raises with its ``coord`` and its ``message``
    formatted with eta's value at that coordinate.
    """

    name: str
    support: Support
    stats: tuple[SufficientStat, ...]
    log_carrier: Callable
    log_partition_fn: Callable  # A at one eta (a float) or at each column of a batch
    natural: tuple  # ((coord, test, message), ...), coord counted from 1
    # (eta, rng, size) -> size draws, in order; eta of shape (l,) is shared by
    # every draw, eta of shape (size, l) gives one row per draw
    sampler: Callable
    cdf: Callable  # (eta, x) -> P(X <= x), x inside the support
    quantile: Callable | None = None  # (eta, q) -> x; continuous families
    cumulants: Callable | None = None  # (eta, k, n) -> d^j A / d eta_k^j, j = 1..n
    stat_moment: Callable | None = None  # (eta, k, m) -> float | None
    fixed: dict = field(default_factory=dict)

    @property
    def dimension(self) -> int:
        return len(self.stats)

    def check_natural(self, eta) -> None:
        """Raise :class:`NaturalSpaceError` unless eta lies in the natural space.

        One eta (shape (l,)), as at every quadrature node, is tested rule by
        rule by truth value.  A batch (shape (l, m), one eta per column)
        raises its first failing column's first failing rule, with ``index``.
        """
        eta = np.asarray(eta, dtype=float)
        if eta.ndim < 2:
            for coord, test, message in self.natural:
                if not test(eta):
                    raise NaturalSpaceError(message.format(eta[coord - 1]), coord=coord)
            return
        masks = [test(eta) for _, test, _ in self.natural]
        bad = ~np.logical_and.reduce(masks)
        if bad.any():
            i = int(np.argmax(bad))
            coord, _, message = next(rule for rule, ok in zip(self.natural, masks) if not ok[i])
            raise NaturalSpaceError(message.format(eta[coord - 1, i]), coord=coord, index=i)

    def in_natural_space(self, eta) -> bool | np.ndarray:
        """Whether eta lies in the natural space: a bool for one eta, a
        boolean array of shape ``eta.shape[1:]`` for a batch."""
        eta = np.asarray(eta, dtype=float)
        if eta.ndim < 2:
            return all(test(eta) for _, test, _ in self.natural)
        return np.logical_and.reduce([test(eta) for _, test, _ in self.natural])

    def at(self, eta) -> "BoundFamily":
        """The family at one natural parameter; see :class:`BoundFamily`."""
        return BoundFamily(self, eta)


def _as_eta(spec: ExpFamilySpec, eta, batch: bool = True) -> np.ndarray:
    """eta of shape (l,), or with ``batch`` (l, m), checked for length, finiteness and
    natural space (a batch's first bad column raises, with ``index``); rows contiguous."""
    eta = np.ascontiguousarray(eta, dtype=float)
    if eta.shape[:1] != (spec.dimension,) or eta.ndim > (2 if batch else 1):
        raise CrmError(
            f"{spec.name}: natural parameter must have length {spec.dimension}, got shape {eta.shape}"
        )
    if not np.isfinite(eta).all():
        i = int(np.argmin(np.isfinite(eta).all(axis=0))) if eta.ndim > 1 else None
        got = eta if i is None else eta[:, i]
        raise NaturalSpaceError(f"{spec.name}: natural parameter must be finite, got {got}", index=i)
    spec.check_natural(eta)
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
        self.spec = spec
        self.eta, self.log_partition = _bind_many(spec, eta, batch=False)

    def log_density(self, x) -> float | np.ndarray:
        exponent = _exponent(self.spec, self.eta, self.log_partition, np.asarray(x, dtype=float))
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

    def cdf(self, x) -> float | np.ndarray:
        """P(X <= x): 0 below the support, 1 above it, the family's closed form inside."""
        support = self.spec.support
        xs = np.asarray(x, dtype=float)
        above_lo = xs >= support.lo if support.discrete else xs > support.lo
        inside = above_lo & (xs < support.hi)
        out = np.where(xs >= support.hi, 1.0, 0.0)
        out[inside] = self.spec.cdf(self.eta, xs[inside])
        return out if np.ndim(x) else float(out)

    def quantile(self, q) -> float | np.ndarray:
        """The x with P(X <= x) = q, for levels q in (0, 1); continuous families."""
        if self.spec.quantile is None:
            raise CrmError(f"{self.spec.name}: a discrete family declares no quantile")
        qs = np.asarray(q, dtype=float)
        if not np.all((qs > 0.0) & (qs < 1.0)):
            raise CrmError(f"quantile level must lie in (0, 1), got {q}")
        out = np.asarray(self.spec.quantile(self.eta, qs), dtype=float)
        return out if np.ndim(q) else float(out)


def _exponent(spec: ExpFamilySpec, eta, log_partition, xs: np.ndarray) -> np.ndarray:
    """log p(xs | eta) = log h(xs) - A(eta) + sum_j sign_j eta_j T_j(xs), in that order.

    One eta (shape (l,), A a float) gives the shape of ``xs``; a batch (shape
    (l, m), A of shape (m,)) broadcasts against ``xs`` of shape (..., 1).
    """
    if not spec.support.contains(xs):
        raise SupportError(
            f"{spec.name}: point outside support ({spec.support.lo}, {spec.support.hi})"
        )
    exponent = spec.log_carrier(xs) - log_partition
    for j, stat in enumerate(spec.stats):
        exponent = exponent + stat.sign * eta[j] * stat.value(xs)
    return exponent


def _bind_many(spec: ExpFamilySpec, eta, batch: bool = True) -> tuple[np.ndarray, float | np.ndarray]:
    """(eta, A(eta)), eta checked once by :func:`_as_eta`: A is a float for one
    eta of shape (l,), one array of shape (m,) for a batch of shape (l, m)."""
    eta = _as_eta(spec, eta, batch)
    log_partition = spec.log_partition_fn(eta)
    return eta, float(log_partition) if eta.ndim == 1 else np.asarray(log_partition, dtype=float)


def _log_density_many(spec: ExpFamilySpec, eta, x) -> np.ndarray:
    """log p(x | eta) at one eta (shape (l,)), with the shape of ``x``, or at
    every column of a batch (shape (l, m)), with shape ``np.shape(x) + (m,)``;
    each double the one :meth:`BoundFamily.log_density` gives.  Overflow and
    invalid values are not warned about; the caller reads a non-finite value
    itself.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        eta, log_partition = _bind_many(spec, eta)
        xs = np.asarray(x, dtype=float)
        return _exponent(spec, eta, log_partition, xs if eta.ndim == 1 else xs[..., None])


def density(spec: ExpFamilySpec, eta, x) -> float | np.ndarray:
    """p(x | eta) in canonical form."""
    return spec.at(eta).density(x)


def moment_suff_stat(spec: ExpFamilySpec, eta, k: int, m: int) -> float:
    """E[T_k(X)^m] from the family's closed forms.

    A closed-form statistic moment declared by the family comes first.
    Otherwise the cumulants kappa_j = sign^j d^j A / d eta_k^j give the raw
    moments through mu_n = sum_j C(n-1, j-1) kappa_j mu_{n-j}, mu_0 = 1.
    """
    eta = _as_eta(spec, eta, batch=False)
    k = _check_k(spec, k)
    if not (isinstance(m, (int, np.integer)) and m >= 1):
        raise CrmError(f"moment order m must be a positive integer, got {m}")
    m = int(m)

    if spec.stat_moment is not None:
        val = spec.stat_moment(eta, k, m)
        if val is not None:
            return float(val)
    if spec.cumulants is None:
        raise CrmError(f"{spec.name}: declares neither a moment of statistic {k} nor cumulants")

    sign = spec.stats[k - 1].sign
    kappas = [sign ** j * d for j, d in enumerate(spec.cumulants(eta, k, m), start=1)]
    mus = [1.0]
    for n in range(1, m + 1):
        mus.append(sum(math.comb(n - 1, j - 1) * kappas[j - 1] * mus[n - j] for j in range(1, n + 1)))
    return float(mus[m])


def _tilt(spec: ExpFamilySpec, eta, k: int, step: float) -> float | np.ndarray:
    """E[exp(step * T_k(X))] = exp(A(eta + sign_k step e_k) - A(eta)), eta and its
    tilt each bound once: a float at one eta (shape (l,)), an array at a batch
    (shape (l, m), one eta per column).  It is infinite exactly where the tilt
    leaves the natural space: there :class:`DivergenceError` (``partial=inf``)
    names the tilted coordinate of the first such column.  Overflow is not
    warned about; the caller reads a non-finite value itself.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        eta, log_partition = _bind_many(spec, eta)
        k = _check_k(spec, k)
        tilted = eta.copy()
        tilted[k - 1] += spec.stats[k - 1].sign * step
        try:
            tilted_log_partition = _bind_many(spec, tilted)[1]
        except NaturalSpaceError as exc:
            coord = tilted[k - 1] if exc.index is None else tilted[k - 1, exc.index]
            raise DivergenceError(
                f"{spec.name}: E[exp({step} T_{k})] is infinite, the tilted coordinate "
                f"eta_{k} = {coord} leaves the natural space ({exc})",
                partial=_INF,
            ) from exc
        out = np.exp(tilted_log_partition - log_partition)
    return float(out) if eta.ndim == 1 else out


def raw_moment(spec: ExpFamilySpec, eta, k: int, m: int) -> float:
    """E[exp(m * T_k(X))] by tilting the k-th canonical coefficient by m.

    For the beta family with k=1 this is the raw moment E[X^m]; in general
    it exists exactly when the tilted parameter stays in the natural space,
    and :func:`_tilt` raises :class:`DivergenceError` where it does not.
    """
    return _tilt(spec, eta, k, m)


def raw_moment_beta(alpha: float, beta: float, m: int) -> float:
    """E[X^m] for X ~ Beta(alpha, beta) via the gamma-function ratio."""
    if alpha <= 0 or beta <= 0:
        raise NaturalSpaceError("beta parameters must be positive")
    gammaln = _special().gammaln
    return float(
        np.exp(gammaln(alpha + m) + gammaln(alpha + beta) - gammaln(alpha + beta + m) - gammaln(alpha))
    )


def sample_each(spec: ExpFamilySpec, etas: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw per row of ``etas`` (shape (m, l)), in row order."""
    etas = np.asarray(etas, dtype=float)
    if etas.ndim != 2 or etas.shape[1] != spec.dimension:
        raise CrmError(f"{spec.name}: expected eta array of shape (m, {spec.dimension})")
    if etas.shape[0] == 0:
        return np.empty(0)
    return np.asarray(spec.sampler(etas, rng, len(etas)), dtype=float)


# ---------------------------------------------------------------------------
# Registered families
# ---------------------------------------------------------------------------


def _exp_cumulants(shift: float, rate: float, n: int) -> list:
    """The first n cumulants of shift + Exp(rate)."""
    return [shift + 1.0 / rate] + [math.factorial(j - 1) / rate ** j for j in range(2, n + 1)]


# The power series of R(a, x) = e^x x^-a Gamma(a, x) serves -20 < a <= 1/2
# below x = 2, the continued fraction the rest.  At that split both hold
# 1e-14 against 40-digit mpmath: the series loses digits as x grows (about
# 5e-15 at x = 2), the fraction needs more terms as x falls (at most 55 at
# x = 2, and at most 38 for a <= -20 at any x)
_X_SERIES, _A_SERIES = 2.0, -20.0
_SERIES_N = np.arange(1.0, 26.0)  # x^25 / 25! < 3e-18 for x < 2
_CF_MAX_ITER = 1000


@functools.cache
def _series_tables() -> tuple:
    """c_k and k in ln Gamma(1 + e) / e = sum_k c_k e^k, |e| <= 1/2 (DLMF 5.7.3),
    and n! for n in ``_SERIES_N``."""
    k = np.arange(2, 58)
    c = np.concatenate([[-np.euler_gamma], (-1.0) ** k * _special().zeta(k) / k])
    return c, np.arange(c.size), _special().factorial(_SERIES_N)


def _upper_gamma_ratio_series(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """R(a, x) for -20 < a <= 1/2 and x < 2, from the nearest e = a + n in [-1/2, 1/2].

    Gamma(e, x) = (Gamma(1 + e) - 1)/e - (x^e - 1)/e - x^e sum_{k>=1} (-x)^k / (k! (e + k)),
    the series of gamma(e, x) (DLMF 8.7.1) with the poles at e = 0 cancelled
    in closed form; then n steps down of R(b - 1) = (x R(b) - 1)/(b - 1)
    (DLMF 8.8.2).  For x < 2 and b <= 1/2 a step multiplies a relative error
    by x R(b) / (1 - x R(b)), at most about 5.4 (b = 1/2, x -> 2) and
    smaller from there.
    """
    coeffs, powers, fact = _series_tables()
    n = np.rint(-a)
    e = a + n  # exact
    lngamma1p = (coeffs * e[:, None] ** powers).sum(axis=-1)
    log_x = np.log(x)
    x_e = np.exp(e * log_x)
    terms = (-x[:, None]) ** _SERIES_N / (fact * (e[:, None] + _SERIES_N))
    gamma_e = (
        lngamma1p * _special().exprel(e * lngamma1p)
        - log_x * _special().exprel(e * log_x)
        - x_e * terms.sum(axis=-1)
    )
    ratio = gamma_e / x_e * np.exp(x)
    for k in range(1, int(n.max(initial=0.0)) + 1):
        ratio = np.where(k <= n, (x * ratio - 1.0) / (e - k), ratio)
    return ratio


def _upper_gamma_ratio_cf(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """R(a, x) by the Legendre continued fraction (DLMF 8.9.2) in its even
    form, evaluated by modified Lentz (Press et al., Numerical Recipes, 3rd
    ed., 6.2).  Each element stops at its own convergence, so it gets the
    same bits alone as in any batch; one that never converges raises.
    """
    eps = np.finfo(float).eps
    ratio = np.empty(a.shape)
    idx = np.arange(a.size)
    b = x + 1.0 - a
    c = np.full(a.shape, 1.0 / np.finfo(float).tiny)
    d = 1.0 / b
    h = d
    for i in range(1, _CF_MAX_ITER):
        an = i * (a - i)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        step = d * c
        h = h * step
        done = np.abs(step - 1.0) <= eps
        if done.any():
            ratio[idx[done]] = h[done]
            if done.all():
                return ratio
            idx, a, b, c, d, h = (v[~done] for v in (idx, a, b, c, d, h))
    raise CrmError(
        f"ln Gamma(a, x): continued fraction did not converge in {_CF_MAX_ITER} terms"
        f" at a={a[0]}, x={x[idx[0]]}"
    )


def _log_upper_gamma(a, x) -> np.ndarray:
    """ln Gamma(a, x) in doubles for every real a and x > 0, broadcast over arrays.

    Below x = 2 with -20 < a <= 1/2 it is a ln x - x + ln R from the series;
    elsewhere gammaln(a) + log(gammaincc(a, x)) where that gammaincc is a
    normal double (a > 0 short of its underflow), else a ln x - x + ln R
    from the continued fraction.  Within 1e-13 max(1, |ln Gamma|) of
    40-digit mpmath on a in (-4, 4), x in (1e-3, 100), and x up to 1e3 for
    a > 0.
    """
    a, x = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(x, dtype=float))
    out = np.empty(a.shape)
    series = (a > _A_SERIES) & (a <= 0.5) & (x < _X_SERIES)
    q = _special().gammaincc(a, x)  # nan for a < 0, 0 for a = 0
    by_q = ~series & (q >= np.finfo(float).tiny)
    if by_q.any():
        out[by_q] = _special().gammaln(a[by_q]) + np.log(q[by_q])
    for mask, ratio in ((series, _upper_gamma_ratio_series), (~(by_q | series), _upper_gamma_ratio_cf)):
        if mask.any():
            am, xm = a[mask], x[mask]
            out[mask] = am * np.log(xm) - xm + np.log(ratio(am, xm))
    return out


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

    def a(eta):
        gammaln = _special().gammaln
        return gammaln(eta[0]) + gammaln(eta[1]) - gammaln(eta[0] + eta[1])

    def cumulants(eta, k, n):
        orders = np.arange(n)
        return _special().polygamma(orders, eta[k - 1]) - _special().polygamma(orders, eta[0] + eta[1])

    return ExpFamilySpec(
        name="beta",
        support=Support(0.0, 1.0),
        stats=stats,
        log_carrier=lambda x: -np.log(x) - np.log1p(-np.asarray(x, dtype=float)),
        log_partition_fn=a,
        natural=(
            (1, lambda eta: eta[0] > 0, "beta: first coordinate must be positive, got {}"),
            (2, lambda eta: eta[1] > 0, "beta: second coordinate must be positive, got {}"),
        ),
        sampler=lambda eta, rng, size: rng.beta(eta.T[0], eta.T[1], size),
        cdf=lambda eta, x: _special().betainc(eta[0], eta[1], x),
        quantile=lambda eta, q: _special().betaincinv(eta[0], eta[1], q),
        cumulants=cumulants,
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

    def a(eta):
        return _special().gammaln(eta[0]) - eta[0] * np.log(eta[1])

    def cumulants(eta, k, n):
        shape, rate = eta
        if k == 1:
            special = _special()
            return [special.digamma(shape) - np.log(rate), *special.polygamma(np.arange(1, n), shape)]
        return [(-1) ** j * math.factorial(j - 1) * shape / rate ** j for j in range(1, n + 1)]

    return ExpFamilySpec(
        name="gamma",
        support=Support(0.0, _INF),
        stats=stats,
        log_carrier=lambda x: -np.log(x),
        log_partition_fn=a,
        natural=(
            (1, lambda eta: eta[0] > 0, "gamma: shape must be positive, got {}"),
            (2, lambda eta: eta[1] > 0, "gamma: rate must be positive, got {}"),
        ),
        sampler=lambda eta, rng, size: rng.gamma(eta.T[0], 1.0 / eta.T[1], size),
        cdf=lambda eta, x: _special().gammainc(eta[0], eta[1] * x),
        quantile=lambda eta, q: _special().gammaincinv(eta[0], q) / eta[1],
        cumulants=cumulants,
    )


def _pareto_family(scale: float) -> ExpFamilySpec:
    """Single-statistic form: density a*u_m^a/x^(a+1) on (u_m, inf), eta = -(a+1)."""
    if not (0 < scale < _INF):
        raise CrmError(f"pareto: scale must be positive and finite, got {scale}")
    u_m = float(scale)
    stats = (
        SufficientStat(
            "log_x", np.log, inverse=np.exp, inverse_deriv=np.exp, image=(np.log(u_m), _INF)
        ),
    )

    def a(eta):
        return (eta[0] + 1.0) * np.log(u_m) - np.log(-eta[0] - 1.0)

    def cumulants(eta, k, n):
        return _exp_cumulants(np.log(u_m), -eta[0] - 1.0, n)  # ln x = ln u_m + Exp(alpha)

    def quantile(eta, q):
        alpha = -eta[0] - 1.0
        return u_m * (1.0 - q) ** (-1.0 / alpha)

    return ExpFamilySpec(
        name="pareto",
        support=Support(u_m, _INF),
        stats=stats,
        log_carrier=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        log_partition_fn=a,
        natural=((1, lambda eta: eta[0] < -1, "pareto: coordinate must be < -1, got {}"),),
        sampler=lambda eta, rng, size: quantile(eta.T, rng.random(size)),
        cdf=lambda eta, x: -np.expm1((-eta[0] - 1.0) * np.log(u_m / x)),
        quantile=quantile,
        cumulants=cumulants,
        fixed={"scale": u_m},
    )


def _pareto_loglog_family(scale: float) -> ExpFamilySpec:
    """Two-statistic form with T = (ln x, ln ln x) on (e^{u_m}, inf).

    At eta = (-1, -(a+1)) the pushforward of the density under w = ln x is
    the Pareto(u_m, a) density, which is what makes this family the seed of
    the Pareto-weight random measures.  Off that face w has the density of a
    Gamma(eta_2 + 1, s) variable, s = -(eta_1 + 1), truncated to w > u_m
    (for eta_2 + 1 <= 0 an improper gamma kernel, still integrable there),
    so A(eta) = -(eta_2 + 1) ln s + ln Gamma(eta_2 + 1, s u_m) in doubles
    (:func:`_log_upper_gamma`).  The off-face statistic moments, the CDF and
    the quantile where gammaincc cannot invert (eta_2 <= -1, or a tail mass
    below the double range) are read off that same ln Gamma.
    The natural space is {eta_1 < -1} union {eta_1 = -1, eta_2 < -1}.
    """
    if not (0 < scale < _INF):
        raise CrmError(f"pareto(log-log): scale must be positive and finite, got {scale}")
    if scale >= _LOG_MAX:  # x_lo = e^scale would overflow
        raise CrmError(f"pareto(log-log): scale must be below ln(max double) = {_LOG_MAX}, got {scale}")
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

    def a(eta):
        """A at one eta (a float) or at each column of a batch, in one array
        pass: the Pareto closed form on the face, ln Gamma off it."""
        e1, e2 = np.asarray(eta[0], dtype=float), np.asarray(eta[1], dtype=float)
        shape = e2 + 1.0
        off = ~on_face((e1, e2))
        with np.errstate(divide="ignore", invalid="ignore"):  # off-face columns, replaced below
            out = np.array(shape * math.log(u_m) - np.log(-shape))
        if off.any():
            s = -(e1[off] + 1.0)
            out[off] = -shape[off] * np.log(s) + _log_upper_gamma(shape[off], s * u_m)
        return float(out) if out.ndim == 0 else out

    def cumulants(eta, k, n):
        """Of ln w on the face, ln u_m + Exp(alpha); stat_moment answers every other (eta, k)."""
        if k == 1 or not on_face(eta):
            raise DerivativeDomainError("pareto(log-log): cumulants of ln ln x on the face only")
        return _exp_cumulants(math.log(u_m), -eta[1] - 1.0, n)

    def stat_moment(eta, k, m):
        """Pareto(u_m, alpha) moments of w = ln x on the face.  Off it, with
        x = s u_m, E[w^m] = s^-m Gamma(a + m, x) / Gamma(a, x), and E[(ln w)^m]
        is d^m times one quadrature in t = s w - x of (ln w / d)^m, where
        d = |ln u_m| + 1/x keeps small moments above its absolute floor."""
        if on_face(eta):
            if k == 2:
                return None  # from the cumulants
            alpha = -eta[1] - 1.0
            if alpha <= m:
                raise DerivativeDomainError(
                    f"pareto(log-log): E[(ln x)^{m}] diverges for shape {alpha} <= {m}"
                )
            return alpha * u_m ** m / (alpha - m)
        s, a = -(eta[0] + 1.0), eta[1] + 1.0
        x = s * u_m
        log_top = float(_log_upper_gamma(a, x))
        if k == 1:
            return s ** -m * math.exp(float(_log_upper_gamma(a + m, x)) - log_top)
        log_u, d = math.log(u_m), abs(math.log(u_m)) + 1.0 / x

        def integrand(t):
            density = math.exp((a - 1.0) * math.log(x + t) - x - t - log_top)
            return ((log_u + math.log1p(t / x)) / d) ** m * density

        return d ** m * checked_quad(integrand, 0.0, _INF)

    def tail(eta, w):
        """P(W > w), W = ln X, for w >= u_m."""
        if on_face(eta):
            return (u_m / w) ** (-eta[1] - 1.0)
        s, a = -(eta[0] + 1.0), eta[1] + 1.0
        top = _special().gammaincc(a, s * u_m)  # nan for a <= 0
        if top > 0:
            return _special().gammaincc(a, s * w) / top
        return np.exp(_log_upper_gamma(a, s * w) - _log_upper_gamma(a, s * u_m))

    def w_newton(s, a, q):
        """W's q-quantile off the face, one Newton over the batch on the CDF's
        own expression from w = u_m.  Here a <= 0 or s u_m >> a, so W's density
        falls past u_m, the CDF is concave and no step overshoots.  A row stops
        at a step that is non-positive or within 4 ulp, alone or in any batch."""
        w, out, idx = np.full(q.shape, u_m), np.empty(q.shape), np.arange(q.size)
        log_top = _log_upper_gamma(a, s * u_m)
        for _ in range(200):
            cdf = 1.0 - np.exp(_log_upper_gamma(a, s * w) - log_top)
            step = (q - cdf) * np.exp(log_top + s * w - a * np.log(s) - (a - 1.0) * np.log(w))
            done = step <= 4.0 * np.spacing(w)  # false for a nan step
            out[idx[done]] = w[done]
            idx, s, a, q, log_top, w = (v[~done] for v in (idx, s, a, q, log_top, w + step))
            if not idx.size:
                return out
        raise CrmError(f"pareto(log-log): quantile {q[0]} did not converge at s={s[0]}, a={a[0]}")

    def quantile(eta, q):
        """x at level q, elementwise over eta of shape (2,) or (2, m) and q."""
        shape = np.broadcast(eta[0], eta[1], q).shape
        e1, e2, q = (np.atleast_1d(v) for v in np.broadcast_arrays(eta[0], eta[1], q))
        face = on_face((e1, e2))
        w = np.empty(q.shape)
        w[face] = u_m * (1.0 - q[face]) ** (-1.0 / (-e2[face] - 1.0))
        off = np.flatnonzero(~face)
        s, a, q = -(e1[off] + 1.0), e2[off] + 1.0, q[off]
        top = _special().gammaincc(a, s * u_m)
        w[off] = _special().gammainccinv(a, (1.0 - q) * top) / s
        # shape a <= 0 (gammaincc is nan) or a tail mass below the double range
        newton = ~(top > 0)
        if newton.any():
            w[off[newton]] = w_newton(s[newton], a[newton], q[newton])
        return np.exp(w).reshape(shape)

    def sampler(eta, rng, size):
        """Inversion at one uniform per row; after all the uniforms, rows off
        the face with eta_2 <= 0 accept w = u_m + Exp(s) with probability
        (w / u_m)^{eta_2}, the target w^{eta_2} e^{-s w} over the proposal."""
        us = rng.random(size)
        etas = np.broadcast_to(eta, (size, 2))
        reject = ~on_face(etas.T) & (etas[:, 1] <= 0)
        draws = np.empty(size)
        draws[~reject] = quantile(etas[~reject].T, us[~reject])
        pending = np.flatnonzero(reject)
        s, e2 = -(etas[:, 0] + 1.0), etas[:, 1]
        while pending.size:
            w = u_m + rng.standard_exponential(pending.size) / s[pending]
            accept = rng.random(pending.size) < (w / u_m) ** e2[pending]
            draws[pending[accept]] = np.exp(w[accept])
            pending = pending[~accept]
        return draws

    return ExpFamilySpec(
        name="pareto_loglog",
        support=Support(x_lo, _INF),
        stats=stats,
        log_carrier=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        log_partition_fn=a,
        natural=(
            (1, lambda eta: eta[0] <= -1.0 + _FACE_TOL,
             "pareto(log-log): first coordinate must be <= -1, got {}"),
            (2, lambda eta: ~on_face(eta) | (eta[1] < -1.0),
             "pareto(log-log): on the face eta_1 = -1 the second coordinate must be < -1, got {}"),
        ),
        sampler=sampler,
        cdf=lambda eta, x: np.clip(1.0 - tail(eta, np.log(x)), 0.0, 1.0),
        quantile=quantile,
        cumulants=cumulants,
        stat_moment=stat_moment,
        fixed={"scale": u_m},
    )


def _lognormal_family(mu: float) -> ExpFamilySpec:
    """Log-normal with known drift; natural parameter is the precision of ln X."""
    mu = float(mu)
    if not math.isfinite(mu):
        raise CrmError(f"lognormal: mu must be finite, got {mu}")
    stats = (
        SufficientStat(
            "half_sq_centered_log",
            lambda x: 0.5 * (np.log(x) - mu) ** 2,
            sign=-1,
            image=(0.0, _INF),
        ),
    )

    def cumulants(eta, k, n):
        return [(-1) ** j * math.factorial(j - 1) * 0.5 / eta[0] ** j for j in range(1, n + 1)]

    return ExpFamilySpec(
        name="lognormal",
        support=Support(0.0, _INF),
        stats=stats,
        log_carrier=lambda x: -np.log(x) - 0.5 * np.log(2.0 * np.pi),
        log_partition_fn=lambda eta: -0.5 * np.log(eta[0]),
        natural=((1, lambda eta: eta[0] > 0, "lognormal: precision must be positive, got {}"),),
        sampler=lambda eta, rng, size: np.exp(mu + rng.standard_normal(size) / np.sqrt(eta.T[0])),
        cdf=lambda eta, x: _special().ndtr((np.log(x) - mu) * np.sqrt(eta[0])),
        quantile=lambda eta, q: np.exp(mu + _special().ndtri(q) / np.sqrt(eta[0])),
        cumulants=cumulants,
        fixed={"mu": mu},
    )


def _poisson_family() -> ExpFamilySpec:
    stats = (SufficientStat("x", lambda x: np.asarray(x, dtype=float) + 0.0, image=(0.0, _INF)),)

    return ExpFamilySpec(
        name="poisson",
        support=Support(0.0, _INF, discrete=True),
        stats=stats,
        log_carrier=lambda x: -_special().gammaln(np.asarray(x, dtype=float) + 1.0),
        log_partition_fn=lambda eta: np.exp(eta[0]),
        natural=((1, lambda eta: np.isfinite(eta[0]), "poisson: log-rate must be finite"),),
        sampler=lambda eta, rng, size: rng.poisson(np.exp(eta.T[0]), size).astype(float),
        cdf=lambda eta, x: _special().pdtr(np.floor(x), np.exp(eta[0])),
        cumulants=lambda eta, k, n: [np.exp(eta[0])] * n,
    )


def _bernoulli_family() -> ExpFamilySpec:
    stats = (SufficientStat("x", lambda x: np.asarray(x, dtype=float) + 0.0, image=(0.0, 1.0)),)

    def cumulants(eta, k, n):
        # the derivatives of the logistic p are p and p (1 - p) P_j(p), with
        # P_0 = 1 and P_{j+1} = (1 - 2p) P_j + p (1 - p) P_j'
        p = _special().expit(eta[0])
        out, poly = [p], np.poly1d([1.0])
        for _ in range(1, n):
            out.append(p * (1.0 - p) * poly(p))
            poly = np.poly1d([-2.0, 1.0]) * poly + np.poly1d([-1.0, 1.0, 0.0]) * poly.deriv()
        return out

    return ExpFamilySpec(
        name="bernoulli",
        support=Support(0.0, 1.0, discrete=True),
        stats=stats,
        log_carrier=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        log_partition_fn=lambda eta: np.logaddexp(0.0, eta[0]),
        natural=((1, lambda eta: np.isfinite(eta[0]), "bernoulli: log-odds must be finite"),),
        sampler=lambda eta, rng, size: (rng.random(size) < _special().expit(eta.T[0])).astype(float),
        cdf=lambda eta, x: np.full(np.shape(x), _special().expit(-eta[0])),
        cumulants=cumulants,
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
    the override.  An override's location and values must be finite.
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
            if not (math.isfinite(loc) and np.all(np.isfinite(eta))):
                raise CrmError(f"atom override at z={loc} is not finite: {tuple(map(float, eta))}")

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
        free = slice(None)  # with no overrides every z is free, with no gather
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
        bad = ~np.isfinite(out).all(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            raise CrmError(f"parameter path not finite at z={float(flat[i])}: {out[i]}")
        return out.reshape(zs.shape + (self.dimension,))

    def natural_etas(self, family: ExpFamilySpec, zs, where: Callable) -> np.ndarray:
        """:meth:`eval_many` over an array ``zs``, checked in ``family``'s natural
        space: the first bad ``zs[i]`` raises :class:`NaturalSpaceError` with
        message ``f"{where(i, z)}: {reason}"``, ``index = i``, the family
        error's ``coord``, and that error as its cause."""
        etas = self.eval_many(zs)
        try:
            family.check_natural(etas.T)
        except NaturalSpaceError as exc:
            i = exc.index
            raise NaturalSpaceError(
                f"{where(i, float(zs[i]))}: {exc}", coord=exc.coord, index=i
            ) from exc
        return etas

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
