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
one eta per column.  Each declares its distribution in closed form, with no
numeric fallback: ``cumulants(eta, k, n)``, the derivatives of A of orders
1..n, from which :func:`moment_suff_stat` builds moments of every order
(unless a ``stat_moment`` answers first); ``cdf`` and, for continuous
families, ``quantile``, reached through :meth:`ExpFamilySpec.at`; and one
exact sampler, for one natural parameter shared by all draws or one per
draw.  Off its face ``eta_1 = -1``, ``pareto_loglog`` draws by inversion
for ``eta_2 > 0`` and by rejection from ``u_m + Exp(-(eta_1 + 1))`` for
``eta_2 <= 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import special

from .errors import CrmError, DerivativeDomainError, NaturalSpaceError, SupportError
from .piecewise import PiecewiseFunction

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


def _bind_many(spec: ExpFamilySpec, etas) -> tuple[np.ndarray, np.ndarray]:
    """(etas, A(etas)) for a batch of natural parameters, one per column.

    The batch form of binding: ``etas`` of shape (l, m) is checked in one
    :meth:`ExpFamilySpec.check_natural` (the first bad column is ``index``)
    and A is one call of ``log_partition_fn``.  Rows are made contiguous, so
    every ufunc sees what it sees for one eta and returns the same doubles.
    """
    etas = np.ascontiguousarray(etas, dtype=float)
    if not np.all(np.isfinite(etas)):
        bad = int(np.argmin(np.isfinite(etas).all(axis=0)))
        raise NaturalSpaceError(
            f"{spec.name}: natural parameter must be finite, got {etas[:, bad]}", index=bad
        )
    spec.check_natural(etas)
    return etas, np.asarray(spec.log_partition_fn(etas), dtype=float)


def _log_density_many(spec: ExpFamilySpec, etas, x) -> np.ndarray:
    """log p(x | eta) for every column of ``etas`` (shape (l, m)): shape
    ``np.shape(x) + (m,)``, each double the one :meth:`BoundFamily.log_density`
    gives.  Overflow and invalid values are not warned about; the caller
    reads a non-finite value itself.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        etas, log_partition = _bind_many(spec, etas)
        return _exponent(spec, etas, log_partition, np.asarray(x, dtype=float)[..., None])


def density(spec: ExpFamilySpec, eta, x) -> float | np.ndarray:
    """p(x | eta) in canonical form."""
    return spec.at(eta).density(x)


def moment_suff_stat(spec: ExpFamilySpec, eta, k: int, m: int) -> float:
    """E[T_k(X)^m] from the family's closed forms.

    A closed-form statistic moment declared by the family comes first.
    Otherwise the cumulants kappa_j = sign^j d^j A / d eta_k^j give the raw
    moments through mu_n = sum_j C(n-1, j-1) kappa_j mu_{n-j}, mu_0 = 1.
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
    if spec.cumulants is None:
        raise CrmError(f"{spec.name}: declares neither a moment of statistic {k} nor cumulants")

    sign = spec.stats[k - 1].sign
    kappas = [sign ** j * d for j, d in enumerate(spec.cumulants(eta, k, m), start=1)]
    mus = [1.0]
    for n in range(1, m + 1):
        mus.append(sum(math.comb(n - 1, j - 1) * kappas[j - 1] * mus[n - j] for j in range(1, n + 1)))
    return float(mus[m])


def _tilt(bound: BoundFamily, k: int, step: float) -> float:
    """E[exp(step * T_k(X))] at the bound eta: exp(A(eta + sign_k step e_k) - A(eta)).

    Raises :class:`NaturalSpaceError` when the tilted parameter leaves the
    natural space, where the expectation is infinite.
    """
    spec = bound.spec
    k = _check_k(spec, k)
    tilted = bound.eta.copy()
    tilted[k - 1] += spec.stats[k - 1].sign * step
    return float(np.exp(spec.at(tilted).log_partition - bound.log_partition))


def _tilt_many(spec: ExpFamilySpec, etas, k: int, step: float) -> np.ndarray:
    """:func:`_tilt` at every column of ``etas`` (shape (l, m)), the same doubles.

    Raises :class:`NaturalSpaceError` when a column or its tilt leaves the
    natural space.  Overflow is not warned about; the caller reads a
    non-finite value itself.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        etas, log_partition = _bind_many(spec, etas)
        tilted = etas.copy()
        tilted[k - 1] += spec.stats[k - 1].sign * step
        return np.exp(_bind_many(spec, tilted)[1] - log_partition)


def raw_moment(spec: ExpFamilySpec, eta, k: int, m: int) -> float:
    """E[exp(m * T_k(X))] by tilting the k-th canonical coefficient by m.

    For the beta family with k=1 this is the raw moment E[X^m]; in general
    it exists exactly when the tilted parameter stays in the natural space.
    """
    return _tilt(spec.at(eta), k, m)


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
        return special.gammaln(eta[0]) + special.gammaln(eta[1]) - special.gammaln(eta[0] + eta[1])

    def cumulants(eta, k, n):
        orders = np.arange(n)
        return special.polygamma(orders, eta[k - 1]) - special.polygamma(orders, eta[0] + eta[1])

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
        cdf=lambda eta, x: special.betainc(eta[0], eta[1], x),
        quantile=lambda eta, q: special.betaincinv(eta[0], eta[1], q),
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
        return special.gammaln(eta[0]) - eta[0] * np.log(eta[1])

    def cumulants(eta, k, n):
        shape, rate = eta
        if k == 1:
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
        cdf=lambda eta, x: special.gammainc(eta[0], eta[1] * x),
        quantile=lambda eta, q: special.gammaincinv(eta[0], q) / eta[1],
        cumulants=cumulants,
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
    (for eta_2 + 1 <= 0 an improper gamma kernel, still integrable there).
    The natural space is {eta_1 < -1} union {eta_1 = -1, eta_2 < -1}.
    """
    import mpmath as mp

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

    def a_mp(e1, e2):
        """log of int_{u_m}^inf exp((e1+1) w) w^{e2} dw at ambient precision."""
        if abs(e1 + 1.0) <= _FACE_TOL:
            return mp.mpf(e2 + 1.0) * mp.log(u_m) - mp.log(-(mp.mpf(e2) + 1.0))
        s = -(mp.mpf(e1) + 1.0)
        upper = mp.gammainc(mp.mpf(e2) + 1.0, s * u_m, mp.inf)
        return -(mp.mpf(e2) + 1.0) * mp.log(s) + mp.log(upper)

    def a(eta):
        """A at one eta, or at each column of a batch, one mpmath call each."""
        with mp.workdps(40):
            if np.ndim(eta[0]) == 0:
                return float(a_mp(eta[0], eta[1]))
            return np.array([float(a_mp(e1, e2)) for e1, e2 in zip(eta[0], eta[1])])

    def cumulants(eta, k, n):
        if on_face(eta):
            if k == 1:
                raise DerivativeDomainError("pareto(log-log): A is one-sided in eta_1 on the face")
            return _exp_cumulants(math.log(u_m), -eta[1] - 1.0, n)  # ln w = ln u_m + Exp(alpha)
        along = (lambda y: a_mp(y, eta[1])) if k == 1 else (lambda y: a_mp(eta[0], y))
        # diffs evaluates at (precision + 20 bits) * (n + 1) with a step of
        # 2^-(precision + 10), so double precision already gives every
        # derivative to about 70 bits
        with mp.workdps(15):
            return [float(d) for d in list(mp.diffs(along, eta[k - 1], n))[1:]]

    def stat_moment(eta, k, m):
        """Moments of w = ln x: Pareto(u_m, alpha) on the face, a gamma ratio off it."""
        if k == 2:
            return None  # from the cumulants
        alpha = -eta[1] - 1.0
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

    def tail(eta, w):
        """P(W > w), W = ln X, for w >= u_m."""
        if on_face(eta):
            return (u_m / w) ** (-eta[1] - 1.0)
        s, a = -(eta[0] + 1.0), eta[1] + 1.0
        top = special.gammaincc(a, s * u_m)  # nan for a <= 0
        if top > 0:
            return special.gammaincc(a, s * w) / top
        with mp.workdps(20):
            top = mp.gammainc(a, s * u_m, mp.inf)
            return np.vectorize(lambda v: float(mp.gammainc(a, s * v, mp.inf) / top), otypes=[float])(w)

    def w_newton(s, a, q):
        """W's q-quantile off the face by Newton on -ln P(W > w) from w = u_m;
        W's hazard is monotone, so after at most one overshoot it converges
        monotonically."""
        with mp.workdps(20):
            s, a, w = mp.mpf(s), mp.mpf(a), mp.mpf(u_m)
            top = mp.gammainc(a, s * u_m, mp.inf)
            for _ in range(200):
                upper = mp.gammainc(a, s * w, mp.inf)
                density = s ** a * w ** (a - 1) * mp.exp(-s * w)
                step = (mp.log(upper / top) - mp.log1p(-q)) * upper / density
                w += step
                if abs(step) <= 1e-16 * w:
                    return float(w)
        raise CrmError(f"pareto(log-log): quantile {q} did not converge at s={s}, a={a}")

    def quantile(eta, q):
        """x at level q, elementwise over eta of shape (2,) or (2, m) and q."""
        shape = np.broadcast(eta[0], eta[1], q).shape
        e1, e2, q = (np.atleast_1d(v) for v in np.broadcast_arrays(eta[0], eta[1], q))
        face = on_face((e1, e2))
        w = np.empty(q.shape)
        w[face] = u_m * (1.0 - q[face]) ** (-1.0 / (-e2[face] - 1.0))
        off = np.flatnonzero(~face)
        s, a, q = -(e1[off] + 1.0), e2[off] + 1.0, q[off]
        top = special.gammaincc(a, s * u_m)
        w[off] = special.gammainccinv(a, (1.0 - q) * top) / s
        # shape a <= 0 (gammaincc is nan) or a tail mass below the double range
        for i in np.flatnonzero(~(top > 0)):
            w[off[i]] = w_newton(s[i], a[i], q[i])
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
        cdf=lambda eta, x: special.ndtr((np.log(x) - mu) * np.sqrt(eta[0])),
        quantile=lambda eta, q: np.exp(mu + special.ndtri(q) / np.sqrt(eta[0])),
        cumulants=cumulants,
        fixed={"mu": mu},
    )


def _poisson_family() -> ExpFamilySpec:
    stats = (SufficientStat("x", lambda x: np.asarray(x, dtype=float) + 0.0, image=(0.0, _INF)),)

    return ExpFamilySpec(
        name="poisson",
        support=Support(0.0, _INF, discrete=True),
        stats=stats,
        log_carrier=lambda x: -special.gammaln(np.asarray(x, dtype=float) + 1.0),
        log_partition_fn=lambda eta: np.exp(eta[0]),
        natural=((1, lambda eta: np.isfinite(eta[0]), "poisson: log-rate must be finite"),),
        sampler=lambda eta, rng, size: rng.poisson(np.exp(eta.T[0]), size).astype(float),
        cdf=lambda eta, x: special.pdtr(np.floor(x), np.exp(eta[0])),
        cumulants=lambda eta, k, n: [np.exp(eta[0])] * n,
    )


def _bernoulli_family() -> ExpFamilySpec:
    stats = (SufficientStat("x", lambda x: np.asarray(x, dtype=float) + 0.0, image=(0.0, 1.0)),)

    def cumulants(eta, k, n):
        # the derivatives of the logistic p are p and p (1 - p) P_j(p), with
        # P_0 = 1 and P_{j+1} = (1 - 2p) P_j + p (1 - p) P_j'
        p = special.expit(eta[0])
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
        sampler=lambda eta, rng, size: (rng.random(size) < special.expit(eta.T[0])).astype(float),
        cdf=lambda eta, x: np.full(np.shape(x), special.expit(-eta[0])),
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
        if self.atom_overrides:
            bad &= free
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
