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

Registered families: beta, gamma, pareto (direct and two-statistic log/log-log
forms), log-normal with known drift, poisson, bernoulli.
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
    check_natural: Callable  # raises NaturalSpaceError
    sampler: Callable  # (eta, rng, size) -> ndarray
    log_partition_partials: Callable | None = None  # (eta, k) -> (d1, d2, d3)
    stat_moment: Callable | None = None  # (eta, k, m) -> float | None
    sampler_vec: Callable | None = None  # (etas (m, l), rng) -> (m,)
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


def log_partition(spec: ExpFamilySpec, eta) -> float:
    """A(eta); validates eta lies in the natural parameter space."""
    eta = _as_eta(spec, eta)
    spec.check_natural(eta)
    return float(spec.log_partition_fn(eta))


def log_density(spec: ExpFamilySpec, eta, x) -> float | np.ndarray:
    eta = _as_eta(spec, eta)
    spec.check_natural(eta)
    xs = np.asarray(x, dtype=float)
    if not spec.support.contains(xs):
        raise SupportError(
            f"{spec.name}: point outside support ({spec.support.lo}, {spec.support.hi})"
        )
    a = spec.log_partition_fn(eta)
    exponent = spec.log_carrier(xs) - a
    for j, stat in enumerate(spec.stats):
        exponent = exponent + stat.sign * eta[j] * stat.value(xs)
    return exponent if np.ndim(x) else float(exponent)


def density(spec: ExpFamilySpec, eta, x) -> float | np.ndarray:
    """p(x | eta) in canonical form."""
    return np.exp(log_density(spec, eta, x))


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


def _numeric_partials(spec: ExpFamilySpec, eta, k0: int, m: int) -> list[float]:
    """Central-difference partials of A in coordinate k0, orders 1..min(m,3).

    Base step 1e-5*max(1, |eta_k|), enlarged for higher orders (the pinned
    base step amplifies roundoff beyond usefulness at order 3), halved until
    all stencil points lie inside the natural space; Richardson extrapolation
    for orders 2 and 3.
    """
    scale = max(1.0, abs(eta[k0]))
    steps = {1: 1e-5 * scale, 2: 1.2e-4 * scale, 3: 2.3e-3 * scale}

    def a_at(delta):
        shifted = eta.copy()
        shifted[k0] += delta
        spec.check_natural(shifted)
        return float(spec.log_partition_fn(shifted))

    def admissible(h, reach):
        probe = eta.copy()
        for mult in (-reach, reach):
            probe[k0] = eta[k0] + mult * h
            try:
                spec.check_natural(probe)
            except NaturalSpaceError:
                return False
        return True

    out = []
    for order in range(1, min(m, 3) + 1):
        h = steps[order]
        reach = 2 if order >= 2 else 1
        while not admissible(h, reach):
            h *= 0.5
            if h < 1e-13 * scale:
                raise DerivativeDomainError(
                    f"{spec.name}: no admissible finite-difference step in coordinate {k0 + 1}"
                )

        def d(order, h):
            if order == 1:
                return (a_at(h) - a_at(-h)) / (2.0 * h)
            if order == 2:
                return (a_at(h) - 2.0 * a_at(0.0) + a_at(-h)) / (h * h)
            return (-a_at(-2 * h) + 2 * a_at(-h) - 2 * a_at(h) + a_at(2 * h)) / (2.0 * h ** 3)

        if order == 1:
            out.append(d(1, h))
        else:
            coarse, fine = d(order, h), d(order, h / 2.0)
            out.append((4.0 * fine - coarse) / 3.0)
    return out


def moment_suff_stat(spec: ExpFamilySpec, eta, k: int, m: int) -> float:
    """E[T_k(X)^m] via the log-partition derivative identity.

    Uses, in order of preference: a closed-form statistic moment declared by
    the family, closed-form log-partition partials (converted through the
    cumulant-moment relations), then the finite-difference fallback.
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
    if m <= 3:
        if spec.log_partition_partials is not None:
            kappas = spec.log_partition_partials(eta, k)
        else:
            kappas = _numeric_partials(spec, eta.copy(), k - 1, m)
        return float(_cumulants_to_moments(kappas, sign, m))

    # High orders: central m-th difference of the tilted partition
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
    eta = _as_eta(spec, eta)
    spec.check_natural(eta)
    out = spec.sampler(eta, rng, 1 if size is None else int(size))
    return float(out[0]) if size is None else np.asarray(out, dtype=float)


def sample_each(spec: ExpFamilySpec, etas: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw per row of ``etas`` (shape (m, l)); vectorized when possible."""
    etas = np.asarray(etas, dtype=float)
    if etas.ndim != 2 or etas.shape[1] != spec.dimension:
        raise CrmError(f"{spec.name}: expected eta array of shape (m, {spec.dimension})")
    if etas.shape[0] == 0:
        return np.empty(0)
    if spec.sampler_vec is not None:
        return np.asarray(spec.sampler_vec(etas, rng), dtype=float)
    return np.array([sample(spec, e, rng) for e in etas], dtype=float)


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
        lambda t: density(spec, eta, t), spec.support.lo, min(x, spec.support.hi),
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


def _require(condition: bool, message: str, coord: int | None = None):
    if not condition:
        raise NaturalSpaceError(message, coord=coord)


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
        _require(eta[0] > 0, f"beta: first coordinate must be positive, got {eta[0]}", coord=1)
        _require(eta[1] > 0, f"beta: second coordinate must be positive, got {eta[1]}", coord=2)

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
        check_natural=check,
        sampler=lambda eta, rng, size: rng.beta(eta[0], eta[1], size=size),
        log_partition_partials=partials,
        sampler_vec=lambda etas, rng: rng.beta(etas[:, 0], etas[:, 1]),
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
        _require(eta[0] > 0, f"gamma: shape must be positive, got {eta[0]}", coord=1)
        _require(eta[1] > 0, f"gamma: rate must be positive, got {eta[1]}", coord=2)

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
        check_natural=check,
        sampler=lambda eta, rng, size: rng.gamma(eta[0], 1.0 / eta[1], size=size),
        log_partition_partials=partials,
        sampler_vec=lambda etas, rng: rng.gamma(etas[:, 0], 1.0 / etas[:, 1]),
    )


def _pareto_family(scale: float = 1.0) -> ExpFamilySpec:
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
        _require(eta[0] < -1, f"pareto: coordinate must be < -1, got {eta[0]}", coord=1)

    def a(eta):
        return (eta[0] + 1.0) * np.log(u_m) - np.log(-eta[0] - 1.0)

    def partials(eta, k):
        alpha = -eta[0] - 1.0
        return (np.log(u_m) + 1.0 / alpha, 1.0 / alpha ** 2, 2.0 / alpha ** 3)

    def sampler(eta, rng, size):
        alpha = -eta[0] - 1.0
        return u_m * (1.0 - rng.random(size)) ** (-1.0 / alpha)

    def sampler_vec(etas, rng):
        alphas = -etas[:, 0] - 1.0
        return u_m * (1.0 - rng.random(len(alphas))) ** (-1.0 / alphas)

    return ExpFamilySpec(
        name="pareto",
        support=Support(u_m, _INF),
        stats=stats,
        log_carrier=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        log_partition_fn=a,
        check_natural=check,
        sampler=sampler,
        log_partition_partials=partials,
        sampler_vec=sampler_vec,
        fixed={"scale": u_m},
    )


def _pareto_loglog_family(scale: float = 1.0) -> ExpFamilySpec:
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
        if eta[0] > -1.0 + _FACE_TOL:
            raise NaturalSpaceError(
                f"pareto(log-log): first coordinate must be <= -1, got {eta[0]}", coord=1
            )
        if on_face(eta):
            _require(
                eta[1] < -1.0,
                f"pareto(log-log): on the face eta_1 = -1 the second coordinate must be < -1, got {eta[1]}",
                coord=2,
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
        if on_face(eta):
            alpha = -eta[1] - 1.0
            w = u_m * (1.0 - rng.random(size)) ** (-1.0 / alpha)
            return np.exp(w)
        draws = np.empty(size)
        for i in range(size):
            draws[i] = quantile_numeric(spec_cell[0], eta, float(rng.random()))
        return draws

    def sampler_vec(etas, rng):
        if np.all(np.abs(etas[:, 0] + 1.0) <= _FACE_TOL):
            alphas = -etas[:, 1] - 1.0
            w = u_m * (1.0 - rng.random(len(alphas))) ** (-1.0 / alphas)
            return np.exp(w)
        return np.array([sampler(e, rng, 1)[0] for e in etas])

    spec = ExpFamilySpec(
        name="pareto_loglog",
        support=Support(x_lo, _INF),
        stats=stats,
        log_carrier=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        log_partition_fn=a,
        check_natural=check,
        sampler=sampler,
        stat_moment=stat_moment,
        sampler_vec=sampler_vec,
        fixed={"scale": u_m},
    )
    spec_cell.append(spec)
    return spec


def _lognormal_family(mu: float = 0.0) -> ExpFamilySpec:
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
        _require(eta[0] > 0, f"lognormal: precision must be positive, got {eta[0]}", coord=1)

    def partials(eta, k):
        lam = eta[0]
        return (-0.5 / lam, 0.5 / lam ** 2, -1.0 / lam ** 3)

    return ExpFamilySpec(
        name="lognormal",
        support=Support(0.0, _INF),
        stats=stats,
        log_carrier=lambda x: -np.log(x) - 0.5 * np.log(2.0 * np.pi),
        log_partition_fn=lambda eta: -0.5 * np.log(eta[0]),
        check_natural=check,
        sampler=lambda eta, rng, size: np.exp(mu + rng.standard_normal(size) / np.sqrt(eta[0])),
        log_partition_partials=partials,
        sampler_vec=lambda etas, rng: np.exp(
            mu + rng.standard_normal(len(etas)) / np.sqrt(etas[:, 0])
        ),
        fixed={"mu": mu},
    )


def _poisson_family() -> ExpFamilySpec:
    stats = (SufficientStat("x", lambda x: np.asarray(x, dtype=float) + 0.0, image=(0.0, _INF)),)

    def check(eta):
        _require(np.isfinite(eta[0]), "poisson: log-rate must be finite", coord=1)

    return ExpFamilySpec(
        name="poisson",
        support=Support(0.0, _INF, discrete=True),
        stats=stats,
        log_carrier=lambda x: -special.gammaln(np.asarray(x, dtype=float) + 1.0),
        log_partition_fn=lambda eta: np.exp(eta[0]),
        check_natural=check,
        sampler=lambda eta, rng, size: rng.poisson(np.exp(eta[0]), size=size).astype(float),
        log_partition_partials=lambda eta, k: (np.exp(eta[0]),) * 3,
        sampler_vec=lambda etas, rng: rng.poisson(np.exp(etas[:, 0])).astype(float),
    )


def _bernoulli_family() -> ExpFamilySpec:
    stats = (SufficientStat("x", lambda x: np.asarray(x, dtype=float) + 0.0, image=(0.0, 1.0)),)

    def check(eta):
        _require(np.isfinite(eta[0]), "bernoulli: log-odds must be finite", coord=1)

    def partials(eta, k):
        p = special.expit(eta[0])
        return (p, p * (1.0 - p), p * (1.0 - p) * (1.0 - 2.0 * p))

    return ExpFamilySpec(
        name="bernoulli",
        support=Support(0.0, 1.0, discrete=True),
        stats=stats,
        log_carrier=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        log_partition_fn=lambda eta: np.logaddexp(0.0, eta[0]),
        check_natural=check,
        sampler=lambda eta, rng, size: (rng.random(size) < special.expit(eta[0])).astype(float),
        log_partition_partials=partials,
        sampler_vec=lambda etas, rng: (rng.random(len(etas)) < special.expit(etas[:, 0])).astype(
            float
        ),
    )


_REGISTRY = {
    "beta": lambda: _beta_family(),
    "gamma": lambda: _gamma_family(),
    "pareto": lambda **kw: _pareto_family(**kw),
    "pareto_loglog": lambda **kw: _pareto_loglog_family(**kw),
    "lognormal": lambda **kw: _lognormal_family(**kw),
    "poisson": lambda: _poisson_family(),
    "bernoulli": lambda: _bernoulli_family(),
}

_FAMILY_PARAMS = {
    "beta": frozenset(),
    "gamma": frozenset(),
    "pareto": frozenset({"scale"}),
    "pareto_loglog": frozenset({"scale"}),
    "lognormal": frozenset({"mu"}),
    "poisson": frozenset(),
    "bernoulli": frozenset(),
}


def family_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def make_family(name: str, **params) -> ExpFamilySpec:
    """Construct a registered family by name.

    ``pareto`` accepts ``form="direct"`` (default) or ``form="loglog"`` plus a
    ``scale``; ``lognormal`` accepts ``mu``.
    """
    if name == "pareto" and params.get("form") == "loglog":
        params = {k: v for k, v in params.items() if k != "form"}
        name = "pareto_loglog"
    elif name == "pareto":
        params = {k: v for k, v in params.items() if k != "form"}
    if name not in _REGISTRY:
        raise CrmError(f"unknown family {name!r}; registered: {', '.join(family_names())}")
    extra = set(params) - _FAMILY_PARAMS[name]
    if extra:
        raise CrmError(f"{name} does not accept parameter(s) {sorted(extra)}")
    return _REGISTRY[name](**params)


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
        zs = np.asarray(zs, dtype=float)
        return np.vstack([self.eval(float(z)) for z in zs.ravel()]).reshape(zs.shape + (self.dimension,))

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
