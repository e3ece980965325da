"""Measure how far constant-path Levy densities lie from 50-digit values.

For each statistic whose family declares its inverse (the family's
``stat_terms``), on a constant path over a unit Lebesgue base at t = 1,
``levy_density_u(ctx, 1.0, u)`` is p(s | eta) |ds/du| at s = T_k^{-1}(u).
The tool draws seeded u over a stated range for each case and compares
every double with the same density in mpmath: s, the log-density and
|ds/du| evaluated from u at enough digits that neither the inverse nor
1 - s loses any, rounded to 50 significant digits.  The family-coordinate
cases (``... s``) draw s instead and compare ``levy_density_s(ctx, 1.0, s)``
with p(s | eta) at the double s, evaluated at 80 digits.

It prints per case the number of points whose reference is a normal double,
and over those points the median and the maximum distance from it in units
of its ulp and two counts: zeros (a 0.0 where the density is a normal
double) and values that are not finite.  A point whose reference underflows
or is subnormal is left out.

It imports only ``crmkit`` and ``mpmath``, so it measures any checkout put
first on the path:

    PYTHONPATH=src python tools/density_ulps.py [points per case, default 300]
"""

from __future__ import annotations

import math
import statistics
import sys

import mpmath as mp
import numpy as np

import crmkit

SEED = 20261021


def _uniform(lo, hi):
    return lambda rng, n: rng.uniform(lo, hi, n)


def _log_uniform(lo, hi, sign=1.0, shift=0.0):
    """shift + sign * 10^U(lo, hi)"""
    return lambda rng, n: shift + sign * 10.0 ** rng.uniform(lo, hi, n)


def _exp_uniform(lo, hi):
    """e^U(lo, hi)"""
    return lambda rng, n: np.exp(rng.uniform(lo, hi, n))


def _log_partition(name, eta):
    """A(eta) in mpmath at the working precision; ``pareto`` and ``pareto_loglog`` at scale 1."""
    if name == "beta":
        a, b = eta
        return mp.loggamma(a) + mp.loggamma(b) - mp.loggamma(a + b)
    if name == "gamma":
        a, b = eta
        return mp.loggamma(a) - a * mp.log(b)
    if name == "pareto":
        return -mp.log(-(eta[0] + 1))  # (eta + 1) ln 1 - ln(-(eta + 1))
    e1, e2 = eta  # pareto_loglog: Z = int_1^inf e^{(e1 + 1) w} w^e2 dw
    if e1 == -1:
        return -mp.log(-(e2 + 1))
    rate, shape = -(e1 + 1), e2 + 1
    return -shape * mp.log(rate) + mp.log(mp.gammainc(shape, rate))


def _log_density_s(name, eta, s):
    """ln p(s | eta) in mpmath, from the family's carrier and statistics."""
    if name == "beta":
        a, b = eta
        return (a - 1) * mp.log(s) + (b - 1) * mp.log(1 - s) - _log_partition(name, eta)
    if name == "gamma":
        a, b = eta
        return (a - 1) * mp.log(s) - b * s - _log_partition(name, eta)
    if name == "pareto":
        return eta[0] * mp.log(s) - _log_partition(name, eta)
    w = mp.log(s)
    return eta[0] * w + eta[1] * mp.log(w) - _log_partition(name, eta)


# (family, k) -> (s = T_k^{-1}(u), ln|ds/du|) in mpmath
_INVERSES = {
    ("beta", 1): lambda u: (mp.exp(u), u),
    ("beta", 2): lambda u: (-mp.expm1(u), u),
    ("gamma", 1): lambda u: (mp.exp(u), u),
    ("gamma", 2): lambda u: (u, mp.mpf(0)),
    ("pareto", 1): lambda u: (mp.exp(u), u),
    ("pareto_loglog", 1): lambda u: (mp.exp(u), u),
    ("pareto_loglog", 2): lambda u: (mp.exp(mp.exp(u)), u + mp.exp(u)),
}

# name -> (family, eta, k, the law of u), or with k None the law of s in the family coordinate
CASES = {
    "beta k=1": ("beta", (2.0, 3.0), 1, _log_uniform(-12.0, 2.3, sign=-1.0)),
    "beta k=2": ("beta", (2.0, 3.0), 2, _log_uniform(-12.0, 2.3, sign=-1.0)),
    "gamma k=1": ("gamma", (1.5, 2.0), 1, _uniform(-40.0, 5.8)),
    "gamma k=2": ("gamma", (2.0, 3.0), 2, _log_uniform(-8.0, 2.3)),
    "pareto k=1": ("pareto", (-1.5,), 1, _uniform(0.0, 1400.0)),
    "loglog face k=1": ("pareto_loglog", (-1.0, -3.0), 1, _log_uniform(-6.0, 100.0, shift=1.0)),
    "loglog face k=2": ("pareto_loglog", (-1.0, -3.0), 2, _uniform(0.0, 12.0)),
    "loglog off k=1": ("pareto_loglog", (-2.0, -2.5), 1, _uniform(1.0, 700.0)),
    "loglog off k=2": ("pareto_loglog", (-2.0, -2.5), 2, _uniform(0.0, 6.5)),
    # on the face, density about 0.001 e^{-0.001 v}: normal past v = 709.78, where e^v overflows
    "loglog flat k=2": ("pareto_loglog", (-1.0, -1.001), 2, _uniform(0.0, 1000.0)),
    # exponents ln s - A + ... down to about -700, where one double exponent costs hundreds of ulps
    "beta s": ("beta", (2.0, 3.0), None, _exp_uniform(-700.0, 0.0)),
    "gamma s": ("gamma", (1.5, 2.0), None, _exp_uniform(-40.0, 5.8)),
    "pareto s": ("pareto", (-1.5,), None, _exp_uniform(0.0, 700.0)),
    "loglog face s": ("pareto_loglog", (-1.0, -3.0), None, _exp_uniform(1.0, 700.0)),
    "loglog off s": ("pareto_loglog", (-2.0, -2.5), None, _exp_uniform(1.0, 700.0)),
}


def reference(name, eta, k, u) -> float:
    """The density at u (at s where k is None) to 50 digits, as the nearest double.

    ln|ds/du| cancels against terms of the log-density as large as itself, so
    the working precision holds 60 digits beyond its size."""
    if k is None:  # s is the double itself; its log-density's terms stay below 1e3
        with mp.workdps(80):
            value = mp.exp(_log_density_s(name, [mp.mpf(c) for c in eta], mp.mpf(u)))
            with mp.workdps(50):
                return float(+value)
    with mp.workdps(30):
        digits = 60 + int(mp.log10(1 + abs(_INVERSES[name, k](mp.mpf(u))[1])))
    if name == "beta":  # 1 - e^u loses digits near u = 0, and 1 - s where e^u is tiny
        digits += int(abs(math.log10(-u))) + int(-u / 2.3)
    with mp.workdps(digits):
        s, log_jac = _INVERSES[name, k](mp.mpf(u))
        value = mp.exp(_log_density_s(name, [mp.mpf(c) for c in eta], s) + log_jac)
        with mp.workdps(50):
            return float(+value)


def measure(case, points):
    name, eta, k, law = CASES[case]
    ctx = crmkit.LevyContext.build(
        crmkit.make_family(name),
        crmkit.ParameterPath.constant(list(eta)),
        crmkit.BaseMeasure.lebesgue(1.0),
        k=k or 1,
        require_conditions=False,
    )
    density = crmkit.levy_density_u if k else crmkit.levy_density_s
    us = law(np.random.default_rng([SEED, list(CASES).index(case)]), points)
    ulps, zeros, bad = [], 0, 0
    for u in us.tolist():
        want = reference(name, eta, k, u)
        if not want >= sys.float_info.min:
            continue
        got = density(ctx, 1.0, u)
        if not math.isfinite(got):
            bad += 1
            continue
        zeros += got == 0.0
        ulps.append(abs(got - want) / math.ulp(want))
    return len(ulps), statistics.median(ulps), max(ulps), zeros, bad


def main(argv: list[str]) -> int:
    points = int(argv[0]) if argv else 300
    print(f"{'case':<18} {'normal':>6} {'median ulp':>11} {'max ulp':>11} {'zeros':>6} {'nonfinite':>9}  (of {points} points)")
    for case in CASES:
        normal, median, worst, zeros, bad = measure(case, points)
        print(f"{case:<18} {normal:>6} {median:>11.3g} {worst:>11.3g} {zeros:>6} {bad:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
