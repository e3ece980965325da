"""Independent oracles for the benchmark's correctness checks.

Nothing here calls crmkit.  Component objects are read from the same JSON the
benchmark hands to crmkit; per-location quantities come from closed forms in
``scipy.special`` (gamma, beta, Poisson and Pareto tilts), and location
integrals use this module's own adaptive quadrature split at breakpoints.
Windows are (lo, hi], matching the config schema.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import integrate, special

INF = math.inf
_QUAD = dict(epsabs=1e-13, epsrel=1e-11, limit=400)


def _quad(f, a, b) -> float:
    val, _ = integrate.quad(f, a, b, **_QUAD)
    return float(val)


# --- piecewise JSON ---------------------------------------------------------


def _hi(piece) -> float:
    hi = piece.get("to", INF)
    return INF if hi is None else float(hi)


def piece_value(piece, z: float) -> float:
    if "const" in piece:
        return float(piece["const"])
    if "affine" in piece:
        c0, c1 = piece["affine"]
        return c0 + c1 * z
    p0, p1, q0, q1 = piece["ratio"]
    return (p0 + p1 * z) / (q0 + q1 * z)


def piecewise_at(pieces, z: float) -> float:
    for p in pieces:
        if float(p["from"]) < z <= _hi(p):
            return piece_value(p, z)
    raise ValueError(f"z={z} outside the pieces")


def breakpoints(pieces) -> set:
    pts = {float(p["from"]) for p in pieces} | {_hi(p) for p in pieces}
    return {x for x in pts if math.isfinite(x)}


def base_integral(comp, g, a: float, b: float) -> float:
    """int_(a,b] g(z) dA_0(z): density pieces by quadrature, point masses exactly."""
    cuts = {a, b}
    for coord in comp["path"]:
        cuts |= breakpoints(coord)
    pieces = comp["base"].get("pieces", [])
    cuts |= breakpoints(pieces)
    cuts = sorted(x for x in cuts if a <= x <= b)
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        for p in pieces:
            plo, phi = max(lo, float(p["from"])), min(hi, _hi(p))
            if plo < phi:
                total += _quad(lambda z, p=p: g(z) * piece_value(p, z), plo, phi)
    for loc, mass in comp["base"].get("jumps", []):
        if a < loc <= b:
            total += mass * g(loc)
    return total


def base_mass(comp, a: float, b: float) -> float:
    return base_integral(comp, lambda z: 1.0, a, b)


def path_at(comp, z: float) -> np.ndarray:
    return np.array([piecewise_at(coord, z) for coord in comp["path"]])


def expand_series(block) -> list[dict]:
    """Components of a pareto_series block: shape n*alpha(z), base dz/(n*alpha(z))."""
    lo, hi = block["support"]
    alpha = block["alpha"]
    c0, c1 = (float(alpha["const"]), 0.0) if "const" in alpha else alpha["affine"]
    out = []
    for n in range(1, block["components"] + 1):
        base = (
            {"from": lo, "to": hi, "const": 1.0 / (n * c0)}
            if c1 == 0.0
            else {"from": lo, "to": hi, "ratio": [1.0, 0.0, n * c0, n * c1]}
        )
        out.append(
            {
                "family": {"name": "pareto", "params": {"scale": block.get("scale", 1.0)}},
                "k": 1,
                "path": [[{"from": lo, "to": hi, "affine": [-(n * c0 + 1.0), -(n * c1)]}]],
                "base": {"pieces": [base]},
            }
        )
    return out


def sample_components(config) -> list[dict]:
    comps = list(config.get("components", []))
    if "pareto_series" in config:
        comps += expand_series(config["pareto_series"])
    return comps


# --- per-location closed forms ----------------------------------------------


def _family(comp):
    fam = comp["family"]
    return fam["name"], fam.get("params", {})


@functools.lru_cache(maxsize=None)
def _loglog_z(e1: float, e2: float, u_m: float, theta: float = 0.0) -> float:
    """int_{u_m}^inf w^{e2} exp((e1 + 1 - theta) w) dw."""
    s = -(e1 + 1.0) + theta
    if s == 0.0:
        return u_m ** (e2 + 1.0) / -(e2 + 1.0)
    return _quad(lambda w: w**e2 * math.exp(-s * (w - u_m)), u_m, INF) * math.exp(-s * u_m)


def stat_laplace(comp, eta, theta: float) -> float:
    """E[exp(-theta T_k)] at eta; inf where the transform diverges."""
    name, params = _family(comp)
    k = comp["k"]
    if name == "gamma":
        a, b = eta
        if k == 2:
            return (b / (b + theta)) ** a
        if theta >= a:
            return INF
        return math.exp(special.gammaln(a - theta) - special.gammaln(a) + theta * math.log(b))
    if name == "beta":
        a, b = (eta[0], eta[1]) if k == 1 else (eta[1], eta[0])
        if theta >= a:
            return INF
        return math.exp(
            special.gammaln(a - theta) + special.gammaln(a + b)
            - special.gammaln(a) - special.gammaln(a + b - theta)
        )
    if name == "pareto":
        u_m = params.get("scale", 1.0)
        alpha = -eta[0] - 1.0
        return alpha * u_m ** (-theta) / (alpha + theta)
    if name == "poisson":
        return math.exp(math.exp(eta[0]) * math.expm1(-theta))
    if name == "pareto_loglog" and k == 1:
        u_m = params.get("scale", 1.0)
        return _loglog_z(eta[0], eta[1], u_m, theta) / _loglog_z(eta[0], eta[1], u_m)
    raise ValueError(f"no closed-form transform for {name} k={k}")


def pdf_u(comp, eta, u: float) -> float:
    """Density of the weight u = T_k(S) at eta."""
    name, params = _family(comp)
    k = comp["k"]
    if name == "gamma":
        a, b = eta
        x = u if k == 2 else math.exp(u)
        jac = 1.0 if k == 2 else x
        return math.exp(a * math.log(b) + (a - 1.0) * math.log(x) - b * x - special.gammaln(a)) * jac
    if name == "beta" and k == 1:
        a, b = eta
        x = math.exp(u)
        return math.exp((a - 1.0) * u + (b - 1.0) * math.log1p(-x) - special.betaln(a, b)) * x
    if name == "pareto":
        u_m = params.get("scale", 1.0)
        alpha = -eta[0] - 1.0
        return alpha * u_m**alpha * math.exp(-alpha * u) if u > math.log(u_m) else 0.0
    if name == "pareto_loglog" and k == 1:
        u_m = params.get("scale", 1.0)
        if u <= u_m:
            return 0.0
        return u ** eta[1] * math.exp((eta[0] + 1.0) * u) / _loglog_z(eta[0], eta[1], u_m)
    raise ValueError(f"no closed-form weight density for {name} k={k}")


def stat_moments(comp, eta) -> tuple[float, float]:
    """(E[T_k], E[T_k^2]) at eta, for the families the sampler draws here."""
    name, _ = _family(comp)
    if name == "gamma" and comp["k"] == 2:
        a, b = eta
        return a / b, a * (a + 1.0) / (b * b)
    if name == "pareto" and comp["k"] == 1 and comp["family"].get("params", {}).get("scale", 1.0) == 1.0:
        alpha = -eta[0] - 1.0  # ln X ~ Exp(alpha) for scale 1
        return 1.0 / alpha, 2.0 / (alpha * alpha)
    raise ValueError(f"no weight moments for {name} k={comp['k']}")


# --- functionals ---------------------------------------------------------------


def laplace_exponent(comp, t: float, theta: float) -> float:
    """psi(t, theta) = int_(0,t] (1 - E[e^{-theta T_k}]) dA_0(z); inf if divergent."""
    if theta == 0.0 or t == 0.0:
        return 0.0
    if _diverges(comp, t, theta):
        return INF
    return base_integral(comp, lambda z: 1.0 - stat_laplace(comp, path_at(comp, z), theta), 0.0, t)


def _diverges(comp, t, theta) -> bool:
    """True when the transform is infinite at some location in (0, t].

    Only the gamma and beta log-statistics have a finite abscissa here.
    """
    if _family(comp)[0] not in ("gamma", "beta"):
        return False
    zs = np.linspace(t / 64.0, t, 64)
    return any(not math.isfinite(stat_laplace(comp, path_at(comp, float(z)), theta)) for z in zs)


def levy_density_u(comp, t: float, u: float) -> float:
    return base_integral(comp, lambda z: pdf_u(comp, path_at(comp, z), u), 0.0, t)


def total_mass(comp, t: float) -> float:
    """Levy mass over (0, t]: every jump density here is proper, so it is A_0(0, t]."""
    return base_mass(comp, 0.0, t)


def time_homogeneous(comp) -> bool:
    """Constant path over a constant base piece from 0 and no point masses."""
    pieces = comp["base"].get("pieces", [])
    return (
        all(len(c) == 1 and "const" in c[0] for c in comp["path"])
        and len(pieces) == 1
        and "const" in pieces[0]
        and not comp["base"].get("jumps")
    )


def discrete_laplace(comp, t: float, n: int, theta: float) -> float:
    """Exact transform of the discretized draw: cells ((i-1)/n, i/n], midpoint parameters."""
    log_total = 0.0
    for i in range(1, int(math.floor(t * n + 1e-9)) + 1):
        mass = base_mass(comp, (i - 1.0) / n, i / n)
        if mass == 0.0:
            continue
        inner = stat_laplace(comp, path_at(comp, (i - 0.5) / n), theta)
        if mass <= 1.0:
            log_total += math.log(1.0 - mass * (1.0 - inner))
        else:
            log_total -= mass * (1.0 - inner)
    return math.exp(log_total)


def weight_moments(config) -> tuple[float, float, float]:
    """(expected atoms, mean, sd) of one draw's total weight over (0, z_max].

    The total is compound Poisson: mean int E[T] dA_0 and variance
    int E[T^2] dA_0, summed over independent components.
    """
    z_max = config["z_max"]
    count = mean = var = 0.0
    for comp in sample_components(config):
        count += base_mass(comp, 0.0, z_max)
        mean += base_integral(comp, lambda z, c=comp: stat_moments(c, path_at(c, z))[0], 0.0, z_max)
        var += base_integral(comp, lambda z, c=comp: stat_moments(c, path_at(c, z))[1], 0.0, z_max)
    return count, mean, math.sqrt(var)


def ratio_windows(config) -> list[tuple[int, float, float]]:
    """(component index, lo, hi) of every ratio base piece, clipped to z_max."""
    out = []
    for idx, comp in enumerate(sample_components(config), start=1):
        for p in comp["base"].get("pieces", []):
            if "ratio" in p:
                out.append((idx, float(p["from"]), min(_hi(p), config["z_max"])))
    return out
