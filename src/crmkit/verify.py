"""Numerical verification suites behind `crm verify`.

Five suites: ``moments`` (closed-form and Monte Carlo moment identities,
statistic moments of orders 1, 2, 4 and 6 against one oracle, the closed
form where the family has one and otherwise a quadrature over the
statistic's image of the pushforward density that the family's
``stat_terms`` declares, so every declared inverse is checked against the
engine's closed forms, every eta and order of one statistic one batch that
QUADPACK integrates in lockstep, while the engine answers the orders of one
(eta, k) together; and one goodness-of-fit check of each family's sampler
against its CDF),
``laplace`` (discretized-construction convergence to the Laplace exponent),
``conjugacy`` (update identities and grid-Bayes agreement), ``activity``
(classification trichotomy and exact base masses), and ``examples``
(reproduction of the beta and gamma decompositions, the Pareto series
composition, and the named update formulas).  Each check yields one row
(observed, expected, tolerance, passed); extra convergence tables are
emitted alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import conjugacy as conj
from . import construct, expfam, levy
from .errors import ConfigError, CrmError, _integer, _registered
from .expfam import ParameterPath, _special
from .levy import BaseMeasure, LevyContext
from .piecewise import Piece, PiecewiseFunction, checked_quad

__all__ = ["CheckRow", "SuiteResult", "run_suite", "suite_names", "report_csv"]

# No laplace row needs this seed to pass: each holds at every seed 0-19.
DEFAULT_LAPLACE_SEED = 8
DEFAULT_MOMENTS_SEED = 7023541


@dataclass(frozen=True)
class CheckRow:
    suite: str
    check: str
    observed: float
    expected: float
    tolerance: float
    passed: bool


@dataclass
class SuiteResult:
    name: str
    rows: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def add(self, check, observed, expected, tolerance, passed=None):
        # report_csv writes names unquoted, one row per line
        if "," in check or "\n" in check:
            raise CrmError(
                f"suite {self.name!r}: check name {check!r} holds a comma or newline"
            )
        if passed is None:
            passed = abs(observed - expected) <= tolerance
        self.rows.append(
            CheckRow(self.name, check, float(observed), float(expected), float(tolerance), bool(passed))
        )


def report_csv(*results: SuiteResult) -> str:
    """The rows of one or more suites as CSV text with a single header."""
    lines = ["suite,check,observed,expected,tolerance,passed"]
    for result in results:
        for r in result.rows:
            lines.append(
                f"{r.suite},{r.check},{r.observed!r},{r.expected!r},{r.tolerance!r},"
                f"{'true' if r.passed else 'false'}"
            )
    return "\n".join(lines) + "\n"


# family name -> one random natural parameter well inside its admissible set
_ADMISSIBLE = {
    "beta": lambda rng: rng.uniform(0.4, 6.0, size=2),
    "gamma": lambda rng: rng.uniform(0.4, 6.0, size=2),
    "pareto": lambda rng: np.array([-(1.0 + rng.uniform(1.2, 5.0))]),
    "pareto_loglog": lambda rng: np.array(
        [-(1.0 + rng.uniform(0.6, 3.0)), -(1.0 + rng.uniform(0.6, 3.0))]
    ),
    "lognormal": lambda rng: np.array([rng.uniform(0.4, 5.0)]),
    "poisson": lambda rng: np.array([rng.uniform(-1.0, 2.5)]),
    "bernoulli": lambda rng: np.array([rng.uniform(-3.0, 3.0)]),
}


def _admissible_grid(name: str, rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """``count`` random natural parameters well inside the family's admissible set."""
    return [_ADMISSIBLE[name](rng) for _ in range(count)]


def _stirling2(m: int, j: int) -> int:
    return sum((-1) ** i * math.comb(j, i) * (j - i) ** m for i in range(j + 1)) // math.factorial(j)


# (family, k) -> (spec, eta, m) -> E[T_k^m] in closed form
_CLOSED_MOMENTS = {
    # rising factorial shape^(m) / rate^m
    ("gamma", 2): lambda spec, eta, m: math.prod(eta[0] + i for i in range(m)) / eta[1] ** m,
    # Touchard polynomial of the rate
    ("poisson", 1): lambda spec, eta, m: sum(
        _stirling2(m, j) * math.exp(eta[0]) ** j for j in range(m + 1)
    ),
    # ln x = ln u_m + Exp(alpha)
    ("pareto", 1): lambda spec, eta, m: sum(
        math.comb(m, j) * math.log(spec.fixed["scale"]) ** (m - j) * math.factorial(j)
        / (-eta[0] - 1.0) ** j
        for j in range(m + 1)
    ),
    # T = Z^2 / (2 lambda), Z standard normal
    ("lognormal", 1): lambda spec, eta, m: math.prod(range(1, 2 * m, 2)) / (2.0 * eta[0]) ** m,
    ("bernoulli", 1): lambda spec, eta, m: float(_special().expit(eta[0])),
}


def _stat_expectation(spec, etas, k: int, fn, params) -> list[float]:
    """E[fn(T_k, p_i)] under eta_i for each row i of ``etas`` (one eta each) and
    ``params`` (one Python number each), by one quadrature over the
    statistic's image of the pushforward density at nodes u, whose terms are
    the family's ``stat_terms(k, u)``, its tilt added to eta: zero where the
    terms overflow, deep in a tail.  The rows are one batch of
    :func:`~crmkit.piecewise.checked_quad` whose points are the row indices,
    bound together by :func:`~crmkit.expfam._bind_many`; each node's density
    is :func:`~crmkit.expfam._exponent` at its own row's eta, so every row
    keeps the double it gives alone.

    For a log statistic this trades the (ln x)^m x^(a-1) endpoint
    singularity of the x-space integrand for a smooth one.  ``fn`` takes one
    Python float and one parameter at a time, so ``u**m`` and ``math.exp``
    keep their own doubles.
    """
    eta, log_partition = expfam._bind_many(spec, np.transpose(etas))
    params = np.asarray(params)

    def integrand(u, rows):
        u, row = (v.ravel() for v in np.broadcast_arrays(u, rows[:, None]))  # each node with its row
        with np.errstate(over="ignore"):
            carrier, values, tilt = spec.stat_terms(k, u)
            at = eta[:, row, None] if tilt is None else eta[:, row, None] + np.reshape(tilt, (-1, 1, 1))
            density = np.exp(expfam._exponent(spec, at, log_partition[row, None], None, (carrier, values)))
        weights = np.array([fn(v, p) for v, p in zip(u.tolist(), params[row].tolist())])
        return (weights * density[:, 0]).reshape(len(rows), -1)

    return checked_quad(integrand, *spec.stats[k - 1].image, np.arange(len(params))).tolist()


def _moment_oracle(spec, rows) -> list[tuple[float, float]]:
    """E[T_k^m] and its relative accuracy for each row (eta, k, m): closed form,
    else quadrature of the pushforward density that the family's
    ``stat_terms`` declares, the rows of one statistic one batch of
    :func:`_stat_expectation`.  Every discrete statistic and every statistic
    of a family that declares no ``stat_terms`` has a closed form.
    """
    out, batches = [None] * len(rows), {}  # k -> [(row, eta, m)] of each quadrature statistic
    for i, (eta, k, m) in enumerate(rows):
        closed = _CLOSED_MOMENTS.get((spec.name, k))
        if closed is not None:
            out[i] = (closed(spec, eta, m), 1e-10)
        else:
            batches.setdefault(k, []).append((i, eta, m))
    for k, batch in batches.items():
        index, etas, ms = zip(*batch)
        for i, value in zip(index, _stat_expectation(spec, etas, k, lambda u, m: u**m, ms)):
            out[i] = (value, 1e-6)
    return out


def _ks(bound, draws) -> tuple[float, float, float]:
    """Kolmogorov-Smirnov D of the draws against the family's CDF, its
    asymptotic p-value, and the D at p = 1e-3."""
    n = len(draws)
    cdf = bound.cdf(np.sort(draws))
    d = max(float(np.max(np.arange(1, n + 1) / n - cdf)), float(np.max(cdf - np.arange(n) / n)))
    root = math.sqrt(n)
    return d, float(_special().kolmogorov(root * d)), float(_special().kolmogi(1e-3)) / root


def _chi_square(bound, draws) -> tuple[float, float, float]:
    """Pearson chi-square of integer draws against the family's CDF, its
    p-value, and the statistic at p = 1e-3.

    Values are pooled from the left until each cell expects 5 draws; the
    last cell takes the upper tail.
    """
    top = int(draws.max())
    cum = bound.cdf(np.arange(top, dtype=float))
    expected = len(draws) * np.diff(np.concatenate([[0.0], cum, [1.0]]))
    counts = np.bincount(draws.astype(int), minlength=top + 1)
    cells, obs, exp = [], 0.0, 0.0
    for c, e in zip(counts, expected):
        obs, exp = obs + c, exp + e
        if exp >= 5.0:
            cells.append([obs, exp])
            obs, exp = 0.0, 0.0
    cells[-1][0] += obs
    cells[-1][1] += exp
    stat = sum((o - e) ** 2 / e for o, e in cells)
    df = len(cells) - 1
    return stat, float(_special().chdtrc(df, stat)), float(_special().chdtri(df, 1e-3))


def _suite_moments(seed, replicates) -> SuiteResult:
    res = SuiteResult("moments")
    seed = DEFAULT_MOMENTS_SEED if seed is None else seed
    replicates = 100_000 if replicates is None else replicates
    beta = expfam.make_family("beta")

    for a, b in ((2.0, 3.0), (0.5, 0.5), (5.0, 1.0)):
        for m in (1, 2, 3):
            engine = expfam.raw_moment(beta, [a, b], k=1, m=m)
            closed = expfam.raw_moment_beta(a, b, m)
            rel = abs(engine - closed) / abs(closed)
            res.add(f"beta-raw-moment a={a:g} b={b:g} m={m}", engine, closed, 1e-8 * abs(closed), rel < 1e-8)

    rng = np.random.default_rng(seed)
    draws = beta.at([2.0, 3.0]).sample(rng, replicates)
    se = draws.std(ddof=1) / math.sqrt(replicates)
    res.add("beta-mean-monte-carlo a=2 b=3", float(draws.mean()), 0.4, 3.0 * se)

    gof_etas = {}
    for name in expfam.family_names():
        spec = expfam.make_family(name)
        grid = _admissible_grid(name, rng, 3)
        gof_etas[name] = grid[0]
        # (pt, eta, k, orders) in row order; the engine takes the orders of one
        # (eta, k) together, the oracle every row of the family at once
        cases = [
            (i, eta, k, (1, 2, 4, 6) if i == 0 else (1, 2))
            for i, eta in enumerate(grid)
            for k in range(1, spec.dimension + 1)
        ]
        rows = [(i, eta, k, m) for i, eta, k, ms in cases for m in ms]
        engine = [got for _, eta, k, ms in cases for got in expfam._stat_moments(spec, eta, k, ms)]
        oracle = _moment_oracle(spec, [(eta, k, m) for _, eta, k, m in rows])
        for (i, _, k, m), got, (want, rel) in zip(rows, engine, oracle):
            tol = 1e-4 * max(abs(want), 1e-9) if m <= 2 else rel * abs(want)
            res.add(f"{name}-stat-moment pt={i} k={k} m={m}", got, want, tol)

    # one sampler check per family, at its first point; pareto_loglog off its
    # face with eta_2 > 0, where it draws by inversion
    gof_etas["pareto_loglog"] = np.array([-2.0, 0.7])
    gof_rng = np.random.default_rng([seed, 1])
    for name, eta in gof_etas.items():
        bound = expfam.make_family(name).at(eta)
        draws = bound.sample(gof_rng, 2000)
        test = _chi_square if bound.spec.support.discrete else _ks
        stat, p_value, critical = test(bound, draws)
        label = " ".join(f"{v:g}" for v in eta)
        res.add(f"{name}-sampler-gof eta=[{label}]", stat, 0.0, critical, p_value > 1e-3)
    return res


def default_laplace_context() -> LevyContext:
    gamma = expfam.make_family("gamma")
    return LevyContext.build(
        gamma, ParameterPath.constant([2.0, 3.0]), BaseMeasure.lebesgue(1.0), k=2
    )


def _suite_laplace(seed, replicates) -> SuiteResult:
    """The discretized construction's Laplace transform at n = 8, 32, 128 and
    512 cells, and the closed-form tilt against quadrature.

    ``laplace-gap-monotone`` orders the exact gaps |discrete_laplace(n) -
    exp(-psi)|, which are deterministic (8.0e-3 down to 1.2e-4): the Monte
    Carlo gaps beyond n = 8 sit below the standard error (about 0.0033 at
    10^4 replicates), so ordering them would order noise.  Each estimate is
    held within 4 standard errors of ``discrete_laplace(n)``, the exact
    transform of the draw it averages, and the last one within 0.02 of
    exp(-psi).
    """
    res = SuiteResult("laplace")
    seed = DEFAULT_LAPLACE_SEED if seed is None else seed
    replicates = 10_000 if replicates is None else replicates
    ctx = default_laplace_context()
    t, theta = 1.0, 1.0
    oracle = math.exp(-levy.laplace_exponent(ctx, t, theta))

    table = []
    exact_gaps = []
    for n in (8, 32, 128, 512):
        plan = construct.DiscretizationPlan.build(ctx, t, n)
        rng = np.random.default_rng([seed, n])
        est = construct.empirical_laplace(ctx, plan, t, theta, replicates, rng)
        exact = construct.discrete_laplace(ctx, plan, t, theta)
        exact_gaps.append(abs(exact - oracle))
        gap = abs(est.mean - oracle)
        table.append((n, est.mean, est.se, oracle, gap))
        res.add(f"laplace-estimate n={n}", est.mean, oracle, math.inf, True)
        res.add(f"laplace-mc-vs-discrete n={n}", est.mean, exact, 4.0 * est.se)
    res.add(
        "laplace-gap-monotone",
        float(all(g2 < g1 for g1, g2 in zip(exact_gaps, exact_gaps[1:]))),
        1.0,
        0.0,
    )
    res.add("laplace-final-gap", gap, 0.0, 0.02)

    # the closed-form tilt against the quadrature oracle at gamma (2, 3), k=2
    gamma = expfam.make_family("gamma")
    tilt = levy.stat_laplace(gamma, [2.0, 3.0], 2, theta)
    (quad,) = _stat_expectation(gamma, [[2.0, 3.0]], 2, lambda u, th: math.exp(-th * u), [theta])
    res.add("laplace-tilt-vs-quad", tilt, quad, 1e-8)
    res.tables["laplace_convergence.csv"] = (
        ("n", "estimate", "se", "oracle", "gap"),
        table,
    )
    return res


_PAIR_FIXTURES = {
    "beta-bernoulli": ([2.0, 3.0], [1.0, 0.0, 1.0], [0.0, 1.0]),
    "gamma-poisson": ([2.0, 3.0], [2.0, 0.0, 5.0], [1.0]),
    "gamma-lognormal": ([2.0, 3.0], [0.5, 2.0], [1.5, 0.3]),
    "gamma-pareto": ([2.0, 1.0], [math.e, math.e**2], [3.0]),
}


def _suite_conjugacy(seed, replicates) -> SuiteResult:
    res = SuiteResult("conjugacy")
    for name in conj.pair_names():
        pair = conj.make_pair(name)
        eta, y1, y2 = _PAIR_FIXTURES[name]
        eta = np.asarray(eta)
        res.add(
            f"{name}-identity",
            float(np.max(np.abs(pair.tau(eta, []) - eta))),
            0.0,
            0.0,
        )
        seq = pair.tau(pair.tau(eta, y1), y2) - pair.tau(eta, list(y1) + list(y2))
        res.add(f"{name}-sequential", float(np.max(np.abs(seq))), 0.0, 0.0)
        res.add(f"{name}-grid-bayes-tv", conj.finite_dim_tv(pair, eta, y1), 0.0, 1e-3)
    return res


def gamma_decomposition_context(k: int, h: int, c_const: float | None = None) -> LevyContext:
    """Component with density Gamma(h, c(z)/(k+1)) and base 1/((k+1)^h h).

    ``c_const`` fixes c(z) to a constant; the default is c(z) = 1 + z.
    """
    gamma = expfam.make_family("gamma")
    scale = 1.0 / (k + 1.0)
    if c_const is None:
        rate = PiecewiseFunction([Piece(0.0, math.inf, "affine", c0=scale, c1=scale)])
    else:
        rate = PiecewiseFunction.constant(c_const * scale)
    path = ParameterPath([PiecewiseFunction.constant(float(h)), rate])
    base = BaseMeasure.lebesgue(1.0 / ((k + 1.0) ** h * h))
    return LevyContext.build(gamma, path, base, k=2)


def beta_decomposition_context(n: int) -> LevyContext:
    """Component with density Beta(1, c(z)+n) and base c(z)/(c(z)+n), c(z)=1+z."""
    beta = expfam.make_family("beta")
    path = ParameterPath(
        [
            PiecewiseFunction.constant(1.0),
            PiecewiseFunction([Piece(0.0, math.inf, "affine", c0=1.0 + n, c1=1.0)]),
        ]
    )
    base = BaseMeasure(
        PiecewiseFunction([Piece(0.0, math.inf, "ratio", c0=1.0, c1=1.0, d0=1.0 + n, d1=1.0)])
    )
    return LevyContext.build(beta, path, base, k=1)


def nonhomogeneous_pareto_context() -> LevyContext:
    """alpha(z) = z with Lebesgue base: finite mass but not proportional to t."""
    pareto = expfam.make_family("pareto", scale=1.0)
    path = ParameterPath(
        [PiecewiseFunction([Piece(0.0, math.inf, "affine", c0=-1.0, c1=-1.0)])]
    )
    return LevyContext.build(
        pareto, path, BaseMeasure.lebesgue(1.0), k=1, require_conditions=False
    )


def _suite_activity(seed, replicates) -> SuiteResult:
    res = SuiteResult("activity")
    ctx = gamma_decomposition_context(0, 1, c_const=2.0)
    act = levy.classify_activity(ctx, 1.0)
    res.add(
        "gamma-component-finite",
        float(isinstance(act, levy.FiniteActivity)),
        1.0,
        0.0,
    )
    if isinstance(act, levy.FiniteActivity):
        res.add("gamma-component-mass", act.total_mass, 1.0, 1e-6)
        res.add("gamma-component-rate", act.rate, 1.0, 1e-6)

    # the log statistic's image (-inf, inf) has an infinite lower end
    lctx = LevyContext.build(
        expfam.make_family("gamma"),
        ParameterPath.constant([2.0, 3.0]),
        BaseMeasure.lebesgue(1.5),
        k=1,
    )
    lact = levy.classify_activity(lctx, 1.0)
    res.add("gamma-log-statistic-mass", getattr(lact, "total_mass", math.nan), 1.5, 1e-9)

    # c(z) = 1 + z: A_0((0, 1]) = int_0^1 (1 + z)/(3 + z) dz
    bact = levy.classify_activity(beta_decomposition_context(2), 1.0)
    res.add(
        "beta-component-mass",
        getattr(bact, "total_mass", math.nan),
        1.0 - 2.0 * math.log(4.0 / 3.0),
        1e-9,
    )

    pctx = nonhomogeneous_pareto_context()
    pact = levy.classify_activity(pctx, 1.0)
    res.add(
        "pareto-not-homogeneous",
        float(isinstance(pact, levy.NotTimeHomogeneous)),
        1.0,
        0.0,
    )

    null_ctx = LevyContext.build(
        expfam.make_family("gamma"),
        ParameterPath.constant([2.0, 3.0]),
        BaseMeasure.null(),
        k=2,
    )
    nact = levy.classify_activity(null_ctx, 1.0)
    res.add(
        "null-base-finite-zero",
        float(isinstance(nact, levy.FiniteActivity) and nact.total_mass == 0.0),
        1.0,
        0.0,
    )
    return res


def _suite_examples(seed, replicates) -> SuiteResult:
    res = SuiteResult("examples")

    # beta decomposition: integrand equals c(z) (1-s)^{c(z)+n-1}
    zs = (0.25, 0.75, 1.5, 3.0)
    ss = (0.05, 0.2, 0.5, 0.8, 0.95)
    for n in (1, 2, 5):
        ctx = beta_decomposition_context(n)
        worst = 0.0
        for z in zs:
            c = 1.0 + z
            for s, got in zip(ss, levy.levy_integrand(ctx, z, np.array(ss)).tolist()):
                want = c * (1.0 - s) ** (c + n - 1.0)
                worst = max(worst, abs(got - want))
        res.add(f"beta-decomposition n={n}", worst, 0.0, 1e-8)

    # gamma decomposition: integrand equals Gamma(h, c(z)/(k+1)) / ((k+1)^h h)
    ss = (0.1, 0.5, 1.0, 2.0, 5.0)
    for k, h in ((0, 1), (1, 2)):
        ctx = gamma_decomposition_context(k, h)
        worst = 0.0
        for z in zs:
            rate = (1.0 + z) / (k + 1.0)
            for s, got in zip(ss, levy.levy_integrand(ctx, z, np.array(ss)).tolist()):
                want = (
                    rate**h * s ** (h - 1.0) * math.exp(-rate * s) / math.gamma(h)
                ) / ((k + 1.0) ** h * h)
                worst = max(worst, abs(got - want))
        res.add(f"gamma-decomposition k={k} h={h}", worst, 0.0, 1e-8)

    # pareto series: partial sums of u_m^{n a} u^{-(n a + 1)} reach the
    # geometric limit; the printed variant form does not match it
    u, alpha, u_m = 2.0, 1.0, 1.0
    r = (u_m / u) ** alpha
    partial = 0.0
    table = []
    limit = u_m**alpha / (u * (u**alpha - u_m**alpha))
    for n in range(1, 51):
        partial += u_m ** (n * alpha) * u ** (-(n * alpha + 1.0))
        table.append((n, partial, limit))
    res.add("pareto-series-limit", partial, limit, 1e-9)
    variant = 1.0 + u_m**alpha / (u ** (-(alpha + 1.0)) - u_m**alpha)
    res.add("pareto-series-printed-variant-informational", variant, limit, math.inf, True)
    res.tables["series_partial_sums.csv"] = (("n", "partial_sum", "limit"), table)

    # named update formulas on integer-friendly inputs
    gl = conj.make_pair("gamma-lognormal")
    out = gl.tau([2.0, 3.0], [1.0, 1.0, 1.0, 1.0])
    res.add("lognormal-update-shape", out[0], 4.0, 0.0)
    res.add("lognormal-update-rate", out[1], 3.0, 0.0)

    gp = conj.make_pair("gamma-pareto")
    out = gp.tau([2.0, 1.0], [math.e, math.e**2])
    res.add("pareto-update-shape", out[0], 4.0, 0.0)
    res.add("pareto-update-rate", out[1], 4.0, 0.0)

    bb = conj.make_pair("beta-bernoulli")
    out = bb.tau([2.0 * 0.3, 2.0 * 0.7], [1.0, 1.0, 0.0])
    res.add("beta-bernoulli-update-alpha", out[0], 2.6, 0.0)
    res.add("beta-bernoulli-update-beta", out[1], 2.4, 0.0)
    c_post, b_post = conj.posterior_process_params(bb, 2.0, 0.3, [1.0, 1.0, 0.0])
    res.add("beta-bernoulli-concentration", c_post, 5.0, 0.0)
    res.add("beta-bernoulli-weighted-base", b_post, 0.52, 0.0)
    return res


# name -> suite (seed, replicates) -> SuiteResult, in `crm verify --suite all` order
_SUITES = {
    "moments": _suite_moments,
    "laplace": _suite_laplace,
    "conjugacy": _suite_conjugacy,
    "activity": _suite_activity,
    "examples": _suite_examples,
}


def suite_names() -> tuple[str, ...]:
    return tuple(_SUITES)


def run_suite(name: str, seed=None, replicates=None) -> SuiteResult:
    """Run one suite; ``seed`` (an integer >= 0) and ``replicates`` (an integer
    >= 2) replace the suite's pinned values where they are not None.  Any
    other value is refused with a :class:`ConfigError`, which ``crm verify``
    reports as a config error."""
    suite = _registered(_SUITES, name, "suite", tuple)
    for what, value, least in (("seed", seed, 0), ("replicates", replicates, 2)):
        if not (value is None or (_integer(value) and value >= least)):
            raise ConfigError(f"{what} must be an integer >= {least}, got {value}")
    return suite(seed, replicates)
