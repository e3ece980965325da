import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, special

from crmkit import expfam, levy
from crmkit.errors import CrmError, DerivativeDomainError, DivergenceError, NaturalSpaceError, SupportError
from crmkit.piecewise import Piece, PiecewiseFunction


def test_registry_contents():
    assert expfam.family_names() == (
        "bernoulli",
        "beta",
        "gamma",
        "lognormal",
        "pareto",
        "pareto_loglog",
        "poisson",
    )
    with pytest.raises(CrmError) as exc:
        expfam.make_family("weibull")
    assert str(exc.value) == (
        "unknown family 'weibull'; registered: "
        "bernoulli, beta, gamma, lognormal, pareto, pareto_loglog, poisson"
    )
    with pytest.raises(CrmError, match=r"pareto does not accept parameter\(s\) \['form'\]"):
        expfam.make_family("pareto", form="loglog")


@pytest.mark.parametrize(
    "name, params, message",
    [
        ("pareto", {"scale": True}, "pareto: parameter scale must be a number, got True"),
        ("lognormal", {"mu": "2"}, "lognormal: parameter mu must be a number, got '2'"),
        ("pareto_loglog", {"scale": None}, "pareto_loglog: parameter scale must be a number, got None"),
    ],
)
def test_a_family_parameter_that_is_not_a_number_is_refused(name, params, message):
    with pytest.raises(CrmError) as exc:
        expfam.make_family(name, **params)
    assert str(exc.value) == message


@pytest.mark.parametrize("value", [2, np.int64(2), np.float64(2.0)])
def test_integer_and_numpy_family_parameters_build_as_floats(value):
    for name, key in (("pareto", "scale"), ("pareto_loglog", "scale"), ("lognormal", "mu")):
        fixed = expfam.make_family(name, **{key: value}).fixed[key]
        assert (type(fixed), fixed) == (float, 2.0)


@pytest.mark.parametrize(
    "name, params, message",
    [
        ("pareto", {"scale": math.nan}, "pareto: parameter scale must be a number, got nan"),
        ("pareto", {"scale": math.inf}, "pareto: parameter scale must be a number, got inf"),
        ("pareto_loglog", {"scale": math.nan}, "pareto_loglog: parameter scale must be a number, got nan"),
        ("pareto_loglog", {"scale": -1.0}, "pareto(log-log): scale must be positive and finite, got -1.0"),
        (
            "pareto_loglog",
            {"scale": 710.0},
            "pareto(log-log): scale must be below ln(max double) = 709.782712893384, got 710.0",
        ),
        (
            "pareto_loglog",
            {"scale": 709.782712893384},
            "pareto(log-log): scale must be below ln(max double) = 709.782712893384, got 709.782712893384",
        ),
        ("lognormal", {"mu": math.nan}, "lognormal: parameter mu must be a number, got nan"),
        ("lognormal", {"mu": -math.inf}, "lognormal: parameter mu must be a number, got -inf"),
        # an integer beyond the double range used to raise OverflowError
        ("pareto", {"scale": 10**400}, f"pareto: parameter scale must be a number, got {10**400}"),
        ("pareto_loglog", {"scale": 10**400}, f"pareto_loglog: parameter scale must be a number, got {10**400}"),
        ("lognormal", {"mu": -(10**400)}, f"lognormal: parameter mu must be a number, got {-(10**400)}"),
    ],
    ids=[
        "pareto-nan", "pareto-inf", "loglog-nan", "loglog-negative", "loglog-overflow",
        "loglog-ln-max", "lognormal-nan", "lognormal-inf", "pareto-huge-int", "loglog-huge-int",
        "lognormal-huge-int",
    ],
)
def test_make_family_refuses_a_non_finite_parameter(name, params, message):
    with pytest.raises(CrmError) as exc:
        expfam.make_family(name, **params)
    assert str(exc.value) == message


def test_natural_space_checks():
    beta = expfam.make_family("beta")
    with pytest.raises(NaturalSpaceError) as exc:
        beta.check_natural(np.array([0.0, 1.0]))
    assert exc.value.coord == 1

    gamma = expfam.make_family("gamma")
    gamma.check_natural([2.0, 1.0])
    for eta in ([0.0, 1.0], (2.0, -1.0)):
        with pytest.raises(NaturalSpaceError):
            gamma.check_natural(eta)

    pareto = expfam.make_family("pareto")
    with pytest.raises(NaturalSpaceError):
        pareto.check_natural(np.array([-1.0]))

    loglog = expfam.make_family("pareto_loglog")
    loglog.check_natural(np.array([-1.0, -2.0]))  # on the face
    with pytest.raises(NaturalSpaceError):
        loglog.check_natural(np.array([-1.0, -0.5]))
    with pytest.raises(NaturalSpaceError):
        loglog.check_natural(np.array([-0.5, -2.0]))


def test_log_partition_closed_forms():
    beta = expfam.make_family("beta")
    a, b = 2.0, 3.0
    want = special.betaln(a, b)
    assert beta.at([a, b]).log_partition == pytest.approx(want, rel=1e-12)

    gamma = expfam.make_family("gamma")
    assert gamma.at([a, b]).log_partition == pytest.approx(
        special.gammaln(a) - a * math.log(b), rel=1e-12
    )


@pytest.mark.parametrize(
    "name,eta",
    [
        ("beta", [2.0, 3.0]),
        ("gamma", [2.5, 1.5]),
        ("pareto", [-3.0]),
        ("pareto_loglog", [-2.0, -2.5]),
        ("lognormal", [2.0]),
    ],
)
def test_density_normalizes(name, eta):
    spec = expfam.make_family(name)
    total, _ = integrate.quad(
        lambda x: expfam.density(spec, eta, x), spec.support.lo, spec.support.hi
    )
    assert total == pytest.approx(1.0, rel=1e-8)


def test_density_normalizes_discrete():
    poisson = expfam.make_family("poisson")
    xs = np.arange(0, 200)
    total = sum(expfam.density(poisson, [1.2], float(x)) for x in xs)
    assert total == pytest.approx(1.0, rel=1e-12)

    bern = expfam.make_family("bernoulli")
    assert expfam.density(bern, [0.4], 0.0) + expfam.density(bern, [0.4], 1.0) == pytest.approx(1.0)


def test_moment_suff_stat_closed_forms():
    beta = expfam.make_family("beta")
    a, b = 2.0, 3.0
    assert expfam.moment_suff_stat(beta, [a, b], 1, 1) == pytest.approx(
        special.digamma(a) - special.digamma(a + b), rel=1e-9
    )

    gamma = expfam.make_family("gamma")
    assert expfam.moment_suff_stat(gamma, [a, b], 2, 1) == pytest.approx(a / b, rel=1e-12)
    assert expfam.moment_suff_stat(gamma, [a, b], 2, 2) == pytest.approx(
        a * (a + 1) / b**2, rel=1e-9
    )

    pareto = expfam.make_family("pareto", scale=2.0)
    alpha = 3.0
    assert expfam.moment_suff_stat(pareto, [-(alpha + 1)], 1, 1) == pytest.approx(
        math.log(2.0) + 1.0 / alpha, rel=1e-12
    )


def test_loglog_interior_moments_match_quadrature():
    """E[(ln ln x)^m] off the face, where only the mp-derivative route exists."""
    spec = expfam.make_family("pareto_loglog")
    eta = np.array([-2.0, -2.5])
    bound = spec.at(eta)
    for m in (1, 2, 3):
        want, _ = integrate.quad(
            lambda x: math.log(math.log(x)) ** m * bound.density(x),
            spec.support.lo,
            spec.support.hi,
            limit=400,
        )
        got = expfam.moment_suff_stat(spec, eta, 2, m)
        assert got == pytest.approx(want, rel=1e-6)


# a in (-4, 4) with every integer a <= 0 and points 1e-6 either side of it,
# where the hypergeometric U(1 - a, 1 - a, x) of DLMF 8.5.3 loses digits
_LOG_UPPER_GAMMA_A = sorted(
    {
        *np.round(np.linspace(-3.9, 3.9, 40), 6),
        *(k + d for k in (-3.0, -2.0, -1.0, 0.0) for d in (-1e-6, 0.0, 1e-6)),
    }
)
# both sides of the series/continued-fraction split at x = 2
_LOG_UPPER_GAMMA_X = [*np.geomspace(1e-3, 100.0, 26), 1.999, 2.0, 2.001]


@pytest.mark.parametrize("a", _LOG_UPPER_GAMMA_A)
def test_log_upper_gamma_matches_40_digit_mpmath(a):
    # for a > 0 also where gammaincc underflows (x above about 700)
    xs = _LOG_UPPER_GAMMA_X + ([300.0, 700.0, 750.0, 1000.0] if a > 0 else [])
    got = expfam._log_upper_gamma(a, np.array(xs))
    with mp.workdps(40):
        want = np.array([float(mp.log(mp.gammainc(a, x, mp.inf))) for x in xs])
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
    assert got[3] == expfam._log_upper_gamma(a, xs[3])  # one value, the same bits


def test_a_mixed_loglog_batch_of_a_keeps_the_scalar_bits():
    spec = expfam.make_family("pareto_loglog")
    # the face, then off it: the series, the continued fraction at x >= 2 and
    # at a <= -20, gammaincc, and gammaincc underflowing
    etas = np.array(
        [[-1.0, -2.5], [-2.0, -2.5], [-1.5, -1.0], [-4.0, -2.5], [-1.5, -30.0],
         [-1.0, -5.0], [-2.0, 0.7], [-800.0, 0.7]]
    ).T
    _, batch = expfam._bind_many(spec, etas)
    scalar = np.array([spec.at(col).log_partition for col in etas.T])
    assert batch.tobytes() == scalar.tobytes()
    assert spec.at([-1.0, -2.5]).log_partition == -math.log(1.5)


def test_loglog_face_moments():
    spec = expfam.make_family("pareto_loglog")
    eta = np.array([-1.0, -3.0])  # Pareto(1, 2) in w = ln x
    assert expfam.moment_suff_stat(spec, eta, 1, 1) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(DerivativeDomainError):
        expfam.moment_suff_stat(spec, eta, 1, 2)  # E[w^2] needs alpha > 2


def test_loglog_face_moments_of_the_log_log_statistic_come_from_its_cumulants():
    # on the face ln w = ln u_m + Exp(alpha), so E[(ln w)^m] is a binomial sum
    # over the Exp moments j! / alpha^j; stat_moment reads it from the cumulants
    # of the pareto family at scale u_m, the law of w
    spec = expfam.make_family("pareto_loglog", scale=2.0)
    alpha, shift = 3.5, math.log(2.0)
    for m in range(1, 5):
        want = sum(math.comb(m, j) * shift ** (m - j) * math.factorial(j) / alpha**j for j in range(m + 1))
        got = expfam.moment_suff_stat(spec, [-1.0, -(alpha + 1.0)], k=2, m=m)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0), m


def test_raw_moment_matches_beta_closed_form():
    beta = expfam.make_family("beta")
    for a, b in ((2.0, 3.0), (0.5, 0.5)):
        for m in (1, 2, 3):
            assert expfam.raw_moment(beta, [a, b], 1, m) == pytest.approx(
                expfam.raw_moment_beta(a, b, m), rel=1e-10
            )
    assert expfam.raw_moment_beta(2.0, 3.0, 1) == pytest.approx(0.4, rel=1e-14)


def test_sampling_matches_moments(rng):
    beta = expfam.make_family("beta")
    draws = beta.at([2.0, 3.0]).sample(rng, 40_000)
    assert np.all((draws > 0) & (draws < 1))
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - 0.4) < 4 * se

    pareto = expfam.make_family("pareto", scale=1.5)
    draws = pareto.at([-3.5]).sample(rng, 10_000)
    assert draws.min() > 1.5


def test_sample_each_uses_per_row_parameters(rng):
    gamma = expfam.make_family("gamma")
    etas = np.array([[2.0, 1.0]] * 3000 + [[2.0, 10.0]] * 3000)
    draws = expfam.sample_each(gamma, etas, rng)
    assert draws.shape == (6000,)
    assert draws[:3000].mean() > draws[3000:].mean()


def test_quantile_median():
    gamma = expfam.make_family("gamma")
    # eta = (1, 2) is Exp(rate 2); median ln(2)/2
    assert gamma.at([1.0, 2.0]).quantile(0.5) == pytest.approx(math.log(2.0) / 2.0, rel=1e-12)
    with pytest.raises(CrmError, match="quantile level must lie in"):
        gamma.at([1.0, 2.0]).quantile(1.0)
    with pytest.raises(CrmError, match="discrete family"):
        expfam.make_family("poisson").at([0.3]).quantile(0.5)


def test_parameter_path_eval_and_overrides():
    path = expfam.ParameterPath(
        [
            PiecewiseFunction.constant(2.0),
            PiecewiseFunction([Piece(0.0, 4.0, "affine", c0=1.0, c1=1.0)]),
        ]
    )
    np.testing.assert_allclose(path.eval(1.0), [2.0, 2.0])
    np.testing.assert_allclose(path.eval_many([0.5, 2.0]), [[2.0, 1.5], [2.0, 3.0]])

    bumped = path.with_override(1.0, [9.0, 9.0])
    np.testing.assert_allclose(bumped.eval(1.0), [9.0, 9.0])
    np.testing.assert_allclose(bumped.eval(1.5), [2.0, 2.5])

    shifted = path.shifted([1.0, -0.5])
    np.testing.assert_allclose(shifted.eval(1.0), [3.0, 1.5])

    assert not path.defined_at(5.0)
    with pytest.raises(CrmError):
        path.eval(5.0)


@pytest.mark.parametrize(
    "loc, eta, message",
    [
        (0.5, (math.nan, 3.0), "atom override at z=0.5 is not finite: (nan, 3.0)"),
        (math.nan, (2.0, 3.0), "atom override at z=nan is not finite: (2.0, 3.0)"),
        (0.5, (2.0, math.inf), "atom override at z=0.5 is not finite: (2.0, inf)"),
        (math.inf, (2.0, 3.0), "atom override at z=inf is not finite: (2.0, 3.0)"),
    ],
    ids=["value-nan", "location-nan", "value-inf", "location-inf"],
)
def test_parameter_path_refuses_a_non_finite_override(loc, eta, message):
    comps = [PiecewiseFunction.constant(2.0), PiecewiseFunction.constant(3.0)]
    with pytest.raises(CrmError) as exc:
        expfam.ParameterPath(comps, {loc: eta})
    assert str(exc.value) == message
    with pytest.raises(CrmError) as exc:
        expfam.ParameterPath(comps).with_override(loc, eta)
    assert str(exc.value) == message


def test_parameter_path_left_piece_wins_at_shared_breakpoint():
    # pieces cover (lo, hi]: at z = 1 the piece ending there applies
    path = expfam.ParameterPath(
        [
            PiecewiseFunction(
                [Piece(0.0, 1.0, "const", c0=2.0), Piece(1.0, 3.0, "affine", c0=4.0, c1=1.0)]
            ),
            PiecewiseFunction.constant(3.0),
        ]
    )
    np.testing.assert_allclose(path.eval(1.0), [2.0, 3.0])
    np.testing.assert_allclose(path.eval(1.0 + 1e-12), [5.0, 3.0], rtol=1e-11)
    np.testing.assert_allclose(path.eval(3.0), [7.0, 3.0])
    assert not path.defined_at(0.0)


def test_constant_path_dimension_checks():
    path = expfam.ParameterPath.constant([1.0, 2.0, 3.0])
    assert path.dimension == 3
    np.testing.assert_allclose(path.eval(100.0), [1.0, 2.0, 3.0])


def _piecewise_path():
    return expfam.ParameterPath(
        [
            PiecewiseFunction(
                [Piece(0.0, 1.0, "const", c0=2.0), Piece(1.0, 3.0, "affine", c0=0.7, c1=1.3)]
            ),
            PiecewiseFunction([Piece(0.0, 3.0, "affine", c0=1.0, c1=0.25)]),
        ],
        atom_overrides={1.0: (9.0, 8.0), 0.25: (7.0, 6.0), 5.0: (4.0, 3.0)},
    )


def _piece_formula(pieces, z):
    """The component at the Python float z by the (lo, hi] rule, the left piece
    winning at a shared breakpoint, from the piece formulas on Python floats."""
    for p in pieces:
        if p.lo < z <= p.hi:
            if p.kind == "const":
                return float(p.c0)
            if p.kind == "affine":
                return p.c0 + p.c1 * z
            if p.kind == "ratio":
                return (p.c0 + p.c1 * z) / (p.d0 + p.d1 * z)
            return float(p.func(z))
    raise CrmError(f"z={z} outside the covered domain")


def _stacked_oracle(path, zs):
    """eta at each z, one row per z: an override by dict lookup, else each
    component's piece formula."""
    rows = []
    for z in np.ravel(zs).tolist():
        if z in path.atom_overrides:
            rows.append([float(v) for v in path.atom_overrides[z]])
        else:
            rows.append([_piece_formula(c.pieces, z) for c in path.components])
    return np.array(rows, dtype=float)


def test_eval_many_equals_stacked_eval():
    path = _piecewise_path()
    rng = np.random.default_rng(11)
    # overrides, a shared breakpoint that is also an override, an override
    # outside the pieces, and points just beside them
    zs = np.concatenate(
        [[0.25, 1.0, 5.0, np.nextafter(1.0, 2.0), 3.0, 0.25], rng.uniform(0.0, 3.0, size=98)]
    )
    want = _stacked_oracle(path, zs)
    got = path.eval_many(zs)
    assert got.tobytes() == want.tobytes()
    assert got[0].tolist() == [7.0, 6.0] and got[2].tolist() == [4.0, 3.0]
    assert path.eval_many(zs.reshape(4, -1)).shape == (4, len(zs) // 4, 2)
    assert np.vstack([path.eval(float(z)) for z in zs]).tobytes() == want.tobytes()
    no_overrides = expfam.ParameterPath(path.components)
    want = _stacked_oracle(no_overrides, zs[3:])
    assert no_overrides.eval_many(zs[3:]).tobytes() == want.tobytes()


def _kind_piece(kind, lo, hi):
    return {
        "const": Piece(lo, hi, "const", c0=1.7),
        "affine": Piece(lo, hi, "affine", c0=0.3, c1=1.1),
        "ratio": Piece(lo, hi, "ratio", c0=1.0, c1=2.0, d0=1.0, d1=0.5),
        "func": Piece(lo, hi, "func", func=lambda z: math.exp(-z) + 0.5),
    }[kind]


@pytest.mark.parametrize("overrides", [False, True], ids=["plain", "overrides"])
@pytest.mark.parametrize("split", [False, True], ids=["one-piece", "two-pieces"])
@pytest.mark.parametrize("kind", ["const", "affine", "ratio", "func"])
def test_eval_many_is_stacked_eval_for_every_piece_kind(kind, split, overrides):
    if split:
        pieces = [_kind_piece(kind, 0.0, 1.5), _kind_piece(kind, 1.5, 4.0).shifted(0.25)]
    else:
        pieces = [_kind_piece(kind, 0.0, 4.0)]
    path = expfam.ParameterPath(
        [PiecewiseFunction(pieces), PiecewiseFunction([_kind_piece("affine", 0.0, 4.0)])],
        atom_overrides={0.75: (5.0, 6.0), 1.5: (7.0, 8.0)} if overrides else None,
    )
    rng = np.random.default_rng(5)
    # the breakpoint, the points beside it and the end, then batches across
    # both pieces and inside the first
    edges = [0.75, 1.5, np.nextafter(1.5, 4.0), 4.0, np.nextafter(0.0, 1.0)]
    for zs in (np.array(edges), rng.uniform(0.0, 4.0, 60), rng.uniform(0.1, 1.4, 21)):
        want = _stacked_oracle(path, zs)
        got = path.eval_many(zs)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    with pytest.raises(CrmError, match=r"^z=5\.0 outside the covered domain$"):
        path.eval_many([0.5, 5.0, 6.0, 0.0])


def test_eval_many_raises_the_scalar_non_finite_error():
    path = expfam.ParameterPath(
        [
            PiecewiseFunction(
                [Piece(0.0, 1.0, "const", c0=1.0), Piece(1.0, math.inf, "func", func=lambda z: math.inf)]
            ),
            PiecewiseFunction.constant(2.0),
        ]
    )
    message = "parameter path not finite at z=2.5: [inf  2.]"
    for call, z in ((path.eval, 2.5), (path.eval_many, [0.5, 2.5, 3.5])):
        with pytest.raises(CrmError) as exc:
            call(z)
        assert str(exc.value) == message
    with pytest.raises(CrmError, match=r"^z=0\.0 outside the covered domain$"):
        path.eval_many([0.5, 0.0, 2.5])


def test_an_overflowing_affine_piece_is_named_where_it_overflows_with_no_warning():
    # 1 + 1e308 z overflows past z = 1.8; the warning used to come first, and
    # under -W error it replaced the message that names z
    path = expfam.ParameterPath(
        [
            PiecewiseFunction([Piece(0.0, math.inf, "affine", c0=1.0, c1=1e308)]),
            PiecewiseFunction.constant(3.0),
        ]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, z in ((path.eval, 2.0), (path.eval_many, [0.5, 2.0, 3.0])):
            with pytest.raises(CrmError) as exc:
                call(z)
            assert str(exc.value) == "parameter path not finite at z=2.0: [inf  3.]"


def test_defined_at_over_an_array_counts_the_pieces_alone():
    # the second component has a gap on (1, 2]; an override at 1.5 inside the
    # gap and one at 5.0 past every piece do not count
    path = expfam.ParameterPath(
        [
            PiecewiseFunction(
                [Piece(0.0, 1.0, "const", c0=2.0), Piece(1.0, 3.0, "affine", c0=0.7, c1=1.3)]
            ),
            PiecewiseFunction(
                [Piece(0.0, 1.0, "const", c0=1.0), Piece(2.0, 3.0, "const", c0=4.0)]
            ),
        ],
        atom_overrides={1.5: (9.0, 8.0), 5.0: (4.0, 3.0)},
    )
    zs = np.array([0.0, 0.5, 1.0, np.nextafter(1.0, 2.0), 1.5, 2.0, 2.5, 3.0, 5.0, math.nan])
    want = [False, True, True, False, False, False, True, True, False, False]
    got = path.defined_at(zs)
    assert got.dtype == np.bool_ and got.tolist() == want
    assert path.defined_at(zs.reshape(2, 5)).tolist() == [want[:5], want[5:]]
    assert [path.defined_at(float(z)) for z in zs] == want
    assert type(path.defined_at(1.0)) is bool and type(path.defined_at(np.float64(1.5))) is bool
    assert path.defined_at(np.array(1.0)).shape == ()
    # an override counts for evaluation, not for definedness
    assert path.eval(1.5).tolist() == [9.0, 8.0]


# (family, valid etas, first failing eta, a later failing eta)
_BATCH_CASES = [
    ("beta", [[2.0, 3.0], [0.5, 0.5]], [1.0, -1.0], [0.0, 1.0]),
    ("gamma", [[2.0, 3.0], [0.1, 9.0]], [1.0, 0.0], [-1.0, 1.0]),
    ("pareto", [[-2.5], [-1.5]], [-1.0], [0.5]),
    # on the face eta_1 = -1 the second coordinate must be < -1; off it, it is free
    ("pareto_loglog", [[-2.0, -0.5], [-1.0, -2.0]], [-1.0, -0.5], [-0.5, -2.0]),
    ("lognormal", [[1.5], [0.25]], [0.0], [-1.0]),
    ("poisson", [[0.3], [-2.0]], [math.inf], [math.nan]),
    ("bernoulli", [[0.3], [-2.0]], [math.nan], [-math.inf]),
]


@pytest.mark.parametrize("name, good, first, later", _BATCH_CASES, ids=[c[0] for c in _BATCH_CASES])
def test_batch_check_raises_the_first_failing_rows_own_error(name, good, first, later):
    spec = expfam.make_family(name)
    spec.check_natural(np.array(good * 3).T)
    for eta in good:
        spec.check_natural(np.array(eta))
    with pytest.raises(NaturalSpaceError) as scalar:
        spec.check_natural(np.array(first))
    assert scalar.value.index is None
    rows = np.array(good + [first] + good + [later])
    with pytest.raises(NaturalSpaceError) as batch:
        spec.check_natural(rows.T)
    assert str(batch.value) == str(scalar.value)
    assert batch.value.coord == scalar.value.coord
    assert batch.value.index == len(good)
    # any batch shape: the index counts along the flattened eta.shape[1:]
    with pytest.raises(NaturalSpaceError) as grid:
        spec.check_natural(rows.T.reshape(spec.dimension, 2, -1))
    assert (str(grid.value), grid.value.coord, grid.value.index) == (
        str(scalar.value), scalar.value.coord, len(good)
    )


@pytest.mark.parametrize("name, good, first, later", _BATCH_CASES, ids=[c[0] for c in _BATCH_CASES])
def test_batch_membership_equals_the_per_column_answers(name, good, first, later):
    spec = expfam.make_family(name)
    rows = good + [first] + good + [later]
    want = [spec.in_natural_space(np.array(eta)) for eta in rows]
    assert want == [True] * len(good) + [False] + [True] * len(good) + [False]
    assert all(type(answer) is bool for answer in want)
    batch = spec.in_natural_space(np.array(rows).T)
    assert batch.dtype == bool and batch.tolist() == want
    # any batch shape: the answers take the shape of eta.shape[1:]
    grid = spec.in_natural_space(np.array(rows).T.reshape(spec.dimension, 2, -1))
    assert grid.tolist() == np.reshape(want, (2, -1)).tolist()


def _batch_grid(spec, good):
    """The case's good rows scaled by 1, 1.37, 1.74 and 2.11: still in the
    natural space, and for pareto_loglog both on its face and off it."""
    rows = np.array([np.multiply(eta, 1.0 + 0.37 * i) for i in range(4) for eta in good])
    assert spec.in_natural_space(rows.T).all()
    return rows


@pytest.mark.parametrize("name, good, first, later", _BATCH_CASES, ids=[c[0] for c in _BATCH_CASES])
def test_the_batch_density_and_tilt_are_the_scalar_doubles(name, good, first, later):
    spec = expfam.make_family(name)
    rows = _batch_grid(spec, good)
    for x in spec.support.grid(5):
        batch = np.exp(expfam._log_density_many(spec, rows.T, x))
        assert batch.tolist() == [spec.at(eta).density(x) for eta in rows]
        assert batch.tolist() == [np.exp(expfam._log_density_many(spec, eta, x)) for eta in rows]
    for k in range(1, spec.dimension + 1):
        for theta in (0.25, 1.0):
            tilted = rows.copy()
            tilted[:, k - 1] -= spec.stats[k - 1].sign * theta
            ok = spec.in_natural_space(tilted.T)
            kept = rows[ok]
            assert kept.size
            batch = levy.stat_laplace(spec, kept.T, k, theta)
            one = [levy.stat_laplace(spec, eta, k, theta) for eta in kept]
            assert batch.tolist() == one and all(type(v) is float for v in one)
            # the identity through two bound families
            pairs = zip(tilted[ok], kept)
            assert one == [np.exp(spec.at(a).log_partition - spec.at(b).log_partition) for a, b in pairs]


def test_the_batch_density_at_many_points_has_one_row_per_point():
    spec = expfam.make_family("gamma")
    rows = np.array([[2.0, 3.0], [0.5, 1.5], [4.0, 0.25]])
    xs = np.array([0.2, 1.0, 3.5])
    got = np.exp(expfam._log_density_many(spec, rows.T, xs))
    assert got.shape == (3, 3)
    assert got.tolist() == [[spec.at(eta).density(x) for eta in rows] for x in xs]
    with pytest.raises(SupportError):
        expfam._log_density_many(spec, rows.T, [1.0, -1.0])


def test_the_batch_names_the_first_bad_column():
    spec = expfam.make_family("gamma")
    with pytest.raises(NaturalSpaceError, match="rate must be positive, got -1.0") as exc:
        expfam._log_density_many(spec, np.array([[2.0, 3.0], [2.0, -1.0], [1.0, -2.0]]).T, 0.5)
    assert exc.value.index == 1
    with pytest.raises(NaturalSpaceError, match="must be finite") as exc:
        expfam._tilt(spec, np.array([[2.0, 3.0], [math.nan, 1.0]]).T, 2, -1.0)
    assert exc.value.index == 1
    # the tilt of the second column leaves the natural space: the one-eta text
    with pytest.raises(DivergenceError) as one:
        levy.stat_laplace(spec, [0.5, 1.0], 1, 1.0)
    with pytest.raises(DivergenceError) as exc:
        levy.stat_laplace(spec, np.array([[2.0, 3.0], [0.5, 1.0], [0.25, 1.0]]).T, 1, 1.0)
    assert str(exc.value) == str(one.value) == (
        "gamma: E[exp(-1.0 T_1)] is infinite, the tilted coordinate eta_1 = -0.5 leaves "
        "the natural space (gamma: shape must be positive, got -0.5)"
    )
    assert exc.value.partial == math.inf and exc.value.__cause__.index == 1
    with pytest.raises(CrmError, match=r"must have length 2, got shape \(3, 2\)"):
        levy.stat_laplace(spec, np.ones((3, 2)), 1, 1.0)


def test_the_batch_returns_overflow_silently_with_the_scalar_values():
    spec = expfam.make_family("poisson")
    rows = np.array([[0.3], [710.0]])  # A = e^eta overflows at the second
    with np.errstate(all="ignore"):
        density = [spec.at(eta).density(2.0) for eta in rows]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tilt = [expfam._tilt(spec, eta, 1, -1.0) for eta in rows]
        assert np.exp(expfam._log_density_many(spec, rows.T, 2.0)).tolist() == density
        assert expfam._tilt(spec, rows.T, 1, -1.0).tolist() == tilt
    assert density[1] == tilt[1] == 0.0


@pytest.mark.parametrize(
    "name, eta, error, message",
    [
        ("gamma", [-1.0, 2.0], NaturalSpaceError, "gamma: shape must be positive, got -1.0"),
        ("gamma", [1.0, np.nan], NaturalSpaceError, "gamma: natural parameter must be finite, got [ 1. nan]"),
        (
            "pareto_loglog",
            [-1.0, -0.5],
            NaturalSpaceError,
            "pareto(log-log): on the face eta_1 = -1 the second coordinate must be < -1, got -0.5",
        ),
        ("gamma", [1.0], CrmError, "gamma: natural parameter must have length 2, got shape (1,)"),
    ],
)
def test_binding_an_invalid_eta_raises_what_density_raised(name, eta, error, message):
    # the messages are those density raised before it went through the view
    spec = expfam.make_family(name)
    with pytest.raises(error) as exc:
        spec.at(eta)
    assert str(exc.value) == message
    with pytest.raises(error) as exc:
        expfam.density(spec, eta, 3.0)
    assert str(exc.value) == message


def test_bound_family_checks_the_support_at_each_point():
    gamma = expfam.make_family("gamma")
    bound = gamma.at([2.0, 3.0])
    assert bound.log_partition == gamma.at([2.0, 3.0]).log_partition
    for x, bad in ((-1.0, "-1.0"), (0.0, "0.0"), (np.array([1.0, -1.0]), "-1.0"), ([2, -3], "-3")):
        with pytest.raises(SupportError) as exc:
            bound.density(x)
        assert str(exc.value) == f"gamma: s={bad} outside the support (0.0, inf)"
        with pytest.raises(SupportError):
            bound.log_density(x)
    np.testing.assert_array_equal(bound.density(np.array([0.5, 2.0])), [bound.density(0.5), bound.density(2.0)])


# case -> (family, eta): one eta per family, pareto_loglog on its face, plus
# pareto_loglog off the face with eta_2 <= 0 (rejection) and eta_2 > 0 (inversion)
_SAMPLER_ETAS = {
    "beta": ("beta", [2.0, 3.0]),
    "gamma": ("gamma", [2.0, 3.0]),
    "pareto": ("pareto", [-3.5]),
    "pareto_loglog": ("pareto_loglog", [-1.0, -2.5]),
    "pareto_loglog-off-face-rejection": ("pareto_loglog", [-2.0, -2.5]),
    "pareto_loglog-off-face-inversion": ("pareto_loglog", [-2.0, 0.7]),
    "lognormal": ("lognormal", [1.5]),
    "poisson": ("poisson", [0.3]),
    "bernoulli": ("bernoulli", [0.3]),
}


@pytest.mark.parametrize("name", sorted(_SAMPLER_ETAS))
def test_a_bound_family_draws_what_sample_each_draws_per_row(name):
    assert {family for family, _ in _SAMPLER_ETAS.values()} == set(expfam.family_names())
    family, eta = _SAMPLER_ETAS[name]
    spec = expfam.make_family(family)
    bound_rng, rows_rng = np.random.default_rng(11), np.random.default_rng(11)
    draws = spec.at(eta).sample(bound_rng, 257)
    rows = expfam.sample_each(spec, np.tile(eta, (257, 1)), rows_rng)
    assert draws.dtype == rows.dtype == np.float64
    assert draws.tobytes() == rows.tobytes()
    # both routes leave the stream at the same point, so draws made after
    # them (the count-mode cells of a discretized draw) match too
    assert bound_rng.bit_generator.state == rows_rng.bit_generator.state
    first = spec.at(eta).sample(np.random.default_rng(11))
    one_row = expfam.sample_each(spec, np.array([eta]), np.random.default_rng(11))
    assert type(first) is float and first == one_row[0]
    if name != "pareto_loglog-off-face-rejection":
        # one uniform (or one numpy draw) per row: a single draw starts any batch;
        # rejection draws come after the batch's uniforms
        assert first == rows[0]


def test_a_mixed_loglog_batch_keeps_the_closed_form_face_draws():
    spec = expfam.make_family("pareto_loglog")
    etas = np.array([[-1.0, -2.5], [-2.0, -2.5], [-1.0, -4.0], [-2.0, 0.7], [-3.0, -1.5]] * 40)
    draws = expfam.sample_each(spec, etas, np.random.default_rng(5))
    # the face draws invert the closed-form CDF at the row's own uniform, one
    # uniform per row of the batch, exactly as before the off-face sampler
    us = np.random.default_rng(5).random(len(etas))
    face = etas[:, 0] == -1.0
    want = np.exp(1.0 * (1.0 - us[face]) ** (-1.0 / (-etas[face, 1] - 1.0)))
    assert draws[face].tobytes() == want.tobytes()
    assert np.all(np.isfinite(draws) & (draws > math.e))


def _loglog_cdf_mp(eta, xs):
    """P(X <= x) at scale 1: ln X is Gamma(eta_2 + 1, s) cut to (1, inf), or on the
    face (s = 0) has the tail (ln x)^(eta_2 + 1)."""
    s, a = -(eta[0] + 1.0), eta[1] + 1.0
    if s == 0.0:
        return np.array([1.0 - float(mp.log(x) ** a) for x in xs])
    top = mp.gammainc(a, s, mp.inf)
    return np.array([1.0 - float(mp.gammainc(a, s * mp.log(x), mp.inf) / top) for x in xs])


# the on-face pareto_loglog sampler returns x = inf where w = ln x > 709.78:
# a known overflow (ROADMAP item 5), the one expfam warning tier-1 lets through
_KNOWN_OVERFLOW = pytest.mark.filterwarnings("default:overflow encountered in exp:RuntimeWarning:crmkit.expfam")


@pytest.mark.parametrize(
    "case",
    [pytest.param(c, marks=_KNOWN_OVERFLOW) if c == "pareto_loglog" else c for c in sorted(_SAMPLER_ETAS)],
)
def test_sampler_passes_goodness_of_fit(case):
    from scipy import stats

    family, eta = _SAMPLER_ETAS[case]
    bound = expfam.make_family(family).at(eta)
    off_face = case.startswith("pareto_loglog-off-face")
    draws = bound.sample(np.random.default_rng(20261018), 1000 if off_face else 4000)
    n = len(draws)
    if bound.spec.support.discrete:
        pmf = bound.density(np.arange(min(bound.spec.support.hi, 40.0) + 1.0))
        # the leading values that expect 5 draws each, then the pooled rest
        cells = int(np.sum(np.cumprod(n * pmf >= 5.0)))
        observed = [np.sum(draws == v) for v in range(cells)]
        expected = list(n * pmf[:cells])
        if cells < len(pmf):
            observed.append(np.sum(draws >= cells))
            expected.append(n - sum(expected))
        p_value = stats.chisquare(observed, expected).pvalue
    else:
        cdf = (lambda x: _loglog_cdf_mp(eta, x)) if off_face else bound.cdf
        p_value = stats.kstest(draws, cdf).pvalue
    assert p_value > 1e-3


@pytest.mark.parametrize("case", sorted(_SAMPLER_ETAS))
def test_cdf_matches_the_density_and_inverts_the_quantile(case):
    family, eta = _SAMPLER_ETAS[case]
    spec = expfam.make_family(family)
    bound = spec.at(eta)
    lo, hi = spec.support.lo, spec.support.hi
    assert bound.cdf(lo - 1.0) == 0.0 and bound.cdf(math.inf) == 1.0
    if spec.support.discrete:
        values = np.arange(min(hi, 30.0) + 1.0)
        np.testing.assert_allclose(bound.cdf(values), np.cumsum(bound.density(values)), rtol=1e-12)
        assert bound.cdf(0.5) == bound.cdf(0.0)
        return
    assert bound.cdf(lo) == 0.0
    qs = np.array([1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-3])
    xs = bound.quantile(qs)
    np.testing.assert_allclose(bound.cdf(xs), qs, rtol=1e-9)
    if family == "pareto_loglog":
        # the CDF alone, at the x the quantile returns: the level check above
        # also carries how rounding x = e^w moves the exact CDF
        with mp.workdps(40):
            want = _loglog_cdf_mp(eta, xs)
        np.testing.assert_allclose(bound.cdf(xs), want, rtol=1e-9, atol=0.0)
    assert bound.quantile(0.5) == xs[2]
    for x in xs[1:4]:
        want, _ = integrate.quad(bound.density, lo, x, epsabs=0.0, epsrel=1e-11, limit=200)
        assert bound.cdf(x) == pytest.approx(want, rel=1e-8)


def test_loglog_off_face_cdf_and_quantile_where_the_tail_mass_underflows():
    # s * u_m = 799: Gamma(1.7, 799) is below the double range, so the CDF is
    # a ratio of ln Gamma(a, x) and the quantile a Newton on it
    spec = expfam.make_family("pareto_loglog")
    bound = spec.at([-800.0, 0.7])
    x = bound.quantile(0.5)
    assert bound.cdf(x) == pytest.approx(0.5, rel=1e-9)
    assert bound.cdf(x) == pytest.approx(_loglog_cdf_mp([-800.0, 0.7], [x])[0], rel=1e-9)
    draws = bound.sample(np.random.default_rng(3), 5)
    assert np.all(np.isfinite(draws) & (draws > math.e))


@pytest.mark.parametrize("eta", [[-800.0, 0.7], [-900.0, -0.5]])
def test_loglog_off_face_cdf_near_its_lower_end_matches_mpmath(eta):
    # Gamma(a, s u_m) underflows at s u_m = 799 and 899: near w = u_m the CDF is
    # small, and 1 - exp of a difference of two ln Gamma values near -800 kept
    # about 1e-7 of it.  The reference is the CDF of W = ln X at the double
    # w = ln x the family reads; the rounding of ln x alone moves it by up to
    # about 1e-7 near u_m, which no formula for the CDF can undo
    bound = expfam.make_family("pareto_loglog").at(eta)
    s, a = -(eta[0] + 1.0), eta[1] + 1.0
    xs = bound.quantile(np.array([1e-6, 1e-5, 1e-4]))
    with mp.workdps(40):
        top = mp.gammainc(a, s, mp.inf)
        want = [float(1 - mp.gammainc(a, s * mp.mpf(w), mp.inf) / top) for w in np.log(xs).tolist()]
    np.testing.assert_allclose(bound.cdf(xs), want, rtol=1e-12, atol=0.0)


def _loglog_w_newton_mp(s, a, q):
    """W's q-quantile off the face at scale 1 by a 20-digit Newton on -ln P(W > w) from w = 1."""
    with mp.workdps(20):
        s, a, w = mp.mpf(s), mp.mpf(a), mp.mpf(1.0)
        top = mp.gammainc(a, s, mp.inf)
        for _ in range(200):
            upper = mp.gammainc(a, s * w, mp.inf)
            step = (mp.log(upper / top) - mp.log1p(-q)) * upper / (s**a * w ** (a - 1) * mp.exp(-s * w))
            w += step
            if abs(step) <= 1e-16 * w:
                return float(w)
    raise AssertionError(f"no convergence at s={s}, a={a}, q={q}")


def test_loglog_batch_newton_quantile_keeps_the_row_bits_and_matches_mpmath():
    # gamma shapes a <= 0 and a tail mass below the double range (eta = (-800, 0.7))
    # in one batch, each at several levels, mixed with a face row and a gammaincc row
    spec = expfam.make_family("pareto_loglog")
    newton = [[-2.0, -2.5], [-2.0, -1.0], [-1.5, -4.0], [-4.0, -2.0], [-1.05, -1.2], [-800.0, 0.7]]
    qs = [1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-3]
    etas = np.array([eta for eta in newton for _ in qs] + [[-1.0, -2.5], [-2.0, 0.7]]).T
    levels = np.array(qs * len(newton) + [0.3, 0.3])
    batch = spec.quantile(etas, levels)
    rows = np.array([spec.quantile(etas[:, i], levels[i]) for i in range(levels.size)])
    assert batch.tobytes() == rows.tobytes()
    n = len(newton) * len(qs)
    want = [_loglog_w_newton_mp(-(e1 + 1.0), e2 + 1.0, q) for e1, e2, q in zip(*etas[:, :n], levels[:n])]
    np.testing.assert_allclose(np.log(batch[:n]), want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("eta", [[-2.0, -2.5], [-2.0, -1.0], [-1.5, -4.0], [-4.0, -2.0]])
def test_loglog_off_face_cdf_with_a_non_positive_gamma_shape_matches_mpmath(eta):
    # eta_2 + 1 <= 0, where gammaincc is nan: the tail is a ratio of ln Gamma(a, x)
    bound = expfam.make_family("pareto_loglog").at(eta)
    xs = np.exp([1.05, 1.3, 2.0, 3.0, 5.0])
    with mp.workdps(40):
        want = _loglog_cdf_mp(eta, xs)
    np.testing.assert_allclose(bound.cdf(xs), want, rtol=1e-12, atol=0.0)


def test_a_family_declaring_no_moments_and_no_cumulants_is_an_error():
    import dataclasses

    gamma = dataclasses.replace(expfam.make_family("gamma"), cumulants=None)
    with pytest.raises(CrmError, match="declares neither a moment of statistic 2 nor cumulants"):
        expfam.moment_suff_stat(gamma, [2.0, 3.0], 2, 1)


def test_moments_of_every_order_match_closed_forms_and_quadrature():
    """m = 1..8 on admissible points: closed forms to 1e-10, quadrature to 1e-6."""
    from crmkit import verify

    rng = np.random.default_rng(7023541)
    points = [
        (name, eta)
        for name in expfam.family_names()
        for eta in verify._admissible_grid(name, rng, 3)
    ]
    # a log statistic with a small exponent, where x-space quadrature of
    # (ln x)^m x^(a-1) cannot reach its tolerances
    points.append(("beta", np.array([0.49, 4.61])))
    for name, eta in points:
        spec = expfam.make_family(name)
        for k in range(1, spec.dimension + 1):
            oracle = verify._moment_oracle(spec, [(eta, k, m) for m in range(1, 9)])
            for m, (want, rel) in enumerate(oracle, start=1):
                got = expfam.moment_suff_stat(spec, eta, k, m)
                assert got == pytest.approx(want, rel=rel), f"{name} eta={eta} k={k} m={m}"


def _loglog_moments_mp(eta, k, m_max):
    """E[T_k^m], m = 1..m_max, off the face at scale 1: for k = 1 a 40-digit
    ratio Gamma(a + m, s) / (Gamma(a, s) s^m); for k = 2 the cumulants
    d^j A / d eta_2^j by mpmath's numerical differentiation, then the moment
    recursion of ``moment_suff_stat``."""
    e1, e2 = (mp.mpf(float(v)) for v in eta)
    s = -(e1 + 1)
    if k == 1:
        with mp.workdps(40):
            top = mp.gammainc(e2 + 1, s, mp.inf)
            return [float(mp.gammainc(e2 + 1 + m, s, mp.inf) / top / s**m) for m in range(1, m_max + 1)]
    with mp.workdps(15):
        log_partition = lambda y: -(y + 1) * mp.log(s) + mp.log(mp.gammainc(y + 1, s, mp.inf))
        kappas = [float(d) for d in list(mp.diffs(log_partition, e2, m_max))[1:]]
    mus = [1.0]
    for n in range(1, m_max + 1):
        mus.append(sum(math.comb(n - 1, j - 1) * kappas[j - 1] * mus[n - j] for j in range(1, n + 1)))
    return mus[1:]


# the moments suite's three pareto_loglog eta -> E[(ln x)^m] at m = 1, 2, 4, 6
_LOGLOG_LOG_MOMENTS = {
    (-3.7588828649842028, -2.321770645261294): (
        "1.2269838533500645", "1.5629761025349402", "2.9776189113293596", "7.834479811441637"
    ),
    (-3.8051160933093113, -1.9561225899653443): (
        "1.2395633765985978", "1.5998020928907786", "3.1657205442247274", "8.810924230505986"
    ),
    (-1.7498552236326619, -3.0241495022774316): (
        "1.3998422952741016", "2.1873299244792257", "9.342230854861418", "118.05973145326747"
    ),
}


def test_loglog_log_moment_takes_both_ln_gammas_from_one_call(monkeypatch):
    # ln Gamma(a, x) and ln Gamma(a + m, x) in one batch, each its own double:
    # at most one continued fraction per moment, where it took one per ln Gamma
    spec = expfam.make_family("pareto_loglog")
    cf, calls = expfam._upper_gamma_ratio_cf, []
    monkeypatch.setattr(expfam, "_upper_gamma_ratio_cf", lambda a, x: calls.append(a.size) or cf(a, x))
    for eta, want in _LOGLOG_LOG_MOMENTS.items():
        for m, value in zip((1, 2, 4, 6), want):
            calls.clear()
            assert repr(expfam.moment_suff_stat(spec, list(eta), 1, m)) == value
            assert len(calls) <= 1
            if eta[0] == -3.7588828649842028 and m == 1:
                assert calls == [2]  # both ln Gamma by the fraction, in one call


@pytest.mark.parametrize("eta", [[-1.0, -8.0], [-2.0, -2.5], [-3.0, 0.7], [-1.5, -1.2]])
def test_a_loglog_batch_of_orders_gives_each_order_its_own_double(eta):
    # on the face and off it: one ln Gamma and, for k = 2, one quadrature batch
    # for every order, each value the bits of that order alone
    spec = expfam.make_family("pareto_loglog")
    for k in (1, 2):
        got = expfam._stat_moments(spec, eta, k, (1, 2, 4, 6))
        assert [v.hex() for v in got] == [expfam.moment_suff_stat(spec, eta, k, m).hex() for m in (1, 2, 4, 6)]


def test_a_loglog_face_batch_raises_its_first_divergent_order():
    spec = expfam.make_family("pareto_loglog")
    with pytest.raises(DerivativeDomainError, match=r"^pareto\(log-log\): E\[\(ln x\)\^4\] diverges for shape 3.0 <= 4$"):
        expfam._stat_moments(spec, [-1.0, -4.0], 1, (1, 2, 4, 6))
    assert expfam._stat_moments(spec, [-1.0, -4.0], 1, (1, 2)) == [
        expfam.moment_suff_stat(spec, [-1.0, -4.0], 1, m) for m in (1, 2)
    ]


def test_a_batch_of_orders_checks_each_order():
    gamma = expfam.make_family("gamma")
    with pytest.raises(CrmError, match="^moment order m must be a positive integer, got 0$"):
        expfam._stat_moments(gamma, [2.0, 3.0], 1, (1, 2, 0))


# bernoulli eta -> E[T^m] at m = 1..8
_BERNOULLI_MOMENTS = {
    -0.7: (
        "0.3318122278318339", "0.3318122278318339", "0.3318122278318339", "0.33181222783183395",
        "0.33181222783183395", "0.33181222783183406", "0.3318122278318336", "0.33181222783183273",
    ),
    0.3: (
        "0.574442516811659", "0.574442516811659", "0.574442516811659", "0.574442516811659",
        "0.5744425168116589", "0.5744425168116583", "0.5744425168116525", "0.5744425168116293",
    ),
    2.9: (
        "0.9478464369215823", "0.9478464369215823", "0.9478464369215823", "0.9478464369215823",
        "0.9478464369215824", "0.9478464369215823", "0.947846436921582", "0.947846436921641",
    ),
}


def test_bernoulli_cumulants_build_their_polynomials_once(monkeypatch):
    spec = expfam.make_family("bernoulli")
    for eta, want in _BERNOULLI_MOMENTS.items():
        assert tuple(repr(expfam.moment_suff_stat(spec, [eta], 1, m)) for m in range(1, 9)) == want
    poly1d, built = np.poly1d, []
    monkeypatch.setattr(np, "poly1d", lambda *args: built.append(args) or poly1d(*args))
    for eta, want in _BERNOULLI_MOMENTS.items():
        assert tuple(repr(expfam.moment_suff_stat(spec, [eta], 1, m)) for m in range(1, 9)) == want
    assert built == []


def test_loglog_off_face_moments_match_mpmath():
    """E[(ln x)^m] and E[(ln ln x)^m], m = 1..6, to 1e-10 of mpmath; at
    eta = (-800, 0.7) ln ln x is about 1/800, so E[(ln ln x)^6] is near 1e-18."""
    from crmkit import verify

    spec = expfam.make_family("pareto_loglog")
    etas = [
        *verify._admissible_grid("pareto_loglog", np.random.default_rng(5), 4),
        *np.array([[-2.0, -2.5], [-2.0, -1.0], [-1.5, -4.0], [-4.0, -2.0], [-30.0, 3.0], [-1.05, -1.2]]),
        np.array([-800.0, 0.7]),
    ]
    for eta in etas:
        for k in (1, 2):
            got = [expfam.moment_suff_stat(spec, eta, k, m) for m in range(1, 7)]
            np.testing.assert_allclose(got, _loglog_moments_mp(eta, k, 6), rtol=1e-10, err_msg=f"{eta} k={k}")


def test_closed_form_moment_oracles_match_quadrature():
    from test_acceptance import _lattice_moment, _quad_moment

    from crmkit import verify

    rng = np.random.default_rng(11)
    for (name, k), closed in verify._CLOSED_MOMENTS.items():
        spec = expfam.make_family(name)
        oracle = _lattice_moment if spec.support.discrete else _quad_moment
        eta = verify._admissible_grid(name, rng, 1)[0]
        for m in range(1, 9):
            want = oracle(spec, eta, k, m)
            assert closed(spec, eta, m) == pytest.approx(want, rel=1e-6), f"{name} eta={eta} m={m}"


def test_every_statistic_has_a_closed_moment_or_a_declared_inverse():
    from crmkit import verify

    for name in expfam.family_names():
        spec = expfam.make_family(name)
        for k in range(1, spec.dimension + 1):
            closed = (name, k) in verify._CLOSED_MOMENTS
            quadrature = spec.stat_terms is not None and not spec.support.discrete
            assert closed or quadrature, f"{name} k={k}"


@pytest.mark.parametrize("k, m", [(True, 1), (1, True), (1.0, 1), (1, 2.0)], ids=["bool-k", "bool-m", "float-k", "float-m"])
def test_a_statistic_index_or_moment_order_that_is_not_an_integer_is_refused(k, m):
    # a bool is no number: True used to answer for k = 1 or m = 1
    with pytest.raises(CrmError, match="k must satisfy|m must be a positive integer"):
        expfam.moment_suff_stat(expfam.make_family("gamma"), [2.0, 3.0], k, m)
    assert expfam.moment_suff_stat(expfam.make_family("gamma"), [2.0, 3.0], np.int64(2), np.int8(1)) == 2.0 / 3.0


def test_a_discrete_support_holds_no_infinite_point():
    poisson = expfam.make_family("poisson")
    xs = [0.0, 2.0, math.inf, -math.inf, 2.5, math.nan]
    assert poisson.support._inside(xs).tolist() == [True, True, False, False, False, False]
    assert not poisson.support.contains(math.inf)
    # the density at inf used to be nan, with a RuntimeWarning
    with pytest.raises(SupportError, match=r"^poisson: s=inf outside the support \(0\.0, inf\)$"):
        poisson.at([0.5]).density(math.inf)


@pytest.mark.parametrize("size", [2.5, True, -1, "2"], ids=["float", "bool", "negative", "str"])
def test_a_sample_size_that_is_not_a_nonnegative_integer_is_refused(size):
    # 2.5 used to give 2 draws and True one
    bound = expfam.make_family("gamma").at([2.0, 3.0])
    with pytest.raises(CrmError, match=f"^gamma: sample size must be a nonnegative integer, got {size}$"):
        bound.sample(np.random.default_rng(1), size)
    rng = np.random.default_rng(1)
    assert bound.sample(rng, np.int64(2)).shape == (2,) and bound.sample(rng, 0).shape == (0,)


@pytest.mark.parametrize("eta_2", [-1.5, -2.5, -7.0])
def test_loglog_face_cdf_and_quantile_are_the_pareto_law_of_ln_x(eta_2):
    # on the face w = ln x is Pareto(u_m, -(eta_2 + 1)): the same doubles as the pareto family
    loglog = expfam.make_family("pareto_loglog", scale=2.0).at([-1.0, eta_2])
    pareto = expfam.make_family("pareto", scale=2.0).at([eta_2])
    xs = np.exp([2.0 + 1e-9, 2.01, 2.5, 3.0, 7.5, 40.0])
    assert loglog.cdf(xs).tobytes() == pareto.cdf(np.log(xs)).tobytes()
    qs = np.array([1e-9, 0.1, 0.5, 0.8])  # w below 709.78, where e^w is finite
    assert loglog.quantile(qs).tobytes() == np.exp(pareto.quantile(qs)).tobytes()


@pytest.mark.parametrize("eta_1", [-1.0 + 1e-13, -1.0 + 1e-12, np.nextafter(-1.0, 0.0)])
def test_loglog_first_coordinate_above_minus_one_is_outside_the_natural_space(eta_1):
    # the face is eta_1 = -1 exactly: {eta_1 < -1} union {eta_1 = -1, eta_2 < -1}
    loglog = expfam.make_family("pareto_loglog")
    with pytest.raises(NaturalSpaceError) as exc:
        loglog.check_natural([eta_1, -2.5])
    assert (exc.value.coord, str(exc.value)) == (
        1, f"pareto(log-log): first coordinate must be <= -1, got {eta_1}"
    )
    assert not loglog.in_natural_space([eta_1, -2.5])


def _spied_batches(monkeypatch) -> list:
    """((a, b), rows) of each batch that :func:`crmkit.quadpack.qag` integrates."""
    from crmkit import quadpack

    qag, batches = quadpack.qag, []

    def spied(f, a, b, points=None):
        rows = qag(f, a, b, points)
        if points is not None:
            batches.append(((a, b), len(rows)))
        return rows

    monkeypatch.setattr(quadpack, "qag", spied)
    return batches


def test_loglog_newton_quantile_integrates_its_short_windows_with_quadpack(monkeypatch):
    spec = expfam.make_family("pareto_loglog")
    want = spec.at([-2.0, -2.5]).quantile(0.5)  # gamma shape -1.5: Newton from w = u_m
    batches = _spied_batches(monkeypatch)
    assert spec.at([-2.0, -2.5]).quantile(0.5) == want
    assert batches and all(batch == ((0.0, 1.0), 1) for batch in batches)


def test_loglog_short_windows_in_one_batch_give_each_windows_own_double(monkeypatch):
    # the short windows run QUADPACK in lockstep, one row each, and each row
    # gives the double its window gives alone
    bound = expfam.make_family("pareto_loglog").at([-2.0, -2.5])
    xs = np.exp([1.05, 1.1, 1.2, 3.0])  # three short windows, w - u_m <= u_m / 4, and a long one
    alone = np.array([bound.cdf(x) for x in xs])
    batches = _spied_batches(monkeypatch)
    assert bound.cdf(xs).tobytes() == alone.tobytes()
    assert batches == [((0.0, 1.0), 3)]


# refusal -> (call, its error type, its exact message)
_EXPFAM_REFUSALS = {
    "beta-moment-shape": (
        lambda: expfam.raw_moment_beta(0.0, 2.0, 1), NaturalSpaceError, "beta parameters must be positive"
    ),
    "sample-each-shape": (
        lambda: expfam.sample_each(expfam.make_family("gamma"), np.ones((3, 1)), np.random.default_rng(0)),
        CrmError,
        "gamma: expected eta array of shape (m, 2)",
    ),
    "path-no-component": (lambda: expfam.ParameterPath([]), CrmError, "parameter path needs at least one component"),
    "override-dimension": (
        lambda: expfam.ParameterPath(
            [PiecewiseFunction.constant(1.0), PiecewiseFunction.constant(2.0)], {0.5: (1.0,)}
        ),
        CrmError,
        "atom override at z=0.5 has wrong dimension",
    ),
    "shift-dimension": (
        lambda: expfam.ParameterPath.constant([1.0, 2.0]).shifted([1.0]), CrmError, "shift vector dimension mismatch"
    ),
}


@pytest.mark.parametrize("case", sorted(_EXPFAM_REFUSALS))
def test_a_family_layer_refusal_names_its_cause(case):
    call, error, message = _EXPFAM_REFUSALS[case]
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
