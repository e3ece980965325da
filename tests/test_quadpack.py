"""The QUADPACK port against ``scipy.integrate.quad``, bit for bit.

``scipy.integrate.quad`` runs the same routines (``dqagse``, ``dqagie``) on
a scalar integrand.  Each reference here evaluates the port's own array
integrand one node at a time, so the two see the same doubles and must
return the same value, error estimate, subinterval count and error code.
"""

import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from crmkit import expfam, quadpack, verify
from crmkit.errors import DivergenceError
from crmkit.expfam import ParameterPath, make_family
from crmkit.levy import BaseMeasure, LevyContext, laplace_exponent, levy_density_u
from crmkit.piecewise import Piece, PiecewiseFunction, checked_quad

INF = math.inf

# scipy's message for each error code, by its first words
_SCIPY_IER = {
    "The maximum number of subdivisions": 1,
    "The occurrence of roundoff error": 2,
    "Extremely bad integrand behavior": 3,
    "The algorithm does not converge": 4,
    "The integral is probably divergent": 5,
}


def _one_node_at_a_time(f):
    return lambda z: float(np.asarray(f(np.array([z])), dtype=float)[0])


def _scipy(f, a, b):
    """(result, abserr, last, ier) of scipy's quad on the array integrand f, one node at a time."""
    val, err, info, *message = scipy.integrate.quad(
        _one_node_at_a_time(f), a, b, epsabs=1e-12, epsrel=1e-10, limit=300, full_output=1
    )
    ier = 0
    if message:
        (ier,) = [code for start, code in _SCIPY_IER.items() if message[0].startswith(start)]
    return val, err, info["last"], ier


def _same(got, want):
    """Equal tuples of numbers, a NaN equal to a NaN."""
    return len(got) == len(want) and all(
        g == w or (g != g and w != w) for g, w in zip(got, want)
    )


def _vectorized(f):
    return lambda zs: np.array([f(z) for z in zs.tolist()])


def _extrapolations(monkeypatch):
    """A list that counts the port's epsilon-algorithm steps."""
    steps = []
    dqelg = quadpack._dqelg

    def counted(*args):
        steps.append(args[0])
        return dqelg(*args)

    monkeypatch.setattr(quadpack, "_dqelg", counted)
    return steps


# name: (scalar integrand, a, b, subintervals, ier, extrapolates)
BRANCHES = {
    "first pass accepted": (math.exp, 0.0, 1.0, 1, 0, False),
    "plain bisection": (math.sin, 0.0, 30.0, 4, 0, False),
    "a kink": (lambda z: abs(z - 0.3), 0.0, 1.0, 9, 0, True),
    "extrapolation 1/sqrt(z)": (lambda z: 1.0 / math.sqrt(z), 0.0, 1.0, 6, 0, True),
    "extrapolation ln z": (math.log, 0.0, 1.0, 6, 0, True),
    "(a, inf)": (lambda z: math.exp(-z), 0.5, INF, 5, 0, True),
    "(-inf, b)": (math.exp, -INF, 0.3, 5, 0, True),
    "(-inf, inf)": (lambda z: math.exp(-z * z), -INF, INF, 7, 0, True),
    "(-inf, inf) cauchy": (lambda z: 1.0 / (1.0 + z * z), -INF, INF, 3, 0, False),
    "limit 1/z": (lambda z: 1.0 / z, 0.0, 1.0, 300, 1, True),
    "limit 1/z on (1, inf)": (lambda z: 1.0 / z, 1.0, INF, 300, 1, True),
    # the epsilon table reaches its 50 entries and is cut
    "limit 1/(z ln^2 z)": (lambda z: 1.0 / (z * math.log(z) ** 2), 0.0, 0.5, 300, 1, True),
    # 1/sqrt(z) rounded to single precision
    "roundoff": (lambda z: float(np.float32(1.0 / math.sqrt(z))), 0.0, 1.0, 22, 2, True),
    "bad integrand 1/|z - 0.3|": (lambda z: 1.0 / abs(z - 0.3), 0.0, 1.0, 81, 3, True),
    "extrapolation roundoff cos": (math.cos, -INF, INF, 179, 4, True),
    "divergence z^-1.5": (lambda z: z ** -1.5, 0.0, 1.0, 6, 5, True),
    "divergence sin(z)/z on (0, inf)": (lambda z: math.sin(z) / z, 0.0, INF, 300, 5, True),
    "nan": (lambda z: math.nan, 0.0, 1.0, 11, 2, True),
}


@pytest.mark.parametrize("name", sorted(BRANCHES))
def test_every_branch_returns_quads_doubles(name, monkeypatch):
    f, a, b, last, ier, extrapolates = BRANCHES[name]
    steps = _extrapolations(monkeypatch)
    got = quadpack.qag(_vectorized(f), a, b)
    assert _same(got, _scipy(_vectorized(f), a, b)), got
    assert got[2:] == (last, ier)
    assert bool(steps) == extrapolates


@pytest.mark.parametrize("name", sorted(n for n in BRANCHES if BRANCHES[n][4]))
def test_every_error_exit_keeps_quads_value_as_the_partial(name):
    f, a, b, _, ier, _ = BRANCHES[name]
    with pytest.raises(DivergenceError) as exc:
        checked_quad(_vectorized(f), a, b)
    want = _scipy(_vectorized(f), a, b)[0]
    assert exc.value.partial == want or (math.isnan(want) and math.isnan(exc.value.partial))
    assert str(exc.value) == f"integral over ({a}, {b}) did not stabilize: {quadpack.REASONS[ier]}"


def test_each_subinterval_is_one_integrand_call():
    calls = []

    def f(zs):
        calls.append(zs.shape)
        return np.exp(-zs * zs)

    assert quadpack.qag(f, 0.0, 3.0)[2] == 1 and calls == [(21,)]
    calls.clear()
    last = quadpack.qag(f, 1.0, INF)[2]
    assert calls == [(15,)] * (2 * last - 1)
    calls.clear()
    last = quadpack.qag(f, -INF, INF)[2]
    assert calls == [(30,)] * (2 * last - 1)


def test_the_nodes_go_in_quadpacks_order_of_evaluation():
    for a, b in ((0.0, 1.0), (2.0, INF), (-INF, 0.5), (-INF, INF)):
        seen, batches = [], []
        scipy.integrate.quad(
            lambda z: seen.append(z) or 1.0 / (1.0 + z * z), a, b, limit=1, full_output=1
        )
        quadpack.qag(lambda zs: batches.append(zs.tolist()) or 1.0 / (1.0 + zs * zs), a, b)
        assert batches[0] == seen


@pytest.fixture
def held_to_quad(monkeypatch):
    """Hold every call of the adaptive routine to scipy's quad on the same integrand;
    the (a, b) of each call compared."""
    qag = quadpack.qag
    compared = []

    def checked(f, a, b):
        got = qag(f, a, b)
        assert _same(got, _scipy(f, a, b)), (a, b, got)
        compared.append((a, b))
        return got

    monkeypatch.setattr(quadpack, "qag", checked)
    return compared


def test_the_verify_oracles_are_quads_doubles(held_to_quad):
    assert verify.run_suite("moments").passed
    gamma = make_family("gamma")
    verify._stat_expectation(gamma, [2.0, 3.0], 2, lambda u: math.exp(-0.7 * u))
    assert len(held_to_quad) >= 48


def test_the_off_face_loglog_moment_is_quads_double(held_to_quad):
    loglog = make_family("pareto_loglog")
    for eta in ([-2.0, -2.5], [-3.0, 0.7], [-1.5, -1.2]):
        for m in (1, 2, 3, 4, 6):
            expfam.moment_suff_stat(loglog, eta, 2, m)
    assert len(held_to_quad) == 15


def test_func_pieces_are_quads_doubles(held_to_quad):
    Piece(0.0, INF, "func", func=lambda z: math.exp(-z)).integral(0.0, 1.0)
    Piece(0.0, INF, "func", func=lambda z: math.exp(-z)).integral(0.5, INF)
    Piece(0.0, 1.0, "func", func=lambda z: 1.0 / math.sqrt(z)).integral(0.0, 1.0)
    PiecewiseFunction.from_callable(lambda z: z ** 1.5 * math.exp(-z)).integral(0.0, INF)
    with pytest.raises(DivergenceError):
        Piece(0.0, 1.0, "func", func=lambda z: 1.0 / z if z > 0 else INF).integral(0.0, 1.0)
    assert len(held_to_quad) == 5


_AFFINE_RATE = ParameterPath(
    [PiecewiseFunction.constant(1.0), PiecewiseFunction([Piece(0.0, INF, "affine", c0=1.0, c1=1.0)])]
)


def test_the_levy_declines_are_quads_doubles(held_to_quad):
    gamma = make_family("gamma")
    singular = BaseMeasure(PiecewiseFunction.from_callable(lambda z: 1.0 / math.sqrt(z), hi=1.0))
    ctx = LevyContext.build(gamma, _AFFINE_RATE, singular, k=2)
    laplace_exponent(ctx, 1.0, 1.0)
    levy_density_u(ctx, 1.0, np.array([0.3, 0.7]))
    # a point the 21-point pass declines, and an infinite stretch
    levy_density_u(verify.nonhomogeneous_pareto_context(), 2.5, np.array([0.1, 1.0, 6.0]))
    affine = LevyContext.build(gamma, _AFFINE_RATE, BaseMeasure.lebesgue(1.0), k=2)
    levy_density_u(affine, INF, 0.7)
    assert held_to_quad == [(0.0, 1.0)] * 3 + [(0.0, 2.5), (0.0, INF)]


def test_an_infinite_stretch_that_diverges_keeps_quads_partial():
    # the partial scipy's quad gave with one eta per node
    # (test_levy pins those of a divergent base on a finite stretch)
    gamma = make_family("gamma")
    affine = LevyContext.build(gamma, _AFFINE_RATE, BaseMeasure.lebesgue(1.0), k=2)
    with pytest.raises(DivergenceError, match=r"\(0.0, inf\) did not stabilize: the limit") as exc:
        laplace_exponent(affine, INF, 1.0)
    assert exc.value.partial == 33.53146160022255


_GAUSSIANS = st.lists(
    st.tuples(
        st.floats(-3.0, 3.0),  # weight
        st.floats(0.05, 20.0),  # precision
        st.floats(-4.0, 4.0),  # centre
    ),
    min_size=1,
    max_size=3,
)
_ENDS = st.tuples(
    st.one_of(st.just(-INF), st.floats(-5.0, 5.0)),
    st.one_of(st.just(INF), st.floats(0.01, 8.0)),
)


@given(terms=_GAUSSIANS, ends=_ENDS, slope=st.floats(-1.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_random_smooth_integrands_give_quads_doubles(terms, ends, slope):
    a, width = ends
    b = width if math.isinf(width) else (a + width if math.isfinite(a) else width)

    def f(zs):
        out = np.zeros(zs.shape)
        for weight, precision, centre in terms:
            out = out + weight * np.exp(-precision * (zs - centre) ** 2)
        return out * (1.0 + slope * np.tanh(zs))

    got = quadpack.qag(f, a, b)
    assert _same(got, _scipy(f, a, b)), (got, a, b)
    if math.isfinite(a) and math.isfinite(b):
        val, _, last, ier = got
        done = last == 1 and ier == 0 and math.isfinite(val)
        assert quadpack.first_pass(f, a, b) == [val if done else None]
