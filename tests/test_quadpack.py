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


def test_each_step_is_one_integrand_call():
    calls = []

    def f(zs):
        calls.append(zs.shape)
        return np.exp(-zs * zs)

    assert quadpack.qag(f, 0.0, 3.0)[2] == 1 and calls == [(21,)]
    calls.clear()
    # the first rule, then both halves of each bisection in one call
    last = quadpack.qag(f, 1.0, INF)[2]
    assert last > 1 and calls == [(15,)] + [(30,)] * (last - 1)
    calls.clear()
    last = quadpack.qag(f, -INF, INF)[2]
    assert last > 1 and calls == [(30,)] + [(60,)] * (last - 1)


def _row(f, flat, i):
    """Row i of the batch integrand f as an integrand alone."""
    return lambda zs: np.asarray(f(zs, flat[i : i + 1]), dtype=float).reshape(-1)


# name: (scalar integrand of z and a point p, a, b, points)
_BATCHES = {
    # settled by the first rule, a kink that bisects, a singular end, 1/z to the limit
    "finite": (
        lambda z, p: [math.exp(z), abs(z - 0.3), 1.0 / math.sqrt(z), 1.0 / z][int(p)], 0.0, 1.0, range(4)
    ),
    "(a, inf)": (lambda z, p: math.exp(-p * z), 0.5, INF, (0.5, 1.0, 4.0)),
    "(-inf, b)": (lambda z, p: math.exp(p * z), -INF, 0.3, (1.0, 3.0)),
    "(-inf, inf)": (lambda z, p: math.exp(-p * z * z) + 1.0 / (1.0 + z * z), -INF, INF, (0.1, 1.0, 7.0)),
}


def _batch(g):
    """The array integrand over points of the scalar g(z, p), one node at a time."""

    def f(zs, points):
        zs = np.broadcast_to(zs, points.shape + zs.shape[-1:])
        return np.array([[g(z, p) for z in row] for row, p in zip(zs.tolist(), points.tolist())])

    return f


@pytest.mark.parametrize("name", sorted(_BATCHES))
def test_a_batch_gives_each_row_its_tuple_alone_and_quads(name):
    g, a, b, points = _BATCHES[name]
    f, points = _batch(g), np.array(points, dtype=float)
    calls = []
    rows = quadpack.qag(lambda zs, ps: calls.append(zs.shape) or f(zs, ps), a, b, points)
    lasts = [last for _, _, last, _ in rows]
    assert len(rows) == len(points) and 1 < max(lasts)
    for i, got in enumerate(rows):
        alone = _row(f, points, i)
        assert _same(got, quadpack.qag(alone, a, b)), (i, got)
        assert _same(got, _scipy(alone, a, b)), (i, got)
        assert float(got[0]).hex() == float(_scipy(alone, a, b)[0]).hex()
    # one call per step: the shared first rule, then the live rows' bisections
    n = 21 if math.isfinite(a) and math.isfinite(b) else (30 if math.isinf(a) and math.isinf(b) else 15)
    live = [sum(last > step for last in lasts) for step in range(1, max(lasts))]
    assert calls == [(n,)] + [(r, 2 * n) for r in live]
    assert len(calls) == max(lasts)


def test_a_batch_raises_its_lowest_failing_rows_error():
    g = lambda z, p: [math.exp(z), 1.0 / z, z ** -1.5, 1.0 / math.sqrt(z)][int(p)]
    f = _batch(g)
    # rows 1 and 2 fail, 1/z at the subdivision limit and z^-1.5 as divergent, either way round
    for points in ((0, 1, 2, 3), (3, 2, 1, 0)):
        points = np.array(points, dtype=float)
        want = _scipy(_row(f, points, 1), 0.0, 1.0)
        with pytest.raises(DivergenceError) as alone:
            checked_quad(_row(f, points, 1), 0.0, 1.0)
        with pytest.raises(DivergenceError) as exc:
            checked_quad(f, 0.0, 1.0, points)
        assert (str(exc.value), exc.value.partial) == (str(alone.value), alone.value.partial)
        assert str(exc.value) == f"integral over (0.0, 1.0) did not stabilize: {quadpack.REASONS[want[3]]}"
        assert exc.value.partial == want[0]
    # a row whose integrand raises stops the batch with its error
    with pytest.raises(ZeroDivisionError):
        checked_quad(_batch(lambda z, p: math.exp(z) if p else 1.0 / (z - 0.5)), 0.0, 1.0, np.array([1.0, 0.0]))


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
    """Hold every row of every call of QUADPACK's routine to scipy's quad on the
    same integrand, a batch's row as an integrand alone; the (a, b) of each row
    compared."""
    qag = quadpack.qag
    compared = []

    def checked(f, a, b, points=None):
        got = qag(f, a, b, points)
        if points is None:
            rows, alone = [got], [f]
        else:
            flat = points.reshape(-1)
            rows, alone = got, [_row(f, flat, i) for i in range(flat.size)]
        for row, g in zip(rows, alone):
            assert _same(row, _scipy(g, a, b)), (a, b, row)
            compared.append((a, b))
        return got

    monkeypatch.setattr(quadpack, "qag", checked)
    return compared


def test_the_verify_oracles_are_quads_doubles(held_to_quad):
    assert verify.run_suite("moments").passed
    gamma = make_family("gamma")
    verify._stat_expectation(gamma, [[2.0, 3.0]], 2, lambda u, th: math.exp(-th * u), [0.7])
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
    # a batch whose last point bisects while the first rule settles the others
    # (the pareto context over a func base of its doubles, which reaches
    # QUADPACK), and an infinite stretch
    pareto = verify.nonhomogeneous_pareto_context()
    ones = BaseMeasure(PiecewiseFunction.from_callable(lambda z: 1.0))
    pareto = LevyContext.build(pareto.family, pareto.path, ones, 1, require_conditions=False)
    levy_density_u(pareto, 2.5, np.array([0.1, 1.0, 6.0]))
    affine = LevyContext.build(gamma, _AFFINE_RATE, BaseMeasure.lebesgue(1.0), k=2)
    levy_density_u(affine, INF, 0.7)
    assert held_to_quad == [(0.0, 1.0)] * 3 + [(0.0, 2.5)] * 3 + [(0.0, INF)]


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
    # in a batch with the integrand shifted by 1, each row is its tuple alone
    shifted = quadpack.qag(lambda zs: f(zs - 1.0), a, b)
    batch = quadpack.qag(lambda zs, ps: f(zs - ps[..., None]), a, b, np.array([0.0, 1.0]))
    assert _same(batch[0], got) and _same(batch[1], shifted), (batch, a, b)
