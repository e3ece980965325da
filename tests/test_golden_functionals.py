"""Pinned bits of the Levy functionals.

On a stretch where the parameter path is one constant, a location integral
is the closed form h(eta) A_0(stretch); elsewhere it is, per base piece, one
21-point Gauss-Kronrod pass over a batch of eta, the double QUADPACK's
``quad`` returns when it stops after that pass.  Every result is a Python
float, and every ``repr`` here is fixed.  The ``classify_activity`` masses
are the exact base masses A_0((0, t]).
"""

import math

import numpy as np
import pytest
import scipy.integrate

from crmkit import levy, verify
from crmkit.expfam import ParameterPath, make_family
from crmkit.levy import (
    BaseMeasure,
    LevyContext,
    classify_activity,
    density_table,
    laplace_exponent,
    levy_density_u,
)
from crmkit.piecewise import Piece, PiecewiseFunction, checked_quad

INF = math.inf


def _contexts():
    gamma = make_family("gamma")
    loglog = make_family("pareto_loglog")
    const = PiecewiseFunction.constant
    return {
        "gamma_k1": LevyContext.build(
            gamma, ParameterPath.constant([1.5, 2.0]), BaseMeasure.lebesgue(1.0), k=1
        ),
        "gamma_k2": LevyContext.build(
            gamma, ParameterPath.constant([2.0, 3.0]), BaseMeasure.lebesgue(1.5), k=2
        ),
        # off the face: every A(eta) takes ln Gamma(a, x) in doubles
        "loglog_off": LevyContext.build(
            loglog,
            ParameterPath.constant([-2.0, -2.5]),
            BaseMeasure.lebesgue(1.0),
            k=1,
            require_conditions=False,
        ),
        # piecewise-constant shape with an interior breakpoint at z=1
        "piecewise": LevyContext.build(
            gamma,
            ParameterPath(
                [
                    PiecewiseFunction(
                        [Piece(0.0, 1.0, "const", c0=2.0), Piece(1.0, INF, "const", c0=3.0)]
                    ),
                    const(3.0),
                ]
            ),
            BaseMeasure.lebesgue(1.0),
            k=2,
        ),
        # overrides inside a stretch (0.5) and on a point mass (1.25)
        "override": LevyContext.build(
            gamma,
            ParameterPath.constant([2.0, 3.0])
            .with_override(0.5, [4.0, 2.0])
            .with_override(1.25, [3.0, 1.5]),
            BaseMeasure(const(1.0), ((1.25, 2.0),)),
            k=2,
        ),
        # base density with a gap on (1, 2] and a point mass inside the gap
        "gap_jump": LevyContext.build(
            gamma,
            ParameterPath.constant([2.0, 3.0]),
            BaseMeasure(
                PiecewiseFunction(
                    [Piece(0.0, 1.0, "const", c0=1.0), Piece(2.0, INF, "const", c0=2.0)]
                ),
                ((1.5, 0.7),),
            ),
            k=2,
        ),
        # paths that are not constant: an affine rate, an affine second
        # coordinate over a ratio base, an affine pareto shape, and a func
        # shape with an affine-then-const rate over an affine-then-const base
        # with a point mass
        "gamma_affine": verify.gamma_decomposition_context(1, 2),
        "beta_ratio": verify.beta_decomposition_context(2),
        "pareto_affine": verify.nonhomogeneous_pareto_context(),
        "func_path": LevyContext.build(
            gamma,
            ParameterPath(
                [
                    PiecewiseFunction.from_callable(lambda z: 2.0 + 0.5 * math.sin(z)),
                    PiecewiseFunction(
                        [Piece(0.0, 1.0, "affine", c0=3.0, c1=-1.0), Piece(1.0, INF, "const", c0=2.0)]
                    ),
                ]
            ),
            BaseMeasure(
                PiecewiseFunction(
                    [Piece(0.0, 1.0, "affine", c0=1.0, c1=0.5), Piece(1.0, INF, "const", c0=2.0)]
                ),
                ((0.75, 0.3),),
            ),
            k=2,
        ),
    }


NON_CONSTANT = ("gamma_affine", "beta_ratio", "pareto_affine", "func_path")

# context: ((t, u), (t, theta), (t, us), classify horizon or None)
CALLS = {
    "gamma_k1": ((1.0, 0.3), (1.0, 0.5), (2.0, (-1.0, 0.25, 1.0)), None),
    "gamma_k2": ((1.0, 0.7), (1.0, 2.0), (2.5, (0.1, 1.0, 3.0)), 1.0),
    "loglog_off": ((1.0, 1.5), (0.5, 0.8), (1.0, (1.1, 2.0, 3.5)), None),
    "piecewise": ((2.0, 0.7), (2.0, 1.0), (1.5, (0.2, 1.0, 2.5)), 1.0),
    "override": ((2.0, 0.7), (2.0, 1.0), (1.0, (0.2, 1.0, 2.5)), 1.0),
    "gap_jump": ((3.0, 0.7), (3.0, 1.0), (3.0, (0.2, 1.0, 2.5)), 3.0),
    "gamma_affine": ((1.0, 0.7), (1.0, 2.0), (2.5, (0.1, 1.0, 3.0)), 1.0),
    "beta_ratio": ((1.0, -0.3), (2.0, 0.6), (1.5, (-2.0, -0.5, -0.05)), 1.0),
    "pareto_affine": ((1.0, 0.4), (2.0, 0.8), (1.5, (0.1, 1.0, 4.0)), 1.0),
    "func_path": ((2.0, 0.7), (2.0, 1.0), (1.5, (0.2, 1.0, 2.5)), 1.0),
}

PINNED = {
    ("gamma_k1", "levy_density_u"): "0.33648065961951873",
    ("gamma_k1", "laplace_exponent"): "-0.5957691216057306",
    ("gamma_k1", "density_table"): "[(2.0, -1.0, 0.6824208745919488), (2.0, 0.25, 0.7121970542030885), (2.0, 1.0, 0.12456676174542843)]",
    ("gamma_k2", "levy_density_u"): "1.1572132469906795",
    ("gamma_k2", "laplace_exponent"): "0.9599999999999999",
    ("gamma_k2", "density_table"): "[(2.5, 0.1, 2.5002614948007986), (2.5, 1.0, 1.6803135574154084), (2.5, 3.0, 0.012495242663776305)]",
    ("gamma_k2", "classify_activity"): "('FiniteActivity', 1.5)",
    ("loglog_off", "levy_density_u"): "0.6401495186524663",
    ("loglog_off", "laplace_exponent"): "0.3290705249322527",
    ("loglog_off", "density_table"): "[(1.0, 1.1, 2.0736986778475015), (1.0, 2.0, 0.18914172293059767), (1.0, 3.5, 0.010417187861791688)]",
    ("piecewise", "levy_density_u"): "1.581524770887262",
    ("piecewise", "laplace_exponent"): "1.0156249999999996",
    ("piecewise", "density_table"): "[(1.5, 0.2, 1.1360400867146347), (1.5, 1.0, 0.7841463267938571), (1.5, 2.5, 0.03577764519393798)]",
    ("piecewise", "classify_activity"): "('NotTimeHomogeneous', 1.0)",
    ("override", "levy_density_u"): "2.121660548580146",
    ("override", "laplace_exponent"): "2.4429999999999996",
    ("override", "density_table"): "[(1.0, 0.2, 0.9878609449692475), (1.0, 1.0, 0.44808361531077556), (1.0, 2.5, 0.012444398328326252)]",
    ("override", "classify_activity"): "('NotTimeHomogeneous', 1.0)",
    ("gap_jump", "levy_density_u"): "2.8544593425770093",
    ("gap_jump", "laplace_exponent"): "1.6187499999999995",
    ("gap_jump", "density_table"): "[(3.0, 0.2, 3.655085496386216), (3.0, 1.0, 1.6579093766498694), (3.0, 2.5, 0.046044273814807135)]",
    ("gap_jump", "classify_activity"): "('NotTimeHomogeneous', 3.7)",
    # pinned when every non-constant stretch still ran scipy's quad
    ("gamma_affine", "levy_density_u"): "0.0292169905522886",
    ("gamma_affine", "laplace_exponent"): "0.11565489012728797",
    ("gamma_affine", "density_table"): "[(2.5, 0.1, 0.038187373601423415), (2.5, 1.0, 0.12082131331790555), (2.5, 3.0, 0.039096248755803115)]",
    ("gamma_affine", "classify_activity"): "('NotTimeHomogeneous', 0.125)",
    ("beta_ratio", "levy_density_u"): "0.037973228266667214",
    ("beta_ratio", "laplace_exponent"): "-4.213633139653034",
    ("beta_ratio", "density_table"): "[(1.5, -2.0, 0.23491896130992387), (1.5, -0.5, 0.11984586374172355), (1.5, -0.05, 0.0009741724467552071)]",
    ("beta_ratio", "classify_activity"): "('NotTimeHomogeneous', 0.4246358550964382)",
    ("pareto_affine", "levy_density_u"): "0.38469959718815616",
    ("pareto_affine", "laplace_exponent"): "1.0022103747962943",
    ("pareto_affine", "density_table"): "[(1.5, 0.1, 1.018582711118352), (1.5, 1.0, 0.4421745996289255), (1.5, 4.0, 0.061415545922708474)]",
    ("pareto_affine", "classify_activity"): "('NotTimeHomogeneous', 1.0)",
    ("func_path", "levy_density_u"): "2.3822918216691837",
    ("func_path", "laplace_exponent"): "2.1112655379935474",
    ("func_path", "density_table"): "[(1.5, 0.2, 1.1042411881767602), (1.5, 1.0, 1.4433457314380616), (1.5, 2.5, 0.19402504344718774)]",
    ("func_path", "classify_activity"): "('NotTimeHomogeneous', 1.55)",
}


@pytest.fixture(scope="module")
def contexts():
    return _contexts()


@pytest.mark.parametrize("name", sorted(CALLS))
def test_functionals_keep_their_bits(contexts, name):
    ctx = contexts[name]
    density_at, laplace_at, table_at, horizon = CALLS[name]
    assert repr(levy_density_u(ctx, *density_at)) == PINNED[name, "levy_density_u"]
    assert repr(laplace_exponent(ctx, *laplace_at)) == PINNED[name, "laplace_exponent"]
    assert repr(density_table(ctx, *table_at)) == PINNED[name, "density_table"]
    if horizon is not None:
        res = classify_activity(ctx, horizon)
        assert repr((type(res).__name__, res.total_mass)) == PINNED[name, "classify_activity"]


class _NoQuadrature(Exception):
    pass


def _refuse_quad(*args, **kwargs):
    raise _NoQuadrature


@pytest.mark.parametrize("name", NON_CONSTANT)
def test_each_non_constant_stretch_takes_the_pass_and_equals_checked_quad(
    contexts, name, monkeypatch
):
    quad = scipy.integrate.quad
    stretch_integral = levy._stretch_integral
    compared = []

    def against_checked_quad(ctx, h, x, piece, lo, hi):
        got = stretch_integral(ctx, h, x, piece, lo, hi)  # quad is refused here
        with monkeypatch.context() as m:
            m.setattr(scipy.integrate, "quad", quad)
            for point, value in zip(np.ravel(x).tolist(), np.ravel(got).tolist()):
                want = checked_quad(lambda z: h(ctx.path.eval(z), point) * piece.value(z), lo, hi)
                assert value == pytest.approx(want, rel=1e-13, abs=0.0)
        compared.append((lo, hi))
        return got

    monkeypatch.setattr(scipy.integrate, "quad", _refuse_quad)
    monkeypatch.setattr(levy, "_stretch_integral", against_checked_quad)
    ctx = contexts[name]
    density_at, laplace_at, table_at, _ = CALLS[name]
    levy_density_u(ctx, *density_at)
    laplace_exponent(ctx, *laplace_at)
    density_table(ctx, *table_at)
    assert compared


@pytest.mark.parametrize("name", sorted(CALLS))
def test_a_batch_of_u_gives_each_one_point_double(contexts, name):
    ctx = contexts[name]
    (t, u), _, (t_table, us), _ = CALLS[name]
    for t in (t, t_table):
        singles = [levy_density_u(ctx, t, point) for point in (u, *us)]
        assert levy_density_u(ctx, t, np.array((u, *us))).tolist() == singles


def test_a_batch_whose_pass_declines_some_points_runs_quad_for_those_alone(contexts, monkeypatch):
    ctx = contexts["pareto_affine"]
    us = (0.1, 1.0, 6.0)
    passes, quads = [], []
    gk21, quad = levy._gk21, scipy.integrate.quad

    def spied_gk21(*args):
        passes.append(gk21(*args))
        return passes[-1]

    def spied_quad(f, a, b, **kwargs):
        quads.append((a, b))
        return quad(f, a, b, **kwargs)

    monkeypatch.setattr(levy, "_gk21", spied_gk21)
    monkeypatch.setattr(scipy.integrate, "quad", spied_quad)
    batch = levy_density_u(ctx, 2.5, np.array(us))
    # one stretch (0, 2.5]: the pass takes the first two u, quad the last alone
    assert [[v is None for v in p] for p in passes] == [[False, False, True]]
    assert quads == [(0.0, 2.5)]
    assert batch.tolist() == [levy_density_u(ctx, 2.5, u) for u in us]


def test_loglog_moment_oracle_keeps_its_bits():
    spec = make_family("pareto_loglog")
    want, rel = verify._moment_oracle(spec, [-2.0, -2.5], 2, 2)
    assert (repr(want), rel) == ("0.16258478853279784", 1e-6)
