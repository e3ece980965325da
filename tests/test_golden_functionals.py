"""Pinned bits of the Levy functionals.

A location integral takes one of three stretch kinds.  On a stretch where
the parameter path is one constant it is the closed form h(eta) A_0(stretch).
On an exponential-polynomial stretch, where one coordinate of the path is
affine and the base cancels the family's normaliser to a polynomial, a
density is the closed form of the polynomial times an exponential, rounded
once from long double; ``laplace_exponent`` still integrates there.
Elsewhere it is, per base piece, QUADPACK's routine, whose first 21-point
Gauss-Kronrod pass over a batch of eta gives the double ``quad`` returns
when it stops after that pass.  Every result is a Python float, and every
``repr`` here is fixed.  The ``classify_activity`` masses are the exact base
masses A_0((0, t]).
"""

import hashlib
import math

import numpy as np
import pytest

from crmkit import expfam, levy, quadpack, verify
from crmkit.construct import DiscretizationPlan, discrete_laplace
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


def _quad_twin(ctx):
    """ctx with its one base piece as a ``func`` piece of the same doubles: every
    stretch then reaches QUADPACK, with the integrand values of ctx."""
    (piece,) = ctx.base.density.pieces
    twin = Piece(piece.lo, piece.hi, "func", func=lambda z: float(piece.value(z)))
    return LevyContext.build(
        ctx.family, ctx.path, BaseMeasure(PiecewiseFunction([twin])), ctx.k,
        require_conditions=ctx.require_conditions,
    )


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
        # several point masses on an affine rate, one of them under an override
        "jumps": LevyContext.build(
            gamma,
            ParameterPath(
                [const(2.0), PiecewiseFunction([Piece(0.0, INF, "affine", c0=3.0, c1=0.5)])]
            ).with_override(1.25, [3.0, 1.5]),
            BaseMeasure(const(1.0), ((0.4, 0.5), (1.25, 2.0), (2.5, 0.75))),
            k=2,
        ),
        # paths that are not constant: an affine rate, an affine second
        # coordinate over a ratio base and an affine pareto shape, each
        # exponential-polynomial, their twins over a func base, which reach
        # QUADPACK, and a func shape with an affine-then-const rate over an
        # affine-then-const base with a point mass
        "gamma_affine": verify.gamma_decomposition_context(1, 2),
        "beta_ratio": verify.beta_decomposition_context(2),
        "pareto_affine": verify.nonhomogeneous_pareto_context(),
        "gamma_affine_quad": _quad_twin(verify.gamma_decomposition_context(1, 2)),
        "beta_ratio_quad": _quad_twin(verify.beta_decomposition_context(2)),
        "pareto_affine_quad": _quad_twin(verify.nonhomogeneous_pareto_context()),
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


NON_CONSTANT = ("gamma_affine_quad", "beta_ratio_quad", "pareto_affine_quad", "func_path")

# context: ((t, u), (t, theta), (t, us), classify horizon or None)
CALLS = {
    "gamma_k1": ((1.0, 0.3), (1.0, 0.5), (2.0, (-1.0, 0.25, 1.0)), None),
    "gamma_k2": ((1.0, 0.7), (1.0, 2.0), (2.5, (0.1, 1.0, 3.0)), 1.0),
    "loglog_off": ((1.0, 1.5), (0.5, 0.8), (1.0, (1.1, 2.0, 3.5)), None),
    "piecewise": ((2.0, 0.7), (2.0, 1.0), (1.5, (0.2, 1.0, 2.5)), 1.0),
    "override": ((2.0, 0.7), (2.0, 1.0), (1.0, (0.2, 1.0, 2.5)), 1.0),
    "gap_jump": ((3.0, 0.7), (3.0, 1.0), (3.0, (0.2, 1.0, 2.5)), 3.0),
    "jumps": ((3.0, 0.7), (3.0, 1.0), (2.0, (0.2, 1.0, 2.5)), 1.0),
    "gamma_affine": ((1.0, 0.7), (1.0, 2.0), (2.5, (0.1, 1.0, 3.0)), 1.0),
    "beta_ratio": ((1.0, -0.3), (2.0, 0.6), (1.5, (-2.0, -0.5, -0.05)), 1.0),
    "pareto_affine": ((1.0, 0.4), (2.0, 0.8), (1.5, (0.1, 1.0, 4.0)), 1.0),
    "gamma_affine_quad": ((1.0, 0.7), (1.0, 2.0), (2.5, (0.1, 1.0, 3.0)), 1.0),
    "beta_ratio_quad": ((1.0, -0.3), (2.0, 0.6), (1.5, (-2.0, -0.5, -0.05)), 1.0),
    "pareto_affine_quad": ((1.0, 0.4), (2.0, 0.8), (1.5, (0.1, 1.0, 4.0)), 1.0),
    "func_path": ((2.0, 0.7), (2.0, 1.0), (1.5, (0.2, 1.0, 2.5)), 1.0),
}

PINNED = {
    ("gamma_k1", "levy_density_u"): "0.33648065961951884",
    ("gamma_k1", "laplace_exponent"): "-0.5957691216057306",
    ("gamma_k1", "density_table"): "[(2.0, -1.0, 0.6824208745919487), (2.0, 0.25, 0.7121970542030884), (2.0, 1.0, 0.1245667617454284)]",
    ("gamma_k2", "levy_density_u"): "1.1572132469906793",
    ("gamma_k2", "laplace_exponent"): "0.9599999999999999",
    ("gamma_k2", "density_table"): "[(2.5, 0.1, 2.500261494800798), (2.5, 1.0, 1.6803135574154084), (2.5, 3.0, 0.012495242663776307)]",
    ("gamma_k2", "classify_activity"): "('FiniteActivity', 1.5)",
    ("loglog_off", "levy_density_u"): "0.6401495186524664",
    ("loglog_off", "laplace_exponent"): "0.3290705249322527",
    ("loglog_off", "density_table"): "[(1.0, 1.1, 2.0736986778475015), (1.0, 2.0, 0.18914172293059772), (1.0, 3.5, 0.010417187861791698)]",
    ("piecewise", "levy_density_u"): "1.5815247708872615",
    ("piecewise", "laplace_exponent"): "1.0156249999999996",
    ("piecewise", "density_table"): "[(1.5, 0.2, 1.136040086714635), (1.5, 1.0, 0.7841463267938571), (1.5, 2.5, 0.03577764519393799)]",
    ("piecewise", "classify_activity"): "('NotTimeHomogeneous', 1.0)",
    ("override", "levy_density_u"): "2.1216605485801456",
    ("override", "laplace_exponent"): "2.4429999999999996",
    ("override", "density_table"): "[(1.0, 0.2, 0.9878609449692478), (1.0, 1.0, 0.44808361531077556), (1.0, 2.5, 0.012444398328326257)]",
    ("override", "classify_activity"): "('NotTimeHomogeneous', 1.0)",
    ("gap_jump", "levy_density_u"): "2.854459342577009",
    ("gap_jump", "laplace_exponent"): "1.6187499999999995",
    ("gap_jump", "density_table"): "[(3.0, 0.2, 3.6550854963862167), (3.0, 1.0, 1.6579093766498694), (3.0, 2.5, 0.04604427381480715)]",
    ("gap_jump", "classify_activity"): "('NotTimeHomogeneous', 3.7)",
    ("jumps", "levy_density_u"): "3.56020690175737",
    ("jumps", "laplace_exponent"): "3.1737052563644705",
    ("jumps", "density_table"): "[(2.0, 0.2, 3.0706887338978412), (2.0, 1.0, 1.7021138771633824), (2.0, 2.5, 0.5115632576656821)]",
    ("jumps", "classify_activity"): "('NotTimeHomogeneous', 1.5)",
    # densities on exponential-polynomial stretches, each the nearest double to a
    # 40-digit mpmath value; the Laplace exponents are quad's doubles
    ("gamma_affine", "levy_density_u"): "0.0292169905522886",
    ("gamma_affine", "laplace_exponent"): "0.11565489012728797",
    ("gamma_affine", "density_table"): "[(2.5, 0.1, 0.038187373601423415), (2.5, 1.0, 0.12082131331790556), (2.5, 3.0, 0.039096248755803115)]",
    ("gamma_affine", "classify_activity"): "('NotTimeHomogeneous', 0.125)",
    ("beta_ratio", "levy_density_u"): "0.03797322826666719",
    ("beta_ratio", "laplace_exponent"): "-4.213633139653034",
    ("beta_ratio", "density_table"): "[(1.5, -2.0, 0.23491896130992393), (1.5, -0.5, 0.11984586374172354), (1.5, -0.05, 0.0009741724467552073)]",
    ("beta_ratio", "classify_activity"): "('NotTimeHomogeneous', 0.4246358550964382)",
    ("pareto_affine", "levy_density_u"): "0.3846995971881561",
    ("pareto_affine", "laplace_exponent"): "1.0022103747962943",
    ("pareto_affine", "density_table"): "[(1.5, 0.1, 1.018582711118352), (1.5, 1.0, 0.4421745996289254), (1.5, 4.0, 0.06141554592270847)]",
    ("pareto_affine", "classify_activity"): "('NotTimeHomogeneous', 1.0)",
    # their twins over a func base reach QUADPACK and give the doubles scipy's quad
    # gives on the same integrand values; the beta and pareto twins' integrands read
    # their log statistic's terms from u
    ("gamma_affine_quad", "levy_density_u"): "0.0292169905522886",
    ("gamma_affine_quad", "laplace_exponent"): "0.11565489012728797",
    ("gamma_affine_quad", "density_table"): "[(2.5, 0.1, 0.038187373601423415), (2.5, 1.0, 0.12082131331790555), (2.5, 3.0, 0.039096248755803115)]",
    ("gamma_affine_quad", "classify_activity"): "('NotTimeHomogeneous', 0.125)",
    ("beta_ratio_quad", "levy_density_u"): "0.037973228266667214",
    ("beta_ratio_quad", "laplace_exponent"): "-4.213633139653034",
    ("beta_ratio_quad", "density_table"): "[(1.5, -2.0, 0.23491896130992396), (1.5, -0.5, 0.11984586374172354), (1.5, -0.05, 0.0009741724467552072)]",
    ("beta_ratio_quad", "classify_activity"): "('NotTimeHomogeneous', 0.42463585509643814)",
    ("pareto_affine_quad", "levy_density_u"): "0.3846995971881561",
    ("pareto_affine_quad", "laplace_exponent"): "1.0022103747962943",
    ("pareto_affine_quad", "density_table"): "[(1.5, 0.1, 1.0185827111183523), (1.5, 1.0, 0.44217459962892547), (1.5, 4.0, 0.06141554592270847)]",
    ("pareto_affine_quad", "classify_activity"): "('NotTimeHomogeneous', 1.0)",
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


def _spied_batches(monkeypatch) -> list:
    """The (a, b, subinterval counts) of each batch :func:`quadpack.qag` integrates."""
    qag, batches = quadpack.qag, []

    def spied(f, a, b, points=None):
        rows = qag(f, a, b, points)
        if points is not None:
            batches.append((a, b, [last for _, _, last, _ in rows]))
        return rows

    monkeypatch.setattr(quadpack, "qag", spied)
    return batches


@pytest.mark.parametrize("name", NON_CONSTANT)
def test_each_non_constant_stretch_takes_the_pass_and_equals_checked_quad(
    contexts, name, monkeypatch
):
    stretch_integral = levy._stretch_integral
    compared = []

    def against_checked_quad(stretch, h, x, piece, lo, hi):
        got = stretch_integral(stretch, h, x, piece, lo, hi)
        for point, value in zip(np.ravel(x).tolist(), np.ravel(got).tolist()):
            want = checked_quad(
                lambda zs: h(*expfam._bind_many(ctx.family, ctx.path.eval_many(zs).T), point)
                * piece.value(zs),
                lo,
                hi,
            )
            assert value == pytest.approx(want, rel=1e-13, abs=0.0)
        compared.append((lo, hi))
        return got

    batches = _spied_batches(monkeypatch)
    monkeypatch.setattr(levy, "_stretch_integral", against_checked_quad)
    ctx = contexts[name]
    density_at, laplace_at, table_at, _ = CALLS[name]
    levy_density_u(ctx, *density_at)
    laplace_exponent(ctx, *laplace_at)
    density_table(ctx, *table_at)
    assert compared
    # every point of every stretch stops after QUADPACK's first rule
    assert [(a, b) for a, b, _ in batches] == compared
    assert all(lasts == [1] * len(lasts) for _, _, lasts in batches)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_a_batch_of_u_gives_each_one_point_double(contexts, name):
    ctx = contexts[name]
    (t, u), _, (t_table, us), _ = CALLS[name]
    for t in (t, t_table):
        singles = [levy_density_u(ctx, t, point) for point in (u, *us)]
        assert levy_density_u(ctx, t, np.array((u, *us))).tolist() == singles


def test_a_batch_whose_pass_declines_some_points_runs_quad_for_those_alone(contexts, monkeypatch):
    ctx = contexts["pareto_affine_quad"]
    us = (0.1, 1.0, 6.0)
    batches = _spied_batches(monkeypatch)
    batch = levy_density_u(ctx, 2.5, np.array(us))
    # one stretch (0, 2.5]: the first rule settles the first two u, the last bisects
    ((a, b, lasts),) = batches
    assert (a, b, lasts[:2]) == (0.0, 2.5, [1, 1]) and lasts[2] > 1
    assert batch.tolist() == [levy_density_u(ctx, 2.5, u) for u in us]


def test_loglog_moment_oracle_keeps_its_bits():
    spec = make_family("pareto_loglog")
    ((want, rel),) = verify._moment_oracle(spec, [([-2.0, -2.5], 2, 2)])
    assert (repr(want), rel) == ("0.16258478853279784", 1e-6)


def _digest_contexts():
    """(context, u points in its weight image) covering const, affine and ``func``
    path pieces; const, affine, ratio, zero and ``func`` base pieces; point masses,
    one of them under an override; and both ``pareto_loglog`` branches."""
    gamma, beta, loglog = make_family("gamma"), make_family("beta"), make_family("pareto_loglog")
    const = PiecewiseFunction.constant

    def pieces(*ps):
        return PiecewiseFunction(list(ps))

    rate = pieces(Piece(0.0, INF, "affine", c0=3.0, c1=0.5))
    us = (0.2, 1.0, 2.5)
    return {
        "const": (
            LevyContext.build(gamma, ParameterPath.constant([2.0, 3.0]), BaseMeasure.lebesgue(1.5), k=2),
            us,
        ),
        "affine": (
            LevyContext.build(
                gamma,
                ParameterPath([const(2.0), rate]),
                BaseMeasure(
                    pieces(Piece(0.0, 1.5, "affine", c0=1.0, c1=0.5), Piece(1.5, INF, "const", c0=1.75))
                ),
                k=2,
            ),
            us,
        ),
        "func_path_ratio_base": (
            LevyContext.build(
                gamma,
                ParameterPath(
                    [PiecewiseFunction.from_callable(lambda z: 2.0 + 0.5 * math.sin(z)), const(3.0)]
                ),
                BaseMeasure(
                    pieces(
                        Piece(0.0, 2.0, "ratio", c0=1.0, c1=0.5, d0=1.0, d1=1.0),
                        Piece(2.0, 3.0, "ratio", c0=0.0, c1=0.0, d0=1.0, d1=1.0),
                        Piece(3.0, INF, "const", c0=0.75),
                    )
                ),
                k=2,
            ),
            us,
        ),
        "beta_ratio": (
            LevyContext.build(
                beta,
                ParameterPath([const(1.0), pieces(Piece(0.0, INF, "affine", c0=3.0, c1=1.0))]),
                BaseMeasure(pieces(Piece(0.0, INF, "ratio", c0=1.0, c1=1.0, d0=3.0, d1=1.0))),
                k=1,
            ),
            (-2.0, -0.5, -0.05),
        ),
        "func_base": (
            LevyContext.build(
                gamma,
                ParameterPath.constant([2.0, 3.0]),
                BaseMeasure(
                    pieces(
                        Piece(0.0, 2.5, "func", func=lambda z: 1.0 + 0.5 * math.cos(z)),
                        Piece(2.5, INF, "const", c0=1.0),
                    ),
                    ((0.75, 0.3),),
                ),
                k=2,
            ),
            us,
        ),
        "jumps_override": (
            LevyContext.build(
                gamma,
                ParameterPath([const(2.0), rate]).with_override(1.25, [3.0, 1.5]),
                BaseMeasure(const(1.0), ((0.4, 0.5), (1.25, 2.0), (2.5, 0.75))),
                k=2,
            ),
            us,
        ),
        **{
            name: (
                LevyContext.build(
                    loglog, ParameterPath.constant(eta), BaseMeasure.lebesgue(1.0), k=1,
                    require_conditions=False,
                ),
                (1.1, 2.0, 3.5),
            )
            for name, eta in (("loglog_off_face", [-2.0, -2.5]), ("loglog_on_face", [-1.0, -2.5]))
        },
    }


def _classified(res, us):
    """The fields of a classify_activity result, its weight density read at us."""
    fields = (type(res).__name__,) + tuple(
        getattr(res, f) for f in ("total_mass", "rate", "detail", "witnesses") if hasattr(res, f)
    )
    if getattr(res, "weight_density", None) is not None:
        fields += (res.weight_density(np.array(us)).tolist(),)
    return fields


FUNCTIONALS_DIGEST = "408df813ec8f191512b9581debcce19db0976b49f677442f10eeb700b9512760"


def test_functionals_digest_is_pinned():
    # one sha256 over the reprs of laplace_exponent, levy_density_u on an
    # array, classify_activity and discrete_laplace at two horizons per context
    lines = []
    for name, (ctx, us) in _digest_contexts().items():
        for t in (1.0, 2.5):
            values = (
                laplace_exponent(ctx, t, 0.5),
                levy_density_u(ctx, t, np.array(us)).tolist(),
                _classified(classify_activity(ctx, t), us),
                discrete_laplace(ctx, DiscretizationPlan.build(ctx, t, 8), t, 0.5),
            )
            lines.append(f"{name} {t} {values!r}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == FUNCTIONALS_DIGEST
