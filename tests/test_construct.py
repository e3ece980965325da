import math
import tracemalloc

import numpy as np
import pytest

from crmkit import construct, expfam
from crmkit.errors import CrmError, NaturalSpaceError
from crmkit.expfam import ParameterPath, make_family
from crmkit.levy import BaseMeasure, LevyContext
from crmkit.piecewise import Piece, PiecewiseFunction


def test_plan_cells_cover_window(gamma_unit_ctx):
    plan = construct.DiscretizationPlan.build(gamma_unit_ctx, t=2.0, n=4)
    assert plan.n == 4
    assert len(plan.midpoints) == 8
    np.testing.assert_allclose(plan.masses, 0.25)
    np.testing.assert_allclose(plan.midpoints[:2], [0.125, 0.375])
    assert plan.etas.shape == (8, 2)


def test_plan_window_errors(gamma_unit_ctx):
    plan = construct.DiscretizationPlan.build(gamma_unit_ctx, t=1.0, n=4)
    with pytest.raises(CrmError, match="horizon"):
        plan.cell_range(2.0)
    with pytest.raises(CrmError, match="grid"):
        plan.cell_range(0.9)


def test_discrete_laplace_exact_product(gamma_unit_ctx):
    # per-cell factor 1 - (1/16)(1 - 9/16), sixteen cells
    plan = construct.DiscretizationPlan.build(gamma_unit_ctx, t=1.0, n=16)
    want = (1.0 - (1.0 / 16.0) * (1.0 - 9.0 / 16.0)) ** 16
    assert construct.discrete_laplace(gamma_unit_ctx, plan, 1.0, 1.0) == pytest.approx(
        want, rel=1e-12
    )


def test_discrete_laplace_poisson_branch():
    # a single atom of mass 2.5 forces the count-mode cell transform
    ctx = LevyContext.build(
        make_family("gamma"),
        ParameterPath.constant([2.0, 3.0]),
        BaseMeasure(PiecewiseFunction.constant(0.0), jumps=((0.5, 2.5),)),
        k=2,
    )
    plan = construct.DiscretizationPlan.build(ctx, t=1.0, n=2)
    want = math.exp(-2.5 * (1.0 - 9.0 / 16.0))
    assert construct.discrete_laplace(ctx, plan, 1.0, 1.0) == pytest.approx(want, rel=1e-12)


# name -> (family, path, base, k, n, theta, distinct etas, discrete_laplace
# as a loop that binds every cell's eta computes it)
_PINNED_TRANSFORMS = {
    "gamma-k2": ("gamma", ParameterPath.constant([2.0, 3.0]), 1.0, 2, 512, 0.8, 1, "0.6860052693366462"),
    "poisson": ("poisson", ParameterPath.constant([0.5]), 1.0, 1, 512, 1.3, 1, "0.49703254745498104"),
    "gamma-decomposition": (
        "gamma",
        ParameterPath([
            PiecewiseFunction.constant(2.0),
            PiecewiseFunction([Piece(0.0, math.inf, "affine", c0=0.5, c1=0.5)]),
        ]),
        1.0 / 8.0, 2, 64, 1.1, 64, "0.9006538303211196",
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED_TRANSFORMS))
def test_discrete_laplace_binds_each_distinct_eta_once(name, monkeypatch):
    family, path, base, k, n, theta, distinct, want = _PINNED_TRANSFORMS[name]
    ctx = LevyContext.build(
        make_family(family), path, BaseMeasure.lebesgue(base), k=k, require_conditions=False
    )
    plan = construct.DiscretizationPlan.build(ctx, t=1.0, n=n)
    calls, original = [], construct.stat_laplace

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(construct, "stat_laplace", counted)
    assert repr(construct.discrete_laplace(ctx, plan, 1.0, theta)) == want
    # one call, on the batch of the distinct etas
    assert [args[1].shape for args in calls] == [(ctx.family.dimension, distinct)]


def test_discretization_gap_decreases(gamma_unit_ctx):
    gaps = []
    for n in (8, 32, 128):
        plan = construct.DiscretizationPlan.build(gamma_unit_ctx, t=1.0, n=n)
        gaps.append(construct.discretization_gap(gamma_unit_ctx, plan, 1.0, 1.0))
    assert gaps[0] > gaps[1] > gaps[2] > 0.0


def test_sample_discretized_total_statistic(gamma_unit_ctx, rng):
    plan = construct.DiscretizationPlan.build(gamma_unit_ctx, t=1.0, n=8)
    totals = [construct.sample_discretized(gamma_unit_ctx, plan, 1.0, rng) for _ in range(200)]
    assert all(x >= 0.0 for x in totals)
    assert any(x > 0.0 for x in totals)


def test_sample_discretized_deterministic(gamma_unit_ctx):
    plan = construct.DiscretizationPlan.build(gamma_unit_ctx, t=1.0, n=8)
    a = construct.sample_discretized(gamma_unit_ctx, plan, 1.0, np.random.default_rng(5))
    b = construct.sample_discretized(gamma_unit_ctx, plan, 1.0, np.random.default_rng(5))
    assert a == b


def test_empirical_laplace_tracks_discrete_value(gamma_unit_ctx):
    plan = construct.DiscretizationPlan.build(gamma_unit_ctx, t=1.0, n=16)
    est = construct.empirical_laplace(
        gamma_unit_ctx, plan, 1.0, 1.0, replicates=4000, rng=np.random.default_rng(11)
    )
    oracle = construct.discrete_laplace(gamma_unit_ctx, plan, 1.0, 1.0)
    assert est.replicates == 4000
    assert abs(est.mean - oracle) < 4 * est.se


def test_empirical_laplace_deterministic(gamma_unit_ctx):
    plan = construct.DiscretizationPlan.build(gamma_unit_ctx, t=1.0, n=8)
    a = construct.empirical_laplace(
        gamma_unit_ctx, plan, 1.0, 1.0, replicates=200, rng=np.random.default_rng(3)
    )
    b = construct.empirical_laplace(
        gamma_unit_ctx, plan, 1.0, 1.0, replicates=200, rng=np.random.default_rng(3)
    )
    assert a.mean == b.mean and a.se == b.se


def test_empirical_laplace_memory_is_bounded_by_the_chunk(gamma_unit_ctx):
    # an unchunked (replicates, cells) uniform block would take 41 MB here
    plan = construct.DiscretizationPlan.build(gamma_unit_ctx, t=1.0, n=512)
    tracemalloc.start()
    try:
        construct.empirical_laplace(gamma_unit_ctx, plan, 1.0, 1.0, 10_000, np.random.default_rng(8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_plan_natural_space_error_names_the_cell():
    # gamma shape 2 - 2z leaves the natural space at z = 1: the first bad
    # midpoint is 1.125, in cell 5 of width 1/4
    path = ParameterPath(
        [
            PiecewiseFunction([Piece(0.0, 2.0, "affine", c0=2.0, c1=-2.0)]),
            PiecewiseFunction.constant(3.0),
        ]
    )
    ctx = LevyContext.build(
        make_family("gamma"), path, BaseMeasure.lebesgue(1.0, hi=2.0), k=2,
        require_conditions=False,
    )
    with pytest.raises(NaturalSpaceError) as exc:
        construct.DiscretizationPlan.build(ctx, t=2.0, n=4)
    assert str(exc.value) == "cell 5, midpoint z=1.125: gamma: shape must be positive, got -0.25"
    assert exc.value.coord == 1 and exc.value.index == 4


def _sequential_sum(values):
    """The left-to-right sum, the order in which a draw adds up statistics."""
    total = 0.0
    for v in values:
        total += float(v)
    return total


def test_count_mode_cells_draw_what_binding_each_cell_drew():
    """Count-mode draws and the generator stream equal the route that bound the
    family at every count-mode cell's eta and drew through the bound family."""
    base = BaseMeasure(
        PiecewiseFunction([Piece(0.0, 0.5, "const", c0=2.0), Piece(0.5, math.inf, "const", c0=20.0)])
    )
    path = ParameterPath(
        [PiecewiseFunction.constant(2.0), PiecewiseFunction([Piece(0.0, math.inf, "affine", c0=1.0, c1=2.0)])]
    )
    ctx = LevyContext.build(make_family("gamma"), path, base, k=2)
    plan = construct.DiscretizationPlan.build(ctx, t=1.0, n=4)
    assert plan.masses.tolist() == [0.5, 0.5, 5.0, 5.0]

    def bound_route(rng):
        stat = ctx.stat()
        small = plan.masses <= 1.0
        pick = small & (rng.random(len(plan.masses)) < plan.masses)
        total = 0.0
        if np.any(pick):
            total += _sequential_sum(stat.value(expfam.sample_each(ctx.family, plan.etas[pick], rng)))
        for j in np.nonzero(~small)[0]:
            count = rng.poisson(plan.masses[j])
            if count:
                draws = ctx.family.at(plan.etas[j]).sample(rng, int(count))
                total += _sequential_sum(stat.value(draws))
        return total

    rng, ref = np.random.default_rng(4242), np.random.default_rng(4242)
    got = np.array([construct.sample_discretized(ctx, plan, 1.0, rng) for _ in range(50)])
    want = np.array([bound_route(ref) for _ in range(50)])
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


def test_a_nan_horizon_or_window_is_refused(gamma_unit_ctx):
    with pytest.raises(CrmError, match="horizon must be positive, got t=nan"):
        construct.DiscretizationPlan.build(gamma_unit_ctx, math.nan, 4)
    plan = construct.DiscretizationPlan.build(gamma_unit_ctx, t=1.0, n=4)
    with pytest.raises(CrmError, match="window end nan is not within the planned horizon 1.0"):
        plan.cell_range(math.nan)
    # a negative end used to index the plan's cells from the end
    with pytest.raises(CrmError, match="window end -0.25 is not within the planned horizon 1.0"):
        plan.cell_range(-0.25)
    with pytest.raises(CrmError, match="theta must be nonnegative, got nan"):
        construct.discrete_laplace(gamma_unit_ctx, plan, 1.0, math.nan)


def _draw_per_call(ctx, plan, t, rng):
    """A discretized draw with the window set up inside every call: each cell
    batch passes its rows to ``sample_each``, each count-mode cell its eta."""
    hi = plan.cell_range(t)
    if hi == 0:
        return 0.0
    masses, etas, stat = plan.masses[:hi], plan.etas[:hi], ctx.stat()
    small = masses <= 1.0
    pick = small & (rng.random(len(masses)) < masses)
    total = 0.0
    if np.any(pick):
        total += _sequential_sum(stat.value(expfam.sample_each(ctx.family, etas[pick], rng)))
    for j in np.nonzero(~small)[0]:
        count = rng.poisson(masses[j])
        if count:
            total += _sequential_sum(stat.value(ctx.family.sampler(etas[j], rng, int(count))))
    return total


def _two_level_base(low, high):
    return BaseMeasure(
        PiecewiseFunction([Piece(0.0, 0.5, "const", c0=low), Piece(0.5, math.inf, "const", c0=high)])
    )


_CONSTANT = ParameterPath.constant([2.0, 3.0])
_AFFINE_RATE = ParameterPath(
    [PiecewiseFunction.constant(2.0), PiecewiseFunction([Piece(0.0, math.inf, "affine", c0=1.0, c1=2.0)])]
)

# case -> (family, path, base, k, n, plan horizon, window end)
_WINDOW_CASES = {
    "constant-small-and-count": ("gamma", _CONSTANT, _two_level_base(2.0, 20.0), 2, 4, 1.0, 1.0),
    "affine-small-only": ("gamma", _AFFINE_RATE, BaseMeasure.lebesgue(1.5), 1, 8, 2.0, 2.0),
    "constant-partial": ("gamma", _CONSTANT, _two_level_base(1.0, 12.0), 2, 8, 1.5, 1.0),
    "affine-partial": ("gamma", _AFFINE_RATE, _two_level_base(1.0, 12.0), 2, 8, 1.5, 1.25),
    "beta-k1": ("beta", _CONSTANT, _two_level_base(2.0, 8.0), 1, 2, 1.0, 1.0),
    "empty-window": ("gamma", _CONSTANT, BaseMeasure.lebesgue(1.0), 2, 4, 1.0, 0.0),
}


def _window_case(case):
    family, path, base, k, n, z_hi, t = _WINDOW_CASES[case]
    ctx = LevyContext.build(make_family(family), path, base, k=k)
    return ctx, construct.DiscretizationPlan.build(ctx, t=z_hi, n=n), t


@pytest.mark.parametrize("case", sorted(_WINDOW_CASES))
def test_a_window_set_up_once_draws_what_a_per_call_window_drew(case):
    """Draws and the generator stream equal, bit for bit, the route that sets
    the window up in every call: one eta shared by every cell, per-cell etas,
    count-mode cells, windows that end inside the plan, beta's log statistic,
    an empty window."""
    ctx, plan, t = _window_case(case)
    rng, ref = np.random.default_rng(2024), np.random.default_rng(2024)
    got = np.array([construct.sample_discretized(ctx, plan, t, rng) for _ in range(60)])
    want = np.array([_draw_per_call(ctx, plan, t, ref) for _ in range(60)])
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("case", sorted(_WINDOW_CASES))
def test_the_batched_estimate_holds_its_exact_transform(case, monkeypatch):
    """The chunked estimate lies within 4 standard errors of the exact
    discretized transform, whether the replicates fill one chunk, chunks of
    seven with a short last one, or chunks of one; one seed gives the same
    bits; and chunks of one average exactly the one-replicate draws."""
    ctx, plan, t = _window_case(case)
    theta, replicates = 0.7, 300
    exact = construct.discrete_laplace(ctx, plan, t, theta)
    cells = plan.cell_range(t)

    def estimate():
        return construct.empirical_laplace(ctx, plan, t, theta, replicates, np.random.default_rng(99))

    for chunk_cells in (construct._CHUNK_CELLS, 7 * cells, 1):
        monkeypatch.setattr(construct, "_CHUNK_CELLS", chunk_cells)
        est = estimate()
        assert est.replicates == replicates
        assert abs(est.mean - exact) <= 4.0 * est.se, (chunk_cells, est, exact)
        assert estimate() == est
        if cells == 0:
            assert (est.mean, est.se, exact) == (1.0, 0.0, 1.0)

    rng = np.random.default_rng(99)
    draws = np.array([construct.sample_discretized(ctx, plan, t, rng) for _ in range(replicates)])
    assert est.mean == float(np.exp(-theta * draws).mean())


def test_empirical_laplace_sets_the_window_up_once(gamma_unit_ctx, monkeypatch):
    plan = construct.DiscretizationPlan.build(gamma_unit_ctx, t=1.0, n=8)
    calls = []
    cell_range = construct.DiscretizationPlan.cell_range

    def counted(*args, **kwargs):
        calls.append(args)
        return cell_range(*args, **kwargs)

    monkeypatch.setattr(construct.DiscretizationPlan, "cell_range", counted)
    construct.empirical_laplace(gamma_unit_ctx, plan, 1.0, 1.0, 500, np.random.default_rng(8))
    assert len(calls) == 1
