import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from crmkit import construct, expfam
from crmkit.errors import CrmError, NaturalSpaceError, TruncationError
from crmkit.expfam import ParameterPath, make_family
from crmkit.levy import BaseMeasure, LevyContext, laplace_exponent
from crmkit.piecewise import Piece, PiecewiseFunction


def test_plan_cells_cover_window(gamma_unit_ctx):
    plan = construct.DiscretizationPlan.build(gamma_unit_ctx, t=2.0, n=4)
    assert plan.n == 4
    assert len(plan.midpoints) == 8
    np.testing.assert_allclose(plan.masses, 0.25)
    np.testing.assert_allclose(plan.midpoints[:2], [0.125, 0.375])
    assert plan.etas.shape == (8, 2)


# case -> (base, cells per unit, horizon)
_MASS_CASES = {
    "const-affine-ratio": (
        BaseMeasure(PiecewiseFunction([
            Piece(0.0, 0.5, "const", c0=0.3),
            Piece(0.5, 1.25, "affine", c0=0.1, c1=0.7),
            Piece(1.25, math.inf, "ratio", c0=1.0, c1=0.5, d0=3.0, d1=1.0),
        ])),
        8, 3.0,
    ),
    # boundaries at 0.75 and 1.6 fall inside cells of width 1/7, a gap on (1.6, 1.9]
    # has no piece, and a callable piece integrates by quadrature
    "boundary-inside-a-cell": (
        BaseMeasure(PiecewiseFunction([
            Piece(0.0, 0.75, "affine", c0=0.2, c1=1.3),
            Piece(0.75, 1.6, "ratio", c0=0.0, c1=2.0, d0=1.0, d1=3.0),
            Piece(1.9, math.inf, "func", func=lambda z: math.exp(-z)),
        ])),
        7, 3.0,
    ),
    # jumps at 0 (in no cell), on the edges 0.25 (twice) and 0.5, inside a
    # cell, and past the horizon
    "jump-on-a-cell-edge": (
        BaseMeasure(
            PiecewiseFunction.constant(0.5),
            ((0.0, 1.0), (0.25, 0.3), (0.25, 0.7), (0.3, 0.1), (0.5, 2.0), (2.0, 4.0)),
        ),
        4, 1.0,
    ),
}


@pytest.mark.parametrize("case", sorted(_MASS_CASES))
def test_plan_masses_are_each_cells_increment_to_the_bit(case):
    base, n, horizon = _MASS_CASES[case]
    ctx = LevyContext.build(
        make_family("gamma"), ParameterPath.constant([2.0, 3.0]), base, k=2, require_conditions=False
    )
    plan = construct.DiscretizationPlan.build(ctx, t=horizon, n=n)
    idx = np.arange(1, len(plan.masses) + 1, dtype=float)
    want = [float(base.increment((i - 1.0) / n, i / n)).hex() for i in idx]
    assert [mass.hex() for mass in plan.masses.tolist()] == want


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


@pytest.mark.parametrize(
    "head, tail, cell, mass",
    [(1e300, 1e300, 1, "2.5e\\+299"), (4e12, 4e12, 1, "1000000000000.0"), (8.0, 4e12, 3, "1000000000004.0")],
    ids=["1e300", "4e12", "third-cell"],
)
def test_count_mode_cells_past_the_atom_cap_are_a_truncation_error(head, tail, cell, mass):
    # refused before any draw: the rng is left as it was
    density = PiecewiseFunction([Piece(0.0, 0.5, "const", c0=head), Piece(0.5, math.inf, "const", c0=tail)])
    ctx = LevyContext.build(make_family("gamma"), ParameterPath.constant([2.0, 3.0]), BaseMeasure(density), k=2)
    plan = construct.DiscretizationPlan.build(ctx, t=1.0, n=4)
    message = (
        f"^cell {cell} brings the summed base mass of the count-mode cells to {mass}, more than "
        "the 1e\\+08 expected atoms a draw may hold; restrict the base density$"
    )
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(TruncationError, match=message):
        construct.empirical_laplace(ctx, plan, 1.0, 1.0, 2, rng)
    with pytest.raises(TruncationError, match=message):
        construct.sample_discretized(ctx, plan, 1.0, rng)
    assert rng.bit_generator.state == state


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


def test_a_point_mass_cell_draws_a_poisson_count_so_the_transform_converges():
    # a point mass of 0.5 at z = 0.3 on a unit Lebesgue base: psi(1, 1) = 1.5 (1 - 9/16).
    # Kept by one Bernoulli draw, its cell's factor 1 - 0.5 (1 - 9/16) stayed off the
    # atom's exp(-0.5 (1 - 9/16)), and the gap stuck near 0.0144 at every n
    ctx = LevyContext.build(
        make_family("gamma"), ParameterPath.constant([2.0, 3.0]),
        BaseMeasure(PiecewiseFunction.constant(1.0), ((0.3, 0.5),)), k=2,
    )
    assert laplace_exponent(ctx, 1.0, 1.0) == pytest.approx(1.5 * (1.0 - 9.0 / 16.0), rel=1e-12)
    gaps = [
        construct.discretization_gap(ctx, construct.DiscretizationPlan.build(ctx, 1.0, n), 1.0, 1.0)
        for n in (64, 512, 4096)
    ]
    assert gaps[0] > gaps[1] > gaps[2] and gaps[2] < 1e-4, gaps
    # the point-mass cell is the only count-mode factor: exp(-A (1 - E)) with A = 0.5 + 1/4096
    plan = construct.DiscretizationPlan.build(ctx, 1.0, 4096)
    cell, gap = int(0.3 * 4096), 1.0 - 9.0 / 16.0
    want = math.exp(
        sum(math.log1p(-m * gap) for j, m in enumerate(plan.masses.tolist()) if j != cell)
        - plan.masses[cell] * gap
    )
    assert construct.discrete_laplace(ctx, plan, 1.0, 1.0) == pytest.approx(want, rel=1e-12)


def test_a_plan_reads_the_path_at_a_midpoint_without_its_atom_overrides():
    # an override at the first cell's midpoint z = 0.0625 (n = 8) with no point mass
    # there moves no functional, and no longer the discretized law: it read
    # eta = (20, 3) in that cell, and discrete_laplace gave 0.59052 for 0.63768
    base, family = BaseMeasure.lebesgue(1.0), make_family("gamma")
    plain = LevyContext.build(family, ParameterPath.constant([2.0, 3.0]), base, k=2)
    overridden = LevyContext.build(family, plain.path.with_override(0.0625, [20.0, 3.0]), base, k=2)
    plans = [construct.DiscretizationPlan.build(ctx, 1.0, 8) for ctx in (plain, overridden)]
    assert plans[1].etas.tolist() == plans[0].etas.tolist()
    transforms = [construct.discrete_laplace(ctx, plan, 1.0, 1.0) for ctx, plan in zip((plain, overridden), plans)]
    assert transforms[1] == transforms[0] == pytest.approx(0.63768, abs=5e-6)
    assert laplace_exponent(overridden, 1.0, 1.0) == laplace_exponent(plain, 1.0, 1.0)


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


def _small_cells(ctx, plan, hi):
    """Whether each of the first hi cells is small: mass <= 1 and no base point
    mass of positive mass in it, read cell by cell from ``jumps_in``."""
    n = plan.n
    return np.array([
        plan.masses[j] <= 1.0 and not any(m > 0.0 for _, m in ctx.base.jumps_in(j / n, (j + 1) / n))
        for j in range(hi)
    ], dtype=bool)


def _kept_cells(masses, small, rng):
    """The cells one replicate keeps, drawn as a chunk of one replicate draws
    them: N ~ Binomial(cells, p) candidates, p the largest mass of a small
    cell, placed by ``rng.choice`` and sorted, each kept by one uniform below
    its mass over p; no draw where p is 0."""
    keep = np.where(small, masses, 0.0)
    pick, top = np.zeros(len(masses), dtype=bool), keep.max()
    if top > 0.0:
        cand = np.sort(rng.choice(len(masses), rng.binomial(len(masses), top), replace=False, shuffle=False))
        pick[cand[rng.random(len(cand)) < keep[cand] / top]] = True
    return pick


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
        small = _small_cells(ctx, plan, len(plan.masses))
        pick = _kept_cells(plan.masses, small, rng)
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
    with pytest.raises(CrmError, match="horizon must be a finite number > 0, got t=nan"):
        construct.DiscretizationPlan.build(gamma_unit_ctx, math.nan, 4)
    plan = construct.DiscretizationPlan.build(gamma_unit_ctx, t=1.0, n=4)
    with pytest.raises(CrmError, match="window end nan is not within the planned horizon 1.0"):
        plan.cell_range(math.nan)
    # a negative end used to index the plan's cells from the end
    with pytest.raises(CrmError, match="window end -0.25 is not within the planned horizon 1.0"):
        plan.cell_range(-0.25)
    with pytest.raises(CrmError, match="theta must be a finite number >= 0, got nan"):
        construct.discrete_laplace(gamma_unit_ctx, plan, 1.0, math.nan)


def _draw_per_call(ctx, plan, t, rng):
    """A discretized draw with the window set up inside every call: each cell
    batch passes its rows to ``sample_each``, each count-mode cell its eta."""
    hi = plan.cell_range(t)
    if hi == 0:
        return 0.0
    masses, etas, stat = plan.masses[:hi], plan.etas[:hi], ctx.stat()
    small = _small_cells(ctx, plan, hi)
    pick = _kept_cells(masses, small, rng)
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
    # small masses 0.046875 to 0.265625, each its own: A_j / p differs per cell
    "affine-base": (
        "gamma", _AFFINE_RATE,
        BaseMeasure(PiecewiseFunction([Piece(0.0, math.inf, "affine", c0=0.25, c1=2.0)])), 2, 8, 1.0, 1.0,
    ),
    # point masses of 0.5 (small by mass, count-mode by the point mass), 0.0 (its
    # cell stays small) and 2.0, the last two on cell edges
    "point-masses": (
        "gamma", _AFFINE_RATE,
        BaseMeasure(PiecewiseFunction.constant(1.0), ((0.3, 0.5), (0.5, 0.0), (0.75, 2.0))), 2, 4, 1.0, 1.0,
    ),
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
    an empty window, small cells of differing mass, and point masses."""
    ctx, plan, t = _window_case(case)
    rng, ref = np.random.default_rng(2024), np.random.default_rng(2024)
    got = np.array([construct.sample_discretized(ctx, plan, t, rng) for _ in range(60)])
    want = np.array([_draw_per_call(ctx, plan, t, ref) for _ in range(60)])
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


# The cases whose statistic is ln s: e^{-theta ln s} = s^{-theta} has a finite
# fourth moment only where 4 theta < 2 (shape-2 gamma and Beta(2, .) weights),
# and the standard error is a valid scale only with it
_LOG_STAT_CASES = ("affine-small-only", "beta-k1")


@pytest.mark.parametrize("case", sorted(_WINDOW_CASES))
def test_the_batched_estimate_holds_its_exact_transform(case, monkeypatch):
    """The chunked estimate lies within 4 standard errors of the exact
    discretized transform, whether the replicates fill one chunk, chunks of
    seven with a short last one, or chunks of one; one seed gives the same
    bits; and chunks of one average exactly the one-replicate draws."""
    ctx, plan, t = _window_case(case)
    theta, replicates = (0.3 if case in _LOG_STAT_CASES else 0.7), 300
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


def test_cells_per_unit_and_replicates_must_be_integers(gamma_unit_ctx):
    # a bool is no number: True used to build cells of width 1
    for n in (True, 4.0):
        with pytest.raises(CrmError, match=f"cells per unit must be a positive integer, got {n}"):
            construct.DiscretizationPlan.build(gamma_unit_ctx, 1.0, n)
    plan = construct.DiscretizationPlan.build(gamma_unit_ctx, 1.0, np.int64(4))
    assert plan.n == 4 and type(plan.n) is int
    # 2.5 replicates used to end in a numpy TypeError
    for replicates in (2.5, True, 1):
        with pytest.raises(CrmError, match=f"replicates must be an integer >= 2, got {replicates}"):
            construct.empirical_laplace(gamma_unit_ctx, plan, 1.0, 1.0, replicates, np.random.default_rng(1))


@pytest.mark.parametrize("theta", [-1.0, math.nan, math.inf, True])
def test_empirical_laplace_refuses_a_theta_its_target_refuses(gamma_unit_ctx, theta):
    # theta = -1 used to return a mean near 1.94, theta = nan a nan mean; theta = inf
    # raised DivergenceError in the exact transforms, though psi is finite there
    plan = construct.DiscretizationPlan.build(gamma_unit_ctx, 1.0, 4)
    with pytest.raises(CrmError, match=f"^theta must be a finite number >= 0, got {theta}$"):
        laplace_exponent(gamma_unit_ctx, 1.0, theta)
    with pytest.raises(CrmError, match=f"^theta must be a finite number >= 0, got {theta}$"):
        construct.discrete_laplace(gamma_unit_ctx, plan, 1.0, theta)
    with pytest.raises(CrmError, match=f"^theta must be a finite number >= 0, got {theta}$"):
        construct.empirical_laplace(gamma_unit_ctx, plan, 1.0, theta, 100, np.random.default_rng(1))


def test_an_infinite_horizon_is_refused(gamma_unit_ctx):
    # it used to raise a bare OverflowError from the cell count
    with pytest.raises(CrmError, match="^horizon must be a finite number > 0, got t=inf$"):
        construct.DiscretizationPlan.build(gamma_unit_ctx, math.inf, 4)


def test_a_plan_refuses_a_horizon_shorter_than_one_cell(gamma_unit_ctx):
    with pytest.raises(CrmError) as exc:
        construct.DiscretizationPlan.build(gamma_unit_ctx, t=0.1, n=4)
    assert str(exc.value) == "horizon t=0.1 shorter than one cell width 1/4"


# case -> base density pieces on (0, 1], cut into n = 8 cells of width 1/8; the
# path is _AFFINE_RATE, whose eta differs in every cell
_LAW_CASES = {
    # small masses 0.0625, 0.0875, then 0.3 and 0.15: the accept step matters;
    # cells 3 and 4 (mass 5) are count-mode
    "differing": [
        Piece(0.0, 0.25, "affine", c0=0.4, c1=1.6),
        Piece(0.25, 0.5, "const", c0=40.0),
        Piece(0.5, 0.75, "const", c0=2.4),
        Piece(0.75, math.inf, "const", c0=1.2),
    ],
    # cell 3 has mass exactly 1.0, the largest small mass
    "unit-cell": [
        Piece(0.0, 0.25, "affine", c0=0.4, c1=1.6),
        Piece(0.25, 0.375, "const", c0=8.0),
        Piece(0.375, 0.5, "const", c0=40.0),
        Piece(0.5, math.inf, "const", c0=2.4),
    ],
    # every small mass is 0, the others count-mode
    "zero-small": [Piece(0.0, 0.5, "const", c0=0.0), Piece(0.5, math.inf, "const", c0=40.0)],
}


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("case", sorted(_LAW_CASES))
def test_each_small_cell_is_kept_binomially_often(case, seed):
    """Over R replicates, the number kept of small cell j is Binomial(R, A_j):
    a chi-square over the cells with 0 < A_j < 1; a cell of mass 1 is kept in
    every replicate, one of mass 0 and a count-mode cell in none."""
    gamma = make_family("gamma")
    kept = []

    def spy(eta, rng, size):
        if np.ndim(eta) == 2:  # the small cells' batch; count-mode cells pass one eta
            kept.extend(map(tuple, eta))
        return gamma.sampler(eta, rng, size)

    family = dataclasses.replace(gamma, sampler=spy)
    ctx = LevyContext.build(family, _AFFINE_RATE, BaseMeasure(PiecewiseFunction(_LAW_CASES[case])), k=2)
    plan = construct.DiscretizationPlan.build(ctx, t=1.0, n=8)
    replicates = 2000
    construct.empirical_laplace(ctx, plan, 1.0, 1.0, replicates, np.random.default_rng(seed))

    cell_of = {tuple(eta): j for j, eta in enumerate(plan.etas)}
    counts = np.bincount([cell_of[eta] for eta in kept], minlength=len(plan.masses))
    keep = np.where(plan.masses <= 1.0, plan.masses, 0.0)
    assert counts[keep == 0.0].tolist() == [0] * int(np.sum(keep == 0.0))
    assert counts[keep == 1.0].tolist() == [replicates] * int(np.sum(keep == 1.0))
    inner = (keep > 0.0) & (keep < 1.0)
    if inner.any():
        expected, var = replicates * keep[inner], replicates * keep[inner] * (1.0 - keep[inner])
        chi2 = float(np.sum((counts[inner] - expected) ** 2 / var))
        assert stats.chi2.sf(chi2, int(inner.sum())) > 1e-3


class _CountingRng:
    """A generator that counts the uniforms it hands out: each value of
    ``random`` and each position ``choice`` draws."""

    def __init__(self, rng):
        self._rng, self.uniforms = rng, 0

    def random(self, *args, **kwargs):
        out = self._rng.random(*args, **kwargs)
        self.uniforms += np.size(out)
        return out

    def choice(self, *args, **kwargs):
        out = self._rng.choice(*args, **kwargs)
        self.uniforms += np.size(out)
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_the_draw_takes_uniforms_in_proportion_to_the_kept_cells(gamma_unit_ctx):
    # 512 cells of mass 1/512 and 10^4 replicates: 10^4 kept pairs expected,
    # where one uniform per replicate and cell would be 5.12 million
    plan = construct.DiscretizationPlan.build(gamma_unit_ctx, t=1.0, n=512)
    rng = _CountingRng(np.random.default_rng(8))
    construct.empirical_laplace(gamma_unit_ctx, plan, 1.0, 1.0, 10_000, rng)
    expected_kept = 10_000 * float(plan.masses.sum())
    assert 0 < rng.uniforms <= 3 * expected_kept
