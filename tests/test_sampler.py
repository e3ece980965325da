import hashlib
import math

import numpy as np
import pytest

from crmkit import expfam, levy, sampler
from crmkit.errors import AtomLinkError, CrmError, NaturalSpaceError, TruncationError
from crmkit.expfam import ParameterPath, make_family
from crmkit.levy import BaseMeasure, LevyContext
from crmkit.piecewise import Piece, PiecewiseFunction
from crmkit.sampler import CRMDraw, evaluate_path, sample_crm, sample_likelihood


def _affine_base_ctx():
    """Base density z/2 on (0, 2]: mass 1, location mean 4/3."""
    base = BaseMeasure(PiecewiseFunction([Piece(0.0, 2.0, "affine", c0=0.0, c1=0.5)]))
    return LevyContext.build(
        make_family("gamma"), ParameterPath.constant([2.0, 3.0]), base, k=2
    )


def test_draw_validation():
    with pytest.raises(CrmError, match="positive"):
        CRMDraw(np.array([0.5]), np.array([-1.0]), np.array([1]), 1.0, 1, None)
    with pytest.raises(CrmError, match="locations"):
        CRMDraw(np.array([3.0]), np.array([1.0]), np.array([1]), 1.0, 1, None)
    with pytest.raises(CrmError, match="shape"):
        CRMDraw(np.array([0.5]), np.array([1.0, 2.0]), np.array([1]), 1.0, 1, None)


def test_draw_csv_and_id():
    draw = CRMDraw(np.array([0.5]), np.array([1.25]), np.array([1]), 1.0, 1, 0.0)
    text = draw.csv_text()
    assert text == "component,location,weight\n1,0.5,1.25\n"
    assert draw.draw_id == hashlib.sha256(text.encode()).hexdigest()


def test_poisson_count_calibration(gamma_const_ctx):
    # mass over (0, 2] is 3; the count is Poisson(3)
    counts = [
        len(sample_crm([gamma_const_ctx], 2.0, np.random.default_rng([17, i])))
        for i in range(600)
    ]
    mean = np.mean(counts)
    se = np.std(counts, ddof=1) / math.sqrt(len(counts))
    assert abs(mean - 3.0) < 3 * se


def test_location_density_affine(rng):
    ctx = _affine_base_ctx()
    locs = []
    for i in range(400):
        d = sample_crm([ctx], 2.0, np.random.default_rng([23, i]))
        locs.extend(d.locations)
    locs = np.asarray(locs)
    se = locs.std(ddof=1) / math.sqrt(locs.size)
    assert abs(locs.mean() - 4.0 / 3.0) < 3 * se


def test_location_density_func_piece():
    base = BaseMeasure(PiecewiseFunction.from_callable(lambda z: math.exp(-z), lo=0.0, hi=2.0))
    ctx = LevyContext.build(
        make_family("gamma"), ParameterPath.constant([2.0, 3.0]), base, k=2
    )
    locs = []
    for i in range(400):
        locs.extend(sample_crm([ctx], 2.0, np.random.default_rng([29, i])).locations)
    locs = np.asarray(locs)
    # mean of z ~ e^{-z} truncated to (0, 2]
    want = (1.0 - 3.0 * math.exp(-2.0)) / (1.0 - math.exp(-2.0))
    se = locs.std(ddof=1) / math.sqrt(locs.size)
    assert abs(locs.mean() - want) < 3 * se


def test_jump_locations_are_exact():
    base = BaseMeasure(PiecewiseFunction.constant(0.0), jumps=((0.5, 1.0), (1.5, 1.0)))
    ctx = LevyContext.build(
        make_family("gamma"), ParameterPath.constant([2.0, 3.0]), base, k=2
    )
    seen = set()
    for i in range(40):
        d = sample_crm([ctx], 2.0, np.random.default_rng([31, i]))
        seen.update(np.round(d.locations, 12))
    assert seen <= {0.5, 1.5}
    assert seen


def test_weights_use_statistic(pareto_linear_ctx):
    # k=1 weight is ln S; for shape alpha(z) E[ln S] = 1/alpha(z) > 0
    weights = []
    for i in range(300):
        weights.extend(sample_crm([pareto_linear_ctx], 2.0, np.random.default_rng([37, i])).weights)
    weights = np.asarray(weights)
    assert np.all(weights > 0)


def test_nonpositive_weight_statistic_rejected(rng):
    # gamma k=1 weight ln S crosses zero
    ctx = LevyContext.build(
        make_family("gamma"),
        ParameterPath.constant([2.0, 3.0]),
        BaseMeasure.lebesgue(5.0),
        k=1,
    )
    with pytest.raises(CrmError, match="nonpositive weight"):
        sample_crm([ctx], 4.0, np.random.default_rng(0))


def test_infinite_base_mass_advice():
    base = BaseMeasure(PiecewiseFunction.from_callable(lambda z: 1.0 / z, lo=0.0, hi=1.0))
    ctx = LevyContext.build(
        make_family("gamma"), ParameterPath.constant([2.0, 3.0]), base, k=2
    )
    with pytest.raises(TruncationError, match="restrict the region"):
        sample_crm([ctx], 1.0, np.random.default_rng(0))


def test_truncation_tail_mass(gamma_const_ctx, gamma_unit_ctx):
    comps = [gamma_unit_ctx, gamma_unit_ctx, gamma_const_ctx]
    draw = sample_crm(comps, 1.0, np.random.default_rng(1), truncation=2)
    assert draw.truncation_level == 2
    assert set(np.unique(draw.component_index)) <= {1, 2}
    assert draw.tail_mass == pytest.approx(1.5)
    full = sample_crm(comps, 1.0, np.random.default_rng(1))
    assert full.tail_mass == 0.0


def test_atoms_sorted_by_location(gamma_const_ctx, gamma_unit_ctx):
    draw = sample_crm([gamma_const_ctx, gamma_unit_ctx], 3.0, np.random.default_rng(9))
    assert np.all(np.diff(draw.locations) >= 0)


def test_link_registry():
    assert set(sampler.link_names()) == {
        "bernoulli_prob",
        "lognormal_precision",
        "lognormal_variance",
        "pareto_shape",
        "poisson_rate",
    }
    rule = sampler.link_rule("bernoulli_prob")
    eta = rule(0.8)
    assert eta[0] == pytest.approx(math.log(0.8 / 0.2), rel=1e-12)
    with pytest.raises(CrmError):
        sampler.link_rule("no_such_link")


def test_sample_likelihood_bernoulli(rng):
    base = CRMDraw(
        np.array([0.3, 0.7]), np.array([0.2, 0.8]), np.array([1, 1]), 1.0, 1, 0.0
    )
    bern = make_family("bernoulli")
    hits = np.zeros(2)
    n = 3000
    for i in range(n):
        d = sample_likelihood(base, bern, "bernoulli_prob", np.random.default_rng([41, i]))
        hits += d.observations
    np.testing.assert_allclose(hits / n, [0.2, 0.8], atol=0.03)


def test_sample_likelihood_bad_link_reports_location():
    base = CRMDraw(np.array([0.4]), np.array([2.0]), np.array([1]), 1.0, 1, 0.0)
    bern = make_family("bernoulli")
    with pytest.raises(AtomLinkError) as exc:
        sample_likelihood(base, bern, "bernoulli_prob", np.random.default_rng(0))
    assert exc.value.location == 0.4


def test_evaluate_path_inclusive_of_atoms():
    draw = CRMDraw(
        np.array([0.5, 1.0]), np.array([2.0, 3.0]), np.array([1, 1]), 2.0, 1, 0.0
    )
    assert evaluate_path(draw, 0.25) == 0.0
    assert evaluate_path(draw, 0.5) == 2.0
    assert evaluate_path(draw, 1.0) == 5.0
    np.testing.assert_allclose(evaluate_path(draw, [0.0, 0.5, 2.0]), [0.0, 2.0, 5.0])


def test_draw_determinism(gamma_const_ctx):
    a = sample_crm([gamma_const_ctx], 2.0, np.random.default_rng(1234))
    b = sample_crm([gamma_const_ctx], 2.0, np.random.default_rng(1234))
    assert a.draw_id == b.draw_id


def test_superposition_laplace_functional(gamma_const_ctx, gamma_unit_ctx):
    comps = [gamma_const_ctx, gamma_unit_ctx]
    t = 1.0
    totals = np.array(
        [
            float(evaluate_path(sample_crm(comps, t, np.random.default_rng([43, i])), t))
            for i in range(4000)
        ]
    )
    for theta in (0.5, 1.0, 2.0):
        psi = sum(levy.laplace_exponent(c, t, theta) for c in comps)
        vals = np.exp(-theta * totals)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - math.exp(-psi)) < 3 * se


def _scalar_closed_location(piece, rem):
    """The per-atom const/affine inversion that the array path replaced."""
    lo = piece.lo
    if piece.kind == "const":
        return lo + rem / piece.c0
    r = rem + piece.c0 * lo + 0.5 * piece.c1 * lo * lo
    disc = piece.c0 * piece.c0 + 2.0 * piece.c1 * r
    denom = piece.c0 + np.sqrt(max(disc, 0.0))
    return 2.0 * r / denom


@pytest.mark.parametrize(
    "piece",
    [
        Piece(0.5, 2.0, "const", c0=3.0),
        Piece(0.25, 2.0, "affine", c0=1.5, c1=2.0),
        Piece(0.25, 2.0, "affine", c0=1.5, c1=-0.5),
        Piece(0.25, 2.0, "affine", c0=0.0, c1=0.5),
        Piece(0.25, 2.0, "affine", c0=1.5, c1=1e-17),
        Piece(0.25, 2.0, "affine", c0=1.5, c1=0.0),
    ],
    ids=["const", "affine", "decreasing", "zero-intercept", "c1-tiny", "c1-zero"],
)
def test_closed_location_equals_the_scalar_formulas(piece):
    mass = piece.integral(piece.lo, piece.hi)
    rem = np.concatenate([[0.0, 5e-324], np.random.default_rng(3).uniform(0.0, mass, 300), [mass]])
    want = np.array([_scalar_closed_location(piece, float(r)) for r in rem])
    assert sampler._closed_location(piece, rem).tobytes() == want.tobytes()


def test_closed_location_where_the_stable_form_cancels():
    # c0 = 0 at lo = 0: a zero remainder gives r = 0 and c0 + sqrt(disc) = 0
    piece = Piece(0.0, 2.0, "affine", c0=0.0, c1=0.5)
    rem = np.array([0.0, 5e-324, 0.25, 1.0])
    got = sampler._closed_location(piece, rem)
    assert got[0] == 0.0
    want = np.array([_scalar_closed_location(piece, float(r)) for r in rem[1:]])
    assert got[1:].tobytes() == want.tobytes()
    locs = sampler._sample_locations(_affine_base_ctx(), 2.0, 2, _FixedUniforms([0.0, 0.5]))
    assert locs[0] == np.nextafter(0.0, 1.0)
    assert locs[1] == pytest.approx(math.sqrt(2.0))

    # negative intercept, positive on (0.5, 2]: the mass from lo reaches rem
    piece = Piece(0.5, 2.0, "affine", c0=-0.4, c1=1.0)
    rem = np.array([0.0, 0.01, 0.075, 0.5])
    z = sampler._closed_location(piece, rem)
    assert z[[0, 2]] == pytest.approx([0.5, 0.8], rel=1e-15)
    assert np.all(z >= 0.5)
    assert piece.c0 * (z - 0.5) + 0.5 * piece.c1 * (z * z - 0.25) == pytest.approx(rem, abs=1e-15)

    with pytest.raises(CrmError, match="not positive"):
        sampler._closed_location(Piece(0.0, 2.0, "affine", c0=-1.0, c1=0.0), np.array([0.5]))


class _FixedUniforms:
    """Stands in for a generator whose next uniforms are known."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        assert size == self.u.size
        return self.u.copy()


def test_sample_locations_equals_the_scalar_loop():
    base = BaseMeasure(
        PiecewiseFunction(
            [
                Piece(0.0, 0.5, "const", c0=2.0),
                Piece(0.5, 1.2, "affine", c0=1.0, c1=2.0),
                Piece(1.2, 1.6, "func", func=lambda z: math.exp(-z)),
                Piece(1.6, 2.5, "affine", c0=0.75, c1=1e-17),
            ]
        ),
        jumps=((0.3, 0.4), (1.4, 0.2)),
    )
    ctx = LevyContext.build(make_family("gamma"), ParameterPath.constant([2.0, 3.0]), base, k=2)
    z_max = 2.0
    clipped = [sampler._clip_piece(p, z_max) for p in base.density.pieces]
    segments = [(p.integral(p.lo, p.hi), p) for p in clipped]
    segments += [(mass, loc) for loc, mass in base.jumps_in(0.0, z_max)]
    cum = np.cumsum([m for m, _ in segments])
    # u = 0 puts a zero remainder on the first piece's lower edge
    u = np.concatenate([[0.0], cum[:-1] / cum[-1], np.random.default_rng(19).random(400)])

    want = np.empty(u.size)
    v = u * cum[-1]
    idx = np.searchsorted(cum, v, side="right")
    for j in range(u.size):
        seg = segments[idx[j]][1]
        if isinstance(seg, float):
            want[j] = seg
            continue
        rem = float(v[j] - (cum[idx[j] - 1] if idx[j] > 0 else 0.0))
        if seg.kind == "func":
            loc = sampler._piece_location(seg, rem)
        else:
            loc = _scalar_closed_location(seg, rem)
        want[j] = min(max(loc, np.nextafter(seg.lo, np.inf)), seg.hi)

    got = sampler._sample_locations(ctx, z_max, u.size, _FixedUniforms(u))
    assert got.tobytes() == want.tobytes()
    assert got[0] == np.nextafter(0.0, 1.0)
    assert set(idx.tolist()) == set(range(len(segments)))


def _leaving_gamma_ctx():
    """Gamma shape 2 - 2z on (0, 2]: outside the natural space from z = 1 on."""
    path = ParameterPath(
        [
            PiecewiseFunction([Piece(0.0, 2.0, "affine", c0=2.0, c1=-2.0)]),
            PiecewiseFunction.constant(3.0),
        ]
    )
    return LevyContext.build(
        make_family("gamma"), path, BaseMeasure.lebesgue(20.0, hi=2.0), k=2,
        require_conditions=False,
    )


def test_sample_crm_natural_space_error_names_component_and_location(gamma_unit_ctx):
    with pytest.raises(NaturalSpaceError) as exc:
        sample_crm([gamma_unit_ctx, _leaving_gamma_ctx()], 2.0, np.random.default_rng(2))
    msg = str(exc.value)
    head, _, scalar = msg.partition(": ")
    assert head.startswith("component 2, atom at location ")
    z = float(head.rsplit(" ", 1)[1])
    assert 1.0 <= z <= 2.0
    assert scalar == f"gamma: shape must be positive, got {2.0 + -2.0 * z}"
    assert exc.value.coord == 1
