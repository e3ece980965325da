import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize, special

from crmkit import expfam, levy, sampler
from crmkit.errors import AtomLinkError, CrmError, NaturalSpaceError, TruncationError
from crmkit.expfam import ParameterPath, make_family
from crmkit.levy import BaseMeasure, LevyContext
from crmkit.piecewise import Piece, PiecewiseFunction
from crmkit.sampler import CRMDraw, evaluate_path, sample_crm, sample_likelihood

PARETO_SERIES = Path(__file__).resolve().parents[1] / "configs" / "pareto_series.json"


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


def test_an_unbounded_region_is_a_truncation_error(gamma_const_ctx):
    with pytest.raises(TruncationError, match="restrict the region"):
        sample_crm([gamma_const_ctx], math.inf, np.random.default_rng(0))


def test_a_draw_past_the_atom_cap_is_refused_before_any_count_is_drawn():
    # the summed base mass of the kept components passes 1e8 at component 2;
    # the rng is left as it was, so nothing was drawn or allocated
    small = _gamma_ctx([2.0, 3.0], BaseMeasure.lebesgue(5.0))
    huge = _gamma_ctx([2.0, 3.0], BaseMeasure.lebesgue(1e12))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    message = (
        r"^component 2 brings the summed base mass over \(0, 2.0\] to 2000000000010.0, more than "
        r"the 1e\+08 expected atoms a draw may hold; restrict the region or the base density$"
    )
    with pytest.raises(TruncationError, match=message):
        sample_crm([small, huge], 2.0, rng)
    assert rng.bit_generator.state == state
    # a truncation that drops the huge component draws the rest
    assert len(sample_crm([small, huge], 2.0, rng, truncation=1)) > 0


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
    with pytest.raises(CrmError) as exc:
        sampler.link_rule("no_such_link")
    assert str(exc.value) == (
        "unknown link rule 'no_such_link'; registered: bernoulli_prob, "
        "lognormal_precision, lognormal_variance, pareto_shape, poisson_rate"
    )


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


def test_sample_likelihood_names_the_first_bad_atom():
    base = CRMDraw(
        np.array([0.1, 0.4, 0.6, 0.9]), np.array([0.5, 2.0, 0.3, 4.0]), np.ones(4, int), 1.0, 1, 0.0
    )
    bern = make_family("bernoulli")
    with pytest.raises(AtomLinkError, match="location 0.4: .* got 2.0") as exc:
        sample_likelihood(base, bern, "bernoulli_prob", np.random.default_rng(0))
    assert exc.value.location == 0.4
    # a callable link is called per weight; its natural-space failure and a
    # wrong output shape both name the first bad atom
    lognormal = make_family("lognormal")
    with pytest.raises(AtomLinkError, match="location 0.6") as exc:
        sample_likelihood(base, lognormal, lambda w: (w - 0.4,), np.random.default_rng(0))
    assert exc.value.location == 0.6
    with pytest.raises(AtomLinkError, match=r"location 0.1: .*wanted \(1,\)"):
        sample_likelihood(base, lognormal, lambda w: (w, w), np.random.default_rng(0))
    # the first bad atom, whichever check it fails: logit(0.5) = 0 is no
    # lognormal precision, though the link first rejects the weight 2.0
    with pytest.raises(AtomLinkError, match="location 0.1: .*precision") as exc:
        sample_likelihood(base, lognormal, "bernoulli_prob", np.random.default_rng(0))
    assert exc.value.location == 0.1
    with pytest.raises(AtomLinkError, match=r"location 0.1: .*wanted \(2,\)"):
        sample_likelihood(base, make_family("gamma"), "poisson_rate", np.random.default_rng(0))


def test_sample_likelihood_links_in_one_array_pass(monkeypatch):
    base = CRMDraw(
        np.array([0.2, 0.5, 0.7]), np.array([0.5, 2.0, 3.0]), np.array([1, 1, 2]), 1.0, 2, 0.0
    )
    registered, per_weight = [], []
    poisson_rate = sampler.link_rule("poisson_rate")

    def counted(w):
        registered.append(np.shape(w))
        return poisson_rate(w)

    def rule(w):
        per_weight.append(w)
        return (math.log(w),)

    monkeypatch.setitem(sampler._LINKS, "poisson_rate", counted)
    poisson = make_family("poisson")
    one_pass = sample_likelihood(base, poisson, "poisson_rate", np.random.default_rng(3))
    per_atom = sample_likelihood(base, poisson, rule, np.random.default_rng(3))
    assert registered == [(3,)] and len(per_weight) == 3
    np.testing.assert_array_equal(one_pass.observations, per_atom.observations)


def test_registered_links_agree_on_arrays_and_scalars():
    w = np.array([0.25, 0.5, 0.75])
    for name in sampler.link_names():
        rule = sampler.link_rule(name)
        np.testing.assert_array_equal(
            np.asarray(rule(w), dtype=float)[0], [rule(float(x))[0] for x in w]
        )


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
    assert piece.locate(rem, piece.lo, piece.hi).tobytes() == want.tobytes()


def test_closed_location_where_the_stable_form_cancels():
    # c0 = 0 at lo = 0: a zero remainder gives r = 0 and c0 + sqrt(disc) = 0
    piece = Piece(0.0, 2.0, "affine", c0=0.0, c1=0.5)
    rem = np.array([0.0, 5e-324, 0.25, 1.0])
    got = piece.locate(rem, piece.lo, piece.hi)
    assert got[0] == 0.0
    want = np.array([_scalar_closed_location(piece, float(r)) for r in rem[1:]])
    assert got[1:].tobytes() == want.tobytes()
    locs = _sample_locations(_affine_base_ctx(), 2.0, 2, _FixedUniforms([0.0, 0.5]))
    assert locs[0] == np.nextafter(0.0, 1.0)
    assert locs[1] == pytest.approx(math.sqrt(2.0))

    # negative intercept, positive on (0.5, 2]: the mass from lo reaches rem
    piece = Piece(0.5, 2.0, "affine", c0=-0.4, c1=1.0)
    rem = np.array([0.0, 0.01, 0.075, 0.5])
    z = piece.locate(rem, piece.lo, piece.hi)
    assert z[[0, 2]] == pytest.approx([0.5, 0.8], rel=1e-15)
    assert np.all(z >= 0.5)
    assert piece.c0 * (z - 0.5) + 0.5 * piece.c1 * (z * z - 0.25) == pytest.approx(rem, abs=1e-15)

    with pytest.raises(CrmError, match="not positive"):
        Piece(0.0, 2.0, "affine", c0=-1.0, c1=0.0).locate(np.array([0.5]), 0.0, 2.0)


def _sample_locations(ctx, z_max, count, rng):
    pieces, jumps, _ = ctx.base.segments(0.0, z_max)
    return sampler._sample_locations(pieces, jumps, count, rng)


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
    windows = [(p, max(p.lo, 0.0), min(p.hi, z_max)) for p in base.density.pieces]
    segments = [(p.integral(lo, hi), (p, lo, hi)) for p, lo, hi in windows]
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
        seg, lo, hi = seg
        rem = float(v[j] - (cum[idx[j] - 1] if idx[j] > 0 else 0.0))
        if seg.kind == "func":
            loc = optimize.brentq(lambda z: seg.integral(lo, z) - rem, lo, hi, xtol=1e-14, rtol=1e-14)
        else:
            loc = _scalar_closed_location(seg, rem)
        want[j] = min(max(loc, np.nextafter(lo, np.inf)), hi)

    got = _sample_locations(ctx, z_max, u.size, _FixedUniforms(u))
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


def _bench_like_ratio_pieces(count, seed=5):
    """Heads of the benchmark's ratio configs: coefficients in (0.5, 2), the
    numerator scaled to a mass of 1e2 to 3e3 over (0, zb], zb in (0.3, 1.2)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        p0, p1, q0, q1 = rng.uniform(0.5, 2.0, size=4)
        zb = rng.uniform(0.3, 1.2)
        f = rng.uniform(1e2, 3e3) / Piece(0.0, zb, "ratio", c0=p0, c1=p1, d0=q0, d1=q1).integral(0.0, zb)
        out.append(Piece(0.0, zb, "ratio", c0=f * p0, c1=f * p1, d0=q0, d1=q1))
    return out


def _mp_ratio_location(piece, rem):
    """The root z of the exact mass from lo, at 40 digits."""
    import mpmath as mp

    with mp.workdps(40):
        c0, c1, d0, d1, lo = (mp.mpf(v) for v in (piece.c0, piece.c1, piece.d0, piece.d1, piece.lo))
        lin, log_coef = c1 / d1, (c0 * d1 - c1 * d0) / (d1 * d1)
        y0 = d0 + d1 * lo

        def excess(z):
            return lin * (z - lo) + log_coef * mp.log((d0 + d1 * z) / y0) - rem

        return mp.findroot(excess, (lo, mp.mpf(piece.hi)), solver="anderson")


def _check_location_against_the_exact_root(piece):
    mass = piece.integral(piece.lo, piece.hi)
    uniforms = np.random.default_rng(11).random(12)
    rem = np.concatenate([[1e-9, 1e-4, 1.0 - 1e-12, 1.0], uniforms]) * mass
    z = piece.locate(rem, piece.lo, piece.hi)
    for got, r in zip(z.tolist(), rem.tolist()):
        want = _mp_ratio_location(piece, r)
        assert abs(got - want) <= 1e-12 * abs(want), (r, got, float(want))
    # a zero remainder is the end itself, which Newton's method from the far
    # end approaches to within the rounding of the mass
    z0 = piece.locate(np.array([0.0]), piece.lo, piece.hi)[0]
    assert piece.lo <= z0 <= piece.lo + 1e-12 * (piece.hi - piece.lo)


def test_ratio_location_matches_the_exact_root(ratio_branch):
    _check_location_against_the_exact_root(ratio_branch[1])


@pytest.mark.parametrize(
    "piece", _bench_like_ratio_pieces(12), ids=[f"bench-like {i}" for i in range(12)]
)
def test_ratio_location_matches_the_exact_root_on_bench_like_pieces(piece):
    _check_location_against_the_exact_root(piece)


def test_ratio_piece_labels_hold(ratio_branch):
    name, piece = ratio_branch
    lin, log_coef = piece._ratio_terms()
    x0 = lin * (piece.d0 + piece.d1 * piece.lo) / piece.d1 / log_coef if log_coef else math.nan
    holds = {
        "K=0": log_coef == 0,
        "L=0": lin == 0,
        "x0>0": x0 > 0,
        "-1<x0<0": -1 < x0 < 0,
        "x0<-1": x0 < -1,
        "x0=-1, density 0 at lo": x0 == -1 and piece.value(piece.lo) == 0,
        "x0=-8.9e3": x0 == pytest.approx(-8.9e3, rel=1e-3),
        "x0=-8.9e3, mass 2.4e3": x0 == pytest.approx(-8.9e3, rel=1e-3)
        and piece.integral(piece.lo, piece.hi) == pytest.approx(2.4e3, rel=1e-3),
        "negative denominator": piece.d0 + piece.d1 * piece.hi
        < piece.d0 + piece.d1 * piece.lo < 0,
    }
    assert holds[name]


def _ratio_base_ctx(pieces):
    return LevyContext.build(
        make_family("gamma"), ParameterPath.constant([2.0, 3.0]),
        BaseMeasure(PiecewiseFunction(pieces)), k=2,
    )


def test_ratio_base_sampling_makes_no_brentq_call(monkeypatch):
    from scipy import optimize

    from crmkit import config

    def refuse(*args, **kwargs):
        raise AssertionError("brentq called")

    monkeypatch.setattr(optimize, "brentq", refuse)
    contexts, z_max = config.parse_sample_config(json.loads(PARETO_SERIES.read_text()))
    assert len(sample_crm(contexts, z_max, np.random.default_rng(7))) > 0
    ctx = _ratio_base_ctx([Piece(0.0, 2.0, "ratio", c0=3e3, c1=1.5e3, d0=1.0, d1=1.0)])
    assert len(sample_crm([ctx], 2.0, np.random.default_rng(7))) > 3000
    func_ctx = _ratio_base_ctx([Piece(0.0, 2.0, "func", func=lambda z: 1e3 * (2.0 + z) / (1.0 + z))])
    with pytest.raises(AssertionError, match="brentq called"):
        sample_crm([func_ctx], 2.0, np.random.default_rng(7))


def test_ratio_base_locations_follow_the_base_density(ratio_branch):
    _, piece = ratio_branch
    lo, hi = piece.lo, piece.hi
    mass = piece.integral(lo, hi)
    scale = 20_000.0 / mass
    ctx = _ratio_base_ctx([replace(piece, c0=scale * piece.c0, c1=scale * piece.c1)])
    z = np.sort(sample_crm([ctx], hi, np.random.default_rng(13)).locations)
    cdf = np.array([piece.integral(lo, x) for x in z]) / mass
    n = z.size
    d = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
    assert special.kolmogorov(math.sqrt(n) * d) > 1e-3


def test_a_nan_region_end_is_refused(gamma_unit_ctx):
    with pytest.raises(CrmError, match="region end must be positive, got z_max=nan"):
        sample_crm([gamma_unit_ctx], math.nan, np.random.default_rng(1))


def test_a_bool_region_end_is_refused(gamma_unit_ctx):
    # True used to draw over (0, 1]
    with pytest.raises(CrmError) as exc:
        sample_crm([gamma_unit_ctx], True, np.random.default_rng(1))
    assert str(exc.value) == "region end must be positive, got z_max=True"


def test_a_dropped_component_of_divergent_mass_leaves_the_tail_mass_unknown(gamma_unit_ctx):
    # the second component's base 1/z has infinite mass on (0, 1]; dropping it
    # draws what the first alone draws
    base = BaseMeasure(PiecewiseFunction([Piece(0.0, 2.0, "ratio", c0=1.0, c1=0.0, d0=0.0, d1=1.0)]))
    pole = LevyContext.build(make_family("gamma"), ParameterPath.constant([2.0, 3.0]), base, k=2)
    draw = sample_crm([gamma_unit_ctx, pole], 1.0, np.random.default_rng(1), truncation=1)
    alone = sample_crm([gamma_unit_ctx], 1.0, np.random.default_rng(1))
    assert draw.tail_mass is None and draw.truncation_level == 1
    assert draw.locations.size > 0
    assert np.array_equal(draw.locations, alone.locations) and np.array_equal(draw.weights, alone.weights)


class _BoundaryUniforms:
    """A generator whose every third location uniform is one of the given
    values, each on the lower edge of a base segment: a zero remainder there
    puts the atom at its piece's nextafter(lo)."""

    def __init__(self, seed, edges):
        self._rng, self._edges = np.random.default_rng(seed), np.asarray(edges, dtype=float)

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def random(self, size):
        u = self._rng.random(size)
        u[::3] = np.resize(self._edges, u[::3].size)
        return u


def _merge_against_lexsort(monkeypatch, components, z_max, rng):
    """A draw, after checking that its merge order is the three-key lexsort
    of the concatenated draws: location, component, draw order."""
    seen = []
    merge = sampler._merge_order

    def recording(z):
        order = merge(z)
        seen.append((z.copy(), order.copy()))
        return order

    monkeypatch.setattr(sampler, "_merge_order", recording)
    draw = sample_crm(components, z_max, rng)
    ((z, order),) = seen
    c = np.sort(draw.component_index)  # components are concatenated in order
    want = np.lexsort((np.arange(z.size), c, z))
    assert np.array_equal(order, want)
    assert draw.locations.tobytes() == z[want].tobytes()
    assert np.array_equal(draw.component_index, c[want])
    return draw


def _gamma_ctx(eta, base):
    return LevyContext.build(make_family("gamma"), ParameterPath.constant(eta), base, k=2)


def test_merge_keeps_draw_order_on_a_heavy_point_mass(monkeypatch):
    base = BaseMeasure(PiecewiseFunction.constant(20.0, 0.0, 2.0), jumps=((0.7, 400.0),))
    components = [_gamma_ctx([2.0, 3.0], base)]
    draw = _merge_against_lexsort(monkeypatch, components, 2.0, np.random.default_rng(3))
    assert np.count_nonzero(draw.locations == 0.7) > 300


def test_merge_orders_components_that_share_a_point_mass(monkeypatch):
    density = PiecewiseFunction.constant(5.0, 0.0, 2.0)
    shared = BaseMeasure(density, jumps=((0.7, 60.0), (1.3, 40.0)))
    other = BaseMeasure(density, jumps=((0.7, 80.0),))
    components = [
        _gamma_ctx([2.0, 3.0], shared),
        _gamma_ctx([1.5, 2.0], other),
        _gamma_ctx([2.0, 1.0], shared),
    ]
    draw = _merge_against_lexsort(monkeypatch, components, 2.0, np.random.default_rng(11))
    at = draw.component_index[draw.locations == 0.7]
    assert set(at.tolist()) == {1, 2, 3}
    assert np.all(np.diff(at) >= 0)


def test_merge_orders_atoms_clamped_to_a_lower_edge(monkeypatch):
    # two const pieces of mass 30 each: u = 0 and u = 1/2 give zero remainders
    # on the lower edges 0 and 1
    base = BaseMeasure(
        PiecewiseFunction([Piece(0.0, 1.0, "const", c0=30.0), Piece(1.0, 2.0, "const", c0=30.0)])
    )
    components = [_gamma_ctx([2.0, 3.0], base), _gamma_ctx([1.5, 2.0], base)]
    draw = _merge_against_lexsort(monkeypatch, components, 2.0, _BoundaryUniforms(5, [0.0, 0.5]))
    for edge in (0.0, 1.0):
        at = draw.component_index[draw.locations == np.nextafter(edge, np.inf)]
        assert at.size > 10 and set(at.tolist()) == {1, 2}


def test_draw_id_is_kept_after_the_first_access(monkeypatch):
    draw = sample_crm([_affine_base_ctx()], 2.0, np.random.default_rng(8))
    first = draw.draw_id
    calls = []
    table_csv = sampler._table_csv
    monkeypatch.setattr(sampler, "_table_csv", lambda *a: calls.append(a) or table_csv(*a))
    assert draw.draw_id == first
    assert calls == []
    assert first == sampler.text_id(draw.csv_text())
    # a property, whose fget the benchmark tracer wraps
    assert isinstance(CRMDraw.__dict__["draw_id"], property)
    assert replace(draw, z_max=3.0).draw_id == first


def test_draw_arrays_are_its_own_and_read_only():
    locs, weights, comp = np.array([0.25, 0.5]), np.array([1.0, 2.0]), np.array([1, 1])
    draw = CRMDraw(locs, weights, comp, 1.0, 1, None)
    first = draw.draw_id
    for name in ("locations", "weights", "component_index"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(draw, name)[0] = 1
    locs[0], weights[0], comp[0] = 0.75, 3.0, 2
    assert draw.locations[0] == 0.25 and draw.weights[0] == 1.0 and draw.component_index[0] == 1
    assert draw.draw_id == first == sampler.text_id(draw.csv_text())


def test_likelihood_draw_refuses_arrays_of_different_shapes():
    with pytest.raises(CrmError, match="shape"):
        sampler.LikelihoodDraw(np.array([0.1, 0.2, 0.3]), np.array([1.0]), np.array([1, 2, 3]), "")
    draw = sampler.LikelihoodDraw(np.array([0.1]), np.array([1.0]), np.array([1]), "")
    assert draw.csv_text() == "component,location,observation\n1,0.1,1.0\n"


def _func_base_ctx(pieces, jumps=()):
    return LevyContext.build(
        make_family("gamma"), ParameterPath.constant([2.0, 3.0]),
        BaseMeasure(PiecewiseFunction(pieces), jumps), k=2, require_conditions=False,
    )


def test_a_negative_func_base_is_refused_before_the_count_is_drawn():
    class NoPoisson:
        def poisson(self, lam):
            raise AssertionError("count drawn")

    ctx = _func_base_ctx([Piece(0.0, 2.0, "func", func=lambda z: -1.0)])
    with pytest.raises(CrmError) as exc:
        sample_crm([ctx], 2.0, NoPoisson())
    assert str(exc.value) == "component 1: base density piece on (0.0, 2.0] has negative mass -2.0"


def test_a_negative_piece_beside_a_positive_one_is_named_with_its_component(gamma_unit_ctx):
    ctx = _func_base_ctx(
        [Piece(0.0, 1.0, "const", c0=5.0), Piece(1.0, 3.0, "func", func=lambda z: -0.25)]
    )
    with pytest.raises(CrmError) as exc:
        sample_crm([gamma_unit_ctx, ctx], 2.0, np.random.default_rng(3))
    assert str(exc.value) == "component 2: base density piece on (1.0, 2.0] has negative mass -0.25"


def test_a_func_base_with_mass_but_no_upper_end_is_a_truncation_error():
    ctx = _func_base_ctx([Piece(0.0, math.inf, "func", func=lambda z: 3.0 * math.exp(-z))])
    with pytest.raises(TruncationError, match=r"component 1: .* \(0.0, inf\] .* restrict the region"):
        sample_crm([ctx], math.inf, np.random.default_rng(1))
    # with an upper end the same base samples
    assert len(sample_crm([ctx], 5.0, np.random.default_rng(1))) > 0


def test_sample_crm_integrates_each_base_piece_once_per_component(monkeypatch):
    ctx = _func_base_ctx(
        [
            Piece(0.0, 0.5, "const", c0=20.0),
            Piece(0.5, 1.5, "func", func=lambda z: 10.0 + z),
            Piece(1.5, 3.0, "affine", c0=10.0, c1=1.0),
        ],
        jumps=((0.7, 5.0),),
    )
    # brentq's own integrals are the atoms' locations, not the masses counted here
    monkeypatch.setattr(optimize, "brentq", lambda f, a, b, **kw: 0.5 * (a + b))
    windows = []
    integral = Piece.integral

    def counting(self, a, b):
        windows.append((self.lo, a, b))
        return integral(self, a, b)

    monkeypatch.setattr(Piece, "integral", counting)
    draw = sample_crm([ctx, ctx], 2.0, np.random.default_rng(5))
    assert set(draw.component_index.tolist()) == {1, 2}
    once = [(0.0, 0.0, 0.5), (0.5, 0.5, 1.5), (1.5, 1.5, 2.0)]
    assert windows == once + once


def test_component_counts_skip_a_component_with_no_atoms(gamma_unit_ctx):
    null = LevyContext.build(
        make_family("gamma"), ParameterPath.constant([2.0, 3.0]), BaseMeasure.null(), k=2
    )
    draw = sample_crm([gamma_unit_ctx, null, gamma_unit_ctx], 30.0, np.random.default_rng(2))
    idx, counts = np.unique(draw.component_index, return_counts=True)
    assert draw.component_counts() == {int(i): int(c) for i, c in zip(idx, counts)}
    assert sorted(draw.component_counts()) == [1, 3]
    assert all(type(k) is int and type(v) is int for k, v in draw.component_counts().items())
    assert CRMDraw(np.empty(0), np.empty(0), np.empty(0, dtype=int), 1.0, 0, 0.0).component_counts() == {}


@pytest.mark.parametrize("truncation", [1.5, "2", True], ids=["float", "str", "bool"])
def test_a_truncation_that_is_not_an_integer_is_refused(gamma_const_ctx, gamma_unit_ctx, truncation):
    # 1.5 used to keep one component, "2" two
    with pytest.raises(CrmError, match=f"^truncation level must be an integer in 0..2, got {truncation!r}$"):
        sample_crm([gamma_unit_ctx, gamma_unit_ctx], 1.0, np.random.default_rng(1), truncation=truncation)
    draw = sample_crm([gamma_unit_ctx, gamma_unit_ctx], 1.0, np.random.default_rng(1), truncation=np.int64(1))
    assert draw.truncation_level == 1 and type(draw.truncation_level) is int


def test_evaluate_path_refuses_a_nan_t():
    # nan used to read as the draw's total weight
    draw = CRMDraw(np.array([0.5, 1.0]), np.array([2.0, 3.0]), np.array([1, 1]), 1.0, 1, 0.0)
    for t in (math.nan, [0.5, math.nan], -1.0):
        with pytest.raises(CrmError, match="path evaluation needs t >= 0"):
            evaluate_path(draw, t)
    assert evaluate_path(draw, math.inf) == 5.0


def test_a_likelihood_draw_refuses_atom_arrays_of_different_shapes():
    with pytest.raises(CrmError) as exc:
        sampler.LikelihoodDraw(np.zeros(2), np.zeros(3), np.zeros(2, dtype=int), "draw")
    assert str(exc.value) == "atom arrays must share one shape"
