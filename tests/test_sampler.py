import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import special

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
    z = sampler._closed_location(piece, rem)
    for got, r in zip(z.tolist(), rem.tolist()):
        want = _mp_ratio_location(piece, r)
        assert abs(got - want) <= 1e-12 * abs(want), (r, got, float(want))
    # a zero remainder is the end itself, which Newton's method from the far
    # end approaches to within the rounding of the mass
    z0 = sampler._closed_location(piece, np.array([0.0]))[0]
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
