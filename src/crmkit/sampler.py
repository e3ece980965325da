"""Atomic draws of the random measure and of likelihood processes over them.

A draw superposes independent components.  Component n contributes
m_n ~ Poisson(A_{0,n}(0, z_max]) atoms; locations are exact inverse-CDF
draws from the normalized base measure, and the weight at location z is
T_k(S) with S ~ p(. | eta_n(z)).  Atoms merge sorted by location with
stable ties by component then draw order, so equal seeds give equal bytes.

Each component is sampled over whole arrays of atoms.  One array of
uniforms picks every atom's base segment; point masses are assigned
directly, constant and affine pieces (which cover (lo, hi]) invert in
closed form over the segment's atoms, ratio pieces by Newton's method on
their exact mass over the same arrays, and only callable pieces
(:meth:`~crmkit.piecewise.PiecewiseFunction.from_callable`) invert atom by
atom with brentq.  The path is evaluated once per component and its
parameters validated in one natural-space check
(:meth:`~crmkit.expfam.ParameterPath.natural_etas`), and the weights come
from one vectorized family draw.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import expfam
from .errors import AtomLinkError, CrmError, DivergenceError, NaturalSpaceError, TruncationError
from .expfam import ExpFamilySpec, _special
from .levy import LevyContext

__all__ = [
    "CRMDraw",
    "LikelihoodDraw",
    "sample_crm",
    "sample_likelihood",
    "evaluate_path",
    "link_rule",
    "link_names",
]


@dataclass(frozen=True)
class CRMDraw:
    """Atoms (location, weight > 0) of one realization over (0, z_max]."""

    locations: np.ndarray
    weights: np.ndarray
    component_index: np.ndarray
    z_max: float
    truncation_level: int
    tail_mass: float | None

    def __post_init__(self):
        locs = np.asarray(self.locations, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        comp = np.asarray(self.component_index, dtype=int)
        if not (locs.shape == w.shape == comp.shape):
            raise CrmError("atom arrays must share one shape")
        if locs.size and (np.any(w <= 0) or np.any(~np.isfinite(w))):
            raise CrmError("atom weights must be strictly positive and finite")
        if locs.size and (np.any(locs <= 0) or np.any(locs > self.z_max + 1e-12)):
            raise CrmError(f"atom locations must lie in (0, {self.z_max}]")
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "component_index", comp)

    def __len__(self) -> int:
        return int(self.locations.size)

    def csv_text(self) -> str:
        return _atoms_csv(
            "component,location,weight", self.component_index, self.locations, self.weights
        )

    @property
    def draw_id(self) -> str:
        return text_id(self.csv_text())

    def component_counts(self) -> dict[int, int]:
        idx, counts = np.unique(self.component_index, return_counts=True)
        return {int(i): int(c) for i, c in zip(idx, counts)}


@dataclass(frozen=True)
class LikelihoodDraw:
    """Per-atom observations generated over a base draw's locations."""

    locations: np.ndarray
    observations: np.ndarray
    component_index: np.ndarray
    base_reference: str

    def __len__(self) -> int:
        return int(self.locations.size)

    def csv_text(self) -> str:
        return _atoms_csv(
            "component,location,observation",
            self.component_index,
            self.locations,
            self.observations,
        )


_CSV_BLOCK = 1 << 14


def _atoms_csv(header: str, component, locations, values) -> str:
    """Header plus one "component,location,value" row per atom, floats by repr.

    Rows are formatted in blocks, so the Python objects made for one block
    are freed before the next: memory stays near the size of the text.
    """
    component = np.asarray(component, dtype=int)
    locations = np.asarray(locations, dtype=float)
    values = np.asarray(values, dtype=float)
    out = io.StringIO()
    out.write(header + "\n")
    for i in range(0, component.size, _CSV_BLOCK):
        block = slice(i, i + _CSV_BLOCK)
        rows = zip(component[block].tolist(), locations[block].tolist(), values[block].tolist())
        out.write("".join([f"{c},{z!r},{v!r}\n" for c, z, v in rows]))
    return out.getvalue()


def text_id(text: str) -> str:
    """SHA-256 hex digest of a draw's CSV text; ``CRMDraw.draw_id`` is this of ``csv_text()``."""
    return hashlib.sha256(text.encode()).hexdigest()


def _closed_location(piece, rem: np.ndarray) -> np.ndarray:
    """z with mass rem accumulated from the lower edge of a const, affine or ratio piece."""
    lo, hi = piece.lo, piece.hi
    if piece.kind == "const":
        return lo + rem / piece.c0
    if piece.kind == "ratio":
        return _ratio_location(piece, rem)
    # solve c0 (z - lo) + c1 (z^2 - lo^2) / 2 = rem, stable as c1 -> 0
    r = rem + piece.c0 * lo + 0.5 * piece.c1 * lo * lo
    root = np.sqrt(np.maximum(piece.c0 * piece.c0 + 2.0 * piece.c1 * r, 0.0))
    denom = piece.c0 + root
    flat = denom <= 0
    if not flat.any():
        return 2.0 * r / denom
    # c0 + root cancels where c0 <= 0 and r <= 0 (rem = 0 at lo = 0 with c0 = 0
    # gives 0 / 0); there the same root is (root - c0) / c1, with no cancellation
    if piece.c1 <= 0:
        raise CrmError(f"affine base piece is not positive on ({lo}, {hi}]")
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(flat, (root - piece.c0) / piece.c1, 2.0 * r / denom)


_EPS = float(np.finfo(float).eps)


def _ratio_location(piece, rem: np.ndarray) -> np.ndarray:
    """z with mass rem accumulated from the lower edge of a ratio piece.

    With h = (d0 + d1 lo)/d1 and t = z - lo, the mass from lo is
    G(t) = L t + K log1p(t/h) (see ``Piece._ratio_terms``), whose slope is
    the density.  K = 0 inverts linearly.  Otherwise G'' = -K/(h + t)^2
    keeps one sign, so G is concave (K > 0) or convex (K < 0), and Newton's
    method on G(t) = rem started from the end where the density is larger
    (lo for K > 0, hi for K < 0) moves monotonically to the root: every
    tangent meets rem between the iterate and the root.  An atom is done
    when its step turns back (the rounding of G), or when the error the step
    leaves, |G''/(2 G')| step^2, is below an ulp of the new t.
    """
    lin, log_coef = piece._ratio_terms()
    if log_coef == 0:
        return piece.lo + rem / lin
    h = (piece.d0 + piece.d1 * piece.lo) / piece.d1
    width = piece.hi - piece.lo
    toward = 1.0 if log_coef > 0 else -1.0
    end = 0.0 if log_coef > 0 else width
    # the first tangent, from the end, is the one with no logarithm per atom
    t = end + (rem - (lin * end + log_coef * np.log1p(end / h))) / (lin + log_coef / (h + end))
    todo = np.arange(rem.size)
    for _ in range(200):
        if not todo.size:
            break
        tt = t[todo]
        y = h + tt
        g = lin * tt + log_coef * np.log1p(tt / h) - rem[todo]
        slope = lin + log_coef / y
        # a zero density is met only at the far end, when the root is there
        step = np.divide(-g, slope, out=np.zeros_like(g), where=slope > 0)
        more = toward * step > 0
        new = np.where(more, tt + step, tt)
        t[todo] = new
        more &= np.abs(log_coef / (y * y)) * step * step > 2 * _EPS * slope * np.abs(new)
        todo = todo[more]
    return piece.lo + np.clip(t, 0.0, width)


def _piece_location(piece, rem: float) -> float:
    """z with mass rem accumulated from the lower edge of a callable piece, by brentq.

    Only callable pieces get here, so ``scipy.optimize`` is imported here on
    the first such location.
    """
    from scipy import optimize

    lo, hi = piece.lo, piece.hi
    target = rem

    def short(z):
        return piece.integral(lo, z) - target

    hi_b = hi if np.isfinite(hi) else lo + 1.0
    while short(hi_b) < 0:
        hi_b = lo + 2.0 * (hi_b - lo)
    return float(optimize.brentq(short, lo, hi_b, xtol=1e-14, rtol=1e-14))


def _clip_piece(piece, z_max: float):
    lo, hi = max(piece.lo, 0.0), min(piece.hi, z_max)
    if not lo < hi:
        return None
    return replace(piece, lo=lo, hi=hi)


def _sample_locations(ctx: LevyContext, z_max: float, count: int, rng) -> np.ndarray:
    if count == 0:
        return np.empty(0)
    pieces, masses = [], []
    for piece in ctx.base.density.pieces:
        clipped = _clip_piece(piece, z_max)
        if clipped is None:
            continue
        mass = clipped.integral(clipped.lo, clipped.hi)
        if mass < 0:
            raise CrmError("base density piece has negative mass")
        if mass > 0:
            pieces.append(clipped)
            masses.append(mass)
    jumps = [(loc, mass) for loc, mass in ctx.base.jumps_in(0.0, z_max) if mass > 0]
    masses += [mass for _, mass in jumps]
    if not masses:
        raise CrmError("cannot place atoms: base measure has zero mass in the region")
    # segments are the pieces, then the point masses
    cum = np.cumsum(masses)
    v = rng.random(count) * cum[-1]
    idx = np.searchsorted(cum, v, side="right")
    locs = np.empty(count)
    at_jump = idx >= len(pieces)
    if at_jump.any():
        locs[at_jump] = np.array([loc for loc, _ in jumps])[idx[at_jump] - len(pieces)]
    for s, piece in enumerate(pieces):
        sel = idx == s
        if not sel.any():
            continue
        rem = v[sel] - (cum[s - 1] if s > 0 else 0.0)
        if piece.kind == "func":
            loc = np.array([_piece_location(piece, r) for r in rem.tolist()])
        else:
            loc = _closed_location(piece, rem)
        # pieces cover (lo, hi]; a zero remainder would land exactly on lo
        locs[sel] = np.minimum(np.maximum(loc, np.nextafter(piece.lo, np.inf)), piece.hi)
    return locs


def sample_crm(
    components: Sequence[LevyContext],
    z_max: float,
    rng: np.random.Generator,
    truncation: int | None = None,
) -> CRMDraw:
    """Superpose Poisson draws of the given components over (0, z_max].

    ``truncation`` keeps only the first N components; the dropped-mass proxy
    ``tail_mass`` is the summed base mass of the rest, or None when that mass
    diverges.
    """
    if not (z_max > 0):
        raise CrmError(f"region end must be positive, got z_max={z_max}")
    n_total = len(components)
    level = n_total if truncation is None else int(truncation)
    if not 0 <= level <= n_total:
        raise CrmError(f"truncation level {level} outside 0..{n_total}")

    locs, weights, comp_idx = [], [], []
    for n, ctx in enumerate(components[:level], start=1):
        try:
            mass = ctx.base.increment(0.0, z_max)
        except DivergenceError as exc:
            raise TruncationError(
                f"component {n} has non-finite base mass over (0, {z_max}] "
                f"(partial {exc.partial}); restrict the region or the base support"
            )
        count = int(rng.poisson(mass))
        if count == 0:
            continue
        z = _sample_locations(ctx, z_max, count, rng)
        etas = ctx.path.natural_etas(
            ctx.family, z, lambda i, loc: f"component {n}, atom at location {loc!r}"
        )
        s = expfam.sample_each(ctx.family, etas, rng)
        u = np.asarray(ctx.stat().value(s), dtype=float)
        if np.any(u <= 0) or np.any(~np.isfinite(u)):
            raise CrmError(
                f"component {n}: statistic {ctx.stat().name!r} produced a nonpositive "
                "weight; choose a statistic with positive image for sampling"
            )
        locs.append(z)
        weights.append(u)
        comp_idx.append(np.full(count, n, dtype=int))

    if level == n_total:
        tail_mass = 0.0
    else:
        try:
            tail_mass = float(sum(c.base.increment(0.0, z_max) for c in components[level:]))
        except DivergenceError:
            tail_mass = None  # dropped mass diverges: leave it unknown

    if locs:
        z = np.concatenate(locs)
        u = np.concatenate(weights)
        c = np.concatenate(comp_idx)
        order = np.lexsort((np.arange(len(z)), c, z))
        z, u, c = z[order], u[order], c[order]
    else:
        z = u = np.empty(0)
        c = np.empty(0, dtype=int)
    return CRMDraw(z, u, c, float(z_max), level, tail_mass)


def _require(w, ok, what: str) -> None:
    """Raise ValueError naming the first weight (scalar or array) where ok fails.

    The error carries that weight's position as ``index`` (0 for a scalar).
    """
    if not np.all(ok):
        j = int(np.flatnonzero(~np.ravel(ok))[0])
        exc = ValueError(f"{what}, got {float(np.ravel(w)[j])}")
        exc.index = j
        raise exc


def _bernoulli_prob(w) -> tuple:
    _require(w, (0.0 < w) & (w < 1.0), "success probability must lie in (0, 1)")
    return (_special().logit(w),)


def _poisson_rate(w) -> tuple:
    _require(w, w > 0, "rate must be positive")
    return (np.log(w),)


def _lognormal_precision(w) -> tuple:
    _require(w, w > 0, "precision must be positive")
    return (np.asarray(w, dtype=float),)


def _lognormal_variance(w) -> tuple:
    _require(w, w > 0, "variance must be positive")
    return (1.0 / w,)


def _pareto_shape(w) -> tuple:
    _require(w, w > 0, "shape must be positive")
    return (-w - 1.0,)


# A registered link maps a weight, or an array of weights, to the tuple of
# natural-parameter coordinates.
_LINKS = {
    "bernoulli_prob": _bernoulli_prob,
    "poisson_rate": _poisson_rate,
    "lognormal_precision": _lognormal_precision,
    "lognormal_variance": _lognormal_variance,
    "pareto_shape": _pareto_shape,
}


def link_rule(link) -> Callable:
    if callable(link):
        return link
    if link not in _LINKS:
        raise CrmError(f"unknown link rule {link!r}; registered: {', '.join(link_names())}")
    return _LINKS[link]


def link_names() -> tuple[str, ...]:
    return tuple(sorted(_LINKS))


def sample_likelihood(
    base: CRMDraw,
    likelihood: ExpFamilySpec,
    link,
    rng: np.random.Generator,
) -> LikelihoodDraw:
    """One observation per atom, gamma_j ~ likelihood(link(weight_j)).

    Locations are copied verbatim.  A registered link maps all weights in one
    array pass (a callable link is called once per weight) and the natural
    parameters are validated in one batch check.  A weight the link rejects,
    or a link output outside the likelihood's natural space, raises an
    atom-level error naming the first such atom's location.
    """
    rule = link_rule(link)
    dim, m = likelihood.dimension, len(base)
    bad, reason = m, None
    if callable(link):
        cols = np.empty((dim, m))
        for j, w in enumerate(base.weights.tolist()):
            try:
                eta = np.asarray(rule(w), dtype=float)
                if eta.shape != (dim,):
                    raise ValueError(f"link returned {eta.shape}, wanted ({dim},)")
            except (ValueError, CrmError) as exc:
                bad, reason = j, exc
                break
            cols[:, j] = eta
    else:
        try:
            cols = np.asarray(rule(base.weights), dtype=float)
        except ValueError as exc:
            bad, reason = exc.index, exc
            cols = np.asarray(rule(base.weights[:bad]), dtype=float)
        if len(cols) != dim:
            bad, reason = 0, ValueError(f"link returned ({len(cols)},), wanted ({dim},)")
    if bad:
        # every atom before the first one the link rejects (all, if none)
        try:
            likelihood.check_natural(cols[:, :bad])
        except NaturalSpaceError as exc:
            bad, reason = exc.index, exc
    if reason is not None:
        loc = float(base.locations[bad])
        raise AtomLinkError(
            f"atom at location {loc}: link output invalid for {likelihood.name}: {reason}",
            location=loc,
        ) from reason
    obs = expfam.sample_each(likelihood, cols.T, rng) if m else np.empty(0)
    return LikelihoodDraw(
        base.locations.copy(), np.asarray(obs, dtype=float),
        base.component_index.copy(), base.draw_id,
    )


def evaluate_path(draw: CRMDraw, t):
    """T(t) = sum of weights at locations <= t; right-continuous step path."""
    ts = np.asarray(t, dtype=float)
    if np.any(ts < 0):
        raise CrmError("path evaluation needs t >= 0")
    cum = np.concatenate([[0.0], np.cumsum(draw.weights)])
    idx = np.searchsorted(draw.locations, ts, side="right")
    out = cum[idx]
    return float(out) if np.isscalar(t) or ts.ndim == 0 else out
