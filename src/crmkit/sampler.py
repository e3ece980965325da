"""Atomic draws of the random measure and of likelihood processes over them.

A draw superposes independent components.  Component n contributes
m_n ~ Poisson(A_{0,n}(0, z_max]) atoms; locations are exact inverse-CDF
draws from the normalized base measure, and the weight at location z is
T_k(S) with S ~ p(. | eta_n(z)).  Atoms merge sorted by location, ties in
component then draw order, so equal seeds give equal bytes: numpy's default
sort orders the locations, and only the runs of equal locations (atoms on a
point mass) are sorted again by their place in the concatenated draws.

Each component is sampled over whole arrays of atoms.  One walk of its base
measure (:meth:`~crmkit.levy.BaseMeasure.segments`) integrates each piece
once and gives both the Poisson mean and the segments.  Every kept
component is walked before any count is drawn, so a negative piece mass, or
a summed base mass of more than ``errors._MAX_ATOMS`` (10^8) expected
atoms, is refused before anything is drawn or allocated.  One array of
uniforms picks every atom's segment; point masses are assigned directly, and
each piece (covering (lo, hi]) places its atoms with
:meth:`~crmkit.piecewise.Piece.locate`, the inverse of its mass: in closed
form for constant and affine pieces, by Newton's method on the exact mass
for ratio pieces, and atom by atom with brentq only for callable pieces
(:meth:`~crmkit.piecewise.PiecewiseFunction.from_callable`), which import
``scipy.optimize`` on their first location.  The path is evaluated once
per component and its parameters validated in one natural-space check
(:meth:`~crmkit.expfam.ParameterPath.natural_etas`), and the weights come
from one vectorized family draw.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import expfam
from .errors import AtomLinkError, CrmError, DivergenceError, NaturalSpaceError, TruncationError
from .errors import _MAX_ATOMS, _horizon, _integer, _registered
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
        # the draw's own read-only copies, so the kept draw_id cannot go stale
        locs = np.array(self.locations, dtype=float)
        w = np.array(self.weights, dtype=float)
        comp = np.array(self.component_index, dtype=int)
        for a in (locs, w, comp):
            a.flags.writeable = False
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

    def csv_bytes(self) -> bytearray:
        """``atoms.csv``: the header ``component,location,weight``, then one
        row per atom, as ASCII bytes (see :func:`_table_csv`)."""
        columns = (self.component_index, self.locations, self.weights)
        return _table_csv(("component", "location", "weight"), columns)

    def csv_text(self) -> str:
        """``atoms.csv`` as text: the decode of :meth:`csv_bytes`."""
        return self.csv_bytes().decode()

    @property
    def draw_id(self) -> str:
        """``text_id(csv_bytes())``, the SHA-256 of ``atoms.csv``, formatted
        and hashed on the first access and kept on the draw, whose arrays are
        read-only."""
        if "_draw_id" not in self.__dict__:
            object.__setattr__(self, "_draw_id", text_id(self.csv_bytes()))
        return self._draw_id

    def component_counts(self) -> dict[int, int]:
        counts = np.bincount(self.component_index)
        return {i: int(counts[i]) for i in np.flatnonzero(counts).tolist()}


@dataclass(frozen=True)
class LikelihoodDraw:
    """Per-atom observations generated over a base draw's locations."""

    locations: np.ndarray
    observations: np.ndarray
    component_index: np.ndarray
    base_reference: str

    def __post_init__(self):
        if not (
            np.shape(self.locations) == np.shape(self.observations) == np.shape(self.component_index)
        ):
            raise CrmError("atom arrays must share one shape")

    def __len__(self) -> int:
        return int(self.locations.size)

    def csv_text(self) -> str:
        columns = (
            np.asarray(self.component_index, dtype=int),
            np.asarray(self.locations, dtype=float),
            np.asarray(self.observations, dtype=float),
        )
        return _table_csv(("component", "location", "observation"), columns).decode()


@functools.cache
def _floatrepr():
    """:mod:`crmkit.floatrepr`, imported on the first CSV text, so that parsing
    and building a context do not compile it."""
    from . import floatrepr

    return floatrepr


def _table_csv(header, columns) -> bytearray:
    """A header line, the names joined by commas, then one row per entry of
    the equal-length columns: an int column's cells as ``str`` writes them,
    any other column's as ``repr`` writes floats, Python's shortest round-trip
    form.

    The table is one buffer of ASCII bytes, the header at its start, which a
    run hashes and writes as it is; a caller that wants text decodes it.
    :mod:`crmkit.floatrepr` writes the rows a column at a time, running the
    Schubfach shortest-digit algorithm over whole numpy columns, so no
    Python object is made per float.  ``atoms.csv``, ``path.csv`` and the
    tables of ``crm verify`` are all written here.
    """
    return _floatrepr().csv_rows(columns, (",".join(header) + "\n").encode())


def text_id(data: bytes | str) -> str:
    """SHA-256 hex digest of a draw's CSV, given as its bytes or as text,
    which is hashed as its UTF-8 encoding; ``CRMDraw.draw_id`` is this of
    ``csv_bytes()``."""
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _sample_locations(pieces, jumps, count: int, rng) -> np.ndarray:
    """count exact draws from the base measure normalized over a window,
    given its ``BaseMeasure.segments``: the pieces, then the point masses."""
    masses = [mass for *_, mass in pieces] + [mass for _, mass in jumps]
    cum = np.cumsum(masses)
    v = rng.random(count) * cum[-1]
    # a zero-mass segment holds no v: v >= cum[s - 1] = cum[s] skips it
    idx = np.searchsorted(cum, v, side="right")
    locs = np.empty(count)
    at_jump = idx >= len(pieces)
    if at_jump.any():
        locs[at_jump] = np.array([loc for loc, _ in jumps])[idx[at_jump] - len(pieces)]
    for s, (piece, lo, hi, _) in enumerate(pieces):
        sel = idx == s
        if not sel.any():
            continue
        rem = v[sel] - (cum[s - 1] if s > 0 else 0.0)
        # pieces cover (lo, hi]; a zero remainder would land exactly on lo
        locs[sel] = np.minimum(np.maximum(piece.locate(rem, lo, hi), np.nextafter(lo, np.inf)), hi)
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
    diverges.  A :class:`TruncationError` names the first kept component that
    brings the summed base mass past ``errors._MAX_ATOMS`` expected atoms.
    """
    if not (_horizon(z_max) and z_max > 0):
        raise CrmError(f"region end must be positive, got z_max={z_max}")
    n_total = len(components)
    level = n_total if truncation is None else truncation
    if not (_integer(level) and 0 <= level <= n_total):
        raise CrmError(f"truncation level must be an integer in 0..{n_total}, got {truncation!r}")

    # every kept component's segments, before any count is drawn
    kept, total = [], 0.0
    for n, ctx in enumerate(components[:level], start=1):
        try:
            pieces, jumps, mass = ctx.base.segments(0.0, z_max)
        except DivergenceError as exc:
            raise TruncationError(
                f"component {n} has non-finite base mass over (0, {z_max}] "
                f"(partial {exc.partial}); restrict the region or the base support"
            )
        for _, lo, hi, piece_mass in pieces:
            if piece_mass < 0:
                raise CrmError(
                    f"component {n}: base density piece on ({lo}, {hi}] has negative mass {piece_mass}"
                )
            if piece_mass > 0 and hi == np.inf:
                raise TruncationError(
                    f"component {n}: base density piece on ({lo}, {hi}] has mass {piece_mass} "
                    "but no upper end to place atoms in; restrict the region"
                )
        total += mass
        if not total <= _MAX_ATOMS:
            raise TruncationError(
                f"component {n} brings the summed base mass over (0, {z_max}] to {total}, "
                f"more than the {_MAX_ATOMS:g} expected atoms a draw may hold; "
                "restrict the region or the base density"
            )
        kept.append((n, ctx, pieces, jumps, mass))

    locs, weights, comp_idx = [], [], []
    for n, ctx, pieces, jumps, mass in kept:
        count = int(rng.poisson(mass))
        if count == 0:
            continue
        z = _sample_locations(pieces, jumps, count, rng)
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
        order = _merge_order(z)
        z, u, c = z[order], u[order], c[order]
    else:
        z = u = np.empty(0)
        c = np.empty(0, dtype=int)
    return CRMDraw(z, u, c, float(z_max), int(level), tail_mass)


def _merge_order(z: np.ndarray) -> np.ndarray:
    """The order that sorts z, equal values kept in their order in z.

    numpy's default sort does not keep that order, but it is several times
    faster than a stable sort or ``lexsort``, and only the atoms on a point
    mass tie: each run of equal values is sorted again by index, all runs in
    one sort of keys run number * len(z) + index.
    """
    order = np.argsort(z)
    sorted_z = z[order]
    tie = sorted_z[1:] == sorted_z[:-1]
    if tie.any():
        after = np.concatenate(([False], tie))  # equal to the value before it
        at = np.flatnonzero(after | np.concatenate((tie, [False])))
        run = np.cumsum(~after[at])
        order[at] = np.sort(run * len(z) + order[at]) % len(z)
    return order


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
    return _registered(_LINKS, link, "link rule")


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
    if not np.all(ts >= 0):
        raise CrmError("path evaluation needs t >= 0")
    cum = np.concatenate([[0.0], np.cumsum(draw.weights)])
    idx = np.searchsorted(draw.locations, ts, side="right")
    out = cum[idx]
    return float(out) if np.isscalar(t) or ts.ndim == 0 else out
