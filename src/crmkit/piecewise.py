"""Piecewise scalar functions on the half line.

Both parameter paths and base-measure densities are piecewise functions of a
location coordinate z >= 0.  Pieces are constant, affine (c0 + c1*z), ratio
((c0 + c1*z) / (d0 + d1*z), d1 != 0), or an arbitrary callable; constant,
affine and ratio pieces integrate exactly, and :meth:`Piece.locate`, the
inverse of :meth:`Piece.integral` that places the sampler's atoms, inverts
them exactly over arrays (callable pieces by brentq, one entry at a time).

Evaluation is left-continuous: a piece covers (lo, hi], so at a shared
breakpoint the left piece wins.  A function evaluates, and says where it is
defined, with one mask per piece over ``np.asarray(z)``; a scalar is a batch of one.

Callable pieces integrate through :func:`checked_quad`, the package's one checked
quadrature helper: QUADPACK's adaptive quadrature (:mod:`crmkit.quadpack`)
on an integrand that takes an array of nodes, one call per step of the
routine, raising rather than returning an unconverged value.  It is the one
way into :mod:`crmkit.quadpack`, for one integrand or for a batch of
integrands indexed by points, such as the location integrals of
:mod:`crmkit.levy` at a batch of weights or the moments of one statistic at
several orders: the batch runs in lockstep, one integrand call per step for
every point still bisecting, the first step's nodes shared by all.  A
closed-form integral that is not finite (a nonzero piece over an unbounded
interval, or a ratio piece whose denominator vanishes on it) raises
:class:`DivergenceError`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CrmError, DivergenceError, _real

__all__ = ["Piece", "PiecewiseFunction", "checked_quad"]

_INF = float("inf")
_EPS = float(np.finfo(float).eps)


@functools.cache
def _quadpack():
    """:mod:`crmkit.quadpack`, imported on first use so that parsing and building
    a context loads it only where an integral needs it."""
    from . import quadpack

    return quadpack


def checked_quad(f: Callable, a: float, b: float, points=None):
    """Adaptive quadrature of f over (a, b) to 1e-12 absolute / 1e-10 relative.

    ``f`` maps a 1-D array of nodes to their values, one call per step of the
    routine: the first rule's 21 nodes (15, or 30 on (-inf, inf), where an
    end is infinite), then both halves' nodes of each bisection.  The routine
    is QUADPACK's ``dqagse``/``dqagie`` (Piessens et al. 1983;
    :func:`crmkit.quadpack.qag`) with at most 300 subintervals: on the
    doubles of a scalar integrand it returns what ``scipy.integrate.quad``
    does.  Raises :class:`DivergenceError` carrying the estimate as the
    partial when QUADPACK reports a problem (subdivision limit, roundoff,
    bad integrand behaviour, probable divergence), naming it, or when the
    value is not finite.

    With ``points`` (a numpy array or scalar) it integrates one integrand per
    point, all in lockstep on finite and infinite ends alike, and returns an
    array of the points' shape (a float at a scalar).  At the first step
    ``f(nodes, points)`` takes one 1-D array of nodes shared by every point
    and has shape ``points.shape + (nodes.size,)``; at each later step
    ``f(nodes, live)`` takes the points still bisecting (shape (r,)) and
    their nodes, one row each (shape (r, 2n)), and has that shape.  Each
    value is the double its point gives alone; where several points fail,
    the first in flattened order raises.  An exception that ``f`` itself
    raises propagates from the first step at which a live point meets it,
    which may be another point's than the lowest-index point's.
    """
    if not a < b:
        return 0.0 if points is None or not points.ndim else np.zeros(points.shape)
    quadpack = _quadpack()
    values = []  # the first failing row raises
    for val, _, _, ier in [quadpack.qag(f, a, b)] if points is None else quadpack.qag(f, a, b, points):
        if ier:
            raise DivergenceError(
                f"integral over ({a}, {b}) did not stabilize: {quadpack.REASONS[ier]}", partial=val
            )
        if not math.isfinite(val):
            raise DivergenceError(f"integral over ({a}, {b}) is not finite", partial=val)
        values.append(val)
    if points is None or not points.ndim:
        return values[0]
    return np.array(values).reshape(points.shape)


@dataclass(frozen=True)
class Piece:
    lo: float
    hi: float
    kind: str  # "const" | "affine" | "ratio" | "func"
    c0: float = 0.0
    c1: float = 0.0
    func: Callable[[float], float] | None = None
    d0: float = 1.0  # ratio denominator d0 + d1 z
    d1: float = 0.0

    def __post_init__(self):
        if self.kind not in ("const", "affine", "ratio", "func"):
            raise CrmError(f"unknown piece kind {self.kind!r}")
        if not self.lo < self.hi:
            raise CrmError(f"piece has empty interval ({self.lo}, {self.hi}]")
        for name in ("c0", "c1", "d0", "d1"):
            if not _real(value := getattr(self, name)):
                raise CrmError(f"piece on ({self.lo}, {self.hi}] has {name} = {value}, not a finite number")
        if self.kind == "func" and self.func is None:
            raise CrmError("func piece requires a callable")
        if self.kind == "ratio" and self.d1 == 0:
            raise CrmError("ratio piece needs d1 != 0; a constant denominator is affine")

    def value(self, z):
        """The piece elementwise over ``np.asarray(z)``, an array of its shape."""
        z = np.asarray(z, dtype=float)
        if self.kind == "const":
            return np.full(z.shape, self.c0)
        if self.kind == "affine":
            return self.c0 + self.c1 * z
        if self.kind == "ratio":
            return (self.c0 + self.c1 * z) / (self.d0 + self.d1 * z)
        # the callable takes Python floats, one node at a time
        return np.array([float(self.func(zz)) for zz in z.ravel().tolist()]).reshape(z.shape)

    @property
    def zero(self) -> bool:
        """Whether a const, affine or ratio piece is identically 0 (c0 = c1 = 0)."""
        return self.kind != "func" and self.c0 == 0 and (self.kind == "const" or self.c1 == 0)

    def _ratio_terms(self) -> tuple[float, float]:
        """(L, K) with (c0 + c1 z)/(d0 + d1 z) = L + K d1/(d0 + d1 z), so the
        integral from a to b is L (b - a) + K ln(y_b / y_a), y = d0 + d1 z."""
        return self.c1 / self.d1, (self.c0 * self.d1 - self.c1 * self.d0) / (self.d1 * self.d1)

    def nonnegative(self) -> bool:
        """Whether a const, affine or ratio piece is >= 0 on (lo, hi), exactly: a ratio's
        denominator must not vanish inside, and with its sign s there, s (c0 + c1 z)
        is affine like the other kinds, so its limits at the two ends decide."""
        sign = 1.0
        if self.kind == "ratio":
            pole = -self.d0 / self.d1
            if self.lo < pole < self.hi:
                return False
            sign = math.copysign(1.0, self.d1 if pole <= self.lo else -self.d1)
        a, b = sign * self.c0, sign * self.c1
        return all((a + b * z if b else a) >= 0 for z in (self.lo, self.hi))

    def integral(self, a, b):
        """Integral over [a, b] intersected with the piece, exact when closed-form.

        A zero piece integrates to 0.0; a closed form that is not finite
        raises :class:`DivergenceError` with ``partial=inf``.
        """
        a = max(a, self.lo)
        b = min(b, self.hi)
        if not a < b:
            return 0.0
        if self.kind == "func":
            return checked_quad(self.value, a, b)
        if self.zero:
            return 0.0
        if self.kind == "ratio":
            return self._ratio_integral(a, b)
        val = self._closed(a, b)
        if not math.isfinite(val):
            raise DivergenceError(
                f"{self.kind} piece integral over ({a}, {b}) is not finite", partial=_INF
            )
        return val

    def _closed(self, a, b):
        """A const or affine piece's integral over (a, b], a <= b within the piece:
        the arithmetic of :meth:`integral`, unchecked, elementwise over arrays."""
        if self.kind == "const":
            return self.c0 * (b - a)
        return self.c0 * (b - a) + 0.5 * self.c1 * (b * b - a * a)

    def _ratio_integral(self, a, b):
        lin, log_coef = self._ratio_terms()
        y_a, y_b = self.d0 + self.d1 * a, self.d0 + self.d1 * b
        if not np.isfinite(b - a):
            raise DivergenceError(
                f"ratio piece integral over ({a}, {b}) is infinite", partial=_INF
            )
        if log_coef != 0 and not y_a * y_b > 0:
            raise DivergenceError(
                f"ratio piece integral over ({a}, {b}) diverges: its denominator "
                f"{self.d0} + {self.d1} z vanishes at z={-self.d0 / self.d1}",
                partial=_INF,
            )
        if log_coef == 0:
            return lin * (b - a)  # the denominator cancels
        return lin * (b - a) + log_coef * math.log1p(self.d1 * (b - a) / y_a)

    def locate(self, rem: np.ndarray, a, b) -> np.ndarray:
        """The z in [a, b] with ``integral(a, z) == rem``, for each entry of rem.

        The window is clipped to the piece as :meth:`integral` clips it, and
        each rem lies in [0, integral(a, b)].  Const and affine pieces invert
        in closed form, ratio pieces by Newton's method on their exact mass,
        and callable pieces one entry at a time by brentq on (a, b), which
        must then be finite; ``scipy.optimize`` is imported on the first such
        call.
        """
        a, b = max(a, self.lo), min(b, self.hi)
        if self.kind == "const":
            return a + rem / self.c0
        if self.kind == "ratio":
            return self._ratio_locate(rem, a, b)
        if self.kind == "func":
            from scipy import optimize

            def short(z, r):
                return self.integral(a, z) - r

            return np.array(
                [optimize.brentq(short, a, b, args=(r,), xtol=1e-14, rtol=1e-14) for r in rem.tolist()]
            )
        # solve c0 (z - a) + c1 (z^2 - a^2) / 2 = rem, stable as c1 -> 0
        r = rem + self.c0 * a + 0.5 * self.c1 * a * a
        root = np.sqrt(np.maximum(self.c0 * self.c0 + 2.0 * self.c1 * r, 0.0))
        denom = self.c0 + root
        flat = denom <= 0
        if not flat.any():
            return 2.0 * r / denom
        # c0 + root cancels where c0 <= 0 and r <= 0 (rem = 0 at a = 0 with c0 = 0
        # gives 0 / 0); there the same root is (root - c0) / c1, with no cancellation
        if self.c1 <= 0:
            raise CrmError(f"affine base piece is not positive on ({a}, {b}]")
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(flat, (root - self.c0) / self.c1, 2.0 * r / denom)

    def _ratio_locate(self, rem, a, b):
        """:meth:`locate` for a ratio piece.

        With h = (d0 + d1 a)/d1 and t = z - a, the mass from a is
        G(t) = L t + K log1p(t/h) (see :meth:`_ratio_terms`), whose slope is
        the density.  K = 0 inverts linearly.  Otherwise G'' = -K/(h + t)^2
        keeps one sign, so G is concave (K > 0) or convex (K < 0), and
        Newton's method on G(t) = rem started from the end where the density
        is larger (a for K > 0, b for K < 0) moves monotonically to the root:
        every tangent meets rem between the iterate and the root.  An entry
        is done when its step turns back (the rounding of G), or when the
        error the step leaves, |G''/(2 G')| step^2, is below an ulp of the
        new t.
        """
        lin, log_coef = self._ratio_terms()
        if log_coef == 0:
            return a + rem / lin
        h = (self.d0 + self.d1 * a) / self.d1
        width = b - a
        toward = 1.0 if log_coef > 0 else -1.0
        end = 0.0 if log_coef > 0 else width
        # the first tangent, from the end, is the one with no logarithm per entry
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
        return a + np.clip(t, 0.0, width)

    def shifted(self, delta):
        """The piece plus a constant."""
        if self.kind == "const":
            return Piece(self.lo, self.hi, "const", c0=self.c0 + delta)
        if self.kind == "affine":
            return Piece(self.lo, self.hi, "affine", c0=self.c0 + delta, c1=self.c1)
        if self.kind == "ratio":
            return Piece(
                self.lo, self.hi, "ratio", c0=self.c0 + delta * self.d0,
                c1=self.c1 + delta * self.d1, d0=self.d0, d1=self.d1,
            )
        f = self.func
        return Piece(self.lo, self.hi, "func", func=lambda z, f=f, d=delta: f(z) + d)


class PiecewiseFunction:
    """An ordered, non-overlapping list of pieces, each covering (lo, hi]."""

    def __init__(self, pieces: Sequence[Piece]):
        pieces = sorted(pieces, key=lambda p: p.lo)
        for left, right in zip(pieces, pieces[1:]):
            if left.hi > right.lo + 1e-15 * max(1.0, abs(right.lo)):
                raise CrmError(
                    f"pieces overlap at z={right.lo} (({left.lo},{left.hi}] vs ({right.lo},{right.hi}])"
                )
        if not pieces:
            raise CrmError("piecewise function needs at least one piece")
        self.pieces = tuple(pieces)

    @classmethod
    def constant(cls, value, lo=0.0, hi=_INF):
        return cls([Piece(lo, hi, "const", c0=value)])

    @classmethod
    def from_callable(cls, func, lo=0.0, hi=_INF):
        return cls([Piece(lo, hi, "func", func=func)])

    @property
    def lo(self):
        return self.pieces[0].lo

    @property
    def hi(self):
        return self.pieces[-1].hi

    def breakpoints(self):
        """All finite piece boundaries, ascending."""
        return sorted({x for p in self.pieces for x in (p.lo, p.hi) if math.isfinite(x)})

    def piece_at(self, z):
        for p in self.pieces:
            if p.lo < z <= p.hi:
                return p
        return None

    def __call__(self, z):
        """Value at each z of ``np.asarray(z)``, with one mask per piece: a float at
        a Python or numpy scalar, else an array of z's shape (0-d at a 0-d array).

        Pieces cover (lo, hi] and are tried left to right, so the left piece
        wins at a shared breakpoint; a piece that covers every z evaluates
        the whole array with no masked write.  A z outside every piece raises
        :class:`CrmError` naming the first such z.
        """
        zs = np.asarray(z, dtype=float)
        out = np.empty(zs.shape)
        todo = np.ones(zs.shape, dtype=bool)
        for p in self.pieces:
            mask = todo & (zs > p.lo) & (zs <= p.hi)
            if mask.all():  # only while no earlier piece took a z: none is left
                out, todo = np.asarray(p.value(zs), dtype=float), ~mask
                break
            if mask.any():
                out[mask] = p.value(zs[mask])
                todo &= ~mask
        if todo.any():
            raise CrmError(f"z={float(zs[todo][0])} outside the covered domain")
        return out if isinstance(z, np.ndarray) or out.ndim else float(out)

    def defined_at(self, z):
        """Whether a piece covers each z of ``np.asarray(z)``: a bool at a Python or
        numpy scalar, else a boolean array of z's shape.  No piece covers NaN."""
        zs = np.asarray(z, dtype=float)
        ok = np.zeros(zs.shape, dtype=bool)
        for p in self.pieces:
            ok |= (zs > p.lo) & (zs <= p.hi)
        return ok if isinstance(z, np.ndarray) or ok.ndim else bool(ok)

    def integral(self, a, b):
        """Integral over [a, b]; gaps between pieces contribute zero."""
        return self._window(a, b)[1]

    def _meeting(self, a, b):
        """(piece, lo, hi) for each piece that meets the window (a, b], left to
        right, (lo, hi] being its part inside."""
        for p in self.pieces:
            lo, hi = max(a, p.lo), min(b, p.hi)
            if lo < hi:
                yield p, lo, hi

    def _window(self, a, b):
        """``(pieces, total)``: (piece, lo, hi, mass) for each piece of
        :meth:`_meeting`, mass its :meth:`Piece.integral` over (lo, hi], and
        their masses' sum in that order, a float (0.0 where no piece meets the
        window)."""
        pieces = [(p, lo, hi, p.integral(lo, hi)) for p, lo, hi in self._meeting(a, b)]
        return pieces, float(sum(mass for *_, mass in pieces))

    def shifted(self, delta):
        return PiecewiseFunction([p.shifted(delta) for p in self.pieces])
