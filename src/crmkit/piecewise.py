"""Piecewise scalar functions on the half line.

Both parameter paths and base-measure densities are piecewise functions of a
location coordinate z >= 0.  Pieces are constant, affine (c0 + c1*z), ratio
((c0 + c1*z) / (d0 + d1*z), d1 != 0), or an arbitrary callable; constant,
affine and ratio pieces integrate exactly and the location sampler inverts
them exactly over arrays.

Evaluation is left-continuous: a piece covers (lo, hi], so at a shared
breakpoint the left piece wins.  A function evaluates at a scalar or, with
one mask per piece, over a whole array.

Callable pieces integrate through :func:`checked_quad`, the package's one checked
quadrature helper: it raises rather than return an unconverged value.  (The
location integrals of :mod:`crmkit.levy` first try QUADPACK's 21-point
pass over a batch of nodes and call it where that pass is not enough.)  A
closed-form integral that is not finite (a nonzero piece over an unbounded
interval, or a ratio piece whose denominator vanishes on it) raises
:class:`DivergenceError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CrmError, DivergenceError

__all__ = ["Piece", "PiecewiseFunction", "checked_quad"]

_INF = float("inf")
# checked_quad's absolute and relative tolerances
_EPSABS, _EPSREL = 1e-12, 1e-10


def checked_quad(f: Callable[[float], float], a: float, b: float) -> float:
    """Adaptive quadrature of f over (a, b) to 1e-12 absolute / 1e-10 relative.

    Raises :class:`DivergenceError` carrying quad's value as the partial when
    quad reports a problem (subdivision limit, roundoff, probable divergence)
    or returns a non-finite value.  ``scipy.integrate`` is imported on the
    first call, so a run that integrates only closed-form pieces never loads
    it; ``quad`` is looked up on that module at each call.
    """
    if not a < b:
        return 0.0
    from scipy import integrate

    val, _, _, *message = integrate.quad(
        f, a, b, epsabs=_EPSABS, epsrel=_EPSREL, limit=300, full_output=1
    )
    if message:
        raise DivergenceError(
            f"integral over ({a}, {b}) did not stabilize: {message[0]}", partial=val
        )
    if not np.isfinite(val):
        raise DivergenceError(f"integral over ({a}, {b}) is not finite", partial=val)
    return float(val)


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
            if math.isnan(getattr(self, name)):
                raise CrmError(f"piece on ({self.lo}, {self.hi}] has {name} = NaN")
        if self.kind == "func" and self.func is None:
            raise CrmError("func piece requires a callable")
        if self.kind == "ratio" and self.d1 == 0:
            raise CrmError("ratio piece needs d1 != 0; a constant denominator is affine")

    def value(self, z):
        if self.kind == "const":
            return self.c0 if np.isscalar(z) else np.full(np.shape(z), self.c0)
        if self.kind != "func":
            z = z if np.isscalar(z) else np.asarray(z)
            if self.kind == "affine":
                return self.c0 + self.c1 * z
            return (self.c0 + self.c1 * z) / (self.d0 + self.d1 * z)
        if np.isscalar(z):
            return float(self.func(z))
        return np.array([float(self.func(zz)) for zz in np.asarray(z).ravel()]).reshape(np.shape(z))

    def _ratio_terms(self) -> tuple[float, float]:
        """(L, K) with (c0 + c1 z)/(d0 + d1 z) = L + K d1/(d0 + d1 z), so the
        integral from a to b is L (b - a) + K ln(y_b / y_a), y = d0 + d1 z."""
        return self.c1 / self.d1, (self.c0 * self.d1 - self.c1 * self.d0) / (self.d1 * self.d1)

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
            return checked_quad(self.func, a, b)
        if self.kind == "ratio":
            return self._ratio_integral(a, b)
        if self.c0 == 0 and (self.kind == "const" or self.c1 == 0):
            return 0.0
        if self.kind == "const":
            val = self.c0 * (b - a)
        else:
            val = self.c0 * (b - a) + 0.5 * self.c1 * (b * b - a * a)
        if not math.isfinite(val):
            raise DivergenceError(
                f"{self.kind} piece integral over ({a}, {b}) is not finite", partial=_INF
            )
        return val

    def _ratio_integral(self, a, b):
        lin, log_coef = self._ratio_terms()
        y_a, y_b = self.d0 + self.d1 * a, self.d0 + self.d1 * b
        if lin == 0 and log_coef == 0:
            return 0.0
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
        pts = {p.lo for p in self.pieces} | {p.hi for p in self.pieces}
        return sorted(x for x in pts if np.isfinite(x))

    def piece_at(self, z):
        for p in self.pieces:
            if p.lo < z <= p.hi:
                return p
        return None

    def __call__(self, z):
        """Value at a scalar z, or elementwise over an array with one mask per piece.

        Pieces cover (lo, hi] and are tried left to right, so the left piece
        wins at a shared breakpoint; a piece that covers every z evaluates
        the whole array with no masked write.  A z outside every piece raises
        :class:`CrmError` naming the first such z.
        """
        if np.isscalar(z):
            p = self.piece_at(z)
            if p is None:
                raise CrmError(f"z={z} outside the covered domain")
            return float(p.value(z))
        z = np.asarray(z, dtype=float)
        out = np.empty(z.shape)
        todo = np.ones(z.shape, dtype=bool)
        for p in self.pieces:
            mask = todo & (z > p.lo) & (z <= p.hi)
            if mask.all():  # only while no earlier piece took a z
                return np.asarray(p.value(z), dtype=float)
            if mask.any():
                out[mask] = p.value(z[mask])
                todo &= ~mask
        if todo.any():
            raise CrmError(f"z={float(z[todo][0])} outside the covered domain")
        return out

    def defined_at(self, z):
        return self.piece_at(z) is not None

    def integral(self, a, b):
        """Integral over [a, b]; gaps between pieces contribute zero."""
        if not a < b:
            return 0.0
        return float(sum(p.integral(a, b) for p in self.pieces))

    def shifted(self, delta):
        return PiecewiseFunction([p.shifted(delta) for p in self.pieces])
