"""Piecewise scalar functions on the half line.

Both parameter paths and base-measure densities are piecewise functions of a
location coordinate z >= 0.  Pieces are constant, affine (c0 + c1*z), or an
arbitrary callable; constant and affine pieces integrate exactly and invert
exactly, which the location sampler and the discretization rely on.

Evaluation is left-continuous: a piece covers (lo, hi], so at a shared
breakpoint the left piece wins.

Callable pieces integrate through :func:`checked_quad`, the package's one checked
quadrature helper: it raises rather than return an unconverged value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import integrate

from .errors import CrmError, DivergenceError

__all__ = ["Piece", "PiecewiseFunction", "checked_quad"]

_INF = float("inf")


def checked_quad(f: Callable[[float], float], a: float, b: float) -> float:
    """Adaptive quadrature of f over (a, b) to 1e-12 absolute / 1e-10 relative.

    Raises :class:`DivergenceError` carrying quad's value as the partial when
    quad reports a problem (subdivision limit, roundoff, probable divergence)
    or returns a non-finite value.
    """
    if not a < b:
        return 0.0
    val, _, _, *message = integrate.quad(
        f, a, b, epsabs=1e-12, epsrel=1e-10, limit=300, full_output=1
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
    kind: str  # "const" | "affine" | "func"
    c0: float = 0.0
    c1: float = 0.0
    func: Callable[[float], float] | None = None

    def __post_init__(self):
        if self.kind not in ("const", "affine", "func"):
            raise CrmError(f"unknown piece kind {self.kind!r}")
        if not self.lo < self.hi:
            raise CrmError(f"piece has empty interval ({self.lo}, {self.hi}]")
        if self.kind == "func" and self.func is None:
            raise CrmError("func piece requires a callable")

    def value(self, z):
        if self.kind == "const":
            return self.c0 if np.isscalar(z) else np.full(np.shape(z), self.c0)
        if self.kind == "affine":
            return self.c0 + self.c1 * np.asarray(z) if not np.isscalar(z) else self.c0 + self.c1 * z
        if np.isscalar(z):
            return float(self.func(z))
        return np.array([float(self.func(zz)) for zz in np.asarray(z).ravel()]).reshape(np.shape(z))

    def integral(self, a, b):
        """Integral over [a, b] intersected with the piece, exact when closed-form."""
        a = max(a, self.lo)
        b = min(b, self.hi)
        if not a < b:
            return 0.0
        if self.kind == "const":
            return self.c0 * (b - a)
        if self.kind == "affine":
            return self.c0 * (b - a) + 0.5 * self.c1 * (b * b - a * a)
        return checked_quad(self.func, a, b)

    def shifted(self, delta):
        """The piece plus a constant."""
        if self.kind == "const":
            return Piece(self.lo, self.hi, "const", c0=self.c0 + delta)
        if self.kind == "affine":
            return Piece(self.lo, self.hi, "affine", c0=self.c0 + delta, c1=self.c1)
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
        if np.isscalar(z):
            p = self.piece_at(z)
            if p is None:
                raise CrmError(f"z={z} outside the covered domain")
            return float(p.value(z))
        z = np.asarray(z, dtype=float)
        return np.array([self(float(zz)) for zz in z.ravel()]).reshape(z.shape)

    def defined_at(self, z):
        return self.piece_at(z) is not None

    def integral(self, a, b):
        """Integral over [a, b]; gaps between pieces contribute zero."""
        if not a < b:
            return 0.0
        return float(sum(p.integral(a, b) for p in self.pieces))

    def shifted(self, delta):
        return PiecewiseFunction([p.shifted(delta) for p in self.pieces])

    def scaled(self, factor):
        out = []
        for p in self.pieces:
            if p.kind == "func":
                f = p.func
                out.append(Piece(p.lo, p.hi, "func", func=lambda z, f=f, c=factor: c * f(z)))
            else:
                out.append(Piece(p.lo, p.hi, p.kind, c0=factor * p.c0, c1=factor * p.c1))
        return PiecewiseFunction(out)

    def is_exact(self):
        """True when every piece integrates in closed form."""
        return all(p.kind != "func" for p in self.pieces)
