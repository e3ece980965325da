"""Exception types shared across the package, the two registry helpers and the
number rule:
:func:`_registered` looks a name up in a registry table,
:func:`_float_params` checks the keyword parameters a registered factory takes,
and :func:`_real` and :func:`_integer` say what counts as a number where the
package takes one from a caller: a finite ``numbers.Real`` or
``numbers.Integral`` (numpy scalars included) that is not a bool, finite
meaning within the double range, as a JSON number is (RFC 8259, section 6).
:func:`_horizon` admits +inf besides, for the end of a window (0, t].
"""

import math
import numbers

__all__ = [
    "CrmError",
    "SupportError",
    "NaturalSpaceError",
    "DerivativeDomainError",
    "ConditionError",
    "DivergenceError",
    "TruncationError",
    "AtomLinkError",
    "ConfigError",
]


class CrmError(ValueError):
    """Base class for all package-specific errors."""


class SupportError(CrmError):
    """A point lies outside the support of a family or transform image."""


class NaturalSpaceError(CrmError):
    """A natural parameter vector lies outside the natural parameter space.

    Carries the index of the offending coordinate (1-based) when a single
    coordinate can be blamed, and, when a batch of parameters was checked,
    the position ``index`` (0-based) of the first one that fails.
    """

    def __init__(self, message, coord=None, index=None):
        super().__init__(message)
        self.coord = coord
        self.index = index


class DerivativeDomainError(CrmError):
    """A derivative of the log-partition does not exist where it is asked for.

    Raised for a moment that diverges, such as E[(ln x)^m] on the
    ``pareto_loglog`` face for a Pareto shape alpha <= m.
    """


class ConditionError(CrmError):
    """A context was built strictly but its condition report failed."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class DivergenceError(CrmError):
    """An integral failed to stabilize; carries the partial value."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class TruncationError(CrmError):
    """A sampling region carries more base mass than a draw can hold (an
    infinite mass, or more than ``_MAX_ATOMS`` expected atoms) and must be
    restricted."""


# The most expected atoms, a summed base mass, that one draw may hold; a draw
# of more is refused before any count is drawn or any array is allocated
_MAX_ATOMS = 1e8


class AtomLinkError(CrmError):
    """A weight could not be linked to an admissible likelihood parameter.

    Carries the location of the offending atom.
    """

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class ConfigError(CrmError):
    """A configuration document is malformed; message carries a JSON pointer."""

    def __init__(self, message, pointer=""):
        super().__init__(f"{pointer}: {message}" if pointer else message)
        self.pointer = pointer


_MAX = math.nextafter(math.inf, 0.0)  # the largest finite double


def _real(value) -> bool:
    """Whether value is a finite real number: a ``numbers.Real`` that is not a
    bool and lies within the double range.  A ``numbers.Rational`` (an int of
    any size, a bool refused) is compared exactly, with no conversion that could
    overflow; any other real goes through ``math.isfinite``, so a numpy
    ``float32`` is never compared with a double it cannot hold."""
    if isinstance(value, float) or not isinstance(value, numbers.Rational):
        # float is tested first: a double, np.float64 included, needs no ABC lookup
        return isinstance(value, (float, numbers.Real)) and math.isfinite(value)
    return not isinstance(value, bool) and -_MAX <= value <= _MAX


def _integer(value) -> bool:
    """Whether value is an integer: a ``numbers.Integral`` that :func:`_real` accepts."""
    return isinstance(value, numbers.Integral) and _real(value)


def _horizon(value) -> bool:
    """Whether value can end a window (0, value]: a number :func:`_real` accepts, or +inf."""
    return _real(value) or value == math.inf


def _registered(table: dict, name, kind: str, names=sorted):
    """``table[name]``; an unknown name raises :class:`CrmError` listing the
    registered ones in the order ``names(table)`` gives."""
    if name not in table:
        raise CrmError(f"unknown {kind} {name!r}; registered: {', '.join(names(table))}")
    return table[name]


def _float_params(name: str, what: str, given: dict, defaults: dict) -> dict:
    """``defaults`` updated by ``given``, every value a float: a key outside the
    defaults, or a value that is not a finite real number (a bool, a str, None,
    inf, NaN), raises :class:`CrmError` naming it."""
    extra = given.keys() - defaults.keys()
    if extra:
        raise CrmError(f"{name} does not accept {what}(s) {sorted(extra)}")
    for key, value in given.items():
        if not _real(value):
            raise CrmError(f"{name}: {what} {key} must be a number, got {value!r}")
    return {key: float(given.get(key, default)) for key, default in defaults.items()}
