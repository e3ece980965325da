"""JSON configuration for contexts, sampling runs, and conjugate priors.

A component object names a family ({"name", "params"}), the statistic index
k (one-based), the natural-parameter path (one list of pieces per
coordinate), the base measure ({"pieces", "jumps"}) and, optionally,
"enforce_conditions" and "atom_overrides" ([[location, [values...]], ...],
at distinct locations).  Piece objects carry "from" and an optional "to"
(absent or null meaning infinity) plus exactly one of:

    "const": v            value v
    "affine": [c0, c1]    value c0 + c1 z
    "ratio": [p0, p1, q0, q1]   value (p0 + p1 z) / (q0 + q1 z), base only;
                                exact integral and inversion, q1 = 0 reads
                                as the affine piece (p0 + p1 z) / q0

Sampling configs hold {"components": [...]} plus optional "z_max" and an
optional "pareto_series" generator, whose components are built from its
numbers and report their errors under /pareto_series/...; prior configs hold
{"pair": {"name", "fixed"}, "component": {...}}.  Every object refuses a key
outside its schema, the values of "params" and "fixed" are numbers, every
number is finite (as JSON has no NaN or Infinity), and every validation error
carries the JSON pointer of the value at fault.

:func:`path_to_obj` writes a :class:`~crmkit.expfam.ParameterPath` back as
the "path" and "atom_overrides" of a component object, every number a float;
``crm posterior`` writes the updated path of a prior this way.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING

import numpy as np

from . import expfam
from .errors import ConfigError, CrmError, _integer, _real, _registered
from .expfam import ParameterPath
from .levy import BaseMeasure, LevyContext
from .piecewise import Piece, PiecewiseFunction

if TYPE_CHECKING:
    from .conjugacy import ConjugatePair

__all__ = [
    "config_hash",
    "load_json",
    "parse_component",
    "parse_sample_config",
    "parse_prior_config",
    "path_to_obj",
]

_INF = float("inf")


def config_hash(obj) -> str:
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(canon.encode()).hexdigest()


def load_json(path_or_text):
    try:
        if isinstance(path_or_text, (dict, list)):
            return path_or_text
        text = path_or_text
        if "\n" not in str(text) and str(text).endswith(".json"):
            with open(text) as fh:
                text = fh.read()
        return json.loads(text)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}")


def _need(obj, key, kind, ptr, default=None):
    """obj[key] of the given kind (float: a finite real number, read as a float;
    int: an integer within the double range; neither a bool, by
    :func:`~crmkit.errors._real` and :func:`~crmkit.errors._integer`); default
    where the key is absent, which only a non-None default allows."""
    if key not in obj:
        if default is None:
            raise ConfigError("missing required key", f"{ptr}/{key}")
        return default
    val = obj[key]
    if kind is float:
        if not _real(val):
            raise ConfigError("expected a number", f"{ptr}/{key}")
        return float(val)
    if not (_integer(val) if kind is int else isinstance(val, kind)):
        raise ConfigError(f"expected {kind.__name__}", f"{ptr}/{key}")
    return val


def _object(val, ptr, what, keys):
    """val, refused at ptr unless it is a JSON object with no key outside keys."""
    if not isinstance(val, dict):
        raise ConfigError(f"{what} must be an object", ptr)
    extra = val.keys() - keys
    if extra:
        raise ConfigError(f"unknown {what} keys {sorted(extra)}", ptr)
    return val


class _At:
    """Turns a library error raised inside ``with _At(ptr)`` into a
    :class:`ConfigError` at ptr, its message after ``prefix``; a ConfigError,
    which already names its own pointer, passes through unchanged."""

    __slots__ = ("ptr", "prefix")

    def __init__(self, ptr, prefix=""):
        self.ptr, self.prefix = ptr, prefix

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if kind is not None and issubclass(kind, CrmError) and not issubclass(kind, ConfigError):
            raise ConfigError(f"{self.prefix}{exc}", self.ptr) from exc
        return False


_PIECE_KINDS = ("const", "affine", "ratio")


def _parse_piece(obj, ptr, allow_ratio):
    _object(obj, ptr, "piece", ("from", "to") + _PIECE_KINDS)
    lo = _need(obj, "from", float, ptr)
    hi = _INF if obj.get("to") is None else _need(obj, "to", float, ptr)
    kinds = [k for k in _PIECE_KINDS if k in obj]
    if len(kinds) != 1:
        raise ConfigError('piece needs exactly one of "const", "affine", "ratio"', ptr)
    kind = kinds[0]
    if kind == "ratio" and not allow_ratio:
        raise ConfigError('"ratio" pieces are only allowed in base densities', ptr)
    with _At(ptr):
        if kind == "const":
            return Piece(lo, hi, "const", c0=_need(obj, "const", float, ptr))
        if kind == "affine":
            c0, c1 = _floats(obj["affine"], 2, f"{ptr}/affine")
            return Piece(lo, hi, "affine", c0=c0, c1=c1)
        p0, p1, q0, q1 = _floats(obj["ratio"], 4, f"{ptr}/ratio")
        if q1 == 0:
            if q0 == 0:
                raise ConfigError("ratio denominator q0 + q1 z is identically 0", f"{ptr}/ratio")
            return Piece(lo, hi, "affine", c0=p0 / q0, c1=p1 / q0)
        return Piece(lo, hi, "ratio", c0=p0, c1=p1, d0=q0, d1=q1)


def _floats(val, count, ptr):
    if not isinstance(val, list) or len(val) != count or not all(map(_real, val)):
        raise ConfigError(f"expected a list of {count} numbers", ptr)
    return [float(v) for v in val]


def _parse_piecewise(obj, ptr, allow_ratio):
    if not isinstance(obj, list) or not obj:
        raise ConfigError("expected a nonempty list of pieces", ptr)
    pieces = [_parse_piece(p, f"{ptr}/{i}", allow_ratio) for i, p in enumerate(obj)]
    with _At(ptr):
        return PiecewiseFunction(pieces)


def _parse_family(obj, ptr):
    _object(obj, ptr, "family", ("name", "params"))
    name = _need(obj, "name", str, ptr)
    params = _need(obj, "params", dict, ptr, {})
    with _At(ptr):  # the ConfigErrors of params pass through it unchanged
        _, known = _registered(expfam._REGISTRY, name, "family")
        _object(params, f"{ptr}/params", "params", known)
        params = {key: _need(params, key, float, f"{ptr}/params") for key in params}
        return expfam.make_family(name, **params)


def parse_component(obj, ptr="/component") -> LevyContext:
    _object(
        obj, ptr, "component", ("family", "k", "path", "base", "enforce_conditions", "atom_overrides")
    )
    family = _parse_family(_need(obj, "family", dict, ptr), f"{ptr}/family")
    with _At(f"{ptr}/k"):
        k = expfam._check_k(family, _need(obj, "k", int, ptr))

    path_obj = _need(obj, "path", list, ptr)
    if len(path_obj) != family.dimension:
        raise ConfigError(
            f"path needs {family.dimension} coordinate(s), got {len(path_obj)}",
            f"{ptr}/path",
        )
    coords = [
        _parse_piecewise(coord, f"{ptr}/path/{i}", allow_ratio=False)
        for i, coord in enumerate(path_obj)
    ]
    overrides = {}
    for i, entry in enumerate(_need(obj, "atom_overrides", list, ptr, [])):
        optr = f"{ptr}/atom_overrides/{i}"
        if not isinstance(entry, list) or len(entry) != 2:
            raise ConfigError("override must be [location, [values...]]", optr)
        loc = entry[0]
        if not _real(loc):
            raise ConfigError("override location must be a number", optr)
        if float(loc) in overrides:
            raise ConfigError(f"override location {float(loc)} repeats an earlier one", optr)
        overrides[float(loc)] = np.asarray(
            _floats(entry[1], family.dimension, optr), dtype=float
        )
    with _At(f"{ptr}/path"):
        path = ParameterPath(coords, overrides or None)

    bptr = f"{ptr}/base"
    base_obj = _object(_need(obj, "base", dict, ptr), bptr, "base", ("pieces", "jumps"))
    pieces_obj = _need(base_obj, "pieces", list, bptr, [])
    if pieces_obj:
        density = _parse_piecewise(pieces_obj, f"{bptr}/pieces", allow_ratio=True)
    else:
        density = PiecewiseFunction.constant(0.0)
    jumps = [
        tuple(_floats(j, 2, f"{bptr}/jumps/{i}"))
        for i, j in enumerate(_need(base_obj, "jumps", list, bptr, []))
    ]
    with _At(bptr):
        base = BaseMeasure(density, tuple(jumps))

    enforce = _need(obj, "enforce_conditions", bool, ptr, True)
    with _At(ptr, "cannot build context: "):
        return LevyContext.build(family, path, base, k, require_conditions=enforce)


# a Pareto series builds one context per component, about 0.2 ms each, so
# this bound keeps a parse to seconds; the shipped configs use 3
_MAX_SERIES_COMPONENTS = 10_000


def _parse_pareto_series(obj, ptr) -> list[LevyContext]:
    """Pareto components n = 1..N of shape n alpha(z), so eta(z) = -(n alpha(z) + 1),
    over the base dz / (n alpha(z)), built unenforced."""
    _object(obj, ptr, "series", ("components", "scale", "support", "alpha"))
    count = _need(obj, "components", int, ptr)
    if count < 1:
        raise ConfigError("components must be >= 1", f"{ptr}/components")
    if count > _MAX_SERIES_COMPONENTS:
        raise ConfigError(
            f"components must be <= {_MAX_SERIES_COMPONENTS}, got {count}", f"{ptr}/components"
        )
    scale = _need(obj, "scale", float, ptr, 1.0)
    lo, hi = _floats(_need(obj, "support", list, ptr), 2, f"{ptr}/support")
    if not 0 <= lo < hi:
        raise ConfigError("support must satisfy 0 <= from < to", f"{ptr}/support")
    alpha = _object(_need(obj, "alpha", dict, ptr), f"{ptr}/alpha", "alpha", ("const", "affine"))
    if len(alpha) != 1:
        raise ConfigError('alpha needs exactly one of "const", "affine"', f"{ptr}/alpha")
    if "const" in alpha:
        c0, c1 = _need(alpha, "const", float, f"{ptr}/alpha"), 0.0
    else:
        c0, c1 = _floats(alpha["affine"], 2, f"{ptr}/alpha/affine")
    if not (c0 + c1 * lo >= 0 and (c0 + c1 * hi if c1 else c0) > 0):
        raise ConfigError(f"alpha(z) = {c0} + {c1} z must be positive on ({lo}, {hi}]", f"{ptr}/alpha")
    with _At(f"{ptr}/scale"):
        family = expfam.make_family("pareto", scale=scale)

    contexts = []
    with _At(ptr):
        for n in range(1, count + 1):
            eta = Piece(lo, hi, "affine", c0=-(n * c0 + 1.0), c1=-(n * c1))
            if c1 == 0.0:
                density = Piece(lo, hi, "const", c0=1.0 / (n * c0))
            else:
                density = Piece(lo, hi, "ratio", c0=1.0, c1=0.0, d0=n * c0, d1=n * c1)
            path = ParameterPath([PiecewiseFunction([eta])])
            base = BaseMeasure(PiecewiseFunction([density]))
            contexts.append(LevyContext.build(family, path, base, 1, require_conditions=False))
    return contexts


def parse_sample_config(obj) -> tuple[list[LevyContext], float | None]:
    _object(obj, "", "config", ("components", "z_max", "pareto_series"))
    contexts = [
        parse_component(c, f"/components/{i}")
        for i, c in enumerate(_need(obj, "components", list, "", []))
    ]
    if "pareto_series" in obj:
        contexts += _parse_pareto_series(obj["pareto_series"], "/pareto_series")
    if not contexts:
        raise ConfigError("config defines no components", "/components")
    z_max = None
    if "z_max" in obj:
        z_max = _need(obj, "z_max", float, "")
        if not (z_max > 0):
            raise ConfigError(f"z_max must be positive, got {z_max}", "/z_max")
    return contexts, z_max


def parse_prior_config(obj) -> tuple[ConjugatePair, LevyContext]:
    from .conjugacy import _PAIRS, make_pair

    _object(obj, "", "config", ("pair", "component"))
    pair_obj = _object(_need(obj, "pair", dict, ""), "/pair", "pair", ("name", "fixed"))
    name = _need(pair_obj, "name", str, "/pair")
    with _At("/pair/name"):
        _, _, _, defaults, _ = _registered(_PAIRS, name, "pair")
    fixed = _object(_need(pair_obj, "fixed", dict, "/pair", {}), "/pair/fixed", "fixed", defaults)
    with _At("/pair/fixed"):
        pair = make_pair(name, **{key: _need(fixed, key, float, "/pair/fixed") for key in fixed})
    ctx = parse_component(_need(obj, "component", dict, ""), "/component")
    if ctx.family.name != pair.prior_family.name:
        raise ConfigError(
            f"component family {ctx.family.name!r} does not match pair prior "
            f"{pair.prior_family.name!r}",
            "/component/family",
        )
    return pair, ctx


def _piece_obj(p: Piece) -> dict:
    if p.kind not in ("const", "affine"):
        raise CrmError(f"{p.kind} piece on ({p.lo}, {p.hi}] has no config form")
    obj = {"from": float(p.lo)}
    if p.hi != _INF:
        obj["to"] = float(p.hi)
    obj[p.kind] = float(p.c0) if p.kind == "const" else [float(p.c0), float(p.c1)]
    return obj


def path_to_obj(path: ParameterPath) -> dict:
    """The "path" and, where the path has any, the "atom_overrides" of a
    component object that :func:`parse_component` reads back as ``path``:
    each piece as {"from", "to" (omitted at infinity), "const" | "affine"},
    the overrides sorted by location.  A ratio or func piece, which no config
    path holds, is refused."""
    out = {"path": [[_piece_obj(p) for p in comp.pieces] for comp in path.components]}
    overrides = path.atom_overrides
    if overrides:
        out["atom_overrides"] = [[float(z), [float(v) for v in overrides[z]]] for z in sorted(overrides)]
    return out
