"""JSON configuration for contexts, sampling runs, and conjugate priors.

A component object names a family, the statistic index k (one-based), the
natural-parameter path (one list of pieces per coordinate), and the base
measure.  Piece objects carry "from"/"to" (null meaning infinity) plus
exactly one of:

    "const": v            value v
    "affine": [c0, c1]    value c0 + c1 z
    "ratio": [p0, p1, q0, q1]   value (p0 + p1 z) / (q0 + q1 z), base only;
                                exact integral and inversion, q1 = 0 reads
                                as the affine piece (p0 + p1 z) / q0

Sampling configs hold {"components": [...]} plus optional "z_max" and an
optional "pareto_series" generator; prior configs hold {"pair": {...},
"component": {...}}.  Validation errors carry a JSON-pointer location.
"""

from __future__ import annotations

import hashlib
import json
from typing import Sequence

import numpy as np

from . import expfam
from .conjugacy import ConjugatePair, make_pair, pair_names
from .errors import ConfigError, CrmError
from .expfam import ParameterPath
from .levy import BaseMeasure, LevyContext
from .piecewise import Piece, PiecewiseFunction

__all__ = [
    "config_hash",
    "load_json",
    "parse_component",
    "parse_sample_config",
    "parse_prior_config",
    "component_to_obj",
    "shift_component_obj",
    "override_component_obj",
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


def _need(obj, key, kind, ptr):
    if not isinstance(obj, dict) or key not in obj:
        raise ConfigError("missing required key", f"{ptr}/{key}")
    val = obj[key]
    if kind is float:
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise ConfigError("expected a number", f"{ptr}/{key}")
        return float(val)
    if not isinstance(val, kind):
        raise ConfigError(f"expected {kind.__name__}", f"{ptr}/{key}")
    return val


def _edge(obj, key, ptr, default=None):
    if key not in obj:
        if default is None:
            raise ConfigError("missing required key", f"{ptr}/{key}")
        return default
    val = obj[key]
    if val is None:
        return _INF
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise ConfigError("expected a number or null", f"{ptr}/{key}")
    return float(val)


def _parse_piece(obj, ptr, allow_ratio):
    if not isinstance(obj, dict):
        raise ConfigError("piece must be an object", ptr)
    lo = _edge(obj, "from", ptr)
    hi = _edge(obj, "to", ptr, default=_INF)
    kinds = [k for k in ("const", "affine", "ratio") if k in obj]
    if len(kinds) != 1:
        raise ConfigError('piece needs exactly one of "const", "affine", "ratio"', ptr)
    kind = kinds[0]
    extra = set(obj) - {"from", "to", kind}
    if extra:
        raise ConfigError(f"unknown piece keys {sorted(extra)}", ptr)
    try:
        if kind == "const":
            return Piece(lo, hi, "const", c0=_need(obj, "const", float, ptr))
        if kind == "affine":
            c0, c1 = _floats(obj["affine"], 2, f"{ptr}/affine")
            return Piece(lo, hi, "affine", c0=c0, c1=c1)
        if not allow_ratio:
            raise ConfigError('"ratio" pieces are only allowed in base densities', ptr)
        p0, p1, q0, q1 = _floats(obj["ratio"], 4, f"{ptr}/ratio")
        if q1 == 0:
            if q0 == 0:
                raise ConfigError("ratio denominator q0 + q1 z is identically 0", f"{ptr}/ratio")
            return Piece(lo, hi, "affine", c0=p0 / q0, c1=p1 / q0)
        return Piece(lo, hi, "ratio", c0=p0, c1=p1, d0=q0, d1=q1)
    except CrmError as exc:
        raise ConfigError(str(exc), ptr)


def _floats(val, count, ptr):
    if (
        not isinstance(val, list)
        or len(val) != count
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in val)
    ):
        raise ConfigError(f"expected a list of {count} numbers", ptr)
    return [float(v) for v in val]


def _parse_piecewise(obj, ptr, allow_ratio):
    if not isinstance(obj, list) or not obj:
        raise ConfigError("expected a nonempty list of pieces", ptr)
    pieces = [_parse_piece(p, f"{ptr}/{i}", allow_ratio) for i, p in enumerate(obj)]
    try:
        return PiecewiseFunction(pieces)
    except CrmError as exc:
        raise ConfigError(str(exc), ptr)


def parse_component(obj, ptr="/component") -> LevyContext:
    if not isinstance(obj, dict):
        raise ConfigError("component must be an object", ptr)
    known = {"family", "k", "path", "base", "enforce_conditions", "atom_overrides"}
    extra = set(obj) - known
    if extra:
        raise ConfigError(f"unknown component keys {sorted(extra)}", ptr)

    fam_obj = _need(obj, "family", dict, ptr)
    fam_name = _need(fam_obj, "name", str, f"{ptr}/family")
    params = fam_obj.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("family params must be an object", f"{ptr}/family/params")
    try:
        family = expfam.make_family(fam_name, **params)
    except (CrmError, TypeError) as exc:
        raise ConfigError(str(exc), f"{ptr}/family")

    k = _need(obj, "k", int, ptr)
    if not 1 <= k <= family.dimension:
        raise ConfigError(
            f"k={k} out of range 1..{family.dimension} for {fam_name}", f"{ptr}/k"
        )

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
    for i, entry in enumerate(obj.get("atom_overrides", [])):
        optr = f"{ptr}/atom_overrides/{i}"
        if not isinstance(entry, list) or len(entry) != 2:
            raise ConfigError("override must be [location, [values...]]", optr)
        loc = entry[0]
        if isinstance(loc, bool) or not isinstance(loc, (int, float)):
            raise ConfigError("override location must be a number", optr)
        overrides[float(loc)] = np.asarray(
            _floats(entry[1], family.dimension, optr), dtype=float
        )
    try:
        path = ParameterPath(coords, overrides or None)
    except CrmError as exc:
        raise ConfigError(str(exc), f"{ptr}/path")

    base_obj = _need(obj, "base", dict, ptr)
    extra = set(base_obj) - {"pieces", "jumps"}
    if extra:
        raise ConfigError(f"unknown base keys {sorted(extra)}", f"{ptr}/base")
    pieces_obj = base_obj.get("pieces", [])
    if pieces_obj:
        density = _parse_piecewise(pieces_obj, f"{ptr}/base/pieces", allow_ratio=True)
    else:
        density = PiecewiseFunction.constant(0.0)
    jumps = []
    for i, j in enumerate(base_obj.get("jumps", [])):
        loc, mass = _floats(j, 2, f"{ptr}/base/jumps/{i}")
        jumps.append((loc, mass))
    try:
        base = BaseMeasure(density, tuple(jumps))
    except CrmError as exc:
        raise ConfigError(str(exc), f"{ptr}/base")

    enforce = obj.get("enforce_conditions", True)
    if not isinstance(enforce, bool):
        raise ConfigError("enforce_conditions must be a boolean", f"{ptr}/enforce_conditions")
    try:
        return LevyContext.build(family, path, base, k, require_conditions=enforce)
    except CrmError as exc:
        raise ConfigError(f"cannot build context: {exc}", ptr)


def _expand_pareto_series(obj, ptr) -> list[dict]:
    """Series of components with shape n*alpha(z) and base dz/(n*alpha(z))."""
    count = _need(obj, "components", int, ptr)
    if count < 1:
        raise ConfigError("components must be >= 1", f"{ptr}/components")
    scale = _need(obj, "scale", float, ptr) if "scale" in obj else 1.0
    lo, hi = _floats(_need(obj, "support", list, ptr), 2, f"{ptr}/support")
    if not 0 <= lo < hi:
        raise ConfigError("support must satisfy 0 <= from < to", f"{ptr}/support")
    alpha = _need(obj, "alpha", dict, ptr)
    extra = set(obj) - {"components", "scale", "support", "alpha"}
    if extra:
        raise ConfigError(f"unknown series keys {sorted(extra)}", ptr)
    if "const" in alpha:
        c0, c1 = _need(alpha, "const", float, f"{ptr}/alpha"), 0.0
    elif "affine" in alpha:
        c0, c1 = _floats(alpha["affine"], 2, f"{ptr}/alpha/affine")
    else:
        raise ConfigError('alpha needs "const" or "affine"', f"{ptr}/alpha")
    if not (c0 + c1 * lo >= 0 and (c0 + c1 * hi if c1 else c0) > 0):
        raise ConfigError(f"alpha(z) = {c0} + {c1} z must be positive on ({lo}, {hi}]", f"{ptr}/alpha")

    out = []
    for n in range(1, count + 1):
        # eta(z) = -(n alpha(z) + 1); base dz / (n alpha(z))
        path_piece = {"from": lo, "to": hi, "affine": [-(n * c0 + 1.0), -(n * c1)]}
        if c1 == 0.0:
            base_piece = {"from": lo, "to": hi, "const": 1.0 / (n * c0)}
        else:
            base_piece = {"from": lo, "to": hi, "ratio": [1.0, 0.0, n * c0, n * c1]}
        out.append(
            {
                "family": {"name": "pareto", "params": {"scale": scale}},
                "k": 1,
                "path": [[path_piece]],
                "base": {"pieces": [base_piece]},
                "enforce_conditions": False,
            }
        )
    return out


def parse_sample_config(obj) -> tuple[list[LevyContext], float | None]:
    if not isinstance(obj, dict):
        raise ConfigError("config must be an object", "/")
    extra = set(obj) - {"components", "z_max", "pareto_series"}
    if extra:
        raise ConfigError(f"unknown config keys {sorted(extra)}", "/")
    comp_objs = obj.get("components", [])
    if not isinstance(comp_objs, list):
        raise ConfigError("components must be a list", "/components")
    comp_objs = list(comp_objs)
    if "pareto_series" in obj:
        comp_objs.extend(_expand_pareto_series(obj["pareto_series"], "/pareto_series"))
    if not comp_objs:
        raise ConfigError("config defines no components", "/components")
    contexts = [
        parse_component(c, f"/components/{i}") for i, c in enumerate(comp_objs)
    ]
    z_max = None
    if "z_max" in obj:
        z_max = _need(obj, "z_max", float, "")
        if not (z_max > 0):
            raise ConfigError(f"z_max must be positive, got {z_max}", "/z_max")
    return contexts, z_max


def parse_prior_config(obj) -> tuple[ConjugatePair, LevyContext]:
    if not isinstance(obj, dict):
        raise ConfigError("config must be an object", "/")
    extra = set(obj) - {"pair", "component"}
    if extra:
        raise ConfigError(f"unknown config keys {sorted(extra)}", "/")
    pair_obj = _need(obj, "pair", dict, "")
    name = _need(pair_obj, "name", str, "/pair")
    if name not in pair_names():
        raise ConfigError(
            f"unknown pair {name!r}; registered: {', '.join(pair_names())}", "/pair/name"
        )
    fixed = pair_obj.get("fixed", {})
    if not isinstance(fixed, dict):
        raise ConfigError("fixed must be an object", "/pair/fixed")
    try:
        pair = make_pair(name, **fixed)
    except CrmError as exc:
        raise ConfigError(str(exc), "/pair/fixed")
    ctx = parse_component(_need(obj, "component", dict, ""), "/component")
    if ctx.family.name != pair.prior_family.name:
        raise ConfigError(
            f"component family {ctx.family.name!r} does not match pair prior "
            f"{pair.prior_family.name!r}",
            "/component/family",
        )
    return pair, ctx


def component_to_obj(component_obj: dict) -> dict:
    """Deep copy via the JSON round trip; keeps only schema content."""
    return json.loads(json.dumps(component_obj))


def shift_component_obj(component_obj: dict, delta: Sequence[float]) -> dict:
    """The component with every path coordinate translated by delta."""
    out = component_to_obj(component_obj)
    path = out["path"]
    if len(delta) != len(path):
        raise ConfigError(f"delta has {len(delta)} coordinates, path {len(path)}")
    for coord, d in zip(path, delta):
        for piece in coord:
            if "const" in piece:
                piece["const"] = piece["const"] + d
            elif "affine" in piece:
                piece["affine"][0] = piece["affine"][0] + d
            else:
                raise ConfigError("only const/affine path pieces can be updated")
    if "atom_overrides" in out:
        out["atom_overrides"] = [
            [loc, [v + d for v, d in zip(vals, delta)]]
            for loc, vals in out["atom_overrides"]
        ]
    return out


def override_component_obj(component_obj: dict, overrides: dict) -> dict:
    """The component with per-atom natural-parameter overrides added."""
    out = component_to_obj(component_obj)
    merged = {float(loc): list(vals) for loc, vals in out.get("atom_overrides", [])}
    for loc, eta in overrides.items():
        merged[float(loc)] = [float(v) for v in np.asarray(eta)]
    out["atom_overrides"] = [[loc, merged[loc]] for loc in sorted(merged)]
    return out
