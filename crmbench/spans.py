"""Spans around crmkit's layer boundaries, recorded from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
namespace that holds it (``construct`` imports ``stat_laplace`` and
``laplace_exponent`` by name; the package re-exports most functions), on
the class for methods, and on ``scipy.integrate``/``scipy.optimize`` for
``quad``/``brentq``, which crmkit looks up through those modules at call
time.  ``uninstall`` restores the originals.

A span is (name id, parent span index, op id, start, end), kept in one flat
in-memory array and written out when the run ends.  Self time is a span's
duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

FIELDS = 5  # name, parent, op, start, end


def _targets():
    """(span name, owner, attribute, kind) for every traced boundary.

    A "func" is replaced in every crmkit namespace that holds it; an "attr"
    only on its owner: methods, and the scipy functions crmkit looks up
    through their module.
    """
    import scipy.integrate
    import scipy.optimize

    m = sys.modules
    cfg, exp, lev = m["crmkit.config"], m["crmkit.expfam"], m["crmkit.levy"]
    con, smp = m["crmkit.construct"], m["crmkit.sampler"]
    conj, ver = m["crmkit.conjugacy"], m["crmkit.verify"]
    return [
        ("config.parse_sample_config", cfg, "parse_sample_config", "func"),
        ("config.config_hash", cfg, "config_hash", "func"),
        ("expfam.density", exp, "density", "func"),
        ("expfam.sample_each", exp, "sample_each", "func"),
        ("expfam.moment_suff_stat", exp, "moment_suff_stat", "func"),
        ("expfam.ParameterPath.eval", exp.ParameterPath, "eval", "attr"),
        ("piecewise.Piece.integral", m["crmkit.piecewise"].Piece, "integral", "attr"),
        ("levy.stat_laplace", lev, "stat_laplace", "func"),
        ("levy.laplace_exponent", lev, "laplace_exponent", "func"),
        ("levy.levy_density_u", lev, "levy_density_u", "func"),
        ("levy.classify_activity", lev, "classify_activity", "func"),
        ("levy.LevyContext.build", lev.LevyContext, "build", "classmethod"),
        ("levy.BaseMeasure.increment", lev.BaseMeasure, "increment", "attr"),
        ("construct.DiscretizationPlan.build", con.DiscretizationPlan, "build", "classmethod"),
        ("construct.discrete_laplace", con, "discrete_laplace", "func"),
        ("construct.empirical_laplace", con, "empirical_laplace", "func"),
        ("construct.sample_discretized", con, "sample_discretized", "func"),
        ("sampler.sample_crm", smp, "sample_crm", "func"),
        ("sampler.CRMDraw.csv_text", smp.CRMDraw, "csv_text", "attr"),
        ("sampler.CRMDraw.draw_id", smp.CRMDraw, "draw_id", "property"),
        ("sampler.evaluate_path", smp, "evaluate_path", "func"),
        ("conjugacy.finite_dim_tv", conj, "finite_dim_tv", "func"),
        ("conjugacy.ConjugatePair.tau", conj.ConjugatePair, "tau", "attr"),
        ("verify.run_suite", ver, "run_suite", "func"),
        ("scipy.quad", scipy.integrate, "quad", "attr"),
        ("scipy.brentq", scipy.optimize, "brentq", "attr"),
    ]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("d")
        self.counters: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack = [-1]
        self._patches: list[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, before=None, name_of=None):
        """``fn`` inside a span; ``before(args)`` may count or rewrite the arguments,
        ``name_of(args)`` names the span from its arguments."""
        nid = self.name_id(name)
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            idx = len(spans) // FIELDS
            sid = nid if name_of is None else tracer.name_id(name_of(args))
            spans.extend((sid, stack[-1], tracer.op, clock(), 0.0))
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx * FIELDS + 4] = clock()

        return traced

    def _count_rows(self, args):
        self.counters["expfam.sample_each.rows"] += int(np.shape(args[1])[0])
        return args

    def _count_integrand(self, args):
        func, counters = args[0], self.counters

        def counted(*x):
            counters["scipy.quad.integrand_evals"] += 1
            return func(*x)

        return (counted,) + tuple(args[1:])

    def install(self) -> None:
        mods = [mod for name, mod in sys.modules.items() if name == "crmkit" or name.startswith("crmkit.")]
        for name, owner, attr, kind in _targets():
            before = {"expfam.sample_each": self._count_rows, "scipy.quad": self._count_integrand}.get(name)
            name_of = (lambda args: f"verify.run_suite.{args[0]}") if name == "verify.run_suite" else None
            raw = owner.__dict__[attr]
            if kind == "classmethod":
                self._patch(owner, attr, classmethod(self.wrap(name, raw.__func__)))
            elif kind == "property":
                self._patch(owner, attr, property(self.wrap(name, raw.fget)))
            elif kind == "attr":
                self._patch(owner, attr, self.wrap(name, raw, before))
            else:
                wrapped = self.wrap(name, raw, before, name_of)
                for mod in mods:
                    for key, val in list(vars(mod).items()):
                        if val is raw:
                            self._patch(mod, key, wrapped)

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def table(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=float).reshape(-1, FIELDS).copy()


def self_times(spans: np.ndarray) -> np.ndarray:
    """Per span: duration minus the part of it covered by its child spans.

    Spans come from one thread, so the children of a span do not overlap each
    other; each child's interval is clipped to its parent's before summing.
    """
    spans = np.asarray(spans, dtype=float).reshape(-1, FIELDS)
    start, end = spans[:, 3], spans[:, 4]
    parent = spans[:, 1].astype(int)
    has = parent >= 0
    p = parent[has]
    cover = np.clip(np.minimum(end[has], end[p]) - np.maximum(start[has], start[p]), 0.0, None)
    covered = np.bincount(p, weights=cover, minlength=len(spans))
    return (end - start) - covered


def by_name(spans: np.ndarray, names: list[str]) -> dict[str, dict]:
    """calls, self_s, inclusive durations and op ids per span name."""
    spans = np.asarray(spans, dtype=float).reshape(-1, FIELDS)
    ids = spans[:, 0].astype(int)
    selfs = self_times(spans)
    dur = spans[:, 4] - spans[:, 3]
    out = {}
    for i, name in enumerate(names):
        mask = ids == i
        out[name] = {
            "calls": int(mask.sum()),
            "self_s": float(selfs[mask].sum()),
            "durations": dur[mask],
            "ops": spans[mask, 2].astype(int),
        }
    return out
