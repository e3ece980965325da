"""Per-layer metrics computed from a traced run, and the tail percentile.

``BENCHMARK.json`` at the repository root holds the metric names, units and
bounds; this module only maps spans and counters to the values.  A ratio
whose base is zero on a workload reads 0.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

SPEC_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def spec() -> dict:
    return json.loads(SPEC_FILE.read_text())


# span name -> the statistics reported for it
SPAN_STATS = {
    "expfam.density": ("calls", "self_s"),
    "expfam.sample_each": ("calls", "self_s"),
    "expfam.ParameterPath.eval": ("calls", "self_s"),
    "expfam.moment_suff_stat": ("calls", "self_s"),
    "piecewise.Piece.integral": ("calls", "self_s"),
    "scipy.quad": ("calls", "self_s"),
    "scipy.brentq": ("calls",),
    "levy.stat_laplace": ("calls", "self_s"),
    "levy.laplace_exponent": ("calls", "self_s", "s_p50"),
    "levy.levy_density_u": ("calls", "self_s"),
    "levy.classify_activity": ("calls", "self_s"),
    "levy.LevyContext.build": ("calls", "self_s"),
    "levy.BaseMeasure.increment": ("calls", "self_s"),
    "construct.DiscretizationPlan.build": ("self_s",),
    "construct.discrete_laplace": ("self_s",),
    "construct.empirical_laplace": ("self_s",),
    "construct.sample_discretized": ("calls",),
    "sampler.sample_crm": ("self_s",),
    "sampler.CRMDraw.csv_text": ("calls", "self_s"),
    "sampler.CRMDraw.draw_id": ("self_s",),
    "sampler.evaluate_path": ("self_s",),
    "conjugacy.finite_dim_tv": ("self_s",),
    "conjugacy.ConjugatePair.tau": ("calls",),
    "config.parse_sample_config": ("self_s",),
    "config.config_hash": ("self_s",),
    "cli": ("self_s",),
}
SUITES = ("moments", "laplace", "conjugacy", "activity", "examples")


def tail(latencies):
    """(value, percentile, n) at the highest percentile with >= 10 ops beyond it.

    That is the 11th largest latency, at percentile 100 (n - 10) / n.  With
    10 ops or fewer no percentile qualifies and the maximum is reported at
    percentile 100.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(stats: dict, counters: dict, ops: list, workload: str) -> dict:
    """Every per-layer metric but trace_overhead, from span statistics,
    counters and the traced ops (in op order)."""
    out = {}
    for span, wanted in SPAN_STATS.items():
        s = stats.get(span)
        for stat in wanted:
            if s is None or s["calls"] == 0:
                out[f"{span}.{stat}"] = 0
            elif stat == "s_p50":
                out[f"{span}.{stat}"] = statistics.median(s["durations"].tolist())
            else:
                out[f"{span}.{stat}"] = s[stat]

    def calls(span):
        return stats[span]["calls"] if span in stats else 0

    rows = counters.get("expfam.sample_each.rows", 0)
    evals = counters.get("scipy.quad.integrand_evals", 0)
    out["expfam.sample_each.rows"] = rows
    out["expfam.sample_each.rows_per_call"] = _ratio(rows, calls("expfam.sample_each"))
    out["scipy.quad.integrand_evals"] = evals
    out["scipy.quad.evals_per_call"] = _ratio(evals, calls("scipy.quad"))

    sampling = workload == "sample-mix"
    atoms = sum(o.items for o in ops) if sampling else 0
    ratio_atoms = sum(o.ratio_atoms for o in ops)
    brentq_ops = stats["scipy.brentq"]["ops"].tolist() if "scipy.brentq" in stats else []
    closed = {i for i, o in enumerate(ops) if sampling and o.ctx == "closed"}
    closed_atoms = sum(ops[i].items for i in closed)
    out["sampler.atoms"] = atoms
    out["sampler.ratio_atom_share"] = _ratio(ratio_atoms, atoms)
    out["sampler.brentq_per_atom"] = _ratio(calls("scipy.brentq"), atoms)
    out["sampler.brentq_per_ratio_atom"] = _ratio(calls("scipy.brentq"), ratio_atoms)
    out["sampler.brentq_per_closed_atom"] = _ratio(sum(op in closed for op in brentq_ops), closed_atoms)
    out["sampler.CRMDraw.csv_text.calls_per_draw"] = _ratio(
        calls("sampler.CRMDraw.csv_text"), calls("sampler.sample_crm")
    )
    for suite in SUITES:
        s = stats.get(f"verify.run_suite.{suite}")
        out[f"verify.run_suite.{suite}.s"] = float(s["durations"].sum()) if s else 0
    return out
