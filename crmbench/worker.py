"""One workload in one single-threaded process: timed passes or a traced run.

Started by ``run.py`` with PYTHONPATH pointing at the checkout's ``src`` and
the BLAS/OpenMP thread variables set to 1.  Prints one JSON object as its
last stdout line.  Every op is a call into crmkit's public API or its CLI
entry point, timed alone; checks against the oracles run between ops,
outside the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics  # noqa: E402
import oracles  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from spans import Tracer, by_name  # noqa: E402

import crmkit  # noqa: E402
from crmkit import cli  # noqa: E402

# Total weight of a draw must lie within this many standard deviations of
# its compound-Poisson mean, and the atom count within this many of its
# Poisson mean.
Z_BOUND = 6.0
RTOL, ATOL = 1e-6, 1e-9

# Failures the code is known to produce at the commit that defined this
# benchmark, as (op, context, category), each where it was seen.  They count
# in `failed` but leave `correct` true; any other failure makes it false.
KNOWN_DEFECTS = {
    # stat_laplace's quadrature does not stabilize near the abscissa of the
    # transform or under the heavy on-face tail, though the transform is
    # finite: always at the pinned point, at some seeded theta on the others
    ("laplace_exponent", "gamma_k1_known", "false_divergence"),
    ("laplace_exponent", "gamma_k1", "false_divergence"),
    ("laplace_exponent", "loglog_on", "false_divergence"),
    # classify_activity returns mass 0 over the beta log-statistic image (-inf, 0)
    ("classify_activity", "beta_decomp", "wrong_value"),
}


class Op:
    """Outcome of one op: latency, items done, and its failures."""

    def __init__(self, kind: str, ctx: str | None = None):
        self.start = self.end = 0.0  # perf_counter around the call
        self.seconds = 0.0  # at reference host speed in timed runs
        self.raw_seconds = 0.0
        self.items = 0
        self.attempted = 1
        self.kind, self.ctx = kind, ctx
        self.failures: list[tuple[str, str, int]] = []  # (category, message, count)
        self.ratio_atoms = 0  # sample-mix: atoms on ratio base pieces

    def fail(self, category: str, msg: str, count: int = 1) -> None:
        self.failures.append((category, msg, count))

    def wrong_value(self, msg: str) -> None:
        self.fail("wrong_value", msg)

    @property
    def failed(self) -> int:
        return min(self.attempted, sum(c for _, _, c in self.failures))

    def known(self, category: str) -> bool:
        return (self.kind, self.ctx, category) in KNOWN_DEFECTS


def _close(got: float, want: float, scale: float = 1.0) -> bool:
    return abs(got - want) <= ATOL * max(1.0, scale) + RTOL * abs(want)


def _timed(op: Op, fn, *args):
    """fn(*args) with crmkit's prints muted, timed into ``op``; (result, exception)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        op.start = time.perf_counter()
        try:
            res = fn(*args)
            exc = None
        except Exception as e:  # an unexpected exception is a failed op
            res, exc = None, e
        op.end = time.perf_counter()
    op.seconds = op.end - op.start
    return res, exc


# --- sample-mix ---------------------------------------------------------------


class SampleMix:
    root_span = "cli"

    def __init__(self, plan_path: Path, work: Path):
        self.dir = plan_path.parent
        self.ops = json.loads(plan_path.read_text())["ops"]
        self.work = work
        self.oracle = []
        self.configs = []
        self.draw_ids: dict[int, str] = {}  # op -> draw_id of its first pass
        for op in self.ops:
            cfg = json.loads((self.dir / op["config"]).read_text())
            self.configs.append(cfg)
            self.oracle.append((oracles.weight_moments(cfg), oracles.ratio_windows(cfg)))

    def run(self, i: int, call) -> Op:
        spec = self.ops[i]
        op, out = Op("sample", spec["kind"]), self.work / f"op{i:03d}"
        config = str(self.dir / spec["config"])
        argv = ["sample", "--config", config, "--seed", str(spec["seed"]), "--out", str(out)]
        rc, exc = _timed(op, call, argv)
        if exc is not None:
            op.fail("exception", repr(exc))
            return op
        if rc != 0:
            op.fail("exit", f"crm sample exited {rc}")
            return op
        self._check(i, op, out)
        shutil.rmtree(out, ignore_errors=True)
        return op

    def _check(self, i: int, op: Op, out: Path) -> None:
        (count, mean, sd), windows = self.oracle[i]
        z_max = self.configs[i]["z_max"]
        raw = (out / "atoms.csv").read_bytes()
        manifest = json.loads((out / "manifest.json").read_text())
        if manifest["draw_id"] != hashlib.sha256(raw).hexdigest():
            op.wrong_value("manifest draw_id is not sha256(atoms.csv)")
        if self.draw_ids.setdefault(i, manifest["draw_id"]) != manifest["draw_id"]:
            op.wrong_value("the same config and seed gave a different draw than in the first pass")
        rows = np.loadtxt(io.BytesIO(raw), delimiter=",", skiprows=1, ndmin=2)
        comp, loc, w = rows[:, 0].astype(int), rows[:, 1], rows[:, 2]
        n = len(loc)
        op.items = n
        if manifest["atoms"] != n:
            op.wrong_value("manifest atom count differs from atoms.csv")
        if n and (np.any(loc <= 0) or np.any(loc > z_max)):
            op.wrong_value("atom location outside (0, z_max]")
        if n and (np.any(w <= 0) or not np.all(np.isfinite(w))):
            op.wrong_value("atom weight not positive and finite")
        if abs(n - count) > Z_BOUND * math.sqrt(count) + 1:
            op.wrong_value(f"{n} atoms, expected {count:.1f}")
        total = float(w.sum())
        if abs(total - mean) > Z_BOUND * sd:
            op.wrong_value(f"total weight {total:.6g}, expected {mean:.6g} +- {sd:.3g}")
        path = np.loadtxt(out / "path.csv", delimiter=",", skiprows=1, ndmin=2)
        if not _close(path[-1, 1], total, total):
            op.wrong_value("path.csv does not end at the total weight")
        on_ratio = np.zeros(n, dtype=bool)
        for idx, lo, hi in windows:
            on_ratio |= (comp == idx) & (loc > lo) & (loc <= hi)
        op.ratio_atoms = int(on_ratio.sum())


# --- functionals ----------------------------------------------------------------


class Functionals:
    root_span = "op"

    def __init__(self, plan_path: Path, work: Path):
        """Parse every context through crmkit's config layer and compute the
        oracles; both are set-up, outside the timed ops."""
        plan = json.loads(plan_path.read_text())
        self.ops = plan["ops"]
        self.objs, self.ctx = {}, {}
        for name, obj in plan["contexts"].items():
            if name == "pareto_series":
                series, _ = crmkit.parse_sample_config({"pareto_series": obj})
                for n, (comp, ctx) in enumerate(zip(oracles.expand_series(obj), series), start=1):
                    self.objs[(name, n)], self.ctx[(name, n)] = comp, ctx
            else:
                self.objs[(name, None)], self.ctx[(name, None)] = obj, crmkit.parse_component(obj)
        self.want = [self._oracle(op) for op in self.ops]

    def _key(self, op):
        return (op["ctx"], op.get("comp"))

    def _oracle(self, op):
        comp = self.objs[self._key(op)]
        kind = op["op"]
        if kind == "laplace_exponent":
            return oracles.laplace_exponent(comp, op["t"], op["theta"])
        if kind == "levy_density_u":
            return oracles.levy_density_u(comp, op["t"], op["u"])
        if kind == "density_table":
            return [oracles.levy_density_u(comp, op["t"], u) for u in op["us"]]
        if kind == "classify_activity":
            return oracles.total_mass(comp, op["t"]), oracles.time_homogeneous(comp)
        if kind == "discrete_laplace":
            return oracles.discrete_laplace(comp, op["t"], op["n"], op["theta"])
        raise ValueError(kind)

    @staticmethod
    def _discrete(ctx, t, n, theta):
        plan = crmkit.DiscretizationPlan.build(ctx, t, n)
        return crmkit.discrete_laplace(ctx, plan, t, theta)

    def run(self, i: int, call) -> Op:
        spec, want = self.ops[i], self.want[i]
        ctx = self.ctx[self._key(spec)]
        kind = spec["op"]
        op = Op(kind, spec["ctx"])
        fn, args = {
            "laplace_exponent": (crmkit.laplace_exponent, (ctx, spec["t"], spec.get("theta"))),
            "levy_density_u": (crmkit.levy_density_u, (ctx, spec["t"], spec.get("u"))),
            "density_table": (crmkit.density_table, (ctx, spec["t"], spec.get("us"))),
            "classify_activity": (crmkit.classify_activity, (ctx, spec["t"])),
            "discrete_laplace": (self._discrete, (ctx, spec["t"], spec.get("n"), spec.get("theta"))),
        }[kind]
        got, exc = _timed(op, call, lambda: fn(*args))
        op.items = 1
        if isinstance(exc, crmkit.DivergenceError):
            if not (kind == "laplace_exponent" and math.isinf(want)):
                op.fail("false_divergence", f"{kind} {spec}: {str(exc)[:120]}")
            return op
        if exc is not None:
            op.fail("exception", f"{kind} {spec}: {exc!r}")
            return op
        self._check(op, kind, got, want, spec)
        return op

    def _check(self, op, kind, got, want, spec) -> None:
        if kind == "density_table":
            for (_, _, g), w in zip(got, want):
                if not _close(g, w):
                    op.wrong_value(f"density_table value {g!r}, expected {w!r}")
        elif kind == "classify_activity":
            mass, homogeneous = want
            cls = crmkit.FiniteActivity if homogeneous else crmkit.NotTimeHomogeneous
            if not isinstance(got, cls):
                op.wrong_value(f"classify_activity gave {type(got).__name__}, expected {cls.__name__}")
            elif not _close(got.total_mass, mass, mass):
                op.wrong_value(f"total mass {got.total_mass!r}, expected {mass!r}")
        elif math.isinf(want) or not _close(got, want, spec.get("t", 1.0)):
            op.wrong_value(f"{kind} {spec} gave {got!r}, expected {want!r}")


# --- verify-all -------------------------------------------------------------------


def _report_rows(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class VerifyAll:
    root_span = "cli"

    def __init__(self, plan_path: Path, work: Path):
        self.ops = json.loads(plan_path.read_text())["ops"]
        self.work = work

    def run(self, i: int, call) -> Op:
        op, out = Op("verify"), self.work / f"verify{i}"
        rc, exc = _timed(op, call, ["verify", "--suite", "all", "--out", str(out)])
        if exc is not None:
            op.fail("exception", repr(exc))
            return op
        rows = _report_rows(out / "report.csv")
        op.attempted = len(rows)
        op.items = len(rows)
        for r in rows:
            if r["passed"] != "true":
                op.fail("failed_row", f"{r['suite']},{r['check']}")
        if rc != (1 if op.failed else 0):
            op.fail("exit", f"exit code {rc} with {op.failed} failed rows", 0)
        if {r["suite"] for r in rows} != set(metrics.SUITES):
            op.wrong_value("report.csv does not cover the five suites")
        self._check_expected(op, rows)
        shutil.rmtree(out, ignore_errors=True)
        return op

    @staticmethod
    def _check_expected(op: Op, rows) -> None:
        """Expected columns that have closed forms: exp(-psi) for gamma (2, 3),
        theta = 1 (psi = 1 - (3/4)^2), and beta raw moments from gamma ratios."""
        from scipy import special

        want_laplace = math.exp(-(1.0 - 0.75**2))
        for r in rows:
            check, expected = r["check"], float(r["expected"])
            if check.startswith("laplace-estimate") and not _close(expected, want_laplace):
                op.wrong_value(f"{check}: expected column {expected!r}, oracle {want_laplace!r}")
            if check.startswith("beta-raw-moment"):
                a, b, m = (float(tok.split("=")[1]) for tok in check.split()[1:])
                want = math.exp(
                    special.gammaln(a + m) + special.gammaln(a + b)
                    - special.gammaln(a + b + m) - special.gammaln(a)
                )
                if not _close(expected, want):
                    op.wrong_value(f"{check}: expected column {expected!r}, oracle {want!r}")


WORKLOADS = {"sample-mix": SampleMix, "functionals": Functionals, "verify-all": VerifyAll}


# --- passes -------------------------------------------------------------------------


def _plain(w):
    return cli.main if w.root_span == "cli" else (lambda f: f())


def run_pass(w, speed: HostSpeed | None = None) -> list[Op]:
    """One pass over the batch; with ``speed``, op times are scaled to the
    reference host speed and the measured ones kept in ``raw_seconds``."""
    call = _plain(w)
    ops = [w.run(i, call) for i in range(len(w.ops))]
    for op in ops:
        op.raw_seconds = op.seconds
        if speed:
            op.seconds = speed.scale(op.start, op.end)
    return ops


def outcome(ops: list[Op]) -> dict:
    """attempted, failed, and the failures by known or unexpected."""
    known, unexpected = {}, []
    for o in ops:
        for category, msg, count in o.failures:
            if o.known(category):
                key = f"{o.kind}/{o.ctx}/{category}"
                known[key] = known.get(key, 0) + count
            else:
                unexpected.append(f"{category}: {msg}")
    return {
        "attempted": sum(o.attempted for o in ops),
        "failed": sum(o.failed for o in ops),
        "known_failures": known,
        "unexpected_failures": unexpected[:20],
        "correct": not unexpected,
    }


def timed_run(workload: str, plan: Path, passes: int, work: Path) -> dict:
    """``passes`` passes over the batch, each op timed in every pass.

    Op times are scaled to the reference host speed (``hostspeed.py``).  An
    op's latency is its median over the passes, so a slow stretch of the
    host in one pass does not count.  ``wall_s`` sums those latencies, and
    the percentiles are taken over them, with n the ops in the batch.
    """
    w = WORKLOADS[workload](plan, work)
    with HostSpeed() as speed:
        runs = [run_pass(w, speed) for _ in range(passes)]
    latency = [statistics.median(ops[i].seconds for ops in runs) for i in range(len(w.ops))]
    tail, pct, n = metrics.tail(latency)
    wall = sum(latency)
    items = sum(o.items for o in runs[0])
    details = {
        "passes": passes,
        "ops": n,
        "op_s_tail_pct": pct,
        "pass_wall_s": [sum(o.seconds for o in ops) for ops in runs],
        "measured_wall_s": sum(statistics.median(ops[i].raw_seconds for ops in runs) for i in range(len(w.ops))),
        "host_speed": statistics.median(speed.factors),
    }
    if workload == "sample-mix":
        details["atoms_per_s"] = items / wall
        details["ratio_atom_share"] = sum(o.ratio_atoms for o in runs[0]) / max(items, 1)
    return {
        "metrics": {
            "wall_s": wall,
            "op_s_p50": statistics.median(latency),
            "op_s_tail": tail,
            "items_per_s": items / wall,
        },
        "details": details,
        **outcome([o for ops in runs for o in ops]),
    }


def traced_run(workload: str, plan: Path, work: Path, spans_out: Path) -> dict:
    """An untraced warm-up pass, then every op once traced and once untraced.

    The two runs of an op follow each other, traced first on even ops and
    untraced first on odd ones, so host drift falls on both sides alike;
    ``trace_overhead`` is the ratio of their summed latencies.  The per-layer
    metrics come from the traced runs, in op order, so their counts repeat
    exactly for a seed.
    """
    w = WORKLOADS[workload](plan, work)
    warm = run_pass(w)
    call, tracer = _plain(w), Tracer()
    traced_call = tracer.wrap(w.root_span, call)
    traced, untraced = [], []
    for i in range(len(w.ops)):
        for on in (True, False) if i % 2 == 0 else (False, True):
            if not on:
                untraced.append(w.run(i, call))
                continue
            tracer.op = i
            tracer.install()
            try:
                traced.append(w.run(i, traced_call))
            finally:
                tracer.uninstall()
    table = tracer.table()
    spans_out.parent.mkdir(parents=True, exist_ok=True)
    np.save(spans_out, table)
    spans_out.with_suffix(".names.json").write_text(json.dumps(tracer.names) + "\n")
    layer = metrics.per_layer(by_name(table, tracer.names), tracer.counters, traced, workload)
    traced_s, untraced_s = sum(o.seconds for o in traced), sum(o.seconds for o in untraced)
    layer["trace_overhead"] = traced_s / untraced_s
    details = {
        "spans": int(len(table)),
        "spans_file": str(spans_out),
        "traced_wall_s": traced_s,
        "untraced_wall_s": untraced_s,
    }
    return {"metrics": layer, "details": details, **outcome(warm + traced + untraced)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--plan", required=True)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--spans", required=True)
    args = ap.parse_args(argv)
    work, plan = Path(args.work), Path(args.plan)
    if args.trace:
        res = traced_run(args.workload, plan, work, Path(args.spans))
    else:
        res = timed_run(args.workload, plan, args.passes, work)
        res["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    res["crmkit_file"] = crmkit.__file__
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
