"""Tests of the benchmark's own machinery: names, oracles, spans, percentiles, inputs.

Run from the repository root with ``PYTHONPATH=src python -m pytest crmbench/tests``.
"""

import math
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import hostspeed  # noqa: E402
import metrics  # noqa: E402
import oracles  # noqa: E402
from spans import FIELDS, Tracer, by_name, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _gamma_comp(a, b, k, base=1.0):
    return {
        "family": {"name": "gamma"},
        "k": k,
        "path": [[{"from": 0.0, "const": a}], [{"from": 0.0, "const": b}]],
        "base": {"pieces": [{"from": 0.0, "const": base}]},
    }


def test_metric_and_workload_names_are_well_formed_and_unique():
    spec = metrics.spec()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_per_layer_computes_every_listed_metric():
    # trace_overhead needs the untraced runs and is added by the worker
    got = metrics.per_layer({}, {}, [], "functionals")
    listed = {m["name"] for m in metrics.spec()["per_layer"]} - {"trace_overhead"}
    assert listed <= set(got), listed - set(got)


def test_gamma_laplace_oracle_matches_closed_form():
    # gamma (2, 3), k=2, unit base, t=1, theta=1: psi = 1 - (3/4)^2
    psi = oracles.laplace_exponent(_gamma_comp(2.0, 3.0, 2), 1.0, 1.0)
    assert psi == pytest.approx(1 - 0.75**2, abs=1e-14)


def test_known_false_divergence_point_is_finite_for_the_oracle():
    # gamma k=1, eta=(0.7, 1.5), theta=0.5: psi = 1 - Gamma(0.2)/Gamma(0.7) 1.5^0.5
    want = 1.0 - math.gamma(0.2) / math.gamma(0.7) * 1.5**0.5
    assert oracles.laplace_exponent(_gamma_comp(0.7, 1.5, 1), 1.0, 0.5) == pytest.approx(want, rel=1e-12)
    assert math.isinf(oracles.laplace_exponent(_gamma_comp(0.7, 1.5, 1), 1.0, 0.8))


def test_tilt_oracles_on_tiny_cases():
    poisson = {"family": {"name": "poisson"}, "k": 1, "path": [[{"from": 0.0, "const": 0.0}]],
               "base": {"pieces": [{"from": 0.0, "const": 1.0}]}}
    assert oracles.stat_laplace(poisson, [0.0], 1.0) == pytest.approx(math.exp(math.exp(-1.0) - 1.0))
    pareto = {"family": {"name": "pareto", "params": {"scale": 1.0}}, "k": 1}
    assert oracles.stat_laplace(pareto, [-3.0], 1.0) == pytest.approx(2.0 / 3.0)
    beta = {"family": {"name": "beta"}, "k": 1}
    # E[X^-1/2] for Beta(2, 1) = int 2 x^(1/2) dx = 4/3
    assert oracles.stat_laplace(beta, [2.0, 1.0], 0.5) == pytest.approx(4.0 / 3.0)
    loglog = {"family": {"name": "pareto_loglog", "params": {"scale": 1.0}}, "k": 1}
    # on the face, w = ln x ~ Pareto(1, 2): E[e^{-w}] = 2 * int_1^inf w^-3 e^-w dw
    want = 2.0 * oracles._quad(lambda w: w**-3.0 * math.exp(-w), 1.0, math.inf)
    assert oracles.stat_laplace(loglog, [-1.0, -3.0], 1.0) == pytest.approx(want, rel=1e-10)


def test_weight_moments_of_a_constant_gamma_config():
    config = {"z_max": 2.0, "components": [_gamma_comp(2.0, 4.0, 2, base=10.0)]}
    count, mean, sd = oracles.weight_moments(config)
    assert count == pytest.approx(20.0)
    assert mean == pytest.approx(20.0 * 0.5)
    assert sd == pytest.approx(math.sqrt(20.0 * 2.0 * 3.0 / 16.0))


def test_self_time_on_a_hand_built_span_tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; a has child c [2, 3]
    spans = np.array(
        [
            [0, -1, 0, 0.0, 10.0],
            [1, 0, 0, 1.0, 4.0],
            [2, 1, 0, 2.0, 3.0],
            [1, 0, 0, 5.0, 9.0],
        ]
    )
    assert self_times(spans).tolist() == [3.0, 2.0, 1.0, 4.0]
    stats = by_name(spans, ["root", "child", "leaf"])
    assert stats["child"]["calls"] == 2
    assert stats["child"]["self_s"] == 6.0


def test_host_speed_scales_by_the_samples_inside_an_op():
    speed = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_S
    # samples at t = 0, 1, 2, 3: kernel 1x, 2x, 2x, 1x the reference, each taking 0.01 s
    speed.starts = [0.0, 1.0, 2.0, 3.0]
    speed.spans = [0.01] * 4
    speed.kernels = [ref, 2 * ref, 2 * ref, ref]
    # an op over [0.5, 2.5] holds the two slow samples: half speed, less 0.02 s of sampling
    assert speed.scale(0.5, 2.5) == pytest.approx((2.0 - 0.02) * 0.5)
    # an op between samples takes the last sample before it
    assert speed.scale(3.2, 3.4) == pytest.approx(0.2)
    assert speed.scale(1.2, 1.4) == pytest.approx(0.1)
    assert speed.factors == pytest.approx([0.5, 1.0, 0.5])


def test_host_speed_samples_while_active():
    with hostspeed.HostSpeed() as speed:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3 * hostspeed.PERIOD_S:
            pass
    assert len(speed.kernels) >= 3
    assert all(k > 0 for k in speed.kernels)


@pytest.mark.parametrize(
    "n, pct, index",
    [(100, 90.0, 89), (30, 100.0 * 20 / 30, 19), (11, 100.0 / 11, 0), (10, 100.0, 9), (1, 100.0, 0)],
)
def test_op_s_tail_percentile_keeps_ten_ops_beyond_it(n, pct, index):
    latencies = list(np.random.default_rng(n).permutation(np.arange(n, dtype=float)))
    value, got_pct, got_n = metrics.tail(latencies)
    assert (value, got_n) == (float(index), n)
    assert got_pct == pytest.approx(pct)
    if n > 10:
        assert sum(x > value for x in latencies) == 10


@pytest.mark.parametrize("workload", ["sample-mix", "functionals"])
def test_generator_is_byte_identical_per_seed_and_differs_across_seeds(workload, tmp_path):
    def files(seed, sub):
        gen.write_inputs(workload, seed, tmp_path / sub)
        return {p.name: p.read_bytes() for p in sorted((tmp_path / sub).iterdir())}

    first, again, other = files(5, "a"), files(5, "b"), files(6, "c")
    assert first == again
    assert first.keys() == other.keys()
    assert all(first[k] != other[k] for k in first)


def test_known_false_divergence_stays_in_every_functionals_batch():
    for seed in (0, 1, gen.HELD_OUT_SEED):
        ops = gen.functionals_batch(seed)["ops"]
        assert dict(op="laplace_exponent", **gen.KNOWN_FALSE_DIVERGENCE) in ops


def test_sample_batches_cross_every_size_with_every_kind():
    for seed in range(6):
        ops = gen.sample_batch(seed)
        pairs = sorted((round(oracles.weight_moments(op["config"])[0], -2), op["kind"]) for op in ops)
        want = sorted((round(size, -2), kind) for size in gen.SAMPLE_SIZES for kind in gen.SAMPLE_KINDS)
        assert [kind for _, kind in pairs] == [kind for _, kind in want]
        assert all(abs(got - size) <= 0.02 * size for (got, _), (size, _) in zip(pairs, want))


def test_false_divergence_is_known_only_where_it_was_seen():
    pytest.importorskip("crmkit")
    import worker

    def run(ctx):
        op = worker.Op("laplace_exponent", ctx)
        op.fail("false_divergence", "DivergenceError")
        return worker.outcome([op])

    assert run("gamma_k1_known")["correct"]
    for ctx in ("gamma_k2", "gamma_decomp", "beta_decomp", "poisson", "pareto_series", "loglog_off"):
        res = run(ctx)
        assert not res["correct"] and res["failed"] == 1, ctx
    op = worker.Op("discrete_laplace", "gamma_k2")
    op.fail("false_divergence", "DivergenceError")
    assert not worker.outcome([op])["correct"]


def test_tracer_counts_calls_and_restores_the_originals():
    crmkit = pytest.importorskip("crmkit")
    ctx = crmkit.LevyContext.build(
        crmkit.make_family("gamma"), crmkit.ParameterPath.constant([2.0, 3.0]),
        crmkit.BaseMeasure.lebesgue(1.0), k=2,
    )
    original = crmkit.laplace_exponent
    tracer = Tracer()
    tracer.install()
    try:
        value = crmkit.laplace_exponent(ctx, 1.0, 1.0)
    finally:
        tracer.uninstall()
    assert crmkit.laplace_exponent is original
    assert value == pytest.approx(1 - 0.75**2, abs=1e-9)
    stats = by_name(tracer.table(), tracer.names)
    assert stats["levy.laplace_exponent"]["calls"] == 1
    assert stats["levy.stat_laplace"]["calls"] > 0
    assert stats["levy.stat_laplace"]["calls"] < stats["scipy.quad"]["calls"]
    assert tracer.counters["scipy.quad.integrand_evals"] > stats["expfam.density"]["calls"]
    assert tracer.table().shape[1] == FIELDS


def test_run_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "verify-all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
