"""crmkit benchmark: one command, every metric by name and unit.

    python3 crmbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The run generates its inputs from the
seed, measures set-up in fresh interpreters, then runs the workload in one
single-threaded subprocess that drives crmkit from ``src/`` and checks every
output.  ``BENCHMARK.json`` beside ``crmbench/`` names the workloads and
the metrics printed.  The second-to-last stdout line is an environment and
detail block; the last line is ``{"correct", "attempted", "failed", "metrics"}`` with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
Exits non-zero, without a result line, when ``src/crmkit`` is missing or
the workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import metrics  # noqa: E402
from hostspeed import REFERENCE_S, kernel_seconds  # noqa: E402

SPEC = metrics.spec()
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
SETUP_SAMPLES = 5
# Nominal seconds of one pass over a workload's batch at the commit that
# defined the benchmark.  A timed run makes round(seconds / nominal) passes,
# at least one, so the number of passes does not depend on how fast they go.
NOMINAL_PASS_S = {"sample-mix": 3.5, "functionals": 9.0, "verify-all": 10.0}
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def measure_setup(workload: str, plan: Path, env: dict, cwd: Path) -> list[float]:
    """Set-up time of SETUP_SAMPLES fresh interpreters, one after another, at
    the reference host speed timed just before and just after each.  The
    kernel does not run during a probe, whose process may share a core with it."""
    out = []
    for _ in range(SETUP_SAMPLES):
        before = kernel_seconds()
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(plan), repr(t0)],
            env=env, cwd=cwd, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        elapsed = float(proc.stdout.strip().splitlines()[-1])
        out.append(elapsed * REFERENCE_S / (0.5 * (before + kernel_seconds())))
    return out


def environment(seed: int, env: dict) -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "threads": {var: env[var] for var in THREAD_VARS},
        "seed": seed,
        "held_out_seed": gen.HELD_OUT_SEED,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "crmkit" / "__init__.py").is_file():
        print(f"no crmkit sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2

    run_dir = BENCH / ".out" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    env = child_env(root)
    try:
        plan = gen.write_inputs(args.workload, args.seed, run_dir / "inputs")
        passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
        setup = [] if args.trace else measure_setup(args.workload, plan, env, root)
        spans = BENCH / ".out" / "spans" / f"{args.workload}-s{args.seed}.npy"
        cmd = [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", args.workload,
            "--plan", str(plan),
            "--passes", str(passes),
            "--trace", str(args.trace),
            "--work", str(run_dir / "work"),
            "--spans", str(spans),
        ]
        timeout = DEADLINE_S - (time.monotonic() - started)
        proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True, timeout=timeout)
        if proc.returncode != 0:
            print(f"workload process failed ({proc.returncode}):\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, RuntimeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if Path(res["crmkit_file"]).resolve().parent != (root / "src" / "crmkit").resolve():
        print(f"imported crmkit from {res['crmkit_file']}, not from this checkout", file=sys.stderr)
        return 1
    values = res["metrics"]
    if not args.trace:
        values["setup_s"] = statistics.median(setup)
    wanted = [(m["name"], m["unit"]) for m in SPEC["per_layer" if args.trace else "end_to_end"]]
    missing = [name for name, _ in wanted if name not in values]
    if missing:
        print(f"the run did not compute {missing}", file=sys.stderr)
        return 1
    details = dict(res["details"], setup_samples_s=setup, fail_ratio=res["failed"] / res["attempted"])
    for key in ("known_failures", "unexpected_failures"):
        details[key] = res[key]
    print(json.dumps({"workload": args.workload, "env": environment(args.seed, env), "details": details}))
    print(
        json.dumps(
            {
                "correct": res["correct"],
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
