"""Time the discretized construction in-process.

On the ``laplace`` suite's context (gamma, k = 2, eta = (2, 3), unit
Lebesgue base, window (0, 1], theta = 1) it prints, at n = 8, 32, 128 and
512 cells, the minimum time in milliseconds of

- ``DiscretizationPlan.build(ctx, 1.0, n)``, and
- ``empirical_laplace(ctx, plan, 1.0, 1.0, 10**4, rng)``, a fresh seeded
  generator per call:

each after one warm-up call.

It imports numpy and, of this project, only ``crmkit``, so it times any
checkout put first on the path:

    PYTHONPATH=src python tools/construct_timing.py [calls, default 20]
"""

from __future__ import annotations

import sys
import time

import numpy as np

import crmkit

REPLICATES = 10_000


def best_ms(fn, calls: int) -> float:
    """The minimum milliseconds of ``calls`` calls of ``fn``, after one warm-up call."""
    fn()
    best = float("inf")
    for _ in range(calls):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def main(argv: list[str]) -> int:
    calls = int(argv[0]) if argv else 20
    ctx = crmkit.LevyContext.build(
        crmkit.make_family("gamma"),
        crmkit.ParameterPath.constant([2.0, 3.0]),
        crmkit.BaseMeasure.lebesgue(1.0),
        k=2,
    )
    for n in (8, 32, 128, 512):
        plan = crmkit.DiscretizationPlan.build(ctx, 1.0, n)
        build = best_ms(lambda: crmkit.DiscretizationPlan.build(ctx, 1.0, n), calls)
        draw = best_ms(
            lambda: crmkit.empirical_laplace(ctx, plan, 1.0, 1.0, REPLICATES, np.random.default_rng(n)),
            calls,
        )
        print(f"n={n:<4}  plan {build:8.3f} ms  empirical_laplace({REPLICATES}) {draw:8.3f} ms  (calls={calls})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
