"""Time a Levy point density and a density table in-process.

For five contexts it prints the minimum time in microseconds of N calls of

- ``levy_density_u(ctx, t, u)`` at one u, and
- ``density_table(ctx, t, us)`` at 6 points,

each also as a ratio to the first constant context's point: on a constant
path (gamma, k = 2, eta = (2, 3)), the log statistic on a constant path
(gamma, k = 1, eta = (1.5, 2)), an affine path over (0, inf) (a term of the
gamma decomposition: shape 2, rate (1 + z)/2), a term of the beta
decomposition (k = 1, eta = (1, 3 + z) over the ratio base (1 + z)/(3 + z))
and a term of a pareto series with a ratio base (alpha(z) = z on
(0.25, 1]).  Each context is built through the config layer and warmed by
one call, so the stretch plan is built before the timed calls.

It imports only ``crmkit``, so it times any checkout put first on the path:

    PYTHONPATH=src python tools/functional_timing.py [calls, default 2000]
"""

from __future__ import annotations

import sys
import time

import crmkit


def _const(value):
    return [{"from": 0.0, "const": value}]


def contexts():
    """(name, context, t, u, us) for each timed context."""
    gamma_const = crmkit.parse_component(
        {
            "family": {"name": "gamma"},
            "k": 2,
            "path": [_const(2.0), _const(3.0)],
            "base": {"pieces": _const(1.0)},
        }
    )
    gamma_log = crmkit.parse_component(
        {
            "family": {"name": "gamma"},
            "k": 1,
            "path": [_const(1.5), _const(2.0)],
            "base": {"pieces": _const(1.0)},
        }
    )
    gamma_affine = crmkit.parse_component(
        {
            "family": {"name": "gamma"},
            "k": 2,
            "path": [_const(2.0), [{"from": 0.0, "affine": [0.5, 0.5]}]],
            "base": {"pieces": _const(0.125)},
        }
    )
    beta_ratio = crmkit.parse_component(
        {
            "family": {"name": "beta"},
            "k": 1,
            "path": [_const(1.0), [{"from": 0.0, "affine": [3.0, 1.0]}]],
            "base": {"pieces": [{"from": 0.0, "ratio": [1.0, 1.0, 3.0, 1.0]}]},
        }
    )
    series, _ = crmkit.parse_sample_config(
        {
            "pareto_series": {
                "components": 3,
                "scale": 1.0,
                "support": [0.25, 1.0],
                "alpha": {"affine": [0.0, 1.0]},
            }
        }
    )
    us = [0.2, 0.5, 0.9, 1.4, 2.0, 3.0]
    return [
        ("const gamma k=2", gamma_const, 1.2, 1.0, us),
        ("const gamma k=1", gamma_log, 1.2, 0.3, [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0]),
        ("affine gamma decomp", gamma_affine, 1.5, 1.0, us),
        ("ratio beta decomp", beta_ratio, 1.5, -0.5, [-3.0, -2.0, -1.0, -0.5, -0.2, -0.05]),
        ("ratio pareto term 2", series[1], 0.8, 1.0, us),
    ]


def best_us(fn, calls: int) -> float:
    """The minimum microseconds of ``calls`` calls of ``fn``, after one warm-up call."""
    fn()
    best = float("inf")
    for _ in range(calls):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e6


def main(argv: list[str]) -> int:
    calls = int(argv[0]) if argv else 2000
    unit = None  # the first constant context's point
    for name, ctx, t, u, us in contexts():
        point = best_us(lambda: crmkit.levy_density_u(ctx, t, u), calls)
        table = best_us(lambda: crmkit.density_table(ctx, t, us), calls)
        unit = unit or point
        print(
            f"{name:<20}  point {point:8.2f} us ({point / unit:4.2f})"
            f"  table(6) {table:8.2f} us ({table / unit:4.2f})  (n={calls})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
