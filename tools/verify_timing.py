"""Time each ``crm verify`` suite in-process and count the moments suite's quadrature.

For each suite it prints the minimum time in milliseconds of N passes of
``verify.run_suite(name)`` at the suite's pinned seed and replicates, and
their sum.  Then, over one pass of the moments suite, it prints the number
of integrand calls QUADPACK makes: those made for the moment oracle
(``verify._moment_oracle``) and those made in the whole suite.  Every call
of ``quadpack.qag`` (and of ``quadpack.first_pass``, where a checkout still
has it) is wrapped to count its integrand calls.

It imports only ``crmkit``, so it measures any checkout put first on the path:

    PYTHONPATH=src python tools/verify_timing.py [passes, default 8]
"""

from __future__ import annotations

import sys
import time

from crmkit import quadpack, verify


def best_ms(name: str, passes: int) -> float:
    """The minimum milliseconds of ``passes`` runs of one suite, after one warm-up run."""
    verify.run_suite(name)
    best = float("inf")
    for _ in range(passes):
        start = time.perf_counter()
        verify.run_suite(name)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def moments_integrand_calls() -> tuple[int, int]:
    """(oracle calls, suite calls): QUADPACK's integrand calls in one moments pass."""
    counts = {"oracle": 0, "suite": 0}
    in_oracle = [False]

    def counting(routine):
        def wrapped(f, *args):
            def g(*xs):
                counts["suite"] += 1
                counts["oracle"] += in_oracle[0]
                return f(*xs)

            return routine(g, *args)

        return wrapped

    def oracle(*args):
        in_oracle[0] = True
        try:
            return moment_oracle(*args)
        finally:
            in_oracle[0] = False

    moment_oracle = verify._moment_oracle
    saved = {name: getattr(quadpack, name) for name in ("qag", "first_pass") if hasattr(quadpack, name)}
    try:
        for name, routine in saved.items():
            setattr(quadpack, name, counting(routine))
        verify._moment_oracle = oracle
        verify.run_suite("moments")
    finally:
        for name, routine in saved.items():
            setattr(quadpack, name, routine)
        verify._moment_oracle = moment_oracle
    return counts["oracle"], counts["suite"]


def main(argv: list[str]) -> int:
    passes = int(argv[0]) if argv else 8
    total = 0.0
    for name in verify.suite_names():
        ms = best_ms(name, passes)
        total += ms
        print(f"{name:<10} {ms:8.2f} ms")
    print(f"{'sum':<10} {total:8.2f} ms  (minimum of {passes} passes each)")
    oracle, suite = moments_integrand_calls()
    print(f"moments integrand calls: oracle {oracle}, suite {suite}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
