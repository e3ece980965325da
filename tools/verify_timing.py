"""Time each ``crm verify`` suite in-process and count the moments suite's quadrature.

For each suite it prints the minimum time in milliseconds of N passes of
``verify.run_suite(name)`` at the suite's pinned seed and replicates, and
their sum.  Then, over one pass of the moments suite, it prints the number
of integrand calls QUADPACK makes: those made for the moment oracle
(``verify._moment_oracle``) and those made in the whole suite; and the calls
of ``quadpack.qag`` and of ``expfam._log_upper_gamma`` in that pass.  Every
call of ``quadpack.qag`` (and of ``quadpack.first_pass``, where a checkout
still has it) is wrapped to count itself and its integrand calls.

It imports only ``crmkit``, so it measures any checkout put first on the path:

    PYTHONPATH=src python tools/verify_timing.py [passes, default 8]
"""

from __future__ import annotations

import sys
import time

from crmkit import expfam, quadpack, verify


def best_ms(name: str, passes: int) -> float:
    """The minimum milliseconds of ``passes`` runs of one suite, after one warm-up run."""
    verify.run_suite(name)
    best = float("inf")
    for _ in range(passes):
        start = time.perf_counter()
        verify.run_suite(name)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def moments_calls() -> dict[str, int]:
    """Counts over one moments pass: QUADPACK's integrand calls made for the
    oracle (``oracle``) and in the whole suite (``suite``), and the calls of
    each wrapped routine by its name (``qag``, ``_log_upper_gamma``)."""
    counts = {"oracle": 0, "suite": 0, "qag": 0, "_log_upper_gamma": 0}
    in_oracle = [False]

    def called(name, routine):
        def wrapped(*args):
            counts[name] = counts.get(name, 0) + 1
            return routine(*args)

        return wrapped

    def quadrature(name, routine):
        def wrapped(f, *args):
            def g(*xs):
                counts["suite"] += 1
                counts["oracle"] += in_oracle[0]
                return f(*xs)

            return called(name, routine)(g, *args)

        return wrapped

    def oracle(*args):
        in_oracle[0] = True
        try:
            return moment_oracle(*args)
        finally:
            in_oracle[0] = False

    moment_oracle, log_upper_gamma = verify._moment_oracle, expfam._log_upper_gamma
    saved = {name: getattr(quadpack, name) for name in ("qag", "first_pass") if hasattr(quadpack, name)}
    try:
        for name, routine in saved.items():
            setattr(quadpack, name, quadrature(name, routine))
        verify._moment_oracle = oracle
        expfam._log_upper_gamma = called("_log_upper_gamma", log_upper_gamma)
        verify.run_suite("moments")
    finally:
        for name, routine in saved.items():
            setattr(quadpack, name, routine)
        verify._moment_oracle = moment_oracle
        expfam._log_upper_gamma = log_upper_gamma
    return counts


def main(argv: list[str]) -> int:
    passes = int(argv[0]) if argv else 8
    total = 0.0
    for name in verify.suite_names():
        ms = best_ms(name, passes)
        total += ms
        print(f"{name:<10} {ms:8.2f} ms")
    print(f"{'sum':<10} {total:8.2f} ms  (minimum of {passes} passes each)")
    counts = moments_calls()
    print(f"moments integrand calls: oracle {counts['oracle']}, suite {counts['suite']}")
    print(f"moments qag calls {counts['qag']}, _log_upper_gamma calls {counts['_log_upper_gamma']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
