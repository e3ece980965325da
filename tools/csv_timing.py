"""Time the CSV writer of ``crm sample`` in-process and count its page faults.

For two seeded tables it prints the minimum time of N calls and the minor
page faults per call (``resource.getrusage``) of ``sampler._table_csv``
carried through to ASCII bytes, the form a run hashes and writes:

- the atoms table of a draw: 31,600 rows of (component, location, weight);
- a table shaped like ``path.csv``: 201 rows of (t, value).

It imports only ``crmkit``, so it times any checkout put first on the path:

    PYTHONPATH=src python tools/csv_timing.py [calls, default 30]
"""

from __future__ import annotations

import resource
import sys
import time

import numpy as np

from crmkit import sampler


def atoms_table(rows: int = 31_600, seed: int = 1):
    """A seeded draw's columns: component indices 1..6 and sorted locations
    over (0, 2], with gamma weights over many decades."""
    rng = np.random.default_rng(seed)
    component = rng.integers(1, 7, rows)
    locations = np.sort(rng.random(rows) * 2.0)
    weights = rng.gamma(0.5, 1.0, rows) * 10.0 ** rng.integers(-6, 3, rows)
    return ("component", "location", "weight"), (component, locations, weights)


def path_table(points: int = 201, seed: int = 1):
    """A step path's grid and its cumulative values."""
    t = np.linspace(0.0, 2.0, points)
    values = np.cumsum(np.random.default_rng(seed).gamma(0.5, 1.0, points))
    return ("t", "value"), (t, values)


def csv_bytes(header, columns) -> bytes:
    """The table as ASCII bytes: an older writer's text is encoded, as a run
    encodes it before hashing and writing it."""
    out = sampler._table_csv(header, columns)
    return out.encode() if isinstance(out, str) else out


def measure(table, calls: int) -> tuple[float, float]:
    """(minimum seconds, mean minor page faults) per call, after one warm-up call."""
    csv_bytes(*table)
    best, faults = float("inf"), 0
    for _ in range(calls):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        csv_bytes(*table)
        best = min(best, time.perf_counter() - start)
        faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return best, faults / calls


def main(argv: list[str]) -> int:
    calls = int(argv[0]) if argv else 30
    for name, table in (("atoms 31600x3", atoms_table()), ("path 201x2", path_table())):
        best, faults = measure(table, calls)
        print(f"{name:<14}  min {best * 1e3:8.3f} ms  faults/call {faults:8.1f}  (n={calls})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
