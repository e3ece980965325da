"""Command-line front end: sampling runs, verification suites, posteriors.

Every command is deterministic given (config, seed); a manifest.json records
enough to replay a run and get byte-identical CSV output.  Exit codes:
0 success, 1 verification or model failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import importlib.metadata
import json
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import config as cfg
from . import conjugacy as conj
from . import __version__, sampler, verify
from .errors import ConfigError, CrmError

__all__ = ["main"]

_PATH_GRID_POINTS = 201


def _write(path: Path, text: str) -> None:
    path.write_text(text)


@functools.cache
def _dist_version(name: str) -> str:
    """An installed distribution's version, read from its metadata once per
    process, so a manifest does not import scipy's submodules or mpmath."""
    return importlib.metadata.version(name)


def _check_seed(seed) -> None:
    if seed is not None and seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")


def _manifest(out_dir: Path, **fields) -> None:
    fields.setdefault("created_utc", datetime.now(timezone.utc).isoformat(timespec="seconds"))
    fields["versions"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _dist_version("scipy"),
        "mpmath": _dist_version("mpmath"),
        "crmkit": __version__,
    }
    _write(out_dir / "manifest.json", json.dumps(fields, indent=2, sort_keys=True) + "\n")


def _table_csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _cell(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def cmd_sample(args) -> int:
    obj = cfg.load_json(Path(args.config).read_text())
    contexts, z_max_cfg = cfg.parse_sample_config(obj)
    z_max = args.zmax if args.zmax is not None else z_max_cfg
    if z_max is None:
        raise ConfigError("no region end: set z_max in the config or pass --zmax")
    if not (z_max > 0):
        raise ConfigError(f"--zmax must be positive, got {z_max}")
    if args.truncation is not None and args.truncation < 1:
        raise ConfigError(f"--truncation must be >= 1, got {args.truncation}")
    _check_seed(args.seed)

    rng = np.random.default_rng(args.seed)
    draw = sampler.sample_crm(contexts, z_max, rng, truncation=args.truncation)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    atoms_csv = draw.csv_text()
    _write(out_dir / "atoms.csv", atoms_csv)

    ts = np.linspace(0.0, z_max, _PATH_GRID_POINTS)
    values = sampler.evaluate_path(draw, ts)
    _write(
        out_dir / "path.csv",
        _table_csv(("t", "value"), list(zip(ts, values))),
    )

    _manifest(
        out_dir,
        command="sample",
        config_hash=cfg.config_hash(obj),
        seed=args.seed,
        truncation_level=draw.truncation_level,
        z_max=float(z_max),
        tail_mass=draw.tail_mass,
        atoms=len(draw),
        draw_id=sampler.text_id(atoms_csv),
        outputs=["atoms.csv", "path.csv"],
    )
    print(f"wrote {len(draw)} atoms over (0, {z_max:g}] to {out_dir / 'atoms.csv'}")
    return 0


def cmd_verify(args) -> int:
    _check_seed(args.seed)
    names = verify.suite_names() if args.suite == "all" else (args.suite,)
    results = []
    for name in names:
        res = verify.run_suite(name, seed=args.seed, replicates=args.replicates)
        if args.filter:
            res.rows = [r for r in res.rows if args.filter in r.check]
        results.append(res)
    if args.filter and not any(res.rows for res in results):
        raise ConfigError(f"filter {args.filter!r} matches no check of suite(s) {', '.join(names)}")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    outputs = ["report.csv"]
    for res in results:
        for fname, (header, rows) in res.tables.items():
            _write(out_dir / fname, _table_csv(header, rows))
            outputs.append(fname)
    _write(out_dir / "report.csv", verify.report_csv(*results))

    _manifest(
        out_dir,
        command="verify",
        suites=list(names),
        seed=args.seed,
        replicates=args.replicates,
        outputs=outputs,
    )

    ok = True
    for res in results:
        n_pass = sum(r.passed for r in res.rows)
        status = "PASS" if res.passed else "FAIL"
        print(f"{res.name}: {status} ({n_pass}/{len(res.rows)} checks)")
        ok = ok and res.passed
    return 0 if ok else 1


def _read_observations(path: Path) -> list[tuple[float, float]]:
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty observations file")
        if [h.strip() for h in header] != ["location", "value"]:
            raise ConfigError(f"{path}: expected header 'location,value', got {','.join(header)}")
        out = []
        for i, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ConfigError(f"{path}:{i}: expected two columns")
            try:
                out.append((float(row[0]), float(row[1])))
            except ValueError:
                raise ConfigError(f"{path}:{i}: non-numeric entry {row!r}")
    return out


def cmd_posterior(args) -> int:
    obj = cfg.load_json(Path(args.config).read_text())
    pair, ctx = cfg.parse_prior_config(obj)
    observations = _read_observations(Path(args.observations))
    values = [v for _, v in observations]
    component = obj["component"]
    diff = [f"pair: {pair.name}", f"mode: {args.mode}", f"observations: {len(values)}"]

    if args.mode == "uniform":
        # shift checks each observation's support; the shifted path must stay
        # inside the natural space
        delta = pair.shift(values)
        conj._checked_posterior(pair, ctx.path.shifted(delta))
        post_component = cfg.shift_component_obj(component, delta)
        diff.append(
            "shift: (" + ", ".join(f"{d:+g}" for d in delta) + ") applied to every coordinate"
        )
        if not values:
            diff.append("no observations: posterior equals prior")
    else:
        # the update checks each observation's support once, atom by atom in
        # location order
        grouped: dict[float, list[float]] = {}
        for loc, v in observations:
            grouped.setdefault(float(loc), []).append(v)
        post = conj.posterior_path(pair, ctx.path, grouped, mode="per-atom")
        overrides = {}
        for loc in sorted(grouped):
            overrides[loc] = post.atom_overrides[loc]
            before = ", ".join(f"{v:g}" for v in ctx.path.eval(loc))
            after = ", ".join(f"{v:g}" for v in overrides[loc])
            diff.append(f"atom {loc!r}: ({before}) -> ({after})")
        post_component = cfg.override_component_obj(component, overrides)
        if not grouped:
            diff.append("no observations: posterior equals prior")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    post_obj = {"pair": obj["pair"], "component": post_component}
    _write(out_dir / "posterior_config.json", json.dumps(post_obj, indent=2, sort_keys=True) + "\n")
    _write(out_dir / "diff.txt", "\n".join(diff) + "\n")
    _manifest(
        out_dir,
        command="posterior",
        config_hash=cfg.config_hash(obj),
        mode=args.mode,
        observations=len(values),
        outputs=["posterior_config.json", "diff.txt"],
    )
    print("\n".join(diff))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crm",
        description="Sample, verify, and update random measures built from "
        "exponential-family densities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw one realization and write atoms/path CSVs")
    p.add_argument("--config", required=True, help="sample config JSON")
    p.add_argument("--seed", required=True, type=int, help="RNG seed (uint64)")
    p.add_argument("--truncation", type=int, default=None, help="keep only the first N components")
    p.add_argument("--zmax", type=float, default=None, help="region end (overrides config z_max)")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("verify", help="run numerical verification suites")
    p.add_argument(
        "--suite",
        default="all",
        choices=("all",) + verify.suite_names(),
        help="suite to run (default: all)",
    )
    p.add_argument("--seed", type=int, default=None, help="override the suite's pinned seed")
    p.add_argument("--replicates", type=int, default=None, help="Monte Carlo replicates")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("filter", nargs="?", default=None, help="only report checks containing this text")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("posterior", help="update a prior config with observations")
    p.add_argument("--config", required=True, help="prior config JSON (pair + component)")
    p.add_argument("--observations", required=True, help="CSV with header location,value")
    p.add_argument("--mode", choices=("uniform", "per-atom"), default="uniform")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(fn=cmd_posterior)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"missing file: {exc.filename}", file=sys.stderr)
        return 2
    except CrmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
