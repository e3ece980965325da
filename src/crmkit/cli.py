"""Command-line front end: sampling runs, verification suites, posteriors.

Every command is deterministic given (config, seed); a manifest.json records
enough to replay a run and get byte-identical CSV output.  Exit codes:
0 success, 1 verification or model failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

# loaded at import rather than per subcommand: crmbench/spans.py::_targets
# reads every module its tracer wraps from sys.modules right after this import
from . import config as cfg
from . import conjugacy as conj
from . import __version__, sampler, verify
from .errors import ConfigError, CrmError

__all__ = ["main"]

_PATH_GRID_POINTS = 201


@functools.cache
def _dist_version(name: str) -> str:
    """An installed distribution's version, read from its metadata once per
    process, so a manifest does not import scipy's submodules; the metadata
    machinery itself loads on the first call."""
    import importlib.metadata

    return importlib.metadata.version(name)


def _write_run(out, files: dict, **fields) -> None:
    """Write a run into the directory ``out``, made if missing: each file of
    ``files`` (name -> text, or bytes written as they are), then
    ``manifest.json``, which holds ``fields``, the creation time, the
    versions and ``outputs``, the names of ``files``."""
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        if isinstance(data, str):
            (out_dir / name).write_text(data)
        else:
            (out_dir / name).write_bytes(data)
    fields["outputs"] = list(files)
    fields["created_utc"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    fields["versions"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _dist_version("scipy"),
        "crmkit": __version__,
    }
    (out_dir / "manifest.json").write_text(json.dumps(fields, indent=2, sort_keys=True) + "\n")


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
    if args.seed < 0:  # default_rng would refuse it with a bare ValueError
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")

    rng = np.random.default_rng(args.seed)
    draw = sampler.sample_crm(contexts, z_max, rng, truncation=args.truncation)

    atoms_csv = draw.csv_bytes()
    ts = np.linspace(0.0, z_max, _PATH_GRID_POINTS)
    path_csv = sampler._table_csv(("t", "value"), (ts, sampler.evaluate_path(draw, ts)))
    _write_run(
        args.out,
        {"atoms.csv": atoms_csv, "path.csv": path_csv},
        command="sample",
        config_hash=cfg.config_hash(obj),
        seed=args.seed,
        truncation_level=draw.truncation_level,
        z_max=float(z_max),
        tail_mass=draw.tail_mass,
        atoms=len(draw),
        draw_id=sampler.text_id(atoms_csv),
    )
    print(f"wrote {len(draw)} atoms over (0, {z_max:g}] to {Path(args.out) / 'atoms.csv'}")
    return 0


def cmd_verify(args) -> int:
    names = verify.suite_names() if args.suite == "all" else (args.suite,)
    results = []
    for name in names:
        res = verify.run_suite(name, seed=args.seed, replicates=args.replicates)
        if args.filter:
            res.rows = [r for r in res.rows if args.filter in r.check]
        results.append(res)
    if args.filter and not any(res.rows for res in results):
        raise ConfigError(f"filter {args.filter!r} matches no check of suite(s) {', '.join(names)}")

    files = {"report.csv": verify.report_csv(*results)}
    for res in results:
        for fname, (header, rows) in res.tables.items():
            files[fname] = sampler._table_csv(header, list(zip(*rows)))
    _write_run(
        args.out, files, command="verify", suites=list(names), seed=args.seed, replicates=args.replicates
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
                entry = (float(row[0]), float(row[1]))
            except ValueError:
                raise ConfigError(f"{path}:{i}: non-numeric entry {row!r}")
            if not np.isfinite(entry).all():
                raise ConfigError(f"{path}:{i}: non-finite entry {row!r}")
            out.append(entry)
    return out


def cmd_posterior(args) -> int:
    obj = cfg.load_json(Path(args.config).read_text())
    pair, ctx = cfg.parse_prior_config(obj)
    observations = _read_observations(Path(args.observations))
    values = [v for _, v in observations]
    diff = [f"pair: {pair.name}", f"mode: {args.mode}", f"observations: {len(values)}"]

    if args.mode == "uniform":
        # shift checks each observation's support; updating the shifted path
        # by no further observations checks that it stays in the natural space
        delta = pair.shift(values)
        post = conj.posterior_path(pair, ctx.path.shifted(delta), [])
        diff.append(
            "shift: (" + ", ".join(f"{d:+g}" for d in delta) + ") applied to every coordinate"
        )
    else:
        # the update checks each observation's support once, atom by atom in
        # location order
        grouped: dict[float, list[float]] = {}
        for loc, v in observations:
            grouped.setdefault(float(loc), []).append(v)
        post = conj.posterior_path(pair, ctx.path, grouped, mode="per-atom")
        locs = sorted(grouped)
        # an override acts on the measure only through a point mass of the base
        point_masses = {loc for loc, mass in ctx.base.jumps if mass > 0}
        for loc, prior_eta in zip(locs, ctx.path.eval_many(locs)):
            before = ", ".join(f"{v:g}" for v in prior_eta)
            after = ", ".join(f"{v:g}" for v in post.atom_overrides[loc])
            diff.append(f"atom {loc!r}: ({before}) -> ({after})")
            if loc not in point_masses:
                print(
                    f"warning: atom {loc!r} is no point mass of the base, so its override "
                    "leaves the law of the posterior unchanged",
                    file=sys.stderr,
                )
    if not values:
        diff.append("no observations: posterior equals prior")

    post_obj = {"pair": obj["pair"], "component": dict(obj["component"], **cfg.path_to_obj(post))}
    _write_run(
        args.out,
        {
            "posterior_config.json": json.dumps(post_obj, indent=2, sort_keys=True) + "\n",
            "diff.txt": "\n".join(diff) + "\n",
        },
        command="posterior",
        config_hash=cfg.config_hash(obj),
        mode=args.mode,
        observations=len(values),
    )
    print("\n".join(diff))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``crm`` parser, built once per process: each ``parse_args`` call
    starts from a fresh namespace, so a parse leaves nothing for the next.

    Only a process that calls :func:`main` more than once saves by this; a
    one-shot ``crm`` run builds the parser once either way."""
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
