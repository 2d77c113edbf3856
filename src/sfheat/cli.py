"""Command-line front door: moment / chaos / check / solve / validate.

Configuration can come from a flat key=value file (--config) with explicit
flags taking precedence; every run emits a JSON RunRecord embedding the fully
resolved configuration, so re-running a record's config reproduces its
results bit-for-bit.  Exit codes: 0 success, 2 configuration problem,
3 regime violation (a validity condition was broken), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import __version__, chaos, fk, solver, validation
from .errors import BudgetError, FactorizationError, RegimeError
from .exponents import MollifierParams
from .params import ModelParams, parse_u0
from .paths import RngStream, TimeGrid

SEED_ENV_VAR = "SFHEAT_SEED"

_DEFAULTS = {
    "moment": {
        "flavor": "sko", "p": 1, "alpha": 2.0, "d": 1, "t": 1.0, "x": "0",
        "u0": "const:1", "n_samples": 10000, "grid_steps": None,
        "epsilon": None, "delta": None, "seed": None, "out": None,
        "samples_csv": None, "workers": 1,
    },
    "chaos": {
        "alpha": 2.0, "d": 1, "t": 1.0, "nmax": 3, "seed": None, "out": None,
    },
    "check": {"alpha": 2.0, "d": 1, "out": None},
    "solve": {
        "alpha": 2.0, "t": 0.5, "u0": "const:1", "epsilon": 0.1, "p": 1,
        "n_space": 64, "n_time": 64, "half_length": None,
        "n_realizations": 200, "seed": None, "out": None,
        "snapshot_csv": None, "snapshot_times": None, "workers": 1,
    },
    "validate": {"quick": False, "out": None},
}


class ConfigError(ValueError):
    pass


def _load_config_file(path):
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
                key, _, val = line.partition("=")
                values[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return values


def _coerce(key, raw, default):
    if raw is None:
        return default
    if isinstance(raw, str):
        if isinstance(default, bool) or key == "quick":
            return raw.lower() in ("1", "true", "yes", "on")
        if isinstance(default, int) and not isinstance(default, bool):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        if default is None and key in ("epsilon", "delta", "grid_steps", "seed",
                                       "half_length", "snapshot_times"):
            if key in ("grid_steps", "seed"):
                return int(raw)
            if key == "snapshot_times":
                return raw
            return float(raw)
    return raw


def _resolve(subcommand, args):
    defaults = _DEFAULTS[subcommand]
    file_vals = _load_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = set(file_vals) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys for {subcommand}: {sorted(unknown)}")
    cfg = {}
    for key, default in defaults.items():
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            cfg[key] = flag_val
        else:
            cfg[key] = _coerce(key, file_vals.get(key), default)
    if cfg.get("seed") is None:
        cfg["seed"] = int(os.environ.get(SEED_ENV_VAR, "0"))
    cfg["subcommand"] = subcommand
    return cfg


def _as_jsonable(obj):
    if isinstance(obj, MollifierParams):
        return {"epsilon": obj.epsilon, "delta": obj.delta}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {}
        for f in dataclasses.fields(obj):
            if f.name == "samples":
                continue
            out[f.name] = _as_jsonable(getattr(obj, f.name))
        return out
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, (list, tuple)):
        return [_as_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _as_jsonable(v) for k, v in obj.items()}
    return obj


def _emit_record(cfg, results, t0, out_path):
    record = {
        "config": _as_jsonable(cfg),
        "results": _as_jsonable(results),
        "meta": {"wall_time_s": time.perf_counter() - t0, "version": __version__},
    }
    # strict JSON: a non-finite value raises ValueError, which main maps to exit 4
    text = json.dumps(record, sort_keys=True, indent=2, allow_nan=False)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return record


_IO_KEYS = ("out", "samples_csv", "snapshot_csv", "config", "workers")


def record_fingerprint(record):
    """Deterministic serialization of the reproducible part of a record.

    Output destinations and the worker count are stripped: they never
    influence computed values, only where results land and how fast.
    """
    cfg = {k: v for k, v in record["config"].items() if k not in _IO_KEYS}
    return json.dumps({"config": cfg, "results": record["results"]}, sort_keys=True)


def _model_params(cfg):
    d = int(cfg["d"])
    x = np.array([float(v) for v in str(cfg["x"]).split(",")]) if "x" in cfg else None
    if x is not None and x.size == 1 and d > 1:
        x = np.full(d, x[0])  # scalar x applies to every coordinate
    return ModelParams(alpha=float(cfg["alpha"]), d=d,
                       t_horizon=float(cfg["t"]), x_point=x,
                       u0=parse_u0(cfg["u0"]))


def _mollifier(cfg):
    eps, delta = cfg.get("epsilon"), cfg.get("delta")
    if (eps is None) != (delta is None):
        raise ConfigError("mollified runs need both --epsilon and --delta")
    if eps is None:
        return None
    return MollifierParams(float(eps), float(delta))


def cmd_moment(cfg):
    params = _model_params(cfg)
    steps = cfg["grid_steps"] or max(1, int(np.ceil(256 * params.t_horizon)))
    grid = TimeGrid.uniform(params.t_horizon, int(steps))
    rng = RngStream(int(cfg["seed"]))
    moll = _mollifier(cfg)
    keep = cfg["samples_csv"] is not None
    flavor = str(cfg["flavor"]).lower()
    if flavor in ("strat", "stratonovich"):
        est = fk.strat_moment(int(cfg["p"]), params, int(cfg["n_samples"]), grid=grid,
                              rng=rng, moll=moll, keep_samples=keep)
    elif flavor in ("sko", "skorohod"):
        est = fk.sko_moment(int(cfg["p"]), params, int(cfg["n_samples"]), grid=grid,
                            rng=rng, moll=moll, keep_samples=keep)
    else:
        raise ConfigError(f"unknown flavor {cfg['flavor']!r} (use strat or sko)")
    if keep and est.samples is not None:
        with open(cfg["samples_csv"], "w") as fh:
            fh.write("sample_index,value\n")
            for i, v in enumerate(est.samples):
                fh.write(f"{i},{v!r}\n")
    return est


def cmd_chaos(cfg):
    series = chaos.chaos_second_moment(float(cfg["alpha"]), int(cfg["d"]), float(cfg["t"]),
                                       int(cfg["nmax"]), seed=int(cfg["seed"]))
    return series


def cmd_check(cfg):
    return chaos.existence_check(float(cfg["alpha"]), int(cfg["d"]))


def cmd_solve(cfg):
    params = _model_params({**cfg, "x": "0", "d": 1})
    half_length = cfg["half_length"] or 8.0 * float(np.sqrt(params.t_horizon))
    grid = solver.TorusGrid(half_length=float(half_length), n_space=int(cfg["n_space"]),
                            n_time=int(cfg["n_time"]), t_horizon=params.t_horizon)
    rng = RngStream(int(cfg["seed"]))
    est = solver.ensemble_moment(grid, params, float(cfg["epsilon"]), int(cfg["p"]),
                                 int(cfg["n_realizations"]), rng=rng)
    if cfg["snapshot_csv"]:
        times = ([float(v) for v in str(cfg["snapshot_times"]).split(",")]
                 if cfg["snapshot_times"] else [params.t_horizon])
        sampler = solver.NoiseSlabSampler(grid, float(cfg["epsilon"]))
        noise = sampler.sample(rng.substream(0))
        _, shots = solver.evolve(grid, params, noise, snapshot_times=times)
        with open(cfg["snapshot_csv"], "w") as fh:
            solver.snapshot_csv(fh, shots, grid)
    return est


def cmd_validate(cfg):
    results = validation.run_suite(quick=bool(cfg["quick"]))
    print(validation.format_table(results), file=sys.stderr)
    return results


def build_parser():
    parser = argparse.ArgumentParser(prog="sfheat", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sfheat {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, help=f"master seed (default ${SEED_ENV_VAR} or 0)")
        p.add_argument("--out", help="write the JSON run record here instead of stdout")

    p = sub.add_parser("moment", help="Feynman-Kac moment estimation")
    add_common(p)
    p.add_argument("--flavor", choices=["strat", "stratonovich", "sko", "skorohod"])
    p.add_argument("--p", type=int, help="moment order")
    p.add_argument("--alpha", type=float)
    p.add_argument("--d", type=int)
    p.add_argument("--t", type=float, help="time horizon")
    p.add_argument("--x", help="evaluation point (comma separated for d > 1)")
    p.add_argument("--u0", help="initial data: const:<c> | gauss:<amp>,<width> | cos:<k>")
    p.add_argument("--n-samples", dest="n_samples", type=int)
    p.add_argument("--grid-steps", dest="grid_steps", type=int)
    p.add_argument("--epsilon", type=float, help="spatial mollifier (with --delta)")
    p.add_argument("--delta", type=float, help="time mollifier (with --epsilon)")
    p.add_argument("--samples-csv", dest="samples_csv", help="per-sample values CSV")
    p.add_argument("--workers", type=int, help="worker count (wall time only, never values)")

    p = sub.add_parser("chaos", help="Wiener chaos series terms and partial sum")
    add_common(p)
    p.add_argument("--alpha", type=float)
    p.add_argument("--d", type=int)
    p.add_argument("--t", type=float)
    p.add_argument("--nmax", type=int)

    p = sub.add_parser("check", help="existence-region classification")
    add_common(p)
    p.add_argument("--alpha", type=float)
    p.add_argument("--d", type=int)

    p = sub.add_parser("solve", help="direct mollified-noise solve on the torus")
    add_common(p)
    p.add_argument("--alpha", type=float)
    p.add_argument("--t", type=float)
    p.add_argument("--u0")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--p", type=int)
    p.add_argument("--n-space", dest="n_space", type=int)
    p.add_argument("--n-time", dest="n_time", type=int)
    p.add_argument("--half-length", dest="half_length", type=float)
    p.add_argument("--n-realizations", dest="n_realizations", type=int)
    p.add_argument("--snapshot-csv", dest="snapshot_csv")
    p.add_argument("--snapshot-times", dest="snapshot_times")
    p.add_argument("--workers", type=int)

    p = sub.add_parser("validate", help="run the invariant suite")
    add_common(p)
    p.add_argument("--quick", action="store_const", const=True)

    return parser


_COMMANDS = {
    "moment": cmd_moment,
    "chaos": cmd_chaos,
    "check": cmd_check,
    "solve": cmd_solve,
    "validate": cmd_validate,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        cfg = _resolve(args.subcommand, args)
        results = _COMMANDS[args.subcommand](cfg)
    except RegimeError as exc:
        print(f"error: regime violation: {exc}"
              + (f" [condition: {exc.condition}]" if exc.condition else ""), file=sys.stderr)
        return 3
    except (ConfigError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FactorizationError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: bad configuration: {exc}", file=sys.stderr)
        return 2
    try:
        _emit_record(cfg, results, t0, cfg.get("out"))
    except ValueError as exc:
        print(f"error: numerical failure: non-finite result ({exc})", file=sys.stderr)
        return 4
    if args.subcommand == "validate" and any(not r.passed for r in results):
        print("error: numerical failure: validation suite reported failures",
              file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
