"""Command-line front door: moment / chaos / check / solve / validate.

Configuration can come from a flat key=value file (--config) with explicit
flags taking precedence; every run emits a JSON RunRecord embedding the fully
resolved configuration, so re-running a record's config reproduces its
results bit-for-bit.  The record's meta block says what produced it: the
sfheat, numpy and scipy versions and the cores every ensemble runs on
(``fk._WORKERS``: Feynman-Kac batches, solver realizations and the validate
suite's path chunks); none of it enters ``record_fingerprint``.  Exit codes:
0 success, 2 configuration problem or unsupported route, 3 regime violation
(a validity condition was broken), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time
from typing import NamedTuple

import numpy as np
import scipy

from . import __version__, chaos, fk, solver, validation
from .errors import BudgetError, FactorizationError, RegimeError
from .exponents import MollifierParams
from .params import ModelParams, parse_u0
from .paths import RngStream

SEED_ENV_VAR = "SFHEAT_SEED"


class _Option(NamedTuple):
    """One option: flag ``--dashed-name``, config-file key and record field ``name``."""

    name: str
    type: type
    default: object = None
    help: str | None = None
    choices: tuple | None = None


_COMMON = (
    _Option("seed", int, help=f"master seed (default ${SEED_ENV_VAR} or 0)"),
    _Option("out", str, help="write the JSON run record here instead of stdout"),
)

_OPTIONS = {
    "moment": (
        _Option("flavor", str, "sko", choices=("strat", "stratonovich", "sko", "skorohod")),
        _Option("p", int, 1, "moment order"),
        _Option("alpha", float, 2.0),
        _Option("d", int, 1),
        _Option("t", float, 1.0, "time horizon"),
        _Option("x", str, "0", "evaluation point (comma separated for d > 1)"),
        _Option("u0", str, "const:1", "initial data: const:<c> | gauss:<amp>,<width> | cos:<k>"),
        _Option("n_samples", int, 10000),
        _Option("grid_steps", int),
        _Option("epsilon", float, help="spatial mollifier (with --delta)"),
        _Option("delta", float, help="time mollifier (with --epsilon)"),
        _Option("samples_csv", str, help="per-sample values CSV"),
    ),
    "chaos": (
        _Option("alpha", float, 2.0),
        _Option("d", int, 1),
        _Option("t", float, 1.0),
        _Option("nmax", int, 3),
    ),
    "check": (
        _Option("alpha", float, 2.0),
        _Option("d", int, 1),
    ),
    "solve": (
        _Option("alpha", float, 2.0),
        _Option("t", float, 0.5),
        _Option("u0", str, "const:1"),
        _Option("epsilon", float, 0.1),
        _Option("p", int, 1),
        _Option("n_space", int, 64),
        _Option("n_time", int, 64),
        _Option("half_length", float),
        _Option("n_realizations", int, 200),
        _Option("snapshot_csv", str),
        _Option("snapshot_times", str),
    ),
    "validate": (
        _Option("quick", bool, False),
    ),
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


def _parse(option, raw):
    """Value of ``option`` from its config-file string."""
    if option.type is bool:
        if raw.lower() not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
            raise ConfigError(f"config key {option.name} must be one of 1/true/yes/on "
                              f"or 0/false/no/off, got {raw!r}")
        return raw.lower() in ("1", "true", "yes", "on")
    return option.type(raw)


def _resolve(subcommand, args):
    """Each option from its flag, else the config file, else its default."""
    options = _OPTIONS[subcommand] + _COMMON
    file_vals = _load_config_file(args.config) if args.config else {}
    unknown = set(file_vals) - {o.name for o in options}
    if unknown:
        raise ConfigError(f"unknown config keys for {subcommand}: {sorted(unknown)}")
    cfg = {}
    for option in options:
        flag_val = getattr(args, option.name)
        if flag_val is not None:
            cfg[option.name] = flag_val
        elif option.name in file_vals:
            cfg[option.name] = _parse(option, file_vals[option.name])
            if option.choices and cfg[option.name] not in option.choices:
                raise ConfigError(f"config key {option.name} must be one of "
                                  f"{list(option.choices)}, got {cfg[option.name]!r}")
        else:
            cfg[option.name] = option.default
    if cfg["seed"] is None:
        cfg["seed"] = int(os.environ.get(SEED_ENV_VAR, "0"))
    cfg["subcommand"] = subcommand
    return cfg


def _jsonable(obj):
    """``json``'s fallback: a dataclass as its ``compare=True`` fields (samples
    go to CSV, check timings to meta), numpy data as ``tolist()``."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.compare}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit_record(cfg, results, t0, out_path):
    record = {
        "config": cfg,
        "results": results,
        "meta": {"wall_time_s": time.perf_counter() - t0, "version": __version__,
                 "numpy": np.__version__, "scipy": scipy.__version__,
                 "cores": fk._WORKERS},
    }
    if cfg["subcommand"] == "validate":
        record["meta"]["check_seconds"] = {r.name: r.seconds for r in results}
    # strict JSON: a non-finite value raises ValueError, which main maps to exit 4
    text = json.dumps(record, sort_keys=True, indent=2, allow_nan=False, default=_jsonable)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return record


_IO_KEYS = ("out", "samples_csv", "snapshot_csv", "config")


def record_fingerprint(record):
    """Deterministic serialization of the reproducible part of a record.

    Output destinations are stripped: they never influence computed values,
    only where results land.
    """
    cfg = {k: v for k, v in record["config"].items() if k not in _IO_KEYS}
    return json.dumps({"config": cfg, "results": record["results"]}, sort_keys=True)


def _model_params(cfg):
    x = [float(v) for v in cfg["x"].split(",")] if "x" in cfg else None
    return ModelParams(alpha=cfg["alpha"], d=cfg.get("d", 1), t_horizon=cfg["t"], x_point=x,
                       u0=parse_u0(cfg["u0"]))


def _mollifier(cfg):
    eps, delta = cfg.get("epsilon"), cfg.get("delta")
    if (eps is None) != (delta is None):
        raise ConfigError("mollified runs need both --epsilon and --delta")
    if eps is None:
        return None
    return MollifierParams(eps, delta)


def cmd_moment(cfg):
    params = _model_params(cfg)
    keep = cfg["samples_csv"] is not None
    moment = {"strat": fk.strat_moment, "stratonovich": fk.strat_moment,
              "sko": fk.sko_moment, "skorohod": fk.sko_moment}[cfg["flavor"]]
    est = moment(cfg["p"], params, cfg["n_samples"], grid_steps=cfg["grid_steps"],
                 rng=RngStream(cfg["seed"]), moll=_mollifier(cfg), keep_samples=keep)
    if keep:
        with open(cfg["samples_csv"], "w") as fh:
            fh.write("sample_index,value\n")
            for i, v in enumerate(est.samples):
                fh.write(f"{i},{float(v)!r}\n")
    return est


def cmd_chaos(cfg):
    return chaos.chaos_second_moment(cfg["alpha"], cfg["d"], cfg["t"], cfg["nmax"],
                                     seed=cfg["seed"])


def cmd_check(cfg):
    return chaos.existence_check(cfg["alpha"], cfg["d"])


def cmd_solve(cfg):
    params = _model_params(cfg)
    grid = solver.TorusGrid.default(params.t_horizon, cfg["n_space"], cfg["n_time"])
    if cfg["half_length"] is not None:
        grid = dataclasses.replace(grid, half_length=cfg["half_length"])
    times = [params.t_horizon]
    if cfg["snapshot_times"] is not None:
        entries = cfg["snapshot_times"].split(",")
        if not all(v.strip() for v in entries):
            raise ConfigError(f"snapshot times must be a comma-separated list of times, "
                              f"got {cfg['snapshot_times']!r}")
        times = solver._require_snapshot_times([float(v) for v in entries], params.t_horizon)
    rng = RngStream(cfg["seed"])
    est = solver.ensemble_moment(grid, params, cfg["epsilon"], cfg["p"],
                                 cfg["n_realizations"], rng=rng)
    if cfg["snapshot_csv"]:
        noise = solver.NoiseSlabSampler(grid, cfg["epsilon"]).sample(rng.substream(0))
        _, shots = solver.evolve(grid, params, noise, snapshot_times=times)
        with open(cfg["snapshot_csv"], "w") as fh:
            solver.snapshot_csv(fh, shots, grid)
    return est


def cmd_validate(cfg):
    results = validation.run_suite(quick=cfg["quick"])
    print(validation.format_table(results), file=sys.stderr)
    return results


@functools.cache
def build_parser():
    """The argument parser, built once per process and shared by every ``main``
    call: parsing leaves it unchanged, so it must not be modified."""
    parser = argparse.ArgumentParser(prog="sfheat", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sfheat {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key=value config file")
        for option in _OPTIONS[name] + _COMMON:
            flag = "--" + option.name.replace("_", "-")
            if option.type is bool:
                p.add_argument(flag, dest=option.name, action="store_const", const=True,
                               help=option.help)
            else:
                p.add_argument(flag, dest=option.name, type=option.type,
                               choices=option.choices, help=option.help)
    return parser


_COMMANDS = {
    "moment": (cmd_moment, "Feynman-Kac moment estimation"),
    "chaos": (cmd_chaos, "Wiener chaos series terms and partial sum"),
    "check": (cmd_check, "existence-region classification"),
    "solve": (cmd_solve, "direct mollified-noise solve on the torus"),
    "validate": (cmd_validate, "run the invariant suite"),
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        cfg = _resolve(args.subcommand, args)
        results = _COMMANDS[args.subcommand][0](cfg)
    except RegimeError as exc:
        print(f"error: regime violation: {exc}"
              + (f" [condition: {exc.condition}]" if exc.condition else ""), file=sys.stderr)
        return 3
    except (ConfigError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotImplementedError as exc:
        print(f"error: unsupported configuration: {exc}", file=sys.stderr)
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
