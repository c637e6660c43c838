"""Command-line entry point.

Subcommands: trajectory (run one optimizer and dump its step records),
sweep (radius/step-size grid to CSV), verify (named geometry checks to
JSON reports), train (network benchmark with learning-curve CSV), and
offset (dump offset-profile samples for plotting).

Configuration comes from an optional JSON file (--config) plus flags;
flags win field by field. Exit codes: 0 success, 1 verify-check failure,
2 configuration error, 3 run error.
"""
from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping, Sequence, get_type_hints

import numpy as np

from . import neural, serialize, verify
from .geometry import offset_profile
from .landscape import Landscape, catalogue_names, make_landscape
from .optimizer import OPTIMIZERS, RULES, check_hyperparameters, hyperparameters, run

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_RUN = 3

# fixed seed fan-out offsets; one global seed reproduces everything
SWEEP_CELL_SEED_STRIDE = 7919


class ConfigError(ValueError):
    """Invalid or inconsistent configuration; maps to exit code 2."""


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------

def _hyperparameters(optimizer: str, cfg) -> dict[str, Any]:
    """The fields of cfg that have a rule in optimizer.RULES, laid over the
    optimizer's defaults (see optimizer.hyperparameters)."""
    given = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name in RULES}
    try:
        return hyperparameters(optimizer, **given)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _at_least(cfg, **bounds: int) -> None:
    """Each named run length of cfg (steps, epochs, ...) is at least its bound."""
    for name, bound in bounds.items():
        if getattr(cfg, name) < bound:
            raise ConfigError(f"{name} must be >= {bound}")


@dataclass
class RunConfig:
    """One optimizer run. rho and the projection settings (max_iters,
    grad_tol) apply to rbo only, sam_rho to sam only; a field left unset
    takes the optimizer's default from optimizer.OPTIMIZERS."""

    landscape: str = "riemann"
    landscape_params: dict[str, Any] = field(default_factory=dict)
    optimizer: str = "rbo"
    theta0: list[float] | None = None
    rho: float | None = None
    eta: float | None = None
    steps: int = 100
    sam_rho: float | None = None
    seed: int | None = None
    max_iters: int | None = None
    grad_tol: float | None = None
    out: str = "trajectory.csv"
    format: str = "csv"

    def validated(self) -> "RunConfig":
        _hyperparameters(self.optimizer, self)
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown output format {self.format!r}")
        _at_least(self, steps=0)
        return self


@dataclass
class TrainConfig:
    """One network training run. The optimizer settings apply and default
    as for a trajectory (see RunConfig)."""

    optimizer: str = "rbo"
    rho: float | None = None
    eta: float | None = None
    sam_rho: float | None = None
    max_iters: int | None = None
    epochs: int = 10
    batch_size: int = 128
    split: int = 50_000
    subset_range: str | None = None
    data_dir: str | None = None
    seed: int = 0
    out: str = "learning_curve.csv"


# the sweep fields that only one task reads
_TASK_FIELDS = {"landscape": ("landscape", "landscape_params", "theta0", "steps"),
                "mlp": ("epochs", "subset", "data_dir", "split")}


@dataclass
class SweepConfig:
    """Radius/step-size grid of rbo runs. Radii are log-spaced; per radius the
    step sizes are log-spaced between eta_scale_min*rho and eta_scale_max*rho.
    The mlp task splits the training set at split, as train does. Each
    task's _TASK_FIELDS keep their defaults under the other task."""

    task: str = "landscape"
    landscape: str = "quadratic"
    landscape_params: dict[str, Any] = field(default_factory=dict)
    theta0: list[float] | None = None
    rho_min: float = 0.1
    rho_max: float = 10.0
    rho_count: int = 5
    eta_scale_min: float = 0.01
    eta_scale_max: float = 10.0
    eta_count: int = 5
    steps: int = 50
    epochs: int = 3
    subset: int = 4096
    data_dir: str | None = None
    split: int = TrainConfig.split
    seed: int = 0
    max_iters: int | None = None
    out: str = "sweep.csv"

    def validated(self) -> "SweepConfig":
        if self.task not in _TASK_FIELDS:
            raise ConfigError(f"unknown sweep task {self.task!r}")
        if self.rho_count < 1 or self.eta_count < 1:
            raise ConfigError("grid counts must be >= 1")
        if not 0 < self.rho_min < self.rho_max:
            raise ConfigError("need 0 < rho_min < rho_max")
        if not 0 < self.eta_scale_min < self.eta_scale_max:
            raise ConfigError("need 0 < eta_scale_min < eta_scale_max")
        default = SweepConfig()
        for task, names in _TASK_FIELDS.items():
            for name in names:
                if task != self.task and getattr(self, name) != getattr(default, name):
                    raise ConfigError(f"{name} applies to the {task} sweep task only")
        _at_least(self, steps=0, epochs=0, split=1)
        _hyperparameters("rbo", self)
        return self


@dataclass
class OffsetConfig:
    """Offset-profile samples over a theta interval A:B."""

    landscape: str = "riemann"
    landscape_params: dict[str, Any] = field(default_factory=dict)
    rho: float | None = None
    interval: str = "0:6.283185307179586"
    grid_step: float = 1e-3
    h: float | None = None
    out: str = "offset.csv"


def config_from_mapping(cls, data: Mapping[str, Any]):
    """cls from the mapping; each key must name a field and fit its annotation."""
    hints = get_type_hints(cls)
    unknown = set(data) - set(hints)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, value in data.items():
        if not verify._stands_for(value, hints[key]):
            raise ConfigError(f"config key {key!r} takes "
                              f"{inspect.formatannotation(hints[key])}, got {value!r}")
    return cls(**data)


def _load_config_file(path: str | None) -> dict[str, Any]:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def _merge_config(cls, file_data: Mapping[str, Any], args: argparse.Namespace):
    """The config file's fields, overridden by every flag given. A flag's
    dest is the config field it sets, so a flag whose dest is no field fails
    as an unknown config key instead of being ignored. The namespace's
    other entries are the subcommand, its handler and --config itself."""
    merged = dict(file_data)
    merged.update({k: v for k, v in vars(args).items()
                   if k not in ("command", "handler", "config") and v is not None})
    return config_from_mapping(cls, merged)


# ---------------------------------------------------------------------------
# shared flag parsing helpers
# ---------------------------------------------------------------------------

def _parse_param(text: str) -> tuple[str, Any]:
    if "=" not in text:
        raise ConfigError(f"--param expects KEY=VALUE, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        return key, json.loads(raw)
    except json.JSONDecodeError:
        return key, raw


class _ParamAction(argparse.Action):
    """Gathers repeated --param KEY=VALUE pairs into one dict; a repeated
    key keeps its last value."""

    def __call__(self, parser, namespace, values, option_string=None):
        key, value = values
        setattr(namespace, self.dest,
                {**(getattr(namespace, self.dest) or {}), key: value})


def _parse_interval(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"--interval expects A:B, got {text!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"--interval expects numbers, got {text!r}") from None
    if a >= b:
        raise ConfigError(f"--interval needs A < B, got {text!r}")
    return a, b


def _parse_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"range flag expects A:B, got {text!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"range flag expects integers, got {text!r}") from None
    if a < 0 or a >= b:
        raise ConfigError(f"range flag needs 0 <= A < B, got {text!r}")
    return a, b


def _build_landscape(name: str, params: Mapping[str, Any]) -> Landscape:
    try:
        return make_landscape(name, params)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None


def _resolve_theta0(theta0: list[float] | None, landscape: Landscape) -> np.ndarray:
    if theta0 is None:
        return np.zeros(landscape.dim)
    arr = np.asarray(theta0, dtype=float)
    if arr.shape != (landscape.dim,):
        raise ConfigError(f"theta0 has {arr.size} coordinates but landscape "
                          f"{landscape.name!r} has dim {landscape.dim}")
    return arr


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_trajectory(args: argparse.Namespace) -> int:
    cfg = _merge_config(RunConfig, _load_config_file(args.config), args).validated()
    landscape = _build_landscape(cfg.landscape, cfg.landscape_params)
    theta0 = _resolve_theta0(cfg.theta0, landscape)

    traj = run(cfg.optimizer, landscape, theta0, cfg.steps, seed=cfg.seed,
               **_hyperparameters(cfg.optimizer, cfg))
    if cfg.format == "csv":
        serialize.write_trajectory_csv(traj, cfg.out)
    else:
        serialize.write_trajectory_json(traj, cfg.out)
    last = traj.records[-1]
    print(f"{cfg.optimizer} on {landscape.name}: {len(traj.records)} records, "
          f"final loss {last.loss!r}, |theta| {float(np.linalg.norm(last.theta))!r} "
          f"-> {cfg.out}")
    if traj.error is not None:
        print(f"run aborted: {traj.error}", file=sys.stderr)
        return EXIT_RUN
    return EXIT_OK


def _sweep_grid(cfg: SweepConfig) -> list[tuple[int, float, float]]:
    """Flattened (cell_index, rho, eta) grid in deterministic order."""
    rhos = np.geomspace(cfg.rho_min, cfg.rho_max, cfg.rho_count)
    cells = []
    for i, rho in enumerate(rhos):
        etas = np.geomspace(cfg.eta_scale_min * rho, cfg.eta_scale_max * rho,
                            cfg.eta_count)
        for j, eta in enumerate(etas):
            cells.append((i * cfg.eta_count + j, float(rho), float(eta)))
    return cells


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _merge_config(SweepConfig, _load_config_file(args.config), args).validated()

    if cfg.task == "mlp":
        train_full, test = neural.load_mnist(cfg.data_dir)
        train, val = train_full.split(cfg.split)
        if cfg.subset:
            train = train.subset(slice(0, cfg.subset))
    else:  # a bad landscape is a config error before any cell runs
        landscape = _build_landscape(cfg.landscape, cfg.landscape_params)
        theta0 = _resolve_theta0(cfg.theta0, landscape)
    cells = _sweep_grid(cfg)

    def run_cell(cell: tuple[int, float, float]) -> tuple[float, float, float, str]:
        index, rho, eta = cell
        seed = cfg.seed + SWEEP_CELL_SEED_STRIDE * index
        hyper = {"rho": rho, "eta": eta, "max_iters": cfg.max_iters}
        try:
            if cfg.task == "mlp":
                _, stats = neural.train_mlp(neural.MlpSpec(), train, val, "rbo", cfg.epochs,
                                            seed=seed, **hyper)
                return rho, eta, stats[-1].val_accuracy, ""
            traj = run("rbo", landscape, theta0, cfg.steps, seed=seed, **hyper)
            if traj.error is not None:
                raise RuntimeError(traj.error)
            return rho, eta, traj.records[-1].loss, ""
        except Exception as exc:  # cell failures stay in the grid as NaN
            return rho, eta, math.nan, str(exc)

    results = [run_cell(c) for c in cells]
    serialize.write_sweep_csv(results, cfg.out)
    failures = sum(1 for r in results if r[3])
    print(f"sweep: {len(results)} cells ({failures} failed) -> {cfg.out}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    overrides = _load_config_file(args.config)
    names = args.checks or list(verify.available_checks())
    try:  # every named check and config section, before any check runs
        overrides = {name: verify.check_overrides(name, overrides.get(name, {}))
                     for name in dict.fromkeys([*names, *overrides])}
    except (KeyError, TypeError) as exc:
        raise ConfigError(exc.args[0]) from None
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)

    all_passed = True
    for name in names:
        report = verify.run_check(name, overrides[name])
        serialize.write_check_report_json(report, out_dir / f"{name}.json")
        status = "PASS" if report.passed else "FAIL"
        print(f"{name}: {status} ({len(report.observations)} observations)")
        if not report.passed:
            all_passed = False
            for obs in report.observations:
                if not obs.ok:
                    print(f"  {obs.parameter} = {obs.value!r} "
                          f"exceeds {obs.bound!r}", file=sys.stderr)
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _merge_config(TrainConfig, {}, args)
    hyper = _hyperparameters(cfg.optimizer, cfg)
    _at_least(cfg, epochs=0, batch_size=1, split=1)
    subset = None if cfg.subset_range is None else _parse_range(cfg.subset_range)

    train_full, _test = neural.load_mnist(cfg.data_dir)
    train, val = train_full.split(cfg.split)
    if subset is not None:
        a, b = subset
        if b > train.n:
            raise ConfigError(f"subset range {a}:{b} exceeds the {train.n}-row "
                              "training split")
        train = train.subset(slice(a, b))

    _, stats = neural.train_mlp(neural.MlpSpec(), train, val, cfg.optimizer, cfg.epochs,
                                cfg.batch_size, cfg.seed, **hyper)

    serialize.write_learning_curve_csv(stats, cfg.out)
    last = stats[-1]
    print(f"{cfg.optimizer}: epoch {last.epoch} train loss {last.train_loss:.4f} "
          f"acc {last.train_accuracy:.4f} | val loss {last.val_loss:.4f} "
          f"acc {last.val_accuracy:.4f} -> {cfg.out}")
    return EXIT_OK


def cmd_offset(args: argparse.Namespace) -> int:
    cfg = _merge_config(OffsetConfig, {}, args)
    if cfg.rho is None:
        raise ConfigError("--rho must be given")
    try:
        check_hyperparameters(rho=cfg.rho)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    landscape = _build_landscape(cfg.landscape, cfg.landscape_params)
    lo, hi = _parse_interval(cfg.interval)
    try:
        samples = offset_profile(landscape, cfg.rho, lo, hi, cfg.grid_step, h=cfg.h)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    serialize.write_offset_csv(samples, cfg.out)
    print(f"offset of {landscape.name} at rho={cfg.rho:g}: "
          f"{samples.thetas.size} samples -> {cfg.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

_COMMON_FLAGS = {
    "config": dict(help="JSON config file; flags override its fields"),
    "seed": dict(type=int, help="global seed (fans out per component)"),
    "out": dict(help="output path"),
    "landscape": dict(help=f"one of {', '.join(catalogue_names())}"),
    "param": dict(dest="landscape_params", action=_ParamAction, type=_parse_param,
                  metavar="KEY=VALUE", help="landscape parameter (repeatable)"),
    "optimizer": dict(choices=tuple(OPTIMIZERS)),
    "rho": dict(type=float, help="ball radius (rbo only)"),
    "eta": dict(type=float, help="step size"),
    "sam-rho": dict(type=float, help="ascent radius (sam only)"),
    "max-iters": dict(type=int, help="inner projection iteration cap (rbo only)"),
}


def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    """Add the shared flags a subcommand honours, and only those."""
    for name in names:
        p.add_argument(f"--{name}", **_COMMON_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rollball",
        description="Rolling-ball optimization and landscape geometry toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trajectory", help="run one optimizer, dump step records")
    _add_common(p, "config", "seed", "out", "landscape", "param", "optimizer")
    p.add_argument("--theta0", type=float, nargs="+", metavar="X")
    p.add_argument("--steps", type=int, help="number of updates T")
    _add_common(p, "rho", "eta", "sam-rho", "max-iters")
    p.add_argument("--grad-tol", dest="grad_tol", type=float,
                   help="inner projection stop tolerance (rbo only)")
    p.add_argument("--format", choices=("csv", "json"))
    p.set_defaults(handler=cmd_trajectory)

    p = sub.add_parser("sweep", help="radius/step-size grid to CSV")
    _add_common(p, "config", "seed", "out")
    p.add_argument("--task", choices=tuple(_TASK_FIELDS))
    _add_common(p, "landscape", "param")
    p.add_argument("--theta0", type=float, nargs="+", metavar="X")
    p.add_argument("--rho-min", dest="rho_min", type=float)
    p.add_argument("--rho-max", dest="rho_max", type=float)
    p.add_argument("--rho-count", dest="rho_count", type=int)
    p.add_argument("--eta-scale-min", dest="eta_scale_min", type=float)
    p.add_argument("--eta-scale-max", dest="eta_scale_max", type=float)
    p.add_argument("--eta-count", dest="eta_count", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--subset", type=int, help="training subset size for mlp task")
    p.add_argument("--data-dir", dest="data_dir")
    p.add_argument("--split", type=int, help="train/validation split point for mlp task "
                                             f"(default {SweepConfig.split})")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("verify", help="run named checks, write JSON reports")
    _add_common(p, "config", "out")
    p.add_argument("checks", nargs="*",
                   help=f"subset of: {', '.join(verify.available_checks())} "
                        "(default: all)")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("train", help="train the network, write learning curve")
    _add_common(p, "seed", "out", "optimizer", "rho", "eta", "sam-rho", "max-iters")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--data-dir", dest="data_dir",
                   help=f"IDX directory (default ${neural.DATA_DIR_ENV} or ./data)")
    p.add_argument("--split", type=int,
                   help=f"train/validation split point (default {TrainConfig.split})")
    p.add_argument("--subset-range", dest="subset_range", metavar="A:B",
                   help="train on rows A..B of the training split")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("offset", help="dump offset-profile samples")
    _add_common(p, "out", "landscape", "param")
    p.add_argument("--rho", type=float)
    p.add_argument("--interval", metavar="A:B", help="theta interval (default 0:2pi)")
    p.add_argument("--grid-step", dest="grid_step", type=float,
                   help=f"theta sampling step (default {OffsetConfig.grid_step:g})")
    p.add_argument("--h", type=float, help="search lattice step "
                                           "(default min(rho/100, grid step))")
    p.set_defaults(handler=cmd_offset)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports bad flags itself
        return EXIT_OK if exc.code == EXIT_OK else EXIT_CONFIG
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, RuntimeError, FloatingPointError, ValueError,
            KeyError) as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return EXIT_RUN


if __name__ == "__main__":
    sys.exit(main())
