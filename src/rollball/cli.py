"""Command-line entry point.

Subcommands: trajectory (run one optimizer and dump its step records),
sweep (radius/step-size grid to CSV), verify (named geometry checks to
JSON reports), train (network benchmark with learning-curve CSV), and
offset (dump offset-profile samples for plotting).

Each field of a subcommand's config is a flag of the same name with dashes
for underscores; landscape_params is the repeatable --param KEY=VALUE.
trajectory, sweep and verify also read a JSON file (--config); flags win
field by field, --param key by key. The config is checked before any work;
a non-finite setting is a configuration error naming it. Exit codes: 0
success, 1 verify-check failure, 2 configuration error, 3 run error.
"""
from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
import types
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from . import neural, serialize, verify
from .geometry import memo_view, offset_profile
from .landscape import Landscape, catalogue_names, make_landscape
from .optimizer import OPTIMIZERS, RULES, hyperparameters, run

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


def _parse_span(text: str, flag: str, number: type) -> tuple[Any, Any]:
    """The ends A < B of text "A:B", parsed by number (int or float); both
    must be finite, and an int range must start at 0 or later."""
    try:
        a, b = map(number, text.split(":"))
    except ValueError:  # not two numbers
        a = b = math.nan
    if not (math.isfinite(a) and math.isfinite(b) and a < b and (number is float or a >= 0)):
        raise ConfigError(f"{flag} expects A:B with {'finite' if number is float else '0 <='} "
                          f"A < B, got {text!r}")
    return a, b


_FORMATS = ("csv", "json")


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
        if self.format not in _FORMATS:
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

    def validated(self) -> "TrainConfig":
        _hyperparameters(self.optimizer, self)
        _at_least(self, epochs=0, batch_size=1, split=1)
        if self.subset_range is not None:
            _parse_span(self.subset_range, "range flag", int)
        return self


# the sweep fields that only one task reads
_TASK_FIELDS = {"landscape": ("landscape", "landscape_params", "theta0", "steps"),
                "mlp": ("epochs", "subset", "data_dir", "split")}


@dataclass
class SweepConfig:
    """Radius/step-size grid of rbo runs. Radii are log-spaced; per radius the
    step sizes are log-spaced between eta_scale_min*rho and eta_scale_max*rho.
    The mlp task splits the training set at split, as train does, and trains
    on its first subset rows, at least one batch of train's default size.
    Each task's _TASK_FIELDS keep their defaults under the other task."""

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
        _at_least(self, steps=0, epochs=0, split=1, subset=TrainConfig.batch_size)
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

    def validated(self) -> "OffsetConfig":
        if self.rho is None:
            raise ConfigError("--rho must be given")
        _hyperparameters("rbo", self)  # rho, the ball radius, by its RULES entry
        if not self.grid_step > 0:
            raise ConfigError(f"grid_step must be positive, got {self.grid_step!r}")
        _parse_span(self.interval, "--interval", float)
        return self


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


def _merge_config(cls, args: argparse.Namespace):
    """The --config file's fields overridden by each flag given, a file's
    landscape_params object key by key. A flag's dest is the field it sets;
    the namespace's other entries are the subcommand and --config. A
    non-finite float setting fails here unless optimizer.RULES words it."""
    merged = _load_config_file(getattr(args, "config", None))
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        if key == "landscape_params" and isinstance(merged.get(key), dict):
            value = {**merged[key], **value}
        merged[key] = value
    cfg = config_from_mapping(cls, merged)
    for key, value in merged.items():
        if key not in RULES and any(isinstance(v, float) and not math.isfinite(v)
                                    for v in (value if isinstance(value, list) else [value])):
            raise ConfigError(f"{key} must be finite, got {value!r}")
    return cfg


# ---------------------------------------------------------------------------
# subcommands; each one but verify gets its config merged and validated
# ---------------------------------------------------------------------------

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


def cmd_trajectory(cfg: RunConfig) -> int:
    landscape = _build_landscape(cfg.landscape, cfg.landscape_params)
    theta0 = _resolve_theta0(cfg.theta0, landscape)

    traj = run(cfg.optimizer, landscape, theta0, cfg.steps, seed=cfg.seed,
               **_hyperparameters(cfg.optimizer, cfg))
    if cfg.format == "csv":
        serialize.write_trajectory_csv(traj, cfg.out)
    else:
        serialize.write_json(serialize.trajectory_to_dict(traj), cfg.out)
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


def cmd_sweep(cfg: SweepConfig) -> int:
    if cfg.task == "mlp":
        train_full, test = neural.load_mnist(cfg.data_dir)
        train, val = train_full.split(cfg.split)
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
                                            TrainConfig.batch_size, seed, **hyper)
                return rho, eta, stats[-1].val_accuracy, ""
            traj = run("rbo", landscape, theta0, cfg.steps, seed, **hyper)
            if traj.error is not None:
                raise RuntimeError(traj.error)
            return rho, eta, traj.records[-1].loss, ""
        except Exception as exc:  # cell failures stay in the grid as NaN
            return rho, eta, math.nan, str(exc)

    # one view for all the cells: their rolls read each value of f once
    with nullcontext() if cfg.task == "mlp" else memo_view(landscape) as landscape:
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

    # every check runs before any report is written: a run error leaves none
    reports = {name: verify.run_check(name, overrides[name]) for name in names}
    all_passed = True
    for name, report in reports.items():
        serialize.write_json(serialize.check_report_to_dict(report), out_dir / f"{name}.json")
        status = "PASS" if report.passed else "FAIL"
        print(f"{name}: {status} ({len(report.observations)} observations)")
        if not report.passed:
            all_passed = False
            for obs in report.observations:
                if not obs.ok:
                    print(f"  {obs.parameter} = {obs.value!r} "
                          f"exceeds {obs.bound!r}", file=sys.stderr)
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def cmd_train(cfg: TrainConfig) -> int:
    train_full, _test = neural.load_mnist(cfg.data_dir)
    train, val = train_full.split(cfg.split)
    if cfg.subset_range is not None:
        a, b = _parse_span(cfg.subset_range, "range flag", int)
        if b > train.n:
            raise ConfigError(f"subset range {a}:{b} exceeds the {train.n}-row "
                              "training split")
        train = train.subset(slice(a, b))

    _, stats = neural.train_mlp(neural.MlpSpec(), train, val, cfg.optimizer, cfg.epochs,
                                cfg.batch_size, cfg.seed,
                                **_hyperparameters(cfg.optimizer, cfg))

    serialize.write_learning_curve_csv(stats, cfg.out)
    last = stats[-1]
    print(f"{cfg.optimizer}: epoch {last.epoch} train loss {last.train_loss:.4f} "
          f"acc {last.train_accuracy:.4f} | val loss {last.val_loss:.4f} "
          f"acc {last.val_accuracy:.4f} -> {cfg.out}")
    return EXIT_OK


def cmd_offset(cfg: OffsetConfig) -> int:
    landscape = _build_landscape(cfg.landscape, cfg.landscape_params)
    lo, hi = _parse_span(cfg.interval, "--interval", float)
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

class _ParamAction(argparse.Action):
    """Gathers repeated --param KEY=VALUE pairs into one dict, VALUE read as
    JSON where it parses; a repeated key keeps its last value."""

    def __call__(self, parser, namespace, text, option_string=None):
        key, sep, raw = text.partition("=")
        if not sep:
            parser.error(f"--param expects KEY=VALUE, got {text!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        setattr(namespace, self.dest, {**(getattr(namespace, self.dest) or {}), key: value})


# what a config field's name and annotation cannot say about its flag
_FLAGS: dict[str, dict[str, Any]] = {
    "landscape": dict(help=f"one of {', '.join(catalogue_names())}"),
    "landscape_params": dict(flag="--param", action=_ParamAction, type=str,
                             metavar="KEY=VALUE", help="landscape parameter (repeatable)"),
    "optimizer": dict(choices=tuple(OPTIMIZERS)),
    "theta0": dict(metavar="X", help="start point"),
    "rho": dict(help="ball radius"),
    "eta": dict(help="step size"),
    "steps": dict(help="number of updates T"),
    "sam_rho": dict(help="ascent radius (sam only)"),
    "seed": dict(help="global seed (fans out per component)"),
    "max_iters": dict(help="inner iteration cap per step (rbo only)"),
    "grad_tol": dict(help="inner stop tolerance (rbo only)"),
    "out": dict(help="output path"),
    "format": dict(choices=_FORMATS),
    "task": dict(choices=tuple(_TASK_FIELDS)),
    "subset": dict(help="training subset size for mlp task"),
    "split": dict(help=f"train/validation split point (default {TrainConfig.split})"),
    "data_dir": dict(help=f"IDX directory (default ${neural.DATA_DIR_ENV} or ./data)"),
    "subset_range": dict(metavar="A:B", help="train on rows A..B of the training split"),
    "interval": dict(metavar="A:B", help="theta interval (default 0:2pi)"),
    "grid_step": dict(help=f"theta sampling step (default {OffsetConfig.grid_step:g})"),
    "h": dict(help="search lattice step (default min(rho/100, grid step))"),
}


def _add_config_flags(parser: argparse.ArgumentParser, cls) -> None:
    """One flag per field of cls, named --<field, dashes for underscores>
    and typed by the field's annotation with None stripped (a list takes
    one or more values); the field's _FLAGS entry adds the rest."""
    for name, hint in get_type_hints(cls).items():
        if isinstance(hint, types.UnionType):  # X | None
            hint = get_args(hint)[0]
        kwargs = (dict(type=get_args(hint)[0], nargs="+") if get_origin(hint) is list
                  else dict(type=hint))
        kwargs.update(_FLAGS.get(name, {}))
        parser.add_argument(kwargs.pop("flag", "--" + name.replace("_", "-")),
                            dest=name, **kwargs)


# subcommand -> (the config its flags set, None for verify; whether it reads
# --config; its handler; its help)
_SUBCOMMANDS = {
    "trajectory": (RunConfig, True, cmd_trajectory, "run one optimizer, dump step records"),
    "sweep": (SweepConfig, True, cmd_sweep, "radius/step-size grid to CSV"),
    "verify": (None, True, cmd_verify, "run named checks, write JSON reports"),
    "train": (TrainConfig, False, cmd_train, "train the network, write learning curve"),
    "offset": (OffsetConfig, False, cmd_offset, "dump offset-profile samples"),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Every subcommand, with the config flags of all or, given `command`, of it alone."""
    parser = argparse.ArgumentParser(
        prog="rollball",
        description="Rolling-ball optimization and landscape geometry toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (cls, reads_file, _, text) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=text)
        if reads_file:
            p.add_argument("--config", help="JSON config file; flags override its fields")
        if cls is None:
            p.add_argument("--out", help="report directory")
            p.add_argument("checks", nargs="*",
                           help=f"subset of: {', '.join(verify.available_checks())} "
                                "(default: all)")
        elif command in (None, name):
            _add_config_flags(p, cls)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)  # flags cost a config's type hints
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports bad flags itself
        return EXIT_OK if exc.code == EXIT_OK else EXIT_CONFIG
    cls, _, handler, _ = _SUBCOMMANDS[args.command]
    try:
        if cls is not None:  # every setting is checked before any work
            args = _merge_config(cls, args).validated()
        return handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, RuntimeError, FloatingPointError, ValueError, KeyError) as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return EXIT_RUN


if __name__ == "__main__":
    sys.exit(main())
