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
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from . import neural, serialize, verify
from .geometry import offset_profile
from .landscape import Landscape, catalogue_names, make_landscape
from .optimizer import (ProjectionConfig, Trajectory, WarmStart, run_gd,
                        run_rbo, run_sam, run_sgd)

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

# optimizer -> {hyperparameter: default}. A RunConfig field in some entry
# applies to the optimizers whose entry names it; rbo's projection settings
# default to ProjectionConfig's.
_PROJECTION = ProjectionConfig()
OPTIMIZERS: dict[str, dict[str, Any]] = {
    "rbo": {"rho": 1.0, "eta": 6.0, "max_iters": _PROJECTION.max_iters,
            "grad_tol": _PROJECTION.grad_tol,
            "warm_start": _PROJECTION.warm_start.value},
    "gd": {"eta": 0.01},
    "sgd": {"eta": 0.01},
    "sam": {"sam_rho": 0.05, "eta": 0.01},
}


@dataclass
class RunConfig:
    """One optimizer run. rho and the projection settings (max_iters,
    grad_tol, warm_start) apply to rbo only, sam_rho to sam only; defaults
    depend on the optimizer (see OPTIMIZERS) and fill fields left unset."""

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
    warm_start: str | None = None
    out: str = "trajectory.csv"
    format: str = "csv"

    def validated(self) -> "RunConfig":
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        own = OPTIMIZERS[self.optimizer]
        for opt, hyper in OPTIMIZERS.items():
            for name in hyper:
                if name not in own and getattr(self, name) is not None:
                    raise ConfigError(f"{name} applies to the {opt} optimizer only")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown output format {self.format!r}")
        if self.steps < 0:
            raise ConfigError("steps must be >= 0")
        if self.warm_start is not None:
            try:
                WarmStart(self.warm_start)
            except ValueError:
                raise ConfigError(f"unknown warm_start {self.warm_start!r}") from None
        return self

    def filled(self) -> "RunConfig":
        """Apply per-optimizer hyperparameter defaults to unset fields."""
        return replace(self, **{name: default for name, default
                                in OPTIMIZERS[self.optimizer].items()
                                if getattr(self, name) is None})

    def projection(self) -> ProjectionConfig:
        return ProjectionConfig(max_iters=self.max_iters, grad_tol=self.grad_tol,
                                warm_start=WarmStart(self.warm_start))


@dataclass
class SweepConfig:
    """Radius/step-size grid. Radii are log-spaced; per radius the step
    sizes are log-spaced between eta_scale_min*rho and eta_scale_max*rho."""

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
    seed: int = 0
    max_iters: int = 100
    out: str = "sweep.csv"

    def validated(self) -> "SweepConfig":
        if self.task not in ("landscape", "mlp"):
            raise ConfigError(f"unknown sweep task {self.task!r}")
        if self.rho_count < 1 or self.eta_count < 1:
            raise ConfigError("grid counts must be >= 1")
        if self.rho_min <= 0 or self.rho_min >= self.rho_max:
            raise ConfigError("need 0 < rho_min < rho_max")
        if self.eta_scale_min <= 0 or self.eta_scale_min >= self.eta_scale_max:
            raise ConfigError("need 0 < eta_scale_min < eta_scale_max")
        return self


def config_to_json(cfg) -> str:
    return json.dumps(asdict(cfg), indent=2, sort_keys=True) + "\n"


def config_from_mapping(cls, data: Mapping[str, Any]):
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
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


def _run_optimizer(cfg: RunConfig, landscape: Landscape,
                   theta0: np.ndarray) -> Trajectory:
    if cfg.optimizer == "rbo":
        return run_rbo(landscape, theta0, cfg.rho, cfg.eta, cfg.steps,
                       cfg.projection(), seed=cfg.seed)
    if cfg.optimizer == "gd":
        return run_gd(landscape, theta0, cfg.eta, cfg.steps)
    if cfg.optimizer == "sgd":
        return run_sgd(landscape, theta0, cfg.eta, cfg.steps, seed=cfg.seed)
    return run_sam(landscape, theta0, cfg.eta, cfg.sam_rho, cfg.steps,
                   seed=cfg.seed)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_trajectory(args: argparse.Namespace) -> int:
    cfg = _merge_config(RunConfig, _load_config_file(args.config), args)
    cfg = cfg.validated().filled()
    landscape = _build_landscape(cfg.landscape, cfg.landscape_params)
    theta0 = _resolve_theta0(cfg.theta0, landscape)

    traj = _run_optimizer(cfg, landscape, theta0)
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


def _sweep_cell_landscape(cfg: SweepConfig, rho: float, eta: float,
                          seed: int) -> float:
    landscape = _build_landscape(cfg.landscape, cfg.landscape_params)
    theta0 = _resolve_theta0(cfg.theta0, landscape)
    traj = run_rbo(landscape, theta0, rho, eta, cfg.steps,
                   ProjectionConfig(max_iters=cfg.max_iters), seed=seed)
    if traj.error is not None:
        raise RuntimeError(traj.error)
    return traj.records[-1].loss


def _sweep_cell_mlp(cfg: SweepConfig, train, val, rho: float, eta: float,
                    seed: int) -> float:
    spec = neural.MlpSpec()
    _, stats = neural.train_mlp(spec, train, val, optimizer="rbo",
                                epochs=cfg.epochs, eta=eta, rho=rho, seed=seed,
                                cfg=ProjectionConfig(max_iters=cfg.max_iters))
    return stats[-1].val_accuracy


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _merge_config(SweepConfig, _load_config_file(args.config), args).validated()

    if cfg.task == "mlp":
        train_full, test = neural.load_mnist(cfg.data_dir)
        train, val = train_full.split(50_000)
        if cfg.subset:
            train = train.subset(slice(0, cfg.subset))
    cells = _sweep_grid(cfg)

    def run_cell(cell: tuple[int, float, float]) -> tuple[float, float, float, str]:
        index, rho, eta = cell
        seed = cfg.seed + SWEEP_CELL_SEED_STRIDE * index
        try:
            if cfg.task == "landscape":
                metric = _sweep_cell_landscape(cfg, rho, eta, seed)
            else:
                metric = _sweep_cell_mlp(cfg, train, val, rho, eta, seed)
            return rho, eta, metric, ""
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
    # the optimizer settings are validated and defaulted as for a trajectory
    run = RunConfig(optimizer=args.optimizer or "rbo", rho=args.rho, eta=args.eta,
                    sam_rho=args.sam_rho, max_iters=args.max_iters).validated().filled()
    epochs = args.epochs if args.epochs is not None else 10
    if epochs < 0:
        raise ConfigError("epochs must be >= 0")
    split = args.split if args.split is not None else 50_000
    subset = None if args.subset_range is None else _parse_range(args.subset_range)

    train_full, _test = neural.load_mnist(args.data_dir)
    train, val = train_full.split(split)
    if subset is not None:
        a, b = subset
        if b > train.n:
            raise ConfigError(f"subset range {a}:{b} exceeds the {train.n}-row "
                              "training split")
        train = train.subset(slice(a, b))

    if run.optimizer == "rbo":
        settings = {"rho": run.rho, "cfg": run.projection()}
    else:
        settings = {"sam_rho": run.sam_rho} if run.optimizer == "sam" else {}
    spec = neural.MlpSpec()
    params, stats = neural.train_mlp(
        spec, train, val, optimizer=run.optimizer, epochs=epochs,
        batch_size=args.batch_size if args.batch_size is not None else 128,
        eta=run.eta, seed=args.seed if args.seed is not None else 0, **settings)

    out = args.out or "learning_curve.csv"
    serialize.write_learning_curve_csv(stats, out)
    last = stats[-1]
    print(f"{run.optimizer}: epoch {last.epoch} train loss {last.train_loss:.4f} "
          f"acc {last.train_accuracy:.4f} | val loss {last.val_loss:.4f} "
          f"acc {last.val_accuracy:.4f} -> {out}")
    return EXIT_OK


def cmd_offset(args: argparse.Namespace) -> int:
    landscape = _build_landscape(args.landscape or "riemann",
                                 args.landscape_params or {})
    if args.rho is None or args.rho <= 0:
        raise ConfigError("--rho must be given and positive")
    lo, hi = _parse_interval(args.interval or "0:6.283185307179586")
    theta_step = args.grid_step if args.grid_step is not None else 1e-3
    try:
        samples = offset_profile(landscape, args.rho, lo, hi, theta_step,
                                 h=args.h)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    out = args.out or "offset.csv"
    serialize.write_offset_csv(samples, out)
    print(f"offset of {landscape.name} at rho={args.rho:g}: "
          f"{samples.thetas.size} samples -> {out}")
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
    p.add_argument("--rho", type=float, help="ball radius (rbo only)")
    p.add_argument("--eta", type=float, help="step size")
    p.add_argument("--steps", type=int, help="number of updates T")
    p.add_argument("--sam-rho", dest="sam_rho", type=float,
                   help="ascent radius (sam only)")
    p.add_argument("--max-iters", dest="max_iters", type=int,
                   help="inner projection iteration cap (rbo only)")
    p.add_argument("--grad-tol", dest="grad_tol", type=float,
                   help="inner projection stop tolerance (rbo only)")
    p.add_argument("--warm-start", dest="warm_start",
                   choices=("previous_contact", "candidate_theta"),
                   help="inner projection starting point (rbo only)")
    p.add_argument("--format", choices=("csv", "json"))
    p.set_defaults(handler=cmd_trajectory)

    p = sub.add_parser("sweep", help="radius/step-size grid to CSV")
    _add_common(p, "config", "seed", "out")
    p.add_argument("--task", choices=("landscape", "mlp"))
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
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("verify", help="run named checks, write JSON reports")
    _add_common(p, "config", "out")
    p.add_argument("checks", nargs="*",
                   help=f"subset of: {', '.join(verify.available_checks())} "
                        "(default: all)")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("train", help="train the network, write learning curve")
    _add_common(p, "seed", "out", "optimizer")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--eta", type=float)
    p.add_argument("--rho", type=float, help="ball radius (rbo only)")
    p.add_argument("--sam-rho", dest="sam_rho", type=float)
    p.add_argument("--max-iters", dest="max_iters", type=int,
                   help="inner projection iteration cap (rbo only)")
    p.add_argument("--data-dir", dest="data_dir",
                   help=f"IDX directory (default ${neural.DATA_DIR_ENV} or ./data)")
    p.add_argument("--split", type=int,
                   help="train/validation split point (default 50000)")
    p.add_argument("--subset-range", dest="subset_range", metavar="A:B",
                   help="train on rows A..B of the training split")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("offset", help="dump offset-profile samples")
    _add_common(p, "out", "landscape", "param")
    p.add_argument("--rho", type=float)
    p.add_argument("--interval", metavar="A:B", help="theta interval (default 0:2pi)")
    p.add_argument("--grid-step", dest="grid_step", type=float,
                   help="theta sampling step (default 1e-3)")
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
