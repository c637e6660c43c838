"""The benchmark's three workloads.

Each workload derives every input from its seed in `setup`, runs its timed
operations through the entry points users call (`rollball.cli.main` and
`optimizer.run_rbo`) in `rep`, and checks every output after the clock has
stopped. Fidelity against the brute-force oracles is computed in `fidelity`,
also untimed, so a faster layer that lands the ball in the wrong place
shows up next to the time it saved.

An operation is a sweep cell, a trajectory run, a verify check, an offset
dump or a train run; each failed output check marks its operation failed.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from spans import RunSummary

TWO_PI = 2.0 * math.pi
CONTACT_TOL = 1e-9          # relative, the tolerance BallState enforces
VERIFY_CHECKS = ("gd-limit", "linear-ironing", "open-unreachables",
                 "sharp-minima", "smoothing", "weak-ironing")


@dataclass
class Rep:
    """One repetition of a workload's timed operations."""

    wall_s: float
    attempted: int
    failures: list[str]
    runs: list[RunSummary]
    op_seconds: dict[str, float] = field(default_factory=dict)
    outputs: dict[str, Any] = field(default_factory=dict)

    def steps_per_s(self, optimizer: str) -> float | None:
        """Steps of the given optimizer over the time spent in its runs."""
        runs = [r for r in self.runs if r.optimizer == optimizer]
        secs = sum(r.seconds for r in runs)
        return sum(r.steps for r in runs) / secs if secs > 0 else None

    def sgd_rate(self) -> float | None:
        """sgd steps over the time of the whole sgd train runs."""
        secs = sum(v for k, v in self.op_seconds.items() if k.startswith("sgd_train"))
        steps = sum(r.steps for r in self.runs if r.optimizer == "sgd")
        return steps / secs if secs > 0 else None


def call_cli(rb, argv: list[str]) -> tuple[int, str, float]:
    """Run `rollball <argv>` in process; returns (exit code, stderr, seconds).
    The command's own console output is captured, not printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = rb.cli.main(argv)
        seconds = time.perf_counter() - t0
    return code, err.getvalue().strip(), seconds


def read_csv(path: Path) -> list[dict[str, str]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))
    except OSError:
        return []


def finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except (TypeError, ValueError):
        return False


def trajectory_problem(run: RunSummary) -> str | None:
    """The per-trajectory output check: no error, |center - contact| = rho."""
    if run.error is not None:
        return f"trajectory error: {run.error}"
    if run.rho is not None and not run.contact_gap <= CONTACT_TOL * run.rho:
        return f"|center - contact| deviates from rho by {run.contact_gap:.3e}"
    return None


def same_run(a: RunSummary, b: RunSummary) -> bool:
    """Bitwise the same steps, inner iterations, residuals and centers."""
    return (a.steps == b.steps and np.array_equal(a.iters, b.iters)
            and np.array_equal(a.residuals, b.residuals)
            and (a.centers is None) == (b.centers is None)
            and (a.centers is None or np.array_equal(a.centers, b.centers)))


class Workload:
    """Inputs from a seed, timed repetitions, checks, untimed extras."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed, self.workdir = seed, workdir

    def setup(self) -> None:
        raise NotImplementedError

    def rep(self, rb, probe, index: int) -> Rep:
        raise NotImplementedError

    def fidelity(self, rb, first: Rep) -> dict[str, Any]:
        """Brute-force fidelity of the first repetition's runs, by run label."""
        return {}

    def derived_layers(self, rb) -> dict[str, float]:
        """Per-layer numbers measured outside the traced repetition."""
        return {}


# ---------------------------------------------------------------------------
# ball1d: sweep plus long single runs, scalar oracles and the projection loop
# ---------------------------------------------------------------------------

class Ball1dWorkload(Workload):
    name = "ball1d"
    SWEEP_STEPS = 100
    RUN_STEPS = 500
    # (label, landscape id, params, rho, eta); the parabola sigma*theta^2/2
    # with sigma=2 has its vertex unreachable for rho > 1/sigma
    RUNS = (("riemann rho=1 eta=0.1", "riemann", {"n": 100}, 1.0, 0.1),
            ("riemann rho=0.1 eta=0.01", "riemann", {"n": 100}, 0.1, 0.01),
            ("parabola sigma=2 rho=1 eta=0.1", "quadratic", {"a": [[2.0]]}, 1.0, 0.1))

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self._first_runs: list[RunSummary] | None = None

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.sweep_theta0 = float(rng.uniform(0.0, TWO_PI))
        self.sweep_seed = int(rng.integers(0, 2**31 - 1))
        self.run_theta0 = [float(rng.uniform(0.0, TWO_PI)),
                           float(rng.uniform(0.0, TWO_PI)),
                           float(rng.uniform(-2.0, 2.0))]

    def rep(self, rb, probe, index: int) -> Rep:
        out = self.workdir / f"sweep-{index}.csv"
        argv = ["sweep", "--landscape", "riemann", "--param", "n=100",
                "--theta0", repr(self.sweep_theta0), "--seed", str(self.sweep_seed),
                "--rho-count", "4", "--eta-count", "4",
                "--steps", str(self.SWEEP_STEPS), "--out", str(out)]
        t0 = time.perf_counter()
        code, err, sweep_s = call_cli(rb, argv)
        cells = probe.take()
        op_seconds = {"sweep": sweep_s}
        for k, ((_, lid, params, rho, eta), th) in enumerate(zip(self.RUNS, self.run_theta0)):
            t1 = time.perf_counter()
            landscape = rb.landscape.make_landscape(lid, params)
            # the probe summary keeps what the checks need; the trajectory goes
            rb.optimizer.run_rbo(landscape, np.array([th]), rho, eta, self.RUN_STEPS)
            op_seconds[f"run{k}"] = time.perf_counter() - t1
        wall = time.perf_counter() - t0
        runs = probe.take()

        failures = self._check_sweep(code, err, out, cells)
        # fidelity is computed from the first repetition's long runs, so the
        # later repetitions must reproduce them exactly
        if self._first_runs is None:
            self._first_runs = runs
        for (label, *_), run, ref in zip(self.RUNS, runs, self._first_runs):
            problem = trajectory_problem(run)
            if problem is None and not same_run(run, ref):
                problem = "differs from the first repetition"
            if problem:
                failures.append(f"run {label}: {problem}")
        return Rep(wall_s=wall, attempted=16 + len(self.RUNS), failures=failures,
                   runs=cells + runs, op_seconds=op_seconds)

    @staticmethod
    def _check_sweep(code: int, err: str, path: Path,
                     cells: list[RunSummary]) -> list[str]:
        """The CSV contract: 16 finite rows with an empty error column. Each
        trajectory the sweep was seen to run must pass the trajectory check;
        how many it runs is up to the sweep. At most one failure per cell."""
        if code != 0:
            return [f"sweep exit {code}: {err}"] * 16
        rows = read_csv(path)
        if len(rows) != 16:
            return [f"sweep: {len(rows)} rows, expected 16"] * 16
        failures = [f"sweep cell {i}: bad row {row}" for i, row in enumerate(rows)
                    if not all(finite(row.get(k)) for k in ("rho", "eta", "metric"))
                    or row.get("error")]
        failures += [f"sweep trajectory {i}: {problem}"
                     for i, problem in enumerate(map(trajectory_problem, cells)) if problem]
        return failures[:16]

    def fidelity(self, rb, first: Rep) -> dict[str, Any]:
        """Offset gap and penetration of the first repetition's long runs,
        by brute force."""
        geo = rb.geometry
        gaps, pens = [], []
        for (label, *_), run in zip(self.RUNS, self._first_runs):
            ls, rho = run.landscape, run.rho
            h = rho / 100.0
            gap = max(geo.offset_value(ls, rho, float(c[0]), h) - float(c[1])
                      for c in run.centers)
            step = 1e-4
            lo = float(run.centers[:, 0].min()) - 2.0 * rho - step
            hi = float(run.centers[:, 0].max()) + 2.0 * rho + step
            dist = geo.distances_to_graph(ls, run.centers, geo.GridSpec((lo,), (hi,), step))
            gaps.append((label, gap))
            pens.append((label, float(rho - np.min(dist))))
        return {"offset_gap": gaps, "penetration": pens}


# ---------------------------------------------------------------------------
# geometry: verify plus a huge-radius offset dump, batched oracles
# ---------------------------------------------------------------------------

class GeometryWorkload(Workload):
    name = "geometry"
    RHO = 1e3
    H = 1e-4
    GRID_STEP = 0.1
    REFERENCE_POINTS = 2

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self._reference: bytes | None = None

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        # the interval start sits on the theta lattice, as the aligned
        # sliding-window path of offset_profile requires
        self.lo = f"{int(rng.integers(0, 63)) / 10:.1f}"
        self.hi = repr(float(self.lo) + TWO_PI)
        self.check_rows = rng.choice(64, size=self.REFERENCE_POINTS, replace=False)

    def rep(self, rb, probe, index: int) -> Rep:
        vdir = self.workdir / f"verify-{index}"
        opath = self.workdir / f"offset-{index}.csv"
        t0 = time.perf_counter()
        vcode, verr, verify_s = call_cli(rb, ["verify", "--out", str(vdir)])
        ocode, oerr, offset_s = call_cli(rb, [
            "offset", "--landscape", "riemann", "--param", "n=100",
            "--rho", repr(self.RHO), "--h", repr(self.H),
            "--grid-step", repr(self.GRID_STEP),
            "--interval", f"{self.lo}:{self.hi}", "--out", str(opath)])
        wall = time.perf_counter() - t0
        runs = probe.take()

        failures = check_verify(vcode, verr, vdir, runs)
        failures += self._check_offset(rb, ocode, oerr, opath)
        return Rep(wall_s=wall, attempted=len(VERIFY_CHECKS) + 1, failures=failures,
                   runs=runs, op_seconds={"verify": verify_s, "offset": offset_s})

    def _check_offset(self, rb, code: int, err: str, path: Path) -> list[str]:
        """64 finite rows; on the first repetition a few seeded rows agree
        with the scalar reference offset_value, later repetitions must
        reproduce the first byte for byte."""
        if code != 0:
            return [f"offset exit {code}: {err}"]
        rows = read_csv(path)
        if len(rows) != 64 or not all(finite(r.get("theta")) and finite(r.get("value"))
                                      for r in rows):
            return [f"offset: {len(rows)} rows or non-finite values"]
        data = path.read_bytes()
        if self._reference is not None:
            return [] if data == self._reference else ["offset: output differs from repetition 0"]
        problem = check_offset_rows(rb, rows, self.check_rows, self.RHO, self.H)
        if problem:
            return [problem]
        self._reference = data
        return []


def check_verify(code: int, err: str, vdir: Path, runs: list[RunSummary]) -> list[str]:
    """Exit 0 and six reports with passed: true. gd-limit's rolling-ball
    runs (the only ones verify makes) must pass the trajectory check."""
    failures = []
    for name in VERIFY_CHECKS:
        try:
            report = json.loads((vdir / f"{name}.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            failures.append(f"verify {name}: no report ({exc})")
            continue
        if report.get("passed") is not True:
            failures.append(f"verify {name}: passed={report.get('passed')!r}")
        elif name == "gd-limit" and any(trajectory_problem(r) for r in runs):
            failures.append("verify gd-limit: " + next(
                p for p in map(trajectory_problem, runs) if p))
    if code != 0 and not failures:
        failures.append(f"verify exit {code}: {err}")
    return failures


def check_offset_rows(rb, rows: list[dict[str, str]], picks, rho: float,
                      h: float) -> str | None:
    landscape = rb.landscape.riemann(100)
    for i in picks:
        theta, value = float(rows[i]["theta"]), float(rows[i]["value"])
        ref = rb.geometry.offset_value(landscape, rho, theta, h)
        if not abs(value - ref) <= 1e-9 * (1.0 + abs(ref)):
            return f"offset at theta={theta!r}: {value!r} != reference {ref!r}"
    return None


# ---------------------------------------------------------------------------
# mlp: the 784-256-256-10 network on synthetic IDX digits
# ---------------------------------------------------------------------------

TRAIN_ROWS = 4096 + 1024
TEST_ROWS = 512
LIT_SHARE = 0.19   # share of lit pixels in the standard digit images


def synthetic_digits(seed: int, n: int, low: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """uint8 28x28 images and labels of a fixed random linear teacher.

    Images are sparse like handwritten digits (about a fifth of the pixels
    lit, at intensity uniform over low..255); the label is the teacher's
    argmax over the centred pixels, so the classes are roughly balanced and
    learnable. The timed train runs use low=1. Brighter strokes make the
    rbo epoch at the CLI defaults diverge (ProjectionDivergence) on some
    seeds, a quarter to a half of them at low=255; that rate is reported on
    its own, as `optimizer.bright_diverged_share`, not as failed operations.
    """
    rng = np.random.default_rng([seed, 3])
    lit = rng.random((n, 784)) < LIT_SHARE
    images = (rng.integers(low, 256, size=(n, 784)) * lit).astype(np.uint8)
    teacher = rng.standard_normal((784, 10))
    x = images / 255.0
    labels = np.argmax((x - x.mean(axis=0)) @ teacher, axis=1).astype(np.uint8)
    return images.reshape(n, 28, 28), labels


def write_idx(root: Path, prefix: str, images: np.ndarray, labels: np.ndarray) -> None:
    """The big-endian IDX pair the standard digit files ship in."""
    n = images.shape[0]
    (root / f"{prefix}-images-idx3-ubyte").write_bytes(
        struct.pack(">IIII", 2051, n, 28, 28) + images.tobytes())
    (root / f"{prefix}-labels-idx1-ubyte").write_bytes(
        struct.pack(">II", 2049, n) + labels.tobytes())


class MlpWorkload(Workload):
    name = "mlp"
    RBO_SPLIT = 1024       # 8 rbo steps of batch 128 per epoch
    SGD_SPLIT = 4096       # 32 sgd steps of batch 128 per epoch
    SGD_RUNS = 3           # sgd epochs are short; repeat them to steady the rate
    DERIVED_REPEATS = 15   # calls per median of the derived forward/backward times
    BRIGHT_RUNS = 8        # seeded rbo epochs on bright-stroke digits
    BRIGHT_LOW = 255       # stroke intensity of the bright digits: binary strokes

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.data = workdir / "digits"
        self._sgd_reference: bytes | None = None
        self.init_loss: float | None = None

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 4])
        self.rbo_seed = int(rng.integers(0, 2**31 - 1))
        self.sgd_seed = int(rng.integers(0, 2**31 - 1))
        images, labels = synthetic_digits(self.seed, TRAIN_ROWS + TEST_ROWS)
        self.data.mkdir(parents=True, exist_ok=True)
        write_idx(self.data, "train", images[:TRAIN_ROWS], labels[:TRAIN_ROWS])
        write_idx(self.data, "t10k", images[TRAIN_ROWS:], labels[TRAIN_ROWS:])

    def initial_loss(self, rb) -> float:
        """Train loss of the freshly initialised network the sgd run starts from."""
        if self.init_loss is None:
            nn = rb.neural
            train, _ = nn.load_mnist(self.data)
            train, _ = train.split(self.SGD_SPLIT)
            spec = nn.MlpSpec()
            self.init_loss = nn.evaluate(spec, nn.init_params(spec, self.sgd_seed), train)[0]
        return self.init_loss

    def rep(self, rb, probe, index: int) -> Rep:
        rbo_out = self.workdir / f"rbo-{index}.csv"
        sgd_outs = [self.workdir / f"sgd-{index}-{k}.csv" for k in range(self.SGD_RUNS)]
        common = ["train", "--data-dir", str(self.data), "--epochs", "1"]
        t0 = time.perf_counter()
        rbo_code, rbo_err, rbo_s = call_cli(
            rb, common + ["--split", str(self.RBO_SPLIT), "--seed", str(self.rbo_seed),
                          "--out", str(rbo_out)])
        sgd = [call_cli(rb, common + ["--split", str(self.SGD_SPLIT), "--optimizer", "sgd",
                                      "--eta", "0.01", "--seed", str(self.sgd_seed),
                                      "--out", str(p)]) for p in sgd_outs]
        wall = time.perf_counter() - t0
        runs = probe.take()

        failures = []
        rbo_runs = [r for r in runs if r.optimizer == "rbo"]
        problem = check_curve(rbo_code, rbo_err, rbo_out)
        if problem is None and not rbo_runs:
            problem = "no rbo trajectory"
        for run in rbo_runs:
            problem = problem or trajectory_problem(run)
        if problem:
            failures.append(f"train rbo: {problem}")
        init = self.initial_loss(rb)
        sgd_loss = None
        for (code, err, _), path in zip(sgd, sgd_outs):
            problem, loss = check_sgd_curve(code, err, path, init, self._sgd_reference)
            if problem:
                failures.append(f"train sgd: {problem}")
            else:
                self._sgd_reference, sgd_loss = path.read_bytes(), loss
        return Rep(wall_s=wall, attempted=1 + self.SGD_RUNS, failures=failures, runs=runs,
                   op_seconds={"rbo_train": rbo_s,
                               **{f"sgd_train{k}": s[2] for k, s in enumerate(sgd)}},
                   outputs={"sgd_train_loss": sgd_loss})

    def derived_layers(self, rb) -> dict[str, float]:
        """Forward and backward time of one batch of 128 rows, derived:
        forward is neural.evaluate on the slice, backward is loss_and_grad
        on the same slice minus that forward, each a median of
        DERIVED_REPEATS calls. Plus the bright-stroke divergence share."""
        nn = rb.neural
        train, _ = nn.load_mnist(self.data)
        batch = train.subset(slice(0, 128))
        spec = nn.MlpSpec()
        params = nn.init_params(spec, self.sgd_seed)

        def median_s(fn) -> float:
            times = []
            for _ in range(self.DERIVED_REPEATS):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            return float(np.median(times))

        forward = median_s(lambda: nn.evaluate(spec, params, batch))
        both = median_s(lambda: nn.loss_and_grad(spec, params, batch.images, batch.labels))
        return {"neural.forward_s": forward, "neural.backward_s": both - forward,
                "optimizer.bright_diverged_share": self.bright_diverged_share(rb)}

    def bright_diverged_share(self, rb) -> float:
        """Share of BRIGHT_RUNS seeded rbo epochs (CLI defaults rho=1, eta=6,
        RBO_SPLIT rows, batch 128) on bright-stroke digits whose trajectory
        ends in an error. The projection diverges on some of them (ROADMAP
        item 1); the timed workload stays on dimmer strokes so that
        no timed operation fails. Deterministic for a given seed."""
        nn = rb.neural
        spec = nn.MlpSpec()
        diverged = 0
        for k in range(self.BRIGHT_RUNS):
            rng = np.random.default_rng([self.seed, 5, k])
            images, labels = synthetic_digits(int(rng.integers(0, 2**31 - 1)),
                                              self.RBO_SPLIT, self.BRIGHT_LOW)
            rows = nn.Dataset(images.reshape(self.RBO_SPLIT, 784) / 255.0, labels)
            params = nn.init_params(spec, int(rng.integers(0, 2**31 - 1)))
            traj = rb.optimizer.run_rbo(nn.as_landscape(spec, rows, 128), params, 1.0, 6.0,
                                        self.RBO_SPLIT // 128,
                                        seed=int(rng.integers(0, 2**31 - 1)))
            diverged += traj.error is not None
        return diverged / self.BRIGHT_RUNS


def check_curve(code: int, err: str, path: Path) -> str | None:
    """Exit 0 and a learning curve whose rows are all finite."""
    if code != 0:
        return f"exit {code}: {err}"
    rows = read_csv(path)
    cols = ("train_loss", "train_accuracy", "val_loss", "val_accuracy")
    if not rows or not all(finite(r.get(c)) for r in rows for c in cols):
        return f"learning curve {path.name}: missing or non-finite rows"
    return None


def check_sgd_curve(code: int, err: str, path: Path, init_loss: float,
                    reference: bytes | None) -> tuple[str | None, float | None]:
    """A finite learning curve whose final train loss is below the freshly
    initialised network's, identical to the earlier sgd runs of the same
    inputs. Returns (problem, final train loss)."""
    problem = check_curve(code, err, path)
    if problem:
        return problem, None
    loss = float(read_csv(path)[-1]["train_loss"])
    if not loss < init_loss:
        return f"sgd train loss {loss!r} not below initial {init_loss!r}", None
    if reference is not None and path.read_bytes() != reference:
        return "sgd learning curve differs from the first sgd run", None
    return None, loss


WORKLOADS = {w.name: w for w in (Ball1dWorkload, GeometryWorkload, MlpWorkload)}
