"""Acceptance gate: one test per shipped claim, each printing a verdict line.

Every test measures the claim at its stated tolerance and prints exactly one
CRITERION line (visible under pytest -rA) before asserting, so a red run
still reports every measured number honestly.
"""
import json
import os
import time

import numpy as np
import pytest

from rollball import cli, neural
from rollball.geometry import is_unreachable, offset_profile
from rollball.landscape import eval_batch, quadratic, riemann, sinusoid
from rollball.optimizer import (ProjectionConfig, project_footpoint, run_gd,
                                run_rbo, run_sam, run_sgd)
from rollball.verify import (check_gd_limit, check_sharp_minima,
                             check_smoothing, check_weak_ironing)
from test_neural import seed_mnist_dir


def verdict(n: int, ok: bool, detail: str) -> bool:
    print(f"CRITERION {n} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def records_identical(a, b) -> bool:
    if len(a.records) != len(b.records):
        return False
    return all(ra.t == rb.t
               and np.array_equal(ra.theta, rb.theta)
               and ra.loss == rb.loss
               and np.array_equal(ra.center, rb.center)
               and ra.grad_norm == rb.grad_norm
               and ra.projection_iters == rb.projection_iters
               and ra.projection_residual == rb.projection_residual
               for ra, rb in zip(a.records, b.records))


def test_criterion_01_distance_invariant():
    # every recorded center sits exactly rho above its contact point
    rho = 1.0
    t0 = time.perf_counter()
    traj = run_rbo(riemann(100), [2.0], rho, 0.1, 500)
    elapsed = time.perf_counter() - t0
    assert traj.error is None
    drift = max(abs(float(np.linalg.norm(
        r.center - np.concatenate([r.theta, [r.loss]]))) - rho)
        for r in traj.records)
    ok = drift <= 1e-9 * rho and elapsed < 10.0
    assert verdict(1, ok, f"max |dist(center, contact) - rho| = {drift:.3e} "
                          f"<= 1e-9*rho over {len(traj.records)} records in {elapsed:.2f}s")


def test_criterion_02_gd_limit():
    t0 = time.perf_counter()
    report = check_gd_limit(quadratic(np.array([[1.0]])), 1.0, eta=0.1,
                            steps=50, rhos=(1e-1, 1e-2, 1e-3, 1e-4), eps=1e-2)
    elapsed = time.perf_counter() - t0
    gaps = {o.parameter: o.value for o in report.observations
            if o.parameter.startswith("gap(") and "-" not in o.parameter}
    ok = report.passed and elapsed < 5.0
    assert verdict(2, ok, "sup-norm gap to plain descent non-increasing, "
                          + ", ".join(f"{k} = {v:.3e}" for k, v in gaps.items())
                          + f", final < 1e-2, in {elapsed:.2f}s")


def test_criterion_03_weak_ironing():
    t0 = time.perf_counter()
    report = check_weak_ironing(sinusoid(), radii=(10.0, 100.0, 1000.0),
                                lo=-1.0, hi=1.0, h_over_rho=5e-4, eps=0.01)
    elapsed = time.perf_counter() - t0
    obs = {o.parameter: o.value for o in report.observations}
    # sup of sin sits at most a = 1 + pi/2 from any point of [-1, 1]
    a = 1.0 + np.pi / 2.0
    within_rate = all(obs[f"e(rho={rho:g})"]
                      <= 2.0 * a * a / rho + obs[f"slack(rho={rho:g})"]
                      for rho in (10.0, 100.0, 1000.0))
    ok = report.passed and within_rate and elapsed < 30.0
    assert verdict(3, ok, f"e(10) = {obs['e(rho=10)']:.4f}, "
                          f"e(100) = {obs['e(rho=100)']:.4f}, "
                          f"e(1000) = {obs['e(rho=1000)']:.5f} < 0.01, "
                          f"non-increasing, inside 2A^2/rho (A = 1 + pi/2), "
                          f"in {elapsed:.2f}s")


def test_criterion_04_sharp_minima():
    t0 = time.perf_counter()
    report = check_sharp_minima(sigmas=(1.0, 2.0, 4.0), grid_step=1e-4)
    elapsed = time.perf_counter() - t0
    ok = report.passed and len(report.observations) == 6 and elapsed < 60.0
    assert verdict(4, ok, "vertex of sigma*theta^2/2 unreachable at "
                          "rho = 1.2/sigma and reachable at rho = 0.8/sigma "
                          f"for sigma in (1, 2, 4), grid 1e-4, in {elapsed:.2f}s")


def test_criterion_05_openness():
    landscape = quadratic(np.array([[4.0]]))  # f = 2 theta^2
    t0 = time.perf_counter()
    verdicts = [is_unreachable(landscape, theta, 0.5, grid_step=1e-4).verdict
                for theta in np.linspace(-0.01, 0.01, 21)]
    elapsed = time.perf_counter() - t0
    ok = all(v == "unreachable" for v in verdicts) and elapsed < 30.0
    assert verdict(5, ok, f"{verdicts.count('unreachable')}/21 points of "
                          f"[-0.01, 0.01] unreachable at rho = 0.5 "
                          f"in {elapsed:.2f}s")


def test_criterion_06_smoothing():
    t0 = time.perf_counter()
    report = check_smoothing(n_terms=100, rhos=(0.01, 0.1, 1.0, 10.0))
    counts = {o.parameter: int(o.value) for o in report.observations
              if o.parameter.startswith("minima(rho") and "-" not in o.parameter}
    # the emitted offset samples must also flatten: peak-to-peak shrinks
    landscape = riemann(100)
    ptps = [float(np.ptp(offset_profile(landscape, rho, 0.0, 2.0 * np.pi,
                                        1e-3).values - rho))
            for rho in (0.01, 0.1, 1.0, 10.0)]
    elapsed = time.perf_counter() - t0
    flattening = all(b <= a for a, b in zip(ptps, ptps[1:]))
    ok = report.passed and flattening and elapsed < 60.0
    assert verdict(6, ok, f"local minima {counts} non-increasing; offset "
                          f"peak-to-peak {[round(p, 3) for p in ptps]} "
                          f"non-increasing; in {elapsed:.2f}s")


def test_criterion_07_projection_oracle_match():
    h = 1e-4
    grid = np.arange(int(-3 / h), int(3 / h) + 1) * h
    cfg = ProjectionConfig(max_iters=100)
    details = []
    ok = True
    for landscape in (quadratic(np.array([[2.0]])), riemann(5)):
        fg = eval_batch(landscape, grid)
        rng = np.random.default_rng(20260819)
        matches, ambiguous = 0, 0
        for _ in range(100):
            tt = rng.uniform(-2.0, 2.0)
            ty = landscape.forward(np.array([tt]))[0] + rng.uniform(0.1, 2.0)
            d2 = (grid - tt) ** 2 + (fg - ty) ** 2
            star = grid[np.argmin(d2)]
            foot, _, _ = project_footpoint(landscape, (tt, ty),
                                           np.array([star]), cfg)
            if abs(float(foot.theta[0]) - star) <= 2.0 * h:
                matches += 1
            else:
                # a legitimate miss must be a medial-axis tie: both stationary
                # points at the same distance from the candidate
                d_foot = float(np.hypot(float(foot.theta[0]) - tt,
                                        foot.y - ty))
                if abs(d_foot - float(np.sqrt(d2.min()))) <= 1e-6:
                    ambiguous += 1
        ok = ok and matches >= 95 and matches + ambiguous == 100
        details.append(f"{landscape.name}: {matches}/100 within 2h, "
                       f"{ambiguous} medial-axis ties")
    assert verdict(7, ok, "; ".join(details))


def _load_mnist_or_skip():
    if neural.find_mnist() is None:
        msg = ("CRITERION 8 SKIP: IDX digit data not present in this "
               "environment; place the four standard files in ./data or "
               "point RLB_DATA_DIR at them to run the benchmark")
        print(msg)
        pytest.skip(msg)
    return neural.load_mnist()


def test_criterion_08_reduced_benchmark():
    train_full, _ = _load_mnist_or_skip()
    train, val = train_full.split(50_000)
    train = train.subset(slice(0, 4096))
    spec = neural.MlpSpec()
    t0 = time.perf_counter()
    _, rbo_stats = neural.train_mlp(spec, train, val, optimizer="rbo",
                                    epochs=10, batch_size=128, eta=6.0,
                                    rho=1.0, seed=0)
    _, sgd_stats = neural.train_mlp(spec, train, val, optimizer="sgd",
                                    epochs=10, batch_size=128, eta=0.01,
                                    seed=0)
    elapsed = time.perf_counter() - t0
    rbo_acc = rbo_stats[-1].val_accuracy
    sgd_acc = sgd_stats[-1].val_accuracy
    ok = rbo_acc >= 0.88 and rbo_acc > sgd_acc and elapsed <= 300.0
    assert verdict(8, ok, f"4096-sample subset: rolling-ball val acc "
                          f"{rbo_acc:.4f} >= 0.88 and > sgd {sgd_acc:.4f} "
                          f"at the final epoch, in {elapsed:.1f}s")


def test_criterion_08_full_benchmark():
    if not os.environ.get("RLB_FULL_BENCH"):
        msg = ("CRITERION 8 (full) SKIP: hour-scale benchmark runs only "
               "with RLB_FULL_BENCH=1")
        print(msg)
        pytest.skip(msg)
    train_full, _ = _load_mnist_or_skip()
    train, val = train_full.split(50_000)
    spec = neural.MlpSpec()
    t0 = time.perf_counter()
    _, rbo_stats = neural.train_mlp(spec, train, val, optimizer="rbo",
                                    epochs=10, batch_size=128, eta=6.0,
                                    rho=1.0, seed=0)
    _, sgd_stats = neural.train_mlp(spec, train, val, optimizer="sgd",
                                    epochs=10, batch_size=128, eta=0.01,
                                    seed=0)
    elapsed = time.perf_counter() - t0
    rbo_final = rbo_stats[-1].val_accuracy
    beats = all(r.val_accuracy > s.val_accuracy
                for r, s in zip(rbo_stats[2:], sgd_stats[2:]))
    ok = rbo_final >= 0.95 and beats and elapsed <= 3600.0
    assert verdict(8, ok, f"full training set: rolling-ball val acc "
                          f"{rbo_final:.4f} >= 0.95, above sgd at every "
                          f"epoch >= 3: {beats}, in {elapsed:.0f}s")


def test_criterion_09_baseline_sanity():
    landscape = quadratic(np.array([[1.0]]))
    gd = run_gd(landscape, [1.0], 0.1, 50)
    closed_form_err = max(abs(float(r.theta[0]) - 0.9 ** r.t)
                          for r in gd.records)

    rough = riemann(100)
    sam_matches_gd = records_identical(run_sam(rough, [0.5], 0.05, 0.0, 40),
                                       run_gd(rough, [0.5], 0.05, 40))

    data = neural.Dataset(
        images=np.random.default_rng(0).uniform(size=(24, 6)),
        labels=np.random.default_rng(1).integers(0, 3, size=24))
    spec = neural.MlpSpec(inputs=6, hidden=(5,), outputs=3)
    full_batch = neural.as_landscape(spec, data)
    params = neural.init_params(spec, seed=0)
    sgd_matches_gd = records_identical(run_sgd(full_batch, params, 0.5, 10),
                                       run_gd(full_batch, params, 0.5, 10))

    ok = closed_form_err <= 1e-12 and sam_matches_gd and sgd_matches_gd
    assert verdict(9, ok, f"plain descent vs (1-eta)^t err {closed_form_err:.2e}"
                          f" <= 1e-12; zero-radius sharpness-aware == descent "
                          f"bitwise: {sam_matches_gd}; full-batch stochastic "
                          f"== descent bitwise: {sgd_matches_gd}")


def test_criterion_10_determinism(tmp_path, monkeypatch):
    monkeypatch.delenv("RLB_DATA_DIR", raising=False)
    monkeypatch.chdir(tmp_path)

    def run_twice(args_fn) -> bool:
        a, b = tmp_path / "rep_a", tmp_path / "rep_b"
        outs = []
        for d in (a, b):
            d.mkdir(exist_ok=True)
            assert cli.main(args_fn(d)) == 0
            files = sorted(p for p in d.rglob("*") if p.is_file())
            outs.append([(p.relative_to(d), p.read_bytes()) for p in files])
            for p in files:
                p.unlink()
        return outs[0] == outs[1]

    results = {}
    results["trajectory"] = run_twice(
        lambda d: ["trajectory", "--steps", "50", "--seed", "1",
                   "--out", str(d / "t.csv")])
    results["sweep serial"] = run_twice(
        lambda d: ["sweep", "--landscape", "quadratic", "--theta0", "1.0",
                   "--rho-min", "0.5", "--rho-max", "2.0", "--rho-count", "2",
                   "--eta-count", "3", "--steps", "10", "--seed", "7",
                   "--out", str(d / "s.csv")])
    results["verify"] = run_twice(
        lambda d: ["verify", "sharp-minima", "--out", str(d)])
    results["offset"] = run_twice(
        lambda d: ["offset", "--rho", "1.0", "--interval", "0:1",
                   "--grid-step", "0.01", "--out", str(d / "o.csv")])
    seed_mnist_dir(tmp_path / "digits")
    results["train"] = run_twice(
        lambda d: ["train", "--data-dir", str(tmp_path / "digits"),
                   "--split", "1", "--epochs", "1", "--batch-size", "1",
                   "--optimizer", "rbo", "--seed", "5",
                   "--out", str(d / "c.csv")])

    ok = all(results.values())
    assert verdict(10, ok, "byte-identical repeats: "
                   + ", ".join(f"{k}: {v}" for k, v in results.items()))
