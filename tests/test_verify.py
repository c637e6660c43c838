"""Tests for the geometric claim checks.

Numeric expectations were frozen from brute-force pilot runs; tolerances
reflect how many digits those pilots printed, not the checks' own grids.
"""
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from rollball import verify
from rollball.landscape import quadratic, riemann, sinusoid
from rollball.optimizer import run_rbo
from rollball.serialize import check_report_to_dict, write_json
from rollball.verify import (CheckReport, Observation, available_checks,
                             check_gd_limit, check_linear_ironing,
                             check_open_unreachables, check_sharp_minima,
                             check_overrides, check_smoothing, check_weak_ironing,
                             run_check)


def by_parameter(report: CheckReport) -> dict:
    return {o.parameter: o for o in report.observations}


# ---------------------------------------------------------------------------
# weak ironing
# ---------------------------------------------------------------------------

class TestWeakIroning:
    def test_frozen_sinusoid_values(self):
        report = check_weak_ironing(sinusoid())
        assert report.name == "weak-ironing"
        assert report.passed
        obs = by_parameter(report)
        # pilot values at the default radii and grids
        assert obs["e(rho=10)"].value == pytest.approx(0.304084, rel=1e-5)
        assert obs["e(rho=100)"].value == pytest.approx(0.032734, rel=1e-5)
        assert obs["e(rho=1000)"].value == pytest.approx(0.00563002, rel=1e-5)
        assert obs["e(rho=1000)"].bound == 0.01
        assert obs["e(rho=100)-e(rho=10)"].value < 0
        assert obs["e(rho=1000)-e(rho=100)"].value < 0
        assert "declared value_sup" in report.notes

    def test_rate_bound(self):
        # sin attains its sup at pi/2, which sits at most A = 1 + pi/2 away
        # from any point of [-1, 1]; reaching over that gap costs the ball
        # at most A^2/rho of height, so e(rho) <= 2 A^2 / rho with a factor
        # two to spare. The measured e must respect it at every radius.
        report = check_weak_ironing(sinusoid())
        obs = by_parameter(report)
        a = 1.0 + math.pi / 2.0
        for rho in (10.0, 100.0, 1000.0):
            e = obs[f"e(rho={rho:g})"].value
            slack = obs[f"slack(rho={rho:g})"].value
            assert e <= 2.0 * a * a / rho + slack

    def test_lattice_max_reference(self):
        # no declared sup: the reference level comes from the widest lattice
        report = check_weak_ironing(riemann(5), radii=(10.0, 100.0), eps=1.0)
        assert "lattice max" in report.notes
        obs = by_parameter(report)
        assert math.isfinite(obs["e(rho=10)"].value)
        assert obs["e(rho=100)"].value < obs["e(rho=10)"].value

    def test_rejects_unbounded_landscape(self):
        with pytest.raises(ValueError, match="bounded"):
            check_weak_ironing(quadratic(np.array([[1.0]])))

    def test_rejects_non_increasing_radii(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            check_weak_ironing(sinusoid(), radii=(10.0, 10.0))


# ---------------------------------------------------------------------------
# linear ironing
# ---------------------------------------------------------------------------

class TestLinearIroning:
    def test_frozen_values(self):
        report = check_linear_ironing()
        assert report.passed
        obs = by_parameter(report)
        assert obs["hausdorff(rho=1)"].value == pytest.approx(1.94614, rel=1e-5)
        assert obs["hausdorff(rho=10)"].value == pytest.approx(1.05702, rel=1e-5)
        assert obs["hausdorff(rho=100)"].value == pytest.approx(0.0553502, rel=1e-5)
        assert obs["hausdorff(rho=100)"].bound == 0.1

    def test_zero_amplitude_is_exact(self):
        # amplitude 0 makes the bumped line the bare line; the two offset
        # graphs coincide sample for sample
        report = check_linear_ironing(amplitude=0.0, radii=(1.0,), eps=1e-12)
        assert report.passed
        obs = by_parameter(report)
        assert obs["hausdorff(rho=1)"].value == 0.0

    def test_rejects_bad_radii(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            check_linear_ironing(radii=(1.0, 1.0))


# ---------------------------------------------------------------------------
# sharp minima
# ---------------------------------------------------------------------------

class TestSharpMinima:
    def test_default_grid_flips_at_inverse_curvature(self):
        report = check_sharp_minima()
        assert report.passed
        assert len(report.observations) == 6
        for sigma in (1.0, 2.0, 4.0):
            crit = 1.0 / sigma
            obs = by_parameter(report)
            up = obs[f"unreachable(sigma={sigma:g},rho={1.2 * crit:g})"]
            down = obs[f"reachable(sigma={sigma:g},rho={0.8 * crit:g})"]
            assert up.value == 0.0 and up.ok
            assert down.value == 0.0 and down.ok
        assert "verdict=unreachable" in report.notes
        assert "verdict=reachable" in report.notes

    def test_margin_band_is_skipped(self):
        report = check_sharp_minima(sigmas=(4.0,), rhos=(0.26,))
        assert report.observations == ()
        assert "skipped" in report.notes

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            check_sharp_minima(sigmas=(0.0,))
        with pytest.raises(ValueError, match="margin"):
            check_sharp_minima(margin=1.5)
        with pytest.raises(ValueError, match="positive"):
            check_sharp_minima(sigmas=(1.0,), rhos=(-0.5,))
        # NaN passed both checks: a NaN sigma then failed as "A must be
        # symmetric", a NaN margin as a NaN rho
        with pytest.raises(ValueError, match="sigma values must be positive and finite"):
            check_sharp_minima(sigmas=(math.nan,))
        with pytest.raises(ValueError, match="margin must lie in"):
            check_sharp_minima(margin=math.nan)


# ---------------------------------------------------------------------------
# open unreachables
# ---------------------------------------------------------------------------

class TestOpenUnreachables:
    LANDSCAPE = quadratic(np.array([[4.0]]))

    def test_neighborhood_certified(self):
        report = check_open_unreachables(self.LANDSCAPE, 0.0, 0.5)
        assert report.passed
        assert len(report.observations) == 20
        assert all(o.bound == 0.0 for o in report.observations)
        assert all(o.value == 0.0 for o in report.observations)
        assert "base clearance" in report.notes

    def test_neighbors_beyond_clearance_are_informational(self):
        # base clearance at rho = 0.3 is about 4.2e-3, so k*delta exceeds it
        # from k = 5 on: those neighbors carry no bound
        report = check_open_unreachables(self.LANDSCAPE, 0.0, 0.3,
                                         delta=1e-3, k_max=10)
        binding = [o for o in report.observations if o.bound == 0.0]
        informational = [o for o in report.observations if o.bound is None]
        assert len(binding) == 8
        assert len(informational) == 12
        assert "informationally" in report.notes
        assert report.passed

    def test_reachable_base_raises(self):
        with pytest.raises(ValueError, match="is not unreachable at"):
            check_open_unreachables(self.LANDSCAPE, 0.0, 0.2)

    def test_indeterminate_base_skips(self):
        # rho = 0.266 leaves the vertex clearance inside the grid slack band
        report = check_open_unreachables(self.LANDSCAPE, 0.0, 0.266)
        assert report.observations == ()
        assert "indeterminate" in report.notes
        assert "skipped" in report.notes

    def test_validation(self):
        with pytest.raises(ValueError, match="delta"):
            check_open_unreachables(self.LANDSCAPE, 0.0, 0.5, delta=0.0)
        with pytest.raises(ValueError, match="delta"):
            check_open_unreachables(self.LANDSCAPE, 0.0, 0.5, k_max=0)


# ---------------------------------------------------------------------------
# gradient-descent limit
# ---------------------------------------------------------------------------

def exact_half_square_offset(x: float, rho: float) -> tuple[float, float]:
    """(phi, contact) of the exact upper offset of f = theta^2 / 2 over x, rho
    < 1: the contact t solves x = t - rho t / sqrt(1 + t^2), which increases
    with t, found by bisection, and phi = t^2 / 2 + rho / sqrt(1 + t^2)."""
    lo, hi = x - rho, x + rho
    for _ in range(100):
        t = (lo + hi) / 2
        lo, hi = (t, hi) if t - rho * t / math.hypot(1.0, t) < x else (lo, t)
    return t * t / 2 + rho / math.hypot(1.0, t), t


class TestGdLimit:
    def test_frozen_gaps(self):
        landscape = quadratic(np.array([[1.0]]))
        report = check_gd_limit(landscape, 1.0)
        assert report.passed
        obs = by_parameter(report)
        gd = 0.9 ** np.arange(51)
        for rho in (0.1, 0.01, 0.001, 0.0001):
            traj = run_rbo(landscape, np.array([1.0]), rho, 0.1, 50)
            h = rho / 100
            for r in traj.records:
                # the lattice offset is the maximum over a subset of the exact
                # one's candidates: below it by at most h^2 / rho at the nearest
                # lattice point, its contact a lattice neighbour of the exact one
                phi, t = exact_half_square_offset(float(r.center[0]), rho)
                assert -1e-12 <= phi - r.center[1] <= h * h / rho
                assert abs(r.theta[0] - t) <= h
            thetas = traj.thetas()[:, 0]  # held at the last record once settled
            thetas = np.append(thetas, np.full(51 - thetas.size, thetas[-1]))
            assert obs[f"gap(rho={rho:g})"].value == pytest.approx(
                float(np.max(np.abs(thetas - gd))), abs=1e-12)  # gd's rounding
        assert obs["gap(rho=0.0001)"].bound == 1e-2

    def test_diverged_reference_raises(self):
        with pytest.raises(ValueError, match="reference descent run diverged"):
            check_gd_limit(quadratic(np.array([[1.0]])), 1.0, eta=2.5, steps=80)

    def test_rejects_non_decreasing_rhos(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            check_gd_limit(quadratic(np.array([[1.0]])), 1.0, rhos=(1e-2, 1e-1))


# ---------------------------------------------------------------------------
# smoothing
# ---------------------------------------------------------------------------

class TestSmoothing:
    def test_frozen_minima_counts(self):
        report = check_smoothing()
        assert report.passed
        obs = by_parameter(report)
        assert obs["minima(rho=0.01)"].value == 160.0
        assert obs["minima(rho=0.1)"].value == 23.0
        assert obs["minima(rho=1)"].value == 4.0
        assert obs["minima(rho=10)"].value == 1.0
        assert obs["minima(raw landscape)"].value == 1112.0
        assert obs["minima(raw landscape)"].bound is None

    def test_rejects_non_increasing_rhos(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            check_smoothing(rhos=(1.0, 0.1))

    def test_reads_each_point_once_for_the_same_report(self, monkeypatch):
        # the profiles at rho 0.1, 1 and 10 and the raw count share the lattice
        # j * 1e-3: through the view f is read at 75,058 points, each once,
        # against 101,306 one profile at a time
        asked = []

        def counted(n_terms):
            ls = riemann(n_terms)
            return replace(ls, f_batch=lambda t: asked.append(t.reshape(-1)) or ls.f_batch(t))
        monkeypatch.setattr(verify, "riemann", counted)
        viewed = check_report_to_dict(check_smoothing())
        read, asked[:] = np.concatenate(asked), []
        monkeypatch.setattr(verify, "_lattice_view", lambda ls, h: ls)
        plain = check_report_to_dict(check_smoothing())
        asked = np.concatenate(asked)
        assert read.size == np.unique(asked.view(np.int64)).size < 0.75 * asked.size
        assert json.dumps(viewed) == json.dumps(plain)


# ---------------------------------------------------------------------------
# registry and serialization
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_available_checks(self):
        assert available_checks() == ("gd-limit", "linear-ironing",
                                      "open-unreachables", "sharp-minima",
                                      "smoothing", "weak-ironing")

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="available:"):
            run_check("does-not-exist")

    def test_defaults_and_overrides(self):
        report = run_check("sharp-minima", {"sigmas": [2.0]})
        assert report.name == "sharp-minima"
        assert report.passed
        assert len(report.observations) == 2

    def test_landscape_override(self):
        report = run_check("weak-ironing",
                           {"landscape": {"name": "sinusoid"},
                            "radii": [10.0, 100.0], "eps": 1.0})
        assert report.name == "weak-ironing"
        assert report.passed

    def test_gd_limit_runner_defaults(self):
        report = run_check("gd-limit", {"rhos": [1e-1, 1e-2]})
        assert report.passed

    def test_overrides_are_the_signature_keywords(self):
        assert check_overrides("gd-limit", {"sigma": 2.0, "rhos": [1e-1, 1e-2]}) == \
            {"sigma": 2.0, "rhos": (1e-1, 1e-2)}
        with pytest.raises(KeyError, match="'thetastep'"):
            run_check("smoothing", {"thetastep": 0.1})
        # a keyword no JSON value can stand for is not an override
        with pytest.raises(KeyError, match="'cfg'"):
            check_overrides("gd-limit", {"cfg": {}})
        # each check takes only its own runner's landscape keys
        with pytest.raises(KeyError, match="'sigma'"):
            check_overrides("weak-ironing", {"sigma": 1.0})

    def test_overrides_take_the_json_type_of_the_default(self):
        # an int stands for a float, a list for a tuple, anything for None
        assert check_overrides("smoothing", {"rhos": [1, 10.0], "lo": 0, "h": 1e-3}) == \
            {"rhos": (1, 10.0), "lo": 0, "h": 1e-3}
        assert check_overrides("gd-limit", {"landscape": {"name": "sinusoid"}, "steps": 3})
        for key, bad in [("n_terms", 5.0), ("n_terms", True), ("lo", "0"),
                         ("lo", False), ("rhos", [1.0, None]), ("rhos", "1")]:
            with pytest.raises(TypeError, match=f"'{key}'"):
                check_overrides("smoothing", {key: bad})


class TestReportSerialization:
    def test_nan_becomes_null(self, tmp_path):
        report = CheckReport(
            name="demo", passed=True,
            observations=(Observation("x", math.nan, None, True),
                          Observation("y", 1.5, 2.0, True)),
            notes="")
        d = check_report_to_dict(report)
        assert d["observations"][0]["value"] is None
        assert d["observations"][1]["value"] == 1.5
        path = tmp_path / "report.json"
        write_json(d, path)
        loaded = json.loads(path.read_text())
        assert loaded["name"] == "demo"
        assert loaded["observations"][0]["value"] is None

    def test_passed_reflects_observations(self):
        bad = Observation("v", 2.0, 1.0, False)
        report = CheckReport("demo", all(o.ok for o in (bad,)), (bad,), "")
        assert not report.passed
