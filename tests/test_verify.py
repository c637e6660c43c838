"""Tests for the geometric claim checks.

Numeric expectations were frozen from brute-force pilot runs; tolerances
reflect how many digits those pilots printed, not the checks' own grids.
"""
import json
import math

import numpy as np
import pytest

from rollball.landscape import quadratic, riemann, sinusoid
from rollball.serialize import check_report_to_dict, write_check_report_json
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

def exact_half_square_rbo(theta0: float, rho: float, eta: float,
                          steps: int) -> np.ndarray:
    """Rolling-ball thetas on f = theta^2 / 2 with exact foot points: the foot
    of a candidate (x, y) is the real root of theta^3 / 2 + (1 - y) theta - x
    = 0 closest to it."""
    thetas = [theta0]
    for _ in range(steps):
        th = thetas[-1]
        center = np.array([th, th * th / 2]) + rho * np.array([-th, 1.0]) / math.hypot(1.0, th)
        x, y = center - eta * np.array([th, th * th])
        roots = np.roots([0.5, 0.0, 1.0 - y, -x])
        real = roots[np.abs(roots.imag) < 1e-12].real
        thetas.append(float(real[np.argmin((real - x) ** 2 + (real * real / 2 - y) ** 2)]))
    return np.array(thetas)


class TestGdLimit:
    def test_frozen_gaps(self):
        report = check_gd_limit(quadratic(np.array([[1.0]])), 1.0)
        assert report.passed
        obs = by_parameter(report)
        gd = 0.9 ** np.arange(51)
        expected = {0.1: 0.0312850, 0.01: 0.0083795, 0.001: 0.0065709, 0.0001: 0.0063993}
        for rho, approx in expected.items():
            gap = float(np.max(np.abs(exact_half_square_rbo(1.0, rho, 0.1, 50) - gd)))
            assert gap == pytest.approx(approx, rel=1e-5)
            # each foot point is solved to 1e-8; the descent map contracts by
            # 0.9 per step, so the errors add up to at most 1e-8 / (1 - 0.9)
            assert obs[f"gap(rho={rho:g})"].value == pytest.approx(gap, abs=1e-7)
        assert obs["gap(rho=0.0001)"].bound == 1e-2

    def test_informational_mode_binds_nothing(self):
        report = check_gd_limit(quadratic(np.array([[1.0]])), 1.0,
                                rhos=(1e-1, 1e-2), informational=True)
        assert report.passed
        assert all(o.bound is None for o in report.observations)
        assert "informational" in report.notes

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
        write_check_report_json(report, path)
        loaded = json.loads(path.read_text())
        assert loaded["name"] == "demo"
        assert loaded["observations"][0]["value"] is None

    def test_passed_reflects_observations(self):
        bad = Observation("v", 2.0, 1.0, False)
        report = CheckReport("demo", all(o.ok for o in (bad,)), (bad,), "")
        assert not report.passed
