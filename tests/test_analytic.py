import math

import numpy as np
import pytest

from rydgate.analytic import (
    analytic_momentum_density,
    expansion_coefficients,
    vdw_expansion,
    vdw_phase_rate,
)
from rydgate.core import PhysicsError
from rydgate.numerics import MomentumMap, ellipse_metrics

from conftest import make_config


class TestPhaseRate:
    def test_inverse_sixth_power(self):
        assert vdw_phase_rate(np.array([2.0, 0, 0]), 64.0) == pytest.approx(1.0)
        assert vdw_phase_rate(np.array([1, 1, 1]), 27.0) == pytest.approx(1.0)

    def test_sign_carried(self):
        assert vdw_phase_rate(np.array([1.0, 0, 0]), -5.0) == -5.0

    def test_singular_origin(self):
        with pytest.raises(PhysicsError):
            vdw_phase_rate(np.zeros(3), 1.0)


class TestExpansion:
    def test_matches_exact_on_axis_to_second_order(self):
        d = 21.0
        for off in (0.05, 0.1, 0.2):
            exact = 1.0 / (d + off) ** 6
            approx = vdw_expansion(d, np.array([off, 0, 0]), np.zeros(3))
            assert approx == pytest.approx(exact, rel=5e-5)

    def test_cubic_leading_error(self):
        d = 21.0
        offs = np.array([0.01, 0.02, 0.03, 0.04]) * d
        errs = [
            abs(1 / (d + o) ** 6 - vdw_expansion(d, np.array([o, 0, 0]),
                                                 np.zeros(3)))
            for o in offs
        ]
        slope = np.polyfit(np.log(offs), np.log(errs), 1)[0]
        assert slope > 2.9

    def test_transverse_term_negative(self):
        d = 21.0
        flat = vdw_expansion(d, np.zeros(3), np.zeros(3))
        off = vdw_expansion(d, np.array([0, 0.5, 0]), np.zeros(3))
        assert off < flat
        assert flat - off == pytest.approx(3 * 0.25 / d**8)

    def test_relative_only(self):
        d = 21.0
        a = vdw_expansion(d, np.array([0.3, 0.2, -0.1]), np.zeros(3))
        b = vdw_expansion(d, np.array([1.3, 1.2, 0.9]), np.ones(3))
        assert a == pytest.approx(b, rel=1e-12)


class TestCoefficients:
    def test_working_point_anchors(self, paper_point):
        co = expansion_coefficients(paper_point)
        assert co.phase0 == pytest.approx(math.pi, rel=1e-12)
        assert co.k_D == pytest.approx(6 * math.pi / 21, rel=1e-12)
        assert co.S_par == pytest.approx(9 * math.pi / 21, rel=1e-12)
        assert co.S_perp == pytest.approx(3 * 64 * math.pi / 441, rel=1e-12)
        assert co.e_par**2 == pytest.approx(
            4 * co.S_par**2 / (1 + 4 * co.S_par**2), rel=1e-12)
        assert co.e_par**2 == pytest.approx(0.8788, abs=5e-4)

    def test_unequal_widths_use_mean_square(self):
        import dataclasses
        c = make_config(w_par=2.0)
        c2 = c.replace(profile2=dataclasses.replace(c.profile2, w_par=4.0))
        ref = make_config(w_par=math.sqrt((4 + 16) / 2))
        assert expansion_coefficients(c2).S_par == pytest.approx(
            expansion_coefficients(ref).S_par, rel=1e-12)

    def test_eccentricity_bounds(self):
        # 21 w_par^2 > 3 w_perp^2 here, so the parallel axis dominates
        co = expansion_coefficients(make_config(d=100, w_par=4, w_perp=8))
        assert 0 < co.e_perp < co.e_par < 1


class TestAnalyticDensity:
    def test_covariance_ellipse_matches_e_par(self):
        co = expansion_coefficients(make_config(d=45))
        K = np.linspace(-4, 4, 501)
        dens = analytic_momentum_density(K[:, None], K[None, :], "par", co, 3.0)
        dk = K[1] - K[0]
        mm = MomentumMap(density=dens / (dens.sum() * dk * dk), k1_axis=K, k2_axis=K)
        ecc, angle = ellipse_metrics(mm)
        assert ecc == pytest.approx(co.e_par, rel=1e-9)
        assert abs(angle) == pytest.approx(math.pi / 4, abs=1e-9)

    def test_peak_at_displaced_momenta(self):
        co = expansion_coefficients(make_config())
        at_kd = analytic_momentum_density(co.k_D, -co.k_D, "par", co, 3.0)
        assert at_kd == pytest.approx(1.0)
        assert analytic_momentum_density(0.0, 0.0, "par", co, 3.0) < at_kd

    def test_perp_axis_not_displaced(self):
        co = expansion_coefficients(make_config())
        assert analytic_momentum_density(0.0, 0.0, "perp", co, 8.0) == 1.0

    def test_unknown_axis(self):
        co = expansion_coefficients(make_config())
        with pytest.raises(ValueError):
            analytic_momentum_density(0.0, 0.0, "diag", co, 3.0)
