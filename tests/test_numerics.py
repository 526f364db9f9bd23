import dataclasses
import math
import re
import time
import warnings

import numpy as np
import pytest

from rydgate import numerics
from rydgate.core import (
    AccuracyWarning,
    Direct,
    OverlapError,
    PhysicsError,
    Swap,
    time_for_pi,
)
from rydgate.analytic import expansion_coefficients
from rydgate.numerics import (
    ORIGIN_MASS_LIMIT,
    JointAmplitudeGrid,
    MomentumMap,
    angular_distribution,
    apply_interaction_phase,
    build_joint_grid,
    ellipse_metrics,
    entanglement_entropy,
    fidelity_from_zeta,
    gate_metrics,
    momentum_centroid,
    momentum_map,
    origin_mass,
    phased_joint_grid,
    zeta,
    zeta_mc_oracle,
)
from rydgate.core import relative_distribution

from conftest import make_config


class TestJointGrid:
    def test_normalized(self, paper_point):
        assert build_joint_grid(paper_point).norm() == pytest.approx(1.0, rel=1e-9)

    def test_axis_extent_tracks_density_std(self, paper_point):
        g = build_joint_grid(paper_point)
        assert g.x1_axis.max() == pytest.approx(5.0 * 1.5, rel=0.02)


class TestInteractionPhase:
    def test_norm_preserving(self, paper_point):
        g = phased_joint_grid(paper_point)
        assert g.norm() == pytest.approx(1.0, rel=1e-9)

    def test_zero_time_identity(self, paper_point):
        c = paper_point.replace(t_int=0.0)
        g0 = build_joint_grid(c)
        g = apply_interaction_phase(g0, c)
        assert np.allclose(g.values, g0.values)

    def test_grid_crossing_singularity_rejected(self):
        # widths so large the parallel slice reaches the partner cloud
        c = make_config(d=21, w_par=8, w_perp=8)
        with pytest.raises(OverlapError):
            phased_joint_grid(c)

    def test_swap_is_two_half_phases(self, paper_point):
        half = paper_point.replace(t_int=2.5)
        g0 = build_joint_grid(paper_point)
        first = apply_interaction_phase(g0, half)
        swapped = apply_interaction_phase(
            g0, paper_point.replace(protocol=Swap()))
        # the first half of the swap phase equals the direct half-time phase
        ratio = swapped.values / first.values
        assert np.allclose(np.abs(ratio), 1.0)

    @staticmethod
    def full_phase(grid, config):
        """The phased slice with the pair phase evaluated at every point."""
        d = config.separation_mag
        x = d + (grid.x1_axis[:, None] - grid.x2_axis[None, :])
        phase = numerics._pair_phase(config.c6 * config.t_int,
                                     isinstance(config.protocol, Swap), x, 0.0,
                                     2.0 * d, 0.0)
        return grid.values * np.exp(-1j * phase)

    @pytest.mark.parametrize("protocol", [Direct(), Swap()])
    @pytest.mark.parametrize("d, w_par", [(21.0, 3.0), (21.0, 2.7), (18.18, 2.374)])
    def test_diagonal_phase_matches_full_evaluation(self, monkeypatch, protocol,
                                                    d, w_par):
        c = make_config(d=d, w_par=w_par, protocol=protocol)
        g0 = build_joint_grid(c)
        sizes = []

        def spy(ct, swap, x, *args):
            sizes.append(np.size(x))
            return pair_phase(ct, swap, x, *args)

        pair_phase = numerics._pair_phase
        monkeypatch.setattr(numerics, "_pair_phase", spy)
        got = apply_interaction_phase(g0, c).values
        n = c.grid.points_per_axis
        assert sizes == [2 * n - 1]
        want = self.full_phase(g0, c)
        if w_par == 3.0:
            # the spacing 15/256 is exact in binary, and so is every offset
            assert np.array_equal(got, want)
        else:
            # a diagonal's offset, taken from the first row or column, may
            # differ from x1_a - x2_b by an ulp (2.374: 8% of the points,
            # by up to 6e-15 of the peak amplitude)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(g0.values))

    @pytest.mark.parametrize("protocol", [Direct(), Swap()])
    def test_unequal_widths_evaluate_every_point(self, paper_point, protocol):
        c = paper_point.replace(
            protocol=protocol,
            profile2=dataclasses.replace(paper_point.profile2, w_par=4.0))
        g0 = build_joint_grid(c)
        assert np.array_equal(apply_interaction_phase(g0, c).values,
                              self.full_phase(g0, c))


class TestZeta:
    def test_no_interaction_is_unity(self, paper_point):
        assert zeta(paper_point.replace(t_int=0.0)) == 1.0 + 0.0j
        assert zeta(paper_point.replace(c6=0.0)) == 1.0 + 0.0j

    def test_magnitude_bounded(self, paper_point):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            z = zeta(paper_point)
        assert abs(z) <= 1.0 + 1e-9

    def test_matches_mc_oracle_tame(self):
        c = make_config(d=42, w_par=3, w_perp=6)
        z = zeta(c, check=True)
        zm, se = zeta_mc_oracle(c, n_samples=500_000, seed=3)
        assert abs(z.real - zm.real) < 3 * se.real
        assert abs(z.imag - zm.imag) < 3 * se.imag

    def test_accuracy_warning_in_strong_phase_regime(self, paper_point):
        # the paper point is converged at the default level; the lowest
        # level is not, and doubling it must say so
        with warnings.catch_warnings():
            warnings.simplefilter("error", AccuracyWarning)
            zeta(paper_point)
        with pytest.warns(AccuracyWarning):
            zeta(paper_point, nodes=8, check=True)

    @pytest.mark.parametrize("protocol, eps, label", [
        (Direct(), (0.0, 0.0), "(direct protocol)"),
        (Swap(), (0.0, 0.0), "(swap protocol)"),
        (Swap(), (1.0, 0.0), "(swap protocol, eps_par = 1 um)"),
        (Swap(), (0.0, -0.5), "(swap protocol, eps_perp = -0.5 um)"),
    ])
    def test_accuracy_warning_names_point(self, paper_point, protocol, eps, label):
        with pytest.warns(AccuracyWarning, match=re.escape(label)):
            zeta(paper_point.replace(protocol=protocol), eps_par=eps[0],
                 eps_perp=eps[1], nodes=8)

    @pytest.mark.parametrize("protocol, expected", [
        (Direct(), 0.10439748335735786 - 0.480242218880991j),
        (Swap(), -0.20233417599050163 - 0.4425912129511387j),
    ])
    def test_close_separation_matches_reference(self, protocol, expected):
        # d = 15 um is 7.1 std along the separation, the closest point of
        # the default separation sweep.  The literals are
        # bench/reference.py's zeta_ref_converged for this configuration,
        # which self-converges to 3.5e-11 (direct) and 2.0e-11 (swap).
        c6 = make_config().c6
        c = make_config(d=15.0, c6=c6, t=time_for_pi(15.0, c6), protocol=protocol)
        assert abs(zeta(c) - expected) <= 2e-9

    @pytest.mark.parametrize("protocol", [Direct(), Swap()])
    def test_negative_c6_conjugates(self, paper_point, protocol):
        c = paper_point.replace(protocol=protocol)
        assert zeta(c.replace(c6=-c.c6)) == zeta(c).conjugate()

    @pytest.mark.parametrize("protocol", [Direct(), Swap()])
    def test_headline_converged(self, paper_point, protocol):
        c = paper_point.replace(protocol=protocol)
        with warnings.catch_warnings():
            warnings.simplefilter("error", AccuracyWarning)
            z = zeta(c)
        assert abs(z - zeta(c, nodes=256, check=False)) <= 1e-9

    @pytest.mark.parametrize("eps", [(1.0, 0.0), (0.0, 1.0), (-0.6, 0.8)])
    def test_swap_error_matches_mc_oracle(self, paper_point, eps):
        c = paper_point.replace(protocol=Swap())
        z = zeta(c, eps_par=eps[0], eps_perp=eps[1])
        zm, se = zeta_mc_oracle(c, n_samples=1_000_000, seed=17,
                                eps_par=eps[0], eps_perp=eps[1])
        assert abs(z.real - zm.real) < 4 * se.real
        assert abs(z.imag - zm.imag) < 4 * se.imag

    def test_small_transverse_error_converges_to_none(self, paper_point):
        c = paper_point.replace(protocol=Swap())
        # zeta is even in eps_perp, so it moves by O(eps_perp^2) ~ 1e-12
        assert abs(zeta(c, eps_perp=1e-5) - zeta(c)) < 1e-10

    def test_near_singularity_stays_fast(self):
        # criterion 8's widest point: d / std = 7 along the separation, so
        # the axial range reaches both singularities, where the path leaves
        # the real axis
        c = make_config(d=40, w_par=8, w_perp=8, protocol=Swap(), ext=4.0)
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", AccuracyWarning)
                zeta(c)
            best = min(best, time.perf_counter() - start)
        assert best < 0.1

    @pytest.mark.parametrize("nodes", [64, 128])
    @pytest.mark.parametrize("protocol, eps", [
        (Direct(), {}), (Swap(), {}), (Swap(), {"eps_par": 0.5}),
        (Swap(), {"eps_perp": 0.5})])
    @pytest.mark.parametrize("d", [15.0, 21.0, 30.0])
    def test_chunk_bound_leaves_result_unchanged(self, monkeypatch, d, protocol,
                                                 eps, nodes):
        c = make_config(d=d, protocol=protocol)
        results = set()
        for bound in (2**17, 2**14, 2**12):
            monkeypatch.setattr(numerics, "CHUNK_ELEMENTS", bound)
            results.add(zeta(c, nodes=nodes, check=False, **eps))
        assert len(results) == 1

    def test_level_out_of_range(self, paper_point):
        for nodes in (4, 512):
            with pytest.raises(ValueError):
                zeta(paper_point, nodes=nodes, check=False)

    def test_strong_phase_at_mean_averages_out(self, paper_point):
        # pi rad in 5 us, so 3e4 rad at the mean separation in 5e4 us
        z = zeta(paper_point.replace(t_int=5e4))
        assert math.isfinite(abs(z)) and abs(z) <= 1e-6

    def test_swapped_singularity_before_mean_rejected(self, paper_point):
        with pytest.raises(PhysicsError):
            zeta(paper_point.replace(protocol=Swap()), eps_par=21.0)

    def test_overlapping_clouds_rejected(self):
        with pytest.raises(OverlapError):
            zeta(make_config(d=4, w_par=3, w_perp=3))

    def test_error_only_for_swap(self, paper_point):
        with pytest.raises(PhysicsError):
            zeta(paper_point, eps_par=1.0)

    def test_mc_deterministic(self, paper_point):
        a, _ = zeta_mc_oracle(paper_point, n_samples=10_000, seed=9)
        b, _ = zeta_mc_oracle(paper_point, n_samples=10_000, seed=9)
        assert a == b

    def test_origin_mass_guard_values(self, paper_point):
        rel = relative_distribution(paper_point.profile1,
                                    paper_point.profile2,
                                    paper_point.separation)
        assert origin_mass(rel, 2.1) < 1e-12
        tight = relative_distribution(
            make_config(d=4, w_par=3, w_perp=3).profile1,
            make_config(d=4, w_par=3, w_perp=3).profile2,
            np.array([4.0, 0, 0]))
        assert origin_mass(tight, 0.4) > 1e-6

    @pytest.mark.parametrize("d, w_par, w_perp, rejected", [
        (21, 8.0, 8, True), (21, 7.0, 8, True), (21, 6.5, 8, False),
        (21, 6.0, 8, False), (4, 3.0, 3, True)])
    def test_origin_mass_matches_spherical_quadrature(self, d, w_par, w_perp,
                                                      rejected):
        # independent estimate: Gauss-Legendre in the radius and in cos(theta)
        # about the separation axis, over the 3D density itself
        c = make_config(d=d, w_par=w_par, w_perp=w_perp)
        rel = relative_distribution(c.profile1, c.profile2, c.separation)
        radius = d / 10.0
        s, sp = rel.std[0], rel.std[1]
        u, w = np.polynomial.legendre.leggauss(200)
        r = 0.5 * radius * (u + 1.0)
        rr, mu = np.meshgrid(r, u, indexing="ij")
        density = np.exp(-(rr * mu - d) ** 2 / (2 * s * s)
                         - rr * rr * (1.0 - mu * mu) / (2 * sp * sp)) \
            / ((2 * math.pi) ** 1.5 * s * sp * sp)
        expected = math.pi * radius * ((w * r * r) @ density @ w)
        mass = origin_mass(rel, radius)
        assert mass == pytest.approx(expected, rel=1e-9)
        assert (mass >= ORIGIN_MASS_LIMIT) == rejected
        if rejected:
            with pytest.raises(OverlapError, match="singularity"):
                zeta(c, check=False)
        else:
            zeta(c, check=False)


class TestFidelity:
    def test_endpoints(self):
        assert fidelity_from_zeta(-1 + 0j) == pytest.approx(1.0, abs=1e-12)
        assert fidelity_from_zeta(1 + 0j) == pytest.approx(0.5, abs=1e-12)
        assert fidelity_from_zeta(0j) == pytest.approx(0.75, abs=1e-12)

    def test_invalid_magnitude(self):
        with pytest.raises(PhysicsError):
            fidelity_from_zeta(1.2 + 0j)


class TestMomentumMap:
    def test_normalized(self, paper_point):
        mm = momentum_map(phased_joint_grid(paper_point))
        dk1, dk2 = mm.spacing
        assert mm.density.sum() * dk1 * dk2 == pytest.approx(1.0, rel=1e-9)

    def test_plane_wave_shift_convention(self, paper_point):
        # multiplying by exp(+i k0 x) must move the density to K = +k0
        g = build_joint_grid(paper_point)

        def ramp(k0):
            return momentum_map(JointAmplitudeGrid(
                values=g.values * np.exp(1j * k0 * g.x1_axis)[:, None],
                x1_axis=g.x1_axis, x2_axis=g.x2_axis))

        k0 = 1.3
        c1, c2 = momentum_centroid(ramp(k0), method="mean")
        assert c1 == pytest.approx(k0, abs=1e-6)
        assert c2 == pytest.approx(0.0, abs=1e-6)
        # a ramp inside one momentum bin: the median is not bin-limited
        k0 = 0.3 * momentum_map(g).spacing[0]
        c1, c2 = momentum_centroid(ramp(k0))
        assert c1 == pytest.approx(k0, rel=1e-3)
        assert c2 == pytest.approx(0.0, abs=1e-6)

    def test_median_independent_of_momentum_bin(self, paper_point):
        # zero-padding the slice halves dk but leaves the sampled amplitude's
        # transform, and so its exact median, unchanged
        g = phased_joint_grid(paper_point)
        n = g.values.shape[0]
        values = np.zeros((2 * n, 2 * n), dtype=complex)
        values[:n, :n] = g.values
        x = g.x1_axis[0] + np.arange(2 * n) * g.spacing[0]
        padded = JointAmplitudeGrid(values=values, x1_axis=x, x2_axis=x)
        coarse = momentum_centroid(momentum_map(g))
        fine = momentum_centroid(momentum_map(padded))
        assert fine == pytest.approx(coarse, abs=1e-9)

    def test_interaction_displaces_opposite(self, paper_point):
        mm = momentum_map(phased_joint_grid(paper_point))
        c1, c2 = momentum_centroid(mm)
        assert c1 > 0 > c2
        # symmetric up to the grid's extra sample at -n/2 (exact on 2m+1 points)
        assert c1 == pytest.approx(-c2, rel=1e-4)

    def test_median_robust_against_mean(self, paper_point):
        mm = momentum_map(phased_joint_grid(paper_point))
        med, _ = momentum_centroid(mm)
        mean, _ = momentum_centroid(mm, method="mean")
        kD = expansion_coefficients(paper_point).k_D
        # the first moment is the exact mean phase gradient 6 c6 t <(d+r)^-7>,
        # which the steep growth at small pair distance lifts well above kD
        assert abs(med - kD) < abs(mean - kD)

    @staticmethod
    def _padded_median(rows, dk):
        """Median from the marginal of the rows' 2n-point zero-padded power."""
        n = rows.shape[1]
        power = (np.abs(np.fft.fft(rows, n=2 * n, axis=1)) ** 2).sum(axis=0)
        R = np.fft.ifft(power)[:n]
        m = np.arange(1, n)
        c = 1j * R[1:] / (m * R[0].real)
        edge = np.sum(c * np.where(m % 2, -1.0, 1.0)).real

        def cdf(u):
            return (u + math.pi) / (2 * math.pi) + (
                np.sum(c * np.exp(-1j * m * u)).real - edge) / math.pi

        def pdf(u):
            return (1 + 2 * np.sum(R[1:] * np.exp(-1j * m * u)).real
                    / R[0].real) / (2 * math.pi)

        u = -math.pi + math.pi * (np.searchsorted(
            [cdf(-math.pi + math.pi * q / n) for q in range(2 * n)], 0.5)
            - 0.5) / n
        for _ in range(20):
            u -= (cdf(u) - 0.5) / pdf(u)
        return u * n * dk / (2 * math.pi)

    @pytest.mark.parametrize("slice_", ["headline", "unequal", "coarse"])
    def test_median_matches_zero_padded_construction(self, paper_point, slice_):
        c = {"headline": paper_point,
             "unequal": paper_point.replace(profile2=dataclasses.replace(
                 paper_point.profile2, w_par=4.0)),
             "coarse": make_config(n=32)}[slice_]
        mm = momentum_map(phased_joint_grid(c))
        dk1, dk2 = mm.spacing
        expected = (self._padded_median(mm.amplitude.T, dk1),
                    self._padded_median(mm.amplitude, dk2))
        assert momentum_centroid(mm) == pytest.approx(expected, rel=0, abs=1e-14)

    def test_median_independent_of_chunk_bound(self, paper_point, monkeypatch):
        mm = momentum_map(phased_joint_grid(paper_point))
        medians = set()
        for bound in (2**17, 2**14, 2**10):
            monkeypatch.setattr(numerics, "CHUNK_ELEMENTS", bound)
            medians.add(momentum_centroid(mm))
        assert len(medians) == 1

    def test_median_needs_amplitude(self, paper_point):
        mm = momentum_map(build_joint_grid(paper_point))
        bare = MomentumMap(density=mm.density, k1_axis=mm.k1_axis, k2_axis=mm.k2_axis)
        with pytest.raises(ValueError):
            momentum_centroid(bare)
        assert momentum_centroid(bare, method="mean") == \
            momentum_centroid(mm, method="mean")

    def test_unknown_method(self, paper_point):
        mm = momentum_map(build_joint_grid(paper_point))
        with pytest.raises(ValueError):
            momentum_centroid(mm, method="mode")


class TestEllipse:
    def test_circular_map_returns_zero(self, paper_point):
        mm = momentum_map(build_joint_grid(make_config(w_par=3, w_perp=3)))
        # the moments' rounding leaves e ~ 1e-8, below the circular cut
        assert ellipse_metrics(mm) == (0.0, 0.0)

    def test_antidiagonal_elongation(self):
        c = make_config(d=45)
        ecc, angle = ellipse_metrics(momentum_map(phased_joint_grid(c)))
        assert 0 < ecc < 1
        assert abs(angle) == pytest.approx(math.pi / 4, abs=math.radians(0.1))


class TestEntropy:
    def test_product_state_zero(self, paper_point):
        assert entanglement_entropy(
            build_joint_grid(paper_point)) == pytest.approx(0.0, abs=1e-10)

    def test_bell_like_matrix(self):
        g = JointAmplitudeGrid(values=np.eye(2, dtype=complex),
                               x1_axis=np.array([0.0, 1.0]),
                               x2_axis=np.array([0.0, 1.0]))
        assert entanglement_entropy(g) == pytest.approx(math.log(2), rel=1e-12)

    def test_matches_reduced_density_eigenvalues(self, paper_point):
        g = phased_joint_grid(paper_point)
        d1, d2 = g.spacing
        m = g.values * math.sqrt(d1 * d2)
        rho = m @ m.conj().T
        lam = np.linalg.eigvalsh(rho)
        lam = lam[lam > 1e-14]
        lam = lam / lam.sum()
        oracle = float(-np.sum(lam * np.log(lam)))
        assert entanglement_entropy(g) == pytest.approx(oracle, abs=1e-9)

    def test_grows_with_interaction_time(self, paper_point):
        values = [
            entanglement_entropy(
                phased_joint_grid(paper_point.replace(t_int=t)))
            for t in (1.0, 2.0, 3.0, 4.0, 5.0)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_swap_keeps_entanglement_in_expansion_regime(self):
        direct = make_config(d=60, w_par=2, w_perp=4)
        eD = entanglement_entropy(phased_joint_grid(direct))
        eS = entanglement_entropy(
            phased_joint_grid(direct.replace(protocol=Swap())))
        assert abs(eD - eS) < 1e-3
        assert eD > 0


class TestSwapErrorAverage:
    def test_requires_swap(self, paper_point):
        from rydgate.numerics import swap_error_average_fidelity
        with pytest.raises(PhysicsError):
            swap_error_average_fidelity(paper_point, "par", 1.0)

    def test_zero_sigma_deterministic(self, paper_point):
        from rydgate.numerics import swap_error_average_fidelity
        c = paper_point.replace(protocol=Swap())
        mean, std = swap_error_average_fidelity(c, "par", 0.0, seed=1)
        assert std == 0.0
        # zero sigma uses the quadrature level of the sampled errors, so the
        # small-sigma limit meets it
        tiny, _ = swap_error_average_fidelity(c, "par", 1e-12, n_samples=2, seed=1)
        assert mean == pytest.approx(tiny, abs=1e-12)

    def test_zero_sigma_matches_zeta(self, paper_point):
        from rydgate.numerics import swap_error_average_fidelity
        c = paper_point.replace(protocol=Swap())
        mean, _ = swap_error_average_fidelity(c, "par", 0.0)
        assert mean == pytest.approx(fidelity_from_zeta(zeta(c)), abs=1e-5)

    def test_no_interaction(self, paper_point):
        from rydgate.numerics import swap_error_average_fidelity
        c = paper_point.replace(protocol=Swap(), t_int=0.0)
        assert swap_error_average_fidelity(c, "perp", 0.5, n_samples=4) == (0.5, 0.0)

    def test_seeded_reproducible(self, paper_point):
        from rydgate.numerics import swap_error_average_fidelity
        c = paper_point.replace(protocol=Swap())
        a = swap_error_average_fidelity(c, "par", 0.5, n_samples=20, seed=4)
        b = swap_error_average_fidelity(c, "par", 0.5, n_samples=20, seed=4)
        assert a == b


class TestAngular:
    def test_histograms_normalized_and_sized(self, paper_point):
        dist = angular_distribution(paper_point, axis_resolution=51)
        assert dist.angles.shape == (51,)
        for h in (dist.before_1, dist.before_2, dist.after_1, dist.after_2):
            assert h.sum() == pytest.approx(1.0, rel=1e-9)

    def test_interaction_tilts_beams_apart(self, paper_point):
        dist = angular_distribution(paper_point)
        t1 = float((dist.after_1 * dist.angles).sum())
        t2 = float((dist.after_2 * dist.angles).sum())
        b1 = float((dist.before_1 * dist.angles).sum())
        assert abs(b1) < 1e-6
        assert t1 > 0 > t2

    def test_requires_central_wavevector(self, paper_point):
        import dataclasses
        c = paper_point.replace(profile1=dataclasses.replace(
            paper_point.profile1, k0=(0, 0, 0)))
        with pytest.raises(PhysicsError):
            angular_distribution(c)


class TestGateMetrics:
    def test_bundle_consistent(self):
        c = make_config(d=42, w_par=3, w_perp=6)
        m = gate_metrics(c)
        assert m.fidelity == pytest.approx(fidelity_from_zeta(m.zeta))
        assert m.entropy > 0
        assert 0 <= m.eccentricity < 1
        assert m.k_centroid_1 > 0 > m.k_centroid_2
