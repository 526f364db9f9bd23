"""Acceptance gate: one test per release criterion, one report line each.

Each test prints ``criterion NN: PASS|FAIL - detail`` before asserting, so
the full report is visible in the captured output of a verbose run.
Tolerances and sweep parameters are frozen; they were fixed against
independent oracles (closed forms, Monte Carlo, dense eigendecompositions)
before the implementation was finalized.
"""

import math
import warnings

import numpy as np

from rydgate.core import Direct, Swap, time_for_pi
from rydgate.analytic import expansion_coefficients, vdw_expansion
from rydgate.loss import (
    lifetime_efficiency,
    pair_efficiency,
    thermal_efficiency,
    uniform_loss_balancer,
)
from rydgate.numerics import (
    JointAmplitudeGrid,
    apply_interaction_phase,
    build_joint_grid,
    ellipse_metrics,
    entanglement_entropy,
    fidelity_from_zeta,
    momentum_centroid,
    momentum_map,
    phased_joint_grid,
    swap_error_average_fidelity,
    zeta,
    zeta_mc_oracle,
)
from rydgate.harness import ExperimentSpec, run_experiment

from conftest import make_config


def report(capsys, num, ok, detail):
    """Emit the criterion line outside pytest's capture, then assert."""
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_01_fidelity_endpoints(capsys):
    errs = [
        abs(fidelity_from_zeta(-1 + 0j) - 1.0),
        abs(fidelity_from_zeta(1 + 0j) - 0.5),
        abs(fidelity_from_zeta(0j) - 0.75),
    ]
    report(capsys, 1, max(errs) < 1e-12,
           f"F(-1)/F(+1)/F(0) endpoint errors {max(errs):.2e}")


def test_criterion_02_quadrature_vs_monte_carlo(capsys):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(20):
        c = make_config(
            d=rng.uniform(35, 60),
            w_par=rng.uniform(1, 3),
            w_perp=rng.uniform(1, 6),
            phase=rng.uniform(0.3, math.pi),
            protocol=Swap() if rng.random() < 0.5 else Direct(),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            zq = zeta(c, nodes=64, check=True)
        zm, se = zeta_mc_oracle(c, n_samples=1_000_000, seed=1000 + i)
        worst = max(worst, abs(zq.real - zm.real) / se.real,
                    abs(zq.imag - zm.imag) / se.imag)
    report(capsys, 2, worst < 3.0,
           f"20 randomized configs, worst quadrature-MC gap {worst:.2f} SE")


def test_criterion_03_momentum_displacement(capsys):
    # The first-order displacement +-kD is promised only for clouds narrow
    # against their separation.  At the headline point (S_par = 1.35) the
    # exact phase moves the median above kD; that deviation is reported,
    # not asserted.
    c = make_config(n=512)
    kD = expansion_coefficients(c).k_D
    d, ct = c.separation_mag, c.c6 * c.t_int
    plain = build_joint_grid(c)
    exact = momentum_map(apply_interaction_phase(plain, c))

    def worst(pair, ref):
        return max(abs(pair[0] / ref - 1), abs(-pair[1] / ref - 1))

    # (a) the first moment is the mean phase gradient 6 c6 t <(d + r)^-7>,
    # r ~ N(0, (w1^2 + w2^2) / 4); 20 Gauss-Hermite nodes stay within |r| < d
    sigma_r = math.hypot(c.profile1.w_par, c.profile2.w_par) / 2
    t, w = np.polynomial.hermite.hermgauss(20)
    mean_ref = 6 * ct * float(
        np.sum(w * (d + math.sqrt(2) * sigma_r * t) ** -7)) / math.sqrt(math.pi)
    rel_a = worst(momentum_centroid(exact, method="mean"), mean_ref)

    # (b) the second-order phase displaces the same slice by +-kD
    r = plain.x1_axis[:, None] - plain.x2_axis[None, :]
    second = JointAmplitudeGrid(
        values=plain.values * np.exp(
            -1j * ct * (1 / d**6 - 6 * r / d**7 + 21 * r * r / d**8)),
        x1_axis=plain.x1_axis, x2_axis=plain.x2_axis)
    rel_b = worst(momentum_centroid(momentum_map(second)), kD)

    # (c) the exact phase displaces narrow, distant clouds (S_par = 0.010) by +-kD
    far = make_config(d=80, w_par=1.0, n=512)
    rel_c = worst(momentum_centroid(momentum_map(phased_joint_grid(far))),
                  expansion_coefficients(far).k_D)

    h1, h2 = momentum_centroid(exact)
    ok = rel_a < 0.02 and rel_b < 0.02 and rel_c < 0.02
    report(capsys, 3, ok,
           f"first moment vs 6 c6 t <(d+r)^-7> {rel_a * 100:.3f}%, "
           f"second-order phase vs kD {rel_b * 100:.4f}%, exact phase at "
           f"d=80 w_par=1 vs kD {rel_c * 100:.2f}%; headline exact median "
           f"({h1:.4f}, {h2:.4f}) is {worst((h1, h2), kD) * 100:+.1f}% from "
           f"+-kD = {kD:.4f}")


def test_criterion_04_swap_compensation(capsys):
    c = make_config(n=512, protocol=Swap())
    kD = expansion_coefficients(c).k_D
    s1, s2 = momentum_centroid(momentum_map(phased_joint_grid(c)))
    frac = math.hypot(s1, s2) / kD
    report(capsys, 4, frac < 0.01, f"post-swap centroid = {frac * 100:.3f}% of kD")


def test_criterion_05_ellipse_structure(capsys):
    worst_ecc, worst_ang = 0.0, 0.0
    for S in (0.05, 0.15, 0.3):
        d, w = 80.0, 1.0
        c = make_config(d=d, w_par=w, w_perp=4.0,
                        c6=S * d**8 / (21 * w * w), t=1.0, n=512)
        co = expansion_coefficients(c)
        ecc, ang = ellipse_metrics(momentum_map(phased_joint_grid(c)))
        worst_ecc = max(worst_ecc, abs(ecc / co.e_par - 1))
        worst_ang = max(worst_ang, abs(abs(math.degrees(ang)) - 45.0))
    co = expansion_coefficients(make_config(d=100))
    ratio = (co.e_par**2 / co.e_perp**2) / (49 * 3.0**4 / 8.0**4)
    ok = worst_ecc < 0.05 and worst_ang < 1.0 and abs(ratio - 1) < 0.01
    report(capsys, 5, ok,
           f"ecc within {worst_ecc * 100:.2f}% (S <= 0.3), angle within "
           f"{worst_ang:.3f} deg of 45, small-S ratio off by "
           f"{abs(ratio - 1) * 100:.2f}%")


def test_criterion_06_expansion_order(capsys):
    d = 21.0
    offs = np.array([0.01, 0.02, 0.03, 0.04]) * d
    errs = [abs(1 / (d + o) ** 6
                - vdw_expansion(d, np.array([o, 0, 0]), np.zeros(3)))
            for o in offs]
    slope = float(np.polyfit(np.log(offs), np.log(errs), 1)[0])
    report(capsys, 6, slope >= 2.9, f"fitted error exponent {slope:.3f}")


def test_criterion_07_positioning_error(capsys):
    c = make_config(protocol=Swap())
    f0, _ = swap_error_average_fidelity(c, "par", 0.0, seed=5)
    fp, _ = swap_error_average_fidelity(c, "par", 1.0, n_samples=1000, seed=5)
    fq, _ = swap_error_average_fidelity(c, "perp", 1.0, n_samples=1000, seed=5)
    drop_par = f0 - fp
    drop_perp = f0 - fq
    ok = 0.005 <= drop_par <= 0.015 and drop_perp < drop_par
    report(capsys, 7, ok,
           f"1 um parallel error drops F by {drop_par:.4f} "
           f"(perpendicular {drop_perp:.4f})")


def test_criterion_08_entropy_fidelity_regression(capsys):
    xs, ys = [], []
    for w_par in np.linspace(2.0, 8.0, 9):
        c = make_config(d=40, w_par=w_par, w_perp=8, protocol=Swap(), ext=4.0)
        z = zeta(c, nodes=96, check=False)
        xs.append(entanglement_entropy(phased_joint_grid(c)))
        ys.append(1 - fidelity_from_zeta(z))
    xs, ys = np.array(xs), np.array(ys)
    design = np.vstack([xs, np.ones_like(xs)]).T
    _, res, *_ = np.linalg.lstsq(design, ys, rcond=None)
    r2 = 1 - float(res[0]) / float(np.sum((ys - ys.mean()) ** 2))
    report(capsys, 8, r2 > 0.95, f"R^2 = {r2:.4f} over swap width sweep (9 points)")


def test_criterion_09_width_anisotropy(capsys):
    fid = {}
    for tag, wp, wq in (("iso", 8, 8), ("par", 3, 8), ("perp", 8, 3)):
        c = make_config(w_par=wp, w_perp=wq, protocol=Swap())
        z, _ = zeta_mc_oracle(c, n_samples=2_000_000, seed=11)
        fid[tag] = fidelity_from_zeta(z)
    gain_par = fid["par"] - fid["iso"]
    gain_perp = fid["perp"] - fid["iso"]
    report(capsys, 9, gain_par >= 10 * gain_perp,
           f"parallel compression gains {gain_par:+.4f}, perpendicular "
           f"{gain_perp:+.4f}")


def test_criterion_10_tradeoff_trends(capsys):
    c6 = make_config().c6
    fd_prev = fs_prev = -1.0
    eff_prev = 2.0
    ok = True
    notes = []
    for d in range(15, 31):
        t = time_for_pi(d, c6)
        if abs(t / time_for_pi(15, c6) - (d / 15.0) ** 6) > 1e-12:
            ok, notes = False, notes + ["t_pi not d^6"]
        base = make_config(d=float(d), c6=c6, t=t)
        zd = zeta(base)
        zs = zeta(base.replace(protocol=Swap()))
        fd, fs = fidelity_from_zeta(zd), fidelity_from_zeta(zs)
        eff = pair_efficiency(base).pair
        if fs < fd:
            ok, notes = False, notes + [f"F_swap < F_direct at d={d}"]
        if fd < fd_prev or fs < fs_prev:
            ok, notes = False, notes + [f"F decreasing at d={d}"]
        if eff >= eff_prev:
            ok, notes = False, notes + [f"efficiency not decreasing at d={d}"]
        fd_prev, fs_prev, eff_prev = fd, fs, eff
    report(capsys, 10, ok,
           "F_swap >= F_direct, F rising, efficiency falling over d=15..30"
           + ("; " + "; ".join(notes) if notes else ""))


def test_criterion_11_loss_formulas(capsys):
    eta0 = thermal_efficiency(0.0, 0.297, 3.0, 0.003)
    life = lifetime_efficiency(5.0, 1150.0, 1180.0)
    m = uniform_loss_balancer([0.9, 0.8, 0.95, 0.85])
    balanced = np.array([0.9, 0.8, 0.95, 0.85]) * m
    spread = float(balanced.max() - balanced.min())
    ok = eta0 == 1.0 and abs(life - 0.9914) < 1e-4 and spread < 1e-12
    report(capsys, 11, ok,
           f"eta_th(0)={eta0}, lifetime eff {life:.6f}, balanced rail "
           f"spread {spread:.1e}")


def test_criterion_12_determinism_and_convergence(capsys, tmp_path):
    blobs = []
    for sub in ("a", "b"):
        spec = ExperimentSpec(
            name="entropy-vs-fidelity", base=make_config(rng_seed=12345),
            output_dir=tmp_path / sub, sweep_values=(0.5, 1.0),
            mc_samples=50_000)
        run_experiment(spec)
        blobs.append((tmp_path / sub / "entropy-vs-fidelity.csv").read_bytes())
    identical = blobs[0] == blobs[1]

    ref = make_config(d=42, w_par=3, w_perp=6)
    z64 = zeta(ref, nodes=64, check=False)
    z128 = zeta(ref, nodes=128, check=False)
    zeta_rel = abs(z128 - z64) / abs(z128)
    g256 = phased_joint_grid(ref)
    g512 = phased_joint_grid(ref.replace(grid=ref.grid.__class__(512, 5.0)))
    ent_rel = abs(entanglement_entropy(g512) - entanglement_entropy(g256)) \
        / entanglement_entropy(g512)
    c256, _ = momentum_centroid(momentum_map(g256))
    c512, _ = momentum_centroid(momentum_map(g512))
    cen_rel = abs(c512 - c256) / abs(c512)
    ok = identical and zeta_rel < 1e-4 and ent_rel < 1e-4 and cen_rel < 1e-4
    report(capsys, 12, ok,
           f"byte-identical reruns: {identical}; doubling changes "
           f"zeta {zeta_rel:.1e}, entropy {ent_rel:.1e}, "
           f"centroid {cen_rel:.1e}")
