"""Grid and quadrature evaluation of the interacting two-excitation state.

The two-body problem is handled through two complementary reductions:

* The conditional-phase overlap (``zeta``) uses the exact relative-coordinate
  reduction: the initial state is a product state and the accumulated phase
  depends only on x1 - x2, so the 6D overlap collapses to a 3D Gaussian
  integral.  That Gaussian has equal standard deviations across the
  separation, and the phase depends only on the axial coordinate and the
  distance from the axis (plus the azimuth, for a transverse swap error), so
  ``zeta`` is a 2D cylindrical quadrature: uniform Gauss-Legendre panels
  along the axis, on a path lifted into the complex plane around the
  pair-distance singularities so that the phase factor decays there
  instead of oscillating, times Gauss-Laguerre across it.  A doubling of
  its resolution level checks its accuracy.  An independent Monte Carlo
  oracle over the full 6D product density is provided for cross-validation.

* Momentum maps, centroids, ellipse metrics and entanglement entropy use a
  2D slice with one coordinate per excitation along the separation, the
  transverse coordinates frozen at the cloud centers.  The pair distance on
  the slice, d + x1_a - x2_b, depends on a - b alone when both axes share
  one spacing, so the phase is then evaluated once per diagonal.

Central-wavevector phases are omitted throughout: they factor out of every
observable computed here, and momentum axes are measured relative to the
central modes.

All operations are pure functions over immutable inputs, use a fixed
summation order, and are bit-reproducible for fixed seeds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    AccuracyWarning,
    Direct,
    GateConfig,
    GateMetrics,
    OverlapError,
    PhysicsError,
    RelativeGaussian,
    Swap,
    relative_distribution,
)

#: Configurations whose relative-coordinate Gaussian carries more mass than
#: this within |r| < d/10 are rejected: the blockade-free, well-separated
#: assumption breaks down before the numerics do.
ORIGIN_MASS_LIMIT = 1e-6

#: Schmidt weights below this are floating-point noise and are dropped.
ENTROPY_WEIGHT_CUTOFF = 1e-14

#: Gaussian tail, in standard deviations along the separation, that the zeta
#: quadrature leaves out at each end of its axial range (6e-16 of the mass
#: per side)
ZETA_TAIL_STDS = 8.0

#: most elements per chunk of the zeta kernel and of the median's row
#: transforms: 256 KiB per complex temporary, below the blocks that glibc
#: hands back to the operating system, to be re-faulted, after every call
CHUNK_ELEMENTS = 2**14

#: largest zeta resolution level (160 Gauss-Laguerre nodes): numpy's
#: Gauss-Laguerre weights overflow between 180 and 192 nodes
ZETA_MAX_NODES = 256

#: zeta quadrature level of each overlap sampled by
#: ``swap_error_average_fidelity``: at the headline point, for errors up to
#: 6 um, its fidelities are within 5.6e-6 (parallel) and 1.4e-6 (transverse)
#: of level 256
SWAP_ERROR_LEVEL = 32

_RULE_CACHE: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = {}


def _gauss_rule(kind: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of numpy's ``n``-point Gauss rule of one kind."""
    if (kind, n) not in _RULE_CACHE:
        # numpy imports np.polynomial on first access: keep it out of the
        # package import
        poly = np.polynomial
        rule = {"legendre": poly.legendre.leggauss,
                "laguerre": poly.laguerre.laggauss}[kind]
        _RULE_CACHE[kind, n] = rule(n)
    return _RULE_CACHE[kind, n]


@dataclass(frozen=True, eq=False)
class JointAmplitudeGrid:
    """Discretized complex amplitude psi(x1, x2) on the parallel slice.

    ``x1_axis`` / ``x2_axis`` are the coordinates of each excitation along
    the separation, relative to its own cloud center (um).  The squared
    amplitude integrates to one.
    """

    values: np.ndarray
    x1_axis: np.ndarray
    x2_axis: np.ndarray

    @property
    def spacing(self) -> tuple[float, float]:
        return (
            float(self.x1_axis[1] - self.x1_axis[0]),
            float(self.x2_axis[1] - self.x2_axis[0]),
        )

    def norm(self) -> float:
        d1, d2 = self.spacing
        return float(np.sum(np.abs(self.values) ** 2) * d1 * d2)


@dataclass(frozen=True, eq=False)
class MomentumMap:
    """Normalized momentum-space density over (K1, K2) on the parallel slice.

    ``amplitude`` is the position-space slice the density was transformed
    from, and ``marginal_power`` its unnormalized K1 and K2 marginals in FFT
    order: the even samples of the 2n-point zero-padded marginals that the
    median centroid needs (it computes the odd ones from ``amplitude``).  A
    map built by hand from a density alone leaves both ``None``.
    """

    density: np.ndarray
    k1_axis: np.ndarray
    k2_axis: np.ndarray
    amplitude: np.ndarray | None = None
    marginal_power: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def spacing(self) -> tuple[float, float]:
        return (
            float(self.k1_axis[1] - self.k1_axis[0]),
            float(self.k2_axis[1] - self.k2_axis[0]),
        )


def _slice_axis(profile, grid) -> np.ndarray:
    n = grid.points_per_axis
    half = grid.extent_sigmas * profile.sigma("par")
    dx = 2.0 * half / n
    return (np.arange(n) - n // 2) * dx


def build_joint_grid(config: GateConfig) -> JointAmplitudeGrid:
    """Product-state amplitude f1(a) f2(b) on the parallel slice, normalized."""
    x1 = _slice_axis(config.profile1, config.grid)
    x2 = _slice_axis(config.profile2, config.grid)
    f1 = config.profile1.envelope(x1, "par")
    f2 = config.profile2.envelope(x2, "par")
    d1 = x1[1] - x1[0]
    d2 = x2[1] - x2[0]
    f1 /= math.sqrt(np.sum(f1**2) * d1)
    f2 /= math.sqrt(np.sum(f2**2) * d2)
    values = np.multiply(f1[:, None], f2[None, :], dtype=complex)
    return JointAmplitudeGrid(values=values, x1_axis=x1, x2_axis=x2)


def _pair_phase(ct: float, swap: bool, x, rho2, far: float | None, shift):
    """Accumulated pair phase at axial offset ``x``, squared radius ``rho2``.

    The pair distance is sqrt(x^2 + rho2) during the direct protocol and
    the first swap half; after the swap it is sqrt((x - far)^2 + rho2 +
    shift), with ``far`` = 2d - eps_par and ``shift`` the change of the
    squared radius that a transverse error eps_perp makes.  The product
    ``ct`` = c6 t_int sets the scale; each half of the swap gets half of it.
    """
    r2 = x * x + rho2
    phase = ct / (r2 * r2 * r2)
    if swap:
        r2 = (x - far) ** 2 + rho2 + shift
        phase = 0.5 * (phase + ct / (r2 * r2 * r2))
    return phase


def apply_interaction_phase(grid: JointAmplitudeGrid,
                            config: GateConfig) -> JointAmplitudeGrid:
    """Multiply the slice by the accumulated pair phase (norm-preserving).

    Direct protocol: exp(-i c6 t / D^6) with D the pair distance on the
    slice.  Swap protocol: two half-time phases, the second with the
    separation reversed.  D = d + x1_a - x2_b depends on a - b alone when
    both axes share one spacing, so the phase factor is then evaluated once
    per diagonal, at the 2n - 1 offsets, and laid out as a Toeplitz view.
    """
    d = config.separation_mag
    x1, x2 = grid.x1_axis, grid.x2_axis
    # on the parallel slice the pair distance is |d + rel|; a grid whose
    # relative offsets reach -d spans the singularity even if no sample
    # lands exactly on it
    if float(x1.max() - x2.min()) >= d:
        raise OverlapError(
            "grid reaches zero pair distance; increase the separation "
            "or reduce the widths or grid.extent_sigmas"
        )
    toeplitz = x1.size == x2.size and grid.spacing[0] == grid.spacing[1]
    # offset k = n - 1 + a - b of each diagonal, from the first row and column
    rel = np.concatenate((x1[0] - x2[:0:-1], x1 - x2[0])) if toeplitz \
        else x1[:, None] - x2[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        phase = _pair_phase(config.c6 * config.t_int,
                            isinstance(config.protocol, Swap), d + rel, 0.0,
                            2.0 * d, 0.0)
    if not np.all(np.isfinite(phase)):
        raise OverlapError(
            "zero pair distance on the grid; increase the separation or "
            "reduce grid.extent_sigmas"
        )
    factor = np.exp(-1j * phase)
    if toeplitz:
        # T[a, b] = factor[n - 1 + a - b], without a copy
        factor = np.lib.stride_tricks.sliding_window_view(factor[::-1], x1.size)[::-1]
    return JointAmplitudeGrid(values=grid.values * factor, x1_axis=x1, x2_axis=x2)


def phased_joint_grid(config: GateConfig) -> JointAmplitudeGrid:
    """Convenience: build the slice and apply the configured protocol phase."""
    return apply_interaction_phase(build_joint_grid(config), config)


# --------------------------------------------------------------------------
# Conditional phase
# --------------------------------------------------------------------------

def origin_mass(rel: RelativeGaussian, radius: float) -> float:
    """Probability mass of the relative-coordinate Gaussian in a ball about 0.

    With equal transverse stds sp (as ``relative_distribution`` gives),
    rho^2 / (2 sp^2) is Exp(1), so the mass across the ball's chord at axial
    offset x is 1 - exp(-(R^2 - x^2) / (2 sp^2)).  A 64-point Gauss-Legendre
    rule integrates it against the axial Gaussian over [-R, R], to about
    1e-13 relative while R <= 15 sp.
    """
    d, s, sp = rel.mean_mag, float(rel.std[0]), float(rel.std[1])
    u, w = _gauss_rule("legendre", 64)
    x = radius * u
    axial = np.exp(-0.5 * ((x - d) / s) ** 2) / (math.sqrt(2.0 * math.pi) * s)
    across = -np.expm1(-(radius * radius - x * x) / (2.0 * sp * sp))
    return float(radius * (w @ (axial * across)))


def _check_separation_guard(config: GateConfig) -> RelativeGaussian:
    rel = relative_distribution(config.profile1, config.profile2, config.separation)
    d = rel.mean_mag
    if origin_mass(rel, d / 10.0) >= ORIGIN_MASS_LIMIT:
        raise OverlapError(
            "relative-coordinate distribution carries non-negligible mass "
            "near the interaction singularity; increase the separation or "
            "reduce the widths"
        )
    return rel


def _contour_rule(rel: RelativeGaussian, ct: float, far: float | None,
                  n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian-weighted axial rule on a path lifted into the complex plane.

    Composite ``n``-point Gauss-Legendre panels of at most s / 2 in a real
    parameter t span ``ZETA_TAIL_STDS`` std about d, cut at ``far`` for the
    swap.  They carry the nodes to x = t + i sgn(ct) tan(pi/12) b(t), where b
    sums (t - a) g(|t - a|) over the singularities a (0, and ``far``), with
    the analytic taper g = (1 - tanh((|t - a| - c) / (c / 10))) / 2.  So out
    to c = (k / 30)^(1/6), where a singularity's phase k / x^6 falls to ~30
    rad (k = |ct|, halved for the swap), the path runs on the rays at pi/12
    from it, where arg(x^2 + rho^2) stays within [0, pi/6]: the phase factor
    decays towards the singularity instead of oscillating, its modulus stays
    at most one, and no pole at x = +-i rho is crossed.  Beyond c the path
    is real.  For the swap, c is at most 0.4 far, so that the path crosses
    the real axis downwards between the singularities; past that bound
    (about 5 pi rad at the mean) the doubling check flags the result.  The
    weights carry x'(t) and the Gaussian density continued to complex x.
    """
    d, s = rel.mean_mag, float(rel.std[0])
    lo, hi = d - ZETA_TAIL_STDS * s, d + ZETA_TAIL_STDS * s
    c = (abs(ct) / 30.0) ** (1.0 / 6.0)
    if far is not None:
        hi, c = min(hi, far), min((abs(ct) / 60.0) ** (1.0 / 6.0), 0.4 * far)
    edges = np.linspace(lo, hi, math.ceil(2.0 * (hi - lo) / s) + 1)
    u, w = _gauss_rule("legendre", n)
    half = 0.5 * np.diff(edges)[:, None]
    t = (0.5 * (edges[1:] + edges[:-1])[:, None] + half * u).ravel()
    b = db = 0.0
    for a in (0.0,) if far is None else (0.0, far):
        th = np.tanh((np.abs(t - a) - c) / (0.1 * c))
        b = b + 0.5 * (1.0 - th) * (t - a)
        db = db + 0.5 * (1.0 - th) - np.abs(t - a) * (1.0 - th * th) * 5.0 / c
    lift = math.copysign(math.tan(math.pi / 12.0), ct) * 1j
    x = t + lift * b
    density = np.exp(-0.5 * ((x - d) / s) ** 2) / (math.sqrt(2.0 * math.pi) * s)
    return x, (half * w).ravel() * (1.0 + lift * db) * density


def _zeta_quadrature(
    config: GateConfig,
    rel: RelativeGaussian,
    nodes: int,
    eps_par: float,
    eps_perp: float,
) -> complex:
    """Overlap at resolution level ``nodes`` by the 2D cylindrical quadrature.

    The relative coordinate is (x, rho cos a, rho sin a) in the separation
    frame, with x Gaussian about d with std s and u = rho^2 / (2 sp^2)
    exponentially distributed.  Along x: ``_contour_rule`` with
    ``nodes // 8`` nodes per panel, from ``ZETA_TAIL_STDS`` std below the
    mean to as far above it, or to the swapped singularity if that is
    nearer.  In u: ``5 * nodes // 8``-point Gauss-Laguerre.  In the
    azimuth a, which only a transverse swap error breaks the symmetry of:
    the periodic trapezoid with ``nodes // 8 + 1`` points on [0, pi], where
    the integrand is even in a.
    """
    if not 8 <= nodes <= ZETA_MAX_NODES:
        raise ValueError(f"nodes must be in 8..{ZETA_MAX_NODES}, got {nodes}")
    swap = isinstance(config.protocol, Swap)
    ct = config.c6 * config.t_int
    d, sp = rel.mean_mag, float(rel.std[1])
    far = 2.0 * d - eps_par if swap else None
    if swap and far <= d:
        raise PhysicsError(f"eps_par = {eps_par:g} um puts the swapped "
                           "singularity at or before the mean separation")
    x, wx = _contour_rule(rel, ct, far, nodes // 8)
    u, wu = _gauss_rule("laguerre", 5 * nodes // 8)
    rho2 = 2.0 * sp * sp * u
    shift = 0.0
    if swap and eps_perp:
        m = nodes // 8 + 1
        w_az = np.full(m, 1.0 / (m - 1))
        w_az[[0, -1]] *= 0.5
        cos_a = np.cos(np.linspace(0.0, math.pi, m))
        shift = (2.0 * eps_perp * np.sqrt(rho2)[:, None] * cos_a + eps_perp**2).ravel()
        rho2 = np.repeat(rho2, m)
        wu = np.outer(wu, w_az).ravel()
    radial = np.empty(x.size, dtype=complex)
    rows = max(1, CHUNK_ELEMENTS // rho2.size)
    for i in range(0, x.size, rows):
        phase = _pair_phase(ct, swap, x[i:i + rows, None], rho2, far, shift)
        radial[i:i + rows] = np.exp(-1j * phase) @ wu
        del phase     # not alive while the next chunk's phase is built
    return complex(wx @ radial)


def zeta(
    config: GateConfig,
    eps_par: float = 0.0,
    eps_perp: float = 0.0,
    nodes: int = 64,
    check: bool = True,
) -> complex:
    """Conditional-phase overlap of the interacting pair with its initial state.

    Averages the accumulated phase factor over the 3D relative-coordinate
    Gaussian by a 2D cylindrical quadrature about the separation axis, its
    axial path lifted into the complex plane around the singularities (see
    ``_zeta_quadrature``).  ``nodes`` (8..``ZETA_MAX_NODES``) names its
    resolution level.  When ``check`` is set, the level is doubled, the
    doubled result is returned, and an :class:`AccuracyWarning` naming the
    protocol and any positioning error is issued if it moved by more than
    1e-6; the move bounds the returned result's error.  At gate working
    points the checked result is accurate to about 1e-13, and to 2e-9 where
    d is 7 standard deviations along the separation.
    """
    if isinstance(config.protocol, Direct) and (eps_par or eps_perp):
        raise PhysicsError("positioning errors only apply to the swap protocol")
    rel = _check_separation_guard(config)
    if config.t_int == 0 or config.c6 == 0:
        return 1.0 + 0.0j
    z = _zeta_quadrature(config, rel, nodes, eps_par, eps_perp)
    if check:
        z2 = _zeta_quadrature(config, rel, 2 * nodes, eps_par, eps_perp)
        if abs(z2 - z) > 1e-6:
            where = [f"{type(config.protocol).__name__.lower()} protocol"] + [
                f"{name} = {value:g} um"
                for name, value in (("eps_par", eps_par), ("eps_perp", eps_perp))
                if value]
            warnings.warn(
                f"zeta quadrature ({', '.join(where)}) not converged at level "
                f"{nodes} (|change on doubling| = {abs(z2 - z):.2e}); "
                "result may be inaccurate for this configuration",
                AccuracyWarning,
                stacklevel=2,
            )
        z = z2
    return z


def zeta_mc_oracle(
    config: GateConfig,
    n_samples: int = 1_000_000,
    seed: int | None = None,
    eps_par: float = 0.0,
    eps_perp: float = 0.0,
) -> tuple[complex, complex]:
    """Brute-force Monte Carlo estimate of the overlap over the 6D density.

    Samples both cloud positions independently from |f|^2 and averages the
    accumulated phase factor.  Returns the estimate and the per-component
    standard error (real part + i * imaginary part).  Deterministic for a
    fixed seed.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if seed is None:
        seed = config.rng_seed
    rng = np.random.default_rng(seed)
    p1, p2 = config.profile1, config.profile2
    d = config.separation_mag
    # positions in the separation frame, relative to each cloud center
    x1 = np.column_stack(
        [
            rng.normal(0.0, p1.sigma("par"), n_samples),
            rng.normal(0.0, p1.sigma("perp"), n_samples),
            rng.normal(0.0, p1.sigma("perp"), n_samples),
        ]
    )
    x2 = np.column_stack(
        [
            rng.normal(0.0, p2.sigma("par"), n_samples),
            rng.normal(0.0, p2.sigma("perp"), n_samples),
            rng.normal(0.0, p2.sigma("perp"), n_samples),
        ]
    )
    rel = x1 - x2
    rel[:, 0] += d
    ct = config.c6 * config.t_int
    r2 = np.sum(rel * rel, axis=1)
    if isinstance(config.protocol, Swap):
        r2b = (rel[:, 0] - 2.0 * d + eps_par) ** 2 + (rel[:, 1] + eps_perp) ** 2 + rel[:, 2] ** 2
        phase = 0.5 * ct * (1.0 / r2**3 + 1.0 / r2b**3)
    else:
        if eps_par or eps_perp:
            raise PhysicsError("positioning errors only apply to the swap protocol")
        phase = ct / r2**3
    z = np.exp(-1j * phase)
    mean = complex(z.mean())
    se = complex(
        float(z.real.std(ddof=1)) / math.sqrt(n_samples),
        float(z.imag.std(ddof=1)) / math.sqrt(n_samples),
    )
    return mean, se


def fidelity_from_zeta(zeta_value: complex) -> float:
    """Conditional gate fidelity sqrt((9 - 3(z + z*) + |z|^2) / 16)."""
    z = complex(zeta_value)
    if abs(z) > 1.0 + 1e-9:
        raise PhysicsError(f"|zeta| = {abs(z):.12g} > 1: not a valid overlap")
    return math.sqrt((9.0 - 6.0 * z.real + abs(z) ** 2) / 16.0)


# --------------------------------------------------------------------------
# Momentum-space observables
# --------------------------------------------------------------------------

def momentum_map(grid: JointAmplitudeGrid) -> MomentumMap:
    """Normalized |psi|^2 in momentum space (2D DFT over both coordinates).

    Momentum axes are centered on the excitations' central modes (K = 0).
    """
    n1, n2 = grid.values.shape
    d1, d2 = grid.spacing
    power = np.abs(np.fft.fft2(grid.values))
    power *= power
    # by Parseval over the other axis, each marginal of the 2D power is that
    # axis's length times the summed power of the 1D transforms along its own
    marginals = (power.sum(axis=1) / n2, power.sum(axis=0) / n1)
    density = np.fft.fftshift(power)
    k1 = 2.0 * math.pi * np.fft.fftshift(np.fft.fftfreq(n1, d1))
    k2 = 2.0 * math.pi * np.fft.fftshift(np.fft.fftfreq(n2, d2))
    dk1 = k1[1] - k1[0]
    dk2 = k2[1] - k2[0]
    density /= np.sum(density) * dk1 * dk2
    return MomentumMap(density=density, k1_axis=k1, k2_axis=k2,
                       amplitude=grid.values, marginal_power=marginals)


def _marginal_median(rows: np.ndarray, even: np.ndarray, dk: float) -> float:
    """Median of one excitation's momentum marginal, exact for the samples.

    ``rows`` holds the amplitude with that excitation's coordinate on the
    last axis.  Its Fourier transform is continuous in u = K dx, so the
    marginal M(u) = sum over rows of |sum_j a_j exp(-i u j)|^2 is a
    trigonometric polynomial on [-pi, pi).  Its 2n - 1 coefficients are the
    autocorrelations R(m) of the rows, which M at u_q = pi q / n gives
    exactly, so its CDF is closed-form.  ``even`` holds the samples at even
    q; the odd ones are n-point transforms of the rows times exp(-i pi j / n),
    taken a block of rows at a time.
    The CDF on the 2n samples brackets the median to half a momentum bin,
    and safeguarded Newton steps on the closed form refine it.
    """
    n = rows.shape[1]
    twist = np.exp(-1j * math.pi / n * np.arange(n))
    step = max(1, CHUNK_ELEMENTS // n)
    odd = 0.0
    for i in range(0, rows.shape[0], step):
        # a contiguous product transforms faster than a strided axis
        block = np.abs(np.fft.fft(np.multiply(rows[i:i + step], twist, order="C"),
                                  axis=1))
        block *= block
        block[0] += odd      # rows are summed in order, as by one sum over all
        odd = block.sum(axis=0)
    power = np.column_stack((even, odd)).ravel()
    R = np.fft.ifft(power)[:n]
    r0 = float(R[0].real)
    if not r0 > 0:
        raise PhysicsError("degenerate momentum marginal")
    m = np.arange(1, n)
    # normalized CDF from u = -pi:
    # G(u) = (u + pi) / 2pi + Re sum_{m>0} c_m (e^{-imu} - (-1)^m) / pi
    c = 1j * R[1:] / (m * r0)
    alternating = c * np.where(m % 2, -1.0, 1.0)
    edge = float(np.sum(alternating).real)

    # on the samples u_q = -pi + pi q / n the sum is one FFT
    padded = np.zeros(2 * n, dtype=complex)
    padded[1:n] = alternating
    samples = np.arange(2 * n) / (2.0 * n) + (np.fft.fft(padded).real - edge) / math.pi
    q = int(np.searchsorted(samples, 0.5))
    lo = -math.pi + (q - 1) * math.pi / n
    hi = -math.pi + q * math.pi / n
    u = 0.5 * (lo + hi)
    for _ in range(64):
        e = np.exp(-1j * m * u)
        f = (u + math.pi) / (2.0 * math.pi) + (
            float((c @ e).real) - edge) / math.pi - 0.5
        if f > 0:
            hi = u
        else:
            lo = u
        slope = (1.0 + 2.0 * float((R[1:] @ e).real) / r0) / (2.0 * math.pi)
        step = f / slope if slope > 0 else math.inf
        if abs(step) <= 1e-13:
            u -= step
            break
        u = u - step if lo < u - step < hi else 0.5 * (lo + hi)
    return u * n * dk / (2.0 * math.pi)


def momentum_centroid(mmap: MomentumMap, method: str = "median") -> tuple[float, float]:
    """Location of the momentum distribution per excitation.

    ``method="median"`` (default) returns the medians of the K1 and K2
    marginals of the sampled amplitude's continuous Fourier transform, exact
    in momentum rather than interpolated within a bin of width dk.  For the
    second-order (linear plus quadratic) phase they are +-k_D exactly; the
    exact 1/r^6 phase moves them above k_D as the clouds' widths grow
    against their separation (see ``analytic.expansion_coefficients``).
    ``method="mean"`` returns the first moments of the sampled density.
    Under the direct protocol they are the mean phase gradient
    6 c6 t <(d + r)^-7>, to which they converge with ``points_per_axis``;
    they sit above the median because the gradient grows steeply at small
    pair distance.
    """
    if method == "median":
        if mmap.amplitude is None or mmap.marginal_power is None:
            raise ValueError("the median needs the sampled amplitude; "
                             "build the map with momentum_map")
        dk1, dk2 = mmap.spacing
        even1, even2 = mmap.marginal_power
        return (_marginal_median(mmap.amplitude.T, even1, dk1),
                _marginal_median(mmap.amplitude, even2, dk2))
    if method == "mean":
        marg1 = mmap.density.sum(axis=1)
        marg2 = mmap.density.sum(axis=0)
        return (
            float((marg1 * mmap.k1_axis).sum() / marg1.sum()),
            float((marg2 * mmap.k2_axis).sum() / marg2.sum()),
        )
    raise ValueError(f"unknown method {method!r}")


def ellipse_metrics(mmap: MomentumMap) -> tuple[float, float]:
    """Eccentricity and principal-axis angle of the density's covariance ellipse.

    Returns (e, angle) with e = sqrt(1 - lambda_min / lambda_max) and the
    angle of the major axis in the (K1, K2) plane, in (-pi/2, pi/2], from
    the two marginals and one centred contraction.  A density with e < 1e-6,
    i.e. 1 - lambda_min / lambda_max < 1e-12, is circular and returns
    (0, 0): rounding of the moments leaves e ~ 1e-8 there.
    """
    dk1, dk2 = mmap.spacing
    p = mmap.density * dk1 * dk2
    p /= p.sum()
    k1, k2 = mmap.k1_axis, mmap.k2_axis
    marg1, marg2 = p.sum(axis=1), p.sum(axis=0)
    m1, m2 = float(marg1 @ k1), float(marg2 @ k2)
    c11, c22 = float(marg1 @ (k1 - m1) ** 2), float(marg2 @ (k2 - m2) ** 2)
    c12 = float((k1 - m1) @ p @ (k2 - m2))
    evals, evecs = np.linalg.eigh(np.array([[c11, c12], [c12, c22]]))
    lam_min, lam_max = float(evals[0]), float(evals[1])
    if lam_max <= 0:
        raise PhysicsError("degenerate momentum map: zero covariance")
    ecc = math.sqrt(max(0.0, 1.0 - lam_min / lam_max))
    if ecc < 1e-6:
        return 0.0, 0.0
    major = evecs[:, 1]
    angle = math.atan2(major[1], major[0])
    if angle <= -math.pi / 2:
        angle += math.pi
    elif angle > math.pi / 2:
        angle -= math.pi
    return ecc, angle


def entanglement_entropy(grid: JointAmplitudeGrid) -> float:
    """Von Neumann entropy (nats) of either excitation's reduced state.

    Schmidt weights come from the singular values of the amplitude matrix;
    weights below ``ENTROPY_WEIGHT_CUTOFF`` are discarded as float noise.
    """
    d1, d2 = grid.spacing
    matrix = grid.values * math.sqrt(d1 * d2)
    try:
        sing = np.linalg.svd(matrix, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise PhysicsError(f"SVD failed on {matrix.shape} grid") from exc
    lam = sing**2
    lam = lam / lam.sum()
    lam = lam[lam > ENTROPY_WEIGHT_CUTOFF]
    return float(-np.sum(lam * np.log(lam)))


# --------------------------------------------------------------------------
# Protocol studies
# --------------------------------------------------------------------------

def swap_error_average_fidelity(
    config: GateConfig,
    axis: str,
    sigma_err: float,
    n_samples: int = 1000,
    seed: int | None = None,
) -> tuple[float, float]:
    """Mean and standard deviation of the fidelity under swap placement errors.

    Samples the positioning error of the second half-time from
    Normal(0, sigma_err) on the chosen axis and averages the fidelity, each
    overlap from ``zeta``'s quadrature at the fixed level
    ``SWAP_ERROR_LEVEL`` without a doubling check.  At the headline point,
    for |error| <= 6 um, every sampled fidelity is within 5.6e-6 (parallel)
    and 1.4e-6 (transverse) of level 256; at sigma_err = 2 um that is over
    80 times below the standard error of a 400-sample mean.  Deterministic
    for a fixed seed.
    """
    if not isinstance(config.protocol, Swap):
        raise PhysicsError("swap_error_average_fidelity requires the swap protocol")
    if axis not in ("par", "perp"):
        raise ValueError(f"unknown axis {axis!r}")
    if sigma_err < 0:
        raise ValueError("sigma_err must be >= 0")
    if seed is None:
        seed = config.rng_seed
    rel = _check_separation_guard(config)
    if config.c6 * config.t_int == 0:
        return fidelity_from_zeta(1.0), 0.0
    # zero sigma runs the loop once at eps = 0, so that every result comes
    # from the same quadrature level
    eps = np.random.default_rng(seed).normal(0.0, sigma_err, n_samples) \
        if sigma_err else np.zeros(1)
    fids = np.empty(eps.size)
    for i, e in enumerate(eps):
        eps_par, eps_perp = (e, 0.0) if axis == "par" else (0.0, e)
        fids[i] = fidelity_from_zeta(_zeta_quadrature(
            config, rel, SWAP_ERROR_LEVEL, eps_par, eps_perp))
    if not sigma_err:
        return float(fids[0]), 0.0
    return float(fids.mean()), float(fids.std(ddof=1))


@dataclass(frozen=True, eq=False)
class AngularDistribution:
    """Histograms of retrieval angles in the (separation, propagation) plane."""

    angles: np.ndarray          # bin centers, rad
    before_1: np.ndarray
    before_2: np.ndarray
    after_1: np.ndarray
    after_2: np.ndarray


def angular_distribution(config: GateConfig, axis_resolution: int = 121) -> AngularDistribution:
    """Emission-angle histograms for both excitations, before and after.

    Each excitation's marginal parallel-momentum density is mapped to the
    tilt angle atan2(K_par, |k0|) of its retrieval direction away from the
    central mode.  The before-interaction histogram is the t = 0 state.
    """
    k1mag = float(np.linalg.norm(config.profile1.k0))
    k2mag = float(np.linalg.norm(config.profile2.k0))
    if k1mag == 0 or k2mag == 0:
        raise PhysicsError("angular_distribution requires non-zero central wavevectors")
    if axis_resolution < 3:
        raise ValueError("axis_resolution must be >= 3")

    plain = build_joint_grid(config)
    before = momentum_map(plain)
    after = momentum_map(apply_interaction_phase(plain, config))

    kmax = max(float(np.max(np.abs(before.k1_axis))), float(np.max(np.abs(before.k2_axis))))
    theta_max = math.atan2(kmax, min(k1mag, k2mag))
    edges = np.linspace(-theta_max, theta_max, axis_resolution + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])

    def hist(k_axis, marginal, kmag):
        theta = np.arctan2(k_axis, kmag)
        weights, _ = np.histogram(theta, bins=edges, weights=marginal)
        total = weights.sum()
        return weights / total if total > 0 else weights

    dk1, dk2 = before.spacing
    return AngularDistribution(
        angles=centers,
        before_1=hist(before.k1_axis, before.density.sum(axis=1) * dk2, k1mag),
        before_2=hist(before.k2_axis, before.density.sum(axis=0) * dk1, k2mag),
        after_1=hist(after.k1_axis, after.density.sum(axis=1) * dk2, k1mag),
        after_2=hist(after.k2_axis, after.density.sum(axis=0) * dk1, k2mag),
    )


def gate_metrics(config: GateConfig, nodes: int = 64, check: bool = True) -> GateMetrics:
    """Evaluate the full metric set (overlap, fidelity, momentum, entropy)."""
    z = zeta(config, nodes=nodes, check=check)
    phased = phased_joint_grid(config)
    # entropy before the map: its SVD copies are gone before the map's grids
    entropy = entanglement_entropy(phased)
    mmap = momentum_map(phased)
    c1, c2 = momentum_centroid(mmap)
    ecc, angle = ellipse_metrics(mmap)
    return GateMetrics(
        zeta=z,
        fidelity=fidelity_from_zeta(z),
        k_centroid_1=c1,
        k_centroid_2=c2,
        eccentricity=ecc,
        ellipse_angle=angle,
        entropy=entropy,
    )
