"""Converged reference values for the overlap ``zeta`` and the gate fidelity.

Independent of ``rydgate.numerics``: it shares no code with the package and
reads a configuration only through its public fields.

``zeta`` is the average of ``exp(-i phi(r))`` over the relative coordinate
``r`` of the two excitations, a 3D Gaussian with mean ``(d, 0, 0)`` and
per-axis standard deviations ``(s, sp, sp)`` in the separation frame.  The
phase ``phi`` is singular at the pair-distance zeros: the origin, and for
the swap protocol also the swapped centre ``c = (2d, 0, 0)``.
Near a singularity the phase oscillates in the distance to it only, so each
singularity gets its own spherical coordinates around it:

* radius: composite Gauss-Legendre panels, each spanning at most ``dphi`` of
  phase and at most one standard deviation of the Gaussian;
* polar angle: composite Gauss-Legendre in ``1 - cos(theta)``, graded towards
  the axis that points at the Gaussian's mean;
* azimuth: exact, since the integrand is symmetric about the separation axis.

For the swap protocol a smooth partition of unity,
``w_origin = 1 / (1 + (|r| / |r - c|)^k)``, splits the integrand between the
two spherical systems.  The ball around each singularity is left out up to
the larger of two radii: the one whose Gaussian mass is provably below
``tol`` (the integrand is bounded by one), and the one where the phase
reaches ``max_phase``.  Inside the latter, integrating by parts in the radius
bounds the left-out part by the radial mass density at its edge times
``radius / (6 max_phase)``, which ``refined()`` shrinks fourfold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: partition-of-unity steepness; the weight of the other singularity's
#: spherical system falls as (distance ratio)^k near each singularity
PARTITION_POWER = 16

#: numpy's Gauss rules lose accuracy at high order (``laggauss`` returns NaN
#: weights near 160 nodes), so rules are capped and their weights checked
MAX_RULE_NODES = 150

_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    if not 1 <= n <= MAX_RULE_NODES:
        raise ValueError(f"Gauss rule with {n} nodes is outside 1..{MAX_RULE_NODES}")
    if n not in _RULES:
        x, w = np.polynomial.legendre.leggauss(n)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(w))):
            raise ArithmeticError(f"Gauss rule with {n} nodes has non-finite weights")
        _RULES[n] = (x, w)
    return _RULES[n]


@dataclass(frozen=True)
class Problem:
    """The overlap integral of one working point.

    ``d`` is the centre separation (um), ``s`` / ``sp`` the relative
    coordinate's standard deviations along / across the separation (um),
    ``ct`` the product c6 * t_int (rad um^6).
    """

    d: float
    s: float
    sp: float
    ct: float
    swap: bool


def problem_from_config(config) -> Problem:
    """Read a ``rydgate.GateConfig`` through its public fields."""
    p1, p2 = config.profile1, config.profile2
    return Problem(
        d=float(np.linalg.norm(config.separation)),
        s=0.5 * math.hypot(p1.w_par, p2.w_par),
        sp=0.5 * math.hypot(p1.w_perp, p2.w_perp),
        ct=float(config.c6 * config.t_int),
        swap=type(config.protocol).__name__ == "Swap",
    )


@dataclass(frozen=True)
class Resolution:
    """Quadrature settings; ``refined()`` halves every step."""

    dphi: float = 24.0         # phase per radial panel, rad
    step: float = 1.0          # radial panel width, in Gaussian std units
    radial_nodes: int = 16
    angle_levels: int = 10     # polar panels graded down to 2^-levels
    angle_nodes: int = 12
    tol: float = 1e-10         # Gaussian mass allowed to be left out
    max_phase: float = 2e4     # phase (rad) beyond which the ball is left out

    def refined(self) -> "Resolution":
        return Resolution(
            dphi=self.dphi / 2, step=self.step / 2,
            radial_nodes=self.radial_nodes, angle_levels=self.angle_levels + 4,
            angle_nodes=self.angle_nodes + 4,
            tol=self.tol / 100,
            max_phase=4 * self.max_phase,
        )


def headline() -> tuple[Problem, Problem]:
    """The paper's headline point, direct and swap: d = 21 um, widths 3 x 8 um,
    c6 calibrated to a pi centre phase in 5 us."""
    s, sp = 0.5 * math.hypot(3.0, 3.0), 0.5 * math.hypot(8.0, 8.0)
    ct = math.pi * 21.0**6
    return (Problem(d=21.0, s=s, sp=sp, ct=ct, swap=False),
            Problem(d=21.0, s=s, sp=sp, ct=ct, swap=True))


def _fibonacci_sphere(n: int) -> np.ndarray:
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    rho = np.sqrt(1.0 - z * z)
    phi = math.pi * (1.0 + 5.0**0.5) * i
    return np.column_stack([z, rho * np.cos(phi), rho * np.sin(phi)])


_SPHERE = _fibonacci_sphere(4096)


def _ball_mass_bound(center, radius, mean, std) -> float:
    """Upper bound on the Gaussian mass inside a ball.

    Volume times the density's maximum over the ball.  The density's
    maximum over a ball that excludes the mean lies on its surface; the
    surface is sampled finely and the minimum Mahalanobis distance is
    lowered by the sampling gap, so the bound stays an upper bound.
    """
    if np.sum(((mean - center) / std) ** 2) <= (radius / std.min()) ** 2:
        return 1.0
    pts = center + radius * _SPHERE
    maha = np.sqrt(np.min(np.sum(((pts - mean) / std) ** 2, axis=1)))
    gap = radius * 0.06 / std.min()    # sample spacing on the unit sphere ~0.055
    maha = max(0.0, maha - gap)
    peak = 1.0 / ((2 * math.pi) ** 1.5 * float(np.prod(std)))
    return 4.0 / 3.0 * math.pi * radius**3 * peak * math.exp(-0.5 * maha * maha)


def _excluded_radius(center, mean, std, tol) -> float:
    """Largest radius (to 0.1%) whose ball around ``center`` holds < tol mass."""
    lo, hi = 0.0, float(np.linalg.norm(mean - center))
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if _ball_mass_bound(center, mid, mean, std) < tol:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-3 * hi:
            break
    return lo


def _radial_rule(r_lo, r_hi, k_own, step, dphi, m):
    """Panels from r_hi down to r_lo, each within ``step`` and ``dphi``."""
    edges = [r_hi]
    b = r_hi
    while b > r_lo:
        a = b - step
        if k_own > 0:
            a = max(a, (b**-6 + dphi / k_own) ** (-1.0 / 6.0))
        a = max(a, r_lo)
        edges.append(a)
        b = a
    edges = np.asarray(edges[::-1])
    x, w = _rule(m)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _polar_rule(levels, m):
    """Nodes in tau = 1 - cos(theta) on [0, 2], graded towards tau = 0."""
    edges = np.concatenate([[0.0], 2.0 ** -np.arange(levels, -1, -1.0), [2.0]])
    x, w = _rule(m)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    return ((mid[:, None] + half[:, None] * x[None, :]).ravel(),
            (half[:, None] * w[None, :]).ravel())


def _phase(p: Problem, x, y):
    """Phase at axial coordinate ``x`` and distance ``y`` from the axis."""
    r2 = x * x + y * y
    if not p.swap:
        return p.ct / r2**3, None
    r2b = (x - 2.0 * p.d) ** 2 + y * y
    return 0.5 * p.ct * (1.0 / r2**3 + 1.0 / r2b**3), (r2, r2b)


def _region(p: Problem, res: Resolution, center, axis_sign, own: int) -> complex:
    """Integral over one singularity's spherical coordinates."""
    mean = np.array([p.d, 0.0, 0.0])
    std = np.array([p.s, p.sp, p.sp])
    center = np.asarray(center, dtype=float)
    k_own = abs(p.ct) * (0.5 if p.swap else 1.0)
    r_lo = max(_excluded_radius(center, mean, std, res.tol),
               (k_own / res.max_phase) ** (1.0 / 6.0))
    reach = math.sqrt(2.0 * math.log(1.0 / res.tol)) + 1.0
    r_hi = float(np.linalg.norm(mean - center)) + reach * float(std.max())
    R, wR = _radial_rule(r_lo, r_hi, k_own, res.step * float(std.min()),
                         res.dphi, res.radial_nodes)
    tau, wt = _polar_rule(res.angle_levels, res.angle_nodes)
    cos_t = 1.0 - tau
    sin_t = np.sqrt(tau * (2.0 - tau))
    norm = 1.0 / ((2.0 * math.pi) ** 1.5 * p.s * p.sp * p.sp)
    total = 0.0 + 0.0j
    chunk = max(1, 2_000_000 // tau.size)
    for i0 in range(0, R.size, chunk):
        Rc = R[i0:i0 + chunk, None]
        wRc = (wR[i0:i0 + chunk] * R[i0:i0 + chunk] ** 2)[:, None]
        x = center[0] + axis_sign * Rc * cos_t[None, :]
        y = Rc * sin_t[None, :]
        phi, dists = _phase(p, x, y)
        dens = norm * np.exp(-0.5 * (((x - p.d) / p.s) ** 2 + (y * y) / (p.sp * p.sp)))
        if dists is not None:
            ln_ratio = 0.5 * PARTITION_POWER * (np.log(dists[0]) - np.log(dists[1]))
            if own == 1:
                ln_ratio = -ln_ratio
            dens = dens * 0.5 * (1.0 - np.tanh(0.5 * ln_ratio))
        weight = 2.0 * math.pi * wRc * wt[None, :] * dens
        total += complex(np.sum(weight * np.exp(-1j * phi)))
    return total


def zeta_ref(p: Problem, res: Resolution = Resolution()) -> complex:
    """Reference overlap at resolution ``res``."""
    if p.ct == 0:
        return 1.0 + 0.0j
    z = _region(p, res, (0.0, 0.0, 0.0), 1.0, 0)
    if p.swap:
        z += _region(p, res, (2.0 * p.d, 0.0, 0.0), -1.0, 1)
    return z


def zeta_ref_converged(p: Problem, res: Resolution = Resolution()) -> tuple[complex, float]:
    """Reference overlap and its self-convergence ``|z(res) - z(refined)|``."""
    fine = zeta_ref(p, res.refined())
    return fine, abs(fine - zeta_ref(p, res))


def fidelity(z: complex) -> float:
    """Conditional gate fidelity sqrt((9 - 6 Re z + |z|^2) / 16)."""
    return math.sqrt((9.0 - 6.0 * z.real + abs(z) ** 2) / 16.0)
