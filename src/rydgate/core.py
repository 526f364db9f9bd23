"""Domain types, unit conventions, configuration parsing and calibration helpers.

Units are global throughout the package: lengths in micrometers, times in
microseconds, wavevectors in rad/um, phases in rad.  The van der Waals
coefficient c6 therefore carries rad*um^6/us and its sign encodes the
attractive/repulsive character of the pair interaction.

Width convention: for a profile of width ``w`` the amplitude envelope is
f(X) ~ exp(-X^2 / w^2), i.e. 2w is the spatial (1/e amplitude) width of the
excitation.  The position-space *density* |f|^2 is then a Gaussian with
standard deviation w/2 per axis.  This convention is what makes the
closed-form momentum-ellipse results consistent with the grid numerics.
"""

from __future__ import annotations

import configparser
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

KB_J_PER_K = 1.380649e-23      # Boltzmann constant
RB87_MASS_KG = 1.443e-25       # 87Rb

#: |separation| must exceed this multiple of the largest parallel width,
#: otherwise the second-order expansion (analytic module) is unreliable.
DEFAULT_SEPARATION_FACTOR = 3.0


class ConfigError(ValueError):
    """Invalid or missing configuration value; message carries the key path."""


class PhysicsError(RuntimeError):
    """A numerical/physical operation cannot be carried out."""


class UndefinedTimeError(PhysicsError):
    """No finite interaction time exists (c6 = 0)."""


class OverlapError(PhysicsError):
    """The two excitation clouds overlap the interaction singularity."""


class SeparationWarning(UserWarning):
    """Separation is too small for the analytic expansion to be trusted."""


class AccuracyWarning(UserWarning):
    """A numerical result did not pass its built-in convergence check."""


def _vec3(value, path: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float).reshape(-1)
    if arr.size != 3:
        raise ConfigError(f"{path}: expected 3 components, got {arr.size}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ExcitationProfile:
    """Gaussian collective-excitation envelope.

    ``w_par`` / ``w_perp`` are the half 1/e amplitude widths along /
    transverse to the separation axis (um); the position-space density has
    standard deviation w/2 per axis.  ``k0`` is the central wavevector
    (rad/um) and ``rydberg_lifetime`` the lifetime of the Rydberg level this
    excitation is promoted to (us).
    """

    w_par: float
    w_perp: float
    center: np.ndarray = field(default_factory=lambda: np.zeros(3))
    k0: np.ndarray = field(default_factory=lambda: np.zeros(3))
    rydberg_lifetime: float = 1150.0

    def __post_init__(self):
        object.__setattr__(self, "center", _vec3(self.center, "profile.center"))
        object.__setattr__(self, "k0", _vec3(self.k0, "profile.k0"))
        if not self.w_par > 0:
            raise ConfigError("profile.w_par must be > 0")
        if not self.w_perp > 0:
            raise ConfigError("profile.w_perp must be > 0")
        if not self.rydberg_lifetime > 0:
            raise ConfigError("profile.rydberg_lifetime must be > 0")

    def width(self, axis: str) -> float:
        if axis == "par":
            return self.w_par
        if axis == "perp":
            return self.w_perp
        raise ValueError(f"unknown axis {axis!r}")

    def sigma(self, axis: str) -> float:
        """Standard deviation of the position-space density along one axis."""
        return 0.5 * self.width(axis)

    def envelope(self, x: np.ndarray, axis: str) -> np.ndarray:
        """Unnormalized 1D amplitude along one axis, centered on the cloud."""
        w = self.width(axis)
        return np.exp(-np.asarray(x, dtype=float) ** 2 / (w * w))


@dataclass(frozen=True)
class GridSpec:
    """Discretization of the 2D joint-amplitude slices."""

    points_per_axis: int = 256
    extent_sigmas: float = 5.0

    def __post_init__(self):
        n = self.points_per_axis
        if n < 32 or (n & (n - 1)) != 0:
            raise ConfigError("grid.points_per_axis must be a power of two >= 32")
        if not self.extent_sigmas >= 3:
            raise ConfigError("grid.extent_sigmas must be >= 3")


@dataclass(frozen=True)
class Direct:
    """Single uninterrupted interaction window."""


@dataclass(frozen=True)
class Swap:
    """Separation reversal at half time.

    A placement error of the swapped geometry is an argument of
    ``numerics.zeta``; ``numerics.swap_error_average_fidelity`` averages
    over a Gaussian one.
    """


Protocol = Direct | Swap


@dataclass(frozen=True)
class LossModel:
    """Thermal-motion and lifetime parameters of the retrieval efficiency model.

    ``temperature`` in uK, ``atomic_mass`` in kg, ``lambda_exc`` is the
    effective wavelength of the stored collective excitation in um.
    ``external_loss`` is an optional per-rail multiplier in (0, 1] standing in
    for storage/retrieval and swap-transport losses that are not modeled here.
    """

    temperature: float = 0.1
    atomic_mass: float = RB87_MASS_KG
    lambda_exc: float = 0.297
    external_loss: float = 1.0

    def __post_init__(self):
        if self.temperature < 0:
            raise ConfigError("loss.temperature must be >= 0")
        if not self.atomic_mass > 0:
            raise ConfigError("loss.atomic_mass must be > 0")
        if not self.lambda_exc > 0:
            raise ConfigError("loss.lambda_exc must be > 0")
        if not 0 < self.external_loss <= 1:
            raise ConfigError("loss.external_loss must be in (0, 1]")


@dataclass(frozen=True, eq=False)
class GateConfig:
    """Complete description of one gate simulation."""

    profile1: ExcitationProfile
    profile2: ExcitationProfile
    separation: np.ndarray            # center1 - center2, um
    c6: float                         # rad*um^6/us
    t_int: float                      # us
    protocol: Protocol = Direct()
    grid: GridSpec = GridSpec()
    loss: LossModel = LossModel()
    rng_seed: int = 0
    c6_calibrated: bool = False       # c6 came from calibrate_c6, not measurement

    def __post_init__(self):
        object.__setattr__(self, "separation", _vec3(self.separation, "geometry.separation"))
        if not np.linalg.norm(self.separation) > 0:
            raise ConfigError("geometry.separation must be non-zero")
        if self.t_int < 0:
            raise ConfigError("interaction.t_int must be >= 0")
        if self.rng_seed < 0:
            raise ConfigError("run.seed must be a non-negative integer")

    @property
    def separation_mag(self) -> float:
        return float(np.linalg.norm(self.separation))

    def replace(self, **kwargs) -> "GateConfig":
        """Return a copy with the given fields replaced."""
        import dataclasses
        return dataclasses.replace(self, **kwargs)


@dataclass(frozen=True)
class GateMetrics:
    """Summary observables for one configuration."""

    zeta: complex
    fidelity: float
    k_centroid_1: float
    k_centroid_2: float
    eccentricity: float
    ellipse_angle: float
    entropy: float


@dataclass(frozen=True, eq=False)
class RelativeGaussian:
    """Gaussian distribution of the relative coordinate r = x1 - x2.

    ``mean`` is the lab-frame separation vector; ``std`` holds the per-axis
    standard deviations in the separation-aligned frame (parallel first) whose
    orthonormal rows are ``basis``.
    """

    mean: np.ndarray
    std: np.ndarray
    basis: np.ndarray

    @property
    def mean_mag(self) -> float:
        return float(np.linalg.norm(self.mean))


def separation_frame(separation: np.ndarray) -> np.ndarray:
    """Orthonormal basis (rows) with the first axis along the separation."""
    sep = np.asarray(separation, dtype=float)
    d = np.linalg.norm(sep)
    if d == 0:
        raise ConfigError("geometry.separation must be non-zero")
    e_par = sep / d
    # pick the lab axis least aligned with e_par to seed the transverse pair
    seed = np.zeros(3)
    seed[int(np.argmin(np.abs(e_par)))] = 1.0
    e_p1 = np.cross(e_par, seed)
    e_p1 /= np.linalg.norm(e_p1)
    e_p2 = np.cross(e_par, e_p1)
    return np.vstack([e_par, e_p1, e_p2])


def time_for_pi(separation_mag: float, c6: float) -> float:
    """Interaction time giving a pi center-to-center phase: |c6| t / d^6 = pi."""
    if not separation_mag > 0:
        raise ConfigError("separation_mag must be > 0")
    if c6 == 0:
        raise UndefinedTimeError("c6 = 0: no finite time produces a pi phase")
    return math.pi * separation_mag**6 / abs(c6)


def calibrate_c6(separation_mag: float, t_target: float, phase_target: float) -> float:
    """c6 that accumulates ``phase_target`` between cloud centers in ``t_target``."""
    if not separation_mag > 0:
        raise ConfigError("separation_mag must be > 0")
    if not t_target > 0:
        raise ConfigError("t_target must be > 0")
    if phase_target < 0:
        raise ConfigError("phase_target must be >= 0")
    return phase_target * separation_mag**6 / t_target


def relative_distribution(
    p1: ExcitationProfile, p2: ExcitationProfile, separation: np.ndarray
) -> RelativeGaussian:
    """Distribution of r = x1 - x2 for independent Gaussian clouds.

    The product state makes r Gaussian with mean equal to the separation and
    per-axis variance (w1^2 + w2^2)/4, the convolution of the two densities
    of standard deviation w/2 each.
    """
    basis = separation_frame(separation)
    std = 0.5 * np.array(
        [
            math.hypot(p1.w_par, p2.w_par),
            math.hypot(p1.w_perp, p2.w_perp),
            math.hypot(p1.w_perp, p2.w_perp),
        ]
    )
    return RelativeGaussian(mean=_vec3(separation, "separation"), std=std, basis=basis)


# --------------------------------------------------------------------------
# Config documents
# --------------------------------------------------------------------------

_PROFILE_KEYS = {"w_par", "w_perp", "k0", "rydberg_lifetime", "center"}
_SECTION_KEYS = {
    "profile1": _PROFILE_KEYS,
    "profile2": _PROFILE_KEYS,
    "geometry": {"separation", "separation_factor"},
    "interaction": {"c6", "t_int", "calibrate_time", "calibrate_phase"},
    "protocol": {"name"},
    "grid": {"points_per_axis", "extent_sigmas"},
    "loss": {"temperature", "atomic_mass", "lambda_exc", "external_loss"},
    "run": {"seed"},
}

_DEFAULT_K0 = (0.0, 0.0, 8.06)  # rad/um, transverse to the default separation


def _parse_float(value, path: str) -> float:
    if isinstance(value, str):
        text = value.strip().lower()
        if text in ("pi", "+pi"):
            return math.pi
        if text == "-pi":
            return -math.pi
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: not a number: {value!r}") from exc
    if not math.isfinite(number):
        raise ConfigError(f"{path}: not a finite number: {value!r}")
    return number


def _parse_vec3(value, path: str) -> np.ndarray:
    if isinstance(value, str):
        value = value.replace(",", " ").split()
    return _vec3([_parse_float(p, path) for p in np.ravel(value)], path)


class _Section:
    def __init__(self, raw: dict, name: str):
        self.raw = dict(raw.get(name, {}))
        self.name = name

    def get(self, key, default=None, required=False, kind=float):
        if key not in self.raw:
            if required:
                raise ConfigError(f"{self.name}.{key}: missing required key")
            return default
        value = self.raw.pop(key)
        path = f"{self.name}.{key}"
        if kind is float:
            return _parse_float(value, path)
        if kind is int:
            f = _parse_float(value, path)
            if f != int(f):
                raise ConfigError(f"{path}: expected an integer, got {value!r}")
            return int(f)
        if kind is np.ndarray:
            return _parse_vec3(value, path)
        if kind is str:
            return str(value).strip().lower()
        raise AssertionError(kind)

    def check_empty(self):
        if self.raw:
            key = sorted(self.raw)[0]
            raise ConfigError(f"{self.name}.{key}: unknown key")


def validate_config(raw: dict) -> GateConfig:
    """Resolve a parsed key-value document into a :class:`GateConfig`.

    ``raw`` maps section names to key-value dicts (see the README for the
    exact key list).  Unknown sections or keys are hard errors; missing
    optional keys are filled with documented defaults.  A separation smaller
    than ``separation_factor`` (default 3) times the largest parallel width
    triggers a :class:`SeparationWarning`.
    """
    unknown = set(raw) - set(_SECTION_KEYS)
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown section")

    geometry = _Section(raw, "geometry")
    separation = geometry.get("separation", required=True, kind=np.ndarray)
    factor = geometry.get("separation_factor", DEFAULT_SEPARATION_FACTOR)
    geometry.check_empty()
    d = float(np.linalg.norm(separation))

    profiles = []
    basis = separation_frame(separation)
    default_centers = (0.5 * separation, -0.5 * separation)
    for name, default_center, default_lifetime in (
        ("profile1", default_centers[0], 1180.0),
        ("profile2", default_centers[1], 1150.0),
    ):
        sec = _Section(raw, name)
        w_par = sec.get("w_par", required=True)
        w_perp = sec.get("w_perp", required=True)
        k0 = sec.get("k0", kind=np.ndarray, default=None)
        if k0 is None:
            # default optical wavevector transverse to the separation axis
            k0 = float(np.linalg.norm(_DEFAULT_K0)) * basis[2]
        lifetime = sec.get("rydberg_lifetime", default_lifetime)
        center = sec.get("center", kind=np.ndarray, default=default_center)
        sec.check_empty()
        try:
            profiles.append(
                ExcitationProfile(
                    w_par=w_par, w_perp=w_perp, center=center, k0=k0,
                    rydberg_lifetime=lifetime,
                )
            )
        except ConfigError as exc:
            raise ConfigError(f"{name}: {exc}") from None
    p1, p2 = profiles

    interaction = _Section(raw, "interaction")
    c6 = interaction.get("c6", default=None)
    cal_time = interaction.get("calibrate_time", default=None)
    cal_phase = interaction.get("calibrate_phase", default=None)
    calibrated = False
    if c6 is None:
        if cal_time is None or cal_phase is None:
            raise ConfigError(
                "interaction.c6: missing required key "
                "(provide c6, or calibrate_time with calibrate_phase)"
            )
        try:
            c6 = calibrate_c6(d, cal_time, cal_phase)
        except ConfigError as exc:
            # the separation is non-zero here, and calibrate_c6 checks the
            # time before the phase
            key = "calibrate_time" if cal_time <= 0 else "calibrate_phase"
            raise ConfigError(f"interaction.{key}: {exc}") from None
        calibrated = True
    elif cal_time is not None or cal_phase is not None:
        raise ConfigError("interaction.c6: give either c6 or the calibration pair, not both")
    t_int = interaction.get("t_int", default=cal_time, required=cal_time is None)
    interaction.check_empty()

    protocol_sec = _Section(raw, "protocol")
    proto_name = protocol_sec.get("name", default="direct", kind=str)
    protocol_sec.check_empty()
    if proto_name == "direct":
        protocol: Protocol = Direct()
    elif proto_name == "swap":
        protocol = Swap()
    else:
        raise ConfigError(f"protocol.name: unknown protocol {proto_name!r}")

    grid_sec = _Section(raw, "grid")
    grid = GridSpec(
        points_per_axis=grid_sec.get("points_per_axis", 256, kind=int),
        extent_sigmas=grid_sec.get("extent_sigmas", 5.0),
    )
    grid_sec.check_empty()

    loss_sec = _Section(raw, "loss")
    loss = LossModel(
        temperature=loss_sec.get("temperature", 0.1),
        atomic_mass=loss_sec.get("atomic_mass", RB87_MASS_KG),
        lambda_exc=loss_sec.get("lambda_exc", 0.297),
        external_loss=loss_sec.get("external_loss", 1.0),
    )
    loss_sec.check_empty()

    run_sec = _Section(raw, "run")
    seed = run_sec.get("seed", 0, kind=int)
    run_sec.check_empty()

    if d <= factor * max(p1.w_par, p2.w_par):
        warnings.warn(
            f"separation {d:g} um does not exceed {factor:g} x the largest "
            f"parallel width; analytic expansion results are unreliable",
            SeparationWarning,
            stacklevel=2,
        )

    return GateConfig(
        profile1=p1, profile2=p2, separation=separation, c6=c6, t_int=t_int,
        protocol=protocol, grid=grid, loss=loss, rng_seed=seed,
        c6_calibrated=calibrated,
    )


def read_ini(path) -> dict:
    """Sections of an INI-style config file, as key-value dicts of strings."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if not parser.read(path):
        raise ConfigError(f"cannot read config file {path}")
    return {section: dict(parser.items(section)) for section in parser.sections()}


def load_config(path) -> GateConfig:
    """Read an INI-style config file and validate it."""
    return validate_config(read_ini(path))
