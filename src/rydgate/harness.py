"""Experiment orchestration: named sweeps, CSV datasets and run manifests.

Each experiment name maps to one study from the gate analysis (momentum
maps, fidelity and efficiency versus separation, width anisotropy, the
entropy-fidelity relation, swap positioning errors, and retrieval angles).
Sweep defaults reconstruct the visible axis ranges of those studies and are
documented as reconstructions, not ground truth.

Every overlap in a sweep row comes from ``numerics.zeta`` with its accuracy
check, the one entry point that also enforces the singularity guard, so a
point the guard rejects is written as a failed row that gives the reason.
Warnings raised while a point is evaluated are recorded in its row and its
manifest entry.  The Monte Carlo oracle runs only when ``mc_samples`` is
set: one call for the configured protocol fills the ``zeta_mc_*`` columns as
a cross-check.

Reproducibility contract: identical config + seed produce byte-identical
CSVs.  Per-point Monte Carlo seeds (for the ``zeta_mc_*`` columns and the
swap-error samples) are derived deterministically from (master seed, point
index) via ``numpy.random.SeedSequence``.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    ConfigError,
    Direct,
    GateConfig,
    OverlapError,
    Swap,
    time_for_pi,
)
from .analytic import expansion_coefficients
from .loss import pair_efficiency
from .numerics import (
    angular_distribution,
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

EXPERIMENT_NAMES = (
    "momentum-map",
    "fidelity-vs-separation",
    "fidelity-vs-width",
    "entropy-vs-fidelity",
    "swap-error",
    "angular",
)

#: Fixed column order of sweep CSVs (sweep columns first, then metrics).
SWEEP_COLUMNS = (
    "sweep_param",
    "sweep_value",
    "status",
    "zeta_re",
    "zeta_im",
    "zeta_mc_re",
    "zeta_mc_im",
    "zeta_mc_se",
    "F_direct",
    "F_swap",
    "kD_analytic",
    "centroid_k1",
    "centroid_k2",
    "ecc_analytic",
    "ecc_numeric",
    "entropy",
    "eta_photon1",
    "eta_photon2",
    "eta_pair",
    "t_pi",
    "error",
    "warnings",
)

SWAP_ERROR_COLUMNS = (
    "sweep_param",
    "sweep_value",
    "status",
    "F_mean_par",
    "F_std_par",
    "F_mean_perp",
    "F_std_perp",
    "error",
    "warnings",
)


@dataclass(frozen=True, eq=False)
class ExperimentSpec:
    """One named experiment: base configuration plus a sweep."""

    name: str
    base: GateConfig
    output_dir: Path
    sweep_param: str = ""
    sweep_values: tuple = ()
    seed: int = 0
    mc_samples: int | None = None    # Monte Carlo cross-check samples; None: off

    def __post_init__(self):
        if self.name not in EXPERIMENT_NAMES:
            raise ConfigError(f"unknown experiment {self.name!r}")
        values = tuple(float(v) for v in self.sweep_values)
        object.__setattr__(self, "sweep_values", values)
        object.__setattr__(self, "output_dir", Path(self.output_dir))
        if self.mc_samples is not None and self.mc_samples < 1:
            raise ConfigError("mc_samples must be >= 1")
        diffs = np.diff(values)
        if len(values) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ConfigError("sweep values must be strictly monotone")


def default_sweep(name: str) -> tuple[str, tuple[float, ...]]:
    """Reconstructed default sweep for each experiment name."""
    if name == "fidelity-vs-separation":
        return "separation", tuple(float(d) for d in range(15, 31))
    if name == "fidelity-vs-width":
        return "width", (8.0, 7.0, 6.0, 5.0, 4.0, 3.0)
    if name == "entropy-vs-fidelity":
        return "c6_scale", tuple(round(0.1 * i, 3) for i in range(1, 11))
    if name == "swap-error":
        return "err_sigma", (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
    return "", ()


def _point_seed(master: int, index: int) -> int:
    return int(np.random.SeedSequence((master, index)).generate_state(1)[0])


def _profile_dict(p) -> dict:
    return {
        "w_par": p.w_par,
        "w_perp": p.w_perp,
        "center": list(p.center),
        "k0": list(p.k0),
        "rydberg_lifetime": p.rydberg_lifetime,
    }


def config_to_dict(config: GateConfig) -> dict:
    return {
        "profile1": _profile_dict(config.profile1),
        "profile2": _profile_dict(config.profile2),
        "separation": list(config.separation),
        "c6": config.c6,
        "c6_calibrated": config.c6_calibrated,
        "t_int": config.t_int,
        "protocol": {"name": type(config.protocol).__name__.lower()},
        "grid": {
            "points_per_axis": config.grid.points_per_axis,
            "extent_sigmas": config.grid.extent_sigmas,
        },
        "loss": {
            "temperature": config.loss.temperature,
            "atomic_mass": config.loss.atomic_mass,
            "lambda_exc": config.loss.lambda_exc,
            "external_loss": config.loss.external_loss,
        },
        "rng_seed": config.rng_seed,
    }


def _with_separation(config: GateConfig, d: float) -> GateConfig:
    unit = config.separation / config.separation_mag
    p1 = dataclasses.replace(config.profile1, center=0.5 * d * unit)
    p2 = dataclasses.replace(config.profile2, center=-0.5 * d * unit)
    return config.replace(separation=d * unit, profile1=p1, profile2=p2,
                          t_int=time_for_pi(d, config.c6))


def _sweep_row(spec: ExperimentSpec, config: GateConfig, param: str,
               value: float, index: int) -> dict:
    """Evaluate the full metric column set for one sweep point."""
    zd = zeta(config.replace(protocol=Direct()))
    zs = zeta(config.replace(protocol=Swap()))
    z = zs if isinstance(config.protocol, Swap) else zd
    coeffs = expansion_coefficients(config)
    eff = pair_efficiency(config)
    row = {
        "sweep_param": param,
        "sweep_value": value,
        "status": "ok",
        "zeta_re": z.real,
        "zeta_im": z.imag,
        "zeta_mc_re": "",
        "zeta_mc_im": "",
        "zeta_mc_se": "",
        "F_direct": fidelity_from_zeta(zd),
        "F_swap": fidelity_from_zeta(zs),
        "kD_analytic": coeffs.k_D,
        "centroid_k1": "",
        "centroid_k2": "",
        "ecc_analytic": coeffs.e_par,
        "ecc_numeric": "",
        "entropy": "",
        "eta_photon1": eff.photon1,
        "eta_photon2": eff.photon2,
        "eta_pair": eff.pair,
        "t_pi": eff.t_pi,
        "error": "",
    }
    if spec.mc_samples is not None:
        z_mc, se = zeta_mc_oracle(config, n_samples=spec.mc_samples,
                                  seed=_point_seed(spec.seed, index))
        row.update(zeta_mc_re=z_mc.real, zeta_mc_im=z_mc.imag, zeta_mc_se=abs(se))
    # grid metrics are skipped (not fatal) when the slice would cross the
    # pair singularity; the overlap and efficiency columns stay valid
    try:
        phased = phased_joint_grid(config, "par")
    except OverlapError as exc:
        row["error"] = f"grid metrics skipped: {exc}"
        return row
    mmap = momentum_map(phased)
    c1, c2 = momentum_centroid(mmap)
    ecc, _angle = ellipse_metrics(mmap)
    row.update(centroid_k1=c1, centroid_k2=c2, ecc_numeric=ecc,
               entropy=entanglement_entropy(phased))
    return row


def _evaluate_point(columns, param, value, compute, *args) -> tuple[dict, dict]:
    """CSV row and manifest entry of one sweep point, ``compute(*args)``.

    A physics failure becomes a failed row that gives the reason; every
    warning raised while the point is evaluated is recorded in both.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            row = compute(*args)
        except Exception as exc:  # noqa: BLE001 - recorded, not silenced
            row = {c: "" for c in columns}
            row.update(sweep_param=param, sweep_value=value, status="failed",
                       error=f"{type(exc).__name__}: {exc}")
    raised = [f"{w.category.__name__}: {w.message}" for w in caught]
    row["warnings"] = " | ".join(raised)
    point = {"param": param, "value": value, "status": row["status"]}
    if row["error"]:
        point["error"] = row["error"]
    point["warnings"] = raised
    return row, point


def _swap_error_row(base: GateConfig, value: float, seed: int) -> dict:
    """Mean and spread of the swap fidelity under one positioning-error width."""
    mp, sp = swap_error_average_fidelity(base, "par", value, n_samples=400, seed=seed)
    mq, sq = swap_error_average_fidelity(base, "perp", value, n_samples=400, seed=seed)
    return {"sweep_param": "err_sigma", "sweep_value": value, "status": "ok",
            "F_mean_par": mp, "F_std_par": sp, "F_mean_perp": mq, "F_std_perp": sq,
            "error": ""}


def _iter_sweep_configs(spec: ExperimentSpec):
    """Yield (value, config, param) per sweep point for the generic sweeps."""
    name = spec.name
    param = spec.sweep_param
    for value in spec.sweep_values:
        if name == "fidelity-vs-separation":
            yield value, _with_separation(spec.base, value), param
        elif name == "entropy-vs-fidelity":
            yield value, spec.base.replace(c6=spec.base.c6 * value), param
        elif name == "fidelity-vs-width":
            for field_name in ("w_par", "w_perp"):
                p1 = dataclasses.replace(spec.base.profile1, **{field_name: value})
                p2 = dataclasses.replace(spec.base.profile2, **{field_name: value})
                yield value, spec.base.replace(profile1=p1, profile2=p2), \
                    f"profile.{field_name}"
        else:
            raise AssertionError(name)


def _write_csv(path: Path, columns, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _density_csv(path: Path, mmap):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["K1", "K2", "density"])
        for i, k1 in enumerate(mmap.k1_axis):
            for j, k2 in enumerate(mmap.k2_axis):
                writer.writerow([float(k1), float(k2), float(mmap.density[i, j])])


def run_experiment(spec: ExperimentSpec) -> dict:
    """Execute one experiment; write CSV datasets plus a JSON manifest.

    Physics failures at individual sweep points are recorded as explicit
    failure rows and manifest entries instead of aborting the sweep.
    Returns the manifest dictionary.
    """
    started = time.time()
    outdir = spec.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    outputs: list[str] = []
    points: list[dict] = []
    rows: list[dict] = []

    if spec.name in ("fidelity-vs-separation", "fidelity-vs-width",
                     "entropy-vs-fidelity"):
        for index, (value, config, param) in enumerate(_iter_sweep_configs(spec)):
            row, point = _evaluate_point(SWEEP_COLUMNS, param, value, _sweep_row,
                                         spec, config, param, value, index)
            rows.append(row)
            points.append(point)
        csv_path = outdir / f"{spec.name}.csv"
        _write_csv(csv_path, SWEEP_COLUMNS, rows)
        outputs.append(csv_path.name)

    elif spec.name == "swap-error":
        base = spec.base
        if not isinstance(base.protocol, Swap):
            base = base.replace(protocol=Swap())
        for index, value in enumerate(spec.sweep_values):
            row, point = _evaluate_point(SWAP_ERROR_COLUMNS, "err_sigma", value,
                                         _swap_error_row, base, value,
                                         _point_seed(spec.seed, index))
            rows.append(row)
            points.append(point)
        csv_path = outdir / "swap-error.csv"
        _write_csv(csv_path, SWAP_ERROR_COLUMNS, rows)
        outputs.append(csv_path.name)

    elif spec.name == "momentum-map":
        plain = build_joint_grid(spec.base, "par")
        before = momentum_map(plain)
        direct = momentum_map(apply_interaction_phase(
            plain, spec.base.replace(protocol=Direct())))
        swapped = momentum_map(apply_interaction_phase(
            plain, spec.base.replace(protocol=Swap())))
        for label, mmap in (("before", before), ("direct", direct),
                            ("swap", swapped)):
            path = outdir / f"momentum-map-{label}.csv"
            _density_csv(path, mmap)
            outputs.append(path.name)
            c1, c2 = momentum_centroid(mmap)
            ecc, angle = ellipse_metrics(mmap)
            points.append({"param": "map", "value": label, "status": "ok",
                           "centroid": [c1, c2], "eccentricity": ecc,
                           "angle": angle})

    elif spec.name == "angular":
        dist = angular_distribution(spec.base)
        path = outdir / "angular.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["angle", "before_1", "before_2", "after_1", "after_2"])
            for i, theta in enumerate(dist.angles):
                writer.writerow([
                    float(theta), float(dist.before_1[i]), float(dist.before_2[i]),
                    float(dist.after_1[i]), float(dist.after_2[i]),
                ])
        outputs.append(path.name)
        points.append({"param": "angular", "value": "histogram", "status": "ok"})

    manifest = {
        "experiment": spec.name,
        "tool_version": __version__,
        "seed": spec.seed,
        "mc_samples": spec.mc_samples,
        "sweep_param": spec.sweep_param,
        "sweep_values": list(spec.sweep_values),
        "config": config_to_dict(spec.base),
        "c6_note": (
            "c6 obtained from phase calibration, not atomic-structure data"
            if spec.base.c6_calibrated else ""
        ),
        "points": points,
        "outputs": outputs,
        "wall_time_s": round(time.time() - started, 3),
    }
    with open(outdir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest
