"""Experiment orchestration: named sweeps, CSV datasets and run manifests.

``EXPERIMENTS`` holds one entry per study from the gate analysis (momentum
maps, fidelity and efficiency versus separation, width anisotropy, the
entropy-fidelity relation, swap positioning errors, and retrieval angles):
its sweep label, its default sweep values, and how each point's
configuration and CSV row are built.  The experiment names, the default
sweeps and the checks of an ``ExperimentSpec`` all read that table.  Sweep
defaults reconstruct the visible axis ranges of those studies and are
documented as reconstructions, not ground truth.  Every input either changes
a result or is rejected: the two maps take no sweep values, and only the
overlap sweeps take Monte Carlo samples.

Every overlap in a sweep row comes from ``numerics.zeta`` with its accuracy
check, the one entry point that also enforces the singularity guard, so a
point the guard rejects is written as a failed row that gives the reason.
Warnings raised while a point is evaluated are recorded in its row and its
manifest entry.  The Monte Carlo oracle runs only when ``mc_samples`` is
set: one call for the configured protocol fills the ``zeta_mc_*`` columns as
a cross-check.

Reproducibility contract: an identical config produces byte-identical CSVs.
The master seed is the base configuration's ``rng_seed``; per-point Monte
Carlo seeds (for the ``zeta_mc_*`` columns and the swap-error samples) are
derived deterministically from (master seed, point index) via
``numpy.random.SeedSequence``.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

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
    """One named experiment: base configuration plus a sweep.

    The base configuration's ``rng_seed`` is the master seed.  A sweep
    experiment given no ``sweep_values`` runs its default values.
    """

    name: str
    base: GateConfig
    output_dir: Path
    sweep_values: tuple = ()
    mc_samples: int | None = None    # Monte Carlo cross-check samples; None: off

    def __post_init__(self):
        experiment = EXPERIMENTS.get(self.name)
        if experiment is None:
            raise ConfigError(f"unknown experiment {self.name!r}")
        values = tuple(float(v) for v in self.sweep_values) or experiment.defaults
        object.__setattr__(self, "sweep_values", values)
        object.__setattr__(self, "output_dir", Path(self.output_dir))
        if values and experiment.configs is None:
            raise ConfigError(f"{self.name} sweeps nothing; it takes no sweep values")
        if self.mc_samples is not None:
            if self.mc_samples < 1:
                raise ConfigError("mc_samples must be >= 1")
            if experiment.row is not _sweep_row:
                raise ConfigError(f"{self.name} has no Monte Carlo columns; "
                                  "it takes no mc_samples")
        diffs = np.diff(values)
        if len(values) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ConfigError("sweep values must be strictly monotone")


def default_sweep(name: str) -> tuple[str, tuple[float, ...]]:
    """Sweep label and reconstructed default values of an experiment."""
    experiment = EXPERIMENTS[name]
    return experiment.param, experiment.defaults


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


def _with_width(config: GateConfig, field_name: str, w: float) -> GateConfig:
    p1 = dataclasses.replace(config.profile1, **{field_name: w})
    p2 = dataclasses.replace(config.profile2, **{field_name: w})
    return config.replace(profile1=p1, profile2=p2)


def _sweep_row(spec: ExperimentSpec, config: GateConfig, _value: float,
               seed: int) -> dict:
    """Overlap, fidelity, momentum and efficiency columns of one point."""
    zd = zeta(config.replace(protocol=Direct()))
    zs = zeta(config.replace(protocol=Swap()))
    z = zs if isinstance(config.protocol, Swap) else zd
    coeffs = expansion_coefficients(config)
    eff = pair_efficiency(config)
    row = {
        "zeta_re": z.real,
        "zeta_im": z.imag,
        "F_direct": fidelity_from_zeta(zd),
        "F_swap": fidelity_from_zeta(zs),
        "kD_analytic": coeffs.k_D,
        "ecc_analytic": coeffs.e_par,
        "eta_photon1": eff.photon1,
        "eta_photon2": eff.photon2,
        "eta_pair": eff.pair,
        "t_pi": eff.t_pi,
    }
    if spec.mc_samples is not None:
        z_mc, se = zeta_mc_oracle(config, n_samples=spec.mc_samples, seed=seed)
        row.update(zeta_mc_re=z_mc.real, zeta_mc_im=z_mc.imag, zeta_mc_se=abs(se))
    # grid metrics are skipped (not fatal) when the slice would cross the
    # pair singularity; the overlap and efficiency columns stay valid
    try:
        phased = phased_joint_grid(config)
    except OverlapError as exc:
        row["error"] = f"grid metrics skipped: {exc}"
        return row
    # entropy before the map: its SVD copies are gone before the map's grids
    row["entropy"] = entanglement_entropy(phased)
    mmap = momentum_map(phased)
    c1, c2 = momentum_centroid(mmap)
    ecc, _angle = ellipse_metrics(mmap)
    row.update(centroid_k1=c1, centroid_k2=c2, ecc_numeric=ecc)
    return row


def _swap_error_row(_spec: ExperimentSpec, config: GateConfig, value: float,
                    seed: int) -> dict:
    """Mean and spread of the swap fidelity under one positioning-error width."""
    mp, sp = swap_error_average_fidelity(config, "par", value, n_samples=400, seed=seed)
    mq, sq = swap_error_average_fidelity(config, "perp", value, n_samples=400, seed=seed)
    return {"F_mean_par": mp, "F_std_par": sp, "F_mean_perp": mq, "F_std_perp": sq}


def _density_rows(mmap):
    k1, k2 = np.meshgrid(mmap.k1_axis, mmap.k2_axis, indexing="ij")
    return zip(k1.ravel().tolist(), k2.ravel().tolist(), mmap.density.ravel().tolist())


def _momentum_map_files(base: GateConfig):
    """Density CSVs before the interaction and after each protocol."""
    plain = build_joint_grid(base)
    files, points = [], []
    for label, protocol in (("before", None), ("direct", Direct()), ("swap", Swap())):
        grid = plain if protocol is None else \
            apply_interaction_phase(plain, base.replace(protocol=protocol))
        mmap = momentum_map(grid)
        files.append((f"momentum-map-{label}.csv", ("K1", "K2", "density"),
                      _density_rows(mmap)))
        c1, c2 = momentum_centroid(mmap)
        ecc, angle = ellipse_metrics(mmap)
        points.append({"param": "map", "value": label, "status": "ok",
                       "centroid": [c1, c2], "eccentricity": ecc, "angle": angle})
    return files, points


def _angular_files(base: GateConfig):
    """Retrieval-angle histograms of both excitations, before and after."""
    dist = angular_distribution(base)
    series = (dist.angles, dist.before_1, dist.before_2, dist.after_1, dist.after_2)
    return ([("angular.csv", ("angle", "before_1", "before_2", "after_1", "after_2"),
              zip(*(s.tolist() for s in series)))],
            [{"param": "angular", "value": "histogram", "status": "ok"}])


@dataclass(frozen=True)
class _Experiment:
    """One study: what it sweeps and how it builds each point, or its maps.

    A sweep sets ``configs`` (base config and sweep value to the (row label,
    config) pairs of that value) and ``row`` (the ``columns`` a point fills,
    from the spec, its config, its value and its seed).  A map sweeps
    nothing: it sets ``files`` (base config to the (file name, header, rows)
    it writes and its manifest points) and no ``row``.
    """

    param: str = ""
    defaults: tuple = ()
    configs: Callable | None = None
    row: Callable = _sweep_row
    columns: tuple = SWEEP_COLUMNS
    files: Callable | None = None


EXPERIMENTS = {
    "momentum-map": _Experiment(row=None, files=_momentum_map_files),
    "fidelity-vs-separation": _Experiment(
        "separation", tuple(float(d) for d in range(15, 31)),
        lambda base, d: [("separation", _with_separation(base, d))]),
    "fidelity-vs-width": _Experiment(
        "width", (8.0, 7.0, 6.0, 5.0, 4.0, 3.0),
        lambda base, w: [(f"profile.{f}", _with_width(base, f, w))
                         for f in ("w_par", "w_perp")]),
    "entropy-vs-fidelity": _Experiment(
        "c6_scale", tuple(round(0.1 * i, 3) for i in range(1, 11)),
        lambda base, s: [("c6_scale", base.replace(c6=base.c6 * s))]),
    "swap-error": _Experiment(
        "err_sigma", (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0),
        lambda base, _sigma: [("err_sigma", base.replace(protocol=Swap()))],
        _swap_error_row, SWAP_ERROR_COLUMNS),
    "angular": _Experiment(row=None, files=_angular_files),
}

EXPERIMENT_NAMES = tuple(EXPERIMENTS)


def _evaluate_point(columns, param, value, compute, *args) -> tuple[dict, dict]:
    """CSV row and manifest entry of one sweep point, ``compute(*args)``.

    A physics failure becomes a failed row that gives the reason; every
    warning raised while the point is evaluated is recorded in both.
    """
    row = dict.fromkeys(columns, "")
    row.update(sweep_param=param, sweep_value=value, status="ok")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            row.update(compute(*args))
        except Exception as exc:  # noqa: BLE001 - recorded, not silenced
            row.update(status="failed", error=f"{type(exc).__name__}: {exc}")
    raised = [f"{w.category.__name__}: {w.message}" for w in caught]
    row["warnings"] = " | ".join(raised)
    point = {"param": param, "value": value, "status": row["status"]}
    if row["error"]:
        point["error"] = row["error"]
    point["warnings"] = raised
    return row, point


def _sweep_files(spec: ExperimentSpec, experiment: _Experiment):
    """One CSV row and manifest point per (value, label) of the sweep."""
    pairs = ((value, label, config) for value in spec.sweep_values
             for label, config in experiment.configs(spec.base, value))
    rows, points = [], []
    for index, (value, label, config) in enumerate(pairs):
        row, point = _evaluate_point(
            experiment.columns, label, value, experiment.row,
            spec, config, value, _point_seed(spec.base.rng_seed, index))
        rows.append([row[c] for c in experiment.columns])
        points.append(point)
    return [(f"{spec.name}.csv", experiment.columns, rows)], points


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def run_experiment(spec: ExperimentSpec) -> dict:
    """Execute one experiment; write CSV datasets plus a JSON manifest.

    Physics failures at individual sweep points are recorded as explicit
    failure rows and manifest entries instead of aborting the sweep.
    Returns the manifest dictionary.
    """
    started = time.perf_counter()
    experiment = EXPERIMENTS[spec.name]
    spec.output_dir.mkdir(parents=True, exist_ok=True)
    if experiment.files is None:
        files, points = _sweep_files(spec, experiment)
    else:
        files, points = experiment.files(spec.base)
    for file_name, header, rows in files:
        _write_csv(spec.output_dir / file_name, header, rows)

    manifest = {
        "experiment": spec.name,
        "tool_version": __version__,
        "seed": spec.base.rng_seed,
        "mc_samples": spec.mc_samples,
        "sweep_param": experiment.param,
        "sweep_values": list(spec.sweep_values),
        "config": config_to_dict(spec.base),
        "c6_note": (
            "c6 obtained from phase calibration, not atomic-structure data"
            if spec.base.c6_calibrated else ""
        ),
        "points": points,
        "outputs": [file_name for file_name, _, _ in files],
        "wall_time_s": round(time.perf_counter() - started, 3),
    }
    with open(spec.output_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest
