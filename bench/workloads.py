"""The benchmark workloads: seeded inputs, timed bodies, output checks.

Each workload drives rydgate through a public entry point, one closed loop
from one caller: ``rydgate.cli.main([...])`` for the sweep and
``rydgate.numerics.gate_metrics`` for library use.  A *body* is one fixed
amount of work (one sweep, or one batch of calls); the run repeats bodies
until its time is spent.  The benchmark seed decides every input rydgate
receives: the gate-point working points and each sweep's master seed.

There are two workloads, so that each run can be long enough to average
over the speed changes of a small shared machine: the headline sweep (Monte
Carlo overlaps, grid, phase, FFT and SVD; no ``zeta`` quadrature) and the
library call (the ``zeta`` quadrature and its singularity guard; no Monte
Carlo).  Between them every rydgate module is exercised.

Output checks run after the timed loop, so that neither their time nor
their memory lands in the measured figures.  Overlap tolerances come from
each estimator's own error: the Monte Carlo standard error bound
``sqrt((1 - |zeta|^2) / n)`` for sampled overlaps, and the node-doubling
change for quadrature overlaps.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference

WORKLOADS = ("sweep-separation", "gate-point")

#: multiple of an estimator's standard error an output may deviate by
SIGMAS = 6.0

#: accuracy of the reference over every working point the workloads use, as
#: its self-convergence shows (the self-test checks it at the headline point);
#: smaller errors are reported at this floor
REFERENCE_TOL = 1e-9

#: rydgate's zeta(check=True) warns when node doubling moves it more than this
ZETA_CONVERGED = 1e-6


@dataclass(frozen=True)
class Size:
    """Problem sizes; ``FULL`` is the benchmark, ``TINY`` the self-test smoke."""

    sweep: str | None            # sweep-separation --sweep (None: default 16 points)
    mc_samples: int | None       # sweep-separation --mc-samples (None: default)
    gate_batch: int              # gate_metrics calls per body
    gate_grid: int               # grid points per axis of gate-point configs


FULL = Size(sweep=None, mc_samples=None, gate_batch=8, gate_grid=256)
TINY = Size(sweep="20,24", mc_samples=20_000, gate_batch=2, gate_grid=64)
SIZES = {"full": FULL, "tiny": TINY}


def derive_seed(seed: int, *path: int) -> int:
    """A 32-bit seed for one workload input, fixed by the benchmark seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def default_raw() -> dict:
    from rydgate.cli import DEFAULT_CONFIG_RAW
    return {section: dict(keys) for section, keys in DEFAULT_CONFIG_RAW.items()}


def fidelity_tolerance(zeta_tol: float) -> float:
    """|dF| <= |dzeta| / F and F >= 1/2 for any overlap in the unit disk."""
    return 2.0 * zeta_tol


@dataclass
class Outcome:
    """Output-check totals and accuracy over one run."""

    attempted: int = 0
    failed: int = 0
    zeta_errors: list = field(default_factory=list)
    fidelity_errors: list = field(default_factory=list)
    bytes_written: int = 0
    notes: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def unit(self, ok: bool, note: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)


class Workload:
    """One workload: ``prepare`` is set-up, ``body`` the timed work."""

    name = ""
    unit = ""

    def __init__(self, seed: int, size: Size, outdir: Path):
        self.seed = seed
        self.size = size
        self.outdir = Path(outdir)
        self.bodies: list = []         # what each body produced, for the checks
        self.latencies: list = []      # per work unit, seconds

    def prepare(self) -> None:
        raise NotImplementedError

    def body(self, k: int) -> int:
        """Run body ``k``; return the number of work units it completed."""
        raise NotImplementedError

    def after_body(self, k: int, seconds: float, units: int) -> None:
        """Untimed bookkeeping after body ``k`` (default: mean unit latency)."""
        self.latencies.append(seconds / max(units, 1))

    def check(self, out: Outcome) -> None:
        raise NotImplementedError

    def bytes_in(self, directory: Path) -> int:
        return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class SweepSeparation(Workload):
    """``rydgate run --experiment fidelity-vs-separation`` at its defaults."""

    name = "sweep-separation"
    unit = "sweep point"

    def prepare(self) -> None:
        import rydgate
        from rydgate.harness import default_sweep
        self.base = rydgate.validate_config(default_raw())
        _, values = default_sweep("fidelity-vs-separation")
        self.values = values if self.size.sweep is None else tuple(
            float(v) for v in self.size.sweep.split(","))
        self.mc_samples = self.size.mc_samples or 200_000

    def argv(self, k: int) -> list[str]:
        argv = ["run", "--experiment", "fidelity-vs-separation",
                "--out", str(self.outdir), "--seed", str(derive_seed(self.seed, 1, k))]
        if self.size.sweep is not None:
            argv += ["--sweep", self.size.sweep]
        if self.size.mc_samples is not None:
            argv += ["--mc-samples", str(self.size.mc_samples)]
        return argv

    def body(self, k: int) -> int:
        import rydgate.cli
        code = rydgate.cli.main(self.argv(k))
        self.last_code = code
        return len(self.values)

    def after_body(self, k, seconds, units):
        super().after_body(k, seconds, units)
        directory = self.outdir / "fidelity-vs-separation"
        self.bodies.append((self.last_code, _read_rows(directory / "fidelity-vs-separation.csv"),
                            self.bytes_in(directory)))

    def _problem(self, d: float, swap: bool) -> reference.Problem:
        base = reference.problem_from_config(self.base)
        # the sweep re-times every point to a pi centre phase: c6 t = pi d^6
        return reference.Problem(d=d, s=base.s, sp=base.sp,
                                  ct=math.copysign(math.pi * d**6, self.base.c6),
                                  swap=swap)

    def check(self, out: Outcome) -> None:
        refs = {}
        for d in self.values:
            refs[d] = {swap: reference.zeta_ref(self._problem(d, swap)) for swap in (False, True)}
        for code, rows, written in self.bodies:
            out.bytes_written += written
            if code != 0 or len(rows) != len(self.values):
                out.attempted += len(self.values)
                out.failed += len(self.values)
                out.notes.append(f"exit code {code}, {len(rows)} rows")
                continue
            for row, d in zip(rows, self.values):
                try:
                    self._check_row(row, d, refs[d], out)
                except (KeyError, ValueError) as exc:
                    out.unit(False, f"d={d}: unreadable row ({exc})")

    def _check_row(self, row, d, ref, out):
        z = complex(float(row["zeta_re"]), float(row["zeta_im"]))
        tol = {swap: SIGMAS * math.sqrt(max(0.0, 1.0 - abs(r) ** 2) / self.mc_samples)
               for swap, r in ref.items()}
        errs = {
            "zeta": abs(z - ref[True]),
            "F_direct": abs(float(row["F_direct"]) - reference.fidelity(ref[False])),
            "F_swap": abs(float(row["F_swap"]) - reference.fidelity(ref[True])),
        }
        out.zeta_errors.append(errs["zeta"])
        out.fidelity_errors += [errs["F_direct"], errs["F_swap"]]
        ok = (row["status"] == "ok" and row["error"] == ""
              and float(row["sweep_value"]) == d
              and errs["zeta"] <= tol[True]
              and errs["F_direct"] <= fidelity_tolerance(tol[False])
              and errs["F_swap"] <= fidelity_tolerance(tol[True]))
        out.unit(ok, f"d={d}: status={row['status']} errors={errs}")


class GatePoint(Workload):
    """Repeated ``gate_metrics(config)`` calls at seeded working points."""

    name = "gate-point"
    unit = "gate_metrics call"

    def prepare(self) -> None:
        import rydgate
        self.flagged = self.underestimated = 0
        self.rng = np.random.default_rng(derive_seed(self.seed, 3))
        self.validate = rydgate.validate_config
        self.next_batch = self._batch()

    def _working_point(self) -> dict:
        """A raw config inside the region where both singularity guards pass.

        The grid guard needs d > 5 w_par at the default 5-sigma extent; with
        d >= 17 and w_par <= 3 it holds with margin, and the origin-mass
        guard (d / std >= 7 along the separation) holds throughout.
        """
        r = self.rng
        d = r.uniform(17.0, 30.0)
        w_par = r.uniform(2.0, 3.0)
        w_perp = r.uniform(4.0, 10.0)
        phase = r.uniform(0.5 * math.pi, math.pi)
        profile = {"w_par": repr(w_par), "w_perp": repr(w_perp)}
        return {
            "profile1": dict(profile),
            "profile2": dict(profile),
            "geometry": {"separation": f"{d!r} 0 0"},
            "interaction": {"calibrate_time": "5", "calibrate_phase": repr(phase)},
            "protocol": {"name": "swap" if r.random() < 0.5 else "direct"},
            "grid": {"points_per_axis": str(self.size.gate_grid)},
        }

    def _batch(self) -> list:
        return [self.validate(self._working_point()) for _ in range(self.size.gate_batch)]

    def body(self, k: int) -> int:
        from rydgate.numerics import gate_metrics
        configs, self.next_batch = self.next_batch, None
        results = []
        for config in configs:
            t0 = time.perf_counter()
            metrics = gate_metrics(config)
            results.append((config, metrics, time.perf_counter() - t0))
        self.last = results
        return len(results)

    def after_body(self, k, seconds, units):
        self.latencies += [t for _, _, t in self.last]
        self.bodies.append(self.last)
        self.next_batch = self._batch()

    def check(self, out: Outcome) -> None:
        """Check each call against what ``zeta(check=True)`` promises.

        A result whose node doubling moved it by at most ``ZETA_CONVERGED``
        is unflagged and must be that close to the reference.  A larger move
        raises an AccuracyWarning: the result is flagged as possibly
        inaccurate and carries no tolerance.  Flagged results, and those
        whose error exceeds their own doubling change, are counted.
        """
        from rydgate.numerics import zeta
        for results in self.bodies:
            for config, m, _ in results:
                ref = reference.zeta_ref(reference.problem_from_config(config))
                delta = abs(zeta(config, nodes=64, check=False) - m.zeta)
                z_err = abs(m.zeta - ref)
                out.zeta_errors.append(z_err)
                out.fidelity_errors.append(abs(m.fidelity - reference.fidelity(ref)))
                flagged = delta > ZETA_CONVERGED
                self.flagged += flagged
                self.underestimated += z_err > delta + REFERENCE_TOL
                values = (m.k_centroid_1, m.k_centroid_2, m.eccentricity,
                          m.ellipse_angle, m.entropy)
                ok = ((flagged or z_err <= ZETA_CONVERGED + REFERENCE_TOL)
                      and abs(m.fidelity - reference.fidelity(m.zeta)) <= 1e-12
                      and all(math.isfinite(v) for v in values)
                      and 0.0 <= m.eccentricity <= 1.0 and m.entropy >= 0.0)
                out.unit(ok, f"d={config.separation_mag:.3f}: zeta err {z_err:.2e}, "
                             f"doubling change {delta:.2e}")
        out.extra["flagged"] = self.flagged
        out.extra["error_above_doubling_change"] = self.underestimated


CLASSES = {cls.name: cls for cls in (SweepSeparation, GatePoint)}


def make(name: str, seed: int, size: Size, outdir: Path) -> Workload:
    return CLASSES[name](seed, size, outdir)


def prepare(name: str, seed: int, size_name: str, outdir: str) -> None:
    """Set-up only: import rydgate, build and validate the first configs."""
    make(name, seed, SIZES[size_name], Path(outdir)).prepare()
