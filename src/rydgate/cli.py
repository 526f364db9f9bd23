"""Command-line interface: validate configs, calibrate c6, run experiments.

Exit codes: 0 on success, 1 on physics or runtime failures, 2 on
configuration errors (bad files, bad keys, bad command-line values).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .core import (
    ConfigError,
    PhysicsError,
    calibrate_c6,
    read_ini,
    validate_config,
)
from .core import _parse_float  # shared "pi" literal handling
from .harness import (
    EXPERIMENT_NAMES,
    ExperimentSpec,
    run_experiment,
)

#: Configuration used when no --config file is given: two clouds 21 um
#: apart, 3 um by 8 um widths, with c6 calibrated to a pi phase in 5 us.
DEFAULT_CONFIG_RAW = {
    "profile1": {"w_par": "3", "w_perp": "8"},
    "profile2": {"w_par": "3", "w_perp": "8"},
    "geometry": {"separation": "21 0 0"},
    "interaction": {"calibrate_time": "5", "calibrate_phase": "pi"},
    "protocol": {"name": "swap"},
}


def _raw_from_args(args) -> dict:
    if args.config:
        raw = read_ini(args.config)
    else:
        raw = {section: dict(keys) for section, keys in DEFAULT_CONFIG_RAW.items()}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected section.key=value")
        key, _, value = item.partition("=")
        if "." not in key:
            raise ConfigError(f"--set {item!r}: expected section.key=value")
        section, _, name = key.partition(".")
        raw.setdefault(section, {})[name] = value
    if args.seed is not None:
        raw.setdefault("run", {})["seed"] = str(args.seed)
    return raw


def _cmd_validate(args) -> int:
    config = validate_config(_raw_from_args(args))
    print(f"config ok: separation {config.separation_mag:g} um, "
          f"c6 {config.c6:.6g} rad*um^6/us, t_int {config.t_int:g} us, "
          f"protocol {type(config.protocol).__name__.lower()}")
    return 0


def _cmd_calibrate(args) -> int:
    usage = ("calibrate needs --set separation=<um> --set time=<us> "
             "[--set phase=<rad|pi>]")
    keys = ("separation", "time", "phase")
    flat = {"phase": "pi"}
    for item in args.set or []:
        key, eq, value = item.partition("=")
        if not eq or key.strip() not in keys:
            raise ConfigError(f"--set {item!r}: {usage}")
        flat[key.strip()] = value
    if len(flat) < len(keys):
        raise ConfigError(usage)
    d, t, phase = (_parse_float(flat[key], key) for key in keys)
    c6 = calibrate_c6(d, t, phase)
    print(f"c6 = {c6:.6g} rad*um^6/us "
          f"(separation {d:g} um, time {t:g} us, phase {phase:g} rad)")
    return 0


def _cmd_list(_args) -> int:
    for name in EXPERIMENT_NAMES:
        print(name)
    return 0


def _cmd_run(args) -> int:
    config = validate_config(_raw_from_args(args))
    name = args.experiment
    values = tuple(_parse_float(v, "--sweep") for v in args.sweep.split(",")) \
        if args.sweep else ()
    outdir = Path(args.out or os.environ.get("RYDGATE_OUT", "rydgate-out")) / name
    spec = ExperimentSpec(name=name, base=config, output_dir=outdir,
                          sweep_values=values, mc_samples=args.mc_samples)
    manifest = run_experiment(spec)
    failed = [p for p in manifest["points"] if p.get("status") == "failed"]
    print(json.dumps(
        {
            "experiment": name,
            "output_dir": str(outdir),
            "outputs": manifest["outputs"],
            "points_failed": len(failed),
            "wall_time_s": manifest["wall_time_s"],
        },
        indent=2,
    ))
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rydgate",
        description="van der Waals photon-photon gate simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI config file")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override one config value (repeatable)")
        p.add_argument("--seed", type=int, help="master random seed "
                       "(sets run.seed)")

    run = sub.add_parser("run", help="run one experiment sweep")
    common(run)
    run.add_argument("--experiment", required=True, choices=EXPERIMENT_NAMES)
    run.add_argument("--out", help="output directory "
                     "(default $RYDGATE_OUT or ./rydgate-out)")
    run.add_argument("--sweep", help="comma-separated sweep values "
                     "(default: built-in range; the maps take none)")
    run.add_argument("--mc-samples", type=int, default=None,
                     help="Monte Carlo samples of an independent overlap "
                          "cross-check written to the zeta_mc_* columns of "
                          "the fidelity and entropy sweeps "
                          "(default: no cross-check)")
    run.set_defaults(func=_cmd_run)

    val = sub.add_parser("validate", help="validate a configuration")
    common(val)
    val.set_defaults(func=_cmd_validate)

    cal = sub.add_parser(
        "calibrate",
        help="compute c6 from a target phase: "
             "--set separation=21 --set time=5 --set phase=pi",
    )
    cal.add_argument("--set", action="append", metavar="KEY=VALUE")
    cal.set_defaults(func=_cmd_calibrate)

    lst = sub.add_parser("list-experiments", help="list experiment names")
    lst.set_defaults(func=_cmd_list)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PhysicsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
