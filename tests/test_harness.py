import csv
import json
import math

import numpy as np
import pytest

from rydgate.core import ConfigError, Direct, Swap
from rydgate.harness import (
    EXPERIMENT_NAMES,
    SWAP_ERROR_COLUMNS,
    SWEEP_COLUMNS,
    ExperimentSpec,
    _with_separation,
    config_to_dict,
    default_sweep,
    run_experiment,
)
from rydgate.numerics import (
    apply_interaction_phase,
    build_joint_grid,
    fidelity_from_zeta,
    momentum_map,
    zeta,
)
from rydgate import cli

from conftest import make_config


MC_COLUMNS = ("zeta_mc_re", "zeta_mc_im", "zeta_mc_se")


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def width_sweep(tmp_path_factory):
    """Width sweep at d = 21: guard failure, warning, grid skip."""
    out = tmp_path_factory.mktemp("width")
    spec = ExperimentSpec(
        name="fidelity-vs-width", base=make_config(), output_dir=out,
        sweep_values=(8.0, 6.5, 5.0))
    manifest = run_experiment(spec)
    rows = {(r["sweep_param"], float(r["sweep_value"])): r
            for r in read_rows(out / "fidelity-vs-width.csv")}
    points = {(p["param"], p["value"]): p for p in manifest["points"]}
    return rows, points


class TestSpec:
    def test_unknown_experiment(self, tmp_path, paper_point):
        with pytest.raises(ConfigError):
            ExperimentSpec(name="warp", base=paper_point, output_dir=tmp_path)

    def test_non_monotone_sweep(self, tmp_path, paper_point):
        with pytest.raises(ConfigError):
            ExperimentSpec(name="swap-error", base=paper_point,
                           output_dir=tmp_path, sweep_values=(0.0, 1.0, 0.5))

    @pytest.mark.parametrize("name", ["momentum-map", "angular"])
    def test_maps_take_no_sweep_values(self, tmp_path, paper_point, name):
        with pytest.raises(ConfigError, match="no sweep values"):
            ExperimentSpec(name=name, base=paper_point, output_dir=tmp_path,
                           sweep_values=(1.0, 2.0))

    @pytest.mark.parametrize("name", ["swap-error", "momentum-map", "angular"])
    def test_mc_samples_only_for_overlap_sweeps(self, tmp_path, paper_point, name):
        with pytest.raises(ConfigError, match="no mc_samples"):
            ExperimentSpec(name=name, base=paper_point, output_dir=tmp_path,
                           mc_samples=5)

    def test_default_sweeps_exist(self):
        for name in EXPERIMENT_NAMES:
            param, values = default_sweep(name)
            if name not in ("momentum-map", "angular"):
                assert param and len(values) > 1


class TestRunExperiment:
    def test_empty_sweep_runs_defaults(self, tmp_path):
        spec = ExperimentSpec(name="fidelity-vs-separation",
                              base=make_config(n=64), output_dir=tmp_path)
        manifest = run_experiment(spec)
        rows = read_rows(tmp_path / "fidelity-vs-separation.csv")
        defaults = list(default_sweep("fidelity-vs-separation")[1])
        assert len(rows) == 16
        assert [float(r["sweep_value"]) for r in rows] == defaults
        assert manifest["sweep_values"] == defaults

    def test_separation_sweep_outputs(self, tmp_path, paper_point):
        spec = ExperimentSpec(
            name="fidelity-vs-separation", base=make_config(rng_seed=3),
            output_dir=tmp_path, sweep_values=(18.0, 22.0), mc_samples=20_000)
        manifest = run_experiment(spec)
        rows = read_rows(tmp_path / "fidelity-vs-separation.csv")
        assert [r["status"] for r in rows] == ["ok", "ok"]
        # the sweep label comes from the experiment table
        assert [r["sweep_param"] for r in rows] == ["separation"] * 2
        assert manifest["sweep_param"] == "separation"
        assert manifest["seed"] == 3
        assert list(rows[0]) == list(SWEEP_COLUMNS)
        assert manifest["config"]["c6_calibrated"] is True
        assert "calibration" in manifest["c6_note"]
        assert (tmp_path / "manifest.json").exists()
        # pi time rescales with d^6 at fixed c6
        t18 = float(rows[0]["t_pi"])
        t22 = float(rows[1]["t_pi"])
        assert t22 / t18 == pytest.approx((22 / 18) ** 6, rel=1e-9)

    def test_deterministic_bytes(self, tmp_path, paper_point):
        out = []
        for sub in ("a", "b"):
            spec = ExperimentSpec(
                name="entropy-vs-fidelity", base=make_config(rng_seed=11),
                output_dir=tmp_path / sub, sweep_values=(0.5, 1.0),
                mc_samples=20_000)
            run_experiment(spec)
            out.append((tmp_path / sub / "entropy-vs-fidelity.csv").read_bytes())
        assert out[0] == out[1]

    def test_seed_changes_results(self, tmp_path, paper_point):
        # the seed drives only the Monte Carlo cross-check columns
        out = []
        for sub, seed in (("a", 1), ("b", 2)):
            spec = ExperimentSpec(
                name="entropy-vs-fidelity", base=make_config(rng_seed=seed),
                output_dir=tmp_path / sub, sweep_values=(1.0,),
                mc_samples=20_000)
            run_experiment(spec)
            out.append(tmp_path / sub / "entropy-vs-fidelity.csv")
        assert out[0].read_bytes() != out[1].read_bytes()
        (a,), (b,) = read_rows(out[0]), read_rows(out[1])
        assert [c for c in SWEEP_COLUMNS if a[c] != b[c]] == list(MC_COLUMNS)

    def test_mc_columns_cross_check_zeta(self, tmp_path, paper_point):
        for sub, samples in (("off", None), ("on", 20_000)):
            spec = ExperimentSpec(
                name="entropy-vs-fidelity", base=make_config(rng_seed=5),
                output_dir=tmp_path / sub, sweep_values=(0.5, 1.0),
                mc_samples=samples)
            run_experiment(spec)
            rows = read_rows(tmp_path / sub / "entropy-vs-fidelity.csv")
            if samples is None:
                assert all(r[c] == "" for r in rows for c in MC_COLUMNS)
                continue
            for r in rows:
                z = complex(float(r["zeta_re"]), float(r["zeta_im"]))
                z_mc = complex(float(r["zeta_mc_re"]), float(r["zeta_mc_im"]))
                se = float(r["zeta_mc_se"])
                assert 0 < se < 0.01
                assert abs(z_mc - z) <= 6 * se

    def test_sweep_rows_equal_zeta(self, tmp_path, paper_point):
        # every row overlap is the guarded, checked quadrature's, bit for bit
        spec = ExperimentSpec(
            name="fidelity-vs-separation", base=paper_point,
            output_dir=tmp_path, sweep_values=(17.0, 25.0))
        run_experiment(spec)
        for r in read_rows(tmp_path / "fidelity-vs-separation.csv"):
            config = _with_separation(paper_point, float(r["sweep_value"]))
            zd = zeta(config.replace(protocol=Direct()))
            zs = zeta(config.replace(protocol=Swap()))
            assert r["status"] == "ok" and r["warnings"] == ""
            assert complex(float(r["zeta_re"]), float(r["zeta_im"])) == zd
            assert float(r["F_direct"]) == fidelity_from_zeta(zd)
            assert float(r["F_swap"]) == fidelity_from_zeta(zs)

    def test_width_sweep_degrades_gracefully(self, width_sweep):
        rows, points = width_sweep
        assert len(rows) == 6  # two series per sweep value
        assert {param for param, _ in rows} == {"profile.w_par", "profile.w_perp"}
        # w_par = 8 at d = 21: the singularity guard rejects the overlap
        wide = rows["profile.w_par", 8.0]
        assert wide["status"] == "failed"
        assert wide["error"].startswith("OverlapError")
        assert all(wide[c] == "" for c in ("zeta_re", "zeta_im", "F_direct", "F_swap"))
        assert points["profile.w_par", 8.0]["status"] == "failed"
        assert "OverlapError" in points["profile.w_par", 8.0]["error"]
        # w_par = 5 passes the guard, but its slice reaches the singularity:
        # grid metrics are skipped, the overlap columns stay valid
        narrow = rows["profile.w_par", 5.0]
        assert narrow["status"] == "ok"
        assert narrow["error"].startswith("grid metrics skipped")
        assert narrow["entropy"] == ""
        assert all(narrow[c] != "" for c in ("zeta_re", "zeta_im", "F_direct", "F_swap"))
        assert all(rows["profile.w_perp", w]["status"] == "ok" for w in (8.0, 6.5, 5.0))

    def test_width_sweep_records_warnings(self, width_sweep):
        # w_par = 6.5 passes the guard, and its swap overlap moves by more
        # than 1e-6 on doubling
        rows, points = width_sweep
        assert "AccuracyWarning" in rows["profile.w_par", 6.5]["warnings"]
        assert "swap protocol" in rows["profile.w_par", 6.5]["warnings"]
        assert any("AccuracyWarning" in w
                   for w in points["profile.w_par", 6.5]["warnings"])
        assert rows["profile.w_par", 5.0]["warnings"] == ""
        assert points["profile.w_par", 5.0]["warnings"] == []

    def test_swap_error_schema(self, tmp_path, paper_point):
        spec = ExperimentSpec(
            name="swap-error", base=make_config(protocol=Swap(), rng_seed=2),
            output_dir=tmp_path, sweep_values=(0.0, 0.5))
        run_experiment(spec)
        rows = read_rows(tmp_path / "swap-error.csv")
        assert list(rows[0]) == list(SWAP_ERROR_COLUMNS)
        assert float(rows[0]["F_std_par"]) == 0.0
        assert float(rows[1]["F_std_par"]) > 0.0

    def test_momentum_map_outputs(self, tmp_path):
        base = make_config(n=64)
        spec = ExperimentSpec(name="momentum-map", base=base,
                              output_dir=tmp_path)
        manifest = run_experiment(spec)
        for label in ("before", "direct", "swap"):
            assert (tmp_path / f"momentum-map-{label}.csv").exists()
        by_label = {p["value"]: p for p in manifest["points"]}
        assert abs(by_label["direct"]["centroid"][0]) > 10 * abs(
            by_label["swap"]["centroid"][0])

    def test_momentum_map_csv_reads_back_bit_for_bit(self, tmp_path):
        base = make_config(n=64)
        run_experiment(ExperimentSpec(name="momentum-map", base=base,
                                      output_dir=tmp_path))
        plain = build_joint_grid(base)
        grids = {"before": plain}
        for label, protocol in (("direct", Direct()), ("swap", Swap())):
            grids[label] = apply_interaction_phase(
                plain, base.replace(protocol=protocol))
        for label, grid in grids.items():
            mmap = momentum_map(grid)
            with open(tmp_path / f"momentum-map-{label}.csv", newline="") as fh:
                reader = csv.reader(fh)
                assert next(reader) == ["K1", "K2", "density"]
                table = np.array([[float(v) for v in row] for row in reader])
            k1, k2 = np.meshgrid(mmap.k1_axis, mmap.k2_axis, indexing="ij")
            assert np.array_equal(table[:, 0], k1.ravel())
            assert np.array_equal(table[:, 1], k2.ravel())
            assert np.array_equal(table[:, 2], mmap.density.ravel())

    def test_angular_output(self, tmp_path):
        spec = ExperimentSpec(name="angular", base=make_config(n=64),
                              output_dir=tmp_path)
        run_experiment(spec)
        rows = read_rows(tmp_path / "angular.csv")
        assert list(rows[0]) == ["angle", "before_1", "before_2",
                                 "after_1", "after_2"]

    def test_config_roundtrip_dict(self, paper_point):
        d = config_to_dict(paper_point.replace(protocol=Swap()))
        assert d["protocol"] == {"name": "swap"}
        assert json.dumps(d)  # serializable


class TestCli:
    def test_list_experiments(self, capsys):
        assert cli.main(["list-experiments"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == set(EXPERIMENT_NAMES)

    def test_validate_default(self, capsys):
        assert cli.main(["validate"]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_validate_bad_override(self, capsys):
        assert cli.main(["validate", "--set", "geometry.speed=3"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_validate_config_file(self, tmp_path, capsys):
        path = tmp_path / "gate.ini"
        path.write_text(
            "[profile1]\nw_par = 3\nw_perp = 8\n"
            "[profile2]\nw_par = 3\nw_perp = 8\n"
            "[geometry]\nseparation = 30 0 0\n"
            "[interaction]\nc6 = 5.4e7\nt_int = 5\n")
        assert cli.main(["validate", "--config", str(path)]) == 0
        assert "separation 30" in capsys.readouterr().out

    def test_missing_config_file(self, capsys):
        assert cli.main(["validate", "--config", "/nonexistent.ini"]) == 2

    def test_calibrate(self, capsys):
        code = cli.main(["calibrate", "--set", "separation=21",
                         "--set", "time=5", "--set", "phase=pi"])
        assert code == 0
        out = capsys.readouterr().out
        c6 = math.pi * 21**6 / 5
        assert f"{c6:.6g}" in out

    def test_calibrate_missing_args(self, capsys):
        assert cli.main(["calibrate", "--set", "time=5"]) == 2

    @pytest.mark.parametrize("item", ["phse=2", "t=5", "phase"])
    def test_calibrate_bad_item_exits_2(self, capsys, item):
        code = cli.main(["calibrate", "--set", "separation=21",
                         "--set", "time=5", "--set", item])
        assert code == 2
        assert item in capsys.readouterr().err

    def test_run_bad_sweep_exits_2(self, tmp_path, capsys):
        code = cli.main(["run", "--experiment", "entropy-vs-fidelity",
                         "--sweep", "a,b", "--out", str(tmp_path)])
        assert code == 2
        assert "--sweep" in capsys.readouterr().err

    def test_run_zero_mc_samples_exits_2(self, tmp_path, capsys):
        code = cli.main(["run", "--experiment", "entropy-vs-fidelity",
                         "--mc-samples", "0", "--out", str(tmp_path)])
        assert code == 2
        assert "mc_samples" in capsys.readouterr().err
        assert not (tmp_path / "entropy-vs-fidelity").exists()

    @pytest.mark.parametrize("key, value", [("calibrate_time", "0"),
                                            ("calibrate_phase", "-1")])
    def test_validate_calibration_error_names_key(self, capsys, key, value):
        assert cli.main(["validate", "--set", f"interaction.{key}={value}"]) == 2
        assert f"interaction.{key}:" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, option, value", [
        ("angular", "--sweep", "1,2"),
        ("momentum-map", "--mc-samples", "5"),
        ("swap-error", "--mc-samples", "5"),
    ])
    def test_run_ignored_option_exits_2(self, tmp_path, capsys, experiment,
                                        option, value):
        code = cli.main(["run", "--experiment", experiment, option, value,
                         "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / experiment).exists()

    def test_run_mc_samples_default_off(self):
        args = cli.build_parser().parse_args(["run", "--experiment", "angular"])
        assert args.mc_samples is None

    def test_run_small_sweep(self, tmp_path, capsys):
        code = cli.main([
            "run", "--experiment", "entropy-vs-fidelity",
            "--sweep", "0.5,1.0", "--mc-samples", "20000",
            "--out", str(tmp_path), "--seed", "4",
        ])
        assert code == 0
        manifest = json.loads(
            (tmp_path / "entropy-vs-fidelity" / "manifest.json").read_text())
        assert manifest["seed"] == 4
        assert manifest["sweep_values"] == [0.5, 1.0]

    def test_run_unknown_experiment_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--experiment", "warp"])
        assert exc.value.code == 2
