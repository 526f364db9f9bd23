import math

import numpy as np
import pytest

from rydgate.core import (
    ConfigError,
    Direct,
    ExcitationProfile,
    GridSpec,
    SeparationWarning,
    Swap,
    UndefinedTimeError,
    calibrate_c6,
    load_config,
    relative_distribution,
    separation_frame,
    time_for_pi,
    validate_config,
)


class TestProfile:
    def test_envelope_density_std_is_half_width(self):
        p = ExcitationProfile(w_par=3.0, w_perp=8.0)
        x = np.linspace(-40, 40, 20001)
        f = p.envelope(x, "par")
        dens = f * f
        dens /= dens.sum() * (x[1] - x[0])
        var = np.sum(dens * x**2) * (x[1] - x[0])
        assert math.sqrt(var) == pytest.approx(1.5, rel=1e-9)
        assert p.sigma("par") == 1.5
        assert p.sigma("perp") == 4.0

    def test_invalid_widths(self):
        with pytest.raises(ConfigError):
            ExcitationProfile(w_par=0.0, w_perp=1.0)
        with pytest.raises(ConfigError):
            ExcitationProfile(w_par=1.0, w_perp=-2.0)

    def test_vectors_coerced_and_frozen(self):
        p = ExcitationProfile(w_par=1, w_perp=1, center=[1, 2, 3])
        assert p.center.shape == (3,)
        with pytest.raises(ValueError):
            p.center[0] = 9.0


class TestGridSpec:
    def test_power_of_two_required(self):
        GridSpec(256, 5.0)
        with pytest.raises(ConfigError):
            GridSpec(100, 5.0)
        with pytest.raises(ConfigError):
            GridSpec(16, 5.0)

    def test_extent_floor(self):
        with pytest.raises(ConfigError):
            GridSpec(64, 2.0)


class TestCalibration:
    def test_time_for_pi_scales_as_d6(self):
        c6 = 5e7
        assert time_for_pi(42, c6) == pytest.approx(64 * time_for_pi(21, c6))

    def test_pi_time_inverts_calibration(self):
        c6 = calibrate_c6(21.0, 5.0, math.pi)
        assert c6 == pytest.approx(math.pi * 21.0**6 / 5.0)
        assert time_for_pi(21.0, c6) == pytest.approx(5.0)

    def test_zero_c6_has_no_pi_time(self):
        with pytest.raises(UndefinedTimeError):
            time_for_pi(21.0, 0.0)

    def test_sign_insensitive(self):
        assert time_for_pi(10.0, -1e6) == time_for_pi(10.0, 1e6)


class TestSeparationFrame:
    @pytest.mark.parametrize("sep", [(21, 0, 0), (0, 5, 0), (3, -4, 12)])
    def test_orthonormal_first_axis_along_separation(self, sep):
        basis = separation_frame(np.array(sep, dtype=float))
        assert np.allclose(basis @ basis.T, np.eye(3), atol=1e-12)
        unit = np.asarray(sep, dtype=float)
        unit /= np.linalg.norm(unit)
        assert np.allclose(basis[0], unit)


class TestRelativeDistribution:
    def test_equal_widths(self):
        p = ExcitationProfile(w_par=3, w_perp=3)
        rel = relative_distribution(p, p, np.array([21.0, 0, 0]))
        # density std per particle is w/2, relative std w/sqrt(2)
        assert np.allclose(rel.std, 3 / math.sqrt(2))
        assert rel.mean_mag == pytest.approx(21.0)

    def test_moments_match_monte_carlo(self):
        p1 = ExcitationProfile(w_par=3, w_perp=8)
        p2 = ExcitationProfile(w_par=2, w_perp=5)
        rel = relative_distribution(p1, p2, np.array([21.0, 0, 0]))
        rng = np.random.default_rng(0)
        n = 200_000
        for i, axis in enumerate(("par", "perp", "perp")):
            samples = rng.normal(0, p1.sigma(axis), n) - rng.normal(
                0, p2.sigma(axis), n)
            se = rel.std[i] / math.sqrt(2 * n)
            assert abs(samples.std() - rel.std[i]) < 3 * se


class TestValidateConfig:
    def test_minimal_document(self, raw_config):
        config = validate_config(raw_config)
        assert config.separation_mag == pytest.approx(21.0)
        assert config.c6 == pytest.approx(math.pi * 21.0**6 / 5.0)
        assert config.c6_calibrated
        assert config.t_int == 5.0
        assert isinstance(config.protocol, Direct)
        # defaults: centers at +/- sep/2, distinct lifetimes, transverse k0
        assert np.allclose(config.profile1.center, (10.5, 0, 0))
        assert np.allclose(config.profile2.center, (-10.5, 0, 0))
        assert config.profile1.rydberg_lifetime == 1180.0
        assert config.profile2.rydberg_lifetime == 1150.0
        assert abs(config.profile1.k0 @ config.separation) < 1e-9

    def test_pi_literal(self, raw_config):
        raw_config["interaction"]["calibrate_phase"] = "PI"
        assert validate_config(raw_config).c6 == pytest.approx(
            math.pi * 21.0**6 / 5.0)

    def test_explicit_c6(self, raw_config):
        raw_config["interaction"] = {"c6": "5.4e7", "t_int": "5"}
        config = validate_config(raw_config)
        assert config.c6 == 5.4e7
        assert not config.c6_calibrated

    def test_c6_and_calibration_conflict(self, raw_config):
        raw_config["interaction"]["c6"] = "5.4e7"
        with pytest.raises(ConfigError, match="either"):
            validate_config(raw_config)

    def test_missing_interaction(self, raw_config):
        raw_config["interaction"] = {}
        with pytest.raises(ConfigError, match="interaction.c6"):
            validate_config(raw_config)

    def test_unknown_key_rejected(self, raw_config):
        raw_config["geometry"]["speed"] = "3"
        with pytest.raises(ConfigError, match="geometry.speed"):
            validate_config(raw_config)

    def test_unknown_section_rejected(self, raw_config):
        raw_config["turbo"] = {"on": "1"}
        with pytest.raises(ConfigError, match="turbo"):
            validate_config(raw_config)

    def test_swap_protocol(self, raw_config):
        raw_config["protocol"] = {"name": "swap"}
        config = validate_config(raw_config)
        assert config.protocol == Swap()

    def test_error_sigma_keys_rejected(self, raw_config):
        # a placement error is an argument of the computations that use it
        raw_config["protocol"] = {"name": "swap", "err_sigma_par": "0.5"}
        with pytest.raises(ConfigError, match="protocol.err_sigma_par"):
            validate_config(raw_config)

    def test_bad_protocol_name(self, raw_config):
        raw_config["protocol"] = {"name": "teleport"}
        with pytest.raises(ConfigError, match="protocol.name"):
            validate_config(raw_config)

    def test_close_separation_warns(self, raw_config):
        raw_config["geometry"]["separation"] = "9 0 0"
        with pytest.warns(SeparationWarning):
            validate_config(raw_config)

    def test_zero_separation(self, raw_config):
        raw_config["geometry"]["separation"] = "0 0 0"
        with pytest.raises(ConfigError):
            validate_config(raw_config)

    def test_non_numeric(self, raw_config):
        raw_config["profile1"]["w_par"] = "wide"
        with pytest.raises(ConfigError, match="profile1.w_par"):
            validate_config(raw_config)

    @pytest.mark.parametrize("section, key, value", [
        ("run", "seed", "inf"),
        ("run", "seed", "nan"),
        ("interaction", "c6", "nan"),
        ("interaction", "t_int", "nan"),
        ("loss", "temperature", "nan"),
        ("geometry", "separation", "21 nan 0"),
    ])
    def test_non_finite_rejected(self, raw_config, section, key, value):
        raw_config["interaction"] = {"c6": "5.4e7", "t_int": "5"}
        raw_config.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError, match=rf"{section}\.{key}: not a finite"):
            validate_config(raw_config)

    def test_profile_check_names_section(self, raw_config):
        raw_config["profile2"]["w_par"] = "0"
        with pytest.raises(ConfigError, match="profile2"):
            validate_config(raw_config)


class TestLoadConfig:
    def test_ini_roundtrip(self, tmp_path):
        path = tmp_path / "gate.ini"
        path.write_text(
            "[profile1]\nw_par = 3\nw_perp = 8\n"
            "[profile2]\nw_par = 3\nw_perp = 8\n"
            "[geometry]\nseparation = 21 0 0\n"
            "[interaction]\ncalibrate_time = 5\ncalibrate_phase = pi\n"
            "[protocol]\nname = swap\n"
            "[run]\nseed = 7\n"
        )
        config = load_config(path)
        assert config.rng_seed == 7
        assert isinstance(config.protocol, Swap)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")


def test_readme_documents_every_config_key():
    import re
    from pathlib import Path

    from rydgate.core import _SECTION_KEYS

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("Sections and keys:", 1)[1].split("\n\n", 2)[1]
    documented = set()
    for row in table.splitlines()[2:]:
        sections, keys = (re.findall(r"`([^`]+)`", cell)
                          for cell in row.split("|")[1:3])
        documented |= {(s, k) for s in sections for k in keys}
    expected = {(s, k) for s, keys in _SECTION_KEYS.items() for k in keys}
    assert documented == expected
