"""Tests for the declarative scenario, sweep, and pump configuration layer."""

import json

import numpy as np
import pytest

from eitconvert import (
    ConfigValidationError,
    ScenarioConfig,
    SweepSpec,
    PumpSpec,
    UnitSystem,
    exit_code,
    load_scenario,
    write_channel,
)
from eitconvert.config import populations_from_trajectory, set_by_path


def minimal_doc(**overrides):
    """A valid single-lambda scenario document; overrides patch dotted paths."""
    doc = {
        "scheme": {"kind": "single-lambda", "D_p": 500.0, "ccp2": 10.0},
        "units": {"gamma_2pi_MHz": 4.56, "T_p_us": 0.2},
        "protocol": {"eta": 4.0, "kappa": 1.35},
    }
    for path, value in overrides.items():
        set_by_path(doc, path, value)
    return doc


def cesium_doc(populations, **overrides):
    doc = {
        "scheme": {
            "kind": "cesium-d1",
            "direction": "sigma-->sigma+",
            "populations": list(populations),
            "alpha_p": 270.0,
            "alpha_c": 270.0,
        },
        "units": {"gamma_2pi_MHz": 4.56, "T_p_us": 0.2},
        "protocol": {"eta": 4.0, "kappa": 1.35},
    }
    for path, value in overrides.items():
        set_by_path(doc, path, value)
    return doc


def error_paths(excinfo):
    return list(excinfo.value.paths)


class TestScenarioValidation:
    def test_minimal_doc_parses_with_defaults(self):
        config = ScenarioConfig.from_dict(minimal_doc())
        assert config.engines == ("analytic",)
        assert config.out_dir == "runs"
        assert config.protocol.kappa == 1.35
        assert config.protocol.t_s_us == 0.0
        assert config.grid.ramp_fraction == 0.2
        assert config.grid.grid_check is False

    def test_missing_units_block_lists_both_fields(self):
        doc = minimal_doc()
        doc["units"] = {}
        with pytest.raises(ConfigValidationError) as excinfo:
            ScenarioConfig.from_dict(doc)
        paths = error_paths(excinfo)
        assert "units.gamma_2pi_MHz" in paths
        assert "units.T_p_us" in paths

    def test_unknown_field_is_rejected_with_its_path(self):
        with pytest.raises(ConfigValidationError) as excinfo:
            ScenarioConfig.from_dict(minimal_doc(**{"units.bogus": 1.0}))
        assert "units.bogus" in error_paths(excinfo)

    def test_eta_and_omega_w_are_mutually_exclusive(self):
        with pytest.raises(ConfigValidationError) as excinfo:
            ScenarioConfig.from_dict(minimal_doc(**{"protocol.Omega_w": 0.5}))
        assert any("protocol" in p for p in error_paths(excinfo))

    def test_protocol_needs_one_control_strength(self):
        doc = minimal_doc()
        doc["protocol"] = {"kappa": 1.35}
        with pytest.raises(ConfigValidationError):
            ScenarioConfig.from_dict(doc)

    def test_omega_r_and_control_ratio_are_mutually_exclusive(self):
        with pytest.raises(ConfigValidationError):
            ScenarioConfig.from_dict(minimal_doc(**{
                "protocol.Omega_r": 0.5,
                "protocol.control_ratio": 1.0,
            }))

    def test_single_lambda_needs_exactly_one_of_dc_ccp2(self):
        with pytest.raises(ConfigValidationError):
            ScenarioConfig.from_dict(minimal_doc(**{"scheme.D_c": 100.0}))
        doc = minimal_doc()
        del doc["scheme"]["ccp2"]
        with pytest.raises(ConfigValidationError):
            ScenarioConfig.from_dict(doc)

    def test_single_lambda_requires_d_p(self):
        doc = minimal_doc()
        del doc["scheme"]["D_p"]
        with pytest.raises(ConfigValidationError) as excinfo:
            ScenarioConfig.from_dict(doc)
        assert "scheme.D_p" in error_paths(excinfo)

    def test_cesium_populations_need_seven_entries(self):
        with pytest.raises(ConfigValidationError) as excinfo:
            ScenarioConfig.from_dict(cesium_doc([0.5, 0.5]))
        assert "scheme.populations" in error_paths(excinfo)

    def test_cesium_needs_populations_or_trajectory_not_both(self):
        doc = cesium_doc(np.full(7, 1 / 7))
        del doc["scheme"]["populations"]
        with pytest.raises(ConfigValidationError):
            ScenarioConfig.from_dict(doc)
        with pytest.raises(ConfigValidationError):
            ScenarioConfig.from_dict(cesium_doc(
                np.full(7, 1 / 7), **{"scheme.pump_trajectory": "traj.csv"}))

    def test_pump_time_without_trajectory_is_rejected(self):
        doc = cesium_doc(np.full(7, 1 / 7), **{"scheme.pump_time_us": 0.5})
        with pytest.raises(ConfigValidationError) as excinfo:
            ScenarioConfig.from_dict(doc)
        assert error_paths(excinfo) == ["scheme.pump_time_us"]
        assert exit_code(excinfo.value) == 2

    def test_bad_direction_is_rejected(self):
        with pytest.raises(ConfigValidationError) as excinfo:
            ScenarioConfig.from_dict(cesium_doc(
                np.full(7, 1 / 7), **{"scheme.direction": "sideways"}))
        assert "scheme.direction" in error_paths(excinfo)

    def test_unknown_scheme_kind_is_rejected(self):
        with pytest.raises(ConfigValidationError) as excinfo:
            ScenarioConfig.from_dict(minimal_doc(**{"scheme.kind": "rubidium"}))
        assert "scheme.kind" in error_paths(excinfo)

    def test_nonpositive_numbers_are_rejected(self):
        for path in ("units.T_p_us", "units.gamma_2pi_MHz", "protocol.eta",
                     "protocol.kappa", "scheme.D_p"):
            with pytest.raises(ConfigValidationError):
                ScenarioConfig.from_dict(minimal_doc(**{path: -1.0}))

    def test_unknown_engine_is_rejected(self):
        with pytest.raises(ConfigValidationError) as excinfo:
            ScenarioConfig.from_dict(minimal_doc(engines=["fem"]))
        assert any("engines" in p for p in error_paths(excinfo))

    def test_grid_bounds(self):
        with pytest.raises(ConfigValidationError):
            ScenarioConfig.from_dict(minimal_doc(**{"grid.n_z": 4}))
        with pytest.raises(ConfigValidationError):
            ScenarioConfig.from_dict(minimal_doc(**{"grid.ramp_fraction": -0.1}))

    def test_grid_counts_must_be_integers(self):
        config = ScenarioConfig.from_dict(minimal_doc(**{
            "grid.n_z": 64.0, "grid.n_t": 900, "grid.n_omega": 4096}))
        assert (config.grid.n_z, config.grid.n_t, config.grid.n_omega) == (
            64, 900, 4096)
        assert isinstance(config.grid.n_z, int)
        with pytest.raises(ConfigValidationError) as excinfo:
            ScenarioConfig.from_dict(minimal_doc(**{
                "grid.n_z": 64.5, "grid.n_t": 900.2,
                "grid.n_omega": 4096.5}))
        assert sorted(error_paths(excinfo)) == [
            "grid.n_omega", "grid.n_t", "grid.n_z"]
        assert "must be an integer" in str(excinfo.value)

    def test_errors_are_collected_not_first_only(self):
        doc = minimal_doc(**{"scheme.D_p": -5.0, "protocol.kappa": -1.0})
        doc["units"] = {}
        with pytest.raises(ConfigValidationError) as excinfo:
            ScenarioConfig.from_dict(doc)
        paths = error_paths(excinfo)
        assert "scheme.D_p" in paths
        assert "protocol.kappa" in paths
        assert "units.T_p_us" in paths

    def test_load_scenario_missing_file(self, tmp_path):
        with pytest.raises(ConfigValidationError):
            load_scenario(tmp_path / "absent.json")

    def test_load_scenario_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigValidationError):
            load_scenario(path)


class TestResolvedControls:
    def test_eta_route_reproduces_requested_eta(self):
        config = ScenarioConfig.from_dict(minimal_doc())
        scheme = config.build_scheme()
        controls = config.controls(scheme)
        params = write_channel(scheme, controls.Omega_w, controls.T_p, 1.35)
        assert abs(params.eta - 4.0) < 1e-9

    def test_explicit_omega_w_is_in_gamma_units(self):
        doc = minimal_doc()
        doc["protocol"] = {"Omega_w": 5.0, "kappa": 1.35}
        config = ScenarioConfig.from_dict(doc)
        scheme = config.build_scheme()
        controls = config.controls(scheme)
        assert abs(controls.Omega_w - 5.0) < 1e-12

    def test_ccp2_scheme_defaults_to_delay_matched_read_control(self):
        config = ScenarioConfig.from_dict(minimal_doc())
        scheme = config.build_scheme()
        controls = config.controls(scheme)
        assert abs(controls.Omega_r / controls.Omega_w
                   - np.sqrt(10.0)) < 1e-12

    def test_control_ratio_overrides_default(self):
        config = ScenarioConfig.from_dict(
            minimal_doc(**{"protocol.control_ratio": 2.0}))
        scheme = config.build_scheme()
        controls = config.controls(scheme)
        assert abs(controls.Omega_r - 2.0 * controls.Omega_w) < 1e-12

    def test_cesium_default_ratio_is_one(self):
        config = ScenarioConfig.from_dict(cesium_doc(np.full(7, 1 / 7)))
        scheme = config.build_scheme()
        controls = config.controls(scheme)
        assert abs(controls.Omega_r - controls.Omega_w) < 1e-12

    def test_t_p_converts_through_units(self):
        config = ScenarioConfig.from_dict(minimal_doc())
        units = UnitSystem(gamma_2pi_MHz=4.56)
        assert abs(config.units.T_p - units.time_in(0.2)) < 1e-12


class TestTrajectoryPopulations:
    def write_trajectory(self, path, t_name, t_values, rows):
        header = [t_name] + [f"p_m{m:+d}" for m in range(-3, 4)]
        header.append("excited_fraction")
        lines = [",".join(header)]
        for t, row in zip(t_values, rows):
            lines.append(",".join(f"{v!r}" for v in [t] + list(row)))
        path.write_text("\n".join(lines) + "\n")

    def test_nearest_row_and_renormalization(self, tmp_path):
        path = tmp_path / "traj.csv"
        early = [0.9] + [0.0] * 6 + [0.1]
        late = [0.0] * 6 + [0.8] + [0.2]
        self.write_trajectory(path, "t_us", [0.0, 1.0], [early, late])
        p = populations_from_trajectory(path, 0.9)
        assert abs(p[6] - 1.0) < 1e-12
        assert abs(p.sum() - 1.0) < 1e-12
        p0 = populations_from_trajectory(path, 0.1)
        assert abs(p0[0] - 1.0) < 1e-12

    def test_internal_time_only_refused(self, tmp_path):
        """A trajectory with only the internal time t is refused: its
        microseconds depend on the pump run's linewidth."""
        path = tmp_path / "traj.csv"
        iso = [1 / 7] * 7 + [0.0]
        self.write_trajectory(path, "t", [0.0, 28.65], [iso, iso])
        with pytest.raises(ConfigValidationError) as excinfo:
            populations_from_trajectory(path, 1.0)
        assert exit_code(excinfo.value) == 2
        assert excinfo.value.paths == ["scheme.pump_trajectory"]
        message = str(excinfo.value)
        assert "t_us" in message and "repeat the pump run" in message

    @pytest.mark.parametrize("time_us, inside", [
        (1.4, True), (-0.4, True), (1.6, False), (-0.6, False), (5.0, False),
    ])
    def test_time_outside_span_rejected(self, tmp_path, time_us, inside):
        # the two rows are 1 us apart: half an interval of slack each side
        path = tmp_path / "traj.csv"
        early = [0.9] + [0.0] * 6 + [0.1]
        late = [0.0] * 6 + [0.8] + [0.2]
        self.write_trajectory(path, "t_us", [0.0, 1.0], [early, late])
        if inside:
            populations_from_trajectory(path, time_us)
            return
        with pytest.raises(ConfigValidationError) as excinfo:
            populations_from_trajectory(path, time_us)
        assert excinfo.value.paths == ["scheme.pump_time_us"]

    def test_rewritten_trajectory_is_read_again(self, tmp_path, monkeypatch):
        """Parsed once per content: a same-size rewrite (which a coarse
        mtime may not show) is parsed again, a repeat read is not."""
        from eitconvert import config
        config._trajectory_columns.cache_clear()
        parsed = []
        read_csv = config.read_csv
        monkeypatch.setattr(
            config, "read_csv",
            lambda source: parsed.append(1) or read_csv(source))
        path = tmp_path / "traj.csv"
        early = [0.9] + [0.0] * 6 + [0.1]
        late = [0.0] * 6 + [0.8] + [0.2]
        self.write_trajectory(path, "t_us", [0.0, 1.0], [early, late])
        size = path.stat().st_size
        assert populations_from_trajectory(path, 1.0)[6] == 1.0
        assert populations_from_trajectory(path, 1.0)[6] == 1.0
        assert len(parsed) == 1
        self.write_trajectory(path, "t_us", [0.0, 1.0], [early, early])
        assert path.stat().st_size == size
        assert populations_from_trajectory(path, 1.0)[0] == 1.0
        assert len(parsed) == 2

    def test_missing_file_reports_field_path(self, tmp_path):
        with pytest.raises(ConfigValidationError) as excinfo:
            populations_from_trajectory(tmp_path / "none.csv", 0.5)
        assert "scheme.pump_trajectory" in excinfo.value.paths

    def test_scenario_consumes_trajectory(self, tmp_path):
        path = tmp_path / "traj.csv"
        stretched = [0.0] * 6 + [1.0] + [0.0]
        self.write_trajectory(path, "t_us", [0.0], [stretched])
        doc = cesium_doc([0.0] * 7, **{
            "scheme.pump_trajectory": str(path),
            "scheme.pump_time_us": 0.0,
        })
        del doc["scheme"]["populations"]
        config = ScenarioConfig.from_dict(doc, base_dir=tmp_path)
        scheme = config.build_scheme()
        assert abs(scheme.p[-1] - 1.0) < 1e-12


class TestSweepSpec:
    def sweep_doc(self, axes):
        return {"template": minimal_doc(), "axes": axes}

    def test_values_axis(self):
        spec = SweepSpec.from_dict(self.sweep_doc(
            [{"path": "protocol.eta", "values": [2.5, 4.0, 8.0]}]))
        assert spec.shape == (3,)
        assert spec.size == 3
        assert spec.assignments(1) == {"protocol.eta": 4.0}

    def test_log_axis_hits_endpoints(self):
        spec = SweepSpec.from_dict(self.sweep_doc([{
            "path": "scheme.ccp2", "start": 0.1, "stop": 10.0,
            "count": 9, "scale": "log",
        }]))
        values = [spec.assignments(i)["scheme.ccp2"] for i in range(9)]
        assert abs(values[0] - 0.1) < 1e-15
        assert abs(values[-1] - 10.0) < 1e-12
        assert abs(values[4] - 1.0) < 1e-12

    def test_axis_major_ordering(self):
        spec = SweepSpec.from_dict(self.sweep_doc([
            {"path": "protocol.eta", "values": [2.0, 3.0]},
            {"path": "scheme.ccp2", "values": [0.5, 1.0, 2.0]},
        ]))
        assert spec.shape == (2, 3)
        assert spec.size == 6
        assert spec.assignments(0) == {"protocol.eta": 2.0,
                                       "scheme.ccp2": 0.5}
        assert spec.assignments(2) == {"protocol.eta": 2.0,
                                       "scheme.ccp2": 2.0}
        assert spec.assignments(3) == {"protocol.eta": 3.0,
                                       "scheme.ccp2": 0.5}

    def test_point_deep_copies_template(self):
        spec = SweepSpec.from_dict(self.sweep_doc(
            [{"path": "protocol.eta", "values": [2.0, 3.0]}]))
        doc = spec.point(0)
        doc["protocol"]["eta"] = 99.0
        assert spec.point(0)["protocol"]["eta"] == 2.0
        assert spec.point(1)["protocol"]["eta"] == 3.0

    def test_invalid_template_fails_at_load(self):
        doc = self.sweep_doc([{"path": "protocol.eta", "values": [2.0]}])
        doc["template"]["units"] = {}
        with pytest.raises(ConfigValidationError):
            SweepSpec.from_dict(doc)

    def test_axis_validation(self):
        with pytest.raises(ConfigValidationError):
            SweepSpec.from_dict(self.sweep_doc(
                [{"path": "protocol.eta", "values": []}]))
        with pytest.raises(ConfigValidationError):
            SweepSpec.from_dict(self.sweep_doc([{
                "path": "protocol.eta", "start": 1.0, "stop": 2.0,
                "count": 3, "scale": "cubic",
            }]))
        with pytest.raises(ConfigValidationError):
            SweepSpec.from_dict(self.sweep_doc([{"values": [1.0]}]))
        with pytest.raises(ConfigValidationError) as excinfo:
            SweepSpec.from_dict(self.sweep_doc(
                [{"path": "protocol.eta", "values": [2.0, 10 ** 400]}]))
        assert error_paths(excinfo) == ["axes[0].values"]

    @pytest.mark.parametrize("extra", [
        {"start": 1.0}, {"stop": 2.0}, {"count": 3}, {"scale": "log"},
        {"start": 1.0, "stop": 2.0, "count": 3, "scale": "linear"},
    ])
    def test_values_axis_rejects_range_fields(self, extra):
        axis = {"path": "protocol.eta", "values": [2.0, 3.0], **extra}
        with pytest.raises(ConfigValidationError) as excinfo:
            SweepSpec.from_dict(self.sweep_doc([axis]))
        assert error_paths(excinfo) == [f"axes[0].{key}" for key in extra]
        assert exit_code(excinfo.value) == 2

    def test_count_and_parallelism_must_be_integers(self):
        axis = {"path": "protocol.eta", "start": 2.0, "stop": 4.0}
        spec = SweepSpec.from_dict(dict(self.sweep_doc([{**axis,
                                                         "count": 3.0}]),
                                        parallelism=2.0))
        assert spec.shape == (3,)
        assert spec.parallelism == 2
        with pytest.raises(ConfigValidationError) as excinfo:
            SweepSpec.from_dict(self.sweep_doc([{**axis, "count": 2.9}]))
        assert error_paths(excinfo) == ["axes[0].count"]
        with pytest.raises(ConfigValidationError) as excinfo:
            SweepSpec.from_dict(dict(self.sweep_doc([{**axis, "count": 3}]),
                                     parallelism=1.5))
        assert error_paths(excinfo) == ["parallelism"]

    def test_set_by_path_creates_nested_blocks(self):
        doc = {}
        set_by_path(doc, "grid.n_z", 64)
        assert doc == {"grid": {"n_z": 64}}


class TestPumpSpec:
    def test_defaults(self):
        spec = PumpSpec.from_dict({
            "polarization": "sigma+",
            "Omega_over_Gamma": 1.2,
            "duration_us": 1.6,
        })
        assert spec.gamma_2pi_MHz == 4.56
        assert spec.n_samples == 201
        assert spec.steady is True
        assert np.max(np.abs(np.asarray(spec.initial) - 1 / 7)) < 1e-12

    def test_pump_config_converts_duration(self):
        spec = PumpSpec.from_dict({
            "polarization": "pi",
            "Omega_over_Gamma": 1.0,
            "duration_us": 2.0,
        })
        config = spec.pump_config()
        units = UnitSystem(gamma_2pi_MHz=4.56)
        assert abs(config.duration - units.time_in(2.0)) < 1e-12

    def test_validation(self):
        with pytest.raises(ConfigValidationError):
            PumpSpec.from_dict({"polarization": "sigma*",
                                "Omega_over_Gamma": 1.0,
                                "duration_us": 1.0})
        with pytest.raises(ConfigValidationError):
            PumpSpec.from_dict({"polarization": "pi",
                                "Omega_over_Gamma": 1.0,
                                "duration_us": -1.0})
        with pytest.raises(ConfigValidationError):
            PumpSpec.from_dict({"polarization": "pi",
                                "Omega_over_Gamma": 1.0,
                                "duration_us": 1.0,
                                "initial": [1.0, 0.0]})

    def test_n_samples_must_be_integer(self):
        doc = {"polarization": "pi", "Omega_over_Gamma": 1.0,
               "duration_us": 1.0}
        assert PumpSpec.from_dict({**doc, "n_samples": 40.0}).n_samples == 40
        with pytest.raises(ConfigValidationError) as excinfo:
            PumpSpec.from_dict({**doc, "n_samples": 40.5})
        assert error_paths(excinfo) == ["n_samples"]

    def test_initial_is_renormalized(self):
        spec = PumpSpec.from_dict({
            "polarization": "pi",
            "Omega_over_Gamma": 1.0,
            "duration_us": 1.0,
            "initial": [2.0, 0, 0, 0, 0, 0, 0],
        })
        assert abs(spec.initial[0] - 1.0) < 1e-12
        assert sum(spec.initial) == 1.0


# not a vector of seven finite numbers: an object, strings, nested lists,
# booleans (not numbers, as for every numeric field), a bare string and
# an integer beyond the float range
MALFORMED_VECTORS = [{"a": 1}, ["a"] * 7, [[0.1]] * 7, [True] * 7, "1234567",
                     [10 ** 400] + [0] * 6]
VECTOR_IDS = ["object", "strings", "nested", "booleans", "string",
              "huge-int"]


class TestPopulationVectors:
    @pytest.mark.parametrize("value", MALFORMED_VECTORS, ids=VECTOR_IDS)
    def test_scheme_populations_rejected_with_other_issues(self, value):
        doc = cesium_doc(np.full(7, 1 / 7), **{"scheme.populations": value,
                                               "protocol.kappa": -1.0})
        with pytest.raises(ConfigValidationError) as excinfo:
            ScenarioConfig.from_dict(doc)
        assert error_paths(excinfo) == ["scheme.populations", "protocol.kappa"]
        assert "scheme.populations: must be 7 finite numbers" in str(
            excinfo.value)
        assert exit_code(excinfo.value) == 2

    @pytest.mark.parametrize("value", MALFORMED_VECTORS, ids=VECTOR_IDS)
    def test_pump_initial_rejected_with_other_issues(self, value):
        doc = {"polarization": "pi", "Omega_over_Gamma": 1.0,
               "duration_us": 1.0, "n_samples": -3, "initial": value}
        with pytest.raises(ConfigValidationError) as excinfo:
            PumpSpec.from_dict(doc)
        assert error_paths(excinfo) == ["n_samples", "initial"]
        assert "initial: must be 7 finite nonnegative numbers" in str(
            excinfo.value)
        assert exit_code(excinfo.value) == 2


def bound_doc(kind, path, value):
    """A valid document of the given kind with one field set to value.

    A field with a one-of partner (D_c / ccp2, eta / Omega_w) is set next
    to that partner, so a rejected value leaves no second issue behind.
    """
    if kind == "pump":
        return {"polarization": "pi", "Omega_over_Gamma": 1.0,
                "duration_us": 1.0, path: value}
    if kind == "sweep":
        axis = {"path": "protocol.eta", "start": 2.0, "stop": 4.0,
                "count": 3}
        doc = {"template": minimal_doc(), "axes": [axis]}
        if path == "axes[0].count":
            axis["count"] = value
        else:
            doc[path] = value
        return doc
    if kind in ("cesium", "trajectory"):
        doc = cesium_doc(np.full(7, 1 / 7))
        if kind == "trajectory":
            del doc["scheme"]["populations"]
            doc["scheme"]["pump_trajectory"] = "traj.csv"
    else:
        doc = minimal_doc()
        if kind == "single-dc":
            del doc["scheme"]["ccp2"]
            doc["scheme"]["D_c"] = 100.0
        elif kind == "omega-w":
            doc["protocol"] = {"Omega_w": 5.0, "kappa": 1.35}
    set_by_path(doc, path, value)
    return doc


def load_bound_doc(kind, doc):
    if kind == "pump":
        return PumpSpec.from_dict(doc)
    if kind == "sweep":
        return SweepSpec.from_dict(doc)
    return ScenarioConfig.from_dict(doc)


# (document kind, field path, out-of-bound value, boundary value; None
# where the bound is exclusive).  scheme.R_p and scheme.R_c are no longer
# fields: every value is refused under its path as an unknown field.
FIELD_BOUNDS = [
    ("single", "scheme.D_p", 0.0, None),
    ("single", "scheme.D_c", 0.0, None),
    ("single-dc", "scheme.ccp2", 0.0, None),
    ("single", "scheme.R_p", 0.0, None),
    ("single", "scheme.R_c", 0.0, None),
    ("single", "scheme.gamma_sg", -0.1, 0.0),
    ("cesium", "scheme.gamma_sg", -0.1, 0.0),
    ("cesium", "scheme.alpha_p", 0.0, None),
    ("cesium", "scheme.alpha_c", 0.0, None),
    ("trajectory", "scheme.pump_time_us", -0.1, 0.0),
    ("single", "units.gamma_2pi_MHz", 0.0, None),
    ("single", "units.T_p_us", 0.0, None),
    ("single", "protocol.kappa", 0.0, None),
    ("single", "protocol.t_s_us", -0.1, 0.0),
    ("omega-w", "protocol.eta", 0.0, None),
    ("single", "protocol.Omega_w", 0.0, None),
    ("single", "protocol.Omega_r", 0.0, None),
    ("single", "protocol.control_ratio", 0.0, None),
    ("single", "grid.n_z", 7, 8),
    ("single", "grid.n_t", 1, 2),
    ("single", "grid.n_omega", 15, 16),
    ("single", "grid.omega_max", 0.0, None),
    ("single", "grid.ramp_fraction", -0.1, 0.0),
    ("pump", "Omega_over_Gamma", -0.1, 0.0),
    ("pump", "duration_us", 0.0, None),
    ("pump", "gamma_2pi_MHz", 0.0, None),
    ("pump", "n_samples", 1, 2),
    ("pump", "gamma_gg", -0.1, 0.0),
    ("sweep", "parallelism", 0, 1),
    ("sweep", "axes[0].count", 0, 1),
]


class TestFieldBounds:
    @pytest.mark.parametrize(
        "kind, path, bad",
        [(kind, path, bad) for kind, path, bad, _ in FIELD_BOUNDS]
        + [(kind, path, "x") for kind, path, _, _ in FIELD_BOUNDS]
        + [pytest.param(kind, path, 10 ** 400, id=f"{kind}-{path}-huge-int")
           for kind, path, _, _ in FIELD_BOUNDS])
    def test_rejected_under_its_path(self, kind, path, bad):
        with pytest.raises(ConfigValidationError) as excinfo:
            load_bound_doc(kind, bound_doc(kind, path, bad))
        assert set(error_paths(excinfo)) == {path}
        assert exit_code(excinfo.value) == 2

    @pytest.mark.parametrize(
        "kind, path, edge",
        [(kind, path, edge) for kind, path, _, edge in FIELD_BOUNDS
         if edge is not None])
    def test_inclusive_boundary_accepted(self, kind, path, edge):
        load_bound_doc(kind, bound_doc(kind, path, edge))


class TestTopLevelUnknownField:
    @pytest.mark.parametrize("kind, key", [
        ("single", "bogus"), ("sweep", "bogus"), ("pump", "steady"),
    ])
    def test_reported_under_bare_key(self, kind, key):
        doc = bound_doc(kind, key, 1)
        with pytest.raises(ConfigValidationError) as excinfo:
            load_bound_doc(kind, doc)
        assert error_paths(excinfo) == [key]


class TestRoundTrip:
    def test_scenario_json_round_trip(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(minimal_doc()))
        config = load_scenario(path)
        assert config.scheme.D_p == 500.0
        assert config.scheme.ccp2 == 10.0
        assert str(config.base_dir) == str(tmp_path)
