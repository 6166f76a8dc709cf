"""End-to-end tests for the command line front end and the scenario runner."""

import json
import warnings

import numpy as np
import pytest

from eitconvert import UnitSystem, mb, relative_efficiency_single, runner
from eitconvert.arrayio import read_csv
from eitconvert.cli import main
from eitconvert.config import ScenarioConfig, load_scenario
from eitconvert.errors import ValidityWarning
from eitconvert.runner import _peak_and_fwhm, run_scenario
from eitconvert.spectral import SpectralGrid


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


def minimal_doc(**top):
    doc = {
        "scheme": {"kind": "single-lambda", "D_p": 500.0, "ccp2": 10.0},
        "units": {"gamma_2pi_MHz": 4.56, "T_p_us": 0.2},
        "protocol": {"eta": 4.0, "kappa": 1.35},
    }
    doc.update(top)
    return doc


def cesium_from_trajectory(path):
    """cesium-d1 scheme block that reads its populations from path."""
    return {"kind": "cesium-d1", "direction": "sigma-->sigma+",
            "pump_trajectory": str(path), "pump_time_us": 0.5,
            "alpha_p": 270.0, "alpha_c": 270.0}


def existing_file(tmp_path):
    path = tmp_path / "taken"
    path.write_text("")
    return str(path)


def load_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


class TestScenarioCommand:
    def test_minimal_analytic_run(self, tmp_path):
        f = write_json(tmp_path / "s.json", minimal_doc())
        out = tmp_path / "out"
        assert main(["scenario", f, "--out", str(out)]) == 0
        manifest = load_manifest(out)
        summary = manifest["engines"]["analytic"]
        assert abs(summary["xi_total"] - 0.935238) < 1e-4
        assert abs(summary["xi_relative"] - 1.088616) < 1e-4
        assert summary["xi2"] == 1.0
        assert abs(summary["eta"] - 4.0) < 1e-9
        for name in ("converted_analytic.csv", "efficiency_analytic.json"):
            assert (out / name).exists()
        report = json.loads((out / "efficiency_analytic.json").read_text())
        assert abs(report["beta_w"] - 1.05819461) < 1e-6
        for key in ("Omega_w", "Omega_r", "T_p", "eta", "kappa", "t_s"):
            assert key in manifest["controls"]

    def test_waveform_csv_schema(self, tmp_path):
        f = write_json(tmp_path / "s.json", minimal_doc())
        out = tmp_path / "out"
        main(["scenario", f, "--out", str(out)])
        header, cols = read_csv(out / "converted_analytic.csv")
        assert header == ["t", "t_us", "re", "im", "intensity"]
        inten = cols["re"] ** 2 + cols["im"] ** 2
        assert np.max(np.abs(inten - cols["intensity"])) < 1e-12
        ratio = cols["t_us"][1:] / cols["t"][1:]
        assert np.max(np.abs(ratio - ratio[0])) < 1e-9

    def test_csv_report_format(self, tmp_path):
        f = write_json(tmp_path / "s.json", minimal_doc())
        out = tmp_path / "out"
        assert main(["scenario", f, "--out", str(out),
                     "--format", "csv"]) == 0
        lines = (out / "efficiency_analytic.csv").read_text().splitlines()
        assert lines[0] == "key,value"
        keys = [line.split(",")[0] for line in lines[1:]]
        assert "xi_total" in keys

    def test_mb_engine_runs(self, tmp_path):
        doc = minimal_doc(engines=["mb"])
        doc["scheme"] = {"kind": "single-lambda", "D_p": 20.0, "ccp2": 1.0}
        doc["protocol"] = {"eta": 2.5, "kappa": 1.35}
        f = write_json(tmp_path / "s.json", doc)
        out = tmp_path / "out"
        assert main(["scenario", f, "--out", str(out)]) == 0
        summary = load_manifest(out)["engines"]["mb"]
        assert abs(summary["xi_relative"] - 1.0) < 0.01
        assert 0.3 < summary["xi_total"] < 0.5
        assert (out / "converted_mb.csv").exists()
        assert (out / "probe_mb.csv").exists()

    def test_mb_runs_when_stored_pulse_overshoots(self, tmp_path):
        """eta 1.2 < kappa 1.35: spectral runs this protocol, so mb must too."""
        doc = minimal_doc(engines=["mb"])
        doc["scheme"] = {"kind": "single-lambda", "D_p": 500.0, "ccp2": 1.0}
        doc["protocol"] = {"eta": 1.2, "kappa": 1.35}
        f = write_json(tmp_path / "s.json", doc)
        assert main(["scenario", f, "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("D_p, limit", [(20.0, "write_control"),
                                            (5.0, "Gamma_w")])
    def test_mb_summary_names_time_grid(self, tmp_path, D_p, limit):
        doc = minimal_doc(engines=["mb"])
        doc["scheme"] = {"kind": "single-lambda", "D_p": D_p, "ccp2": 1.0}
        doc["protocol"] = {"eta": 2.5, "kappa": 1.35}
        f = write_json(tmp_path / "s.json", doc)
        out = tmp_path / "out"
        assert main(["scenario", f, "--out", str(out)]) == 0
        report = json.loads((out / "efficiency_mb.json").read_text())
        assert report["dt_limit_write"] == limit
        t = read_csv(out / "converted_mb.csv")[1]["t"]
        # one uniform step per phase, changing at the read turn-on t = 0
        steps = np.diff(t)
        assert np.allclose(steps[t[:-1] < 0], report["dt_write"], rtol=1e-9)
        assert np.allclose(steps[t[:-1] >= 0], report["dt_read"], rtol=1e-9)
        # the run starts two pulse durations before the peak enters
        t_start = -2.0 * UnitSystem(gamma_2pi_MHz=4.56).time_in(0.2)
        t_r = t_start - t[0]
        assert np.count_nonzero(t < 0) * report["dt_write"] == \
            pytest.approx(t_r - t_start, rel=1e-9)
        assert report["t_end"] == pytest.approx(t_r + t[-1], rel=1e-12)
        # the rows are the planned grid up to t_end, drained stop or not;
        # n_t counts the samples stepped
        planned = (round((t_r - t_start) / report["dt_write"])
                   + round((report["t_end"] - t_r) / report["dt_read"]) + 1)
        assert t.size == planned
        assert report["n_t"] <= t.size

    @pytest.mark.parametrize("protocol, flag", [
        pytest.param({"control_ratio": 2.0}, "adiabaticity", id="2.0-True"),
        pytest.param({"control_ratio": 1.0}, None, id="1.0-False"),
        pytest.param({"control_ratio": 1.0, "eta": 2.0}, "eta < 2.5",
                     id="eta-2.0"),
        pytest.param({"control_ratio": 1.0, "kappa": 1.0}, "kappa < 1.1",
                     id="kappa-1.0"),
    ])
    def test_validity_flags_reported_not_warned(self, tmp_path, capsys,
                                                protocol, flag):
        """A read control twice the write control leaves the closed form's
        read regime, eta 2 leaves the pulse poorly compressed and kappa 1
        clips its trailing edge: the flag goes to the summary and the
        printed line, and no ValidityWarning is raised."""
        doc = minimal_doc(engines=["analytic"])
        doc["scheme"]["ccp2"] = 1.0
        doc["protocol"].update(protocol)
        f = write_json(tmp_path / "s.json", doc)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["scenario", f, "--out", str(out)]) == 0
            assert main(["scenario", f, "--out", str(tmp_path / "csv"),
                         "--format", "csv"]) == 0
        assert not [w for w in caught
                    if issubclass(w.category, ValidityWarning)]
        report = json.loads((out / "efficiency_analytic.json").read_text())
        stdout = capsys.readouterr().out
        rows = (tmp_path / "csv" / "efficiency_analytic.csv").read_text()
        assert all(len(line.split(",")) == 2 for line in rows.splitlines())
        if flag:
            assert report["flags"].startswith(flag)
            assert f"flags: {flag}" in stdout
            assert f"flags,{flag}" in rows
        else:
            assert report["flags"] == ""
            assert "flags:" not in stdout

    def test_engine_flag_overrides_config(self, tmp_path):
        f = write_json(tmp_path / "s.json",
                       minimal_doc(engines=["analytic", "spectral"]))
        out = tmp_path / "out"
        assert main(["scenario", f, "--out", str(out),
                     "--engine", "analytic"]) == 0
        manifest = load_manifest(out)
        assert list(manifest["engines"].keys()) == ["analytic"]

    def test_missing_units_exits_2_and_lists_fields(self, tmp_path, capsys):
        doc = minimal_doc()
        doc["units"] = {}
        f = write_json(tmp_path / "s.json", doc)
        assert main(["scenario", f, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "units.gamma_2pi_MHz" in err
        assert "units.T_p_us" in err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["scenario", str(tmp_path / "absent.json")]) == 2

    def test_stiff_time_grid_exits_3(self, tmp_path, capsys):
        doc = minimal_doc(engines=["mb"], grid={"n_t": 40})
        f = write_json(tmp_path / "s.json", doc)
        assert main(["scenario", f, "--out", str(tmp_path / "out")]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_frequency_grid_over_budget_exits_3(self, tmp_path, capsys):
        doc = minimal_doc(engines=["spectral"])
        doc["protocol"]["control_ratio"] = 1e-3
        f = write_json(tmp_path / "s.json", doc)
        assert main(["scenario", f, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "n_omega = 8388608" in err and "4194304" in err

    def test_grid_check_over_budget_exits_3(self, tmp_path, capsys):
        """The doubled grid is refused before the coarse one is built."""
        doc = minimal_doc(engines=["spectral"], grid={"n_omega": 1 << 22})
        f = write_json(tmp_path / "s.json", doc)
        assert main(["scenario", f, "--out", str(tmp_path / "out"),
                     "--grid-check"]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "n_omega = 8388608" in err and "4194304" in err

    def test_time_grid_over_budget_exits_3(self, tmp_path, capsys):
        """Refused before the exit table (7.8 GB here) is allocated."""
        doc = minimal_doc(engines=["mb"])
        doc["protocol"]["control_ratio"] = 0.01
        f = write_json(tmp_path / "s.json", doc)
        assert main(["scenario", f, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "n_t = 519476872" in err and "1048576" in err

    def test_time_grid_check_over_budget_exits_3(self, tmp_path, capsys):
        """The doubled time grid is refused before the coarse run."""
        doc = minimal_doc(engines=["mb"], grid={"n_t": 1 << 20})
        f = write_json(tmp_path / "s.json", doc)
        assert main(["scenario", f, "--out", str(tmp_path / "out"),
                     "--grid-check"]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "n_t = 2097151" in err and "1048576" in err

    def test_nonfinite_populations_exit_2(self, tmp_path, capsys):
        doc = minimal_doc()
        doc["scheme"] = {"kind": "cesium-d1", "direction": "sigma-->sigma+",
                         "populations": [float("nan")] + [1.0 / 6.0] * 6,
                         "alpha_p": 270.0, "alpha_c": 270.0}
        f = write_json(tmp_path / "s.json", doc)
        assert main(["scenario", f, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "scheme.populations" in err and "finite" in err

    @pytest.mark.parametrize("key", ["R_p", "R_c"])
    def test_cg_ratio_is_not_a_field(self, tmp_path, capsys, key):
        """A single-lambda scheme's CG ratios are 1; any other value
        would only rescale a control."""
        doc = minimal_doc()
        doc["scheme"][key] = 2.0
        f = write_json(tmp_path / "s.json", doc)
        assert main(["scenario", f, "--out", str(tmp_path / "out")]) == 2
        assert f"scheme.{key}: unknown field" in capsys.readouterr().err

    def test_flags_edit_the_recorded_config(self, tmp_path):
        """--engine and --grid-check are edits of the document, so the
        manifest's config records what ran."""
        doc = minimal_doc(engines=["analytic"], grid={"n_z": 16})
        doc["scheme"] = {"kind": "single-lambda", "D_p": 50.0, "ccp2": 1.0}
        f = write_json(tmp_path / "s.json", doc)
        out = tmp_path / "out"
        assert main(["scenario", f, "--out", str(out), "--engine", "mb",
                     "--grid-check"]) == 0
        manifest = load_manifest(out)
        assert manifest["config"]["engines"] == ["mb"]
        assert manifest["config"]["grid"] == {"n_z": 16, "grid_check": True}
        assert list(manifest["engines"]) == ["mb"]
        assert "grid_doubling_rel" in manifest["engines"]["mb"]

    def test_repeated_engine_flag_exits_2(self, tmp_path, capsys):
        f = write_json(tmp_path / "s.json", minimal_doc())
        assert main(["scenario", f, "--out", str(tmp_path / "out"),
                     "--engine", "analytic", "--engine", "analytic"]) == 2
        assert "engines" in capsys.readouterr().err

    def test_undersized_frequency_grid_exits_3(self, tmp_path):
        doc = minimal_doc(engines=["spectral"],
                          grid={"omega_max": 0.5, "n_omega": 256})
        f = write_json(tmp_path / "s.json", doc)
        assert main(["scenario", f, "--out", str(tmp_path / "out")]) == 3

    def test_wrapped_converted_pulse_exits_3(self, tmp_path, capsys):
        """A weak read stretches the converted pulse past half the time
        window of the read grid; wrapped around it, it came out with 3.5
        times the analytic fwhm and exit code 0."""
        doc = minimal_doc(engines=["analytic", "spectral"])
        doc["protocol"]["control_ratio"] = 0.3
        f = write_json(tmp_path / "s.json", doc)
        assert main(["scenario", f, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "time grid" in err and "n_omega" in err

    def spectral_doc(self, **grid):
        doc = minimal_doc(engines=["spectral"], grid=grid)
        doc["scheme"] = {"kind": "single-lambda", "D_p": 100.0, "ccp2": 3.0}
        return doc

    def auto_omega_max(self, tmp_path):
        config = load_scenario(write_json(tmp_path / "auto.json",
                                          self.spectral_doc()))
        scheme = config.build_scheme()
        c = config.controls(scheme)
        return SpectralGrid.for_protocol(scheme, c.Omega_w, c.T_p,
                                         c.Omega_r).omega_max

    def test_omega_max_override_resizes_n_omega(self, tmp_path):
        """A wider span keeps the automatic bin spacing, and the result."""
        summaries = []
        for name, grid in (("auto", {}), ("wide", {
                "omega_max": 16.0 * self.auto_omega_max(tmp_path)})):
            f = write_json(tmp_path / f"{name}.json",
                           self.spectral_doc(**grid))
            out = tmp_path / name
            assert main(["scenario", f, "--out", str(out)]) == 0
            summaries.append(load_manifest(out)["engines"]["spectral"])
        auto, wide = summaries
        for key in ("xi_total", "fwhm"):
            assert wide[key] == pytest.approx(auto[key], rel=1e-3)

    def test_omega_max_override_over_budget_exits_3(self, tmp_path, capsys):
        doc = self.spectral_doc(
            omega_max=1024.0 * self.auto_omega_max(tmp_path))
        f = write_json(tmp_path / "s.json", doc)
        assert main(["scenario", f, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "n_omega = 8388608" in err and "4194304" in err

    def test_trajectory_naming_a_directory_exits_2(self, tmp_path, capsys):
        (tmp_path / "trajectory").mkdir()
        doc = minimal_doc(engines=["analytic"], scheme=cesium_from_trajectory(
            tmp_path / "trajectory"))
        f = write_json(tmp_path / "s.json", doc)
        assert main(["scenario", f, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        f = write_json(tmp_path / "s.json", minimal_doc(engines=["analytic"]))
        assert main(["scenario", f, "--out", existing_file(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestComparison:
    def test_analytic_vs_spectral(self, tmp_path):
        f = write_json(tmp_path / "s.json",
                       minimal_doc(engines=["analytic", "spectral"]))
        out = tmp_path / "out"
        assert main(["scenario", f, "--out", str(out)]) == 0
        manifest = load_manifest(out)
        assert (out / "comparison.json").exists()
        entry = manifest["comparison"][0]
        assert entry["engines"] == ["analytic", "spectral"]
        assert abs(entry["xi_total_delta_rel"]) < 0.03
        assert abs(entry["peak_amplitude_delta_rel"]) < 0.05
        assert entry["waveform_rms"] < 0.1

    def test_spectral_grid_check(self, tmp_path):
        f = write_json(tmp_path / "s.json", minimal_doc(engines=["spectral"]))
        out = tmp_path / "out"
        assert main(["scenario", f, "--out", str(out), "--grid-check"]) == 0
        summary = load_manifest(out)["engines"]["spectral"]
        assert summary["grid_doubling_rel"] < 1e-4

    def test_spectral_grid_check_skips_refined_quadrature_check(
            self, monkeypatch):
        """Only the refined energy is read: the refined read-out runs no
        quadrature check, and grid_doubling_rel is the one with it."""
        real = runner.converted_field_exact
        checks = []

        def spy(*args, **kwargs):
            checks.append(kwargs.get("quadrature_check", True))
            return real(*args, **kwargs)

        def always_checked(*args, **kwargs):
            return real(*args, **{**kwargs, "quadrature_check": True})

        config = ScenarioConfig.from_dict(minimal_doc(
            engines=["spectral"], grid={"grid_check": True}))
        rel = {}
        for name, wrapper in (("spy", spy), ("checked", always_checked)):
            monkeypatch.setattr(runner, "converted_field_exact", wrapper)
            rel[name] = run_scenario(config, persist=False)[
                "engines"]["spectral"]["grid_doubling_rel"]
        assert checks == [True, False]
        assert rel["spy"] == rel["checked"]

    def test_spectral_grid_check_keeps_storage_decay(self, tmp_path):
        """The refined pass decays the stored coherence like the main one."""
        doc = minimal_doc(engines=["spectral"])
        doc["scheme"] = {"kind": "single-lambda", "D_p": 100.0,
                         "D_c": 100.0, "gamma_sg": 0.02}
        doc["protocol"] = {"eta": 4.0, "kappa": 1.35, "t_s_us": 0.5}
        f = write_json(tmp_path / "s.json", doc)
        out = tmp_path / "out"
        assert main(["scenario", f, "--out", str(out), "--grid-check"]) == 0
        summary = load_manifest(out)["engines"]["spectral"]
        assert summary["grid_doubling_rel"] < 1e-4

    def test_drained_mb_record_compares_like_a_full_one(self, monkeypatch):
        """A wide-band read drains the medium before the automatic run
        length; its zero-filled tail leaves every comparison where the
        full-length run puts it."""
        doc = minimal_doc(engines=["analytic", "spectral", "mb"])
        doc["scheme"] = {"kind": "single-lambda", "D_p": 150.0, "ccp2": 1.0}
        doc["protocol"] = {"eta": 3.5, "kappa": 1.35, "control_ratio": 2.0}
        doc["grid"] = {"n_z": 50}
        config = ScenarioConfig.from_dict(doc)
        drained = run_scenario(config, persist=False)
        monkeypatch.setattr(mb, "DRAIN_TOL", 0.0)
        full = run_scenario(config, persist=False)
        assert drained["engines"]["mb"]["stop"] == "drained"
        assert full["engines"]["mb"]["stop"] == "t_end"
        assert len(drained["comparison"]) == 3
        for new, ref in zip(drained["comparison"], full["comparison"]):
            assert new["engines"] == ref["engines"]
            assert new.keys() == ref.keys()
            for key, value in ref.items():
                if key != "engines":
                    assert new[key] == pytest.approx(value, rel=1e-8,
                                                     abs=1e-8), key


class TestMbRecord:
    def test_peak_on_a_two_step_grid(self):
        """The mb grid changes its step at the read turn-on: the peak is
        interpolated with the spacing around it, not the first one."""
        t = np.concatenate([np.linspace(-10.0, 0.0, 11),
                            0.1 * np.arange(1, 101)])
        field = np.exp(-((t - 2.03) / 1.5) ** 2)
        t_pk, amp, fwhm = _peak_and_fwhm(t, field)
        assert t_pk == pytest.approx(2.03, abs=1e-4)
        assert amp == pytest.approx(1.0, abs=1e-4)
        assert fwhm == pytest.approx(1.5 * np.sqrt(2.0 * np.log(2.0)),
                                     rel=1e-3)

    def test_tail_not_caught_is_reported(self):
        """A short pulse at matched controls: the run reaches its automatic
        run length undrained, with about 9.4e-5 of the input still stored
        in the three coherences and the last converted sample at about
        2.6e-4 of the peak intensity."""
        doc = minimal_doc(engines=["mb"])
        doc["scheme"] = {"kind": "single-lambda", "D_p": 100.0, "ccp2": 1.0}
        doc["units"]["T_p_us"] = 0.05
        doc["protocol"] = {"eta": 4.0, "kappa": 1.35, "control_ratio": 1.0}
        summary = run_scenario(ScenarioConfig.from_dict(doc),
                               persist=False)["engines"]["mb"]
        assert summary["stop"] == "t_end"
        assert 3e-5 < summary["residual_stored"] < 1.5e-4
        assert 1e-4 < summary["tail_intensity"] < 6e-4


class TestStageGrids:
    """Storage and read-out on grids of their own, at a weak read."""

    def weak_read_doc(self, **grid):
        # the benchmark's narrow convert case at read/write ratio 0.3
        doc = minimal_doc(engines=["spectral"], grid=grid)
        doc["scheme"] = {"kind": "single-lambda", "D_p": 375.0, "ccp2": 0.5}
        doc["units"]["T_p_us"] = 0.08
        doc["protocol"] = {"eta": 3.0, "kappa": 1.35, "control_ratio": 0.3}
        return doc

    def spectral_summary(self, doc):
        config = ScenarioConfig.from_dict(doc)
        return run_scenario(config, persist=False)["engines"]["spectral"]

    def test_each_csv_is_on_its_stage_grid(self, tmp_path):
        f = write_json(tmp_path / "s.json", self.weak_read_doc())
        out = tmp_path / "out"
        assert main(["scenario", f, "--out", str(out)]) == 0
        summary = load_manifest(out)["engines"]["spectral"]
        assert summary["omega_max_read"] < 0.2 * summary["omega_max_write"]
        for name, stage in (("converted", "read"), ("probe", "write")):
            t = read_csv(out / f"{name}_spectral.csv")[1]["t"]
            assert t.size == summary[f"n_omega_{stage}"]
            assert t[1] - t[0] == pytest.approx(
                np.pi / summary[f"omega_max_{stage}"], rel=1e-9)

    def test_stage_grids_match_one_shared_grid(self):
        """Against the one grid that used to serve both stages: the write
        span at the read spacing, forced on both."""
        config = ScenarioConfig.from_dict(self.weak_read_doc())
        scheme = config.build_scheme()
        c = config.controls(scheme)
        span = SpectralGrid.for_protocol(scheme, c.Omega_w, c.T_p).omega_max
        shared = self.spectral_summary(
            self.weak_read_doc(n_omega=1 << 17, omega_max=span))
        assert shared["n_omega_read"] == shared["n_omega_write"] == 1 << 17
        auto = self.spectral_summary(self.weak_read_doc())
        assert 4 * auto["n_omega_read"] <= 1 << 17
        assert auto["xi_total"] == pytest.approx(shared["xi_total"], rel=1e-4)

    def test_grid_check_refines_both_stages(self, tmp_path):
        f = write_json(tmp_path / "s.json", self.weak_read_doc())
        out = tmp_path / "out"
        assert main(["scenario", f, "--out", str(out), "--grid-check"]) == 0
        assert load_manifest(out)["engines"]["spectral"][
            "grid_doubling_rel"] < 1e-4

    def test_very_weak_read_fits_the_budget(self, tmp_path):
        """Ratio 0.02 asked one shared grid for 8388608 bins; the read
        grid alone needs 262144."""
        template = minimal_doc(engines=["spectral"])
        template["scheme"] = {"kind": "single-lambda", "D_p": 100.0,
                              "ccp2": 1.0}
        f = write_json(tmp_path / "w.json", {
            "template": template,
            "axes": [{"path": "protocol.control_ratio", "values": [0.02]}]})
        out = tmp_path / "sweep"
        assert main(["sweep", f, "--out", str(out)]) == 0
        cols = read_csv(out / "sweep.csv")[1]
        assert cols["spectral.n_omega_read"][0] == 1 << 18
        assert 0 < cols["spectral.xi_total"][0] < 1


class TestDeterminism:
    def test_rerun_is_byte_identical_up_to_timestamp(self, tmp_path):
        doc = minimal_doc(engines=["analytic", "spectral"])
        doc["scheme"]["ccp2"] = 1.0      # matched read: n_omega 16384
        f = write_json(tmp_path / "s.json", doc)
        out = tmp_path / "out"
        names = ("converted_analytic.csv", "efficiency_analytic.json",
                 "converted_spectral.csv", "probe_spectral.csv")
        main(["scenario", f, "--out", str(out)])
        first = {name: (out / name).read_bytes() for name in names}
        first_man = load_manifest(out)
        main(["scenario", f, "--out", str(out)])
        for name in names:
            assert (out / name).read_bytes() == first[name], name
        second_man = load_manifest(out)
        first_man.pop("created_unix")
        second_man.pop("created_unix")
        assert first_man == second_man


class TestSweepCommand:
    def sweep_doc(self, axes, **top):
        doc = {"template": minimal_doc(), "axes": axes}
        doc.update(top)
        return doc

    def test_one_point_sweep_matches_scenario(self, tmp_path):
        scen = write_json(tmp_path / "s.json", minimal_doc())
        out_s = tmp_path / "scenario"
        main(["scenario", scen, "--out", str(out_s)])
        xi_scenario = load_manifest(out_s)["engines"]["analytic"]["xi_total"]

        sweep = write_json(tmp_path / "w.json", self.sweep_doc(
            [{"path": "protocol.eta", "values": [4.0]}]))
        out_w = tmp_path / "sweep"
        assert main(["sweep", sweep, "--out", str(out_w)]) == 0
        header, cols = read_csv(out_w / "sweep.csv")
        assert header[0] == "protocol.eta"
        assert cols["analytic.xi_total"].shape == (1,)
        assert abs(cols["analytic.xi_total"][0] - xi_scenario) < 1e-14

    def test_flags_reach_every_point(self, tmp_path):
        doc = self.sweep_doc([{"path": "protocol.eta", "values": [3.0, 4.0]}],
                             parallelism=2)
        doc["template"]["scheme"] = {"kind": "single-lambda", "D_p": 50.0,
                                     "ccp2": 1.0}
        doc["template"]["grid"] = {"n_z": 16}
        f = write_json(tmp_path / "w.json", doc)
        out = tmp_path / "sweep"
        assert main(["sweep", f, "--out", str(out), "--engine", "mb",
                     "--grid-check"]) == 0
        header, cols = read_csv(out / "sweep.csv")
        assert not [name for name in header if name.startswith("analytic.")]
        assert np.all(np.isfinite(cols["mb.grid_doubling_rel"]))
        assert cols["mb.grid_doubling_rel"].shape == (2,)

    def test_symmetric_populations_make_eta_sweep_flat(self, tmp_path):
        doc = self.sweep_doc([{"path": "protocol.eta",
                               "values": [2.5, 4.0, 6.0, 8.0]}])
        doc["template"]["scheme"] = {
            "kind": "cesium-d1",
            "direction": "sigma-->sigma+",
            "populations": [0.05, 0.1, 0.2, 0.3, 0.2, 0.1, 0.05],
            "alpha_p": 270.0,
            "alpha_c": 270.0,
        }
        f = write_json(tmp_path / "w.json", doc)
        out = tmp_path / "sweep"
        assert main(["sweep", f, "--out", str(out)]) == 0
        header, cols = read_csv(out / "sweep.csv")
        xi = cols["analytic.xi_relative"]
        assert np.ptp(xi) <= 1e-10
        assert abs(xi[0] - 0.47971157) < 1e-6

    def test_ccp2_log_sweep_crosses_unity(self, tmp_path):
        f = write_json(tmp_path / "w.json", self.sweep_doc(
            [{"path": "scheme.ccp2", "start": 0.1, "stop": 10.0,
              "count": 9, "scale": "log"}],
            parallelism=2))
        out = tmp_path / "sweep"
        assert main(["sweep", f, "--out", str(out)]) == 0
        header, cols = read_csv(out / "sweep.csv")
        r = cols["scheme.ccp2"]
        xi = cols["analytic.xi_relative"]
        assert np.all(np.diff(xi) > 0)
        assert xi[0] < 1.0 < xi[-1]
        assert abs(xi[4] - 1.0) < 1e-9
        expected = [relative_efficiency_single(4.0, 1.35, 500.0, 500.0 * ri)
                    for ri in r]
        assert np.max(np.abs(xi - expected)) < 1e-9

    def test_parallel_sweep_reports_progress(self, tmp_path, capsys):
        f = write_json(tmp_path / "w.json", self.sweep_doc(
            [{"path": "protocol.eta", "values": [2.5, 4.0, 6.0]}],
            parallelism=2))
        out = tmp_path / "sweep"
        assert main(["sweep", f, "--out", str(out)]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("sweep point")]
        assert sorted(lines) == [f"sweep point {i}/3" for i in (1, 2, 3)]
        header, cols = read_csv(out / "sweep.csv")
        assert list(cols["protocol.eta"]) == [2.5, 4.0, 6.0]

    def test_partial_failure_keeps_good_rows(self, tmp_path, capsys):
        f = write_json(tmp_path / "w.json", self.sweep_doc(
            [{"path": "scheme.ccp2", "values": [1.0, -1.0]}]))
        out = tmp_path / "sweep"
        assert main(["sweep", f, "--out", str(out)]) == 0
        assert "1/2 points succeeded" in capsys.readouterr().out
        header, cols = read_csv(out / "sweep.csv")
        xi = cols["analytic.xi_total"]
        assert np.isfinite(xi[0])
        assert np.isnan(xi[1])
        manifest = load_manifest(out)
        assert len(manifest["failures"]) == 1
        assert manifest["failures"][0]["assignments"] == {"scheme.ccp2": -1.0}

    def test_flagged_points_listed_in_manifest(self, tmp_path):
        doc = self.sweep_doc([{"path": "protocol.eta", "values": [2.0, 4.0]}])
        doc["template"]["engines"] = ["analytic"]
        f = write_json(tmp_path / "w.json", doc)
        out = tmp_path / "sweep"
        assert main(["sweep", f, "--out", str(out)]) == 0
        flagged = load_manifest(out)["flagged"]
        assert [x["index"] for x in flagged] == [0]
        assert flagged[0]["assignments"] == {"protocol.eta": 2.0}
        assert flagged[0]["flags"].startswith("eta < 2.5")
        header, _ = read_csv(out / "sweep.csv")
        assert "analytic.flags" not in header

    def test_all_points_failing_exits_2(self, tmp_path):
        doc = self.sweep_doc(
            [{"path": "scheme.pump_trajectory",
              "values": ["no1.csv", "no2.csv"]}])
        doc["template"]["scheme"] = {
            "kind": "cesium-d1",
            "direction": "sigma-->sigma+",
            "pump_trajectory": "placeholder.csv",
            "pump_time_us": 0.5,
            "alpha_p": 270.0,
            "alpha_c": 270.0,
        }
        f = write_json(tmp_path / "w.json", doc)
        assert main(["sweep", f, "--out", str(tmp_path / "sweep")]) == 2

    def test_failing_sweep_exits_like_scenario(self, tmp_path, capsys):
        # the stored pulse would sit past the medium: invalid, not numerical
        doc = minimal_doc()
        doc["scheme"]["ccp2"] = 1.0
        doc["protocol"]["kappa"] = 5.0
        doc["engines"] = ["analytic"]
        scen = write_json(tmp_path / "s.json", doc)
        assert main(["scenario", scen, "--out", str(tmp_path / "s")]) == 2
        f = write_json(tmp_path / "w.json", {
            "template": doc,
            "axes": [{"path": "protocol.kappa", "values": [5.0, 6.0]}]})
        assert main(["sweep", f, "--out", str(tmp_path / "sweep")]) == 2
        manifest = load_manifest(tmp_path / "sweep")
        assert [x["exit_code"] for x in manifest["failures"]] == [2, 2]

    def test_trajectory_naming_a_directory_exits_2(self, tmp_path):
        (tmp_path / "trajectory").mkdir()
        doc = self.sweep_doc([{"path": "protocol.eta", "values": [4.0]}])
        doc["template"]["scheme"] = cesium_from_trajectory(
            tmp_path / "trajectory")
        f = write_json(tmp_path / "w.json", doc)
        assert main(["sweep", f, "--out", str(tmp_path / "sweep")]) == 2
        manifest = load_manifest(tmp_path / "sweep")
        assert [x["exit_code"] for x in manifest["failures"]] == [2]

    def test_format_flag_refused(self, tmp_path):
        sweep = write_json(tmp_path / "w.json", self.sweep_doc(
            [{"path": "protocol.eta", "values": [4.0]}]))
        with pytest.raises(SystemExit) as exc:
            main(["sweep", sweep, "--out", str(tmp_path / "out"),
                  "--format", "csv"])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_invalid_template_exits_2(self, tmp_path):
        doc = self.sweep_doc([{"path": "protocol.eta", "values": [4.0]}])
        doc["template"]["units"] = {}
        f = write_json(tmp_path / "w.json", doc)
        assert main(["sweep", f, "--out", str(tmp_path / "sweep")]) == 2


class TestPumpCommand:
    def pump_doc(self, **over):
        doc = {
            "polarization": "sigma+",
            "Omega_over_Gamma": 1.2,
            "duration_us": 1.6,
            "n_samples": 41,
        }
        doc.update(over)
        return doc

    def test_sigma_plus_pump_run(self, tmp_path):
        f = write_json(tmp_path / "p.json", self.pump_doc())
        out = tmp_path / "pump"
        assert main(["pump", f, "--out", str(out)]) == 0
        assert (out / "trajectory.csv").exists()
        report = json.loads((out / "pump_report.json").read_text())
        assert report["final_p_m+3"] > 0.99
        assert report["steady_p_m+3"] > 0.99
        assert abs(report["steady_m_expectation"] - 3.0) < 1e-3
        header, cols = read_csv(out / "trajectory.csv")
        assert header[0] == "t"
        assert cols["p_m+3"][-1] > 0.99

    def test_report_names_step(self, tmp_path):
        f = write_json(tmp_path / "p.json", self.pump_doc())
        out = tmp_path / "pump"
        assert main(["pump", f, "--out", str(out)]) == 0
        report = json.loads((out / "pump_report.json").read_text())
        interval = UnitSystem().time_in(1.6) / 40
        substeps = report["substeps_per_sample"]
        assert substeps == int(np.ceil(interval / (0.05 / 1.2)))
        assert report["dt"] * substeps == pytest.approx(interval, rel=1e-12)

    @pytest.mark.parametrize("polarization, Omega, index", [
        ("sigma+", 0.1, 6), ("pi", 0.05, 3)])
    def test_weak_pump_reaches_steady_state(self, tmp_path, polarization,
                                            Omega, index):
        f = write_json(tmp_path / "p.json", self.pump_doc(
            polarization=polarization, Omega_over_Gamma=Omega))
        out = tmp_path / "pump"
        assert main(["pump", f, "--out", str(out)]) == 0
        report = json.loads((out / "pump_report.json").read_text())
        m = index - 3
        assert report[f"steady_p_m{m:+d}"] > 1.0 - 1e-6

    def test_validation_exits_2(self, tmp_path):
        f = write_json(tmp_path / "p.json",
                       self.pump_doc(polarization="circular"))
        assert main(["pump", f, "--out", str(tmp_path / "pump")]) == 2

    def test_nonfinite_initial_exits_2(self, tmp_path, capsys):
        f = write_json(tmp_path / "p.json",
                       self.pump_doc(initial=[float("nan")] + [1.0] * 6))
        assert main(["pump", f, "--out", str(tmp_path / "pump")]) == 2
        err = capsys.readouterr().err
        assert "initial" in err and "finite" in err
        assert not (tmp_path / "pump").exists()

    def test_fractional_n_samples_exits_2(self, tmp_path, capsys):
        f = write_json(tmp_path / "p.json", self.pump_doc(n_samples=40.5))
        assert main(["pump", f, "--out", str(tmp_path / "pump")]) == 2
        assert "n_samples: must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "pump").exists()

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        f = write_json(tmp_path / "p.json", self.pump_doc())
        assert main(["pump", f, "--out", existing_file(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_scenario_reads_the_pump_clock(self, tmp_path):
        """A scenario at another linewidth selects rows by the pump run's
        own microseconds: 0.8 and 1.6 us, not 0.72 and 1.44."""
        f = write_json(tmp_path / "p.json", self.pump_doc(gamma_2pi_MHz=5.0))
        out = tmp_path / "pump"
        assert main(["pump", f, "--out", str(out)]) == 0
        header, cols = read_csv(out / "trajectory.csv")
        assert header[:2] == ["t", "t_us"]
        assert cols["t_us"] == pytest.approx(np.linspace(0.0, 1.6, 41),
                                             abs=1e-12)
        for time_us in (0.8, 1.6):
            row = int(np.argmin(np.abs(cols["t_us"] - time_us)))
            assert cols["t_us"][row] == pytest.approx(time_us, abs=1e-12)
            ground = np.array([cols[f"p_m{m:+d}"][row]
                               for m in range(-3, 4)])
            doc = minimal_doc()
            doc["scheme"] = dict(cesium_from_trajectory(
                out / "trajectory.csv"), pump_time_us=time_us)
            scheme = ScenarioConfig.from_dict(doc).build_scheme()
            assert np.max(np.abs(scheme.p - ground / ground.sum())) < 1e-12

    def test_trajectory_feeds_scenario(self, tmp_path):
        f = write_json(tmp_path / "p.json", self.pump_doc())
        out = tmp_path / "pump"
        main(["pump", f, "--out", str(out)])
        doc = minimal_doc()
        doc["scheme"] = {
            "kind": "cesium-d1",
            "direction": "sigma-->sigma+",
            "pump_trajectory": str(out / "trajectory.csv"),
            "pump_time_us": 1.6,
            "alpha_p": 1890.0,
            "alpha_c": 1890.0,
        }
        scen = write_json(tmp_path / "s.json", doc)
        out_s = tmp_path / "conv"
        assert main(["scenario", scen, "--out", str(out_s)]) == 0
        summary = load_manifest(out_s)["engines"]["analytic"]
        assert abs(summary["xi_relative"] - 1.34604) < 2e-4
        assert abs(summary["xi_total"] - 0.711578) < 2e-4
        assert summary["xi_relative"] > 1.0


class TestFigureCommand:
    def test_unknown_figure_exits_2(self, tmp_path):
        assert main(["figure", "fig99", "--out", str(tmp_path)]) == 2

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        assert main(["figure", "fig4", "--out", existing_file(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_format_flag_refused(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "fig4", "--out", str(tmp_path / "out"),
                  "--format", "csv"])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_fig4_trends(self, tmp_path):
        out = tmp_path / "fig4"
        assert main(["figure", "fig4", "--out", str(out)]) == 0
        manifest = json.loads((out / "fig4_manifest.json").read_text())
        assert len(manifest["files"]) == 6
        header, strong = read_csv(out / "fig4_ccp2_10_d500.csv")
        header, weak = read_csv(out / "fig4_ccp2_0p1_d500.csv")
        assert np.all(np.diff(strong["xi_relative"]) > 0)
        assert np.all(np.diff(weak["xi_relative"]) < 0)
        assert np.all(strong["xi_relative"] > 1.0)
        assert np.all(weak["xi_relative"] < 1.0)
