"""Scenario orchestration: run engines, persist results, compare them.

All three engines report a converted waveform on a shared time axis
whose origin is the read-control turn-on, so pointwise comparisons need
no further alignment.  mb and spectral share the protocol's time window
too (mb.ControlTimeline.window) and one z rule (grid.n_z is mb's only).
The spectral engine sizes its read-out
grid by that window less the storage hold, and keeps the converted
samples on it, [t_start - t_w, t_end - t_r] from the read turn-on; it
keeps the slow-light probe's samples within [-2 T_p, t_end] of the
slow-light run, which the write grid's time axis holds.  Summaries
are flat dicts
of numbers, plus the closed form's validity flags, the names of the
rules that set the spectral grids and of the rates that bounded the mb
steps, and the mb stop reasons; a sweep row is the axis values followed
by the numeric entries flattened as "engine.key" columns.  Every run
input comes from the config, which the CLI flags edit before it is
built, so a manifest's "config" is what ran.

Per-engine summary keys:
  analytic: xi1, xi2, xi_total, xi_relative, delta_omega_c, eta, kappa,
            beta_w, beta_r, converted_energy, input_energy, peak_time,
            peak_amplitude, fwhm, flags (the write- and read-channel
            validity flags of the Gaussian model joined by "; ", empty
            inside its regime)
  spectral: converted_energy, input_energy, xi_total, transmission,
            quadrature_delta (z-quadrature error estimate), n_omega_write,
            n_omega_read,
            omega_max_write, omega_max_read, and the rule that set each
            (n_omega_limit_write, n_omega_limit_read: bandwidth,
            slow_light, window, floor or given; omega_max_limit_write,
            omega_max_limit_read: bandwidth, linewidth, read_rabi or
            given), peak_time, peak_amplitude, fwhm
  mb:       converted_energy, input_energy, xi_total, xi_relative,
            leakage, transmitted_energy, peak_time, peak_amplitude, fwhm,
            stop ("drained" once the medium is drained, or "t_end" at the
            automatic run length), residual_stored (fraction of the input
            still stored where the run stopped), tail_intensity (last
            stepped converted sample over the peak intensity), n_t
            (samples stepped; the waveforms keep the planned axis up to
            t_end, zero after a drained stop), t_end, and per phase the
            step and the limit that set it: dt_write, dt_limit_write,
            dt_read, dt_limit_read
            (Gamma_w, Gamma_r, bandwidth, write_control, read_control,
            write_depth, read_depth or gamma_sg), err_est (RK4's embedded
            error estimate summed over the steps, relative to the input
            amplitude; at most mb.ERR_TOL); of the original-readout
            companion behind xi_relative: companion_n_t (samples it
            stepped after resuming from the main run at the read
            turn-on), companion_stop ("drained" or "t_end"),
            companion_residual (fraction of the input still in the
            medium where it stopped) and companion_err_est
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .arrayio import write_csv
from .atoms import ConversionScheme
from .config import PumpSpec, ResolvedControls, ScenarioConfig, SweepSpec
from .errors import exit_code
# bench/spans.py wraps run_protocol and run_original_readout by name and
# reads the scheme from the first argument
from .mb import (N_Z, ControlTimeline, GaussianPulse, run_original_readout,
                 run_protocol, timeline_for_protocol)
from .pumping import evolve_pumping, steady_state
from .spectral import (SpectralGrid, converted_field_exact,
                       gaussian_probe_spectrum, stored_coherence_exact,
                       transmitted_probe)
from .theory import (converted_spectrum, pulse_energy, read_channel,
                     total_efficiency, write_channel)
from .units import UnitSystem

__all__ = [
    "EngineOutput",
    "run_engine",
    "run_scenario",
    "run_sweep",
    "run_pump",
    "compare_outputs",
]


def _peak_and_fwhm(t: np.ndarray, field: np.ndarray):
    """Interpolated intensity peak location, amplitude, and FWHM.

    The peak is the maximum of the quartic through the five samples
    around the largest one, each half-maximum crossing the root of the
    cubic through the four samples around it, on their own spacings (the
    mb grid changes step at t_r); Newton steps from the largest sample
    and from the linear crossing reach them.  Both are fourth order in
    the spacing: a three-point parabola and linear crossings move
    peak_time and fwhm of a skewed pulse by up to 4e-4 of the fwhm
    between a step and twice that step.
    """
    inten = np.abs(np.asarray(field)) ** 2
    i = int(np.argmax(inten))
    t_pk, v_pk = t[i], inten[i]
    if 0 < i < t.size - 1:
        fit = _local_fit(t, inten, i - 2, i + 3, t[i])
        x = _newton(lambda x: _evaluate(fit, x)[1:], 0.0,
                    float(t[i - 1] - t[i]), float(t[i + 1] - t[i]), 3)
        if _evaluate(fit, x)[0] > v_pk:
            t_pk, v_pk = t[i] + x, _evaluate(fit, x)[0]
    half = 0.5 * v_pk
    above = inten >= half
    if not above.any() or v_pk == 0:
        return float(t_pk), 0.0, 0.0
    lo = int(np.argmax(above))
    hi = int(t.size - 1 - np.argmax(above[::-1]))

    def _cross(a):
        """Where the intensity crosses half between samples a and a + 1,
        which lie on either side of it."""
        h = float(t[a + 1] - t[a])
        linear = h * (half - inten[a]) / (inten[a + 1] - inten[a])
        fit = _local_fit(t, inten, a - 1, a + 3, t[a])

        def excess(x):
            p, dp, _ = _evaluate(fit, x)
            return p - half, dp

        return t[a] + _newton(excess, linear, 0.0, h, 2)

    left = _cross(lo - 1) if lo > 0 else t[0]
    right = _cross(hi) if hi + 1 < t.size else t[hi]
    return float(t_pk), float(math.sqrt(v_pk)), float(right - left)


def _local_fit(t, y, start, stop, origin):
    """The polynomial through the samples start..stop - 1, clipped to the
    axis, in Newton form: nodes in t - origin and divided differences."""
    sl = slice(max(start, 0), min(stop, t.size))
    nodes = (t[sl] - origin).tolist()
    coef = y[sl].tolist()
    for j in range(1, len(nodes)):
        for k in range(len(nodes) - 1, j - 1, -1):
            coef[k] = (coef[k] - coef[k - 1]) / (nodes[k] - nodes[k - j])
    return nodes, coef


def _evaluate(fit, x):
    """Value, first and second derivative of a _local_fit polynomial."""
    nodes, coef = fit
    p, dp, d2p = coef[-1], 0.0, 0.0
    for k in range(len(coef) - 2, -1, -1):
        d2p = d2p * (x - nodes[k]) + 2.0 * dp
        dp = dp * (x - nodes[k]) + p
        p = p * (x - nodes[k]) + coef[k]
    return p, dp, d2p


def _newton(f, x, a, b, steps):
    """steps Newton steps on f(x) -> (value, slope) from x, or x itself if
    one would leave the interval between a and b."""
    start = x
    for _ in range(steps):
        value, slope = f(x)
        if slope == 0:
            break
        x -= value / slope
        if not min(a, b) <= x <= max(a, b):
            return start
    return x


@dataclass
class EngineOutput:
    """One engine's converted waveform plus scalar summary.

    t has its origin at the read turn-on; extras maps a curve name to
    (t, complex waveform) pairs worth persisting alongside the main one.
    """

    engine: str
    t: np.ndarray
    waveform: np.ndarray
    summary: dict
    extras: dict


def _waveform_stats(t, waveform):
    t_pk, a_pk, fwhm = _peak_and_fwhm(np.asarray(t), np.asarray(waveform))
    return {"peak_time": t_pk, "peak_amplitude": a_pk, "fwhm": fwhm}


def _run_analytic(scheme: ConversionScheme, config: ScenarioConfig,
                  controls: ResolvedControls) -> EngineOutput:
    write = write_channel(scheme, controls.Omega_w, controls.T_p,
                          controls.kappa)
    read = read_channel(scheme, controls.Omega_r, write)
    report = total_efficiency(scheme, write, read)
    model = converted_spectrum(scheme, write, read)
    decay = math.exp(-scheme.gamma_sg * controls.t_s)
    width = max(model.temporal_fwhm, 1e-9)
    t = model.t0 + np.linspace(-4.0, 4.0, 1025) * width
    waveform = decay * model.time_waveform(t)
    summary = asdict(report)
    summary.update({
        "converted_energy": decay * decay * model.energy,
        "input_energy": model.input_energy,
        "xi_total": decay * decay * model.efficiency,
        "flags": "; ".join(write.flags + read.flags),
    })
    # the waveform is a Gaussian: its peak and width in closed form
    summary.update({"peak_time": model.t0,
                    "peak_amplitude": decay * model.peak_amplitude,
                    "fwhm": model.temporal_fwhm})
    return EngineOutput("analytic", t, waveform, summary, {})


def _timeline(config: ScenarioConfig, controls: ResolvedControls):
    return timeline_for_protocol(controls.Omega_w, controls.Omega_r,
                                 controls.T_p, controls.kappa,
                                 t_s=controls.t_s,
                                 ramp_fraction=config.grid.ramp_fraction)


def _on_window(t, waveform, window):
    """The samples of a uniform axis within half a step of window."""
    half = 0.5 * (t[1] - t[0])
    keep = (t > window[0] - half) & (t < window[1] + half)
    return t[keep], waveform[keep]


def _run_spectral(scheme: ConversionScheme, config: ScenarioConfig,
                  controls: ResolvedControls) -> EngineOutput:
    over = config.grid
    read_window = _timeline(config, controls).read_window(scheme,
                                                          controls.T_p)
    probe_window = ControlTimeline(controls.Omega_w).window(scheme,
                                                            controls.T_p)
    # forced grid fields apply to both stages (grid.n_z is mb's only)
    forced = {"n_omega": over.n_omega, "omega_max": over.omega_max}
    write_grid = SpectralGrid.for_write(scheme, controls.Omega_w,
                                        controls.T_p, **forced)
    read_grid = SpectralGrid.for_read(scheme, controls.Omega_w, controls.T_p,
                                      controls.Omega_r, read_window, **forced)
    decay = math.exp(-scheme.gamma_sg * controls.t_s)

    def convert(write_grid, read_grid, quadrature_check=True):
        """Store on the write grid, decay through the storage time, read
        out on the read grid."""
        stored = stored_coherence_exact(
            scheme, controls.Omega_w,
            gaussian_probe_spectrum(write_grid, controls.T_p),
            controls.kappa * controls.T_p, write_grid)
        if decay != 1.0:
            stored = replace(stored, sigma=decay * stored.sigma)
        return converted_field_exact(scheme, stored, controls.Omega_r,
                                     read_grid,
                                     quadrature_check=quadrature_check,
                                     t_start=read_window[0])

    fine_grids = ((write_grid.refined(), read_grid.refined())
                  if over.grid_check else None)
    res = convert(write_grid, read_grid)
    trans = transmitted_probe(
        scheme, controls.Omega_w,
        gaussian_probe_spectrum(write_grid, controls.T_p), write_grid)
    input_energy = pulse_energy(controls.T_p)
    summary = {
        "converted_energy": res.energy,
        "input_energy": input_energy,
        "xi_total": res.energy / input_energy,
        "transmission": trans.energy_out / trans.energy_in,
        "quadrature_delta": res.quadrature_delta,
        "n_omega_write": write_grid.n_omega,
        "n_omega_read": read_grid.n_omega,
        "omega_max_write": write_grid.omega_max,
        "omega_max_read": read_grid.omega_max,
        "n_omega_limit_write": write_grid.n_omega_limit,
        "n_omega_limit_read": read_grid.n_omega_limit,
        "omega_max_limit_write": write_grid.omega_max_limit,
        "omega_max_limit_read": read_grid.omega_max_limit,
    }
    t, waveform = _on_window(res.t, res.waveform, read_window)
    summary.update(_waveform_stats(t, waveform))
    if fine_grids is not None:
        # only the refined energy is read: no quadrature check
        fine = convert(*fine_grids, quadrature_check=False)
        rel = abs(res.energy - fine.energy) / fine.energy
        summary["grid_doubling_rel"] = rel
    return EngineOutput("spectral", t, waveform, summary,
                        {"probe": _on_window(trans.t, trans.waveform,
                                             probe_window)})


def _run_mb(scheme: ConversionScheme, config: ScenarioConfig,
            controls: ResolvedControls) -> EngineOutput:
    pulse = GaussianPulse(T_p=controls.T_p)
    timeline = _timeline(config, controls)
    grid = None
    if config.grid.n_z or config.grid.n_t:
        grid = (config.grid.n_z or N_Z, config.grid.n_t or 0)
    record = run_protocol(scheme, pulse, timeline, grid=grid,
                          grid_check=config.grid.grid_check, companion=True)
    companion = run_original_readout(scheme, record)
    energies = record.energies
    t = record.t_exit - timeline.t_r
    summary = {
        "converted_energy": energies["converted"],
        "input_energy": energies["input"],
        "transmitted_energy": energies["transmitted"],
        "xi_total": energies["converted"] / energies["input"],
        "xi_relative": (energies["converted"]
                        / companion.energies["converted"]),
        "leakage": energies["leaked"] / energies["input"],
    }
    summary.update(_waveform_stats(t, record.converted_exit))
    # what the run left undone: the excitation still stored where it
    # stopped, and the converted intensity of the last stepped sample (the
    # samples after a drained stop are zero) against its peak
    intensity = np.abs(record.converted_exit) ** 2
    summary["stop"] = record.diagnostics["stop"]
    summary["residual_stored"] = energies["residual_stored"] / energies["input"]
    summary["tail_intensity"] = (
        float(intensity[record.diagnostics["n_t"] - 1] / intensity.max())
        if intensity.max() > 0 else 0.0)
    for key in ("n_t", "t_end", "dt_write", "dt_limit_write", "dt_read",
                "dt_limit_read", "err_est"):
        if key in record.diagnostics:
            summary[key] = record.diagnostics[key]
    summary["companion_n_t"] = companion.diagnostics["n_t"]
    summary["companion_stop"] = companion.diagnostics["stop"]
    summary["companion_err_est"] = companion.diagnostics["err_est"]
    summary["companion_residual"] = (companion.energies["residual_stored"]
                                     / companion.energies["input"])
    for key in ("grid_doubling_rel", "grid_converged"):
        if key in record.diagnostics:
            summary[key] = float(record.diagnostics[key])
    return EngineOutput("mb", t, record.converted_exit, summary,
                        {"probe": (t, record.probe_exit)})


_ENGINE_RUNNERS = {
    "analytic": _run_analytic,
    "spectral": _run_spectral,
    "mb": _run_mb,
}


def run_engine(name: str, scheme: ConversionScheme, config: ScenarioConfig,
               controls: ResolvedControls) -> EngineOutput:
    return _ENGINE_RUNNERS[name](scheme, config, controls)


def compare_outputs(outputs) -> list:
    """Pairwise waveform RMS and energy deltas between engine outputs.

    The RMS is over the first engine's time samples inside the common
    window, normalized by that engine's peak amplitude; deltas are
    (second - first) / first.
    """
    reports = []
    for i in range(len(outputs)):
        for k in range(i + 1, len(outputs)):
            a, b = outputs[i], outputs[k]
            lo = max(a.t[0], b.t[0])
            hi = min(a.t[-1], b.t[-1])
            window = (a.t >= lo) & (a.t <= hi)
            entry = {"engines": [a.engine, b.engine]}
            peak = float(np.abs(a.waveform).max())
            if window.any() and peak > 0:
                tb = a.t[window]
                interp = (np.interp(tb, b.t, b.waveform.real)
                          + 1j * np.interp(tb, b.t, b.waveform.imag))
                diff = np.abs(a.waveform[window] - interp)
                entry["waveform_rms"] = float(
                    np.sqrt(np.mean(diff ** 2)) / peak)
            else:
                entry["waveform_rms"] = float("nan")
            for key in ("converted_energy", "xi_total", "xi_relative",
                        "peak_amplitude", "fwhm"):
                va, vb = a.summary.get(key), b.summary.get(key)
                if va is not None and vb is not None and va != 0:
                    entry[f"{key}_delta_rel"] = (vb - va) / va
            entry["peak_time_delta"] = (b.summary["peak_time"]
                                        - a.summary["peak_time"])
            reports.append(entry)
    return reports


def _write_report(path_base: Path, payload: dict, fmt: str) -> Path:
    if fmt == "csv":
        path = path_base.with_suffix(".csv")
        lines = ["key,value"]
        for key in sorted(payload):
            lines.append(f"{key},{payload[key]}")
        path.write_text("\n".join(lines) + "\n")
        return path
    path = path_base.with_suffix(".json")
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _write_waveform(path: Path, t, waveform, units: UnitSystem) -> None:
    waveform = np.asarray(waveform)
    write_csv(path, ["t", "t_us", "re", "im", "intensity"],
              [t, units.time_out(t), waveform.real, waveform.imag,
               np.abs(waveform) ** 2])


def run_scenario(config: ScenarioConfig, out_dir=None, fmt="json",
                 persist=True) -> dict:
    """Execute the config's engines and return the manifest.

    persist=False skips all file output (used by sweeps); otherwise the
    output directory receives one converted-waveform CSV and one
    efficiency report per engine, a comparison report when more than one
    engine ran, and a manifest whose "config" is the document that ran.
    Re-running writes byte-identical CSV bodies; only the manifest
    timestamp changes.
    """
    scheme = config.build_scheme()
    controls = config.controls(scheme)
    units = config.units.system()

    outputs = [run_engine(name, scheme, config, controls)
               for name in config.engines]
    comparison = compare_outputs(outputs) if len(outputs) > 1 else []
    manifest = {
        "config": config.raw,
        "version": __version__,
        "created_unix": time.time(),
        "controls": asdict(controls),
        "engines": {o.engine: o.summary for o in outputs},
        "comparison": comparison,
        "files": [],
    }
    if not persist:
        return manifest

    out = Path(out_dir) if out_dir is not None else Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for output in outputs:
        wave_path = out / f"converted_{output.engine}.csv"
        _write_waveform(wave_path, output.t, output.waveform, units)
        manifest["files"].append(wave_path.name)
        for name, (t, waveform) in sorted(output.extras.items()):
            extra_path = out / f"{name}_{output.engine}.csv"
            _write_waveform(extra_path, t, waveform, units)
            manifest["files"].append(extra_path.name)
        report = _write_report(out / f"efficiency_{output.engine}",
                               output.summary, fmt)
        manifest["files"].append(report.name)
    if comparison:
        path = out / "comparison.json"
        path.write_text(json.dumps(comparison, indent=2, sort_keys=True)
                        + "\n")
        manifest["files"].append(path.name)
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def _numeric_entries(engines: dict) -> dict:
    """Every numeric summary entry of a manifest's engines, as
    "engine.key" -> float in engine and key order."""
    return {f"{engine}.{key}": float(value)
            for engine, summary in engines.items()
            for key, value in summary.items()
            if isinstance(value, (int, float))}


def _sweep_point(index, doc, base_dir):
    """Worker for one grid point; returns (index, summaries or error)."""
    try:
        config = ScenarioConfig.from_dict(doc, base_dir=base_dir)
        manifest = run_scenario(config, persist=False)
        return index, {"ok": True, "engines": manifest["engines"]}
    except Exception as exc:
        return index, {"ok": False, "exit_code": exit_code(exc),
                       "error": f"{type(exc).__name__}: {exc}"}


def run_sweep(spec: SweepSpec, out_dir=None, base_dir=".",
              progress=None) -> dict:
    """Run the whole grid, axis-major, and write sweep.csv plus manifest.

    Failed points are reported in the manifest and leave NaN rows; the
    sweep completes regardless.  Points whose analytic summary carries
    validity flags are listed in the manifest as "flagged".  Rows appear
    in flat-index order, the first axis varying slowest.
    """
    jobs = [(i, spec.point(i), str(base_dir)) for i in range(spec.size)]
    results = []

    def done(result):
        results.append(result)
        if progress is not None:
            progress(f"sweep point {result[0] + 1}/{spec.size}")

    if spec.parallelism > 1 and spec.size > 1:
        with ProcessPoolExecutor(max_workers=spec.parallelism) as pool:
            for future in as_completed([pool.submit(_sweep_point, *job)
                                        for job in jobs]):
                done(future.result())
    else:
        for job in jobs:
            done(_sweep_point(*job))
    results.sort(key=lambda item: item[0])

    first = next((payload for _, payload in results if payload["ok"]), None)
    summary_cols = list(_numeric_entries(first["engines"])) if first else []
    axis_names = [axis.path for axis in spec.axes]
    header = axis_names + summary_cols
    rows = np.full((spec.size, len(header)), np.nan)
    failures, flagged = [], []
    for index, payload in results:
        assignments = spec.assignments(index)
        for k, name in enumerate(axis_names):
            rows[index, k] = assignments[name]
        if not payload["ok"]:
            failures.append({"index": index, "assignments": assignments,
                             "error": payload["error"],
                             "exit_code": payload["exit_code"]})
            continue
        flags = payload["engines"].get("analytic", {}).get("flags")
        if flags:
            flagged.append({"index": index, "assignments": assignments,
                            "flags": flags})
        flat = _numeric_entries(payload["engines"])
        for k, name in enumerate(summary_cols):
            rows[index, len(axis_names) + k] = flat.get(name, np.nan)

    manifest = {
        "version": __version__,
        "created_unix": time.time(),
        "axes": [{"path": a.path, "values": list(a.values)}
                 for a in spec.axes],
        "shape": list(spec.shape),
        "columns": header,
        "failures": failures,
        "flagged": flagged,
        "n_ok": spec.size - len(failures),
    }
    out = Path(out_dir) if out_dir is not None else Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "sweep.csv", header,
              [rows[:, k] for k in range(len(header))])
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    manifest["rows"] = rows
    return manifest


def run_pump(spec: PumpSpec, out_dir=None, fmt="json") -> dict:
    """Integrate one pump run; write the trajectory CSV, whose t_us
    column is on the run's own gamma_2pi_MHz clock, and a report."""
    config = spec.pump_config()
    initial = np.asarray(spec.initial)
    trajectory = evolve_pumping(config, initial, n_samples=spec.n_samples)
    out = Path(out_dir) if out_dir is not None else Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    traj_path = out / "trajectory.csv"
    trajectory.to_csv(traj_path, UnitSystem(spec.gamma_2pi_MHz).time_out(
        trajectory.t))
    final = trajectory.final
    report = {
        "polarization": spec.polarization,
        "Omega_over_Gamma": spec.Omega_over_Gamma,
        "duration_us": spec.duration_us,
        "final_excited_fraction": float(trajectory.excited_fraction[-1]),
        "final_m_expectation": final.mean_m(),
        "dt": trajectory.dt,
        "substeps_per_sample": trajectory.substeps,
    }
    for i, m in enumerate(range(-3, 4)):
        report[f"final_p_m{m:+d}"] = float(final.p[i])
    if spec.steady and spec.Omega_over_Gamma > 0:
        ss = steady_state(config, initial)
        for i, m in enumerate(range(-3, 4)):
            report[f"steady_p_m{m:+d}"] = float(ss.p[i])
        report["steady_m_expectation"] = ss.mean_m()
    path = _write_report(out / "pump_report", report, fmt)
    return {"files": [traj_path.name, path.name], "report": report,
            "out_dir": str(out)}
