"""Baked plot-data runs: one function per published-figure dataset.

Every runner writes plain CSV curves into a directory and returns the
list of files written.  Column conventions, used by all of them:

  t_us          time in microseconds
  eta           group delay over input duration
  ccp2          control-coupling depth ratio D_c / D_p
  intensity     |field|^2 in input-field units
  xi_relative   converted readout energy over same-channel readout
  xi2           ground-state coherence-mismatch factor
  p_m{-3..+3}   Zeeman ground populations

Baked parameters: decay rate 2 pi x 4.56 MHz, probe intensity FWHM
0.2 us, eta = 4, kappa = 1.35, write-channel depth 500 (plus 100 for
the depth comparisons), pump Rabi frequency 1.2 decay rates.  The
cesium runs normalize the depth so the stretched sigma+ probe
transition sees 500 at unit population.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .arrayio import write_csv
from .atoms import CGTable, build_cesium_d1_scheme, coherence_mismatch, single_lambda_scheme
from .mb import (ControlTimeline, GaussianPulse, run_original_readout,
                 run_protocol, timeline_for_protocol)
from .pumping import PumpConfig, evolve_pumping
from .theory import (LN2, control_for_eta, converted_spectrum, read_channel,
                     relative_efficiency_multi, relative_efficiency_single,
                     write_channel)
from .units import UnitSystem

__all__ = ["FIGURES", "run_figure"]

UNITS = UnitSystem()
T_P = UNITS.time_in(0.2)
ETA = 4.0
KAPPA = 1.35
PUMP_RABI = 1.2
ISOTROPIC = np.full(7, 1.0 / 7.0)
CCP2_POINTS = (0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0)
ETA_GRID = np.linspace(2.5, 8.0, 56)


def _say(progress, message):
    if progress is not None:
        progress(message)


def _emit(out: Path, name: str, header, cols, written):
    path = out / name
    write_csv(path, header, cols)
    written.append(name)


def _cesium_alpha(depth: float) -> float:
    """alpha such that the stretched sigma+ probe line has the given depth."""
    table = CGTable.cesium_d1()
    return depth / float(table.a_plus[-1]) ** 2


def _ratio_tag(value: float) -> str:
    text = f"{value:g}".replace(".", "p")
    return text


def fig2(out: Path, progress=None) -> list:
    """Conversion-process demonstration waveforms at depth 500.

    Files: fig2_input.csv, fig2_slowlight_mb.csv, fig2_slowlight_model.csv
    (t_us, intensity), then per read/write control ratio r in {0.5, 1, 2}
    fig2_converted_mb_r{r}.csv and fig2_converted_model_r{r}.csv on the
    same absolute time axis (zero at the peak of the input entering the
    medium).
    """
    written = []
    scheme = single_lambda_scheme(500.0, 500.0)
    Omega_w = control_for_eta(scheme, ETA, T_P)
    pulse = GaussianPulse(T_p=T_P)
    write = write_channel(scheme, Omega_w, T_P, KAPPA)
    beta_L = write.beta_w(1.0)

    slow = run_protocol(scheme, pulse, ControlTimeline(Omega_w0=Omega_w))
    t = slow.t_exit
    _emit(out, "fig2_input.csv", ["t_us", "intensity"],
          [UNITS.time_out(t), np.abs(pulse(t)) ** 2], written)
    _emit(out, "fig2_slowlight_mb.csv", ["t_us", "intensity"],
          [UNITS.time_out(t), np.abs(slow.probe_exit) ** 2], written)
    model_slow = (np.exp(-4.0 * LN2 * ((t - write.T_d) / (T_P * beta_L)) ** 2)
                  / beta_L)
    _emit(out, "fig2_slowlight_model.csv", ["t_us", "intensity"],
          [UNITS.time_out(t), model_slow], written)
    _say(progress, "fig2: slow light done")

    for ratio in (0.5, 1.0, 2.0):
        timeline = timeline_for_protocol(Omega_w, ratio * Omega_w, T_P, KAPPA)
        record = run_protocol(scheme, pulse, timeline)
        tag = _ratio_tag(ratio)
        _emit(out, f"fig2_converted_mb_r{tag}.csv", ["t_us", "intensity"],
              [UNITS.time_out(record.t_exit),
               np.abs(record.converted_exit) ** 2], written)
        read = read_channel(scheme, ratio * Omega_w, write)
        model = converted_spectrum(scheme, write, read)
        t_model = record.t_exit - timeline.t_r
        _emit(out, f"fig2_converted_model_r{tag}.csv", ["t_us", "intensity"],
              [UNITS.time_out(record.t_exit),
               np.abs(model.time_waveform(t_model)) ** 2], written)
        _say(progress, f"fig2: control ratio {ratio:g} done")
    return written


def fig3(out: Path, progress=None) -> list:
    """Relative efficiency versus the depth ratio ccp2, model and solver.

    Files: fig3_model_d{100,500}.csv on a dense log grid and
    fig3_mb_d{100,500}.csv at the seven marker points (ccp2,
    xi_relative).
    """
    written = []
    dense = np.geomspace(0.1, 10.0, 61)
    for depth in (100.0, 500.0):
        model = [relative_efficiency_single(ETA, KAPPA, depth, r * depth)
                 for r in dense]
        _emit(out, f"fig3_model_d{depth:.0f}.csv", ["ccp2", "xi_relative"],
              [dense, model], written)
        points = []
        for r in CCP2_POINTS:
            scheme = single_lambda_scheme(depth, r * depth)
            Omega_w = control_for_eta(scheme, ETA, T_P)
            timeline = timeline_for_protocol(Omega_w,
                                             math.sqrt(r) * Omega_w,
                                             T_P, KAPPA)
            pulse = GaussianPulse(T_p=T_P)
            record = run_protocol(scheme, pulse, timeline, companion=True)
            companion = run_original_readout(scheme, record)
            xi_relative = (record.energies["converted"]
                           / companion.energies["converted"])
            points.append(xi_relative)
            _say(progress, f"fig3: depth {depth:.0f}, ccp2 {r:g} -> "
                 f"xi_relative {xi_relative:.4f}")
        _emit(out, f"fig3_mb_d{depth:.0f}.csv", ["ccp2", "xi_relative"],
              [np.array(CCP2_POINTS), points], written)
    return written


def fig4(out: Path, progress=None) -> list:
    """Relative efficiency versus eta for strong and weak depth ratios.

    Files: fig4_ccp2_{10,0p1}_d{100,500,1000}.csv (eta, xi_relative).
    """
    written = []
    for ccp2 in (10.0, 0.1):
        for depth in (100.0, 500.0, 1000.0):
            xi = [relative_efficiency_single(eta, KAPPA, depth, ccp2 * depth)
                  for eta in ETA_GRID]
            _emit(out,
                  f"fig4_ccp2_{_ratio_tag(ccp2)}_d{depth:.0f}.csv",
                  ["eta", "xi_relative"], [ETA_GRID, xi], written)
    _say(progress, "fig4: done")
    return written


def _sigma_plus_trajectory(duration_us: float, n_samples: int):
    config = PumpConfig(Omega_r_pump=PUMP_RABI,
                        duration=UNITS.time_in(duration_us))
    return evolve_pumping(config, ISOTROPIC, n_samples=n_samples)


def fig6(out: Path, progress=None) -> list:
    """Optical-pumping dynamics under the sigma+ pump.

    Files: fig6_populations.csv (t_us, p_m-3..p_m+3, excited_fraction)
    and fig6_depth_factors.csv (t_us, sigma_plus, sigma_minus), the
    population-weighted squared couplings of the two probe branches.
    """
    written = []
    trajectory = _sigma_plus_trajectory(2.0, 241)
    t_us = UNITS.time_out(trajectory.t)
    header = ["t_us"] + [f"p_m{m:+d}" for m in range(-3, 4)]
    cols = [t_us] + [trajectory.ground[:, i] for i in range(7)]
    _emit(out, "fig6_populations.csv",
          header + ["excited_fraction"],
          cols + [trajectory.excited_fraction], written)
    table = CGTable.cesium_d1()
    ground = trajectory.ground / trajectory.ground.sum(axis=1)[:, None]
    _emit(out, "fig6_depth_factors.csv",
          ["t_us", "sigma_plus", "sigma_minus"],
          [t_us, ground @ table.a_plus ** 2, ground @ table.a_minus ** 2],
          written)
    _say(progress, "fig6: done")
    return written


def fig7(out: Path, progress=None) -> list:
    """Coherence-mismatch factor along the sigma+ pump trajectory.

    File: fig7_xi2.csv (t_us, xi2); the curve starts at the isotropic
    value 0.2594 and rises toward 1.
    """
    written = []
    trajectory = _sigma_plus_trajectory(2.0, 241)
    xi2 = []
    for i in range(trajectory.t.size):
        scheme = build_cesium_d1_scheme("minus_to_plus",
                                        trajectory.distribution_at(i),
                                        1.0, 1.0)
        xi2.append(coherence_mismatch(scheme))
    _emit(out, "fig7_xi2.csv", ["t_us", "xi2"],
          [UNITS.time_out(trajectory.t), xi2], written)
    _say(progress, "fig7: done")
    return written


def fig8(out: Path, progress=None) -> list:
    """Relative efficiency along the sigma+ pump for both directions.

    Files: fig8_{minus_to_plus,plus_to_minus}_d{100,500}.csv
    (t_us, xi_relative); all four curves share the isotropic value at
    t = 0.
    """
    written = []
    trajectory = _sigma_plus_trajectory(2.0, 241)
    t_us = UNITS.time_out(trajectory.t)
    for depth in (100.0, 500.0):
        alpha = _cesium_alpha(depth)
        for direction in ("minus_to_plus", "plus_to_minus"):
            xi = []
            for i in range(trajectory.t.size):
                scheme = build_cesium_d1_scheme(
                    direction, trajectory.distribution_at(i), alpha, alpha)
                xi.append(relative_efficiency_multi(scheme, ETA, KAPPA))
            _emit(out, f"fig8_{direction}_d{depth:.0f}.csv",
                  ["t_us", "xi_relative"], [t_us, xi], written)
        _say(progress, f"fig8: depth {depth:.0f} done")
    return written


def fig9(out: Path, progress=None) -> list:
    """Relative efficiency versus eta for four pump-time snapshots.

    Cases (a)-(d) take the sigma+ pump populations at 1.6, 1.2, 0.6 and
    0 us.  Files: fig9_case{a..d}_{minus_to_plus,plus_to_minus}.csv
    (eta, xi_relative); in case (d) the two directions coincide and the
    curves are flat.
    """
    written = []
    trajectory = _sigma_plus_trajectory(1.6, 161)
    alpha = _cesium_alpha(500.0)
    cases = (("a", 1.6), ("b", 1.2), ("c", 0.6), ("d", 0.0))
    t_us = UNITS.time_out(trajectory.t)
    for label, snapshot_us in cases:
        index = int(np.argmin(np.abs(t_us - snapshot_us)))
        population = trajectory.distribution_at(index)
        for direction in ("minus_to_plus", "plus_to_minus"):
            scheme = build_cesium_d1_scheme(direction, population,
                                            alpha, alpha)
            xi = [relative_efficiency_multi(scheme, eta, KAPPA)
                  for eta in ETA_GRID]
            _emit(out, f"fig9_case{label}_{direction}.csv",
                  ["eta", "xi_relative"], [ETA_GRID, xi], written)
        _say(progress, f"fig9: case ({label}) at {snapshot_us:g} us done")
    return written


def fig10(out: Path, progress=None) -> list:
    """Pumping toward m = 0: the relative efficiency equals xi2.

    Files: fig10_xi.csv (t_us, xi_relative_minus_to_plus,
    xi_relative_plus_to_minus) along the pi-pump trajectory, and
    fig10_populations.csv (m, p_0us, p_1us, p_6us) with the snapshot
    distributions.
    """
    written = []
    config = PumpConfig(Omega_pi_pump=PUMP_RABI, duration=UNITS.time_in(6.0))
    trajectory = evolve_pumping(config, ISOTROPIC, n_samples=301)
    t_us = UNITS.time_out(trajectory.t)
    alpha = _cesium_alpha(500.0)
    columns = {"minus_to_plus": [], "plus_to_minus": []}
    for i in range(trajectory.t.size):
        population = trajectory.distribution_at(i)
        for direction, values in columns.items():
            scheme = build_cesium_d1_scheme(direction, population,
                                            alpha, alpha)
            values.append(relative_efficiency_multi(scheme, ETA, KAPPA))
    _emit(out, "fig10_xi.csv",
          ["t_us", "xi_relative_minus_to_plus", "xi_relative_plus_to_minus"],
          [t_us, columns["minus_to_plus"], columns["plus_to_minus"]],
          written)
    snapshots = []
    for snapshot_us in (0.0, 1.0, 6.0):
        index = int(np.argmin(np.abs(t_us - snapshot_us)))
        snapshots.append(trajectory.distribution_at(index).p)
    _emit(out, "fig10_populations.csv",
          ["m", "p_0us", "p_1us", "p_6us"],
          [np.arange(-3.0, 4.0)] + snapshots, written)
    _say(progress, "fig10: done")
    return written


FIGURES = {
    "fig2": fig2,
    "fig3": fig3,
    "fig4": fig4,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
}


def run_figure(figure_id: str, out_dir, progress=None) -> dict:
    """Run one figure's data generation; returns {files, out_dir}."""
    if figure_id not in FIGURES:
        raise ValueError(f"unknown figure id {figure_id!r}; "
                         f"choose from {sorted(FIGURES)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = FIGURES[figure_id](out, progress)
    manifest = {"figure": figure_id, "files": files}
    (out / f"{figure_id}_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return {"figure": figure_id, "files": files, "out_dir": str(out)}
