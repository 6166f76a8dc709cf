"""Time-domain write/store/read simulation of the conversion protocol.

The medium is discretized in z and the coupled coherence/field system is
integrated in the retarded time frame.  Because the vacuum transit time is
dropped, each field is an instantaneous functional of the coherences: a
cumulative z-integral of its source term anchored at the entry-face boundary
value.  The atomic variables per subsystem j are

    d/dt sigma_eg  = (i/2) a_w Omega_w(t) sigma_sg
                     + (i/2) a_p p_j E_p - (Gamma_w/2) sigma_eg
    d/dt sigma_e'g = (i/2) a_r Omega_r(t) sigma_sg
                     + (i/2) a_c p_j E_c - (Gamma_r/2) sigma_e'g
    d/dt sigma_sg  = (i/2) a_w Omega_w*(t) sigma_eg
                     + (i/2) a_r Omega_r*(t) sigma_e'g - gamma_sg sigma_sg

with the fields in Rabi-scaled units (E here means g E), so the propagation
constants reduce to optical depths:

    dE_p/dz = i (alpha_p Gamma_w / 2L) sum_j a_p,j sigma_eg,j
    dE_c/dz = i (alpha_c Gamma_r / 2L) sum_j a_c,j sigma_e'g,j

Both channels stay live through all phases; the protocol is expressed purely
through the control envelopes, so the same integrator covers slow light
(write control never switched), storage, and retrieval with finite ramps.
Time stepping is classical RK4 with the field integrals re-evaluated at each
stage.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .atoms import ConversionScheme
from .errors import MissingCompanionError, StiffnessError, ValidityWarning
from .fields import CoherenceField, FieldGrid
from .theory import (LN2, _channel_sums, pulse_bandwidth, pulse_energy,
                     read_channel, write_channel)

__all__ = [
    "GaussianPulse",
    "ControlTimeline",
    "timeline_for_protocol",
    "SimulationRecord",
    "run_protocol",
    "run_original_readout",
    "ConversionEfficiency",
    "efficiency_from_record",
    "leakage_energy",
]


def _smoothstep(x: float) -> float:
    """Quintic smoothstep: C2-continuous, exactly 0 below 0 and 1 above 1."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    return x * x * x * (x * (6.0 * x - 15.0) + 10.0)


@dataclass(frozen=True)
class GaussianPulse:
    """Probe envelope E0 exp(-2 ln2 (t/T_p)^2); the peak enters at t = 0."""

    T_p: float
    E0: complex = 1.0

    def __post_init__(self):
        if not self.T_p > 0:
            raise ValueError("T_p must be positive")

    def __call__(self, t):
        return self.E0 * np.exp(-2.0 * LN2 * (np.asarray(t) / self.T_p) ** 2)

    @property
    def energy(self) -> float:
        """Integral of |E|^2 over all time."""
        return pulse_energy(self.T_p, self.E0)


@dataclass(frozen=True)
class ControlTimeline:
    """Plateau-and-ramp envelopes for the two control fields.

    The write control sits at Omega_w0 from the start of the run and ramps
    to zero over the interval [t_w - ramp, t_w], so the cutoff is complete
    at t_w.  The read control ramps from zero on [t_r, t_r + ramp] with
    t_r = t_w + t_s.  ramp = 0 gives hard switches.  t_w = None keeps the
    write control on forever (slow-light mode, read channel unused).
    """

    Omega_w0: complex
    Omega_r0: complex = 0.0
    t_w: float | None = None
    t_s: float = 0.0
    ramp: float = 0.0

    def __post_init__(self):
        if self.ramp < 0 or self.t_s < 0:
            raise ValueError("ramp and t_s must be nonnegative")

    @property
    def t_r(self) -> float | None:
        return None if self.t_w is None else self.t_w + self.t_s

    def Omega_w(self, t: float) -> complex:
        if self.t_w is None:
            return self.Omega_w0
        if self.ramp == 0.0:
            return self.Omega_w0 if t < self.t_w else 0.0
        return self.Omega_w0 * (1.0 - _smoothstep((t - self.t_w) / self.ramp + 1.0))

    def Omega_r(self, t: float) -> complex:
        t_r = self.t_r
        if t_r is None or self.Omega_r0 == 0:
            return 0.0
        if self.ramp == 0.0:
            return self.Omega_r0 if t >= t_r else 0.0
        return self.Omega_r0 * _smoothstep((t - t_r) / self.ramp)


def timeline_for_protocol(Omega_w: complex, Omega_r: complex, T_p: float,
                          kappa: float, t_s: float = 0.0,
                          ramp_fraction: float = 0.2) -> ControlTimeline:
    """Timeline with the write cutoff at kappa * T_p after pulse-peak entry.

    The default ramp is 0.2 T_p, the realistic switching scale for a
    0.2 us pulse (about 40 ns); hard switching is available through
    ramp_fraction = 0.
    """
    return ControlTimeline(Omega_w0=Omega_w, Omega_r0=Omega_r,
                           t_w=kappa * T_p, t_s=t_s,
                           ramp=ramp_fraction * T_p)


@dataclass
class SimulationRecord:
    """Everything a protocol run produces.

    Exit waveforms are kept at full time resolution; the in-medium field
    grids are decimated in time to keep records small.  Energies are in
    input-field units: the converted energy already carries the coupling
    ratio alpha_p Gamma_w / (alpha_c Gamma_r), so ratios against the input
    are photon-flux-consistent.
    """

    probe: FieldGrid
    converted: FieldGrid
    stored_write: CoherenceField | None
    stored_read: CoherenceField | None
    t_exit: np.ndarray
    probe_exit: np.ndarray
    converted_exit: np.ndarray
    energies: dict
    diagnostics: dict

    def save(self, directory) -> None:
        """Persist as a directory: JSON manifest plus binary arrays."""
        from .arrayio import write_arrays, write_csv
        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        manifest = {
            "energies": self.energies,
            "diagnostics": self.diagnostics,
            "has_snapshots": self.stored_write is not None,
        }
        (d / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        arrays = {
            "probe_z": self.probe.z, "probe_t": self.probe.t,
            "probe_values": self.probe.values,
            "converted_z": self.converted.z, "converted_t": self.converted.t,
            "converted_values": self.converted.values,
            "t_exit": self.t_exit,
            "probe_exit": self.probe_exit,
            "converted_exit": self.converted_exit,
        }
        if self.stored_write is not None:
            arrays["stored_write_z"] = self.stored_write.z
            arrays["stored_write_sigma"] = self.stored_write.sigma
        if self.stored_read is not None:
            arrays["stored_read_z"] = self.stored_read.z
            arrays["stored_read_sigma"] = self.stored_read.sigma
        write_arrays(d / "fields.bin", arrays)
        write_csv(d / "exit_waveforms.csv",
                  ["t", "probe_re", "probe_im", "converted_re", "converted_im"],
                  [self.t_exit, self.probe_exit.real, self.probe_exit.imag,
                   self.converted_exit.real, self.converted_exit.imag])

    @classmethod
    def load(cls, directory) -> "SimulationRecord":
        from .arrayio import read_arrays
        d = Path(directory)
        manifest = json.loads((d / "manifest.json").read_text())
        arrays = read_arrays(d / "fields.bin")
        t_w = manifest["diagnostics"].get("t_w")
        t_r = manifest["diagnostics"].get("t_r")
        stored_write = stored_read = None
        if manifest.get("has_snapshots"):
            stored_write = CoherenceField(z=arrays["stored_write_z"],
                                          sigma=arrays["stored_write_sigma"],
                                          t=t_w)
            if "stored_read_sigma" in arrays:
                stored_read = CoherenceField(z=arrays["stored_read_z"],
                                             sigma=arrays["stored_read_sigma"],
                                             t=t_r)
        return cls(
            probe=FieldGrid(z=arrays["probe_z"], t=arrays["probe_t"],
                            values=arrays["probe_values"]),
            converted=FieldGrid(z=arrays["converted_z"],
                                t=arrays["converted_t"],
                                values=arrays["converted_values"]),
            stored_write=stored_write, stored_read=stored_read,
            t_exit=arrays["t_exit"], probe_exit=arrays["probe_exit"],
            converted_exit=arrays["converted_exit"],
            energies=manifest["energies"],
            diagnostics=manifest["diagnostics"])


def _auto_t_end(scheme: ConversionScheme, pulse: GaussianPulse,
                timeline: ControlTimeline) -> float:
    """Run length long enough to catch the slow or converted pulse tail."""
    L = scheme.length
    S2w, _, _ = _channel_sums(scheme, "write")
    v_w = L * abs(timeline.Omega_w0) ** 2 / (scheme.alpha_p * scheme.Gamma_w * S2w)
    T_d = L / v_w
    if timeline.t_w is None:
        return T_d + 6.0 * pulse.T_p
    z_mid = min(v_w * timeline.t_w, L)
    if timeline.Omega_r0 == 0:
        return timeline.t_w + timeline.t_s + 6.0 * pulse.T_p
    # The closed form only sizes the run here; its validity flags describe
    # a model this engine does not report.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        write = write_channel(scheme, timeline.Omega_w0, pulse.T_p,
                              timeline.t_w / pulse.T_p)
        read = read_channel(scheme, timeline.Omega_r0, write)
    stretch = write.beta_w_mid * read.beta_r_L
    t_out = pulse.T_p * stretch * max(1.0, write.v_w / read.v_r)
    return (timeline.t_r + timeline.ramp + (L - z_mid) / read.v_r + 6.0 * t_out)


def run_protocol(scheme: ConversionScheme, pulse: GaussianPulse,
                 timeline: ControlTimeline,
                 grid: tuple[int, int] | None = None,
                 t_end: float | None = None,
                 grid_check: bool = False,
                 max_kept_slices: int = 512) -> SimulationRecord:
    """Integrate the write/store/read protocol and return the full record.

    grid is (n_z, n_t); n_t = 0 or a missing grid picks the step count from
    the stiffness rule dt <= 0.1 / max{Gamma, |a Omega|, pulse bandwidth}.
    A forced n_t that violates that rule raises StiffnessError.  grid_check
    reruns at doubled resolution and stores the relative change of the
    converted (or transmitted) energy in the diagnostics.
    """
    n_z, n_t = grid if grid is not None else (200, 0)
    if n_z < 8:
        raise StiffnessError("need at least 8 z samples")
    t_start = -2.0 * pulse.T_p
    if t_end is None:
        t_end = _auto_t_end(scheme, pulse, timeline)
    if not t_end > t_start:
        raise ValueError("t_end must exceed the padding start")

    populated = scheme.p > 0
    rates = [scheme.Gamma_w, scheme.Gamma_r, pulse_bandwidth(pulse.T_p)]
    rates.append(np.max(np.abs(scheme.a_w[populated] * timeline.Omega_w0)))
    if timeline.Omega_r0 != 0:
        rates.append(np.max(np.abs(scheme.a_r[populated] * timeline.Omega_r0)))
    if scheme.gamma_sg > 0:
        rates.append(scheme.gamma_sg)
    dt_max = 0.1 / max(rates)
    if n_t <= 0:
        n_t = int(math.ceil((t_end - t_start) / dt_max)) + 1
    dt = (t_end - t_start) / (n_t - 1)
    if dt > dt_max * (1.0 + 1e-9):
        raise StiffnessError(
            f"dt = {dt:.3e} exceeds the stability bound {dt_max:.3e}; "
            f"need n_t >= {int(math.ceil((t_end - t_start) / dt_max)) + 1}")

    z = np.linspace(0.0, scheme.length, n_z)
    dz = z[1] - z[0]
    M = scheme.p.size

    a_p = scheme.a_p
    a_c = scheme.a_c
    c_p = 0.5j * scheme.alpha_p * scheme.Gamma_w / scheme.length
    c_c = 0.5j * scheme.alpha_c * scheme.Gamma_r / scheme.length
    drive_p = 0.5j * (scheme.a_p * scheme.p)[:, None]
    drive_c = 0.5j * (scheme.a_c * scheme.p)[:, None]
    g_eg = 0.5 * scheme.Gamma_w
    g_e2g = 0.5 * scheme.Gamma_r
    g_sg = scheme.gamma_sg

    def _cumtrapz(src):
        out = np.empty_like(src)
        out[0] = 0.0
        np.cumsum((src[1:] + src[:-1]) * (0.5 * dz), out=out[1:])
        return out

    def _fields(sig_eg, sig_e2g, t):
        E_p = pulse(t) + c_p * _cumtrapz(a_p @ sig_eg)
        E_c = c_c * _cumtrapz(a_c @ sig_e2g)
        return E_p, E_c

    def _deriv(sig_eg, sig_e2g, sig_sg, t):
        Ow = timeline.Omega_w(t)
        Or = timeline.Omega_r(t)
        E_p, E_c = _fields(sig_eg, sig_e2g, t)
        d_eg = (0.5j * (scheme.a_w * Ow))[:, None] * sig_sg \
            + drive_p * E_p[None, :] - g_eg * sig_eg
        d_e2g = (0.5j * (scheme.a_r * Or))[:, None] * sig_sg \
            + drive_c * E_c[None, :] - g_e2g * sig_e2g
        d_sg = (0.5j * (scheme.a_w * np.conj(Ow)))[:, None] * sig_eg \
            + (0.5j * (scheme.a_r * np.conj(Or)))[:, None] * sig_e2g \
            - g_sg * sig_sg
        return d_eg, d_e2g, d_sg, E_p, E_c

    sig_eg = np.zeros((M, n_z), dtype=complex)
    sig_e2g = np.zeros((M, n_z), dtype=complex)
    sig_sg = np.zeros((M, n_z), dtype=complex)

    t_axis = t_start + dt * np.arange(n_t)
    probe_exit = np.empty(n_t, dtype=complex)
    conv_exit = np.empty(n_t, dtype=complex)
    stride = max(1, -(-n_t // max_kept_slices))
    kept = list(range(0, n_t, stride))
    if kept[-1] != n_t - 1:
        kept.append(n_t - 1)
    kept_set = {k: i for i, k in enumerate(kept)}
    probe_grid = np.empty((n_z, len(kept)), dtype=complex)
    conv_grid = np.empty((n_z, len(kept)), dtype=complex)

    snap_w = snap_r = None
    idx_w = idx_r = None
    if timeline.t_w is not None:
        idx_w = int(round((timeline.t_w - t_start) / dt))
        idx_r = int(round((timeline.t_r - t_start) / dt))

    for k in range(n_t):
        t = t_axis[k]
        k1 = _deriv(sig_eg, sig_e2g, sig_sg, t)
        probe_exit[k] = k1[3][-1]
        conv_exit[k] = k1[4][-1]
        if k in kept_set:
            col = kept_set[k]
            probe_grid[:, col] = k1[3]
            conv_grid[:, col] = k1[4]
        if idx_w is not None and k == idx_w:
            snap_w = CoherenceField(z=z, sigma=sig_sg.copy(), t=t,
                                    j=scheme.j)
        if idx_r is not None and k == idx_r:
            snap_r = CoherenceField(z=z, sigma=sig_sg.copy(), t=t,
                                    j=scheme.j)
        if k == n_t - 1:
            break
        h = dt
        k2 = _deriv(sig_eg + 0.5 * h * k1[0], sig_e2g + 0.5 * h * k1[1],
                    sig_sg + 0.5 * h * k1[2], t + 0.5 * h)
        k3 = _deriv(sig_eg + 0.5 * h * k2[0], sig_e2g + 0.5 * h * k2[1],
                    sig_sg + 0.5 * h * k2[2], t + 0.5 * h)
        k4 = _deriv(sig_eg + h * k3[0], sig_e2g + h * k3[1],
                    sig_sg + h * k3[2], t + h)
        sig_eg = sig_eg + (h / 6.0) * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
        sig_e2g = sig_e2g + (h / 6.0) * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
        sig_sg = sig_sg + (h / 6.0) * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2])

    unit_ratio = (scheme.alpha_p * scheme.Gamma_w) / (scheme.alpha_c * scheme.Gamma_r)
    boundary = pulse(t_axis)
    e_in = float(np.trapezoid(np.abs(boundary) ** 2, t_axis))
    e_trans = float(np.trapezoid(np.abs(probe_exit) ** 2, t_axis))
    if timeline.t_w is not None:
        pre = t_axis <= timeline.t_w
        e_leak = float(np.trapezoid(np.abs(probe_exit[pre]) ** 2, t_axis[pre]))
    else:
        e_leak = e_trans
    e_conv_scaled = float(np.trapezoid(np.abs(conv_exit) ** 2, t_axis))
    e_conv = unit_ratio * e_conv_scaled

    def _stored_energy(stored: CoherenceField) -> float:
        return float(scheme.alpha_p * scheme.Gamma_w / scheme.length
                     * np.trapezoid(stored.excitation_density(scheme.p), z))

    e_stored = _stored_energy(snap_w) if snap_w is not None else 0.0
    e_resid = _stored_energy(CoherenceField(z=z, sigma=sig_sg, t=t_axis[-1],
                                            j=scheme.j))
    energies = {
        "input": e_in,
        "transmitted": e_trans,
        "leaked": e_leak,
        "stored_equivalent": e_stored,
        "converted": e_conv,
        "converted_scaled": e_conv_scaled,
        "residual_stored": e_resid,
        "dissipated": e_in - e_trans - e_conv - e_resid,
    }
    diagnostics = {
        "n_z": n_z, "n_t": n_t, "dt": dt, "dt_max": dt_max,
        "t_start": t_start, "t_end": t_end,
        "t_w": timeline.t_w, "t_r": timeline.t_r, "ramp": timeline.ramp,
        "Omega_w0": repr(complex(timeline.Omega_w0)),
        "Omega_r0": repr(complex(timeline.Omega_r0)),
        "leakage_fraction": e_leak / e_in if e_in > 0 else 0.0,
    }

    record = SimulationRecord(
        probe=FieldGrid(z=z, t=t_axis[kept], values=probe_grid),
        converted=FieldGrid(z=z, t=t_axis[kept], values=conv_grid),
        stored_write=snap_w, stored_read=snap_r,
        t_exit=t_axis, probe_exit=probe_exit, converted_exit=conv_exit,
        energies=energies, diagnostics=diagnostics)

    if grid_check:
        fine = run_protocol(scheme, pulse, timeline,
                            grid=(2 * n_z, 2 * n_t - 1), t_end=t_end,
                            grid_check=False, max_kept_slices=2)
        key = "converted" if timeline.Omega_r0 != 0 else "transmitted"
        ref = fine.energies[key]
        rel = abs(record.energies[key] - ref) / ref if ref > 0 else 0.0
        record.diagnostics["grid_doubling_rel"] = rel
        record.diagnostics["grid_converged"] = bool(rel < 0.01)
    return record


def run_original_readout(scheme: ConversionScheme, pulse: GaussianPulse,
                         timeline: ControlTimeline,
                         grid: tuple[int, int] | None = None,
                         t_end: float | None = None) -> SimulationRecord:
    """Companion run: same write phase, retrieval in the original channel."""
    tl = replace(timeline, Omega_r0=timeline.Omega_w0)
    return run_protocol(scheme.with_original_readout(), pulse, tl, grid=grid,
                        t_end=t_end)


@dataclass(frozen=True)
class ConversionEfficiency:
    """Energy ratio from a protocol run, with its reference convention."""

    reference: str
    value: float
    converted_energy: float
    reference_energy: float
    leakage: float
    degenerate: bool = False

    def to_dict(self) -> dict:
        return {
            "reference": self.reference,
            "value": self.value,
            "converted_energy": self.converted_energy,
            "reference_energy": self.reference_energy,
            "leakage": self.leakage,
            "degenerate": self.degenerate,
        }


def efficiency_from_record(record: SimulationRecord, reference: str = "input",
                           companion: SimulationRecord | None = None
                           ) -> ConversionEfficiency:
    """Conversion efficiency against the input pulse or a companion readout.

    reference = "input" gives the total efficiency; reference =
    "original-channel-readout" divides by the converted energy of the
    companion record (same write phase, read channel equal to the write
    channel) and requires that record.
    """
    e_conv = record.energies["converted"]
    e_in = record.energies["input"]
    leak = record.energies["leaked"] / e_in if e_in > 0 else 0.0
    if reference == "input":
        if e_in <= 0:
            return ConversionEfficiency("input", 0.0, e_conv, e_in, 0.0,
                                        degenerate=True)
        return ConversionEfficiency("input", e_conv / e_in, e_conv, e_in, leak)
    if reference == "original-channel-readout":
        if companion is None:
            raise MissingCompanionError(
                "relative efficiency needs the original-channel companion run")
        e_ref = companion.energies["converted"]
        if e_ref <= 0 or e_in <= 0:
            return ConversionEfficiency(reference, 0.0, e_conv, e_ref, leak,
                                        degenerate=True)
        return ConversionEfficiency(reference, e_conv / e_ref, e_conv, e_ref,
                                    leak)
    raise ValueError(f"unknown efficiency reference {reference!r}")


def leakage_energy(record: SimulationRecord) -> float:
    """Probe energy that escaped z = L before the write cutoff, over input."""
    e_in = record.energies["input"]
    if e_in <= 0:
        return 0.0
    return record.energies["leaked"] / e_in
