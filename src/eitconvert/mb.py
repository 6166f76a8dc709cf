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

Numpy call overhead, not arithmetic, sets the cost of a step on grids of a
few hundred z samples, so the loop is laid out to make few calls:

- The coherences of all subsystems form one stacked state of shape
  (M, 3, n_z), rows (sigma_eg, sigma_sg, sigma_e'g).  The local coupling
  (decays and controls) is one (M, 3, 3) matrix applied by a batched
  product, and both fields feed back through one (M, 3, 2) product.
- With sigma_sg in the middle row, the four control entries of the 3x3
  coupling sit at flat indices 1, 3, 5, 7 and are refreshed from four
  scalars through one strided view.
- Both field integrals come from one cumulative sum over a (2, n_z)
  trapezoid source whose first column holds the entry-face values.
- The control envelopes and the input pulse are evaluated vectorized at
  every stage time, a block of steps at a time.  Only those scalars are
  stored: per-stage coupling matrices would hold M * 9 complex numbers per
  stage.

There is no dense (3M, 3M) product over all subsystems.  OpenBLAS threads
it across cores, and at M = 7, n_z = 200 it took about 20 times as long as
the batched 3x3 products (2-core x86 host).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .atoms import ConversionScheme
from .errors import GridBudgetError, StiffnessError, ValidityWarning
from .fields import CoherenceField
from .theory import (LN2, _slow_light, pulse_bandwidth, pulse_energy,
                     read_channel, write_channel)

__all__ = [
    "GaussianPulse",
    "ControlTimeline",
    "timeline_for_protocol",
    "SimulationRecord",
    "run_protocol",
    "run_original_readout",
]

# largest n_t run_protocol sizes on its own: tests, figures, demos and
# benchmark items use at most 11265 steps, and 2**20 steps take about
# three minutes at n_z = 200 (the (n_t, 2) complex exit table alone is
# 32 MB).  A read/write control ratio of 0.01 at D_p = 500, ccp2 = 10
# would ask for about 2.4e8.
MAX_N_T = 1 << 20
# a run whose dissipated energy falls below -LEDGER_TOL of the input has
# diverged; every test, figure, demo and benchmark item dissipates at
# least +6.9e-4 of its input, diverged runs -0.28 and below
LEDGER_TOL = 1e-2


def _smoothstep(x):
    """Quintic smoothstep: C2-continuous, exactly 0 below 0 and 1 above 1."""
    x = np.clip(x, 0.0, 1.0)
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

    def Omega_w(self, t):
        """Write-control envelope at time(s) t."""
        t = np.asarray(t, dtype=float)
        if self.t_w is None:
            return np.full(t.shape, self.Omega_w0)
        if self.ramp == 0.0:
            return np.where(t < self.t_w, self.Omega_w0, 0.0)
        return self.Omega_w0 * (1.0 - _smoothstep((t - self.t_w) / self.ramp + 1.0))

    def Omega_r(self, t):
        """Read-control envelope at time(s) t."""
        t = np.asarray(t, dtype=float)
        t_r = self.t_r
        if t_r is None or self.Omega_r0 == 0:
            return np.zeros(t.shape)
        if self.ramp == 0.0:
            return np.where(t >= t_r, self.Omega_r0, 0.0)
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

    Exit waveforms are kept at full time resolution, plus the ground-state
    coherence at the write cutoff.  Energies are in input-field units: the
    converted energy already carries the coupling ratio
    scheme.energy_unit_ratio, so ratios against the input are
    photon-flux-consistent.  The figures of merit are ratios of entries:
    converted / input is the total efficiency, leaked / input the leakage,
    and converted over the converted energy of run_original_readout the
    relative efficiency.
    """

    stored_write: CoherenceField | None
    t_exit: np.ndarray
    probe_exit: np.ndarray
    converted_exit: np.ndarray
    energies: dict
    diagnostics: dict


def _auto_t_end(scheme: ConversionScheme, pulse: GaussianPulse,
                timeline: ControlTimeline) -> float:
    """Run length long enough to catch the slow or converted pulse tail."""
    if timeline.t_w is not None and timeline.Omega_r0 == 0:
        return timeline.t_r + 6.0 * pulse.T_p
    # The closed form only sizes the run here; its validity flags describe
    # a model this engine does not report.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        if timeline.t_w is None:
            # slow light: the group delay does not depend on the cutoff
            write = write_channel(scheme, timeline.Omega_w0, pulse.T_p, 1.0)
            return write.T_d + 6.0 * pulse.T_p
        write = write_channel(scheme, timeline.Omega_w0, pulse.T_p,
                              timeline.t_w / pulse.T_p)
        if write.z_mid >= 1.0:
            # The stored-pulse centre lies past the medium, where
            # read_channel is undefined; bound the read-out by the read
            # group delay through the whole medium.
            T_d_read = _slow_light(scheme, "read", timeline.Omega_r0)[0]
            return (timeline.t_r + timeline.ramp + T_d_read
                    + 6.0 * pulse.T_p)
        read = read_channel(scheme, timeline.Omega_r0, write)
    stretch = write.beta_w_mid * read.beta_r_L
    t_out = pulse.T_p * stretch * max(1.0, write.v_w / read.v_r)
    return (timeline.t_r + timeline.ramp
            + (1.0 - write.z_mid) / read.v_r + 6.0 * t_out)


# Steps per block of tabulated envelopes.  Whole-run tables (hundreds of kB
# at n_t ~ 10^4) raised the peak resident memory of later runs in the same
# process by about 2.5 MB; blocks of this size stay off that path.
_TABLE_STEPS = 256


def _control_table(timeline: ControlTimeline, t: np.ndarray) -> np.ndarray:
    """Per time: (Omega_w, Omega_w*, Omega_r*, Omega_r), in the order of the
    coupling entries (0, 1), (1, 0), (1, 2), (2, 1) of the stacked state."""
    Ow = timeline.Omega_w(t)
    Or = timeline.Omega_r(t)
    return np.stack([Ow, np.conj(Ow), np.conj(Or), Or], axis=-1)


def run_protocol(scheme: ConversionScheme, pulse: GaussianPulse,
                 timeline: ControlTimeline,
                 grid: tuple[int, int] | None = None,
                 t_end: float | None = None,
                 grid_check: bool = False) -> SimulationRecord:
    """Integrate the write/store/read protocol and return the full record.

    grid is (n_z, n_t); n_t = 0 or a missing grid picks the step count from
    the stiffness rule dt <= 0.1 / max{Gamma, |a Omega|, pulse bandwidth}.
    The rate that set the bound is recorded as diagnostics["dt_limit"].
    A forced n_t that violates that rule raises StiffnessError, and so does
    a run whose energy ledger shows it diverged (an energy not finite, or
    dissipated below -LEDGER_TOL of the input).  An automatic n_t, or the
    doubled one of grid_check, above MAX_N_T raises GridBudgetError before
    anything is allocated; a forced n_t is taken as given.  grid_check
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

    write, read = scheme.channel("write"), scheme.channel("read")
    rates = {"Gamma_w": write.Gamma, "Gamma_r": read.Gamma,
             "bandwidth": pulse_bandwidth(pulse.T_p),
             "write_control": write.a_ctrl_max * abs(timeline.Omega_w0)}
    if timeline.Omega_r0 != 0:
        rates["read_control"] = read.a_ctrl_max * abs(timeline.Omega_r0)
    if scheme.gamma_sg > 0:
        rates["gamma_sg"] = scheme.gamma_sg
    dt_limit = max(rates, key=rates.get)
    dt_max = 0.1 / rates[dt_limit]
    if n_t <= 0:
        n_t = int(math.ceil((t_end - t_start) / dt_max)) + 1
        if n_t > MAX_N_T:
            raise GridBudgetError(
                f"time grid needs n_t = {n_t} steps for dt <= {dt_max:.3e} "
                f"(limit {dt_limit}), above the budget of {MAX_N_T}; set "
                f"grid.n_t to force a size")
    if grid_check and 2 * n_t - 1 > MAX_N_T:
        raise GridBudgetError(
            f"grid check needs n_t = {2 * n_t - 1} steps, above the budget "
            f"of {MAX_N_T}; run without the grid check or set a smaller "
            f"grid.n_t")
    dt = (t_end - t_start) / (n_t - 1)
    if dt > dt_max * (1.0 + 1e-9):
        raise StiffnessError(
            f"dt = {dt:.3e} exceeds the stability bound {dt_max:.3e}; "
            f"need n_t >= {int(math.ceil((t_end - t_start) / dt_max)) + 1}")

    z = np.linspace(0.0, 1.0, n_z)
    dz = z[1] - z[0]
    M = scheme.p.size

    # Local coupling of subsystem j on its rows (sigma_eg, sigma_sg,
    # sigma_e'g); the control entries (0, 1), (1, 0), (1, 2), (2, 1) are
    # the strided view flat[1::2] and are refreshed at every stage.
    A = np.zeros((M, 3, 3), dtype=complex)
    A[:, 0, 0] = -0.5 * write.Gamma
    A[:, 1, 1] = -scheme.gamma_sg
    A[:, 2, 2] = -0.5 * read.Gamma
    controls = A.reshape(M, 9)[:, 1::2]
    control_coef = 0.5j * np.stack([write.a_ctrl, write.a_ctrl,
                                    read.a_ctrl, read.a_ctrl], axis=1)
    # Drive of each optical coherence by its field (E_p, E_c).
    D = np.zeros((M, 3, 2), dtype=complex)
    D[:, 0, 0] = 0.5j * scheme.a_p * scheme.p
    D[:, 2, 1] = 0.5j * scheme.a_c * scheme.p
    # Field sources as trapezoid increments over the flattened state.
    P = np.zeros((2, M, 3), dtype=complex)
    P[0, :, 0] = 0.25j * dz * write.alpha * write.Gamma * scheme.a_p
    P[1, :, 2] = 0.25j * dz * read.alpha * read.Gamma * scheme.a_c
    P = P.reshape(2, 3 * M)

    source = np.empty((2, n_z), dtype=complex)
    increments = np.zeros((2, n_z), dtype=complex)
    fields = np.empty((2, n_z), dtype=complex)
    drive = np.empty((M, 3, n_z), dtype=complex)

    def rate(y, ctrl, entry, out):
        """d(state)/dt at y into out; refreshes the fields."""
        np.matmul(P, y.reshape(3 * M, n_z), out=source)
        np.add(source[:, 1:], source[:, :-1], out=increments[:, 1:])
        increments[0, 0] = entry
        np.cumsum(increments, axis=1, out=fields)
        np.multiply(control_coef, ctrl, out=controls)
        np.matmul(A, y, out=out)
        np.matmul(D, fields, out=drive)
        out += drive

    t_axis = t_start + dt * np.arange(n_t)
    stage_offsets = np.array([0.0, 0.5 * dt, dt])

    def stage_tables(k0):
        """Controls and entry-face values at t_k, t_k + dt/2 and t_k + dt
        for the block of steps starting at k0."""
        t = t_axis[k0:k0 + _TABLE_STEPS, None] + stage_offsets
        return _control_table(timeline, t), pulse(t)

    exits = np.empty((n_t, 2), dtype=complex)
    state = np.zeros((M, 3, n_z), dtype=complex)
    stage = np.empty_like(state)
    acc = np.empty_like(state)
    k_buf = np.empty_like(state)
    scaled = np.empty_like(state)
    idx_w = (None if timeline.t_w is None
             else int(round((timeline.t_w - t_start) / dt)))
    snap_w = None

    for k in range(n_t):
        j = k % _TABLE_STEPS
        if j == 0:
            ctrl, entry = stage_tables(k)
        if k == idx_w:
            snap_w = CoherenceField(z=z, sigma=state[:, 1].copy(),
                                    t=t_axis[k])
        rate(state, ctrl[j, 0], entry[j, 0], k_buf)
        exits[k] = fields[:, -1]
        if k == n_t - 1:
            break
        # classical RK4: acc collects state + dt/6 (k1 + 2 k2 + 2 k3 + k4)
        np.multiply(k_buf, dt / 6.0, out=acc)
        acc += state
        np.multiply(k_buf, 0.5 * dt, out=scaled)
        np.add(state, scaled, out=stage)
        rate(stage, ctrl[j, 1], entry[j, 1], k_buf)
        np.multiply(k_buf, dt / 3.0, out=scaled)
        acc += scaled
        np.multiply(k_buf, 0.5 * dt, out=scaled)
        np.add(state, scaled, out=stage)
        rate(stage, ctrl[j, 1], entry[j, 1], k_buf)
        np.multiply(k_buf, dt / 3.0, out=scaled)
        acc += scaled
        np.multiply(k_buf, dt, out=scaled)
        np.add(state, scaled, out=stage)
        rate(stage, ctrl[j, 2], entry[j, 2], k_buf)
        np.multiply(k_buf, dt / 6.0, out=scaled)
        np.add(acc, scaled, out=state)

    probe_exit = exits[:, 0].copy()
    conv_exit = exits[:, 1].copy()
    e_in = float(np.trapezoid(np.abs(pulse(t_axis)) ** 2, t_axis))
    e_trans = float(np.trapezoid(np.abs(probe_exit) ** 2, t_axis))
    if timeline.t_w is not None:
        pre = t_axis <= timeline.t_w
        e_leak = float(np.trapezoid(np.abs(probe_exit[pre]) ** 2, t_axis[pre]))
    else:
        e_leak = e_trans
    e_conv_scaled = float(np.trapezoid(np.abs(conv_exit) ** 2, t_axis))
    e_conv = scheme.energy_unit_ratio * e_conv_scaled

    def _stored_energy(stored: CoherenceField) -> float:
        return float(write.alpha * write.Gamma
                     * np.trapezoid(stored.excitation_density(scheme.p), z))

    e_stored = _stored_energy(snap_w) if snap_w is not None else 0.0
    e_resid = _stored_energy(CoherenceField(z=z, sigma=state[:, 1],
                                            t=t_axis[-1]))
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
    if not (all(map(math.isfinite, energies.values()))
            and energies["dissipated"] >= -LEDGER_TOL * e_in):
        raise StiffnessError(
            f"the run diverged: dissipated energy "
            f"{energies['dissipated'] / e_in:.3g} of the input at "
            f"dt = {dt:.3e} (limit {dt_limit}); force a larger n_t")
    diagnostics = {
        "n_z": n_z, "n_t": n_t, "dt": dt, "dt_max": dt_max,
        "dt_limit": dt_limit,
        "t_start": t_start, "t_end": t_end,
        "t_w": timeline.t_w, "t_r": timeline.t_r, "ramp": timeline.ramp,
        "Omega_w0": repr(complex(timeline.Omega_w0)),
        "Omega_r0": repr(complex(timeline.Omega_r0)),
    }

    record = SimulationRecord(
        stored_write=snap_w, t_exit=t_axis, probe_exit=probe_exit,
        converted_exit=conv_exit, energies=energies, diagnostics=diagnostics)

    if grid_check:
        fine = run_protocol(scheme, pulse, timeline,
                            grid=(2 * n_z, 2 * n_t - 1), t_end=t_end)
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
