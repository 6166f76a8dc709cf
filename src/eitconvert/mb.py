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
stage, at one uniform step per protocol phase: the write phase up to the
read turn-on, the read phase after it (see _phase_rates).

A run with a read turn-on stops once the medium is drained, before its
automatic run length if the converted pulse has left by then.  Its record
keeps the planned time axis up to that length, with zero exits after the
stop, so its waveforms are compared with the other engines' on the same
window either way.  The relative efficiency needs a companion run that
reads out in the original channel.  Its write phase is the main run's, so
run_original_readout resumes from the state the main record kept at the
read turn-on.

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
from dataclasses import dataclass, replace

import numpy as np

from .atoms import ConversionScheme
from .errors import GridBudgetError, StiffnessError
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
# would ask for about 5.2e8.
MAX_N_T = 1 << 20
# a run whose dissipated energy falls below -LEDGER_TOL of the input has
# diverged; every test, figure, demo and benchmark item dissipates at
# least +6.9e-4 of its input, diverged runs -0.28 and below
LEDGER_TOL = 1e-2
# largest dt * alpha * Gamma of either channel: the step rule's depth
# rates are 0.1 * alpha * Gamma / DEPTH_STEP.  On single-lambda runs the
# converted energy (read channel, alpha_c 2500) and the dissipated one
# (probe channel in both phases, alpha_p 2000 and 10^4) stay within 2e-6
# of converged up to 60, are off by 1e-4 at 80 and by 1% at 100, and are
# wrong or diverged from 115.  A cesium-d1 read (alpha_c 4000, isotropic)
# holds to 150 and fails at 300.  The benchmark items reach 20.
DEPTH_STEP = 50.0
# A run with a read turn-on stops once the excitation left in the medium
# falls below DRAIN_TOL of the pulse energy, checked every DRAIN_EVERY
# steps after the read ramp.  At the standard point (tests/test_mb.py) the
# drained identical-channel companion converts 1 - 5.1e-9 of what the
# main run stepped up to t_end converts at a tolerance of 1e-8, and
# 1 - 3.6e-10 at 1e-9.  On the 34 options of the convert benchmark,
# stopping the main runs this way instead of at t_end moves their
# converted energies by at most 3.2e-9 relative and each engine
# comparison's waveform RMS by at most 3.6e-9.
DRAIN_TOL = 1e-9
DRAIN_EVERY = 32


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
    write control on forever (slow-light mode, read channel unused); a
    timeline with a cutoff needs a nonzero read control, as nothing reads
    a store-only run.
    """

    Omega_w0: complex
    Omega_r0: complex = 0.0
    t_w: float | None = None
    t_s: float = 0.0
    ramp: float = 0.0

    def __post_init__(self):
        if self.ramp < 0 or self.t_s < 0:
            raise ValueError("ramp and t_s must be nonnegative")
        if self.t_w is not None and self.Omega_r0 == 0:
            raise ValueError("a timeline with a write cutoff needs a "
                             "nonzero read control Omega_r0")

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
        if t_r is None:
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
    relative efficiency.  residual_stored is the excitation left in the
    medium at the last sample stepped, in all three coherences.  pulse and
    timeline are the ones the run was given.

    t_exit is the planned time axis up to t_end.  A run that stopped once
    the medium was drained (diagnostics "stop": "drained", else "t_end")
    has zero exits after its last stepped sample; diagnostics n_t counts
    the samples it stepped.

    resume is (k, state): the index on t_exit of the last sample that no
    RK4 stage with the read control on has reached, and a copy of the
    stacked (M, 3, n_z) state there; None without a read turn-on (slow
    light).  run_original_readout resumes from it.
    """

    stored_write: CoherenceField | None
    t_exit: np.ndarray
    probe_exit: np.ndarray
    converted_exit: np.ndarray
    energies: dict
    diagnostics: dict
    pulse: GaussianPulse
    timeline: ControlTimeline
    resume: tuple[int, np.ndarray] | None = None


def _auto_t_end(scheme: ConversionScheme, pulse: GaussianPulse,
                timeline: ControlTimeline) -> float:
    """Run length long enough to catch the slow or converted pulse tail."""
    if timeline.t_w is None:
        # slow light: the group delay plus six widths of the pulse broadened
        # through the whole medium, neither of which depends on the cutoff
        write = write_channel(scheme, timeline.Omega_w0, pulse.T_p, 1.0)
        return write.T_d + 6.0 * pulse.T_p * write.beta_w(1.0)
    write = write_channel(scheme, timeline.Omega_w0, pulse.T_p,
                          timeline.t_w / pulse.T_p)
    if write.z_mid >= 1.0:
        # The stored-pulse centre lies past the medium, where read_channel
        # is undefined; bound the read-out by the read group delay through
        # the whole medium.
        T_d_read = _slow_light(scheme, "read", timeline.Omega_r0)[0]
        return timeline.t_r + timeline.ramp + T_d_read + 6.0 * pulse.T_p
    read = read_channel(scheme, timeline.Omega_r0, write)
    stretch = write.beta_w_mid * read.beta_r_L
    t_out = pulse.T_p * stretch * max(1.0, write.v_w / read.v_r)
    return (timeline.t_r + timeline.ramp
            + (1.0 - write.z_mid) / read.v_r + 6.0 * t_out)


# Steps per block of tabulated envelopes.  Whole-run tables (hundreds of kB
# at n_t ~ 10^4) raised the peak resident memory of later runs in the same
# process by about 2.5 MB; blocks of this size stay off that path.
_TABLE_STEPS = 256
# RK4 stage times as fractions of the step
_STAGES = np.array([0.0, 0.5, 1.0])


def _control_table(timeline: ControlTimeline, t: np.ndarray) -> np.ndarray:
    """Per time: (Omega_w, Omega_w*, Omega_r*, Omega_r), in the order of the
    coupling entries (0, 1), (1, 0), (1, 2), (2, 1) of the stacked state."""
    Ow = timeline.Omega_w(t)
    Or = timeline.Omega_r(t)
    return np.stack([Ow, np.conj(Ow), np.conj(Or), Or], axis=-1)


def _phase_rates(scheme: ConversionScheme, pulse: GaussianPulse,
                 timeline: ControlTimeline) -> dict:
    """The rates that bound the time step of each protocol phase.

    The write phase ends at the read turn-on t_r and the read phase starts
    there.  The read rows stay exactly zero while Omega_r = 0, so the read
    control, the read linewidth and the read depth count only in the read
    phase; the write control is off by then.  The write-phase step thus
    does not depend on the read channel, which lets run_original_readout
    share the write phase of the main run.  A slow-light run, without a
    read turn-on, is one write phase.
    """
    write, read = scheme.channel("write"), scheme.channel("read")
    common = {"Gamma_w": write.Gamma,
              "bandwidth": pulse_bandwidth(pulse.T_p),
              "write_depth": 0.1 * write.alpha * write.Gamma / DEPTH_STEP}
    if scheme.gamma_sg > 0:
        common["gamma_sg"] = scheme.gamma_sg
    phases = {"write": {**common, "write_control": write.a_ctrl_max
                        * abs(timeline.Omega_w0)}}
    if timeline.t_r is not None:
        phases["read"] = {"Gamma_w": write.Gamma, "Gamma_r": read.Gamma,
                          **common,
                          "read_control": read.a_ctrl_max
                          * abs(timeline.Omega_r0),
                          "read_depth": 0.1 * read.alpha * read.Gamma
                          / DEPTH_STEP}
    return phases


def run_protocol(scheme: ConversionScheme, pulse: GaussianPulse,
                 timeline: ControlTimeline,
                 grid: tuple[int, int] | None = None,
                 t_end: float | None = None,
                 grid_check: bool = False) -> SimulationRecord:
    """Integrate the write/store/read protocol and return the full record.

    grid is (n_z, n_t); n_t = 0 or a missing grid picks the time grid from
    the stiffness rule dt <= 0.1 / max(rates) of each phase (see
    _phase_rates; the rates are Gamma_w, Gamma_r, the pulse bandwidth,
    |a Omega| of the phase's control, the depth rates and gamma_sg).  The
    write phase, up to the read turn-on, and the read phase after it each
    get their own uniform step; diagnostics name each phase's step and the
    rate that set it (dt_write, dt_limit_write, dt_read, dt_limit_read),
    and dt is the larger step.  A forced n_t gives one uniform grid over
    the whole run; one that violates the rule of a phase raises
    StiffnessError naming the tightest phase bound and the n_t that meets
    it, and so does a run whose energy ledger shows it
    diverged (an energy not finite, or dissipated below -LEDGER_TOL of the
    input).  An automatic n_t, or the doubled one of grid_check, above
    MAX_N_T raises GridBudgetError before anything is allocated; a forced
    n_t is taken as given.  grid_check reruns with every step halved and
    n_z doubled and stores the relative change of the converted (or
    transmitted) energy in the diagnostics.  The record keeps the state at
    the read turn-on (SimulationRecord.resume) for run_original_readout.
    A run with a read turn-on stops once the medium is drained (see
    _integrate) and keeps its planned time axis, the exits zero after the
    stop; a slow-light run steps up to t_end.
    """
    n_z, n_t = grid if grid is not None else (200, 0)
    if n_z < 8:
        raise StiffnessError("need at least 8 z samples")
    return _simulate(scheme, pulse, timeline, n_z, n_t, t_end,
                     grid_check=grid_check)


def _simulate(scheme: ConversionScheme, pulse: GaussianPulse,
              timeline: ControlTimeline, n_z: int, n_t: int,
              t_end: float | None, start: SimulationRecord | None = None,
              grid_check: bool = False) -> SimulationRecord:
    """Size the time grid, integrate, check the ledger, fill diagnostics.

    Without start the run steps from t_start = -2 T_p.  With start it
    steps from start's resume sample (see _integrate), the grid covers
    only the rest of the run, and a forced n_t counts start's samples up
    to the resume sample too; diagnostics n_t counts the samples stepped.
    """
    t_start = -2.0 * pulse.T_p
    if t_end is None:
        t_end = _auto_t_end(scheme, pulse, timeline)
    if not t_end > t_start:
        raise ValueError("t_end must exceed the padding start")
    first = 0 if start is None else start.resume[0]
    t_first = t_start if start is None else start.t_exit[first]

    rates = _phase_rates(scheme, pulse, timeline)
    spans = {"write": (t_first, t_end)}
    if "read" in rates:
        t_r = min(max(timeline.t_r, t_first), t_end)
        spans = {"write": (t_first, t_r), "read": (t_r, t_end)}
    # the step bound of each phase the run spans, and the rate that sets it
    bounds = {}
    for name, (t0, t1) in spans.items():
        if t1 > t0:
            limit = max(rates[name], key=rates[name].get)
            bounds[name] = (0.1 / rates[name][limit], limit)

    if n_t > 0:
        steps = n_t - 1 - first
        dt = (t_end - t_first) / steps if steps > 0 else math.inf
        # one step for the whole run: the tightest bound is the one that
        # counts, and an n_t that meets it meets every phase's
        name, (dt_max, limit) = min(bounds.items(), key=lambda kv: kv[1][0])
        if dt > dt_max * (1.0 + 1e-9):
            raise StiffnessError(
                f"dt = {dt:.3e} exceeds the {name}-phase stability "
                f"bound {dt_max:.3e} (limit {limit}); need n_t >= "
                f"{first + int(math.ceil((t_end - t_first) / dt_max)) + 1}")
        segments = [(t_first, dt, steps)]
        dts = dict.fromkeys(bounds, dt)
    else:
        segments, dts = [], {}
        for name, (dt_max, _) in bounds.items():
            t0, t1 = spans[name]
            steps = int(math.ceil((t1 - t0) / dt_max))
            dts[name] = (t1 - t0) / steps
            segments.append((t0, dts[name], steps))
        n_t = first + sum(steps for *_, steps in segments) + 1
        if n_t > MAX_N_T:
            wanted = ", ".join(f"{name}-phase dt <= {dt_max:.3e} (limit "
                               f"{limit})"
                               for name, (dt_max, limit) in bounds.items())
            raise GridBudgetError(
                f"time grid needs n_t = {n_t} steps for {wanted}, above the "
                f"budget of {MAX_N_T}; set grid.n_t to force a size")
    if grid_check and 2 * n_t - 1 > MAX_N_T:
        raise GridBudgetError(
            f"grid check needs n_t = {2 * n_t - 1} steps, above the budget "
            f"of {MAX_N_T}; run without the grid check or set a smaller "
            f"grid.n_t")

    def integrate(n_z, segments):
        record = _integrate(scheme, pulse, timeline, n_z, segments, start)
        en = record.energies
        if not (all(map(math.isfinite, en.values()))
                and en["dissipated"] >= -LEDGER_TOL * en["input"]):
            used = ", ".join(f"{name}-phase dt = {dts[name]:.3e} (limit "
                             f"{limit})"
                             for name, (_, limit) in bounds.items())
            raise StiffnessError(
                f"the run diverged: dissipated energy "
                f"{en['dissipated'] / en['input']:.3g} of the input at "
                f"{used}; force a larger n_t")
        return record

    record = integrate(n_z, segments)
    record.diagnostics.update({
        "n_z": n_z, "dt": max(dts.values()),
        "t_start": t_start, "t_end": t_end,
    })
    for name, (dt_max, limit) in bounds.items():
        record.diagnostics.update({f"dt_{name}": dts[name],
                                   f"dt_max_{name}": dt_max,
                                   f"dt_limit_{name}": limit})

    if grid_check:
        fine = integrate(2 * n_z, [(t0, 0.5 * dt, 2 * steps)
                                   for t0, dt, steps in segments])
        key = "converted" if timeline.t_r is not None else "transmitted"
        ref = fine.energies[key]
        rel = abs(record.energies[key] - ref) / ref if ref > 0 else 0.0
        record.diagnostics["grid_doubling_rel"] = rel
        record.diagnostics["grid_converged"] = bool(rel < 0.01)
    return record


def _medium_energy(scheme: ConversionScheme, field: CoherenceField) -> float:
    """Excitation held by the coherences of field, in input units.

    The rows of field.sigma run over the subsystems, the same number of
    rows each (sigma_sg alone, or the stacked state); the result is
    alpha_p Gamma_w times the z-integral of sum_j sum_rows |sigma|^2 / p_j.
    """
    write = scheme.channel("write")
    rows = field.sigma.shape[0] // scheme.p.size
    density = field.excitation_density(np.repeat(scheme.p, rows))
    return float(write.alpha * write.Gamma * np.trapezoid(density, field.z))


def _integrate(scheme: ConversionScheme, pulse: GaussianPulse,
               timeline: ControlTimeline, n_z: int, segments: list,
               start: SimulationRecord | None = None) -> SimulationRecord:
    """RK4 over uniform time segments [(t0, dt, steps), ...], each
    starting where the one before ends; the diagnostics hold only n_t, the
    number of samples stepped, and stop.

    The record's resume point is the last sample that no stage time with
    the read control on has reached: t_r itself under a ramp, whose
    smoothstep is still 0 there, and the sample before t_r under a hard
    switch, whose last write step sees the read control at its final
    stage.  Given start, the run takes start's samples and state up to
    start's resume point and steps on from there over segments.

    A run with a read turn-on stops once the medium is drained: from
    t_r + ramp on, every DRAIN_EVERY steps, it ends when the excitation
    left in the medium falls below DRAIN_TOL of the pulse energy (stop
    "drained"; "t_end" for a run that reaches the last sample).  The
    record keeps the whole axis, with zero exits after the stop.
    """
    write, read = scheme.channel("write"), scheme.channel("read")
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

    def medium_energy(y, t):
        return _medium_energy(scheme, CoherenceField(
            z=z, sigma=y.reshape(3 * M, n_z), t=t))

    last, dt_last, n_last = segments[-1]
    axis = ([t0 + dt * np.arange(steps) for t0, dt, steps in segments]
            + [[last + dt_last * n_last]])
    first = 0
    if start is not None:
        first = start.resume[0]
        axis.insert(0, start.t_exit[:first])
    t_axis = np.concatenate(axis)
    # step k runs from t_axis[k] to t_axis[k + 1], so a switch at a segment
    # boundary falls on a stage time; the last sample takes no step
    step = np.diff(t_axis, append=t_axis[-1])
    n_t = t_axis.size

    def stage_tables(k0):
        """Controls and entry-face values at t_k, t_k + dt/2 and t_k + dt
        for the block of steps starting at k0."""
        block = slice(k0, k0 + _TABLE_STEPS)
        t = t_axis[block, None] + step[block, None] * _STAGES
        return _control_table(timeline, t), pulse(t)

    exits = np.zeros((n_t, 2), dtype=complex)
    state = np.zeros((M, 3, n_z), dtype=complex)
    stage = np.empty_like(state)
    acc = np.empty_like(state)
    k_buf = np.empty_like(state)
    scaled = np.empty_like(state)
    idx_w = (None if timeline.t_w is None
             else int(np.argmin(np.abs(t_axis - timeline.t_w))))
    snap_w = None
    idx_resume = None
    if timeline.t_r is not None:
        side = "right" if timeline.ramp > 0 else "left"
        idx_resume = max(int(np.searchsorted(t_axis, timeline.t_r, side)) - 1,
                         0)
    resume = None
    if start is not None:
        exits[:first, 0] = start.probe_exit[:first]
        exits[:first, 1] = start.converted_exit[:first]
        state[...] = start.resume[1]
        snap_w = start.stored_write
    t_drain = (timeline.t_r + timeline.ramp if timeline.t_r is not None
               else math.inf)
    drained = DRAIN_TOL * pulse.energy

    for k, dt in enumerate(step[first:].tolist(), first):
        j = (k - first) % _TABLE_STEPS
        if j == 0:
            ctrl, entry = stage_tables(k)
        if k == idx_w:
            snap_w = CoherenceField(z=z, sigma=state[:, 1].copy(),
                                    t=t_axis[k])
        if k == idx_resume:
            resume = (k, state.copy())
        rate(state, ctrl[j, 0], entry[j, 0], k_buf)
        exits[k] = fields[:, -1]
        if k == n_t - 1 or ((k - first) % DRAIN_EVERY == 0
                            and t_axis[k] >= t_drain
                            and medium_energy(state, t_axis[k]) < drained):
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
    e_stored = _medium_energy(scheme, snap_w) if snap_w is not None else 0.0
    e_resid = medium_energy(state, t_axis[k])
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
    return SimulationRecord(
        stored_write=snap_w, t_exit=t_axis, probe_exit=probe_exit,
        converted_exit=conv_exit, energies=energies,
        diagnostics={"n_t": k + 1 - first,
                     "stop": "drained" if k < n_t - 1 else "t_end"},
        pulse=pulse, timeline=timeline, resume=resume)


def run_original_readout(scheme: ConversionScheme, record: SimulationRecord,
                         n_t: int = 0) -> SimulationRecord:
    """Companion run: same write phase, retrieval in the original channel.

    record is the run_protocol record of scheme; the companion takes its
    pulse, timeline and n_z from it.  The read rows stay zero until the
    read control turns on, so up to record.resume the companion's state
    is the main run's: it takes record's samples and state there and
    integrates on with the read control Omega_w0 on the write channel
    (scheme.with_original_readout()).  Like the main run it stops once
    the medium is drained (diagnostics "stop": "drained") or at its
    automatic t_end ("t_end").  Its record spans the whole run, the shared
    samples included, and closes the same energy ledger; diagnostics n_t
    counts the samples it stepped after resuming.  n_t = 0 sizes the
    time grid as run_protocol does; a forced n_t counts every sample, the
    shared ones included, on one uniform grid from the resume sample on.
    """
    if record.resume is None:
        raise ValueError("the record has no read turn-on to resume from")
    tl = replace(record.timeline, Omega_r0=record.timeline.Omega_w0)
    return _simulate(scheme.with_original_readout(), record.pulse, tl,
                     record.diagnostics["n_z"], n_t, None, start=record)
