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
The z-integrals, of the fields and of the excitation held in the medium
(one weight table per run, _Run.norm, for the drain check, the ledger and
the error estimate), take one rule on n_z uniform samples (N_Z = 64 by
default): the four-point rule of fields._z_weights, fourth order in dz, as
in the spectral read-out.
Time stepping is classical RK4 with the field integrals re-evaluated at each
stage, at one uniform step per protocol phase: the write phase up to the
read turn-on, the read phase after it (see _phase_bounds).  Every run
sums RK4's embedded error estimate over its steps and is refused when
the sum exceeds ERR_TOL (see _integrate).

A run with a read turn-on stops once the medium is drained, before its
automatic run length if the converted pulse has left by then.  Its record
keeps the planned time axis up to that length, with zero exits after the
stop, so its waveforms are compared with the other engines' on the same
window either way.  The relative efficiency needs a companion run that
reads out in the original channel.  Its write phase is the main run's:
the read rows stay zero until the read control turns on.  So the
integrator steps a batch of runs that share one state up to the resume
sample: the main run alone through the write phase, then the main run
and its companion together, each on its own time axis and step, with its
own controls, channel constants, stop and error estimate.  A run that
stops leaves the batch.  run_protocol(..., companion=True) steps the pair
this way, and run_original_readout returns the companion it carries.

Numpy call overhead, not arithmetic, sets the cost of a step on grids of a
few dozen z samples, so the loop is laid out to make few calls, each over
the whole batch of R runs:

- The coherences of all subsystems of all runs form one stacked state of
  shape (R, M, 3, n_z), rows (sigma_eg, sigma_sg, sigma_e'g).  The local
  coupling (decays and controls) is one (R M, 3, 3) matrix applied by a
  batched product; the fields feed back through one (3M, 2) x (2, n_z)
  product per run.
- With sigma_sg in the middle row, the four control entries of the 3x3
  coupling sit at flat indices 1, 3, 5, 7 and are refreshed from four
  scalars per run through one strided view.
- All field integrals come from one real product: the cumulative weights
  of the z rule times the float view of a z-major source, (n_z + 1, 2R),
  whose first row holds the entry-face values.  Its cost grows as n_z^2.
- The state and the four RK4 slopes of a step share one block, so each
  RK4 combination (three stages and the new state) is one real product
  of each run's coefficients, its own dt in them, and the block's float
  view.
- The control envelopes and the input pulse are evaluated vectorized at
  every stage time, a block of steps at a time.  Only those scalars are
  stored: per-stage coupling matrices would hold M * 9 complex numbers per
  stage.

The companion thus costs less than a run of its own: at n_z 64 a step of
the pair took 1.2 times a step of one run at M = 1 and 1.6 times at M = 7
(2-core x86 host).  There is no dense (3M, 3M) product over all
subsystems.  OpenBLAS threads it across cores, and at M = 7, n_z = 200 it
took about 20 times as long as the batched 3x3 products (2-core x86
host).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .atoms import ConversionScheme
from .errors import GridBudgetError, StiffnessError
from .fields import CoherenceField, _z_weights
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

# default number of z samples: with the z rule of _z_weights, xi_total
# and xi_relative of each of the 34 convert benchmark options sit within
# 4.5e-6 relative of a run at n_z = 800.
N_Z = 64
# largest n_t run_protocol sizes on its own: tests, figures, demos and
# benchmark items use at most 5760 steps, and 2**20 steps of a
# single-lambda run take about 80 s at n_z = N_Z (the (n_t, 2) complex
# exit table alone is 32 MB).  A read/write control ratio of 0.01 at
# D_p = 500, ccp2 = 10 would ask for about 5.2e8.
MAX_N_T = 1 << 20
# a run whose dissipated energy falls below -LEDGER_TOL of the input has
# diverged; every test, figure, demo and benchmark item dissipates at
# least +6.9e-4 of its input, the runs the tests make diverge -4e9 and
# below
LEDGER_TOL = 1e-2
# a run whose error estimate (diagnostics "err_est", see _integrate)
# exceeds ERR_TOL is refused.  Every test, figure, demo and benchmark item
# reads at most 0.038 (a narrow convert point switched hard in the tests;
# the convert options at most 0.037).  At D_p 100, ccp2 25, control ratio
# 1, n_z 50, a DEPTH_STEP of 50 reads 3.5e-3; raised to 80 it reads 0.046
# (xi_total 1e-4 off), to 100 0.36 (0.9% off) and to 115 1.63 (0.961
# against 0.792, with a closing ledger).
ERR_TOL = 0.2
# a run whose error estimate passes DIVERGED_EST stops stepping: it is
# refused either way, and stepping on would overflow to inf and NaN once
# the squares in the estimate's norm pass the float range (an estimate
# of order 1e150)
DIVERGED_EST = 1e50
# the accuracy limits of the step rule: each phase's step is at most
# STEP_FACTOR over the largest of its rates (see _phase_bounds).  Going
# from 0.1 to 0.2 halved the steps of the convert benchmark's 34 options
# and moved their mb xi_total by at most 3.2e-4 relative (at n_z = 200).
STEP_FACTOR = 0.2
# the factor in place of STEP_FACTOR on a timeline with hard switches
# (ramp 0).  With the 34 convert options switched hard (at n_z = 200), a
# factor of 0.2 refused all ten narrow ones (estimates 0.29-0.65, one
# diverged ledger) and left a wide one's xi_total 6.9e-3 off; at 0.1 the
# estimates read at most 0.046 and xi_total is within 7.5e-4 of a run at
# 0.0125.
HARD_STEP_FACTOR = 0.1
# largest dt * alpha * Gamma of either channel, a stability bound apart
# from STEP_FACTOR and HARD_STEP_FACTOR (see _phase_bounds).  At n_z = N_Z,
# against runs at a limit of 10 (eta 4, control ratio 1): the converted
# energy of a single-lambda read (D_p 100, alpha_c 2500) stays within 3e-7
# up to 60, is off by 1e-4 at 80 and by 0.9% at 100, and is wrong or
# diverged from 115; the dissipated energy of a deep probe (alpha_p 10^4,
# ccp2 0.01) is off by 1e-5 at 50, 6e-5 at 60 and 2e-3 at 80, as at
# n_z = 200.  A cesium-d1 read (alpha_c 4000, isotropic, against 25)
# holds to 150, is off by 2e-3 at 200 and fails at 300.  The benchmark
# items reach 25.
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
# the default control ramp, as a fraction of T_p: 0.2 T_p is the
# realistic switching scale for a 0.2 us pulse (about 40 ns); the config
# default grid.ramp_fraction reads it too
RAMP_FRACTION = 0.2


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

    def window(self, scheme: ConversionScheme, T_p: float):
        """Time window (t_start, t_end) of a run of a pulse of width T_p.

        The run starts at t_start = -2 T_p, two pulse widths before the
        probe peak enters the medium, and ends once the slow or converted
        pulse tail has left it.  The Maxwell-Bloch run steps over this
        window; the spectral engine sizes its read-out grid by read_window.
        """
        t_start = -2.0 * T_p
        if self.t_w is None:
            # slow light: the group delay plus six widths of the pulse
            # broadened through the whole medium, neither of which depends
            # on the cutoff
            write = write_channel(scheme, self.Omega_w0, T_p, 1.0)
            return t_start, write.T_d + 6.0 * T_p * write.beta_w(1.0)
        write = write_channel(scheme, self.Omega_w0, T_p, self.t_w / T_p)
        if write.z_mid >= 1.0:
            # The stored-pulse centre lies past the medium, where
            # read_channel is undefined; bound the read-out by the read
            # group delay through the whole medium.
            T_d_read = _slow_light(scheme, "read", self.Omega_r0)[0]
            return t_start, self.t_r + self.ramp + T_d_read + 6.0 * T_p
        read = read_channel(scheme, self.Omega_r0, write)
        stretch = write.beta_w_mid * read.beta_r_L
        t_out = T_p * stretch * max(1.0, write.v_w / read.v_r)
        return t_start, (self.t_r + self.ramp
                         + (1.0 - write.z_mid) / read.v_r + 6.0 * t_out)

    def read_window(self, scheme: ConversionScheme, T_p: float):
        """The run window less the storage hold, on the axis from the read
        turn-on: (t_start - t_w, t_end - t_r).

        The converted field is zero until the read turn-on, so the hold
        adds nothing to it; the write phase before the cutoff stays, a
        fixed few pulse widths.  Neither end depends on t_s.
        """
        t_start, t_end = self.window(scheme, T_p)
        return t_start - self.t_w, t_end - self.t_r

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
                          ramp_fraction: float = RAMP_FRACTION
                          ) -> ControlTimeline:
    """Timeline with the write cutoff at kappa * T_p after pulse-peak entry.

    The ramps take ramp_fraction * T_p (RAMP_FRACTION by default); hard
    switching is available through ramp_fraction = 0.
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
    medium at the last sample stepped, in all three coherences.

    t_exit is the planned time axis up to t_end.  A run that stopped once
    the medium was drained (diagnostics "stop": "drained", else "t_end")
    has zero exits after its last stepped sample; diagnostics n_t counts
    the samples it stepped.

    resume is the index on t_exit of the last sample that no RK4 stage
    with the read control on has reached, where the companion joins the
    batch; None without a read turn-on (slow light).  companion is the
    record of the original-readout companion of a run_protocol call with
    companion=True, which run_original_readout returns; None otherwise.
    """

    stored_write: CoherenceField | None
    t_exit: np.ndarray
    probe_exit: np.ndarray
    converted_exit: np.ndarray
    energies: dict
    diagnostics: dict
    resume: int | None = None
    companion: "SimulationRecord | None" = None


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


def _phase_bounds(scheme: ConversionScheme, pulse: GaussianPulse,
                  timeline: ControlTimeline) -> dict:
    """The step bounds of each protocol phase, by the limit that sets them.

    The accuracy limits are STEP_FACTOR over a rate: Gamma_w, Gamma_r, the
    pulse bandwidth, |a Omega| of the phase's control and gamma_sg;
    HARD_STEP_FACTOR takes STEP_FACTOR's place on a timeline that switches
    its controls without a ramp.  The depth limits write_depth and
    read_depth are DEPTH_STEP / (alpha Gamma) of their channel, a
    stability bound that does not scale with either factor.  The write
    phase ends at the read turn-on t_r and the read phase starts there.
    The read rows stay exactly zero while Omega_r = 0, so the read
    control, the read linewidth and the read depth count only in the read
    phase; the write control is off by then.  The write-phase step thus
    does not depend on the read channel, which lets the original-readout
    companion share the write phase of the main run.  A slow-light run, without a
    read turn-on, is one write phase.
    """
    write, read = scheme.channel("write"), scheme.channel("read")
    factor = (HARD_STEP_FACTOR if timeline.t_w is not None
              and timeline.ramp == 0.0 else STEP_FACTOR)
    common = {"Gamma_w": factor / write.Gamma,
              "bandwidth": factor / pulse_bandwidth(pulse.T_p),
              "write_depth": DEPTH_STEP / (write.alpha * write.Gamma)}
    if scheme.gamma_sg > 0:
        common["gamma_sg"] = factor / scheme.gamma_sg
    phases = {"write": {**common, "write_control": factor / (
        write.a_ctrl_max * abs(timeline.Omega_w0))}}
    if timeline.t_r is not None:
        phases["read"] = {"Gamma_w": common["Gamma_w"],
                          "Gamma_r": factor / read.Gamma, **common,
                          "read_control": factor / (
                              read.a_ctrl_max * abs(timeline.Omega_r0)),
                          "read_depth": DEPTH_STEP / (read.alpha
                                                      * read.Gamma)}
    return phases


def run_protocol(scheme: ConversionScheme, pulse: GaussianPulse,
                 timeline: ControlTimeline,
                 grid: tuple[int, int] | None = None,
                 t_end: float | None = None,
                 grid_check: bool = False,
                 companion: bool = False) -> SimulationRecord:
    """Integrate the write/store/read protocol and return the full record.

    grid is (n_z, n_t), (N_Z, 0) if missing; n_t = 0 picks the time grid
    from the step rule of each phase: dt <= STEP_FACTOR / max(rates)
    (HARD_STEP_FACTOR under hard switches), the rates being Gamma_w,
    Gamma_r, the pulse bandwidth, |a Omega| of the phase's control and
    gamma_sg, and dt <= DEPTH_STEP / (alpha Gamma) of each
    channel the phase drives (see _phase_bounds).  The write phase, up to
    the read turn-on, and the read phase after it each get their own
    uniform step; diagnostics name each phase's step and the limit that
    set it (dt_write, dt_limit_write, dt_read, dt_limit_read), and dt is
    the larger step.  A forced n_t gives one uniform grid over the whole
    run; one that violates the rule of a phase raises StiffnessError
    naming the tightest phase bound and the n_t that meets it.  So does a
    run whose energy ledger shows it diverged (an energy not finite, or
    dissipated below -LEDGER_TOL of the input), and one whose error
    estimate (diagnostics err_est, see _integrate) exceeds ERR_TOL; both
    messages name each phase's step.  An automatic n_t, or the doubled one
    of grid_check, above MAX_N_T raises GridBudgetError before anything is
    allocated; a forced n_t is taken as given.  grid_check reruns with
    every step halved and n_z doubled and stores the relative change of
    the converted (or transmitted) energy in the diagnostics; the rerun
    has no companion.  A run with a read turn-on stops once the medium is
    drained (see _integrate) and keeps its planned time axis, the exits
    zero after the stop; a slow-light run steps up to t_end.

    companion=True also steps the original-readout companion, in the same
    batch as the read phase (see _integrate): the record carries it
    (SimulationRecord.companion, which run_original_readout returns), on
    the same n_z and forced n_t, and the companion's refusals
    (StiffnessError, GridBudgetError) come from this call.  A timeline without a read
    turn-on has no companion (ValueError).
    """
    n_z, n_t = grid if grid is not None else (N_Z, 0)
    if n_z < 8:
        raise StiffnessError("need at least 8 z samples")
    return _simulate(scheme, pulse, timeline, n_z, n_t, t_end,
                     grid_check=grid_check, companion=companion)


def _original_readout(scheme: ConversionScheme, timeline: ControlTimeline):
    """The companion's scheme and timeline: the write channel read out by
    a read control of the write control's strength."""
    return (scheme.with_original_readout(),
            replace(timeline, Omega_r0=timeline.Omega_w0))


@dataclass(frozen=True)
class _Plan:
    """The time grid of one run: its uniform segments [(t0, dt, steps),
    ...], the step of each phase (dts), the bound of each phase and the
    limit that sets it (bounds), the run window and the total n_t."""

    segments: list
    dts: dict
    bounds: dict
    t_start: float
    t_end: float
    n_t: int


def _plan(scheme: ConversionScheme, pulse: GaussianPulse,
          timeline: ControlTimeline, n_t: int, t_end: float | None,
          resume_at: tuple[int, float] | None = None) -> _Plan:
    """Size the time grid of a run, or refuse it.

    Without resume_at the run steps from t_start = -2 T_p.  With
    resume_at = (first, t_first) it steps from sample first at t_first:
    the grid covers only the rest of the run, and a forced n_t counts the
    first samples too.
    """
    t_start, t_auto = timeline.window(scheme, pulse.T_p)
    if t_end is None:
        t_end = t_auto
    if not t_end > t_start:
        raise ValueError("t_end must exceed the padding start")
    first, t_first = resume_at if resume_at is not None else (0, t_start)

    limits = _phase_bounds(scheme, pulse, timeline)
    spans = {"write": (t_first, t_end)}
    if "read" in limits:
        t_r = min(max(timeline.t_r, t_first), t_end)
        spans = {"write": (t_first, t_r), "read": (t_r, t_end)}
    # the step bound of each phase the run spans, and the limit that sets it
    bounds = {}
    for name, (t0, t1) in spans.items():
        if t1 > t0:
            limit = min(limits[name], key=limits[name].get)
            bounds[name] = (limits[name][limit], limit)

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
    return _Plan(segments, dts, bounds, t_start, t_end, n_t)


def _check(record: SimulationRecord, plan: _Plan) -> None:
    """Refuse a run whose energy ledger shows it diverged or whose error
    estimate exceeds ERR_TOL; the message names each phase's step."""
    en = record.energies
    used = ", ".join(f"{name}-phase dt = {plan.dts[name]:.3e} (limit "
                     f"{limit})" for name, (_, limit) in plan.bounds.items())
    if not (all(map(math.isfinite, en.values()))
            and en["dissipated"] >= -LEDGER_TOL * en["input"]):
        raise StiffnessError(
            f"the run diverged: dissipated energy "
            f"{en['dissipated'] / en['input']:.3g} of the input at "
            f"{used}; force a larger n_t")
    err = record.diagnostics["err_est"]
    if not err <= ERR_TOL:
        raise StiffnessError(
            f"the run's error estimate {err:.3g} exceeds ERR_TOL = "
            f"{ERR_TOL:g} at {used}; force a larger n_t")


def _describe(record: SimulationRecord, plan: _Plan, n_z: int) -> None:
    """Add the grid of plan to the record's diagnostics."""
    record.diagnostics.update({
        "n_z": n_z, "dt": max(plan.dts.values()),
        "t_start": plan.t_start, "t_end": plan.t_end,
    })
    for name, (dt_max, limit) in plan.bounds.items():
        record.diagnostics.update({f"dt_{name}": plan.dts[name],
                                   f"dt_max_{name}": dt_max,
                                   f"dt_limit_{name}": limit})


def _simulate(scheme: ConversionScheme, pulse: GaussianPulse,
              timeline: ControlTimeline, n_z: int, n_t: int,
              t_end: float | None, grid_check: bool = False,
              companion: bool = False) -> SimulationRecord:
    """Size the time grids, integrate, check the ledgers, fill diagnostics.

    The run steps from t_start = -2 T_p.  companion sizes the
    original-readout companion from this run's resume sample, on its own
    automatic t_end: its grid covers only the rest of the run, and a
    forced n_t counts the shared samples too.  It is stepped in the same
    batch, and the record carries it.
    """
    plan = _plan(scheme, pulse, timeline, n_t, t_end)
    if grid_check and 2 * plan.n_t - 1 > MAX_N_T:
        raise GridBudgetError(
            f"grid check needs n_t = {2 * plan.n_t - 1} steps, above the "
            f"budget of {MAX_N_T}; run without the grid check or set a "
            f"smaller grid.n_t")
    fork = None
    if companion:
        if timeline.t_r is None:
            raise ValueError("a run without a read turn-on has no "
                             "companion")
        t_axis = _time_axis(plan.segments)
        k = _resume_index(timeline, t_axis)
        fork_scheme, fork_timeline = _original_readout(scheme, timeline)
        fork_plan = _plan(fork_scheme, pulse, fork_timeline, n_t, None,
                          (k, t_axis[k]))
        fork = (fork_scheme, fork_timeline, fork_plan.segments)

    records = _integrate(scheme, pulse, timeline, n_z, plan.segments, fork)
    record = records[0]
    _check(record, plan)
    _describe(record, plan, n_z)
    if fork is not None:
        _check(records[1], fork_plan)
        _describe(records[1], fork_plan, n_z)
        record.companion = records[1]

    if grid_check:
        fine = _integrate(scheme, pulse, timeline, 2 * n_z,
                          [(t0, 0.5 * dt, 2 * steps)
                           for t0, dt, steps in plan.segments])[0]
        _check(fine, plan)
        key = "converted" if timeline.t_r is not None else "transmitted"
        ref = fine.energies[key]
        rel = abs(record.energies[key] - ref) / ref if ref > 0 else 0.0
        record.diagnostics["grid_doubling_rel"] = rel
        record.diagnostics["grid_converged"] = bool(rel < 0.01)
    return record


def _time_axis(segments: list, head=()) -> np.ndarray:
    """The samples of a run that steps over segments after the samples of
    head."""
    last, dt_last, n_last = segments[-1]
    return np.concatenate([np.asarray(head, dtype=float)]
                          + [t0 + dt * np.arange(steps)
                             for t0, dt, steps in segments]
                          + [[last + dt_last * n_last]])


def _resume_index(timeline: ControlTimeline, t_axis: np.ndarray):
    """The last sample of t_axis that no RK4 stage with the read control
    on reaches (None without a read turn-on): t_r itself under a ramp,
    whose smoothstep is still 0 there, and the sample before t_r under a
    hard switch, whose last write step sees the read control at its
    final stage."""
    if timeline.t_r is None:
        return None
    side = "right" if timeline.ramp > 0 else "left"
    return max(int(np.searchsorted(t_axis, timeline.t_r, side)) - 1, 0)


class _Run:
    """One run of a batch: its channel constants, controls and time axis,
    what it carries from one batch to the next, and what it records."""

    def __init__(self, scheme: ConversionScheme, timeline: ControlTimeline,
                 t_axis: np.ndarray, first: int, n_z: int):
        write, read = scheme.channel("write"), scheme.channel("read")
        M = scheme.p.size
        self.scheme, self.timeline, self.t_axis = scheme, timeline, t_axis
        # the first sample stepped; the samples before it are given
        self.first = first
        # step k runs from t_axis[k] to t_axis[k + 1], so a switch at a
        # segment boundary falls on a stage time; the last sample takes no
        # step
        self.step = np.diff(t_axis, append=t_axis[-1])
        # Local coupling of subsystem j on its rows (sigma_eg, sigma_sg,
        # sigma_e'g); the control entries (0, 1), (1, 0), (1, 2), (2, 1),
        # flat[1::2], are control_coef times the control table's entries.
        self.A = np.zeros((M, 3, 3), dtype=complex)
        self.A[:, 0, 0] = -0.5 * write.Gamma
        self.A[:, 1, 1] = -scheme.gamma_sg
        self.A[:, 2, 2] = -0.5 * read.Gamma
        self.control_coef = 0.5j * np.stack([write.a_ctrl, write.a_ctrl,
                                             read.a_ctrl, read.a_ctrl],
                                            axis=1)
        # Drive of each optical coherence by its field (E_p, E_c).
        self.D = np.zeros((M, 3, 2), dtype=complex)
        self.D[:, 0, 0] = 0.5j * scheme.a_p * scheme.p
        self.D[:, 2, 1] = 0.5j * scheme.a_c * scheme.p
        # Field sources dE/dz of the flattened state, one column per field.
        P = np.zeros((M, 3, 2), dtype=complex)
        P[:, 0, 0] = 0.5j * write.alpha * write.Gamma * scheme.a_p
        P[:, 2, 1] = 0.5j * read.alpha * read.Gamma * scheme.a_c
        self.P = P.reshape(3 * M, 2)
        # the excitation norm (see _excitation), (M, 1, n_z): alpha_p
        # Gamma_w / p_j (0 on empty subsystems) times the z rule's weights
        # over the whole medium
        live = scheme.p > 0
        weight = np.where(live, write.alpha * write.Gamma
                          / np.where(live, scheme.p, 1.0), 0.0)
        self.norm = weight[:, None, None] * _z_weights(n_z)[:, -1]

        self.exits = np.zeros((t_axis.size, 2), dtype=complex)
        self.idx_w = (None if timeline.t_w is None
                      else int(np.argmin(np.abs(t_axis - timeline.t_w))))
        self.idx_resume = _resume_index(timeline, t_axis)
        self.t_drain = (timeline.t_r + timeline.ramp
                        if timeline.t_r is not None else math.inf)
        # carried from batch to batch: the state at the sample reached, its
        # k1, the k4 of the step before it and dt/6 of that step (0 before
        # the first step, so the estimate adds nothing there), and the
        # summed error estimate
        self.state, self.k1, self.k4 = (np.zeros((M, 3, n_z), dtype=complex)
                                        for _ in range(3))
        self.h6 = 0.0
        self.err = 0.0
        self.snap_w = None
        # set once the run stops: why, and the last sample stepped
        self.stop = None
        self.k_stop = None


def _excitation(run: _Run, sigma: np.ndarray) -> float:
    """Excitation held by sigma in the medium of run, in input units:
    sum_j alpha_p Gamma_w / p_j times the z-integral of |sigma_j|^2 over
    the rows of each subsystem; sigma is (M, n_z) (sigma_sg alone) or
    (M, 3, n_z) (the stacked state)."""
    M, _, n_z = run.norm.shape
    power = (np.abs(sigma.reshape(M, -1, n_z)) ** 2).sum(axis=1)
    return float(np.vdot(run.norm, power))


class _Batch:
    """Runs stepped together (see _integrate).

    The coherences of the runs are stacked as (R, M, 3, n_z), and each
    numpy call of a step covers all R runs.  A step keeps its state and
    its four RK4 slopes in one block (5, R, M, 3, n_z), rows (y, k1, k2,
    k3, k4), so each RK4 combination is one real product of an (R, iR)
    matrix of each run's coefficients and the float view of the block's
    first i rows.  Two blocks take turns: a step writes the new state into
    the other one, whose k4 row still holds the slope the error estimate
    compares with the next k1.
    """

    def __init__(self, runs: list, pulse: GaussianPulse, z: np.ndarray,
                 integral: np.ndarray):
        R = len(runs)
        M, _, n_z = runs[0].state.shape
        RM = R * M
        self.runs, self.pulse, self.z = runs, pulse, z
        blocks = np.zeros((2, 5, R, M, 3, n_z), dtype=complex)
        blocks[0, 0] = [run.state for run in runs]
        blocks[0, 1] = [run.k1 for run in runs]
        blocks[1, 4] = [run.k4 for run in runs]
        self.blocks = blocks
        self.stage = np.empty((R, M, 3, n_z), dtype=complex)

        A = np.concatenate([run.A for run in runs])
        controls = A.reshape(R, M, 9)[:, :, 1::2]
        coef = np.stack([run.control_coef for run in runs])
        D = np.stack([run.D for run in runs]).reshape(R, 3 * M, 2)
        # each run's sources come from its own rows of the stacked state
        P = np.zeros((3 * RM, 2 * R), dtype=complex)
        for r, run in enumerate(runs):
            P[3 * M * r:3 * M * (r + 1), 2 * r:2 * r + 2] = run.P
        # The fields are kept z-major, (n_z, 2R), columns (E_p, E_c) of
        # each run: row 0 of source holds the entry-face values and rows 1:
        # the sources, so one real product of the z weights (with a column
        # of ones in front) and the float view of source, (n_z + 1, 4R),
        # gives every field, real and imaginary parts.
        source = np.zeros((n_z + 1, 2 * R), dtype=complex)
        face = source[0, ::2]
        fields_z = np.empty((n_z, 2 * R), dtype=complex)
        fields = fields_z.reshape(n_z, R, 2).transpose(1, 2, 0)
        # the drive of all subsystems of a run by its fields is one
        # (3M, 2) x (2, n_z) product
        drive = np.empty((R, 3 * M, n_z), dtype=complex)
        drive_rows = drive.reshape(RM, 3, n_z)
        # each run's exit values (E_p, E_c) at z = L
        self.exits = list(fields_z[-1].reshape(R, 2))

        def rate(y, ctrl, entry, out):
            """d(state)/dt at y into out, both as views() gives them;
            refreshes the fields."""
            np.matmul(y[0], P, out=source[1:])
            face[...] = entry
            np.matmul(integral, source.view(float), out=fields_z.view(float))
            np.multiply(coef, ctrl, out=controls)
            rows = out[1]
            np.matmul(A, y[1], out=rows)
            np.matmul(D, fields, out=drive)
            rows += drive_rows

        # The error estimate's norm: diff holds k4 - k1, and its squared
        # norm is the excitation of diff: each run's float rows, times its
        # excitation norm expanded to every row and to the real and
        # imaginary parts, dotted with themselves.
        diff = np.empty_like(self.stage)
        floats = diff.reshape(R, 3 * M * n_z).view(float)
        weights = np.stack([np.broadcast_to(run.norm[..., None],
                                            (M, 3, n_z, 2)).ravel()
                            for run in runs])
        weighted = np.empty_like(floats)

        def sq_norm(k4, k1):
            """The squared norm of each run's k4 - k1, as a list."""
            np.subtract(k4, k1, out=diff)
            np.multiply(floats, weights, out=weighted)
            return np.vecdot(weighted, floats).tolist()

        def views(a):
            """a as the source product and the coupling product take it."""
            return a.reshape(3 * RM, n_z).T, a.reshape(RM, 3, n_z)

        def float_rows(a, rows):
            return a.reshape(rows, 3 * M * n_z).view(float)

        # per block: the views of its rows, the operands of the three
        # stage combinations and of the new state, the slopes the error
        # estimate reads and the new state's place in the other block
        self.sets = [
            (*map(views, blocks[b]),
             *(float_rows(blocks[b], 5 * R)[:i * R] for i in (2, 3, 4, 5)),
             blocks[b, 1], blocks[b, 4], float_rows(blocks[1 - b], 5 * R)[:R])
            for b in (0, 1)]
        self.stage_views = views(self.stage)
        self.stage_floats = float_rows(self.stage, R)
        self.rate, self.sq_norm = rate, sq_norm

    def tables(self, k: int):
        """For the block of steps from k: each run's controls and
        entry-face values at t_k, t_k + dt/2 and t_k + dt, the coefficient
        matrices of the RK4 combinations (three stages and the new state)
        and each run's dt/6; zero past a run's last sample."""
        R = len(self.runs)
        ctrl = np.zeros((_TABLE_STEPS, 3, R, 1, 4), dtype=complex)
        entry = np.zeros((_TABLE_STEPS, 3, R), dtype=complex)
        # row r of each matrix takes run r's state (column r) and slopes
        # (column iR + r for k_i)
        coef = np.zeros((_TABLE_STEPS, 4, R, 5 * R))
        sixths = np.zeros((_TABLE_STEPS, R))
        block = slice(k, k + _TABLE_STEPS)
        for r, run in enumerate(self.runs):
            dt = run.step[block]
            n = dt.size
            t = run.t_axis[block, None] + dt[:, None] * _STAGES
            ctrl[:n, :, r, 0] = _control_table(run.timeline, t)
            entry[:n, :, r] = self.pulse(t)
            coef[:n, :, r, r] = 1.0
            coef[:n, 0, r, R + r] = 0.5 * dt
            coef[:n, 1, r, 2 * R + r] = 0.5 * dt
            coef[:n, 2, r, 3 * R + r] = dt
            sixths[:n, r] = dt / 6.0
            for i, w in enumerate((sixths[:n, r], dt / 3.0, dt / 3.0,
                                   sixths[:n, r]), 1):
                coef[:n, 3, r, i * R + r] = w
        return (ctrl, entry, coef[:, 0, :, :2 * R], coef[:, 1, :, :3 * R],
                coef[:, 2, :, :4 * R], coef[:, 3], sixths.tolist())

    def visit(self, r: int, k: int, err: float, state: np.ndarray) -> int:
        """Snapshots and stop checks of run r at sample k, where its state
        is state; returns the next sample that needs a visit."""
        run = self.runs[r]
        t_k = run.t_axis[k]
        if k == run.idx_w:
            run.snap_w = CoherenceField(z=self.z, sigma=state[:, 1].copy(),
                                        t=t_k)
        if not err <= DIVERGED_EST * math.sqrt(self.pulse.energy):
            run.stop = "diverged"
        elif k == run.t_axis.size - 1:
            run.stop = "t_end"
        elif ((k - run.first) % DRAIN_EVERY == 0 and t_k >= run.t_drain
              and _excitation(run, state) < DRAIN_TOL * self.pulse.energy):
            run.stop = "drained"
        due = [run.t_axis.size - 1,
               k + DRAIN_EVERY - (k - run.first) % DRAIN_EVERY]
        if run.idx_w is not None and run.idx_w > k:
            due.append(run.idx_w)
        return min(due)

    def advance(self, k: int, fresh: bool, k_fork: int):
        """Step every run from sample k until one stops or sample k_fork
        is reached, then hand each run back what it carries.  fresh=False:
        k1 of sample k is in place and that sample's exits, estimate and
        checks are done.  Returns (k, fresh) where the batch left off."""
        runs, R = self.runs, len(self.runs)
        rate, sq_norm, exits, sets = (self.rate, self.sq_norm, self.exits,
                                      self.sets)
        G, stage = self.stage_views, self.stage_floats
        out = [run.exits for run in runs]
        err = [run.err for run in runs]
        h6 = [run.h6 for run in runs]
        # the next sample at which each run needs a visit (a run whose
        # estimate diverges gets one at once)
        due = [k] * R
        diverged = DIVERGED_EST * math.sqrt(self.pulse.energy)
        k_table, b, stopped = k, 0, False
        ctrl, entry, c2, c3, c4, c5, sixths = self.tables(k)
        while True:
            j = k - k_table
            if j == _TABLE_STEPS:
                k_table, j = k, 0
                ctrl, entry, c2, c3, c4, c5, sixths = self.tables(k)
            (y, d1, d2, d3, d4, y_k1, y_k2, y_k3, y_k4,
             k1, _, new) = sets[b]
            if fresh:
                rate(y, ctrl[j, 0], entry[j, 0], d1)
                # embedded error estimate of each run's step just taken:
                # dt/6 times its k4 (in the other block) less k1 of this
                # sample
                sq = sq_norm(sets[1 - b][-2], k1)
                for r in range(R):
                    out[r][k] = exits[r]
                    err[r] += h6[r] * math.sqrt(sq[r])
                    if k >= due[r] or not err[r] <= diverged:
                        due[r] = self.visit(r, k, err[r],
                                            self.blocks[b, 0, r])
                        if runs[r].stop is not None:
                            runs[r].k_stop, stopped = k, True
                if stopped:
                    break
            fresh = True
            # classical RK4, each run at its own dt: the stages y + dt/2
            # k1, y + dt/2 k2 and y + dt k3, then the new state y + dt/6
            # (k1 + 2 k2 + 2 k3 + k4)
            np.matmul(c2[j], y_k1, out=stage)
            rate(G, ctrl[j, 1], entry[j, 1], d2)
            np.matmul(c3[j], y_k2, out=stage)
            rate(G, ctrl[j, 1], entry[j, 1], d3)
            np.matmul(c4[j], y_k3, out=stage)
            rate(G, ctrl[j, 2], entry[j, 2], d4)
            np.matmul(c5[j], y_k4, out=new)
            b = 1 - b
            h6 = sixths[j]
            k += 1
            if k == k_fork:
                break
        for r, run in enumerate(runs):
            run.state, run.k1 = self.blocks[b, 0, r], self.blocks[b, 1, r]
            run.k4 = self.blocks[1 - b, 4, r]
            run.h6, run.err = h6[r], err[r]
        return k, not stopped


def _record(run: _Run, pulse: GaussianPulse) -> SimulationRecord:
    """The record of a run that has stopped."""
    t_axis = run.t_axis
    probe_exit = run.exits[:, 0].copy()
    conv_exit = run.exits[:, 1].copy()
    e_in = float(np.trapezoid(np.abs(pulse(t_axis)) ** 2, t_axis))
    e_trans = float(np.trapezoid(np.abs(probe_exit) ** 2, t_axis))
    if run.timeline.t_w is not None:
        pre = t_axis <= run.timeline.t_w
        e_leak = float(np.trapezoid(np.abs(probe_exit[pre]) ** 2, t_axis[pre]))
    else:
        e_leak = e_trans
    e_conv_scaled = float(np.trapezoid(np.abs(conv_exit) ** 2, t_axis))
    e_conv = run.scheme.energy_unit_ratio * e_conv_scaled
    e_stored = (_excitation(run, run.snap_w.sigma)
                if run.snap_w is not None else 0.0)
    e_resid = _excitation(run, run.state)
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
        stored_write=run.snap_w, t_exit=t_axis, probe_exit=probe_exit,
        converted_exit=conv_exit, energies=energies,
        diagnostics={"n_t": run.k_stop + 1 - run.first,
                     "stop": run.stop,
                     "err_est": run.err / math.sqrt(e_in)},
        resume=run.idx_resume)


def _integrate(scheme: ConversionScheme, pulse: GaussianPulse,
               timeline: ControlTimeline, n_z: int, segments: list,
               fork: tuple | None = None) -> list:
    """RK4 over uniform time segments [(t0, dt, steps), ...], each
    starting where the one before ends; returns the run's record, then
    the fork's.  The diagnostics hold only n_t, the number of samples
    stepped, stop and err_est.

    err_est is RK4's embedded error estimate (Hairer, Norsett & Wanner,
    Solving Ordinary Differential Equations I, sec. II.4), summed over the
    steps taken: e_n = dt/6 (k4 of step n - k1 of step n + 1) is the
    difference between RK4 and the third-order method that shares its
    stages plus f(y_n+1), and the next k1 is computed anyway.  Each
    ||e_n|| is taken in the excitation norm, the square root of the
    excitation of e_n (see _excitation), and the sum is divided by the
    square root of the input energy.
    Over a run it falls as dt^3.

    The record's resume point is the last sample that no stage time with
    the read control on has reached (see _resume_index).  fork = (scheme,
    timeline, segments) is a second run that takes this run's samples and
    state up to its resume point and steps on from there over segments:
    the original-readout companion.  Up to there the two runs are one, so
    the fork joins the batch (_Batch) there, and from there each loop
    iteration advances both, each by its own step, with every numpy call
    of a step covering both.

    A run with a read turn-on stops once the medium is drained: from
    t_r + ramp on, every DRAIN_EVERY steps, it ends when the excitation
    left in the medium falls below DRAIN_TOL of the pulse energy (stop
    "drained"; "t_end" for a run that reaches the last sample).  Any run
    stops once err_est passes DIVERGED_EST (stop "diverged").  A run that
    stops leaves the batch, and the other steps on alone.  The record
    keeps the whole axis, with zero exits after the stop.
    """
    z = np.linspace(0.0, 1.0, n_z)
    integral = np.ones((n_z, n_z + 1))
    integral[:, 1:] = _z_weights(n_z).T
    main = _Run(scheme, timeline, _time_axis(segments), 0, n_z)
    runs, k_fork = [main], -1
    if fork is not None:
        k_fork = main.idx_resume
        runs.append(_Run(fork[0], fork[1],
                         _time_axis(fork[2], main.t_axis[:k_fork]), k_fork,
                         n_z))

    live, k, fresh = [main], 0, True
    while live:
        if k == k_fork:
            branch = runs[1]
            branch.state[...] = main.state
            branch.exits[:k] = main.exits[:k]
            live.append(branch)
            k_fork = -1
        k, fresh = _Batch(live, pulse, z, integral).advance(k, fresh, k_fork)
        live = [run for run in live if run.stop is None]
    if fork is not None and runs[1].snap_w is None:
        # the write cutoff lies before the fork: the snapshot is shared
        runs[1].snap_w = main.snap_w
    return [_record(run, pulse) for run in runs if run.stop is not None]


def run_original_readout(scheme: ConversionScheme,
                         record: SimulationRecord) -> SimulationRecord:
    """Companion run: same write phase, retrieval in the original channel.

    record is the run_protocol(..., companion=True) record of scheme; the
    companion is the run it carries, stepped in one batch with the main
    run's read phase.  The read rows stay zero until the read control
    turns on, so up to record.resume the companion's state is the main
    run's; from there it steps on with the read control Omega_w0 on the
    write channel (scheme.with_original_readout()), on the main run's n_z
    and forced n_t.  Like the main run it stops once the medium is drained
    (diagnostics "stop": "drained") or at its automatic t_end ("t_end").
    Its record spans the whole run, the shared samples included, and
    closes the same energy ledger; diagnostics n_t counts the samples it
    stepped after the resume sample.  A record made without
    companion=True raises ValueError.
    """
    if record.companion is None:
        raise ValueError("the record carries no original-readout companion: "
                         "run run_protocol with companion=True")
    return record.companion
