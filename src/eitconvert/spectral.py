"""Frequency-domain propagation of the linearized write and read channels.

The weak probe obeys a linear response per frequency bin: each subsystem
contributes an adiabatic amplitude

    A_j(omega) = -[1 - (2 i Gamma omega + 4 omega^2) / |a_j Omega|^2]^{-1}

and the field accumulates exp(-f(omega) z) with the population-weighted
propagation exponent

    f(omega) = i omega (alpha Gamma / L |Omega|^2) sum_j p_j R_j^2 A_j(omega)

in the retarded frame, where the vacuum transit time drops out.  The medium
length L is the unit of length, so z runs over [0, 1].

This module evaluates those kernels exactly on a discrete frequency grid:
storage is an inverse transform of the filtered input spectrum at the write
cutoff, and retrieval is a z-quadrature of the stored coherence against the
read-channel kernel by mb's z rule (mb._z_weights).

Unitary Fourier convention: g~(omega) = (2 pi)^{-1/2} integral g(t)
exp(+i omega t) dt, so Parseval holds without extra factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .atoms import ConversionScheme
from .errors import AliasingError, GridBudgetError, GridError
from .mb import ControlTimeline, _medium_weights
from .theory import LN2, pulse_bandwidth

__all__ = [
    "CoherenceField",
    "SpectralGrid",
    "ConvertedFieldResult",
    "TransmittedFieldResult",
    "time_from_spectrum",
    "gaussian_probe_spectrum",
    "channel_transfer",
    "stored_coherence_exact",
    "converted_field_exact",
    "transmitted_probe",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# largest n_omega the SpectralGrid stage sizers choose on their own:
# on the fig2 scheme (depth 500, T_p 0.2 us) 2**22 bins admit a read/write
# control ratio of 0.001 (2**22) and refuse 1e-4 (2**26), whose complex
# spectra alone would take 1 GB each
MAX_N_OMEGA = 1 << 22
# fewest bins they choose
MIN_N_OMEGA = 4096
# The read grid's time window 2 pi / d_omega spans this many converted
# field windows.  The converted axis starts 1/16 of it before the
# window's start, and _check_aliasing refuses energy in its first and
# last 5%, so the whole window lies inside with a quiet stretch after it.
WINDOW_MARGIN = 2.0


# ---------------------------------------------------------------------------
# grids and Fourier helpers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralGrid:
    """Uniform centered frequency grid plus a spatial sample count.

    omega spans [-omega_max, omega_max) with n_omega points (power of two,
    so omega = 0 is an exact sample); n_z uniform samples, an odd number,
    cover [0, 1] inclusive.  n_omega_limit and omega_max_limit name the
    rule that set each size (see _for_stage), "given" where the caller
    chose it.
    """

    omega_max: float
    n_omega: int = 4096
    n_z: int = 129
    n_omega_limit: str = "given"
    omega_max_limit: str = "given"

    def __post_init__(self):
        if self.omega_max <= 0:
            raise GridError("omega_max must be positive")
        n = self.n_omega
        if n < 16 or (n & (n - 1)) != 0:
            raise GridError(f"n_omega must be a power of two >= 16, got {n}")
        if self.n_z < 17 or self.n_z % 2 == 0:
            raise GridError(f"n_z must be odd and at least 17, got {self.n_z}")

    @property
    def omega(self) -> np.ndarray:
        d = 2.0 * self.omega_max / self.n_omega
        return (np.arange(self.n_omega) - self.n_omega // 2) * d

    @property
    def d_omega(self) -> float:
        return 2.0 * self.omega_max / self.n_omega

    def z_samples(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_z)

    @classmethod
    def for_write(cls, scheme: ConversionScheme, Omega_w: complex,
                  T_p: float, n_omega: int | None = None,
                  omega_max: float | None = None) -> "SpectralGrid":
        """Size the write-stage grid: storage and the slow-light
        transmission.

        Unless n_omega is forced, the spacing keeps 16 points across the
        input bandwidth's FWHM and holds the slow-light window
        (ControlTimeline.window) inside the inner 90% of the probe's
        centred time axis, which _check_aliasing accepts; the span and the
        bin limits are those of _for_stage.
        """
        bandwidth = pulse_bandwidth(T_p)
        return cls._for_stage(
            "storage", scheme.channel("write"), Omega_w, bandwidth, 0.0,
            [(32.0 * math.pi / bandwidth, "bandwidth",
              "to resolve the input bandwidth"),
             (2.0 / 0.9 * ControlTimeline(Omega_w).window(scheme, T_p)[1],
              "slow_light", "to hold the slow-light window")],
            n_omega, omega_max)

    @classmethod
    def for_read(cls, scheme: ConversionScheme, Omega_w: complex,
                 T_p: float, Omega_r: complex, window: tuple[float, float],
                 n_omega: int | None = None,
                 omega_max: float | None = None) -> "SpectralGrid":
        """Size the read-out grid, whose spectrum follows the read channel.

        Storage keeps only the bins that carry input, so a run stores on
        the write grid and reads out on this one.  window is the converted
        field's time window (ControlTimeline.read_window).  Unless n_omega
        is forced, the waveform's time window 2 pi / d_omega spans
        WINDOW_MARGIN times it, so the converted pulse leaves with the
        read channel's delay and stretch inside it, fast read or slow.

        The stage's bandwidth is the input bandwidth, shrunk by
        |Omega_r/Omega_w|^2 when the read control is the weaker, and the
        span reaches 3 |a_max Omega_r| too: the converted spectrum keeps a
        tail out to a few read Rabi frequencies from the coherence stored
        near the exit face.  Against a 16x wider span this grid loses at
        most 9.3e-5 of the converted energy at depths 100 and 500 and
        ratios 0.05-0.5, and 3.4e-5 on the benchmark's convert cases.

        A forced n_omega whose time grid cannot hold the window between its
        1/16 pad and refused last 5% (see converted_field_exact) raises
        AliasingError: a wrapped field can pass _check_aliasing.
        """
        bandwidth = (pulse_bandwidth(T_p)
                     * min(1.0, abs(Omega_r / Omega_w)) ** 2)
        length = window[1] - window[0]
        grid = cls._for_stage(
            "read-out", scheme.channel("read"), Omega_r, bandwidth, 3.0,
            [(WINDOW_MARGIN * length, "window",
              f"to span {WINDOW_MARGIN:g} times the converted field's "
              f"window")],
            n_omega, omega_max)
        # two samples more: the pad's rounding and the refused edge sample
        need = 1 << math.ceil(math.log2(
            (length * grid.omega_max / math.pi + 2.0) / (0.95 - 1.0 / 16)))
        if grid.n_omega < need:
            raise AliasingError(
                f"spectral read-out: the time grid of n_omega = "
                f"{grid.n_omega} bins is too short for the converted "
                f"field's window; force grid.n_omega >= {need}")
        return grid

    @classmethod
    def _for_stage(cls, stage, ch, Omega, bandwidth, tail, windows,
                   n_omega, omega_max) -> "SpectralGrid":
        """Grid of one stage driven by the control Omega on channel ch.

        Unless omega_max is given, it is 8 times the largest of the
        stage's bandwidth, its power-broadened control linewidth
        |a_max Omega|^2 / Gamma and tail |a_max Omega|.  Unless n_omega is
        forced, it is the smallest power of two, at least MIN_N_OMEGA,
        whose time window 2 pi / d_omega reaches every t_window of windows,
        a list of (t_window, rule, reason); the first rule that needs that
        size names it.  A size above MAX_N_OMEGA raises GridBudgetError
        naming the stage and the reason before anything is allocated.  A
        forced n_omega is taken as given.
        """
        a_Omega = ch.a_ctrl_max * abs(Omega)
        span_limit = n_limit = "given"
        if omega_max is None:
            spans = {"bandwidth": bandwidth,
                     "linewidth": a_Omega ** 2 / ch.Gamma,
                     "read_rabi": tail * a_Omega}
            span_limit = max(spans, key=spans.get)
            omega_max = 8.0 * spans[span_limit]
        if n_omega is None:
            n_omega, n_limit, reason = max(
                ((1 << math.ceil(math.log2(omega_max * t_window / math.pi)),
                  rule, reason) for t_window, rule, reason in windows),
                key=lambda size: size[0])
            if n_omega < MIN_N_OMEGA:
                n_omega, n_limit = MIN_N_OMEGA, "floor"
            if n_omega > MAX_N_OMEGA:
                raise GridBudgetError(
                    f"spectral {stage} grid needs n_omega = {n_omega} bins "
                    f"{reason}, above the budget of {MAX_N_OMEGA}; set "
                    f"grid.n_omega to force a size")
        return cls(omega_max=omega_max, n_omega=n_omega,
                   n_omega_limit=n_limit, omega_max_limit=span_limit)

    def refined(self) -> "SpectralGrid":
        """Grid with half the frequency spacing and half the z spacing.

        A doubled n_omega above MAX_N_OMEGA raises GridBudgetError.
        """
        n_omega = 2 * self.n_omega
        if n_omega > MAX_N_OMEGA:
            raise GridBudgetError(
                f"grid check needs n_omega = {n_omega} bins, above the "
                f"budget of {MAX_N_OMEGA}; run without the grid check or "
                f"set a smaller grid.n_omega")
        return SpectralGrid(omega_max=self.omega_max, n_omega=n_omega,
                            n_z=2 * self.n_z - 1)


def time_from_spectrum(omega: np.ndarray, spec: np.ndarray,
                       t0: float | None = None):
    """Sampled E~(omega) on a uniform ascending grid -> (t, E(t)).

    The conjugate time grid has n points spaced 2 pi / (n d_omega) starting
    at t0 (default: centered on zero).
    """
    omega = np.asarray(omega, dtype=float)
    n = omega.size
    dw = omega[1] - omega[0]
    dt = 2.0 * math.pi / (n * dw)
    if t0 is None:
        t0 = -0.5 * n * dt
    t = t0 + np.arange(n) * dt
    shifted = np.asarray(spec) * np.exp(-1j * omega * t0)
    wave = np.fft.fft(shifted) * (dw / _SQRT_2PI)
    wave *= np.exp(-1j * omega[0] * (t - t0))
    return t, wave


def gaussian_probe_spectrum(grid: SpectralGrid, T_p: float,
                            E0: complex = 1.0) -> np.ndarray:
    """Spectrum of E0 exp(-2 ln2 (t/T_p)^2) on the grid (peak at t = 0)."""
    w = grid.omega
    return (E0 * T_p / (2.0 * math.sqrt(LN2))
            * np.exp(-(w * T_p) ** 2 / (8.0 * LN2)))


# ---------------------------------------------------------------------------
# transfer functions
# ---------------------------------------------------------------------------

def channel_transfer(scheme: ConversionScheme, channel: str, Omega: complex,
                     omega: np.ndarray):
    """Transfer functions of the "write" or "read" channel on omega.

    Returns (A, f): the per-subsystem adiabatic amplitudes, shape
    (n_subsystems, n_omega), and the propagation exponent, shape (n_omega,).
    """
    ch = scheme.channel(channel)
    absW2 = abs(Omega) ** 2
    if absW2 == 0:
        raise ValueError("control Rabi frequency must be nonzero")

    s = (ch.a_ctrl * abs(Omega)) ** 2                   # per-j |a Omega|^2
    safe = np.where(s > 0, s, 1.0)
    x = (2j * ch.Gamma * omega[None, :] + 4.0 * omega[None, :] ** 2) / safe[:, None]
    A = -1.0 / (1.0 - x)
    A[s == 0] = -1.0
    weighted = (scheme.p * ch.R * ch.R)[:, None] * A
    f = 1j * omega * (ch.alpha * ch.Gamma / absW2) * weighted.sum(axis=0)
    return A, f


# ---------------------------------------------------------------------------
# propagation operations
# ---------------------------------------------------------------------------

def _as_spectrum(probe_spectrum, grid):
    spec = np.asarray(probe_spectrum)
    if spec.shape != (grid.n_omega,):
        raise GridError(f"probe spectrum shape {spec.shape} does not match "
                        f"grid ({grid.n_omega},)")
    return spec


def _check_aliasing(x, values, what, domain="frequency"):
    """Reject samples with meaningful energy in the outer 10% of their
    grid, measured from its centre: a spectrum cut off by the frequency
    span, or a waveform wrapped around the time window 2 pi / d_omega of
    its spectrum, at either end of a window centred anywhere."""
    power = np.abs(values) ** 2
    total = power.sum()
    if total == 0:
        return
    offset = np.abs(x - 0.5 * (x[0] + x[-1]))
    outer = offset >= 0.9 * offset.max()
    frac = power[outer].sum() / total
    if frac > 1e-3:
        remedy = ("enlarge omega_max" if domain == "frequency"
                  else "force a larger grid.n_omega")
        raise AliasingError(
            f"{what}: {frac:.2e} of its energy in the outer 10% of the "
            f"{domain} grid; {remedy}")


@dataclass(frozen=True)
class CoherenceField:
    """Ground-state coherence sigma_j(z) of every subsystem at time t.

    sigma has shape (n_subsystems, n_z); row order follows the scheme's
    subsystem index array.
    """

    z: np.ndarray
    sigma: np.ndarray
    t: float

    def __post_init__(self):
        if self.sigma.ndim != 2 or self.sigma.shape[1] != self.z.size:
            raise ValueError("sigma must have shape (n_subsystems, n_z)")


def stored_coherence_exact(scheme: ConversionScheme, Omega_w: complex,
                           probe_spectrum, t_w: float,
                           grid: SpectralGrid) -> CoherenceField:
    """Ground-state coherence left in the medium at the write cutoff.

    sigma_j(z) = (p_j R_j^p / Omega_w) * IFT[A_j(omega) e^{-f(omega) z}
    E~_p(0, omega)] evaluated at t = t_w.  The cutoff is treated as
    instantaneous; finite ramps belong to the time-domain solver.
    """
    spec = _as_spectrum(probe_spectrum, grid)
    _check_aliasing(grid.omega, spec, "input probe")
    A_w, f_w = channel_transfer(scheme, "write", Omega_w, grid.omega)
    z = grid.z_samples()
    # Only bins carrying probe amplitude contribute to the integral, and
    # the input spectrum is narrow next to the full grid span, so skip the
    # silent bins instead of building the full (n_omega, n_z) table.
    act = np.abs(spec) > 1e-16 * np.abs(spec).max()
    propagator = np.exp(-f_w[act][:, None] * z[None, :])
    kern = (A_w[:, act] * spec[None, act]
            * np.exp(-1j * grid.omega[act] * t_w)[None, :]) * (grid.d_omega / _SQRT_2PI)
    sigma = (scheme.p * scheme.R_p / Omega_w)[:, None] * (kern @ propagator)
    return CoherenceField(z=z, sigma=sigma, t=t_w)


@dataclass(frozen=True)
class ConvertedFieldResult:
    """Converted field at the exit face, in both domains.

    t is measured from the read turn-on; energies are reported in scaled
    units and in input-field units (scheme.energy_unit_ratio times the first).
    """

    omega: np.ndarray
    spectrum: np.ndarray
    t: np.ndarray
    waveform: np.ndarray
    energy_scaled: float
    energy: float
    quadrature_delta: float
    converged: bool


def converted_field_exact(scheme: ConversionScheme, stored: CoherenceField,
                          Omega_r: complex, grid: SpectralGrid,
                          quadrature_check: bool = True,
                          t_start: float = 0.0) -> ConvertedFieldResult:
    """Retrieve the stored coherence through the read channel.

    E~_c(L, omega) = (alpha_c Gamma_r / L Omega_r^*) sum_j R_j^c A_j^r(omega)
                     * integral_0^L sigma_j(z') e^{-f_r(omega)(L - z')} dz'
    by the z rule over stored.z, which must be SpectralGrid.z_samples()
    (else GridError), then an inverse transform to the time domain.  The
    time axis, measured from the read turn-on, covers the window
    2 pi / d_omega from a pad of 1/16 of it before t_start (the start of
    ControlTimeline.read_window; default the turn-on itself), rounded out
    to keep t = 0 on a sample.  The pad keeps the turn-on clear of the
    refused first 5% of the window on any grid, the grid check's doubled
    one too.  A spectrum or a waveform with energy in the
    outer 10% of its grid, either end, raises AliasingError: the waveform
    would wrap around its time window, whose length only a larger n_omega
    extends.  The quadrature flag sets quadrature_delta to 1/15 of the
    relative energy change on every other z sample (fourth-order rule).
    """
    z = stored.z
    if np.abs(z - replace(grid, n_z=z.size).z_samples()).max() > 1e-12:
        raise GridError("stored.z must be the uniform odd sampling of [0, 1] "
                        "of SpectralGrid.z_samples()")
    A_r, f_r = channel_transfer(scheme, "read", Omega_r, grid.omega)
    # 1/sqrt(2 pi): the stored coherence enters the one-sided transform
    # as an initial-condition source, which carries this factor in the
    # unitary convention
    read = scheme.channel("read")
    pref = read.alpha * read.Gamma / (_SQRT_2PI * np.conj(Omega_r))
    # omega block whose (M, block) accumulator stays near 1 MB, in cache
    block = max(1, (1 << 16) // scheme.R_c.size)

    def _spectrum_on(sigma):
        # Horner's rule over z: acc <- acc q + w_k sigma_k with
        # q = exp(-f_r dz) leaves sum_k w_k sigma_k exp(-f_r (1 - z_k)) in
        # acc, one complex multiply-add per (subsystem, bin, sample) and no
        # (n_omega, n_z) exp table.  |q| <= 1 in an absorbing channel.
        columns = (sigma * _medium_weights(sigma.shape[1])).T[:, :, None]
        out = np.empty(grid.n_omega, dtype=complex)
        for lo in range(0, grid.n_omega, block):
            sl = slice(lo, min(lo + block, grid.n_omega))
            q = np.exp(-f_r[sl] / (len(columns) - 1))
            acc = np.repeat(columns[0], q.size, axis=1)
            for column in columns[1:]:
                acc *= q
                acc += column
            out[sl] = pref * (scheme.R_c[:, None] * A_r[:, sl]
                              * acc).sum(axis=0)
        return out

    spec = _spectrum_on(stored.sigma)
    _check_aliasing(grid.omega, spec, "converted field")

    energy_scaled = float((np.abs(spec) ** 2).sum() * grid.d_omega)
    delta = 0.0
    converged = True
    if quadrature_check:
        coarse = _spectrum_on(stored.sigma[:, ::2])
        e_coarse = float((np.abs(coarse) ** 2).sum() * grid.d_omega)
        if energy_scaled > 0:
            delta = abs(energy_scaled - e_coarse) / (15.0 * energy_scaled)
            converged = delta < 5e-3

    dt = math.pi / grid.omega_max
    t0 = (math.floor(t_start / dt) - grid.n_omega // 16) * dt
    t, wave = time_from_spectrum(grid.omega, spec, t0=t0)
    _check_aliasing(t, wave, "converted field", domain="time")
    return ConvertedFieldResult(
        omega=grid.omega, spectrum=spec, t=t, waveform=wave,
        energy_scaled=energy_scaled,
        energy=scheme.energy_unit_ratio * energy_scaled,
        quadrature_delta=delta, converged=converged)


@dataclass(frozen=True)
class TransmittedFieldResult:
    """Probe field after plain slow-light transit (no storage)."""

    omega: np.ndarray
    spectrum: np.ndarray
    t: np.ndarray
    waveform: np.ndarray
    energy_in: float
    energy_out: float


def transmitted_probe(scheme: ConversionScheme, Omega_w: complex,
                      probe_spectrum, grid: SpectralGrid
                      ) -> TransmittedFieldResult:
    """Propagate the probe through the whole medium with the control held on.

    An input spectrum, or a delayed waveform, with energy in the outer 10%
    of its grid raises AliasingError, as in converted_field_exact.
    """
    spec_in = _as_spectrum(probe_spectrum, grid)
    _check_aliasing(grid.omega, spec_in, "input probe")
    _, f_w = channel_transfer(scheme, "write", Omega_w, grid.omega)
    spec_out = spec_in * np.exp(-f_w)
    t, wave = time_from_spectrum(grid.omega, spec_out)
    _check_aliasing(t, wave, "transmitted probe", domain="time")
    return TransmittedFieldResult(
        omega=grid.omega, spectrum=spec_out, t=t, waveform=wave,
        energy_in=float((np.abs(spec_in) ** 2).sum() * grid.d_omega),
        energy_out=float((np.abs(spec_out) ** 2).sum() * grid.d_omega))
