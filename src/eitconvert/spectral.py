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
read-channel kernel.  Truncation switches reproduce the Gaussian closed
forms of the theory module: clamping A to its resonant value -1 and Taylor
expanding f to second order turns the exact propagator into the analytic
one, which pins down the error budget of each approximation separately.

Unitary Fourier convention: g~(omega) = (2 pi)^{-1/2} integral g(t)
exp(+i omega t) dt, so Parseval holds without extra factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atoms import ConversionScheme
from .errors import AliasingError, GridBudgetError, GridError
from .fields import CoherenceField
from .theory import LN2, pulse_bandwidth

__all__ = [
    "SpectralGrid",
    "ConvertedFieldResult",
    "TransmittedFieldResult",
    "spectrum_from_time",
    "time_from_spectrum",
    "gaussian_probe_spectrum",
    "channel_transfer",
    "stored_coherence_exact",
    "converted_field_exact",
    "transmitted_probe",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# largest n_omega SpectralGrid.for_protocol sizes on its own, per stage:
# on the fig2 scheme (depth 500, T_p 0.2 us) 2**22 bins admit a read/write
# control ratio of 0.01 (2**20) and refuse 0.001 (2**23), whose complex
# spectra alone would take 128 MB each
MAX_N_OMEGA = 1 << 22


# ---------------------------------------------------------------------------
# grids and Fourier helpers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralGrid:
    """Uniform centered frequency grid plus a spatial sample count.

    omega spans [-omega_max, omega_max) with n_omega points (power of two,
    so omega = 0 is an exact sample); n_z samples cover [0, 1] inclusive.
    """

    omega_max: float
    n_omega: int = 4096
    n_z: int = 512

    def __post_init__(self):
        if self.omega_max <= 0:
            raise GridError("omega_max must be positive")
        n = self.n_omega
        if n < 16 or (n & (n - 1)) != 0:
            raise GridError(f"n_omega must be a power of two >= 16, got {n}")
        if self.n_z < 16:
            raise GridError(f"n_z must be at least 16, got {self.n_z}")

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
    def for_protocol(cls, scheme: ConversionScheme, Omega_w: complex,
                     T_p: float, Omega_r: complex | None = None,
                     n_omega: int | None = None,
                     omega_max: float | None = None) -> "SpectralGrid":
        """Size the grid of one stage of a conversion run.

        Without Omega_r the grid serves the write stage: storage and the
        slow-light transmission.  With Omega_r it serves the read-out
        alone, whose spectrum follows the read channel.  Storage keeps
        only the bins that carry input, so a run stores on the write grid
        and reads out on the read grid.

        Unless n_omega is forced, the spacing keeps 16 points across the
        narrowest feature's FWHM: the input bandwidth, shrunk on the read
        grid by |Omega_r/Omega_w|^2 when the read control is the weaker.
        Unless omega_max is given, it is 8 times the largest of that
        feature, the stage's power-broadened control linewidth
        |a_max Omega|^2 / Gamma and, on the read grid, 3 |a_max Omega_r|:
        the converted spectrum keeps a tail out to a few read Rabi
        frequencies from the coherence stored near the exit face.  Against
        a 16x wider span this read grid loses at most 9.3e-5 of the
        converted energy at depths 100 and 500 and ratios 0.05-0.5, and
        3.4e-5 on the benchmark's convert cases.
        An automatic size above MAX_N_OMEGA raises GridBudgetError naming
        the stage before anything is allocated; a forced n_omega is taken
        as given.
        """
        domega0 = pulse_bandwidth(T_p)
        if Omega_r is None:
            stage, ch, Omega = "storage", scheme.channel("write"), Omega_w
            finest, tail = domega0, 0.0
        else:
            stage, ch, Omega = "read-out", scheme.channel("read"), Omega_r
            finest = domega0 * min(1.0, abs(Omega_r / Omega_w)) ** 2
            tail = 3.0
        a_Omega = ch.a_ctrl_max * abs(Omega)
        if omega_max is None:
            omega_max = 8.0 * max(finest, a_Omega ** 2 / ch.Gamma,
                                  tail * a_Omega)
        if n_omega is None:
            need = 2.0 * omega_max * 16 / finest
            n_omega = max(4096, 1 << math.ceil(math.log2(need)))
            if n_omega > MAX_N_OMEGA:
                raise GridBudgetError(
                    f"spectral {stage} grid needs n_omega = {n_omega} bins "
                    f"to resolve the narrowest feature, above the budget of "
                    f"{MAX_N_OMEGA}; set grid.n_omega to force a size")
        return cls(omega_max=omega_max, n_omega=n_omega)

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


def spectrum_from_time(t: np.ndarray, field: np.ndarray):
    """Sampled E(t) on a uniform grid -> (omega, E~(omega)), unitary convention."""
    t = np.asarray(t, dtype=float)
    n = t.size
    dt = t[1] - t[0]
    omega = 2.0 * math.pi * np.fft.fftshift(np.fft.fftfreq(n, d=dt))
    spec = np.fft.fftshift(np.fft.ifft(field)) * (n * dt / _SQRT_2PI)
    return omega, spec * np.exp(1j * omega * t[0])


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
                     omega: np.ndarray, truncate_A: bool = False,
                     truncate_f: bool = False):
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
    A_full = -1.0 / (1.0 - x)
    A_full[s == 0] = -1.0
    A = np.full_like(A_full, -1.0) if truncate_A else A_full

    if truncate_f:
        # second-order Taylor: linear group delay + Gaussian window curvature
        f = (-1j * omega * (ch.alpha * ch.Gamma * ch.S2 / absW2)
             + 2.0 * ch.alpha * ch.Gamma**2 * ch.S4 / absW2**2 * omega**2)
    else:
        weighted = (scheme.p * ch.R * ch.R)[:, None] * A_full
        f = (1j * omega * (ch.alpha * ch.Gamma / absW2)
             * weighted.sum(axis=0))
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
    grid: a spectrum cut off by the frequency span, or a waveform wrapped
    around the time window 2 pi / d_omega of its spectrum."""
    power = np.abs(values) ** 2
    total = power.sum()
    if total == 0:
        return
    outer = np.abs(x) >= 0.9 * np.abs(x).max()
    frac = power[outer].sum() / total
    if frac > 1e-3:
        remedy = ("enlarge omega_max" if domain == "frequency"
                  else "force a larger grid.n_omega")
        raise AliasingError(
            f"{what}: {frac:.2e} of its energy in the outer 10% of the "
            f"{domain} grid; {remedy}")


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    w = np.empty_like(x)
    w[0] = 0.5 * (x[1] - x[0])
    w[-1] = 0.5 * (x[-1] - x[-2])
    w[1:-1] = 0.5 * (x[2:] - x[:-2])
    return w


def stored_coherence_exact(scheme: ConversionScheme, Omega_w: complex,
                           probe_spectrum, t_w: float, grid: SpectralGrid,
                           truncate_A: bool = False,
                           truncate_f: bool = False) -> CoherenceField:
    """Ground-state coherence left in the medium at the write cutoff.

    sigma_j(z) = (p_j R_j^p / Omega_w) * IFT[A_j(omega) e^{-f(omega) z}
    E~_p(0, omega)] evaluated at t = t_w.  The cutoff is treated as
    instantaneous; finite ramps belong to the time-domain solver.
    """
    spec = _as_spectrum(probe_spectrum, grid)
    _check_aliasing(grid.omega, spec, "input probe")
    A_w, f_w = channel_transfer(scheme, "write", Omega_w, grid.omega,
                                truncate_A, truncate_f)
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
                          truncate_A: bool = False, truncate_f: bool = False,
                          quadrature_check: bool = True) -> ConvertedFieldResult:
    """Retrieve the stored coherence through the read channel.

    E~_c(L, omega) = (alpha_c Gamma_r / L Omega_r^*) sum_j R_j^c A_j^r(omega)
                     * integral_0^L sigma_j(z') e^{-f_r(omega)(L - z')} dz'
    by composite trapezoid over the stored samples, then an inverse
    transform to the time domain.  A spectrum or a waveform with energy in
    the outer 10% of its grid raises AliasingError: the waveform would
    wrap around its time window, whose length 2 pi / d_omega only a larger
    n_omega extends.  The quadrature flag compares the full z sampling
    against a half-density subsample (Richardson style).
    """
    A_r, f_r = channel_transfer(scheme, "read", Omega_r, grid.omega,
                                truncate_A, truncate_f)
    # 1/sqrt(2 pi): the stored coherence enters the one-sided transform
    # as an initial-condition source, which carries this factor in the
    # unitary convention
    read = scheme.channel("read")
    pref = read.alpha * read.Gamma / (_SQRT_2PI * np.conj(Omega_r))
    # omega block whose (M, block) accumulator stays near 1 MB, in cache
    block = max(1, (1 << 16) // scheme.R_c.size)

    def _spectrum_on(z, sigma):
        # Horner's rule over z: acc <- acc q_k + w_k sigma_k with
        # q_k = exp(-f_r (z_k - z_{k-1})) leaves
        # sum_k w_k sigma_k exp(-f_r (z_last - z_k)) in acc, one complex
        # multiply-add per (subsystem, bin, sample) and no (n_omega, n_z)
        # exp table.  |q_k| <= 1 in an absorbing channel.
        columns = (sigma * _trapezoid_weights(z)[None, :]).T[:, :, None]
        steps = np.diff(z)
        # linspace steps differ in their last bits: steps equal to within
        # 16 ulps of the z extent share one exp, taken at their mean
        keys = np.round(steps / (16 * np.finfo(float).eps * np.abs(z).max()))
        _, which = np.unique(keys, return_inverse=True)
        spacing = np.append(np.bincount(which, weights=steps)
                            / np.bincount(which), 1.0 - z[-1])
        out = np.empty(grid.n_omega, dtype=complex)
        for lo in range(0, grid.n_omega, block):
            sl = slice(lo, min(lo + block, grid.n_omega))
            # last row carries the remaining path from z_last to 1
            q = np.exp(-f_r[sl][None, :] * spacing[:, None])
            acc = np.repeat(columns[0], q.shape[1], axis=1)
            for k in range(1, z.size):
                acc *= q[which[k - 1]]
                acc += columns[k]
            acc *= q[-1]
            out[sl] = pref * (scheme.R_c[:, None] * A_r[:, sl]
                              * acc).sum(axis=0)
        return out

    spec = _spectrum_on(stored.z, stored.sigma)
    _check_aliasing(grid.omega, spec, "converted field")

    energy_scaled = float((np.abs(spec) ** 2).sum() * grid.d_omega)
    delta = 0.0
    converged = True
    if quadrature_check and stored.z.size >= 8:
        idx = np.arange(0, stored.z.size, 2)
        if idx[-1] != stored.z.size - 1:
            idx = np.append(idx, stored.z.size - 1)
        coarse = _spectrum_on(stored.z[idx], stored.sigma[:, idx])
        e_coarse = float((np.abs(coarse) ** 2).sum() * grid.d_omega)
        if energy_scaled > 0:
            # trapezoid is O(h^2): remaining error is about a third of the step
            delta = abs(energy_scaled - e_coarse) / (3.0 * energy_scaled)
            converged = delta < 5e-3

    t, wave = time_from_spectrum(grid.omega, spec)
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
                      probe_spectrum, grid: SpectralGrid,
                      truncate_f: bool = False) -> TransmittedFieldResult:
    """Propagate the probe through the whole medium with the control held on."""
    spec_in = _as_spectrum(probe_spectrum, grid)
    _check_aliasing(grid.omega, spec_in, "input probe")
    _, f_w = channel_transfer(scheme, "write", Omega_w, grid.omega,
                              truncate_f=truncate_f)
    spec_out = spec_in * np.exp(-f_w)
    t, wave = time_from_spectrum(grid.omega, spec_out)
    return TransmittedFieldResult(
        omega=grid.omega, spectrum=spec_out, t=t, waveform=wave,
        energy_in=float((np.abs(spec_in) ** 2).sum() * grid.d_omega),
        energy_out=float((np.abs(spec_out) ** 2).sum() * grid.d_omega))
