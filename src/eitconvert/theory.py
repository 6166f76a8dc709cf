"""Closed-form theory of the write/store/read conversion protocol.

All fields are Rabi-scaled (a field E appears only as g*E), so coupling
constants and atom number enter exclusively through the optical depths:
g^2 N = alpha * Gamma * c / (2 L).  Angular frequencies are measured in units
of Gamma_w, times in 1/Gamma_w, lengths in units of the medium length L.
L is the unit, not a field of the scheme, so the medium spans 0 <= z <= 1
and L = 1 wherever it appears in the formulas below.

The probe pulse is Gaussian, E(0,t) = E0 exp(-2 ln2 (t/T_p)^2) with intensity
FWHM T_p and spectral intensity FWHM Delta_omega_0 = 4 ln2 / T_p.  The write
control is cut at t_w = kappa * T_p after the pulse peak enters the medium;
eta = T_d / T_p is the delay-time ratio of the write channel.

Two broadening conventions appear in the literature-style simple forms:
beta_r_simple drops a 1/beta_w^2 factor inside the read-broadening term
(valid at large optical depth).  read_channel keeps it; everything built on
ReadChannelParams (spectra, bandwidths, total efficiencies) is therefore
internally consistent with Parseval energy ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .atoms import ConversionScheme, coherence_mismatch, single_lambda_scheme

__all__ = [
    "LN2",
    "WriteChannelParams",
    "ReadChannelParams",
    "StoredCoherenceProfile",
    "ConvertedSpectrum",
    "EfficiencyReport",
    "pulse_bandwidth",
    "pulse_energy",
    "control_for_eta",
    "write_channel",
    "read_channel",
    "beta_w_simple",
    "beta_r_simple",
    "xi1_simple",
    "stored_coherence_profile",
    "converted_spectrum",
    "converted_bandwidth",
    "total_efficiency",
    "relative_efficiency_single",
    "relative_efficiency_multi",
]

LN2 = math.log(2.0)
_16LN2 = 16.0 * LN2


def pulse_bandwidth(T_p: float) -> float:
    """Spectral intensity FWHM of the Gaussian probe, Delta_omega_0 = 4 ln2 / T_p."""
    return 4.0 * LN2 / T_p


def pulse_energy(T_p: float, E0: complex = 1.0) -> float:
    """Integral of |E0 exp(-2 ln2 (t/T_p)^2)|^2 over all time."""
    return abs(E0) ** 2 * T_p * math.sqrt(math.pi / (4.0 * LN2))


@dataclass(frozen=True)
class WriteChannelParams:
    """Write-channel slow-light and storage quantities."""

    Omega_w: complex
    T_p: float
    kappa: float
    t_w: float                 # control cutoff time after pulse-peak entry
    v_w: float                 # group velocity
    T_d: float                 # group delay through the medium
    eta: float                 # T_d / T_p
    L_w: float                 # compressed pulse length v_w * T_p
    z_mid: float               # stored-pulse center v_w * t_w
    delta_omega_w: float       # EIT transparency bandwidth (intensity FWHM)
    flags: tuple = ()

    def beta_w(self, z: float) -> float:
        """Broadening factor sqrt(1 + (4 ln2/(T_p delta_omega_w))^2 z/L)."""
        if math.isinf(self.delta_omega_w):
            return 1.0
        x = 4.0 * LN2 / (self.T_p * self.delta_omega_w)
        return math.sqrt(1.0 + x * x * z)

    @property
    def beta_w_mid(self) -> float:
        """Broadening factor at the stored-pulse center z_mid."""
        return self.beta_w(self.z_mid)


@dataclass(frozen=True)
class ReadChannelParams:
    """Read-channel group velocity, bandwidth and exit broadening."""

    Omega_r: complex
    v_r: float
    T_d_read: float
    delta_omega_r: float
    beta_r_L: float            # broadening factor of the converted spectrum at z = L
    flags: tuple = ()


def control_for_eta(scheme: ConversionScheme, eta: float, T_p: float,
                    channel: str = "write") -> float:
    """Rabi frequency giving a group delay of eta * T_p in the chosen channel."""
    if eta <= 0 or T_p <= 0:
        raise ValueError("eta and T_p must be positive")
    ch = scheme.channel(channel)
    if ch.S2 <= 0:
        raise ValueError("channel has no populated subsystems")
    return math.sqrt(ch.alpha * ch.Gamma * ch.S2 / (eta * T_p))


def _slow_light(scheme: ConversionScheme, channel: str, Omega: complex):
    """Slow-light core shared by write_channel and read_channel.

    Returns (T_d, v, delta_omega, adiab) of the channel at control Rabi
    frequency Omega: the group delay T_d = alpha Gamma S2 / |Omega|^2, the
    group velocity 1 / T_d, the transparency bandwidth from
    1/delta_omega^2 = alpha Gamma^2 S4 / (ln2 |Omega|^4), and the adiabatic
    rate scale min(Gamma, |a_ctrl,min Omega|^2 / Gamma).
    """
    ch = scheme.channel(channel)
    absW2 = abs(Omega) ** 2
    if absW2 == 0:
        raise ValueError("control Rabi frequency must be nonzero")
    T_d = ch.alpha * ch.Gamma * ch.S2 / absW2
    v = 1.0 / T_d if T_d > 0 else math.inf
    bw_inv_sq = ch.alpha * ch.Gamma**2 * ch.S4 / (LN2 * absW2 * absW2)
    delta_omega = 1.0 / math.sqrt(bw_inv_sq) if bw_inv_sq > 0 else math.inf
    adiab = min(ch.Gamma, (ch.a_ctrl_min * abs(Omega)) ** 2 / ch.Gamma)
    return T_d, v, delta_omega, adiab


def write_channel(scheme: ConversionScheme, Omega_w: complex, T_p: float,
                  kappa: float) -> WriteChannelParams:
    """Slow-light parameters of the write channel for a Gaussian probe.

    Implements the population-weighted group velocity and transparency
    bandwidth
        1/v_w  = (alpha_p Gamma_w / L |Omega_w|^2) sum_j p_j (R_j^p)^2
        1/dw^2 = (alpha_p Gamma_w^2 / ln2 |Omega_w|^4) sum_j p_j (R_j^p)^4 / a_p,j^2
    and evaluates the pulse-broadening factor at the stored-pulse center
    z_mid = v_w t_w.  flags, the only report of validity, names each rule
    of the Gaussian model that the probe breaks: a finite pulse bandwidth
    (T_p delta_omega_w > 1), adiabatic writing, a clean control cut
    (kappa >= 1.1) and a well-compressed pulse (eta >= 2.5).
    """
    if T_p <= 0:
        raise ValueError("T_p must be positive")
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    T_d, v_w, delta_omega_w, adiab = _slow_light(scheme, "write", Omega_w)
    t_w = kappa * T_p
    L_w = v_w * T_p
    z_mid = v_w * t_w
    eta = T_d / T_p

    flags = []
    if T_p * delta_omega_w <= 1.0:
        flags.append("pulse-bandwidth: T_p * delta_omega_w <= 1")
    if pulse_bandwidth(T_p) >= adiab:
        flags.append("adiabaticity: pulse bandwidth not small against the "
                     "EIT linewidth scale")
    if kappa < 1.1:
        flags.append("kappa < 1.1: control cut clips the trailing pulse edge")
    if eta < 2.5:
        flags.append("eta < 2.5: pulse not well compressed into the medium")

    return WriteChannelParams(
        Omega_w=Omega_w, T_p=T_p, kappa=kappa, t_w=t_w, v_w=v_w, T_d=T_d,
        eta=eta, L_w=L_w, z_mid=z_mid, delta_omega_w=delta_omega_w,
        flags=tuple(flags),
    )


def read_channel(scheme: ConversionScheme, Omega_r: complex,
                 write: WriteChannelParams) -> ReadChannelParams:
    """Read-channel quantities and the converted-spectrum broadening at z = L.

    beta_r(L)^2 = 1 + (4 ln2 / (delta_omega_r beta_w T_p))^2 v_r^2 (L - z_mid)
                      / (v_w^2 L),
    evaluated with the write-channel mid-point broadening beta_w; the product
    (v_r/delta_omega_r)^2 is independent of Omega_r, so beta_r is a property
    of the channel, not of the read power.

    flags carries the write-side adiabaticity rule applied to the read
    channel: the converted bandwidth Delta_omega_c (converted_bandwidth) must
    stay below min(Gamma_r, |a_r,min Omega_r|^2 / Gamma_r).  A flag marks
    where the Gaussian model breaks down, not where it stops meeting a
    given tolerance: the dropped read-channel terms (the
    4 omega^2 / |a_r Omega_r|^2 part of A_r(omega) and the cubic
    dispersion) widen the true converted pulse against the model by about
    11-13% per unit of Delta_omega_c / Gamma_r (single lambda system,
    D = 500, eta = 4, kappa = 1.35).
    """
    T_d_read, v_r, delta_omega_r, adiab = _slow_light(scheme, "read", Omega_r)

    if write.z_mid >= 1.0:
        raise ValueError("write cutoff places the stored pulse beyond the medium "
                         f"(z_mid = {write.z_mid:.3g} >= L = 1)")

    if math.isinf(delta_omega_r):
        beta_r = 1.0
    else:
        x = 4.0 * LN2 / (delta_omega_r * write.beta_w_mid * write.T_p)
        beta_r = math.sqrt(
            1.0 + x * x * v_r**2 * (1.0 - write.z_mid) / write.v_w**2)

    read = ReadChannelParams(
        Omega_r=Omega_r, v_r=v_r, T_d_read=T_d_read,
        delta_omega_r=delta_omega_r, beta_r_L=beta_r,
    )
    flags = []
    if converted_bandwidth(scheme, write, read) >= adiab:
        flags.append("adiabaticity: converted bandwidth not small against the "
                     "read-channel EIT linewidth scale")
    return replace(read, flags=tuple(flags))


# ---------------------------------------------------------------------------
# simple closed forms in terms of (eta, kappa, D)
# ---------------------------------------------------------------------------

def beta_w_simple(eta: float, kappa: float, D_p: float) -> float:
    """Write broadening factor sqrt(1 + 16 ln2 eta kappa / D_p)."""
    if D_p <= 0:
        raise ValueError("D_p must be positive")
    if eta <= 0 or kappa <= 0:
        raise ValueError("eta and kappa must be positive")
    return math.sqrt(1.0 + _16LN2 * eta * kappa / D_p)


def beta_r_simple(eta: float, kappa: float, D_c: float) -> float:
    """Read broadening factor sqrt(1 + 16 ln2 eta (eta - kappa) / D_c).

    Large-depth form: the 1/beta_w^2 correction kept by read_channel is
    dropped here.
    """
    if D_c <= 0:
        raise ValueError("D_c must be positive")
    if eta <= kappa:
        raise ValueError("eta must exceed kappa (stored pulse inside the medium)")
    return math.sqrt(1.0 + _16LN2 * eta * (eta - kappa) / D_c)


def xi1_simple(eta: float, kappa: float, D_p: float, D_c: float) -> float:
    """Finite-bandwidth efficiency 1/(beta_w beta_r) in the simple convention."""
    return 1.0 / (beta_w_simple(eta, kappa, D_p) * beta_r_simple(eta, kappa, D_c))


# ---------------------------------------------------------------------------
# stored coherence and converted field, Gaussian approximations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StoredCoherenceProfile:
    """Gaussian spin-wave descriptor per subsystem after the write cut.

    sigma_j(z) = amplitude_j * exp(-2 ln2 (z - center)^2 / fwhm^2); fwhm is
    the spatial intensity FWHM L_w * beta_w.
    """

    amplitude: np.ndarray      # complex, per subsystem
    center: float
    fwhm: float

    def evaluate(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        envelope = np.exp(-2.0 * LN2 * ((z - self.center) / self.fwhm) ** 2)
        return self.amplitude[:, None] * envelope[None, :]


def stored_coherence_profile(scheme: ConversionScheme,
                             write: WriteChannelParams,
                             E0: complex = 1.0) -> StoredCoherenceProfile:
    """Analytic stored ground-state coherence at the write cutoff.

    amplitude_j = -E0 p_j R_j^p / (Omega_w beta_w), centered at z_mid = v_w t_w
    with spatial FWHM L_w beta_w.  Fields are Rabi-scaled, so g_p does not
    appear explicitly.  L_w = v_w T_p = 1/eta, so a pulse too long to fit
    inside the medium carries the write_channel flag for eta < 2.5.
    """
    amp = -E0 * scheme.p * scheme.R_p / (write.Omega_w * write.beta_w_mid)
    return StoredCoherenceProfile(
        amplitude=amp.astype(complex),
        center=write.z_mid,
        fwhm=write.L_w * write.beta_w_mid,
    )


@dataclass(frozen=True)
class ConvertedSpectrum:
    """Gaussian model of the converted field at the medium exit.

    E_c(L, omega) = C exp(i omega t0 - S omega^2), with t0 the arrival time
    of the converted pulse (measured from the read turn-on) and S the
    quadratic spectral width parameter.
    """

    C: complex
    t0: float
    S: float
    input_energy: float        # integral |E_p(0,t)|^2 dt of the Gaussian probe
    energy_unit_ratio: float   # ConversionScheme.energy_unit_ratio, (g_p/g_c)^2

    def time_waveform(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return (self.C / math.sqrt(2.0 * self.S)
                * np.exp(-((t - self.t0) ** 2) / (4.0 * self.S)))

    @property
    def peak_amplitude(self) -> float:
        return abs(self.C) / math.sqrt(2.0 * self.S)

    @property
    def temporal_fwhm(self) -> float:
        """Intensity FWHM of the converted pulse."""
        return 2.0 * math.sqrt(2.0 * self.S * LN2)

    @property
    def spectral_fwhm(self) -> float:
        return 2.0 * math.sqrt(LN2 / (2.0 * self.S))

    @property
    def energy(self) -> float:
        """Converted energy in input-field units (Parseval over the Gaussian)."""
        scaled = abs(self.C) ** 2 * math.sqrt(2.0 * math.pi) / (2.0 * math.sqrt(self.S))
        return self.energy_unit_ratio * scaled

    @property
    def efficiency(self) -> float:
        return self.energy / self.input_energy


def converted_spectrum(scheme: ConversionScheme, write: WriteChannelParams,
                       read: ReadChannelParams,
                       E0: complex = 1.0) -> ConvertedSpectrum:
    """Converted-field spectrum from the Gaussian spin wave.

    Amplitude prefactor (alpha_c Gamma_r / 2 L) E0 L_w sum_j p_j R_j^c R_j^p
    / (sqrt(ln2) Omega_r* Omega_w); spectral width S = (L_w beta_w)^2
    beta_r^2 / (8 ln2 v_r^2).  Integrating |spectrum|^2 reproduces
    xi_1 * xi_2 times the input pulse energy.
    """
    mix = math.fsum(scheme.p * scheme.R_p * scheme.R_c)
    ch = scheme.channel("read")
    C = (ch.alpha * ch.Gamma / 2.0
         * E0 * write.L_w * mix
         / (math.sqrt(LN2) * np.conj(read.Omega_r) * write.Omega_w))
    S = ((write.L_w * write.beta_w_mid) ** 2 * read.beta_r_L ** 2
         / (8.0 * LN2 * read.v_r ** 2))
    t0 = (1.0 - write.z_mid) / read.v_r
    return ConvertedSpectrum(C=complex(C), t0=t0, S=S,
                             input_energy=pulse_energy(write.T_p, E0),
                             energy_unit_ratio=scheme.energy_unit_ratio)


def converted_bandwidth(scheme: ConversionScheme, write: WriteChannelParams,
                        read: ReadChannelParams) -> float:
    """Spectral intensity FWHM of the converted field.

    Delta_omega_c = |Omega_r/Omega_w|^2 * (g_p^2 sum p R_p^2)/(g_c^2 sum p R_c^2)
                    * Delta_omega_0 / (beta_w beta_r),
    i.e. the read control compresses or stretches the output bandwidth by the
    ratio of control intensities.  Delta_omega_0 is the bandwidth of the
    written pulse, pulse_bandwidth(write.T_p).
    """
    S2w = scheme.channel("write").S2
    S2r = scheme.channel("read").S2
    ratio = (abs(read.Omega_r) / abs(write.Omega_w)) ** 2
    return (ratio * scheme.energy_unit_ratio * (S2w / S2r)
            * pulse_bandwidth(write.T_p) / (write.beta_w_mid * read.beta_r_L))


# ---------------------------------------------------------------------------
# efficiencies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EfficiencyReport:
    """Conversion-efficiency decomposition xi_total = xi_1 * xi_2."""

    xi1: float
    xi2: float
    xi_total: float
    xi_relative: float
    delta_omega_c: float
    eta: float
    kappa: float
    beta_w: float
    beta_r: float


def total_efficiency(scheme: ConversionScheme, write: WriteChannelParams,
                     read: ReadChannelParams) -> EfficiencyReport:
    """Energy conversion efficiency xi_total = xi_1 xi_2 with xi_1 = 1/(beta_w beta_r).

    Uses the read_channel broadening (beta_w-consistent); the large-depth
    simple chain is available via xi1_simple.  See the write_channel and
    read_channel flags for the regime.
    """
    xi2 = coherence_mismatch(scheme)
    xi1 = 1.0 / (write.beta_w_mid * read.beta_r_L)
    xi_rel = relative_efficiency_multi(scheme, write.eta, write.kappa)
    return EfficiencyReport(
        xi1=xi1, xi2=xi2, xi_total=xi1 * xi2, xi_relative=xi_rel,
        delta_omega_c=converted_bandwidth(scheme, write, read),
        eta=write.eta, kappa=write.kappa,
        beta_w=write.beta_w_mid, beta_r=read.beta_r_L,
    )


def relative_efficiency_single(eta: float, kappa: float, D_p: float,
                               D_c: float) -> float:
    """Conversion efficiency relative to same-channel retrieval, single subsystem.

    relative_efficiency_multi of single_lambda_scheme(D_p, D_c):
    xi_R = sqrt((1 + X/D_p) / (1 + X/D_c)) with
    X = 16 ln2 (1 - kappa/eta) eta^2 / beta_w^2; the write-channel cost
    cancels, leaving only the read-out bandwidth mismatch between the two
    channels.  See the write_channel flags for the regime.
    """
    return relative_efficiency_multi(single_lambda_scheme(D_p, D_c), eta, kappa)


def relative_efficiency_multi(scheme: ConversionScheme, eta: float,
                              kappa: float) -> float:
    """Relative conversion efficiency with population-weighted CG sums.

    xi_R = xi_2 * sqrt((1 + X Q_w/P_w^2) / (1 + X Q_r/P_r^2)) with
    P = sum_j p_j R_j^2, Q = sum_j p_j R_j^4/(a_j^2 alpha), and
    X = 16 ln2 eta (eta - kappa) / beta_w^2.  With one populated state it
    is relative_efficiency_single; it reduces to xi_2 alone whenever the
    two channels share the same bandwidth sums (for instance for
    populations symmetric under m -> -m with alpha_p = alpha_c).  See the
    write_channel flags for the regime.
    """
    if eta <= kappa:
        raise ValueError("eta must exceed kappa")
    xi2 = coherence_mismatch(scheme)
    w, r = scheme.channel("write"), scheme.channel("read")
    qw = w.S4 / (w.alpha * w.S2 * w.S2)
    qr = r.S4 / (r.alpha * r.S2 * r.S2)
    bw2 = 1.0 + _16LN2 * eta * kappa * qw
    X = _16LN2 * eta * (eta - kappa) / bw2
    return xi2 * math.sqrt((1.0 + X * qw) / (1.0 + X * qr))
