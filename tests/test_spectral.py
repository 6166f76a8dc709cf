"""Tests for the frequency-domain propagator.

Frozen anchors (measured at T_p = 5.7303, the 0.2 us pulse in decay units,
with eta = 4, kappa = 1.35, D = 500 unless noted):

- exact transparency window vs Gaussian, |omega| <= dw/3: max dev 5.0e-3
- truncated transmitted-energy ratio == 1/beta_w(L) to machine precision;
  exact ratio 0.85528 vs truncated 0.85911 (0.45% apart)
- stored profile vs Gaussian descriptor, RMS/peak: 2.7% at kappa = 1.0,
  2.9% at kappa = 1.2, 3.1% at kappa = 1.35 (the skew grows with
  propagation distance, so the bound is asserted at kappa = 1.2)
- deep adiabatic point (D = 2e4, eta = 8, kappa = 2.5): exact vs Gaussian
  model peak -0.11%, intensity FWHM +0.16%, energy -0.04%, peak time
  within 0.11 of the group-delay prediction; the truncated pipeline
  reproduces the Gaussian model to 3.4e-6
- converted energy is independent of the read power to 6.2e-6
- grid refinement moves the converted energy by 6.7e-7
"""

import math

import numpy as np
import pytest

from eitconvert import (
    AliasingError,
    CoherenceField,
    GridBudgetError,
    GridError,
    PopulationDistribution,
    SpectralGrid,
    UnitSystem,
    build_cesium_d1_scheme,
    control_for_eta,
    converted_field_exact,
    converted_spectrum,
    gaussian_probe_spectrum,
    channel_transfer,
    read_channel,
    single_lambda_scheme,
    spectrum_from_time,
    stored_coherence_exact,
    stored_coherence_profile,
    time_from_spectrum,
    transmitted_probe,
    write_channel,
)

LN2 = math.log(2.0)
T_P = UnitSystem().time_in(0.2)
ETA, KAPPA, D = 4.0, 1.35, 500.0


def intensity_fwhm(t, field):
    """Full width at half maximum of |field|^2 with linear crossings."""
    p = np.abs(np.asarray(field)) ** 2
    i = int(np.argmax(p))
    half = 0.5 * p[i]
    above = p >= half
    lo = int(np.argmax(above))
    hi = p.size - 1 - int(np.argmax(above[::-1]))
    tl = t[lo - 1] + (t[lo] - t[lo - 1]) * (half - p[lo - 1]) / (p[lo] - p[lo - 1])
    th = t[hi] + (t[hi + 1] - t[hi]) * (p[hi] - half) / (p[hi] - p[hi + 1])
    return th - tl


def _fig2_setup(kappa=KAPPA):
    sch = single_lambda_scheme(D, D)
    Om = control_for_eta(sch, ETA, T_P)
    w = write_channel(sch, Om, T_P, kappa)
    grid = SpectralGrid.for_protocol(sch, Om, T_P, Om)
    return sch, Om, w, grid


def _truncated_channel(channel):
    """Truncated exponent of one channel with its closed-form group delay
    and bandwidth: (scheme, grid, f, T_d, delta_omega).

    The read case runs a cesium scheme with alpha_c != alpha_p and
    Gamma_r != Gamma_w, so an exponent built from write-channel constants
    misses both references.
    """
    if channel == "write":
        sch, Om, w, grid = _fig2_setup()
        _, f = channel_transfer(sch, "write", Om, grid.omega, truncate_f=True)
        return sch, grid, f, w.T_d, w.delta_omega_w
    pop = PopulationDistribution(p=np.array([0.3, 0, 0.1, 0.2, 0, 0.1, 0.3]))
    sch = build_cesium_d1_scheme("plus_to_minus", pop, 500.0, 300.0,
                                 Gamma_r=1.7)
    Om = control_for_eta(sch, ETA, T_P)
    Om_r = 0.8 * Om
    w = write_channel(sch, Om, T_P, KAPPA)
    r = read_channel(sch, Om_r, w)
    grid = SpectralGrid.for_protocol(sch, Om, T_P, Om_r)
    _, f = channel_transfer(sch, "read", Om_r, grid.omega, truncate_f=True)
    return sch, grid, f, r.T_d_read, r.delta_omega_r


class TestFourierHelpers:
    def test_gaussian_spectrum_pairs_with_gaussian_pulse(self):
        grid = SpectralGrid(omega_max=40.0, n_omega=4096)
        spec = gaussian_probe_spectrum(grid, 2.0)
        t, wave = time_from_spectrum(grid.omega, spec)
        expect = np.exp(-2.0 * LN2 * (t / 2.0) ** 2)
        assert np.max(np.abs(wave - expect)) < 1e-10

    def test_round_trip_identity(self):
        rng = np.random.default_rng(7)
        grid = SpectralGrid(omega_max=25.0, n_omega=1024)
        for _ in range(5):
            env = np.exp(-((grid.omega / 5.0) ** 2))
            spec = env * (rng.standard_normal(grid.n_omega)
                          + 1j * rng.standard_normal(grid.n_omega))
            t, wave = time_from_spectrum(grid.omega, spec)
            om2, spec2 = spectrum_from_time(t, wave)
            assert np.max(np.abs(om2 - grid.omega)) < 1e-9
            assert np.max(np.abs(spec2 - spec)) < 1e-10 * np.abs(spec).max()

    def test_parseval(self):
        grid = SpectralGrid(omega_max=30.0, n_omega=2048)
        spec = gaussian_probe_spectrum(grid, 1.7, E0=0.4 + 0.3j)
        t, wave = time_from_spectrum(grid.omega, spec)
        e_t = float((np.abs(wave) ** 2).sum() * (t[1] - t[0]))
        e_w = float((np.abs(spec) ** 2).sum() * grid.d_omega)
        assert e_t == pytest.approx(e_w, rel=1e-8)

    def test_time_origin_shift(self):
        grid = SpectralGrid(omega_max=20.0, n_omega=512)
        spec = gaussian_probe_spectrum(grid, 1.0)
        t1, w1 = time_from_spectrum(grid.omega, spec)
        dt = t1[1] - t1[0]
        t2, w2 = time_from_spectrum(grid.omega, spec, t0=t1[0] + 10 * dt)
        assert np.max(np.abs(t2[:-10] - t1[10:])) < 1e-12
        assert np.max(np.abs(w2[:-10] - w1[10:])) < 1e-10


class TestTransferFunctions:
    def test_resonant_bin(self):
        sch, Om, w, grid = _fig2_setup()
        A_w, f_w = channel_transfer(sch, "write", Om, grid.omega)
        k0 = grid.n_omega // 2
        assert grid.omega[k0] == 0.0
        assert A_w[:, k0] == pytest.approx(-1.0, abs=1e-15)
        assert f_w[k0] == 0.0
        A_r, _ = channel_transfer(sch, "read", Om, grid.omega)
        assert A_r[:, k0] == pytest.approx(-1.0, abs=1e-15)

    def test_exponent_matches_steady_state_susceptibility(self):
        """f against the stationary weak-probe response, solved by hand.

        Eliminating the ground coherence from the two coherence equations
        at drive frequency omega gives, per subsystem,

            f_j = (alpha Gamma / 4 L) p_j a_p,j^2 (-i omega)
                  / [(Gamma/2 - i omega)(-i omega) + |a_w,j Omega|^2 / 4]

        which must equal the transfer-function form built from A_j.
        """
        rng = np.random.default_rng(23)
        for _ in range(8):
            raw = rng.uniform(0.0, 1.0, size=7)
            pop = PopulationDistribution(p=raw / raw.sum())
            sch = build_cesium_d1_scheme("plus_to_minus", pop,
                                         rng.uniform(50.0, 600.0),
                                         rng.uniform(50.0, 600.0))
            Om = rng.uniform(0.5, 4.0) * np.exp(2j * math.pi * rng.uniform())
            grid = SpectralGrid(omega_max=rng.uniform(5.0, 40.0), n_omega=64)
            _, f_w = channel_transfer(sch, "write", Om, grid.omega)
            om = grid.omega
            f = np.zeros_like(om, dtype=complex)
            G = 1.0
            for j in range(sch.p.size):
                if sch.a_w[j] == 0.0:
                    continue
                den = ((0.5 * G - 1j * om) * (-1j * om)
                       + 0.25 * abs(sch.a_w[j] * Om) ** 2)
                f += (sch.alpha_p * G / (4.0 * 1.0)
                      * sch.p[j] * sch.a_p[j] ** 2 * (-1j * om) / den)
            scale = np.abs(f).max()
            assert np.max(np.abs(f_w - f)) < 1e-12 * scale

    def test_passivity(self):
        sch, Om, w, grid = _fig2_setup()
        _, f_w = channel_transfer(sch, "write", Om, grid.omega)
        assert np.min(f_w.real) > -1e-15

    @pytest.mark.parametrize("channel", ["write", "read"])
    def test_truncated_window_is_exact_gaussian(self, channel):
        sch, grid, f, _, bandwidth = _truncated_channel(channel)
        window = -2.0 * f.real * 1.0
        expect = -4.0 * LN2 * (grid.omega / bandwidth) ** 2
        assert np.max(np.abs(window - expect)) < 1e-12 * np.abs(expect).max()

    @pytest.mark.parametrize("channel", ["write", "read"])
    def test_truncated_group_delay(self, channel):
        sch, grid, f, T_d, _ = _truncated_channel(channel)
        k = grid.n_omega // 2 + 1
        delay = -f[k].imag * 1.0 / grid.omega[k]
        assert delay == pytest.approx(T_d, rel=1e-12)

    def test_exact_window_near_gaussian_in_core(self):
        sch, Om, w, grid = _fig2_setup()
        _, f_w = channel_transfer(sch, "write", Om, grid.omega)
        win = np.abs(np.exp(-f_w * 1.0)) ** 2
        gauss = np.exp(-4.0 * LN2 * (grid.omega / w.delta_omega_w) ** 2)
        core = np.abs(grid.omega) <= w.delta_omega_w / 3.0
        assert np.max(np.abs(win[core] - gauss[core])) < 0.01


class TestStoredCoherence:
    def test_matches_gaussian_descriptor(self):
        """RMS against the closed-form spin wave, relative to its peak.

        Measured: 2.9% at kappa = 1.2 and 3.1% at kappa = 1.35 (the
        Gaussian descriptor with mid-pulse broadening cannot follow the
        skew the leading edge picks up over distance).
        """
        sch, Om, w, grid = _fig2_setup(kappa=1.2)
        stored = stored_coherence_exact(
            sch, Om, gaussian_probe_spectrum(grid, T_P), w.t_w, grid)
        ana = stored_coherence_profile(sch, w).evaluate(stored.z)
        rms = np.sqrt(np.mean(np.abs(stored.sigma - ana) ** 2))
        assert rms / np.abs(stored.sigma).max() < 0.03

    def test_descriptor_regression_at_later_cutoff(self):
        sch, Om, w, grid = _fig2_setup(kappa=KAPPA)
        stored = stored_coherence_exact(
            sch, Om, gaussian_probe_spectrum(grid, T_P), w.t_w, grid)
        ana = stored_coherence_profile(sch, w).evaluate(stored.z)
        rms = np.sqrt(np.mean(np.abs(stored.sigma - ana) ** 2))
        assert rms / np.abs(stored.sigma).max() < 0.035

    def test_unpopulated_rows_are_zero(self):
        pop = PopulationDistribution(p=np.array([0.4, 0.0, 0.2, 0.0,
                                                 0.1, 0.0, 0.3]))
        sch = build_cesium_d1_scheme("plus_to_minus", pop, D, D)
        Om = control_for_eta(sch, ETA, T_P)
        grid = SpectralGrid.for_protocol(sch, Om, T_P)
        stored = stored_coherence_exact(
            sch, Om, gaussian_probe_spectrum(grid, T_P), KAPPA * T_P, grid)
        empty = sch.p == 0
        assert np.abs(stored.sigma[empty]).max() == 0.0
        assert np.abs(stored.sigma[~empty]).max() > 0.0

    def test_linear_in_input_amplitude(self):
        sch, Om, w, grid = _fig2_setup()
        s1 = stored_coherence_exact(
            sch, Om, gaussian_probe_spectrum(grid, T_P), w.t_w, grid)
        s2 = stored_coherence_exact(
            sch, Om, gaussian_probe_spectrum(grid, T_P, E0=2.0), w.t_w, grid)
        assert np.max(np.abs(s2.sigma - 2.0 * s1.sigma)) < 1e-12

    def test_wideband_input_rejected(self):
        sch = single_lambda_scheme(D, D)
        grid = SpectralGrid(omega_max=2.0, n_omega=256)
        with pytest.raises(AliasingError):
            stored_coherence_exact(sch, 2.0,
                                   gaussian_probe_spectrum(grid, 0.5),
                                   1.0, grid)

    def test_spectrum_shape_guard(self):
        sch = single_lambda_scheme(D, D)
        grid = SpectralGrid(omega_max=10.0, n_omega=256)
        with pytest.raises(GridError):
            stored_coherence_exact(sch, 2.0, np.zeros(100), 1.0, grid)


class TestConvertedField:
    def _deep_setup(self):
        sch = single_lambda_scheme(2.0e4, 2.0e4)
        Om = control_for_eta(sch, 8.0, T_P)
        w = write_channel(sch, Om, T_P, 2.5)
        r = read_channel(sch, Om, w)
        grid = SpectralGrid.for_protocol(sch, Om, T_P, Om)
        stored = stored_coherence_exact(
            sch, Om, gaussian_probe_spectrum(grid, T_P), w.t_w, grid)
        return sch, Om, w, r, grid, stored

    def test_truncated_pipeline_reproduces_gaussian_model(self):
        """With A clamped and f Taylored the propagator IS the closed form."""
        sch, Om, w, r, grid, _ = self._deep_setup()
        stored = stored_coherence_exact(
            sch, Om, gaussian_probe_spectrum(grid, T_P), w.t_w, grid,
            truncate_A=True, truncate_f=True)
        res = converted_field_exact(sch, stored, Om, grid,
                                    truncate_A=True, truncate_f=True)
        ana = converted_spectrum(sch, w, r)
        peak = np.abs(res.waveform).max()
        e_ana = float(np.trapezoid(np.abs(ana.time_waveform(res.t)) ** 2,
                                   res.t))
        assert peak == pytest.approx(ana.peak_amplitude, rel=1e-4)
        assert res.energy_scaled == pytest.approx(e_ana, rel=1e-4)

    def test_exact_deep_regime_near_gaussian_model(self):
        sch, Om, w, r, grid, stored = self._deep_setup()
        res = converted_field_exact(sch, stored, Om, grid)
        ana = converted_spectrum(sch, w, r)
        peak = np.abs(res.waveform).max()
        t_peak = res.t[int(np.argmax(np.abs(res.waveform)))]
        fw = intensity_fwhm(res.t, res.waveform)
        e_ana = float(np.trapezoid(np.abs(ana.time_waveform(res.t)) ** 2,
                                   res.t))
        assert peak == pytest.approx(ana.peak_amplitude, rel=5e-3)
        assert fw == pytest.approx(ana.temporal_fwhm, rel=5e-3)
        assert res.energy_scaled == pytest.approx(e_ana, rel=2e-3)
        assert abs(t_peak - ana.t0) < 0.2

    def test_energy_independent_of_read_power(self):
        sch, Om, w, grid = _fig2_setup()
        stored = stored_coherence_exact(
            sch, Om, gaussian_probe_spectrum(grid, T_P), w.t_w, grid)
        e = []
        for scale in (1.0, 0.5):
            g = SpectralGrid.for_protocol(sch, Om, T_P, scale * Om)
            s = stored_coherence_exact(
                sch, Om, gaussian_probe_spectrum(g, T_P), w.t_w, g)
            e.append(converted_field_exact(sch, s, scale * Om, g).energy_scaled)
        assert e[1] == pytest.approx(e[0], rel=1e-4)

    def test_quadrature_flag(self):
        sch, Om, w, grid = _fig2_setup()
        stored = stored_coherence_exact(
            sch, Om, gaussian_probe_spectrum(grid, T_P), w.t_w, grid)
        res = converted_field_exact(sch, stored, Om, grid)
        assert res.converged
        assert res.quadrature_delta < 1e-4
        res2 = converted_field_exact(sch, stored, Om, grid,
                                     quadrature_check=False)
        assert res2.quadrature_delta == 0.0
        assert res2.energy_scaled == pytest.approx(res.energy_scaled,
                                                   rel=1e-14)

    def test_grid_refinement_stability(self):
        sch, Om, w, grid = _fig2_setup()
        energies = []
        for g in (grid, grid.refined()):
            s = stored_coherence_exact(
                sch, Om, gaussian_probe_spectrum(g, T_P), w.t_w, g)
            energies.append(converted_field_exact(sch, s, Om, g).energy_scaled)
        assert energies[1] == pytest.approx(energies[0], rel=1e-4)

    def test_causal_quiet_zone(self):
        # nothing retrieved before the read control turns on
        sch, Om, w, grid = _fig2_setup()
        stored = stored_coherence_exact(
            sch, Om, gaussian_probe_spectrum(grid, T_P), w.t_w, grid)
        res = converted_field_exact(sch, stored, Om, grid)
        peak = np.abs(res.waveform).max()
        early = res.t < -1.0
        assert np.abs(res.waveform[early]).max() < 1e-3 * peak

    def test_energy_unit_conversion(self):
        sch = single_lambda_scheme(D, 0.5 * D)
        Om = control_for_eta(sch, ETA, T_P)
        w = write_channel(sch, Om, T_P, KAPPA)
        grid = SpectralGrid.for_protocol(sch, Om, T_P, Om)
        stored = stored_coherence_exact(
            sch, Om, gaussian_probe_spectrum(grid, T_P), w.t_w, grid)
        res = converted_field_exact(sch, stored, Om, grid)
        ratio = sch.alpha_p / (sch.alpha_c * sch.Gamma_r)
        assert res.energy == pytest.approx(ratio * res.energy_scaled,
                                           rel=1e-14)


def _direct_readout(sch, stored, Om_r, grid):
    """Read-out quadrature through the full (n_omega, n_z) exp table."""
    A_r, f_r = channel_transfer(sch, "read", Om_r, grid.omega)
    z, L = stored.z, 1.0
    w = np.empty_like(z)
    w[0] = 0.5 * (z[1] - z[0])
    w[-1] = 0.5 * (z[-1] - z[-2])
    w[1:-1] = 0.5 * (z[2:] - z[:-2])
    kern = np.exp(-f_r[:, None] * (L - z)[None, :])
    inner = (stored.sigma * w[None, :]) @ kern.T
    pref = sch.alpha_c * sch.Gamma_r / (math.sqrt(2.0 * math.pi) * L
                                        * np.conj(Om_r))
    return pref * (sch.R_c[:, None] * A_r * inner).sum(axis=0)


def _readout_case(kind):
    if kind == "cesium":
        sch = build_cesium_d1_scheme("plus_to_minus",
                                     PopulationDistribution.isotropic(),
                                     200.0, 200.0)
    else:
        sch = single_lambda_scheme(D, D)
    Om = control_for_eta(sch, ETA, T_P)
    Om_r = 0.8 * Om
    w = write_channel(sch, Om, T_P, KAPPA)
    full = SpectralGrid.for_protocol(sch, Om, T_P, Om_r)
    grid = SpectralGrid(omega_max=full.omega_max, n_omega=4096)
    stored = stored_coherence_exact(
        sch, Om, gaussian_probe_spectrum(grid, T_P), w.t_w, grid)
    z = stored.z
    if kind == "half-density":
        # the quadrature check's subsample of an even n_z: steps 2h, then h
        idx = np.append(np.arange(0, z.size, 2), z.size - 1)
        stored = CoherenceField(z=z[idx], sigma=stored.sigma[:, idx],
                                t=stored.t)
    elif kind == "jittered":
        # arbitrary spacings, last sample short of the exit face
        rng = np.random.default_rng(5)
        zj = np.sort(0.97 * z + rng.uniform(-0.3, 0.3, z.size) * z[1])
        stored = CoherenceField(z=np.clip(zj, 0.0, None), sigma=stored.sigma,
                                t=stored.t)
    return sch, Om_r, grid, stored


class TestHornerReadout:
    @pytest.mark.parametrize("kind", ["uniform", "half-density", "cesium",
                                      "jittered"])
    def test_matches_direct_table(self, kind):
        sch, Om_r, grid, stored = _readout_case(kind)
        if kind == "half-density":
            assert stored.z.size == 257 and grid.n_z % 2 == 0
        if kind == "cesium":
            assert sch.p.size == 7
        res = converted_field_exact(sch, stored, Om_r, grid,
                                    quadrature_check=False)
        ref = _direct_readout(sch, stored, Om_r, grid)
        assert np.abs(ref).max() > 0
        assert np.max(np.abs(res.spectrum - ref)) < 1e-12 * np.abs(ref).max()


class TestTransmission:
    def test_truncated_energy_ratio_equals_inverse_broadening(self):
        sch, Om, w, grid = _fig2_setup()
        res = transmitted_probe(sch, Om, gaussian_probe_spectrum(grid, T_P),
                                grid, truncate_f=True)
        assert (res.energy_out / res.energy_in
                == pytest.approx(1.0 / w.beta_w(1.0), rel=1e-10))

    def test_exact_close_to_truncated(self):
        sch, Om, w, grid = _fig2_setup()
        spec = gaussian_probe_spectrum(grid, T_P)
        exact = transmitted_probe(sch, Om, spec, grid)
        trunc = transmitted_probe(sch, Om, spec, grid, truncate_f=True)
        r1 = exact.energy_out / exact.energy_in
        r2 = trunc.energy_out / trunc.energy_in
        assert r1 == pytest.approx(r2, rel=0.01)

    def test_passive(self):
        rng = np.random.default_rng(11)
        for _ in range(4):
            sch = single_lambda_scheme(rng.uniform(20.0, 800.0),
                                       rng.uniform(20.0, 800.0))
            Om = control_for_eta(sch, rng.uniform(1.0, 8.0), T_P)
            grid = SpectralGrid.for_protocol(sch, Om, T_P, n_omega=4096)
            res = transmitted_probe(sch, Om,
                                    gaussian_probe_spectrum(grid, T_P), grid)
            assert res.energy_out <= res.energy_in


class TestGridSizing:
    def test_for_protocol_shape(self):
        sch, Om, w, grid = _fig2_setup()
        assert grid.n_omega >= 4096
        assert grid.n_omega & (grid.n_omega - 1) == 0
        assert grid.omega_max >= 8.0 * abs(Om) ** 2

    def test_weak_read_control_refines_grid(self):
        sch = single_lambda_scheme(D, D)
        Om = control_for_eta(sch, ETA, T_P)
        g1 = SpectralGrid.for_protocol(sch, Om, T_P, Om)
        g2 = SpectralGrid.for_protocol(sch, Om, T_P, 0.3 * Om)
        assert g2.n_omega > g1.n_omega

    def test_auto_size_over_budget_refused(self):
        sch = single_lambda_scheme(D, D)
        Om = control_for_eta(sch, ETA, T_P)
        ok = SpectralGrid.for_protocol(sch, Om, T_P, 0.01 * Om)
        assert ok.n_omega == 1 << 20
        with pytest.raises(GridBudgetError, match="8388608.*4194304"):
            SpectralGrid.for_protocol(sch, Om, T_P, 1e-3 * Om)
        forced = SpectralGrid.for_protocol(sch, Om, T_P, 1e-3 * Om,
                                           n_omega=1 << 23)
        assert forced.n_omega == 1 << 23

    def test_bad_grids_rejected(self):
        with pytest.raises(GridError):
            SpectralGrid(omega_max=0.0)
        with pytest.raises(GridError):
            SpectralGrid(omega_max=10.0, n_omega=1000)
        with pytest.raises(GridError):
            SpectralGrid(omega_max=10.0, n_omega=8)
        with pytest.raises(GridError):
            SpectralGrid(omega_max=10.0, n_omega=256, n_z=4)

    def test_refined_halves_spacing(self):
        g = SpectralGrid(omega_max=10.0, n_omega=256, n_z=33)
        r = g.refined()
        assert r.d_omega == pytest.approx(0.5 * g.d_omega, rel=1e-14)
        z1 = g.z_samples()
        z2 = r.z_samples()
        assert np.max(np.abs(z2[::2] - z1)) < 1e-14

    def test_refined_over_budget_refused(self):
        at_budget = SpectralGrid(omega_max=10.0, n_omega=1 << 22)
        with pytest.raises(GridBudgetError, match="8388608.*4194304"):
            at_budget.refined()
        assert SpectralGrid(omega_max=10.0,
                            n_omega=1 << 21).refined().n_omega == 1 << 22
