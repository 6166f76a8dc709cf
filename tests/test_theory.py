"""Tests for the closed-form channel theory.

Frozen numerical anchors (eta = 4, kappa = 1.35, D = 500 unless noted):
beta_w = 1.0582, beta_r (large-depth form) = 1.1114, xi_1 (same forms)
= 0.8503.  The consistent chain, which keeps the 1/beta_w^2 term in the
read broadening, gives xi_1 = 0.8591.  Relative-efficiency anchors for the
depth ratio sweep are tabulated in TestRelativeEfficiency.
"""

import math
import warnings

import numpy as np
import pytest

from eitconvert import (
    PopulationDistribution,
    UnitSystem,
    ValidityWarning,
    beta_r_simple,
    beta_w_simple,
    build_cesium_d1_scheme,
    coherence_mismatch,
    control_for_eta,
    converted_bandwidth,
    converted_spectrum,
    pulse_bandwidth,
    read_channel,
    relative_efficiency_multi,
    relative_efficiency_single,
    single_lambda_scheme,
    stored_coherence_profile,
    total_efficiency,
    write_channel,
    xi1_simple,
)

ETA, KAPPA, D = 4.0, 1.35, 500.0


def _single_chain(D_p=D, D_c=D, eta=ETA, kappa=KAPPA, T_p=1.0):
    """Build the standard single-subsystem write/read parameter pair."""
    sch = single_lambda_scheme(D_p, D_c)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        w = write_channel(sch, control_for_eta(sch, eta, T_p), T_p, kappa)
        r = read_channel(sch, control_for_eta(sch, eta, T_p, "read"), w)
    return sch, w, r


class TestWriteChannel:
    def test_group_delay_matches_requested_eta(self):
        sch, w, _ = _single_chain()
        assert w.eta == pytest.approx(ETA, rel=1e-12)
        assert w.T_d == pytest.approx(ETA * w.T_p, rel=1e-12)

    def test_group_velocity_infinite_c(self):
        sch, w, _ = _single_chain()
        # with 1/c = 0 the transit time is pure group delay
        assert w.v_w == pytest.approx(1.0 / w.T_d, rel=1e-12)

    def test_broadening_matches_simple_form(self):
        """Single subsystem: beta_w(z_mid)^2 = 1 + 16 ln2 eta kappa / D."""
        _, w, _ = _single_chain()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            expect = beta_w_simple(ETA, KAPPA, D)
        assert w.beta_w_mid == pytest.approx(expect, rel=1e-12)

    def test_frozen_value(self):
        _, w, _ = _single_chain()
        assert w.beta_w_mid == pytest.approx(1.0582, abs=2e-4)

    @pytest.mark.parametrize("kind", ["single", "cesium"])
    def test_beta_w_at_z_mid_is_beta_w_mid(self, kind):
        """beta_w(z) takes z in units of the medium length, like z_mid."""
        if kind == "single":
            _, w, _ = _single_chain()
        else:
            sch = build_cesium_d1_scheme("plus_to_minus",
                                         PopulationDistribution.isotropic(),
                                         200.0, 200.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ValidityWarning)
                w = write_channel(sch, control_for_eta(sch, ETA, 1.0), 1.0,
                                  KAPPA)
        assert 0.0 < w.z_mid < 1.0
        assert w.beta_w(w.z_mid) == w.beta_w_mid

    def test_multi_state_weighted_sums(self):
        """Weighted-sum broadening against an explicit fsum oracle."""
        pop = PopulationDistribution(p=np.array([0.3, 0, 0.1, 0.2, 0, 0.1, 0.3]))
        sch = build_cesium_d1_scheme("plus_to_minus", pop, D, D)
        Om = 2.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            w = write_channel(sch, Om, 1.0, KAPPA)
        mask = sch.p > 0
        S2 = math.fsum(sch.p[mask] * sch.R_p[mask] ** 2)
        S4 = math.fsum(sch.p[mask] * sch.R_p[mask] ** 4 / sch.a_p[mask] ** 2)
        T_d = sch.alpha_p * S2 / Om ** 2
        assert w.T_d == pytest.approx(T_d, rel=1e-12)
        inv_bw2 = sch.alpha_p * S4 / (math.log(2.0) * Om ** 4)
        assert w.delta_omega_w == pytest.approx(inv_bw2 ** -0.5, rel=1e-12)

    def test_bandwidth_warning(self):
        sch = single_lambda_scheme(D, D)
        # very short pulse: T_p * delta_omega_w < 1; flagged, not warned
        with warnings.catch_warnings():
            warnings.simplefilter("error", ValidityWarning)
            w = write_channel(sch, 1.0, 0.001, KAPPA)
        assert any(f.startswith("pulse-bandwidth") for f in w.flags)

    def test_zero_control_rejected(self):
        sch = single_lambda_scheme(D, D)
        with pytest.raises(ValueError):
            write_channel(sch, 0.0, 1.0, KAPPA)


class TestReadChannel:
    def test_frozen_consistent_chain(self):
        sch, w, r = _single_chain()
        xi1 = 1.0 / (w.beta_w_mid * r.beta_r_L)
        assert xi1 == pytest.approx(0.8591, abs=2e-4)

    def test_beta_r_independent_of_read_power(self):
        sch, w, _ = _single_chain()
        r1 = read_channel(sch, 0.7, w)
        r2 = read_channel(sch, 5.0, w)
        assert r1.beta_r_L == pytest.approx(r2.beta_r_L, rel=1e-14)

    def test_stored_pulse_outside_medium_rejected(self):
        # kappa > eta puts z_mid = (kappa/eta) L beyond the exit face
        sch = single_lambda_scheme(D, D)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            w = write_channel(sch, control_for_eta(sch, 1.0, 1.0), 1.0, 1.35)
        with pytest.raises(ValueError):
            read_channel(sch, 1.0, w)

    @staticmethod
    def _unflagged_write():
        """D = 500 chain with a 0.2 us probe, inside the write-side regime."""
        T_p = UnitSystem().time_in(0.2)
        sch = single_lambda_scheme(D, D)
        return sch, write_channel(sch, control_for_eta(sch, ETA, T_p), T_p,
                                  KAPPA)

    def test_fast_read_flagged(self):
        """A read control twice the write control converts into a bandwidth
        above Gamma_r, outside the adiabatic regime of the model."""
        sch, w = self._unflagged_write()
        with warnings.catch_warnings():
            warnings.simplefilter("error", ValidityWarning)
            r = read_channel(sch, 2.0 * w.Omega_w, w)
        assert any(f.startswith("adiabaticity") for f in r.flags)

    def test_matched_read_unflagged(self):
        sch, w = self._unflagged_write()
        assert w.flags == ()
        with warnings.catch_warnings():
            warnings.simplefilter("error", ValidityWarning)
            r = read_channel(sch, w.Omega_w, w)
        assert r.flags == ()

    def test_deep_medium_limit(self):
        """beta_r -> 1 as the read-channel depth grows.

        The consistent chain carries the 1/beta_w^2 factor (1.01044 at
        D_c = 5000); the large-depth form gives 1.01169.
        """
        _, _, r = _single_chain(D_c=5000.0)
        assert r.beta_r_L == pytest.approx(1.01044, abs=2e-4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            assert beta_r_simple(ETA, KAPPA, 5000.0) == pytest.approx(1.01169,
                                                                      abs=2e-4)


class TestSimpleForms:
    def test_frozen_values(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            assert beta_w_simple(ETA, KAPPA, D) == pytest.approx(1.0582, abs=2e-4)
            assert beta_r_simple(ETA, KAPPA, D) == pytest.approx(1.1114, abs=2e-4)
            assert xi1_simple(ETA, KAPPA, D, D) == pytest.approx(0.8503, abs=2e-4)

    def test_beta_r_domain(self):
        with pytest.raises(ValueError):
            beta_r_simple(1.0, 1.35, D)

    def test_validity_warnings(self):
        with pytest.warns(ValidityWarning):
            beta_w_simple(4.0, 0.9, D)
        with pytest.warns(ValidityWarning):
            beta_w_simple(1.5, 1.35, D)

    def test_beta_monotone_in_depth(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            vals = [beta_w_simple(ETA, KAPPA, d) for d in (50, 100, 500, 5000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestStoredProfile:
    def test_amplitude_and_center(self):
        sch, w, _ = _single_chain()
        prof = stored_coherence_profile(sch, w, E0=1.0)
        expect = -1.0 / (w.Omega_w * w.beta_w_mid)
        assert prof.amplitude[0] == pytest.approx(expect, rel=1e-12)
        assert prof.center == pytest.approx(KAPPA / ETA, rel=1e-12)

    def test_fwhm_numeric(self):
        """Half-max width of |sigma|^2 equals L_w * beta_w."""
        sch, w, _ = _single_chain()
        prof = stored_coherence_profile(sch, w)
        z = np.linspace(0.0, 1.0, 200001)
        I = np.abs(prof.evaluate(z)[0]) ** 2
        above = z[I >= 0.5 * I.max()]
        fwhm = above[-1] - above[0]
        assert fwhm == pytest.approx(w.L_w * w.beta_w_mid, rel=1e-3)

    def test_warns_when_pulse_does_not_fit(self):
        sch, w, _ = _single_chain(eta=0.8, kappa=0.4)
        with pytest.warns(ValidityWarning):
            stored_coherence_profile(sch, w)


class TestConvertedSpectrum:
    def test_energy_ratio_equals_xi1_xi2(self):
        """Parseval: spectrum energy / input energy = xi_1 xi_2 exactly."""
        pop = PopulationDistribution(p=np.array([0.5, 0, 0, 0.2, 0, 0, 0.3]))
        sch = build_cesium_d1_scheme("plus_to_minus", pop, D, D)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            w = write_channel(sch, control_for_eta(sch, ETA, 1.0), 1.0, KAPPA)
            r = read_channel(sch, 1.7, w)
            rep = total_efficiency(sch, w, r)
        cs = converted_spectrum(sch, w, r)
        assert cs.efficiency == pytest.approx(rep.xi_total, rel=1e-12)

    def test_bandwidth_identity(self):
        sch, w, r = _single_chain(D_c=2 * D)
        cs = converted_spectrum(sch, w, r)
        assert cs.spectral_fwhm == pytest.approx(converted_bandwidth(sch, w, r),
                                                 rel=1e-12)

    def test_perfect_retrieval_limit(self):
        """Identical channels at huge depth reproduce the input pulse."""
        sch, w, r = _single_chain(D_p=1e9, D_c=1e9)
        cs = converted_spectrum(sch, w, r, E0=0.8)
        assert cs.peak_amplitude == pytest.approx(0.8, rel=1e-6)
        assert cs.temporal_fwhm == pytest.approx(w.T_p, rel=1e-6)

    def test_arrival_time(self):
        sch, w, r = _single_chain()
        cs = converted_spectrum(sch, w, r)
        expect = (1.0 - w.z_mid) / r.v_r
        assert cs.t0 == pytest.approx(expect, rel=1e-12)
        # eta = 4, kappa = 1.35, matched controls: t0 = (1 - kappa/eta) T_d
        assert cs.t0 == pytest.approx((1 - KAPPA / ETA) * w.T_d, rel=1e-12)

    def test_waveform_peak_matches_property(self):
        sch, w, r = _single_chain()
        cs = converted_spectrum(sch, w, r)
        t = np.linspace(cs.t0 - 3, cs.t0 + 3, 40001)
        wav = np.abs(cs.time_waveform(t))
        assert wav.max() == pytest.approx(cs.peak_amplitude, rel=1e-9)
        half = t[wav ** 2 >= 0.5 * wav.max() ** 2]
        assert half[-1] - half[0] == pytest.approx(cs.temporal_fwhm, rel=1e-3)

    def test_read_power_compresses_output(self):
        """Doubling |Omega_r|^2 doubles bandwidth and halves duration."""
        sch, w, _ = _single_chain()
        r1 = read_channel(sch, 1.0, w)
        r2 = read_channel(sch, math.sqrt(2.0), w)
        c1 = converted_spectrum(sch, w, r1)
        c2 = converted_spectrum(sch, w, r2)
        assert c2.temporal_fwhm == pytest.approx(c1.temporal_fwhm / 2, rel=1e-12)
        assert converted_bandwidth(sch, w, r2) == pytest.approx(
            2 * converted_bandwidth(sch, w, r1), rel=1e-12)
        # energy is conserved under read-power changes
        assert c2.efficiency == pytest.approx(c1.efficiency, rel=1e-12)


class TestRelativeEfficiency:
    # depth-ratio -> xi_R at eta = 4, kappa = 1.35 (frozen from the closed form)
    ANCHORS_500 = {0.1: 0.624783, 0.2: 0.768294, 0.5: 0.923108, 1.0: 1.0,
                   2.0: 1.046427, 5.0: 1.077592, 10.0: 1.088616}
    ANCHORS_100 = {0.1: 0.455798, 1.0: 1.0, 10.0: 1.271379}

    def test_frozen_anchor_values(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            for ratio, expect in self.ANCHORS_500.items():
                got = relative_efficiency_single(ETA, KAPPA, 500.0, 500.0 * ratio)
                assert got == pytest.approx(expect, abs=1e-6), ratio
            for ratio, expect in self.ANCHORS_100.items():
                got = relative_efficiency_single(ETA, KAPPA, 100.0, 100.0 * ratio)
                assert got == pytest.approx(expect, abs=1e-6), ratio

    def test_equal_depths_give_unity(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            for eta in (3.0, 4.0, 6.0):
                assert relative_efficiency_single(eta, KAPPA, 200.0, 200.0) == 1.0

    def test_multi_reduces_to_single(self):
        sch = single_lambda_scheme(300.0, 60.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            a = relative_efficiency_multi(sch, ETA, KAPPA)
            b = relative_efficiency_single(ETA, KAPPA, 300.0, 60.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_equals_total_efficiency_ratio(self):
        """xi_R must equal xi_T divided by the same-channel xi_T."""
        pop = PopulationDistribution(p=np.array([0.4, 0.1, 0, 0, 0.1, 0, 0.4]))
        sch = build_cesium_d1_scheme("minus_to_plus", pop, D, D)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            w = write_channel(sch, control_for_eta(sch, ETA, 1.0), 1.0, KAPPA)
            r = read_channel(sch, 2.2, w)
            rep = total_efficiency(sch, w, r)
            orig = sch.with_original_readout()
            wo = write_channel(orig, control_for_eta(orig, ETA, 1.0), 1.0, KAPPA)
            ro = read_channel(orig, 1.4, wo)
            rep_o = total_efficiency(orig, wo, ro)
        assert rep.xi_total / rep_o.xi_total == pytest.approx(rep.xi_relative,
                                                              rel=1e-12)

    def test_symmetric_population_cancellation(self):
        """m-symmetric populations: xi_R = xi_2, independent of eta."""
        rng = np.random.default_rng(11)
        for _ in range(100):
            half = rng.random(3)
            center = rng.random()
            p = np.concatenate([half, [center], half[::-1]])
            pop = PopulationDistribution(p=p / p.sum())
            sch = build_cesium_d1_scheme("plus_to_minus", pop, D, D)
            xi2 = coherence_mismatch(sch)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ValidityWarning)
                a = relative_efficiency_multi(sch, 3.0, KAPPA)
                b = relative_efficiency_multi(sch, 7.0, KAPPA)
            assert abs(a - b) < 1e-10
            assert abs(a - xi2) < 1e-10

    def test_direction_swap_with_mirrored_population(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            p = rng.random(7)
            pop = PopulationDistribution(p=p / p.sum())
            mirror = PopulationDistribution(p=pop.p[::-1].copy())
            a = build_cesium_d1_scheme("plus_to_minus", pop, D, D)
            b = build_cesium_d1_scheme("minus_to_plus", mirror, D, D)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ValidityWarning)
                assert relative_efficiency_multi(a, ETA, KAPPA) == pytest.approx(
                    relative_efficiency_multi(b, ETA, KAPPA), rel=1e-12)

    def test_trend_in_eta(self):
        """Deeper read channel rewards slower write: increasing in eta."""
        etas = np.linspace(2.5, 8.0, 12)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            up = [relative_efficiency_single(e, KAPPA, D, 10 * D) for e in etas]
            dn = [relative_efficiency_single(e, KAPPA, D, 0.1 * D) for e in etas]
        assert all(a < b for a, b in zip(up, up[1:]))
        assert all(a > b for a, b in zip(dn, dn[1:]))

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            relative_efficiency_single(1.0, 1.35, D, D)
        with pytest.raises(ValueError):
            relative_efficiency_single(4.0, 1.35, -5.0, D)


class TestPulseBandwidth:
    def test_time_bandwidth_product(self):
        # Gaussian: Delta_omega_0 * T_p = 4 ln2
        assert pulse_bandwidth(0.5) * 0.5 == pytest.approx(4 * math.log(2.0))
