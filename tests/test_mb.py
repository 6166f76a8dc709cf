"""Tests for the time-domain protocol solver.

Frozen anchors at the standard point (D_p = D_c = 500, eta = 4,
kappa = 1.35, T_p = 5.7303, matched controls, default 0.2 T_p ramps):

- storage-time independence of the converted energy at gamma_sg = 0: 5e-12
- ground-coherence decay exp(-2 gamma t_s) reproduced to 2e-10
- converted-energy swing across read ramps {0.02, 0.1, 0.2} T_p: 0.27%
- against the frequency-domain propagator: peak +1.1%, intensity FWHM
  -1.3%, energy +0.19%
- total efficiency 0.8486 vs closed form 0.8591 (-1.2%)
- identical-channel relative efficiency exactly 1
- leakage 5e-7 at eta = 4; 7% when the pulse does not fit (eta = 1,
  kappa = 0.5)
- slow-light exit peak within 0.3 time steps of the group delay
- grid doubling moves the converted energy by 3.4e-5
"""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from eitconvert import mb
from eitconvert import (
    CoherenceField,
    ControlTimeline,
    GaussianPulse,
    SpectralGrid,
    StiffnessError,
    UnitSystem,
    ValidityWarning,
    control_for_eta,
    converted_field_exact,
    gaussian_probe_spectrum,
    build_cesium_d1_scheme,
    read_channel,
    run_original_readout,
    run_protocol,
    single_lambda_scheme,
    stored_coherence_exact,
    timeline_for_protocol,
    total_efficiency,
    transmitted_probe,
    write_channel,
)

T_P = UnitSystem().time_in(0.2)
ETA, KAPPA, D = 4.0, 1.35, 500.0


def intensity_fwhm(t, field):
    p = np.abs(np.asarray(field)) ** 2
    i = int(np.argmax(p))
    half = 0.5 * p[i]
    above = p >= half
    lo = int(np.argmax(above))
    hi = p.size - 1 - int(np.argmax(above[::-1]))
    tl = t[lo - 1] + (t[lo] - t[lo - 1]) * (half - p[lo - 1]) / (p[lo] - p[lo - 1])
    th = t[hi] + (t[hi + 1] - t[hi]) * (p[hi] - half) / (p[hi] - p[hi + 1])
    return th - tl


@pytest.fixture(scope="module")
def fig2():
    """Standard matched-control conversion run, shared across tests."""
    sch = single_lambda_scheme(D, D)
    Om = control_for_eta(sch, ETA, T_P)
    pulse = GaussianPulse(T_p=T_P)
    tl = timeline_for_protocol(Om, Om, T_P, KAPPA)
    rec = run_protocol(sch, pulse, tl)
    return sch, Om, pulse, tl, rec


class TestGaussianPulse:
    def test_energy_closed_form(self):
        pulse = GaussianPulse(T_p=3.0, E0=0.7 + 0.2j)
        t = np.linspace(-30.0, 30.0, 20001)
        num = np.trapezoid(np.abs(pulse(t)) ** 2, t)
        assert pulse.energy == pytest.approx(num, rel=1e-10)

    def test_duration_is_intensity_fwhm(self):
        pulse = GaussianPulse(T_p=2.0, E0=1.5)
        assert pulse(0.0) == pytest.approx(1.5, rel=1e-14)
        # at half the duration from the peak the intensity is half maximum
        assert abs(pulse(1.0)) ** 2 == pytest.approx(0.5 * 1.5 ** 2,
                                                     rel=1e-12)


class TestControlTimeline:
    def test_write_ramp_endpoints(self):
        tl = ControlTimeline(Omega_w0=2.0, Omega_r0=1.0, t_w=5.0, ramp=1.0)
        assert tl.Omega_w(3.99) == 2.0
        assert tl.Omega_w(5.0) == 0.0
        assert tl.Omega_w(7.0) == 0.0
        mid = tl.Omega_w(4.5)
        assert 0.0 < abs(mid) < 2.0

    def test_read_ramp_endpoints(self):
        tl = ControlTimeline(Omega_w0=2.0, Omega_r0=1.0, t_w=5.0, t_s=2.0,
                             ramp=1.0)
        assert tl.t_r == 7.0
        assert tl.Omega_r(6.99) == 0.0
        assert tl.Omega_r(8.0) == 1.0

    def test_monotone_ramps(self):
        tl = ControlTimeline(Omega_w0=1.0, Omega_r0=1.0, t_w=4.0, ramp=0.8)
        ts = np.linspace(3.0, 5.0, 101)
        w = np.array([abs(tl.Omega_w(t)) for t in ts])
        assert np.all(np.diff(w) <= 1e-12)
        ts = np.linspace(3.9, 5.1, 101)
        r = np.array([abs(tl.Omega_r(t)) for t in ts])
        assert np.all(np.diff(r) >= -1e-12)

    def test_slow_light_mode(self):
        tl = ControlTimeline(Omega_w0=1.5)
        assert tl.t_r is None
        assert tl.Omega_w(1e6) == 1.5
        assert tl.Omega_r(1e6) == 0.0

    def test_protocol_helper(self):
        tl = timeline_for_protocol(2.0, 1.0, T_P, KAPPA)
        assert tl.t_w == pytest.approx(KAPPA * T_P, rel=1e-14)
        assert tl.ramp == pytest.approx(0.2 * T_P, rel=1e-14)

    def test_negative_ramp_rejected(self):
        with pytest.raises(ValueError):
            ControlTimeline(Omega_w0=1.0, ramp=-0.1)

    def test_store_only_rejected(self):
        """A write cutoff without a read control stores and never reads."""
        with pytest.raises(ValueError, match="read control"):
            ControlTimeline(Omega_w0=1.0, t_w=4.0)


class TestProtocolInvariants:
    def test_weak_probe_linearity(self, fig2):
        sch, Om, pulse, tl, rec = fig2
        rec2 = run_protocol(sch, GaussianPulse(T_p=T_P, E0=2.0), tl)
        scale = np.abs(rec.converted_exit).max()
        assert np.max(np.abs(rec2.converted_exit - 2.0 * rec.converted_exit)) \
            < 1e-10 * scale
        assert rec2.energies["converted"] == pytest.approx(
            4.0 * rec.energies["converted"], rel=1e-10)

    def test_storage_time_independence(self, fig2):
        sch, Om, pulse, tl, rec = fig2
        tl3 = timeline_for_protocol(Om, Om, T_P, KAPPA, t_s=3.0)
        rec3 = run_protocol(sch, pulse, tl3)
        assert rec3.energies["converted"] == pytest.approx(
            rec.energies["converted"], rel=1e-9)

    def test_ground_coherence_decay(self):
        gamma, t_s = 0.02, 3.0
        sch = single_lambda_scheme(D, D, gamma_sg=gamma)
        Om = control_for_eta(sch, ETA, T_P)
        pulse = GaussianPulse(T_p=T_P)
        recs = [run_protocol(sch, pulse,
                             timeline_for_protocol(Om, Om, T_P, KAPPA, t_s=ts))
                for ts in (0.0, t_s)]
        ratio = recs[1].energies["converted"] / recs[0].energies["converted"]
        assert ratio == pytest.approx(math.exp(-2.0 * gamma * t_s), rel=1e-6)

    def test_read_ramp_insensitivity(self, fig2):
        """Converted energy stays put across the sanctioned ramp window.

        This holds in the matched-depth regime tested here; at depth ratio
        0.1 the swing grows past 1% (see the regime-limit test below).
        """
        sch, Om, pulse, tl, rec = fig2
        energies = [rec.energies["converted"]]
        for frac in (0.02, 0.1):
            tlf = timeline_for_protocol(Om, Om, T_P, KAPPA,
                                        ramp_fraction=frac)
            energies.append(run_protocol(sch, pulse, tlf).energies["converted"])
        assert max(energies) / min(energies) - 1.0 < 0.01

    def test_ramp_sensitivity_grows_at_narrow_read_window(self):
        """Documented regime limit: at D_c/D_p = 0.1 the read window is so
        narrow that the switching transient matters; the swing across the
        same ramp window is a few percent (measured 2.2%)."""
        sch = single_lambda_scheme(100.0, 10.0)
        Om = control_for_eta(sch, ETA, T_P)
        Or = Om * math.sqrt(0.1)
        pulse = GaussianPulse(T_p=T_P)
        energies = []
        for frac in (0.05, 0.2):
            tlf = timeline_for_protocol(Om, Or, T_P, KAPPA,
                                        ramp_fraction=frac)
            energies.append(run_protocol(sch, pulse, tlf).energies["converted"])
        swing = max(energies) / min(energies) - 1.0
        assert 0.01 < swing < 0.05

    def test_energy_bookkeeping(self, fig2):
        sch, Om, pulse, tl, rec = fig2
        en = rec.energies
        # recorded input is a trapezoid over the finite run window, so the
        # clipped Gaussian tails cost about 1e-6 against the closed form
        assert en["input"] == pytest.approx(pulse.energy, rel=1e-4)
        assert en["dissipated"] > -5e-3 * en["input"]
        assert en["converted"] <= en["stored_equivalent"] * (1 + 1e-9)
        assert en["stored_equivalent"] <= en["input"] * (1 + 1e-9)
        closure = (en["transmitted"] + en["converted"]
                   + en["residual_stored"] + en["dissipated"])
        assert closure == pytest.approx(en["input"], rel=1e-12)


class TestSlowLight:
    def test_exit_peak_at_group_delay(self):
        sch = single_lambda_scheme(D, D)
        eta = 0.25
        Om = control_for_eta(sch, eta, T_P)
        rec = run_protocol(sch, GaussianPulse(T_p=T_P),
                           ControlTimeline(Omega_w0=Om))
        i = int(np.argmax(np.abs(rec.probe_exit)))
        shift = abs(rec.t_exit[i] - eta * T_P) / rec.diagnostics["dt"]
        assert shift < 2.0

    def test_automatic_run_length(self):
        """Group delay plus six widths of the pulse broadened through the
        whole medium."""
        sch = single_lambda_scheme(D, D)
        Om = control_for_eta(sch, 4.0, T_P)
        rec = run_protocol(sch, GaussianPulse(T_p=T_P),
                           ControlTimeline(Omega_w0=Om), grid=(16, 0))
        write = write_channel(sch, Om, T_P, KAPPA)
        assert write.beta_w(1.0) > 1.1
        assert rec.diagnostics["t_end"] == (write.T_d + 6.0 * T_P
                                            * write.beta_w(1.0))

    def test_transmission_matches_spectral_engine(self):
        sch = single_lambda_scheme(D, D)
        Om = control_for_eta(sch, 1.0, T_P)
        rec = run_protocol(sch, GaussianPulse(T_p=T_P),
                           ControlTimeline(Omega_w0=Om))
        ratio_mb = rec.energies["transmitted"] / rec.energies["input"]
        grid = SpectralGrid.for_protocol(sch, Om, T_P)
        res = transmitted_probe(sch, Om, gaussian_probe_spectrum(grid, T_P),
                                grid)
        assert ratio_mb == pytest.approx(res.energy_out / res.energy_in,
                                         rel=0.01)


class TestCrossValidation:
    def test_converted_waveform_matches_spectral_engine(self, fig2):
        """Two independent engines, one answer.

        The frequency-domain path assumes sudden switching, the time-domain
        run uses 0.2 T_p ramps, so percent-level differences remain.
        """
        sch, Om, pulse, tl, rec = fig2
        grid = SpectralGrid.for_protocol(sch, Om, T_P, Om)
        stored = stored_coherence_exact(
            sch, Om, gaussian_probe_spectrum(grid, T_P), tl.t_w, grid)
        res = converted_field_exact(sch, stored, Om, grid)
        pk_mb = np.abs(rec.converted_exit).max()
        pk_sp = np.abs(res.waveform).max()
        fw_mb = intensity_fwhm(rec.t_exit - tl.t_r, rec.converted_exit)
        fw_sp = intensity_fwhm(res.t, res.waveform)
        assert pk_mb == pytest.approx(pk_sp, rel=0.025)
        assert fw_mb == pytest.approx(fw_sp, rel=0.025)
        assert rec.energies["converted_scaled"] == pytest.approx(
            res.energy_scaled, rel=0.01)


def leakage(record):
    return record.energies["leaked"] / record.energies["input"]


class TestEfficiency:
    def test_identical_channel_ratio_is_one(self, fig2, monkeypatch):
        """The drained companion against a main run stepped up to t_end,
        so the drain error shows rather than cancels."""
        sch, Om, pulse, tl, rec = fig2
        ref = run_original_readout(sch, rec)
        assert ref.diagnostics["stop"] == "drained"
        monkeypatch.setattr(mb, "DRAIN_TOL", 0.0)
        full = run_protocol(sch, pulse, tl)
        assert full.diagnostics["stop"] == "t_end"
        xi_relative = full.energies["converted"] / ref.energies["converted"]
        assert xi_relative == pytest.approx(1.0, abs=1e-9)

    def test_total_efficiency_near_closed_form(self, fig2):
        sch, Om, pulse, tl, rec = fig2
        xi_total = rec.energies["converted"] / rec.energies["input"]
        w = write_channel(sch, Om, T_P, KAPPA)
        rep = total_efficiency(sch, w, read_channel(sch, Om, w))
        assert xi_total == pytest.approx(rep.xi_total, rel=0.03)


class TestLeakage:
    def test_negligible_when_pulse_fits(self, fig2):
        sch, Om, pulse, tl, rec = fig2
        assert leakage(rec) < 1e-4

    def test_large_when_pulse_does_not_fit(self):
        sch = single_lambda_scheme(D, D)
        Om = control_for_eta(sch, 1.0, T_P)
        rec = run_protocol(sch, GaussianPulse(T_p=T_P),
                           timeline_for_protocol(Om, Om, T_P, 0.5))
        assert leakage(rec) > 0.01


class TestNumerics:
    def test_forced_coarse_time_grid_rejected(self):
        sch = single_lambda_scheme(D, D)
        Om = control_for_eta(sch, ETA, T_P)
        with pytest.raises(StiffnessError):
            run_protocol(sch, GaussianPulse(T_p=T_P),
                         timeline_for_protocol(Om, Om, T_P, KAPPA),
                         grid=(64, 50))

    def test_too_few_space_points_rejected(self):
        sch = single_lambda_scheme(D, D)
        Om = control_for_eta(sch, ETA, T_P)
        with pytest.raises(StiffnessError):
            run_protocol(sch, GaussianPulse(T_p=T_P),
                         timeline_for_protocol(Om, Om, T_P, KAPPA),
                         grid=(4, 0))

    def test_diverged_run_rejected(self, monkeypatch):
        """A step rule without the depth rates diverges at high read depth:
        unguarded, this run returned xi_total 2.0 with dissipated -1.02 x
        input.  The energy ledger refuses it."""
        monkeypatch.setattr(mb, "DEPTH_STEP", math.inf)
        sch = single_lambda_scheme(100.0, 2500.0)
        Om = control_for_eta(sch, ETA, T_P)
        with pytest.raises(StiffnessError,
                           match=r"read-phase dt = .* \(limit \w+\)"):
            run_protocol(sch, GaussianPulse(T_p=T_P),
                         timeline_for_protocol(Om, Om, T_P, KAPPA),
                         grid=(16, 0))

    def test_grid_doubling_convergence(self):
        sch = single_lambda_scheme(D, D)
        Om = control_for_eta(sch, ETA, T_P)
        rec = run_protocol(sch, GaussianPulse(T_p=T_P),
                           timeline_for_protocol(Om, Om, T_P, KAPPA),
                           grid_check=True)
        assert rec.diagnostics["grid_converged"]
        assert rec.diagnostics["grid_doubling_rel"] < 1e-3

    def test_run_length_sizing_emits_no_validity_warning(self):
        """A read control twice the write control is outside the closed-form
        read regime; the closed form only sizes the run, so mb stays quiet."""
        sch = single_lambda_scheme(D, D)
        Om = control_for_eta(sch, ETA, T_P)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_protocol(sch, GaussianPulse(T_p=T_P),
                         timeline_for_protocol(Om, 2.0 * Om, T_P, KAPPA))
        assert not [w for w in caught
                    if issubclass(w.category, ValidityWarning)]

    def test_run_length_when_stored_pulse_overshoots(self):
        """eta < kappa puts the stored-pulse centre past the medium, where
        the closed-form read channel is undefined; the run length then
        comes from the read group delay and must still drain the medium."""
        sch = single_lambda_scheme(D, D)
        Om = control_for_eta(sch, 1.2, T_P)
        rec = run_protocol(sch, GaussianPulse(T_p=T_P),
                           timeline_for_protocol(Om, Om, T_P, KAPPA))
        e = rec.energies
        assert e["residual_stored"] < 1e-8 * e["input"]


class TestStepDecision:
    @pytest.mark.parametrize("depth, read_scale, limit", [
        (D, 1.0, "write_control"),
        (D, 2.0, "read_control"),
        (5.0, 1.0, "Gamma_w"),
    ])
    def test_limiting_rate_recorded(self, depth, read_scale, limit):
        sch = single_lambda_scheme(depth, depth)
        Om = control_for_eta(sch, ETA, T_P)
        tl = timeline_for_protocol(Om, read_scale * Om, T_P, KAPPA)
        rec = run_protocol(sch, GaussianPulse(T_p=T_P), tl, grid=(16, 0),
                           t_end=tl.t_r + 1.0)
        d = rec.diagnostics
        phase = "read" if limit == "read_control" else "write"
        assert d[f"dt_limit_{phase}"] == limit
        rate = {"write_control": abs(Om), "read_control": abs(2.0 * Om),
                "Gamma_w": 1.0}[limit]
        assert d[f"dt_max_{phase}"] == pytest.approx(0.1 / rate, rel=1e-14)
        assert d[f"dt_{phase}"] <= d[f"dt_max_{phase}"]
        steps = np.diff(rec.t_exit)
        assert np.all(steps <= max(d["dt_max_write"], d["dt_max_read"])
                      * (1 + 1e-9))


def _reference_run(scheme, pulse, timeline, rec):
    """The per-component RK4 loop the stacked state replaced.

    Three (M, n_z) coherence arrays, each field by its own trapezoid
    integral, both envelopes evaluated at every stage; run on the grid rec
    chose.  Returns the exit waveforms, sigma_sg at the write cutoff and
    the three coherences at the end.
    """
    n_z, t_axis = rec.diagnostics["n_z"], rec.t_exit
    n_t = t_axis.size
    z = np.linspace(0.0, 1.0, n_z)
    dz = z[1] - z[0]
    M = scheme.p.size
    c_p = 0.5j * scheme.alpha_p * 1.0 / 1.0
    c_c = 0.5j * scheme.alpha_c * scheme.Gamma_r / 1.0
    drive_p = 0.5j * (scheme.a_p * scheme.p)[:, None]
    drive_c = 0.5j * (scheme.a_c * scheme.p)[:, None]

    def cumtrapz(src):
        out = np.empty_like(src)
        out[0] = 0.0
        np.cumsum((src[1:] + src[:-1]) * (0.5 * dz), out=out[1:])
        return out

    def deriv(eg, e2g, sg, t):
        Ow = timeline.Omega_w(t)
        Or = timeline.Omega_r(t)
        E_p = pulse(t) + c_p * cumtrapz(scheme.a_p @ eg)
        E_c = c_c * cumtrapz(scheme.a_c @ e2g)
        d_eg = (0.5j * (scheme.a_w * Ow))[:, None] * sg \
            + drive_p * E_p[None, :] - 0.5 * 1.0 * eg
        d_e2g = (0.5j * (scheme.a_r * Or))[:, None] * sg \
            + drive_c * E_c[None, :] - 0.5 * scheme.Gamma_r * e2g
        d_sg = (0.5j * (scheme.a_w * np.conj(Ow)))[:, None] * eg \
            + (0.5j * (scheme.a_r * np.conj(Or)))[:, None] * e2g \
            - scheme.gamma_sg * sg
        return (d_eg, d_e2g, d_sg), E_p[-1], E_c[-1]

    y = [np.zeros((M, n_z), dtype=complex) for _ in range(3)]
    probe = np.empty(n_t, dtype=complex)
    conv = np.empty(n_t, dtype=complex)
    idx_w = (None if timeline.t_w is None
             else int(np.argmin(np.abs(t_axis - timeline.t_w))))
    sg_w = None
    for k in range(n_t):
        t = t_axis[k]
        if k == idx_w:
            sg_w = y[2].copy()
        k1, probe[k], conv[k] = deriv(*y, t)
        if k == n_t - 1:
            break
        dt = t_axis[k + 1] - t
        k2 = deriv(*[a + 0.5 * dt * b for a, b in zip(y, k1)], t + 0.5 * dt)[0]
        k3 = deriv(*[a + 0.5 * dt * b for a, b in zip(y, k2)], t + 0.5 * dt)[0]
        k4 = deriv(*[a + dt * b for a, b in zip(y, k3)], t + dt)[0]
        y = [a + (dt / 6.0) * (b1 + 2.0 * (b2 + b3) + b4)
             for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
    return z, probe, conv, sg_w, y


def _oracle_cases():
    pulse = GaussianPulse(T_p=T_P)
    sch = single_lambda_scheme(50.0, 50.0)
    Om = control_for_eta(sch, ETA, T_P)
    decaying = single_lambda_scheme(50.0, 25.0, gamma_sg=0.02)
    Om_d = control_for_eta(decaying, ETA, T_P)
    cesium = build_cesium_d1_scheme(
        "plus_to_minus", [0.3, 0.2, 0.1, 0.0, 0.1, 0.2, 0.1], 20.0, 20.0)
    Om_c = control_for_eta(cesium, ETA, T_P)
    return {
        "ramps": (sch, pulse, timeline_for_protocol(Om, Om, T_P, KAPPA)),
        # complex control phases tell Omega from its conjugate
        "hard-switches": (sch, pulse, timeline_for_protocol(
            Om * np.exp(0.3j), 0.7 * Om * np.exp(-1.1j), T_P, KAPPA,
            ramp_fraction=0.0)),
        "slow-light": (sch, pulse, ControlTimeline(Omega_w0=Om)),
        "gamma_sg": (decaying, pulse, timeline_for_protocol(
            Om_d, Om_d, T_P, KAPPA, t_s=1.0)),
        "cesium-empty-subsystem": (cesium, pulse, timeline_for_protocol(
            Om_c, Om_c, T_P, KAPPA)),
    }


class TestStackedStepOracle:
    """The stacked step reproduces the per-component loop to rounding.

    The loop steps up to t_end, so the runs it checks do too (DRAIN_TOL 0).
    """

    @pytest.mark.parametrize("case", list(_oracle_cases()))
    def test_matches_per_component_loop(self, case, monkeypatch):
        monkeypatch.setattr(mb, "DRAIN_TOL", 0.0)
        sch, pulse, tl = _oracle_cases()[case]
        rec = run_protocol(sch, pulse, tl, grid=(24, 0))
        assert rec.diagnostics["stop"] == "t_end"
        z, probe, conv, sg_w, y_end = _reference_run(sch, pulse, tl, rec)
        for new, old in ((rec.probe_exit, probe),
                         (rec.converted_exit, conv)):
            assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))

        t = rec.t_exit
        en = rec.energies

        def stored(sigma):
            field = CoherenceField(z=z, sigma=sigma, t=0.0)
            return (sch.alpha_p * 1.0 / 1.0
                    * np.trapezoid(field.excitation_density(sch.p), z))

        ref = {
            "transmitted": np.trapezoid(np.abs(probe) ** 2, t),
            "converted_scaled": np.trapezoid(np.abs(conv) ** 2, t),
            "stored_equivalent": 0.0 if sg_w is None else stored(sg_w),
        }
        for key, value in ref.items():
            assert en[key] == pytest.approx(value, rel=1e-12, abs=1e-300)
        # the medium is nearly empty at the end: compare on the input scale
        assert abs(en["residual_stored"] - sum(map(stored, y_end))) \
            <= 1e-12 * en["input"]


class TestPhaseSteps:
    """One uniform step per protocol phase, and the depth rates.

    The write phase runs up to the read turn-on t_r at the write channel's
    step, the read phase after it at the read channel's.  At high optical
    depth the step is bounded by the depth rates: RK4 on the discretized
    propagation diverges once dt * alpha * Gamma passes about 110.
    """

    @staticmethod
    def deep(ratio):
        """Read depth alpha_c 1500 over a write depth of 30."""
        sch = single_lambda_scheme(30.0, 1500.0)
        Om = control_for_eta(sch, ETA, T_P)
        return sch, GaussianPulse(T_p=T_P), timeline_for_protocol(
            Om, ratio * Om, T_P, KAPPA)

    def test_depth_rate_sets_read_step(self):
        """At this read depth the control rates alone allow dt * alpha_c
        Gamma_r = 131, and the run diverged (dissipated -113 x input).
        The first 100 / Gamma of the read phase show it."""
        sch, pulse, tl = self.deep(1.0)
        rec = run_protocol(sch, pulse, tl, grid=(64, 0), grid_check=True,
                           t_end=tl.t_r + 100.0)
        d = rec.diagnostics
        assert d["dt_limit_write"] == "write_control"
        assert d["dt_limit_read"] == "read_depth"
        assert d["dt_read"] * sch.alpha_c * sch.Gamma_r <= mb.DEPTH_STEP
        assert d["grid_doubling_rel"] < 0.01

    def test_deep_weak_read_is_physical(self, monkeypatch):
        """A weak read sets a long read step; without the depth rates it
        diverges, with them the energy ledger closes."""
        sch, pulse, tl = self.deep(0.5)
        rec = run_protocol(sch, pulse, tl, grid=(16, 0),
                           t_end=tl.t_r + 100.0)
        en = rec.energies
        assert rec.diagnostics["dt_limit_read"] == "read_depth"
        assert 0.0 < en["converted"] < en["stored_equivalent"]
        assert 0.0 <= en["dissipated"] < en["input"]
        monkeypatch.setattr(mb, "DEPTH_STEP", math.inf)
        with pytest.raises(StiffnessError, match="diverged"):
            run_protocol(sch, pulse, tl, grid=(16, 0), t_end=tl.t_r + 100.0)

    def test_weak_read_matches_uniform_write_step(self):
        sch = single_lambda_scheme(150.0, 150.0)
        Om = control_for_eta(sch, ETA, T_P)
        pulse = GaussianPulse(T_p=T_P)
        tl = timeline_for_protocol(Om, 0.3 * Om, T_P, KAPPA)
        rec = run_protocol(sch, pulse, tl, grid=(24, 0))
        d = rec.diagnostics
        assert d["dt_read"] > 2.0 * d["dt_write"]
        span = d["t_end"] - d["t_start"]
        n_t = int(math.ceil(span / d["dt_write"])) + 1
        uniform = run_protocol(sch, pulse, tl, grid=(24, n_t))
        assert n_t > 1.5 * d["n_t"]
        xi = [r.energies["converted"] / r.energies["input"]
              for r in (rec, uniform)]
        assert xi[0] == pytest.approx(xi[1], abs=1e-4)

    def test_grid_check_doubles_each_segment(self, monkeypatch):
        calls = []

        def spy(scheme, pulse, timeline, n_z, segments, start=None):
            calls.append((n_z, segments))
            return integrate(scheme, pulse, timeline, n_z, segments, start)

        integrate = mb._integrate
        monkeypatch.setattr(mb, "_integrate", spy)
        sch = single_lambda_scheme(50.0, 50.0)
        Om = control_for_eta(sch, ETA, T_P)
        tl = timeline_for_protocol(Om, 0.5 * Om, T_P, KAPPA)
        rec = run_protocol(sch, GaussianPulse(T_p=T_P), tl, grid=(16, 0),
                           grid_check=True, t_end=tl.t_r + 10.0)
        (n_z, coarse), (n_z_fine, fine) = calls
        assert n_z_fine == 2 * n_z
        assert len(coarse) == 2
        assert coarse[1][0] == tl.t_r
        assert fine == [(t0, 0.5 * dt, 2 * steps)
                        for t0, dt, steps in coarse]
        assert "grid_doubling_rel" in rec.diagnostics

    def test_forced_n_t_hint_meets_every_phase(self):
        """A forced n_t is one step for the whole run, so the refusal names
        the tightest phase bound and its hint runs.  Checked phase by phase
        in order, it asked for n_t >= 1347 (the write phase), and that
        grid failed the read phase."""
        sch = single_lambda_scheme(50.0, 150.0)
        Om = control_for_eta(sch, ETA, T_P)
        pulse = GaussianPulse(T_p=T_P)
        tl = timeline_for_protocol(Om, 2.0 * Om, T_P, KAPPA)
        with pytest.raises(StiffnessError,
                           match=r"read-phase .* need n_t >= \d+") as info:
            run_protocol(sch, pulse, tl, grid=(16, 50))
        n_t = int(re.search(r"need n_t >= (\d+)", str(info.value)).group(1))
        rec = run_protocol(sch, pulse, tl, grid=(16, n_t))
        assert rec.t_exit.size == n_t

    def test_forced_n_t_is_one_uniform_grid(self):
        sch = single_lambda_scheme(50.0, 50.0)
        Om = control_for_eta(sch, ETA, T_P)
        pulse = GaussianPulse(T_p=T_P)
        tl = timeline_for_protocol(Om, 2.0 * Om, T_P, KAPPA)
        t_end = tl.t_r + 10.0
        auto = run_protocol(sch, pulse, tl, grid=(16, 0), t_end=t_end)
        d = auto.diagnostics
        span = t_end - d["t_start"]
        n_t = int(math.ceil(span / d["dt_max_read"])) + 1
        rec = run_protocol(sch, pulse, tl, grid=(16, n_t), t_end=t_end)
        steps = np.diff(rec.t_exit)
        assert np.allclose(steps, steps[0], rtol=1e-9, atol=0.0)
        assert rec.diagnostics["dt_write"] == rec.diagnostics["dt_read"]
        # fine enough for the write phase, too coarse for the read phase
        n_t = int(math.ceil(span / d["dt_max_write"])) + 1
        with pytest.raises(StiffnessError,
                           match=r"read-phase stability bound .* "
                                 r"\(limit read_control\)"):
            run_protocol(sch, pulse, tl, grid=(16, n_t), t_end=t_end)


def benchmark_case(T_p_us, eta, D_p, ccp2, ratio):
    """A single-lambda protocol in the units of the convert benchmark."""
    T_p = UnitSystem(gamma_2pi_MHz=4.56).time_in(T_p_us)
    sch = single_lambda_scheme(D_p, ccp2 * D_p)
    Om = control_for_eta(sch, eta, T_p)
    return sch, GaussianPulse(T_p=T_p), timeline_for_protocol(
        Om, ratio * Om, T_p, KAPPA)


def full_companion(scheme, pulse, timeline, grid=None):
    """The original-readout run from the start, stepped up to t_end
    (DRAIN_TOL 0): the reference for the companion that resumes from the
    main run and stops once the medium is drained."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mb, "DRAIN_TOL", 0.0)
        ref = run_protocol(scheme.with_original_readout(), pulse,
                           replace(timeline, Omega_r0=timeline.Omega_w0),
                           grid=grid)
    assert ref.diagnostics["stop"] == "t_end"
    return ref


class TestCompanion:
    """run_original_readout resumes from the main record at the read
    turn-on and stops once the medium is drained."""

    @staticmethod
    def case(ramp_fraction):
        """Converted channel unlike the original one, so the companion's
        read-out differs from the main run's from the first read stage."""
        sch = single_lambda_scheme(50.0, 150.0)
        Om = control_for_eta(sch, ETA, T_P)
        return sch, GaussianPulse(T_p=T_P), timeline_for_protocol(
            Om * np.exp(0.3j), 0.7 * Om * np.exp(-1.1j), T_P, KAPPA,
            ramp_fraction=ramp_fraction)

    @pytest.mark.parametrize("ramp_fraction", [0.2, 0.0])
    def test_resumed_matches_full_companion(self, ramp_fraction):
        """Under a hard switch the last write step already sees the read
        control at its final stage, so the resume sample is the one before
        t_r; resuming at t_r itself is off by far more than 2e-9."""
        sch, pulse, tl = self.case(ramp_fraction)
        rec = run_protocol(sch, pulse, tl, grid=(24, 0))
        k, _ = rec.resume
        assert rec.t_exit[k] == pytest.approx(tl.t_r - (ramp_fraction == 0)
                                              * rec.diagnostics["dt_write"],
                                              rel=1e-12)
        comp = run_original_readout(sch, rec)
        ref = full_companion(sch, pulse, tl, grid=(24, 0))
        assert comp.energies["converted"] == pytest.approx(
            ref.energies["converted"], rel=2e-9)
        assert np.array_equal(comp.t_exit[:k + 1], rec.t_exit[:k + 1])
        # n_t counts the samples stepped from k on; the rest read zero
        stepped = k + comp.diagnostics["n_t"]
        assert stepped <= comp.t_exit.size == ref.t_exit.size
        assert not comp.converted_exit[stepped:].any()
        en = comp.energies
        closure = (en["transmitted"] + en["converted"]
                   + en["residual_stored"] + en["dissipated"])
        assert closure == pytest.approx(en["input"], rel=1e-12)
        assert en["input"] == pytest.approx(ref.energies["input"], rel=1e-12)

    def test_forced_n_t(self):
        """A forced n_t counts the shared samples and puts the rest on one
        uniform grid from the resume sample, checked against the rules of
        the phases it spans."""
        sch, pulse, tl = self.case(0.2)
        auto = run_protocol(sch, pulse, tl, grid=(16, 0))
        n_t = 2 * auto.t_exit.size
        rec = run_protocol(sch, pulse, tl, grid=(16, n_t))
        comp = run_original_readout(sch, rec, n_t=n_t)
        k, _ = rec.resume
        assert comp.t_exit.size == n_t
        steps = np.diff(comp.t_exit[k:])
        assert np.allclose(steps, steps[0], rtol=1e-9, atol=0.0)
        ref = full_companion(sch, pulse, tl, grid=(16, 0))
        assert comp.energies["converted"] == pytest.approx(
            ref.energies["converted"], rel=1e-4)
        with pytest.raises(StiffnessError,
                           match=r"stability bound .* need n_t >= \d+"):
            run_original_readout(sch, rec, n_t=k + 20)

    @pytest.mark.parametrize("T_p_us, eta, D_p, ccp2, ratio, stop", [
        (0.2, 3.5, 150.0, 1.0, 2.0, "drained"),
        (0.08, 3.0, 375.0, 0.5, 0.3, "t_end"),
    ])
    def test_drain_stop(self, T_p_us, eta, D_p, ccp2, ratio, stop):
        """A wide-band read drains the medium well before the automatic
        run length; a weak narrow-band read is still emitting there."""
        sch, pulse, tl = benchmark_case(T_p_us, eta, D_p, ccp2, ratio)
        rec = run_protocol(sch, pulse, tl, grid=(24, 0))
        comp = run_original_readout(sch, rec)
        ref = full_companion(sch, pulse, tl, grid=(24, 0))
        d = comp.diagnostics
        assert d["stop"] == stop
        assert d["t_end"] == ref.diagnostics["t_end"]
        assert comp.t_exit.size == ref.t_exit.size
        stepped = rec.resume[0] + d["n_t"]
        residual = comp.energies["residual_stored"]
        if stop == "drained":
            assert stepped < comp.t_exit.size
            assert comp.t_exit[stepped - 1] >= tl.t_r + tl.ramp
            assert residual < mb.DRAIN_TOL * pulse.energy
        else:
            assert stepped == comp.t_exit.size
            assert residual >= mb.DRAIN_TOL * pulse.energy
        assert comp.energies["converted"] == pytest.approx(
            ref.energies["converted"], rel=2e-9)

    def test_write_step_ignores_read_linewidth(self):
        """The read rows are zero in the write phase, so a broad read line
        does not shorten the write step the companion shares."""
        pulse = GaussianPulse(T_p=T_P)
        dt_write = []
        for Gamma_r in (1.0, 20.0):
            sch = single_lambda_scheme(D, D, Gamma_r=Gamma_r)
            Om = control_for_eta(sch, ETA, T_P)
            tl = timeline_for_protocol(Om, Om, T_P, KAPPA)
            rec = run_protocol(sch, pulse, tl, grid=(16, 0),
                               t_end=tl.t_r + 1.0)
            dt_write.append(rec.diagnostics["dt_write"])
        assert dt_write[0] == dt_write[1]

    def test_needs_a_read_turn_on(self):
        sch = single_lambda_scheme(D, D)
        Om = control_for_eta(sch, 1.0, T_P)
        pulse = GaussianPulse(T_p=T_P)
        tl = ControlTimeline(Omega_w0=Om)
        rec = run_protocol(sch, pulse, tl, grid=(16, 0))
        assert rec.resume is None
        with pytest.raises(ValueError, match="read turn-on"):
            run_original_readout(sch, rec)


class TestMainRunDrain:
    """A run with a read turn-on stops once the medium is drained and
    keeps its planned time axis, the exits zero after the stop."""

    # a wide-band read of the convert benchmark
    WIDE = (0.2, 3.5, 150.0, 1.0, 2.0)

    def test_wide_read_drains(self, monkeypatch):
        """Up to the stop the drained run is the full one, bit for bit."""
        sch, pulse, tl = benchmark_case(*self.WIDE)
        rec = run_protocol(sch, pulse, tl, grid=(24, 0))
        drained = mb.DRAIN_TOL * pulse.energy
        monkeypatch.setattr(mb, "DRAIN_TOL", 0.0)
        full = run_protocol(sch, pulse, tl, grid=(24, 0))
        d = rec.diagnostics
        assert (d["stop"], full.diagnostics["stop"]) == ("drained", "t_end")
        n = d["n_t"]
        assert n < rec.t_exit.size == full.diagnostics["n_t"]
        assert rec.t_exit[n - 1] >= tl.t_r + tl.ramp
        assert np.array_equal(rec.t_exit, full.t_exit)
        for new, ref in ((rec.probe_exit, full.probe_exit),
                         (rec.converted_exit, full.converted_exit)):
            assert np.array_equal(new[:n], ref[:n])
            assert not new[n:].any()
        assert rec.energies["residual_stored"] < drained
        assert rec.energies["converted"] == pytest.approx(
            full.energies["converted"], rel=1e-8)

    def test_grid_check_on_a_drained_run(self):
        sch, pulse, tl = benchmark_case(*self.WIDE)
        rec = run_protocol(sch, pulse, tl, grid=(16, 0), grid_check=True)
        d = rec.diagnostics
        assert d["stop"] == "drained"
        assert d["grid_converged"]
        assert d["grid_doubling_rel"] < 0.01

    def test_narrow_read_reaches_t_end(self):
        """A short pulse read weakly out of a shallow read channel still
        holds 3.5e-6 of the input at the automatic run length (the narrow
        convert reads, deeper, all drain)."""
        sch, pulse, tl = benchmark_case(0.02, 4.0, 100.0, 0.25, 0.3)
        rec = run_protocol(sch, pulse, tl, grid=(24, 0))
        assert rec.diagnostics["stop"] == "t_end"
        assert rec.diagnostics["n_t"] == rec.t_exit.size
