"""Acceptance gate: eight primary checks, one printed verdict line each.

Each test computes its quantities, prints exactly one line of the form
``criterion N: PASS ...`` or ``criterion N: FAIL ...`` on the real stdout
(bypassing pytest capture so the verdicts always appear in the run log),
and then asserts.  The tolerances are part of the package contract; a
failing line is a genuine result, not a broken test.
"""

import math
import warnings
from fractions import Fraction

import numpy as np

from eitconvert import (
    CGTable,
    ControlTimeline,
    GaussianPulse,
    PopulationDistribution,
    PumpConfig,
    ScenarioConfig,
    SpectralGrid,
    UnitSystem,
    ValidityWarning,
    build_cesium_d1_scheme,
    coherence_mismatch,
    control_for_eta,
    converted_field_exact,
    converted_spectrum,
    evolve_pumping,
    gaussian_probe_spectrum,
    read_channel,
    relative_efficiency_multi,
    relative_efficiency_single,
    run_protocol,
    run_scenario,
    single_lambda_scheme,
    steady_state,
    stored_coherence_exact,
    time_from_spectrum,
    timeline_for_protocol,
    write_channel,
)
from eitconvert.runner import _peak_and_fwhm

UNITS = UnitSystem()
T_P = UNITS.time_in(0.2)
ETA, KAPPA = 4.0, 1.35
CCP2_POINTS = (0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0)
ISOTROPIC = PopulationDistribution.isotropic()


def verdict(capfd, line):
    """Print one always-visible verdict line, bypassing pytest capture."""
    with capfd.disabled():
        print(line, flush=True)


def scenario_doc(D, ccp2, engines):
    return ScenarioConfig.from_dict({
        "scheme": {"kind": "single-lambda", "D_p": float(D),
                   "ccp2": float(ccp2)},
        "units": {"gamma_2pi_MHz": 4.56, "T_p_us": 0.2},
        "protocol": {"eta": ETA, "kappa": KAPPA},
        "engines": list(engines),
    })


def sigma_plus_trajectory(duration_us, n_samples=161):
    config = PumpConfig(Omega_r_pump=1.2,
                        duration=UNITS.time_in(duration_us))
    return evolve_pumping(config, ISOTROPIC, n_samples=n_samples)


def _deviation(ratio, peak, fwhm, peak_ref, fwhm_ref):
    """Relative peak and FWHM deviation as a verdict row, and whether either
    exceeds the 5% bound."""
    dev_peak = peak / peak_ref - 1.0
    dev_fwhm = fwhm / fwhm_ref - 1.0
    row = f"ratio {ratio:g} peak {dev_peak:+.1%} fwhm {dev_fwhm:+.1%}"
    return row, abs(dev_peak) > 0.05 or abs(dev_fwhm) > 0.05


class TestCriterion1:
    def test_isotropic_mismatch_value_and_oracle(self, capfd):
        scheme = build_cesium_d1_scheme("minus_to_plus", ISOTROPIC,
                                        alpha_p=500.0, alpha_c=500.0)
        value = coherence_mismatch(scheme)
        num = Fraction(0)
        den_p = Fraction(0)
        den_c = Fraction(0)
        for j in range(-3, 4):
            rp2 = Fraction(4 + j, 4 - j)
            num += Fraction(1, 7)
            den_p += Fraction(1, 7) / rp2
            den_c += Fraction(1, 7) * rp2
        oracle = float(num * num / (den_p * den_c))
        in_band = abs(value - 0.2594) <= 5e-4
        matches = abs(value - oracle) < 1e-12
        ok = in_band and matches
        verdict(capfd, f"criterion 1: {'PASS' if ok else 'FAIL'} xi2 = {value:.6f} "
                f"(target 0.2594 +/- 0.0005, rational oracle "
                f"|diff| = {abs(value - oracle):.1e})")
        assert in_band, f"xi2 = {value} outside 0.2594 +/- 0.0005"
        assert matches, f"xi2 = {value} vs exact rational {oracle}"


class TestCriterion2:
    def test_mb_matches_closed_form_ratio(self, capfd):
        tolerances = {100.0: 0.08, 500.0: 0.05}
        worst = {100.0: 0.0, 500.0: 0.0}
        failures = []
        worked_example_delta = None
        for D, tol in tolerances.items():
            for r in CCP2_POINTS:
                manifest = run_scenario(
                    scenario_doc(D, r, ("analytic", "mb")), persist=False)
                mb = manifest["engines"]["mb"]["xi_relative"]
                expected = relative_efficiency_single(ETA, KAPPA, D, r * D)
                dev = mb / expected - 1.0
                worst[D] = max(worst[D], abs(dev))
                if abs(dev) > tol:
                    failures.append(f"D={D:g} ccp2={r:g} dev={dev:+.2%}")
                if D == 500.0 and r == 10.0:
                    worked_example_delta = \
                        manifest["comparison"][0]["xi_relative_delta_rel"]
        ok = not failures and abs(worked_example_delta) < 0.05
        verdict(capfd, f"criterion 2: {'PASS' if ok else 'FAIL'} max |dev| "
                f"D=500: {worst[500.0]:.2%} (<= 5%), "
                f"D=100: {worst[100.0]:.2%} (<= 8%)")
        assert not failures, "; ".join(failures)
        assert abs(worked_example_delta) < 0.05


class TestCriterion3:
    def test_converted_waveform_matches_inverse_transform(self, capfd):
        """Maxwell-Bloch against the exact inverse transform at every ratio.

        The adiabatic Gaussian closed form is held to the same bound
        wherever read_channel leaves the read channel unflagged.  Ratios 0.5
        and 1 must be unflagged, so that check always runs; ratio 2 puts the
        converted bandwidth above the excited-state linewidth and must be
        flagged.  Its closed-form deviation is still printed.
        """
        scheme = single_lambda_scheme(500.0, 500.0)
        Om_w = control_for_eta(scheme, ETA, T_P)
        write = write_channel(scheme, Om_w, T_P, KAPPA)
        pulse = GaussianPulse(T_p=T_P)
        exact_rows, model_rows, failures, flagged = [], [], [], []
        for ratio in (0.5, 1.0, 2.0):
            Om_r = ratio * Om_w
            timeline = timeline_for_protocol(Om_w, Om_r, T_P, KAPPA)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ValidityWarning)
                record = run_protocol(scheme, pulse, timeline)
                read = read_channel(scheme, Om_r, write)
            t = record.t_exit - timeline.t_r
            _, peak_mb, fwhm_mb = _peak_and_fwhm(t, record.converted_exit)

            grid = SpectralGrid.for_protocol(scheme, Om_w, T_P, Om_r)
            stored = stored_coherence_exact(
                scheme, Om_w, gaussian_probe_spectrum(grid, T_P),
                KAPPA * T_P, grid)
            exact = converted_field_exact(scheme, stored, Om_r, grid)
            if not exact.converged:
                failures.append(f"ratio {ratio:g}: exact read-out quadrature "
                                f"not converged ({exact.quadrature_delta:.1e})")
            _, peak_ex, fwhm_ex = _peak_and_fwhm(exact.t, exact.waveform)
            row, bad = _deviation(ratio, peak_mb, fwhm_mb, peak_ex, fwhm_ex)
            exact_rows.append(row)
            if bad:
                failures.append(f"vs exact transform: {row}")

            model = converted_spectrum(scheme, write, read)
            width = max(model.temporal_fwhm, 1e-9)
            t_model = model.t0 + np.linspace(-4.0, 4.0, 4097) * width
            _, peak_md, fwhm_md = _peak_and_fwhm(t_model,
                                                 model.time_waveform(t_model))
            row, bad = _deviation(ratio, peak_mb, fwhm_mb, peak_md, fwhm_md)
            if read.flags:
                flagged.append(ratio)
                row += " [flagged, not gated]"
            elif bad:
                failures.append(f"vs closed form: {row}")
            model_rows.append(row)

        if flagged != [2.0]:
            failures.append(f"read_channel flagged ratios {flagged}, "
                            "expected only ratio 2")
        ok = not failures
        verdict(capfd, f"criterion 3: {'PASS' if ok else 'FAIL'} mb vs exact "
                "transform: " + ", ".join(exact_rows) + "; closed form: "
                + ", ".join(model_rows) + " (bound 5%)")
        assert not failures, "; ".join(failures)


class TestCriterion4:
    def test_slow_light_group_delay(self, capfd):
        scheme = single_lambda_scheme(500.0, 500.0)
        eta = 0.25
        Om_w = control_for_eta(scheme, eta, T_P)
        write = write_channel(scheme, Om_w, T_P, KAPPA)
        T_d = 1.0 / write.v_w
        record = run_protocol(scheme, GaussianPulse(T_p=T_P),
                              ControlTimeline(Omega_w0=Om_w))
        i = int(np.argmax(np.abs(record.probe_exit)))
        dt = record.diagnostics["dt"]
        steps = abs(record.t_exit[i] - T_d) / dt
        ok = steps < 2.0
        verdict(capfd, f"criterion 4: {'PASS' if ok else 'FAIL'} exit peak at "
                f"{record.t_exit[i]:.4f} vs T_d = {T_d:.4f} "
                f"({steps:.2f} time steps, bound 2)")
        assert ok, f"peak {steps:.2f} steps from the group delay"


class TestCriterion5:
    def test_sigma_plus_pump_reaches_stretched_state(self, capfd):
        trajectory = sigma_plus_trajectory(2.0, n_samples=201)
        traces = trajectory.ground.sum(axis=1) + trajectory.excited_fraction
        trace_err = float(np.max(np.abs(traces - 1.0)))
        mz = trajectory.ground @ np.arange(-3.0, 4.0)
        monotone = bool(np.all(np.diff(mz) >= -1e-12))
        p3 = float(trajectory.ground[-1][6])
        config = PumpConfig(Omega_r_pump=1.2, duration=UNITS.time_in(2.0))
        ss = steady_state(config, ISOTROPIC)
        p3_ss = float(ss.p[6])
        ok = p3 > 0.99 and trace_err < 1e-9 and monotone and p3_ss > 0.99
        verdict(capfd, f"criterion 5: {'PASS' if ok else 'FAIL'} p(m=3) = {p3:.4f} "
                f"(> 0.99), steady {p3_ss:.4f}, trace error {trace_err:.1e} "
                f"(< 1e-9), mean m monotone: {monotone}")
        assert p3 > 0.99
        assert trace_err < 1e-9
        assert monotone
        assert p3_ss > 0.99


class TestCriterion6:
    def test_symmetric_populations_cancel_broadening(self, capfd):
        rng = np.random.default_rng(23)
        worst_spread = 0.0
        worst_gap = 0.0
        for _ in range(100):
            half = rng.random(4)
            p = np.concatenate([half[:0:-1], half])
            pop = PopulationDistribution(p=p / p.sum())
            scheme = build_cesium_d1_scheme("minus_to_plus", pop,
                                            alpha_p=500.0, alpha_c=500.0)
            xi2 = coherence_mismatch(scheme)
            values = [relative_efficiency_multi(scheme, eta, KAPPA)
                      for eta in (2.5, 5.0, 8.0)]
            worst_spread = max(worst_spread, np.ptp(values))
            worst_gap = max(worst_gap, max(abs(v - xi2) for v in values))

        config = PumpConfig(Omega_pi_pump=1.2, duration=UNITS.time_in(6.0))
        trajectory = evolve_pumping(config, ISOTROPIC, n_samples=301)
        xi = []
        for k in range(trajectory.ground.shape[0]):
            scheme = build_cesium_d1_scheme(
                "minus_to_plus", trajectory.distribution_at(k),
                alpha_p=500.0, alpha_c=500.0)
            xi.append(relative_efficiency_multi(scheme, ETA, KAPPA))
        xi = np.asarray(xi)
        tail = xi[len(xi) // 2:]
        monotone = bool(np.all(np.diff(tail) >= -1e-12))
        ok = (worst_spread <= 1e-10 and worst_gap <= 1e-10
              and monotone and xi[-1] > 0.95)
        verdict(capfd, f"criterion 6: {'PASS' if ok else 'FAIL'} eta spread "
                f"{worst_spread:.1e}, |xiR - xi2| {worst_gap:.1e} "
                f"(<= 1e-10); pi pump xiR -> {xi[-1]:.4f}, "
                f"late-time monotone: {monotone}")
        assert worst_spread <= 1e-10
        assert worst_gap <= 1e-10
        assert monotone
        assert xi[-1] > 0.95


class TestCriterion7:
    def test_invariant_suite(self, capfd):
        checks = []

        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(1000):
            p = rng.random(7)
            pop = PopulationDistribution(p=p / p.sum())
            scheme = build_cesium_d1_scheme("plus_to_minus", pop,
                                            alpha_p=100.0, alpha_c=100.0)
            worst = max(worst, coherence_mismatch(scheme))
        checks.append(("xi2 <= 1", worst <= 1.0 + 1e-12,
                       f"max {worst:.12f}"))

        scheme = single_lambda_scheme(100.0, 100.0)
        Om = control_for_eta(scheme, ETA, T_P)
        timeline = timeline_for_protocol(Om, Om, T_P, KAPPA)
        rec1 = run_protocol(scheme, GaussianPulse(T_p=T_P), timeline)
        rec2 = run_protocol(scheme, GaussianPulse(T_p=T_P, E0=2.0), timeline)
        scale = np.abs(rec1.converted_exit).max()
        lin_err = float(np.max(np.abs(rec2.converted_exit
                                      - 2.0 * rec1.converted_exit)) / scale)
        checks.append(("linearity", lin_err < 1e-10, f"{lin_err:.1e}"))

        grid = SpectralGrid(omega_max=30.0, n_omega=2048)
        spec = gaussian_probe_spectrum(grid, 1.7, E0=0.4 + 0.3j)
        t, wave = time_from_spectrum(grid.omega, spec)
        e_t = float((np.abs(wave) ** 2).sum() * (t[1] - t[0]))
        e_w = float((np.abs(spec) ** 2).sum() * grid.d_omega)
        parseval_err = abs(e_t / e_w - 1.0)
        checks.append(("parseval", parseval_err < 1e-8,
                       f"{parseval_err:.1e}"))

        scheme = single_lambda_scheme(500.0, 500.0)
        Om = control_for_eta(scheme, ETA, T_P)
        rec = run_protocol(scheme, GaussianPulse(T_p=T_P),
                           timeline_for_protocol(Om, Om, T_P, KAPPA),
                           grid_check=True)
        doubling = rec.diagnostics["grid_doubling_rel"]
        checks.append(("grid doubling", doubling < 5e-3, f"{doubling:.1e}"))

        gamma, t_s = 0.02, 3.0
        scheme = single_lambda_scheme(100.0, 100.0, gamma_sg=gamma)
        Om = control_for_eta(scheme, ETA, T_P)
        recs = [run_protocol(scheme, GaussianPulse(T_p=T_P),
                             timeline_for_protocol(Om, Om, T_P, KAPPA,
                                                   t_s=ts))
                for ts in (0.0, t_s)]
        ratio = recs[1].energies["converted"] / recs[0].energies["converted"]
        decay_err = abs(ratio / math.exp(-2.0 * gamma * t_s) - 1.0)
        checks.append(("storage decay", decay_err < 0.01,
                       f"{decay_err:.1e}"))

        ok = all(good for _, good, _ in checks)
        detail = ", ".join(f"{name} {note}" for name, good, note in checks)
        verdict(capfd, f"criterion 7: {'PASS' if ok else 'FAIL'} {detail}")
        for name, good, note in checks:
            assert good, f"{name}: {note}"


class TestCriterion8:
    def test_trends(self, capfd):
        etas = np.linspace(2.5, 8.0, 23)
        strong = [relative_efficiency_single(e, KAPPA, 500.0, 5000.0)
                  for e in etas]
        weak = [relative_efficiency_single(e, KAPPA, 500.0, 50.0)
                for e in etas]
        increasing = bool(np.all(np.diff(strong) > 0))
        decreasing = bool(np.all(np.diff(weak) < 0))

        trajectory = sigma_plus_trajectory(1.6)
        xi = {}
        for direction in ("minus_to_plus", "plus_to_minus"):
            values = []
            for k in (0, trajectory.ground.shape[0] - 1):
                scheme = build_cesium_d1_scheme(
                    direction, trajectory.distribution_at(k),
                    alpha_p=500.0, alpha_c=500.0)
                values.append(relative_efficiency_multi(scheme, ETA, KAPPA))
            xi[direction] = values
        equal_at_start = abs(xi["minus_to_plus"][0]
                             - xi["plus_to_minus"][0]) < 1e-12
        up_ends_high = xi["minus_to_plus"][1] > 1.0
        down_ends_low = xi["plus_to_minus"][1] < 1.0

        ok = (increasing and decreasing and equal_at_start
              and up_ends_high and down_ends_low)
        verdict(capfd, f"criterion 8: {'PASS' if ok else 'FAIL'} xiR(eta) "
                f"rising at ccp2=10: {increasing}, falling at ccp2=0.1: "
                f"{decreasing}; pump endpoints "
                f"{xi['minus_to_plus'][1]:.3f} > 1 > "
                f"{xi['plus_to_minus'][1]:.3f}, equal at t=0: "
                f"{equal_at_start}")
        assert increasing
        assert decreasing
        assert equal_at_start
        assert up_ends_high
        assert down_ends_low
