"""Tests for the 14-level optical-pumping model.

The coupling oracle is the exact rational table for an F=3 -> F'=3 line:
b(sigma+, m)^2 = (3-m)(m+4)/24 with negative sign, b(pi, m)^2 = m^2/12
with the sign of m, b(sigma-, m)^2 = (3+m)(4-m)/24 positive.  Summing the
three emission branches feeding any excited state gives exactly 1, which
is what makes the renormalized decay trace-preserving.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from eitconvert import SchemeError, StiffnessError, UnitSystem, pumping
from eitconvert.atoms import ZEEMAN_M
from eitconvert.pumping import (
    DensityMatrix14,
    PumpConfig,
    build_pump_generator,
    evolve_pumping,
    pump_couplings,
    steady_state,
)

ISO = np.full(7, 1.0 / 7.0)
FIG6_DURATION = UnitSystem().time_in(1.6)


def liouvillian(config):
    """196x196 matrix of the generator on row-major vec(rho)."""
    gen = build_pump_generator(config)
    L = np.zeros((196, 196), dtype=complex)
    basis = np.zeros((14, 14), dtype=complex)
    for j in range(196):
        basis.flat[j] = 1.0
        L[:, j] = gen(basis).ravel()
        basis.flat[j] = 0.0
    return L


def textbook_generator(config):
    """Reference generator as 14x14 operator algebra.

    -i[H, rho] + sum_k (A_k rho A_k^T - {A_k^T A_k, rho}/2), minus
    gamma_gg on the ground-ground coherences, with H and the A_k built
    from pump_couplings() directly.
    """
    b = pump_couplings()
    H = np.zeros((14, 14))
    lowering = []
    for name, q in (("sigma+", 1), ("pi", 0), ("sigma-", -1)):
        T = np.zeros((14, 14))
        for i in range(7):
            if 0 <= i + q < 7:
                T[7 + i + q, i] = b[name][i]
        H -= 0.5 * config.rabi[name] * (T + T.T)
        lowering.append(T.T)
    half_aa = 0.5 * sum(A.T @ A for A in lowering)

    def generator(rho):
        out = -1j * (H @ rho - rho @ H)
        out -= half_aa @ rho + rho @ half_aa
        for A in lowering:
            out += A @ rho @ A.T
        gg = rho[:7, :7]
        out[:7, :7] -= config.gamma_gg * (gg - np.diag(gg.diagonal()))
        return out

    return generator


def real_matrix_reference(linear_map):
    """A linear map of Hermitian rho as a real 196x196 matrix, column by
    column: column j is the map applied to the rho of the j-th unit X,
    where rho = (X + X^T)/2 + i (X - X^T)/2, read back as Re + Im."""
    out = np.empty((196, 196))
    unit = np.zeros((14, 14))
    for j in range(196):
        unit.flat[j] = 1.0
        rho = 0.5 * (unit + unit.T) + 0.5j * (unit - unit.T)
        image = linear_map(rho)
        out[:, j] = (image.real + image.imag).ravel()
        unit.flat[j] = 0.0
    return out


# the configs of TestSteadyState.test_matches_null_space, plus all three
# polarizations with dephasing and no pump at all
REFERENCE_CONFIGS = pytest.mark.parametrize("config", [
    PumpConfig(Omega_r_pump=1.2, duration=1.0),
    PumpConfig(Omega_pi_pump=1.2, duration=1.0),
    PumpConfig(Omega_pi_pump=1.2, gamma_gg=0.3, duration=1.0),
    PumpConfig(Omega_r_pump=0.1, duration=1.0),
    PumpConfig(Omega_r_pump=1.2, Omega_l_pump=1.2, duration=1.0),
    PumpConfig(Omega_r_pump=0.7, Omega_pi_pump=1.2, Omega_l_pump=0.4,
               gamma_gg=0.3, duration=1.0),
    PumpConfig(duration=1.0),
], ids=["sigma+", "pi", "pi-gamma_gg", "weak-sigma+", "sigma+sigma-",
        "all-gamma_gg", "no-pump"])


def reference_trajectory(config, rho, n_samples, dt):
    """Sample-by-sample RK4 loop on the 14x14 matrix, no step matrix."""
    gen = build_pump_generator(config)
    t = np.linspace(0.0, config.duration, n_samples)
    pops = [rho.diagonal().real.copy()]
    for k in range(1, n_samples):
        n_sub = max(1, math.ceil((t[k] - t[k - 1]) / dt - 1e-12))
        h = (t[k] - t[k - 1]) / n_sub
        for _ in range(n_sub):
            k1 = gen(rho)
            k2 = gen(rho + 0.5 * h * k1)
            k3 = gen(rho + 0.5 * h * k2)
            k4 = gen(rho + h * k3)
            rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        pops.append(rho.diagonal().real.copy())
    pops = np.array(pops)
    return pops[:, :7], pops[:, 7:].sum(axis=1), n_sub, h


def coherent_ground_state(hermitian=True):
    """A pure ground superposition: every ground-ground coherence nonzero.

    With hermitian=False the coherences below the diagonal are dropped.
    """
    amp = np.sqrt(np.linspace(1.0, 2.0, 7)) * np.exp(1j * np.arange(7))
    amp /= np.linalg.norm(amp)
    rho = np.zeros((14, 14), dtype=complex)
    rho[:7, :7] = np.outer(amp, amp.conj())
    if not hermitian:
        rho = np.triu(rho)
    return DensityMatrix14(rho=rho)


class TestCouplings:
    def test_rational_oracle(self):
        b = pump_couplings()
        for i, m in enumerate(ZEEMAN_M):
            m = int(m)
            sq_r = Fraction((3 - m) * (m + 4), 24)
            sq_l = Fraction((3 + m) * (4 - m), 24)
            sq_pi = Fraction(m * m, 12)
            assert b["sigma+"][i] == pytest.approx(
                -math.sqrt(float(sq_r)), abs=1e-14)
            assert b["sigma-"][i] == pytest.approx(
                math.sqrt(float(sq_l)), abs=1e-14)
            assert abs(b["pi"][i]) == pytest.approx(
                math.sqrt(float(sq_pi)), abs=1e-14)

    def test_pi_transition_vanishes_at_zero(self):
        assert pump_couplings()["pi"][3] == 0.0

    def test_emission_branches_complete(self):
        # every excited state decays through exactly unit total strength
        b = pump_couplings()
        for mp in range(-3, 4):
            total = 0.0
            for name, q in (("sigma+", 1), ("pi", 0), ("sigma-", -1)):
                m = mp - q
                if abs(m) <= 3:
                    total += b[name][m + 3] ** 2
            assert total == pytest.approx(1.0, abs=1e-12)


class TestGenerator:
    def test_trace_free_and_hermiticity_preserving(self):
        gen = build_pump_generator(PumpConfig(Omega_r_pump=1.2,
                                              Omega_pi_pump=0.3,
                                              duration=1.0))
        rng = np.random.default_rng(3)
        for _ in range(5):
            M = (rng.standard_normal((14, 14))
                 + 1j * rng.standard_normal((14, 14)))
            rho = M @ M.conj().T
            rho /= rho.trace()
            d = gen(rho)
            assert abs(d.trace()) < 1e-13
            assert np.max(np.abs(d - d.conj().T)) < 1e-13

    def test_mixed_ground_state_is_dark_without_pump(self):
        gen = build_pump_generator(PumpConfig(duration=1.0))
        rho = DensityMatrix14.from_ground_populations(ISO).rho
        assert np.max(np.abs(gen(rho))) == 0.0

    def test_edge_state_dark_under_its_polarization(self):
        # sigma- cannot push m = -3 down, sigma+ cannot push m = +3 up
        lo = np.zeros(7)
        lo[0] = 1.0
        hi = np.zeros(7)
        hi[6] = 1.0
        gen_l = build_pump_generator(PumpConfig(Omega_l_pump=1.2,
                                                duration=1.0))
        gen_r = build_pump_generator(PumpConfig(Omega_r_pump=1.2,
                                                duration=1.0))
        assert np.max(np.abs(gen_l(
            DensityMatrix14.from_ground_populations(lo).rho))) == 0.0
        assert np.max(np.abs(gen_r(
            DensityMatrix14.from_ground_populations(hi).rho))) == 0.0

    @REFERENCE_CONFIGS
    def test_matches_textbook_form(self, config):
        gen = build_pump_generator(config)
        ref = textbook_generator(config)
        rng = np.random.default_rng(5)
        for _ in range(5):
            rho = (rng.standard_normal((14, 14))
                   + 1j * rng.standard_normal((14, 14)))
            assert np.max(np.abs(gen(rho) - ref(rho))) < 1e-14

    @REFERENCE_CONFIGS
    def test_real_form_matches_basis_loop(self, config):
        ref = real_matrix_reference(textbook_generator(config))
        assert np.max(np.abs(pumping._real_generator(config) - ref)) < 1e-14

    def test_unique_kernel_is_stretched_state(self):
        """SVD null space of the full Liouvillian for a sigma+ pump."""
        gen = build_pump_generator(PumpConfig(Omega_r_pump=1.2,
                                              duration=1.0))
        n = 14
        L = np.zeros((n * n, n * n), dtype=complex)
        for a in range(n):
            for b in range(n):
                basis = np.zeros((n, n), dtype=complex)
                basis[a, b] = 1.0
                L[:, a * n + b] = gen(basis).ravel()
        sv = np.linalg.svd(L, compute_uv=False)
        assert int(np.sum(sv < 1e-10)) == 1
        _, _, vh = np.linalg.svd(L)
        kernel = vh[-1].conj().reshape(n, n)
        kernel = kernel / kernel.trace()
        target = np.zeros((n, n))
        target[6, 6] = 1.0
        assert np.max(np.abs(kernel - target)) < 1e-12


def count_generator_calls(monkeypatch):
    """List that grows by one per call of any generator built from now."""
    calls = []
    build = pumping.build_pump_generator

    def counted_build(config):
        generator = build(config)

        def counted(rho):
            calls.append(1)
            return generator(rho)

        return counted

    monkeypatch.setattr(pumping, "build_pump_generator", counted_build)
    return calls


class TestGeneratorTable:
    @pytest.mark.parametrize("duration, n_samples, n_sub", [
        (2.0, 61, 1),
        (6.0, 13, 12),
    ])
    def test_propagation_makes_no_generator_call(self, monkeypatch, duration,
                                                 n_samples, n_sub):
        calls = count_generator_calls(monkeypatch)
        config = PumpConfig(Omega_r_pump=1.2, duration=duration)
        traj = evolve_pumping(config, ISO, n_samples=n_samples)
        steady_state(config, ISO)
        assert traj.substeps == n_sub
        assert calls == []

    def test_second_build_computes_no_coupling(self, monkeypatch):
        build_pump_generator(PumpConfig(duration=1.0))
        calls = []
        cg = pumping.clebsch_gordan
        monkeypatch.setattr(pumping, "clebsch_gordan",
                            lambda *args: calls.append(args) or cg(*args))
        build_pump_generator(PumpConfig(Omega_r_pump=1.2, duration=1.0))
        assert calls == []

    def test_written_couplings_leave_generator_unchanged(self):
        config = PumpConfig(Omega_r_pump=1.2, Omega_pi_pump=0.3,
                            gamma_gg=0.3, duration=1.0)
        rho = coherent_ground_state().rho
        before = build_pump_generator(config)(rho)
        for b in pump_couplings().values():
            b[:] = 7.0
        assert np.array_equal(build_pump_generator(config)(rho), before)
        assert pump_couplings()["pi"][3] == 0.0


class TestEvolution:
    def test_pure_decay(self):
        rho = np.zeros((14, 14), dtype=complex)
        rho[10, 10] = 1.0
        cfg = PumpConfig(duration=8.0)
        traj = evolve_pumping(cfg, DensityMatrix14(rho=rho))
        assert traj.excited_fraction[-1] == pytest.approx(math.exp(-8.0),
                                                          rel=1e-5)
        total = traj.ground[-1].sum() + traj.excited_fraction[-1]
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_sigma_plus_fig_point(self):
        cfg = PumpConfig(Omega_r_pump=1.2, duration=FIG6_DURATION)
        traj = evolve_pumping(cfg, ISO)
        assert traj.ground[-1][6] > 0.98
        mz = traj.ground @ ZEEMAN_M
        assert np.all(np.diff(mz) >= -1e-12)

    def test_trace_and_positivity_along_trajectory(self):
        cfg = PumpConfig(Omega_r_pump=1.2, duration=FIG6_DURATION)
        traj = evolve_pumping(cfg, ISO)
        trace = traj.ground.sum(axis=1) + traj.excited_fraction
        assert np.max(np.abs(trace - 1.0)) < 1e-9
        assert traj.ground.min() > -1e-10
        assert traj.excited_fraction.min() > -1e-10

    def test_pi_pump_preserves_reflection_symmetry(self):
        cfg = PumpConfig(Omega_pi_pump=1.2, duration=FIG6_DURATION)
        traj = evolve_pumping(cfg, ISO)
        assert np.max(np.abs(traj.ground - traj.ground[:, ::-1])) < 1e-12
        # population gathers at m = 0
        assert np.argmax(traj.ground[-1]) == 3

    @pytest.mark.parametrize("config, initial", [
        (PumpConfig(Omega_r_pump=1.2, duration=6.0), ISO),
        (PumpConfig(Omega_pi_pump=1.2, duration=6.0), ISO),
        (PumpConfig(Omega_r_pump=0.7, Omega_pi_pump=1.2, gamma_gg=0.3,
                    duration=6.0), coherent_ground_state()),
        (PumpConfig(Omega_r_pump=0.7, Omega_pi_pump=1.2, gamma_gg=0.3,
                    duration=6.0), coherent_ground_state(hermitian=False)),
    ], ids=["sigma+", "pi", "coherent-gamma_gg", "non-hermitian"])
    def test_matches_stepwise_reference(self, config, initial):
        traj = evolve_pumping(config, initial, n_samples=31)
        if isinstance(initial, DensityMatrix14):
            rho = initial.rho
        else:
            rho = DensityMatrix14.from_ground_populations(initial).rho
        ground, excited, n_sub, h = reference_trajectory(config, rho, 31,
                                                         0.05 / 1.2)
        assert np.max(np.abs(traj.ground - ground)) < 1e-12
        assert np.max(np.abs(traj.excited_fraction - excited)) < 1e-12
        assert traj.substeps == n_sub
        assert traj.dt == pytest.approx(h, rel=1e-12)

    def test_unstable_step_rejected(self):
        cfg = PumpConfig(Omega_r_pump=1.2, duration=50.0)
        with pytest.raises(StiffnessError):
            evolve_pumping(cfg, ISO, n_samples=2, dt=5.0)

    def test_csv_round_trip(self, tmp_path):
        from eitconvert import read_csv
        cfg = PumpConfig(Omega_r_pump=1.2, duration=2.0)
        traj = evolve_pumping(cfg, ISO, n_samples=21)
        path = tmp_path / "pump.csv"
        traj.to_csv(path, 0.5 * traj.t)
        header, cols = read_csv(path)
        assert header[:2] == ["t", "t_us"]
        assert header[-1] == "excited_fraction"
        assert len(header) == 10
        assert np.allclose(cols["t"], traj.t)
        assert np.allclose(cols["t_us"], 0.5 * traj.t)
        assert np.allclose(cols["p_m+0"], traj.ground[:, 3])


class TestSteadyState:
    def test_sigma_plus_stretches(self):
        ss = steady_state(PumpConfig(Omega_r_pump=1.2, duration=1.0), ISO)
        assert ss.p[6] > 0.99

    def test_pi_concentrates_symmetrically(self):
        ss = steady_state(PumpConfig(Omega_pi_pump=1.2, duration=1.0), ISO)
        assert np.argmax(ss.p) == 3
        assert np.max(np.abs(ss.p - ss.p[::-1])) < 1e-9

    @pytest.mark.parametrize("config", [
        PumpConfig(Omega_r_pump=1.2, duration=1.0),
        PumpConfig(Omega_pi_pump=1.2, duration=1.0),
        PumpConfig(Omega_pi_pump=1.2, gamma_gg=0.3, duration=1.0),
        PumpConfig(Omega_r_pump=0.1, duration=1.0),
        PumpConfig(Omega_r_pump=1.2, Omega_l_pump=1.2, duration=1.0),
    ], ids=["sigma+", "pi", "pi-gamma_gg", "weak-sigma+", "sigma+sigma-"])
    def test_matches_null_space(self, config):
        """Exact steady state: L vec(rho) = 0 with unit trace."""
        trace_row = np.eye(14).ravel()
        A = np.vstack([liouvillian(config), trace_row])
        b = np.zeros(197, dtype=complex)
        b[-1] = 1.0
        vec = np.linalg.lstsq(A, b, rcond=None)[0]
        p = vec[::15].real[:7]
        ss = steady_state(config, ISO)
        assert np.max(np.abs(ss.p - p / p.sum())) < 1e-6

    def test_zero_pump_returns_input(self):
        start = np.array([0.3, 0.0, 0.1, 0.2, 0.1, 0.0, 0.3])
        ss = steady_state(PumpConfig(duration=1.0), start)
        assert np.max(np.abs(ss.p - start)) < 1e-12


class TestValidation:
    def test_config_guards(self):
        with pytest.raises(SchemeError):
            PumpConfig(Omega_r_pump=-0.1, duration=1.0)
        with pytest.raises(SchemeError):
            PumpConfig(duration=0.0)

    def test_density_matrix_guards(self):
        with pytest.raises(SchemeError):
            DensityMatrix14(rho=np.zeros((7, 7)))
        with pytest.raises(SchemeError):
            DensityMatrix14.from_ground_populations(np.ones(3))
        bad = np.zeros((14, 14), dtype=complex)
        bad[0, 0] = 0.5
        DensityMatrix14(rho=bad).validate(trace_tol=0.6)
        with pytest.raises(SchemeError):
            DensityMatrix14(rho=bad).validate()

    def test_initial_trace_checked(self):
        rho = np.zeros((14, 14), dtype=complex)
        rho[0, 0] = 0.7
        with pytest.raises(SchemeError):
            evolve_pumping(PumpConfig(duration=1.0), DensityMatrix14(rho=rho))
        with pytest.raises(SchemeError):
            steady_state(PumpConfig(duration=1.0), DensityMatrix14(rho=rho))
