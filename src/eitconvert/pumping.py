"""Zeeman optical pumping on the F=3 -> F'=3 line.

Fourteen levels: seven ground states |g,m> and seven excited states |e,m>
with m = -3..3.  Pump fields of the three polarizations drive |g,m> ->
|e,m+q> (q = +1, 0, -1 for sigma+, pi, sigma-) with Rabi frequency
Omega_q b_{q,m}, where b is the coupling coefficient of the line.  Decay
is a Lindblad dissipator built from the same coefficients, renormalized so
every excited state relaxes back into the F=3 manifold at the full rate
Gamma, the unit of every rate, Rabi frequency and inverse time here; the
three emission channels then branch proportionally to b^2 and the
evolution preserves trace and positivity by construction.

The m = 0 pi transition vanishes on an F -> F' = F line, which is what
makes pi pumping pile population up at m = 0 and sigma+ pumping push it to
the m = +3 edge.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .arrayio import write_csv
from .atoms import ZEEMAN_M, PopulationDistribution
from .cg import clebsch_gordan
from .errors import SchemeError, StiffnessError

__all__ = [
    "PumpConfig",
    "DensityMatrix14",
    "PumpTrajectory",
    "build_pump_generator",
    "evolve_pumping",
    "steady_state",
]

_N_G = 7
_N = 14
_POLARIZATIONS = {"sigma+": 1, "pi": 0, "sigma-": -1}


@functools.cache
def _transitions() -> dict:
    """Transition matrices T_q[e(m+q), g(m)] = b_{q,m} per polarization.

    Built once and read-only, as every generator shares them.
    """
    out = {}
    for name, q in _POLARIZATIONS.items():
        T = np.zeros((_N, _N))
        for i, m in enumerate(ZEEMAN_M):
            if abs(m + q) <= 3:
                T[_N_G + i + q, i] = clebsch_gordan(3, m, 1, q, 3, m + q)
        T.setflags(write=False)
        out[name] = T
    return out


@dataclass(frozen=True)
class PumpConfig:
    """Pump strengths, run length and ground dephasing, in units of the
    excited decay rate Gamma (so Gamma = 1 is not a field)."""

    Omega_r_pump: float = 0.0
    Omega_pi_pump: float = 0.0
    Omega_l_pump: float = 0.0
    duration: float = 10.0
    gamma_gg: float = 0.0

    def __post_init__(self):
        for name in ("Omega_r_pump", "Omega_pi_pump", "Omega_l_pump"):
            if getattr(self, name) < 0:
                raise SchemeError(f"{name} must be nonnegative")
        if not self.duration > 0:
            raise SchemeError("duration must be positive")
        if self.gamma_gg < 0:
            raise SchemeError("gamma_gg must be nonnegative")

    @property
    def rabi(self) -> dict:
        """Rabi frequencies keyed by polarization name."""
        return {
            "sigma+": self.Omega_r_pump,
            "pi": self.Omega_pi_pump,
            "sigma-": self.Omega_l_pump,
        }


@dataclass(frozen=True)
class DensityMatrix14:
    """State of the 14-level system, checked to be 14x14.

    Basis order: |g,-3>..|g,3>, |e,-3>..|e,3>.
    """

    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (_N, _N):
            raise SchemeError(f"expected a 14x14 matrix, got {rho.shape}")
        object.__setattr__(self, "rho", rho)

    @classmethod
    def from_ground_populations(cls, populations) -> "DensityMatrix14":
        if isinstance(populations, PopulationDistribution):
            populations = populations.p
        p = np.asarray(populations, dtype=float)
        if p.shape != (_N_G,):
            raise SchemeError(f"expected 7 ground populations, got {p.shape}")
        rho = np.zeros((_N, _N), dtype=complex)
        rho[np.arange(_N_G), np.arange(_N_G)] = p
        return cls(rho=rho)

    @property
    def trace(self) -> float:
        return float(self.rho.trace().real)


def _superoperator(config: PumpConfig):
    """Real and imaginary parts S_r, S_i of the generator on row-major
    vec(rho): -i[H, rho] + sum_k (A_k rho A_k^T - {K, rho}) with the pump
    Hamiltonian H in the rotating frame at resonance, the renormalized
    decay channels A_k, K = sum_k A_k^T A_k / 2, and an optional dephasing
    gamma_gg of the ground-ground coherences.  All are real, H and K
    symmetric, so vec(A rho B) = (A kron B^T) vec(rho) gives S_r =
    sum_k A_k kron A_k - K kron I - I kron K - gamma_gg (on the ground
    off-diagonal entries) and S_i = I kron H - H kron I.
    """
    table = _transitions()
    drive = -0.5 * sum(config.rabi[name] * T for name, T in table.items())
    H = drive + drive.T
    lowering = [T.T for T in table.values()]
    # sum A^T A is the excited projector
    K = 0.5 * sum(A.T @ A for A in lowering)
    eye = np.eye(_N)
    # in place after the first sum: no more than three 196x196 arrays
    s_r = sum(np.kron(A, A) for A in lowering)
    s_r -= np.kron(K, eye)
    s_r -= np.kron(eye, K)
    dephased = config.gamma_gg * np.pad(1.0 - np.eye(_N_G), (0, _N - _N_G))
    s_r.flat[::_N * _N + 1] -= dephased.ravel()
    s_i = np.kron(eye, H)
    s_i -= np.kron(H, eye)
    return s_r, s_i


def build_pump_generator(config: PumpConfig):
    """Right-hand side rho -> drho/dt for the pumped 14-level system,
    the superoperator of _superoperator applied to vec(rho)."""
    s_r, s_i = _superoperator(config)
    superop = s_r + 1j * s_i
    return lambda rho: (superop @ np.ravel(rho)).reshape(_N, _N)


@dataclass(frozen=True)
class PumpTrajectory:
    """Uniformly sampled populations along a pumping run."""

    t: np.ndarray
    ground: np.ndarray          # (n_samples, 7)
    excited_fraction: np.ndarray
    dt: float | None = None     # RK4 substep taken, Gamma^-1 units
    substeps: int | None = None  # RK4 substeps per sample interval

    @property
    def final(self) -> PopulationDistribution:
        return self.distribution_at(-1)

    def distribution_at(self, index: int) -> PopulationDistribution:
        p = self.ground[index]
        return PopulationDistribution(p=p / p.sum())

    def to_csv(self, path, t_us) -> None:
        """Write the columns t, t_us (the sample times in microseconds),
        the ground populations and the excited fraction."""
        cols = [self.t, t_us]
        header = ["t", "t_us"]
        for i, m in enumerate(ZEEMAN_M):
            header.append(f"p_m{m:+d}")
            cols.append(self.ground[:, i])
        header.append("excited_fraction")
        cols.append(self.excited_fraction)
        write_csv(path, header, cols)


def _real_generator(config: PumpConfig) -> np.ndarray:
    """The generator on Hermitian rho as a real 196x196 matrix.

    A Hermitian rho is stored as X = Re(rho) + Im(rho), flattened row by
    row; its diagonal holds the populations, and rho = (X + X^T)/2 +
    i (X - X^T)/2, so the image is X' = S_r X + S_i X^T: S_r plus S_i with
    the column index (a, b) read as (b, a).  Real arithmetic halves the
    work of the complex form, and the real product stays in one BLAS
    thread, where a complex one of this size is split across threads that
    stall when the cores are busy.
    """
    s_r, s_i = _superoperator(config)
    real = s_r.reshape((_N,) * 4)
    real += s_i.reshape((_N,) * 4).transpose(0, 1, 3, 2)
    return s_r


def _initial_vector(initial) -> np.ndarray:
    """Real form X of an initial state, checked to have unit trace.

    The populations and the trace are real parts of the diagonal, which
    the generator evolves from the Hermitian part of rho alone.
    """
    if not isinstance(initial, DensityMatrix14):
        initial = DensityMatrix14.from_ground_populations(initial)
    if abs(initial.trace - 1.0) > 1e-9:
        raise SchemeError("initial state must have unit trace")
    herm = 0.5 * (initial.rho + initial.rho.conj().T)
    return (herm.real + herm.imag).ravel()


def _max_rate(config: PumpConfig) -> float:
    return max(1.0, *(abs(v) for v in config.rabi.values()))


def evolve_pumping(config: PumpConfig, initial,
                   n_samples: int = 201,
                   dt: float | None = None) -> PumpTrajectory:
    """Integrate the pumped system over config.duration.

    initial may be a PopulationDistribution, a 7-array of ground
    populations, or a DensityMatrix14.  Samples are taken on a uniform
    grid of n_samples points including both endpoints.  Each sample
    interval is split into the fewest RK4 substeps no longer than dt.
    The generator does not depend on time, so it is built once as a real
    196x196 matrix on the 196 real numbers of rho, the substep is a
    polynomial in that matrix raised once to the number of substeps, and
    every sample interval is one matrix-vector product.  A trace drift
    beyond 1e-6 aborts with StiffnessError, since the generator conserves
    trace exactly and any drift is integration error.
    """
    vec = _initial_vector(initial)
    if n_samples < 2:
        raise SchemeError("n_samples must be at least 2")

    if dt is None:
        dt = 0.05 / _max_rate(config)
    t_samples = np.linspace(0.0, config.duration, n_samples)
    interval = config.duration / (n_samples - 1)
    n_sub = max(1, math.ceil(interval / dt - 1e-12))
    h = interval / n_sub
    # for a constant linear generator L an RK4 substep is exactly the
    # Taylor polynomial I + hL(I + hL/2(I + hL/3(I + hL/4))), built here
    # by Horner's rule in place: no more than three 196x196 arrays
    hL = h * _real_generator(config)
    step = hL / 4.0
    step.flat[::_N * _N + 1] += 1.0
    term = np.empty_like(step)
    for c in (3.0, 2.0, 1.0):
        np.matmul(hL, step, out=term)
        term /= c
        term.flat[::_N * _N + 1] += 1.0
        step, term = term, step
    # matrix_power holds up to three more arrays; free the two spare ones
    del hL, term
    propagator = np.linalg.matrix_power(step, n_sub)
    pops = np.empty((n_samples, _N))
    pops[0] = vec[::_N + 1]
    for k in range(1, n_samples):
        vec = propagator @ vec
        pops[k] = vec[::_N + 1]
        tr = pops[k].sum()
        if not abs(tr - 1.0) <= 1e-6:
            # written so a NaN trace (diverged step) also lands here
            raise StiffnessError(
                f"trace drifted to {tr:.8f} by t = {t_samples[k]:.3f}; "
                f"reduce dt (currently {dt:.3e})")

    return PumpTrajectory(t=t_samples, ground=pops[:, :_N_G],
                          excited_fraction=pops[:, _N_G:].sum(axis=1),
                          dt=h, substeps=n_sub)


def steady_state(config: PumpConfig, initial) -> PopulationDistribution:
    """Ground populations that pumping from initial settles into.

    The generator is built once as a real 196x196 matrix L on the real
    form of rho (see _real_generator), and the state is the weighted time
    average s * integral of exp(-s t) x(t) dt = s (sI - L)^-1 x(0), one
    linear solve, with s = 1e-14 times the fastest rate.  sI - L is
    invertible for every s > 0 and s (sI - L)^-1 preserves the trace, so
    there is no branch: with no pump a dark initial state comes back
    unchanged, and otherwise the average is the long-time limit (the
    projection of x(0) onto the kernel of L) up to terms of order s over
    the slowest nonzero relaxation rate.  Against the exact projection
    (from an SVD of L) the populations agree to 4e-13 at Omega 1.2 Gamma
    and 1e-9 at 0.01 Gamma.
    """
    x0 = _initial_vector(initial)
    shifted = _real_generator(config)
    s = 1e-14 * _max_rate(config)
    # sI - L in place: a second 196x196 copy shows in the peak memory
    np.negative(shifted, out=shifted)
    shifted.flat[::_N * _N + 1] += s
    vec = s * np.linalg.solve(shifted, x0)
    p = np.maximum(vec[:_N_G * (_N + 1):_N + 1], 0.0)
    return PopulationDistribution(p=p / p.sum())
