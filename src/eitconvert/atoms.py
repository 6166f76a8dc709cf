"""Atomic structure for memory-based optical conversion.

A conversion scheme is a set of independent Lambda subsystems sharing two
classical control fields.  Subsystem j couples a ground state |g_j> to an
excited state through the probe transition (Clebsch-Gordan factor a_p,j,
coupling constant g_p) and through the write control (a_w,j, Rabi frequency
Omega_w); a second excited state provides the converted transition (a_c,j,
g_c) and the read control (a_r,j, Omega_r).  Only the CG ratios
R_j^p = a_p,j/a_w,j and R_j^c = a_c,j/a_r,j and the effective optical depths
a^2 * alpha enter the propagation physics; bare coupling constants are
eliminated via g^2 N = alpha * Gamma * c / (2 L).  The medium length L is
the unit of length (positions are z/L), so it is not a field of a scheme.

The shipped concrete scheme is the cesium D1 polarization converter: ground
|F=3,m>, spin |F=4,m>, excited |F'=4,m+-1>.  A sigma+ probe from |3,m> and a
sigma+ write control from |4,m> share |F'=4,m+1>; the sigma- read control and
sigma- converted field share |F'=4,m-1>.  Swapping polarizations converts in
the opposite direction.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .cg import clebsch_gordan
from .errors import DegenerateSchemeError, SchemeError

__all__ = [
    "Direction",
    "CGTable",
    "PopulationDistribution",
    "EITChannel",
    "ConversionScheme",
    "build_cesium_d1_scheme",
    "single_lambda_scheme",
    "coherence_mismatch",
    "ZEEMAN_M",
]

ZEEMAN_M = np.arange(-3, 4)


class Direction(enum.Enum):
    """Polarization conversion direction."""

    PLUS_TO_MINUS = "plus_to_minus"
    MINUS_TO_PLUS = "minus_to_plus"

    @classmethod
    def parse(cls, text) -> "Direction":
        if isinstance(text, Direction):
            return text
        aliases = {
            "plus_to_minus": cls.PLUS_TO_MINUS,
            "minus_to_plus": cls.MINUS_TO_PLUS,
            "sigma+->sigma-": cls.PLUS_TO_MINUS,
            "sigma-->sigma+": cls.MINUS_TO_PLUS,
            "+-": cls.PLUS_TO_MINUS,
            "-+": cls.MINUS_TO_PLUS,
        }
        try:
            return aliases[str(text).strip().lower()]
        except KeyError:
            raise SchemeError(f"unknown conversion direction {text!r}") from None


def _ratio_plus(j: int) -> float:
    # signed probe/write CG ratio for the sigma+ branch, |3,j> -> |4,j>
    return -math.sqrt((4 + j) / (4 - j))


def _ratio_minus(j: int) -> float:
    return math.sqrt((4 - j) / (4 + j))


@dataclass(frozen=True)
class CGTable:
    """Cesium D1 Clebsch-Gordan data per ground Zeeman index j = -3..3.

    a_plus/a_minus are absolute probe-branch coefficients (F=3 -> F'=4,
    normalized so the stretched sigma+ transition from m=3 is exactly 1);
    r_plus/r_minus are the signed probe/control ratios in the convention of
    the standard cesium conversion table (constant normalization absorbed
    into the control Rabi frequency): a_p / CG(4,m,1,q,4,m+q) for the
    F=4 -> F'=4 control equals r * sqrt(5/7).  cesium_d1() builds the table
    once and returns that instance on every call, so its arrays are
    read-only.
    """

    j: np.ndarray
    a_plus: np.ndarray
    a_minus: np.ndarray
    r_plus: np.ndarray
    r_minus: np.ndarray

    @classmethod
    @functools.cache
    def cesium_d1(cls) -> "CGTable":
        j = ZEEMAN_M.copy()
        a_plus = np.array([clebsch_gordan(3, m, 1, +1, 4, m + 1) for m in j])
        a_minus = np.array([clebsch_gordan(3, m, 1, -1, 4, m - 1) for m in j])
        r_plus = np.array([_ratio_plus(m) for m in j])
        r_minus = np.array([_ratio_minus(m) for m in j])
        for arr in (j, a_plus, a_minus, r_plus, r_minus):
            arr.setflags(write=False)
        return cls(j=j, a_plus=a_plus, a_minus=a_minus,
                   r_plus=r_plus, r_minus=r_minus)


@dataclass(frozen=True)
class PopulationDistribution:
    """Ground-state populations over m = -3..3 (must sum to 1)."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.shape != (7,):
            raise SchemeError(f"expected 7 populations, got shape {p.shape}")
        if not np.isfinite(p).all():
            raise SchemeError("populations must be finite")
        if np.any(p < -1e-12):
            raise SchemeError("populations must be nonnegative")
        if abs(p.sum() - 1.0) > 1e-9:
            raise SchemeError(f"populations must sum to 1, got {p.sum():.12g}")
        p = np.clip(p, 0.0, None)
        p = p / p.sum()
        p.setflags(write=False)
        object.__setattr__(self, "p", p)

    @classmethod
    def isotropic(cls) -> "PopulationDistribution":
        return cls(np.full(7, 1.0 / 7.0))

    def mean_m(self) -> float:
        return float(np.dot(ZEEMAN_M, self.p))


@dataclass(frozen=True)
class EITChannel:
    """Constants of one EIT channel: a signal field and its control.

    The write channel pairs the probe with the write control (alpha_p,
    Gamma_w = 1, R^p, a_w); the read channel pairs the converted field
    with the read control (alpha_c, Gamma_r, R^c, a_r).  R and a_ctrl hold
    every subsystem; the sums and the |a_ctrl| extremes run over the
    populated ones:
        S2 = sum_j p_j R_j^2          (group-delay sum)
        S4 = sum_j p_j R_j^4 / a_j^2  (bandwidth sum, a_j the signal CG)
    """

    alpha: float
    Gamma: float
    R: np.ndarray
    a_ctrl: np.ndarray
    S2: float
    S4: float
    a_ctrl_min: float
    a_ctrl_max: float


def _ratio(a: np.ndarray, a_ctrl: np.ndarray) -> np.ndarray:
    """Read-only a / a_ctrl per subsystem, 0 where a_ctrl vanishes."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(a_ctrl != 0.0, a / a_ctrl, 0.0)
    ratio.setflags(write=False)
    return ratio


@dataclass(frozen=True)
class ConversionScheme:
    """Array-of-subsystems description of one conversion configuration.

    All rates are in units of the write channel's excited linewidth
    Gamma_w, so Gamma_w = 1 is not a field; Gamma_r is the read linewidth
    in that unit.  Lengths are in units of the medium length.  Fields
    propagate in the retarded frame, so the vacuum transit time drops
    out.  p.size is the number of subsystems.
    """

    p: np.ndarray
    a_p: np.ndarray
    a_w: np.ndarray
    a_c: np.ndarray
    a_r: np.ndarray
    alpha_p: float
    alpha_c: float
    Gamma_r: float = 1.0
    gamma_sg: float = 0.0

    def __post_init__(self):
        arrays = {}
        n = None
        for name in ("p", "a_p", "a_w", "a_c", "a_r"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise SchemeError(f"{name} must be one-dimensional")
            if n is None:
                n = arr.size
            elif arr.size != n:
                raise SchemeError("subsystem arrays must share one length")
            arr = arr.copy()
            arr.setflags(write=False)
            arrays[name] = arr
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)
        if n == 0:
            raise DegenerateSchemeError("scheme has no subsystems")
        if np.any(self.p < -1e-12):
            raise SchemeError("populations must be nonnegative")
        if abs(self.p.sum() - 1.0) > 1e-9:
            raise SchemeError("populations must sum to 1")
        populated = self.p > 0
        if np.any(populated & (self.a_w == 0.0)) or np.any(populated & (self.a_r == 0.0)):
            raise SchemeError("populated subsystem with vanishing control CG "
                              "(probe/control ratio undefined)")
        for val, name in ((self.alpha_p, "alpha_p"), (self.alpha_c, "alpha_c"),
                          (self.Gamma_r, "Gamma_r")):
            if not val > 0:
                raise SchemeError(f"{name} must be positive")
        if self.gamma_sg < 0:
            raise SchemeError("gamma_sg must be nonnegative")

    # -- derived per-subsystem quantities ------------------------------
    # The scheme is immutable, so each derived table is computed on first
    # use and kept (replace() builds a new instance with an empty cache).

    @functools.cached_property
    def R_p(self) -> np.ndarray:
        """Probe/write CG ratio per subsystem (0 where unpopulated and undefined)."""
        return _ratio(self.a_p, self.a_w)

    @functools.cached_property
    def R_c(self) -> np.ndarray:
        return _ratio(self.a_c, self.a_r)

    @property
    def energy_unit_ratio(self) -> float:
        """(g_p/g_c)^2 = alpha_p / (alpha_c Gamma_r): converts a
        converted-field energy into input-field units."""
        return self.alpha_p / (self.alpha_c * self.Gamma_r)

    def channel(self, name: str) -> EITChannel:
        """The constants of the "write" or the "read" channel."""
        if name not in ("write", "read"):
            raise SchemeError(f"channel must be 'write' or 'read', got {name!r}")
        return getattr(self, f"_{name}_channel")

    @functools.cached_property
    def _write_channel(self) -> EITChannel:
        return self._channel(self.alpha_p, 1.0, self.R_p, self.a_p, self.a_w)

    @functools.cached_property
    def _read_channel(self) -> EITChannel:
        return self._channel(self.alpha_c, self.Gamma_r, self.R_c, self.a_c,
                             self.a_r)

    def _channel(self, alpha, Gamma, R, a, a_ctrl) -> EITChannel:
        # __post_init__ guarantees a populated subsystem with nonzero a_ctrl
        mask = self.p > 0
        p, R_pop = self.p[mask], R[mask]
        a_ctrl_pop = np.abs(a_ctrl[mask])
        return EITChannel(
            alpha=alpha, Gamma=Gamma, R=R, a_ctrl=a_ctrl,
            S2=math.fsum(p * R_pop * R_pop),
            S4=math.fsum(p * R_pop**4 / a[mask]**2),
            a_ctrl_min=float(a_ctrl_pop.min()),
            a_ctrl_max=float(a_ctrl_pop.max()))

    # -- transformations -----------------------------------------------

    def with_original_readout(self) -> "ConversionScheme":
        """Companion scheme whose read/converted channel is the write channel.

        Retrieval through this scheme returns the stored excitation into the
        original probe mode; it provides the reference energy for relative
        conversion efficiencies.
        """
        return replace(self, a_c=self.a_p.copy(), a_r=self.a_w.copy(),
                       alpha_c=self.alpha_p, Gamma_r=1.0)


def build_cesium_d1_scheme(
    direction,
    populations,
    alpha_p: float,
    alpha_c: float,
    Gamma_r: float = 1.0,
    gamma_sg: float = 0.0,
) -> ConversionScheme:
    """Cesium D1 polarization-conversion scheme over the seven F=3 states.

    direction PLUS_TO_MINUS stores a sigma+ probe and retrieves sigma-;
    MINUS_TO_PLUS is the mirror image.  alpha_p/alpha_c scale the optical
    depths of the probe and converted branches (the effective depth of a
    single subsystem is a^2 * alpha).
    """
    direction = Direction.parse(direction)
    if isinstance(populations, PopulationDistribution):
        pop = populations
    else:
        pop = PopulationDistribution(np.asarray(populations, dtype=float))

    table = CGTable.cesium_d1()
    if direction is Direction.PLUS_TO_MINUS:
        a_p, r_p = table.a_plus, table.r_plus
        a_c, r_c = table.a_minus, table.r_minus
    else:
        a_p, r_p = table.a_minus, table.r_minus
        a_c, r_c = table.a_plus, table.r_plus

    return ConversionScheme(
        p=pop.p,
        a_p=a_p,
        a_w=a_p / r_p,
        a_c=a_c,
        a_r=a_c / r_c,
        alpha_p=alpha_p,
        alpha_c=alpha_c,
        Gamma_r=Gamma_r,
        gamma_sg=gamma_sg,
    )


def single_lambda_scheme(
    D_p: float,
    D_c: float,
    Gamma_r: float = 1.0,
    gamma_sg: float = 0.0,
) -> ConversionScheme:
    """One populated Lambda subsystem with unit CG values.

    D_p and D_c are the effective optical depths of the probe and converted
    branches.  Both CG ratios are 1, so the control-ratio knob is just
    Omega_r/Omega_w: other ratios would only rescale the controls.
    """
    one = np.array([1.0])
    return ConversionScheme(
        p=one, a_p=one, a_w=one, a_c=one, a_r=one,
        alpha_p=float(D_p),
        alpha_c=float(D_c),
        Gamma_r=Gamma_r,
        gamma_sg=gamma_sg,
    )


def coherence_mismatch(scheme: ConversionScheme) -> float:
    """Population-overlap factor xi_2 between write and read CG-ratio patterns.

    xi_2 = |sum_j p_j R_j^p R_j^c|^2 / (sum_j p_j (R_j^p)^2 * sum_j p_j (R_j^c)^2),
    bounded by 1 (Cauchy-Schwarz) with equality when the stored spin-wave
    pattern matches the read-out mode.  Sums use compensated summation so
    near-cancelling patterns stay accurate.
    """
    rp, rc, p = scheme.R_p, scheme.R_c, scheme.p
    num = math.fsum(p * rp * rc)
    den_p = math.fsum(p * rp * rp)
    den_c = math.fsum(p * rc * rc)
    if den_p <= 0.0 or den_c <= 0.0:
        raise DegenerateSchemeError(
            "all population rests on subsystems with vanishing CG ratios")
    return num * num / (den_p * den_c)
