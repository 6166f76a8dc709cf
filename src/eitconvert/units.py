"""Physical-unit conversion at the configuration boundary.

Every engine in this package works in normalized units: rates and Rabi
frequencies in multiples of the write-channel excited decay rate Gamma_w,
times in 1/Gamma_w, lengths in medium lengths.  Conversion from laboratory
units (linewidth quoted as Gamma/2pi in MHz, times in microseconds) happens
here and nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["CS_D1_GAMMA_2PI_MHZ", "UnitSystem"]

# Cs D1 line natural linewidth, quoted as Gamma / 2pi.
CS_D1_GAMMA_2PI_MHZ = 4.56


@dataclass(frozen=True)
class UnitSystem:
    """Maps laboratory units to the internal Gamma_w = 1 system.

    gamma_2pi_MHz is the excited-state decay rate divided by 2 pi.  Since
    1 MHz = 1/us, the angular decay rate is 2 pi * gamma_2pi_MHz rad/us and
    one internal time unit equals 1/(2 pi gamma_2pi_MHz) us.
    """

    gamma_2pi_MHz: float = CS_D1_GAMMA_2PI_MHZ

    def __post_init__(self):
        if self.gamma_2pi_MHz <= 0:
            raise ValueError("gamma_2pi_MHz must be positive")

    @property
    def gamma_rad_per_us(self) -> float:
        return 2.0 * math.pi * self.gamma_2pi_MHz

    # -- times ------------------------------------------------------------

    def time_in(self, t_us: float) -> float:
        """Microseconds -> internal time (units of 1/Gamma)."""
        return t_us * self.gamma_rad_per_us

    def time_out(self, t_internal: float) -> float:
        """Internal time -> microseconds."""
        return t_internal / self.gamma_rad_per_us
