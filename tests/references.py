"""Closed-form references shared by the test modules.

The Gaussian spin wave that the write stage leaves in the medium, in the
adiabatic large-depth model: test_theory checks its shape, test_spectral
checks the exact stored coherence against it.
"""

import math
from dataclasses import dataclass

import numpy as np

LN2 = math.log(2.0)


@dataclass(frozen=True)
class StoredCoherenceProfile:
    """Gaussian spin wave per subsystem after the write cut.

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


def stored_coherence_profile(scheme, write, E0=1.0) -> StoredCoherenceProfile:
    """Stored ground-state coherence at the write cutoff, closed form.

    amplitude_j = -E0 p_j R_j^p / (Omega_w beta_w), centred at
    z_mid = v_w t_w with spatial FWHM L_w beta_w (write is the
    WriteChannelParams of the run).
    """
    amp = -E0 * scheme.p * scheme.R_p / (write.Omega_w * write.beta_w_mid)
    return StoredCoherenceProfile(amplitude=amp.astype(complex),
                                  center=write.z_mid,
                                  fwhm=write.L_w * write.beta_w_mid)
