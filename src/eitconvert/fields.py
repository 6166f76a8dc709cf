"""Shared container for a sampled ground-state coherence.

Both the frequency-domain propagator and the time-domain solver produce a
ground-state coherence sampled over z at one instant.  It is kept here so
the stored excitation of either engine is computed the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CoherenceField"]


@dataclass(frozen=True)
class CoherenceField:
    """Ground-state coherence sigma_j(z) of every subsystem at time t.

    sigma has shape (n_subsystems, n_z); row order follows the scheme's
    subsystem index array.
    """

    z: np.ndarray
    sigma: np.ndarray
    t: float

    def __post_init__(self):
        if self.sigma.ndim != 2 or self.sigma.shape[1] != self.z.size:
            raise ValueError("sigma must have shape (n_subsystems, n_z)")

    def excitation_density(self, populations: np.ndarray) -> np.ndarray:
        """Population-normalized excitation density sum_j |sigma_j|^2 / p_j.

        Subsystems with zero population carry no coherence and are skipped.
        """
        populations = np.asarray(populations)
        populated = populations > 0
        return (np.abs(self.sigma[populated]) ** 2
                / populations[populated, None]).sum(axis=0)
