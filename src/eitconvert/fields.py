"""Shared container for a sampled ground-state coherence, and the z rule.

Both the frequency-domain propagator and the time-domain solver produce a
ground-state coherence sampled over z at one instant; it and the rule that
integrates it over z (_z_weights) are kept here so both compute alike.
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


def _z_weights(n_z: int) -> np.ndarray:
    """Cumulative weights W of the z rule on n_z uniform samples of [0, 1].

    The integral of g from 0 to z_i is sum_m g_m W[m, i], so the last
    column holds the weights over the whole medium.  Each interval
    [z_k, z_k+1] takes dz/24 (-g_k-1 + 13 g_k + 13 g_k+1 - g_k+2), the
    first one dz/24 (9 g_0 + 19 g_1 - 5 g_2 + g_3) and the last one its
    mirror: the four-point rule, fourth order in dz (Press et al.,
    Numerical Recipes, sec. 4.1).  Not cached; needs n_z >= 4.
    """
    weights = np.zeros((n_z, n_z))
    intervals = weights[:, 1:].T         # row k: [z_k, z_k+1], summed in place
    k = np.arange(1, n_z - 2)
    for shift, w in enumerate((-1.0, 13.0, 13.0, -1.0), -1):
        intervals[k, k + shift] = w
    intervals[0, :4] = (9.0, 19.0, -5.0, 1.0)
    intervals[-1, -4:] = (1.0, -5.0, 19.0, 9.0)
    np.cumsum(intervals, axis=0, out=intervals)
    weights /= 24.0 * (n_z - 1)
    return weights
