"""Small circular-statistics helpers shared by the dynamics and analysis code.

Angles are radians. Wrapped values live in the half-open interval (-pi, pi].
"""

from __future__ import annotations

import numpy as np

__all__ = ["wrap_angle", "resultant"]


def wrap_angle(x):
    """Wrap angle(s) into (-pi, pi].

    Parameters
    ----------
    x : float or ndarray
        Angle(s) in radians.

    Returns
    -------
    float or ndarray
        Wrapped angle(s); exactly pi maps to pi, not -pi.
    """
    w = np.mod(np.asarray(x, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    # np.mod lands on [-pi, pi); move the -pi edge to +pi.
    w = np.where(w <= -np.pi, w + 2.0 * np.pi, w)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(w)
    return w


def resultant(angles):
    """Mean resultant vector (1/n) sum_k exp(i angle_k) along the last axis.

    A complex number for 1-D input, one per row for 2-D input.
    """
    z = np.mean(np.exp(1j * np.asarray(angles, dtype=float)), axis=-1)
    return complex(z) if z.ndim == 0 else z
