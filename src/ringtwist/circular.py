"""Small circular-statistics helpers shared by the dynamics and analysis code.

Angles are radians. Wrapped values live in the half-open interval (-pi, pi].
"""

from __future__ import annotations

import numpy as np

__all__ = ["wrap_angle", "sincos", "resultant"]


def wrap_angle(x):
    """Wrap angle(s) into (-pi, pi].

    Parameters
    ----------
    x : float or ndarray
        Angle(s) in radians.

    Returns
    -------
    float or ndarray
        Wrapped angle(s); exactly pi maps to pi, not -pi.  Values already
        in (-pi, pi] come back exactly and the others are shifted, each
        element by itself.  An array lying wholly in (-pi, pi] is only
        copied; any other goes through np.mod as a whole, and a select
        keeps its in-range elements if it has any.  +-inf gives nan quietly.
    """
    a = np.asarray(x, dtype=float)
    inside = (a > -np.pi) & (a <= np.pi)
    if inside.all():
        w = a.copy()
    else:
        with np.errstate(invalid="ignore"):
            w = np.mod(a + np.pi, 2.0 * np.pi) - np.pi
        # np.mod lands on [-pi, pi); move the -pi edge to +pi.
        w = np.where(w <= -np.pi, w + 2.0 * np.pi, w)
        if inside.any():
            w = np.where(inside, a, w)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(w)
    return w


def sincos(x):
    """(sin x, cos x) as 2t*d and (1 - t^2)*d, with t = tan(x/2) and d = 1/(1 + t^2).

    numpy's tan is vectorized where its sin and cos may be scalar libm calls.
    Each value is within 4.5e-16 of np.sin / np.cos, +-0 keep their sign and
    +-pi give np.sin / np.cos exactly; each element is computed by itself, so
    a row of a 2-D call is the 1-D call bit for bit.  +-inf and nan give nan
    quietly.
    """
    with np.errstate(invalid="ignore"):
        t = np.tan(0.5 * np.asarray(x, dtype=float))
    t2 = t * t
    d = 1.0 / (1.0 + t2)
    return 2.0 * t * d, (1.0 - t2) * d


def resultant(angles):
    """Mean resultant vector (1/n) sum_k exp(i angle_k) along the last axis.

    A complex number for 1-D input, one per row for 2-D input, formed as
    mean(cos) + i*mean(sin) from sincos; an angle of +-inf makes it nan
    quietly.
    """
    s, c = sincos(angles)
    z = np.mean(c, axis=-1) + 1j * np.mean(s, axis=-1)
    return complex(z) if z.ndim == 0 else z
