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
        keeps its in-range elements.  +-inf gives nan quietly.
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
        w = np.where(inside, a, w)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(w)
    return w


def sincos(x, out=None):
    """(sin x, cos x) as 2t*d and (1 - t^2)*d, with t = tan(x/2) and d = 1/(1 + t^2).

    numpy's tan is vectorized where its sin and cos may be scalar libm calls.
    Each value is within 4.5e-16 of np.sin / np.cos, +-0 keep their sign and
    +-pi give np.sin / np.cos exactly; each element is computed by itself, so
    a row of a 2-D call is the 1-D call bit for bit.  +-inf and nan give nan
    quietly.  With out=(s, c), two float arrays of x's shape, the values are
    written into s and c, which are returned, and d is the only temporary;
    s may be x itself.  Without out, both are new arrays (scalars for a
    scalar x).  Either way each value takes the same operations in the same
    order, so the two give the same bits.
    """
    x = np.asarray(x, dtype=float)
    s, c = (np.empty_like(x), np.empty_like(x)) if out is None else out
    with np.errstate(invalid="ignore"):
        np.tan(np.multiply(0.5, x, out=s), out=s)  # s holds t
    np.multiply(s, s, out=c)  # c holds t^2
    d = np.empty_like(c)
    np.divide(1.0, np.add(1.0, c, out=d), out=d)
    np.multiply(np.multiply(2.0, s, out=s), d, out=s)
    np.multiply(np.subtract(1.0, c, out=c), d, out=c)
    if out is None and x.ndim == 0:
        return s[()], c[()]
    return s, c


def resultant(angles):
    """Mean resultant vector (1/n) sum_k exp(i angle_k) along the last axis.

    A complex number for 1-D input, one per row for 2-D input, formed as
    mean(cos) + i*mean(sin) from sincos; an angle of +-inf makes it nan
    quietly.  Each mean is np.add.reduce over the row divided by n, the sum
    and true division np.mean performs on float64, without its wrapper.
    """
    s, c = sincos(angles)
    n = s.shape[-1]
    z = np.add.reduce(c, axis=-1) / n + 1j * (np.add.reduce(s, axis=-1) / n)
    return complex(z) if z.ndim == 0 else z
