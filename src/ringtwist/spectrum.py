"""Closed-form linear spectrum of twisted states on the ring graphon.

A q-twisted state u = 2*pi*q*x (winding number q) of the nonlocally coupled
phase model on the band graphon of half-width kappa has a linearization
whose eigenfunctions are the Fourier modes cos(2*pi*l*x) -+ i*sin(2*pi*l*x).
The corresponding eigenvalues are

    lambda_l = p*chi1(kappa; l, q)*cos(sigma) -+ i*p*chi2(kappa; l, q)*sin(sigma)

with chi1/chi2 read off the window overlap integrals in closed form (chi1
is the cos-cos integral minus its own l = 0 entry, chi2 the sin-sin
integral), plus an always-present simple zero eigenvalue from the
phase-shift symmetry.

This module provides chi1, chi2, the kappa-derivative of chi1, the scaled
window function phi and its extremal points zeta_j, the distinguished root
zeta0 of phi = 1 (which locates the first instability of the q = q mode at
kappa = zeta0/(2*pi*q)), and eigenvalue enumeration with a stability
verdict.  Every root is found by scipy's brentq on a sign-changing bracket,
and the zeros of chi1 (see bifurcation) on chi1 itself.  The winding-free
state q = 0 is the same formula: chi2 vanishes and the spectrum is real.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import cos, pi, sin
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from ._boundary import check_int, check_real, write_csv

__all__ = [
    "BracketError",
    "ModeParams",
    "SpectrumReport",
    "chi1",
    "chi2",
    "chi1_dkappa",
    "phi",
    "zeta_extremum",
    "zeta0",
    "eigenvalues",
    "write_spectrum_csv",
]

#: Verdict threshold: |max Re lambda| at or below this is reported "marginal".
MARGINAL_TOLERANCE = 1e-10

#: Default number of Fourier modes enumerated for a stability verdict.  The
#: eigenvalue real parts are dominated for large l by the constant term
#: -p*cos(sigma)*sin(2*pi*q*kappa)/(pi*q) (the oscillatory terms decay like
#: 1/l), so 64 modes are ample for q <= 8; overridable per call.
DEFAULT_ELL_MAX = 64


class BracketError(RuntimeError):
    """A root bracket showed no sign change (indicates a formula bug)."""


def _validate_mode(kappa, ell, q: int) -> None:
    check_int("ell", ell, 1)
    check_int("q", q, 0)
    check_real("kappa", kappa, 0.0, 0.5, "(]")


def _scalar_or_array(values):
    return float(values) if np.ndim(values) == 0 else values


def _half_window(kappa, d, n=None):
    # sin(2*pi*d*kappa)/(2*pi*d), kappa at d = 0; on an n-node ring, at kappa =
    # (m + 1/2)/n, the sum over its 2m + 1 offsets (1/2n)*sum cos(2*pi*d*j/n) =
    # sin(2*pi*d*kappa)/(2n*sin(pi*d/n)), n-periodic, so d goes into one period first
    if n is not None:
        d = np.mod(np.add(d, n // 2), n) - n // 2
    zero = d == 0
    safe = np.where(zero, 1, d)
    denominator = 2 * pi * safe if n is None else 2 * n * np.sin(pi * safe / n)
    return np.where(zero, kappa, np.sin(2 * pi * safe * kappa) / denominator)


def _window_integrals(kappa, ell, q, n=None):
    """The window overlaps of modes q and l, unchecked and broadcasting.

    Returns (cc, ss): the integrals over y in [-kappa, kappa] of
    cos(2*pi*q*y)*cos(2*pi*l*y) and sin(2*pi*q*y)*sin(2*pi*l*y), or given n
    their sums over the n-node band's offsets, over n.  chi1 is cc minus its
    l = 0 entry, chi2 is ss, a_coeffs are -ss and -cc.  Only this calls _half_window.
    """
    minus = _half_window(kappa, np.subtract(ell, q), n)
    plus = _half_window(kappa, np.add(ell, q), n)
    return minus + plus, minus - plus


def chi1(kappa, ell, q: int):
    """Real part factor of the mode-l eigenvalue of a q-twisted state.

    chi1(kappa; l, q) multiplies p*cos(sigma) in the eigenvalue.  Its sign
    decides linear stability of mode l: negative means damped.

    Parameters
    ----------
    kappa : float or ndarray
        Coupling window half-width, in (0, 1/2].
    ell : int or integer ndarray
        Fourier mode index (l >= 1); broadcasts against kappa.
    q : int
        Winding number (q >= 0).

    Returns
    -------
    float, or ndarray for array input
    """
    _validate_mode(kappa, ell, q)
    return _scalar_or_array(
        _window_integrals(kappa, ell, q)[0] - _window_integrals(kappa, 0, q)[0])


def chi2(kappa, ell, q: int):
    """Imaginary part factor of the mode-l eigenvalue (multiplies p*sin(sigma))."""
    _validate_mode(kappa, ell, q)
    return _scalar_or_array(_window_integrals(kappa, ell, q)[1])


def chi1_dkappa(kappa, ell, q: int):
    """Analytic derivative of chi1 with respect to kappa."""
    _validate_mode(kappa, ell, q)
    return _scalar_or_array(
        np.cos(2 * pi * np.subtract(ell, q) * kappa)
        + np.cos(2 * pi * np.add(ell, q) * kappa)
        - 2.0 * np.cos(2 * pi * q * kappa)
    )


def phi(zeta):
    """Scaled window function phi(z) = (sin z / z)*(2 - cos z), phi(0) = 1.

    Relates the diagonal mode to its own window: chi1(kappa; q, q) =
    kappa*(1 - phi(2*pi*q*kappa)).  Accepts scalars or arrays; the z -> 0
    limit is handled exactly through np.sinc.
    """
    z = np.asarray(zeta, dtype=float)
    return _scalar_or_array(np.sinc(z / np.pi) * (2.0 - np.cos(z)))


def _root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """The root of f in [lo, hi] by Brent's method (scipy's brentq).

    The tolerance is brentq's tightest: 2e-16 absolute plus 4 machine
    epsilons relative.

    Raises
    ------
    BracketError
        If f(lo) and f(hi) do not have opposite signs.
    """
    try:
        return brentq(f, lo, hi, xtol=2e-16, rtol=4 * np.finfo(float).eps)
    except ValueError as exc:
        raise BracketError(f"no sign change on [{lo!r}, {hi!r}]: {exc}") from None


def _extremum_equation(z: float) -> float:
    # Critical points of phi solve sin(z)/z = (2cos^2 z - 2cos z - 1)/(cos z - 2).
    c = cos(z)
    return sin(z) / z - (2.0 * c * c - 2.0 * c - 1.0) / (c - 2.0)


def zeta_extremum(j: int) -> float:
    """j-th positive critical point of phi, bracketed in ((j-1)*pi, j*pi).

    Parameters
    ----------
    j : int
        Index >= 1.

    Raises
    ------
    BracketError
        If the bracket shows no sign change.
    """
    check_int("j", j, 1)
    lo = (j - 1) * pi
    if j == 1:
        # The equation has a degenerate root at z = 0 (both sides -> 1);
        # start just inside, where the left side is strictly smaller.
        lo = 1e-3
    return _root(_extremum_equation, lo, j * pi)


def zeta0() -> float:
    """The unique root of phi(z) = 1 between the first two critical points.

    kappa = zeta0()/(2*pi*q) is where the diagonal mode l = q changes sign,
    i.e. the instability threshold of that mode.
    """
    z1 = zeta_extremum(1)
    z2 = zeta_extremum(2)
    return _root(lambda z: phi(z) - 1.0, z1, z2)


@dataclass(frozen=True)
class ModeParams:
    """Parameters of a twisted-state spectrum query.

    Attributes
    ----------
    q : int
        Winding number of the base twisted state (>= 0; q = 0 is the
        synchronized state).
    kappa : float
        Window half-width in (0, 1/2].
    sigma : float
        Phase-lag in (-pi/2, pi/2).
    p : float
        Coupling weight in (0, 1].
    """

    q: int = 1
    kappa: float = 0.25
    sigma: float = 0.0
    p: float = 1.0

    def __post_init__(self) -> None:
        check_int("q", self.q, 0)
        check_real("kappa", self.kappa, 0.0, 0.5, "(]")
        check_real("sigma", self.sigma, -pi / 2, pi / 2, "()")
        check_real("p", self.p, 0.0, 1.0, "(]")


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of the twisted-state linearization and a verdict.

    Attributes
    ----------
    eigenvalues : complex ndarray of shape (ell_max, 2)
        Row l - 1 holds the pair (lambda_l^+, lambda_l^-) for l = 1..ell_max;
        the two members are complex conjugates (equal when sigma = 0, each
        then carried by the cos and sin eigenfunctions).  The zero
        eigenvalue of the constant eigenfunction is always present and not
        stored.
    verdict : str
        "linearly_stable", "unstable", or "marginal".
    max_real_part : float
        Max over modes 1..ell_max of Re lambda (the zero mode excluded).
    critical_mode : int
        Mode index attaining max_real_part.
    """

    eigenvalues: np.ndarray = field(repr=False)
    verdict: str
    max_real_part: float
    critical_mode: int

    @property
    def ell_max(self) -> int:
        return len(self.eigenvalues)


def eigenvalues(params: ModeParams, ell_max: int = DEFAULT_ELL_MAX) -> SpectrumReport:
    """Enumerate linearization eigenvalues of a q-twisted state.

    lambda_l^{+-} = p*chi1*cos(sigma) -+ i*p*chi2*sin(sigma) for
    l = 1..ell_max, plus the simple zero mode.  The verdict reads the max
    real part with marginal tolerance 1e-10; callers near a bifurcation
    should inspect ``max_real_part`` directly.  At q = 0 chi2 vanishes and
    lambda_l = -p*cos(sigma)*(2*kappa - sin(2*pi*l*kappa)/(pi*l)), negative
    for every l since |sin z| < z for z > 0.
    """
    check_int("ell_max", ell_max, 1)
    cc, ss = _window_integrals(params.kappa, np.arange(ell_max + 1), params.q)
    re = params.p * (cc[1:] - cc[0]) * cos(params.sigma)
    im = params.p * ss[1:] * sin(params.sigma)
    # the parts are set separately: re + 1j*im would turn a -0.0 into 0.0
    pairs = np.empty((ell_max, 2), dtype=complex)
    pairs.real = re[:, None]
    pairs.imag[:, 0] = -im
    pairs.imag[:, 1] = im
    crit = int(re.argmax())  # the first maximum wins
    max_real = float(re[crit])
    if abs(max_real) <= MARGINAL_TOLERANCE:
        verdict = "marginal"
    else:
        verdict = "unstable" if max_real > 0 else "linearly_stable"
    return SpectrumReport(eigenvalues=pairs, verdict=verdict,
                          max_real_part=max_real, critical_mode=crit + 1)


def write_spectrum_csv(path, report: SpectrumReport) -> None:
    """Write (ell, branch, re, im) eigenvalue rows; the zero mode is ell 0."""
    write_csv(path, ["ell", "branch", "re", "im"], [[0, "zero", 0.0, 0.0]] + [
        [ell, branch, lam.real, lam.imag]
        for ell, pair in enumerate(report.eigenvalues.tolist(), start=1)
        for branch, lam in zip(("plus", "minus"), pair)])
