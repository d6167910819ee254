"""Closed-form linear spectrum of twisted states on the ring graphon.

A q-twisted state u = 2*pi*q*x (winding number q) of the nonlocally coupled
phase model on the band graphon of half-width kappa has a linearization
whose eigenfunctions are the Fourier modes cos(2*pi*l*x) -+ i*sin(2*pi*l*x).
The corresponding eigenvalues are

    lambda_l = p*chi1(kappa; l, q)*cos(sigma) -+ i*p*chi2(kappa; l, q)*sin(sigma)

with the window overlap integrals chi1/chi2 available in closed form, plus
an always-present simple zero eigenvalue from the phase-shift symmetry.

This module provides chi1, chi2, the kappa-derivative of chi1, the scaled
window function phi and its extremal points zeta_j, the distinguished root
zeta0 of phi = 1 (which locates the first instability of the q = q mode at
kappa = zeta0/(2*pi*q)), and eigenvalue enumeration with a stability
verdict.  The winding-free state q = 0 is the same formula: chi2 vanishes
and the spectrum is real.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from math import cos, pi, sin
from typing import Callable, Sequence

import numpy as np

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
    "write_chi_curves_csv",
    "write_spectrum_csv",
]

#: Verdict threshold: |max Re lambda| at or below this is reported "marginal".
MARGINAL_TOLERANCE = 1e-10

#: Default number of Fourier modes enumerated for a stability verdict.  The
#: eigenvalue real parts are dominated for large l by the constant term
#: -p*cos(sigma)*sin(2*pi*q*kappa)/(pi*q) (the oscillatory terms decay like
#: 1/l), so 64 modes are ample for q <= 8; overridable per call.
DEFAULT_ELL_MAX = 64

_BISECT_TOL = 1e-12


class BracketError(RuntimeError):
    """A root bracket showed no sign change (indicates a formula bug)."""


def _check_int(name: str, value, lo: int, hi: int | None = None) -> None:
    """Raise ValueError unless value is an integer (or integer array) in [lo, hi]."""
    v = np.asarray(value)
    if v.dtype.kind in "iu" and (
            v.size == 0 or (v.min() >= lo and (hi is None or v.max() <= hi))):
        return
    bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def _check_range(ok, name: str, value, interval: str) -> None:
    """Raise ValueError naming the allowed interval unless ok holds everywhere.

    For array input ok and value share a shape, and the first value outside
    the interval is named.
    """
    ok = np.asarray(ok)
    if not ok.all():
        if ok.ndim:
            value = np.asarray(value)[~ok][0].item()
        raise ValueError(f"{name} must lie in {interval}, got {value!r}")


def _validate_mode(kappa, ell, q: int) -> None:
    _check_int("ell", ell, 1)
    _check_int("q", q, 0)
    k = np.asarray(kappa)
    _check_range((0.0 < k) & (k <= 0.5), "kappa", kappa, "(0, 1/2]")


def _scalar_or_array(values):
    return float(values) if np.ndim(values) == 0 else values


def _half_window(kappa, d):
    # sin(2*pi*d*kappa)/(2*pi*d); its d -> 0 limit is kappa
    d = np.asarray(d)
    safe = np.where(d == 0, 1, d)
    return np.where(d == 0, kappa, np.sin(2 * pi * safe * kappa) / (2 * pi * safe))


def _window_integrals(kappa, ell, q):
    """The window overlaps of modes q and l, unchecked and broadcasting.

    Returns (cc, ss): the integrals over y in [-kappa, kappa] of
    cos(2*pi*q*y)*cos(2*pi*l*y) and sin(2*pi*q*y)*sin(2*pi*l*y).  chi1 is
    cc minus its l = 0 value 2*_half_window(kappa, q), chi2 is ss, and the
    normal-form coefficients a1, a2 are -ss and -cc.
    """
    minus = _half_window(kappa, np.subtract(ell, q))
    plus = _half_window(kappa, np.add(ell, q))
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
        _window_integrals(kappa, ell, q)[0] - 2.0 * _half_window(kappa, q))


def _chi1_root_callback(ell: int, q: int) -> Callable[[float], float]:
    """chi1(.; ell, q) on one float kappa, for root-finding.

    Bit-identical to chi1, without its argument checks and array handling:
    the tail sin(2*pi*q*kappa)/(pi*q) equals chi1's 2*_half_window(kappa, q)
    exactly, because doubling is exact.  The caller checks ell, q and the
    bracket once per root-find.
    """
    def half_window(kappa: float, d: int):
        return kappa if d == 0 else np.sin(2 * pi * d * kappa) / (2 * pi * d)

    def f(kappa: float) -> float:
        return float(half_window(kappa, ell - q) + half_window(kappa, ell + q)
                     - np.sin(2 * pi * q * kappa) / (pi * q))

    return f


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


def _bisect(f: Callable[[float], float], lo: float, hi: float,
            tol: float = _BISECT_TOL) -> float:
    """Bracketed bisection to absolute tolerance, plus one secant polish.

    Raises
    ------
    BracketError
        If f(lo) and f(hi) do not have opposite signs.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise BracketError(
            f"no sign change on [{lo!r}, {hi!r}]: f(lo)={flo!r}, f(hi)={fhi!r}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    # One secant step sharpens the last bisection digit; keep it bracketed.
    denom = fhi - flo
    if denom != 0.0:
        cand = lo - flo * (hi - lo) / denom
        if lo <= cand <= hi:
            return cand
    return 0.5 * (lo + hi)


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
    _check_int("j", j, 1)
    lo = (j - 1) * pi
    if j == 1:
        # The equation has a degenerate root at z = 0 (both sides -> 1);
        # start just inside, where the left side is strictly smaller.
        lo = 1e-3
    return _bisect(_extremum_equation, lo, j * pi)


def zeta0() -> float:
    """The unique root of phi(z) = 1 between the first two critical points.

    kappa = zeta0()/(2*pi*q) is where the diagonal mode l = q changes sign,
    i.e. the instability threshold of that mode.
    """
    z1 = zeta_extremum(1)
    z2 = zeta_extremum(2)
    return _bisect(lambda z: phi(z) - 1.0, z1, z2)


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
        _check_int("q", self.q, 0)
        _check_range(0.0 < self.kappa <= 0.5, "kappa", self.kappa, "(0, 1/2]")
        _check_range(-pi / 2 < self.sigma < pi / 2, "sigma", self.sigma,
                     "(-pi/2, pi/2)")
        _check_range(0.0 < self.p <= 1.0, "p", self.p, "(0, 1]")


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of the twisted-state linearization and a verdict.

    Attributes
    ----------
    eigenvalues : tuple of (complex, complex)
        Pair (lambda_l^+, lambda_l^-) for l = 1..ell_max; the two members
        are complex conjugates (equal when sigma = 0, each then carried by
        the cos and sin eigenfunctions).
    zero_mode : complex
        The always-present 0 eigenvalue (constant eigenfunction).
    verdict : str
        "linearly_stable", "unstable", or "marginal".
    max_real_part : float
        Max over modes 1..ell_max of Re lambda (the zero mode excluded).
    critical_mode : int
        Mode index attaining max_real_part.
    """

    eigenvalues: tuple = field(repr=False)
    zero_mode: complex
    verdict: str
    max_real_part: float
    critical_mode: int

    @property
    def ell_max(self) -> int:
        return len(self.eigenvalues)


def _report(re: np.ndarray, im_plus: np.ndarray,
            im_minus: np.ndarray) -> SpectrumReport:
    # eigenvalue pairs for l = 1..len(re); the first maximum wins
    crit = int(np.argmax(re))
    max_real = float(re[crit])
    if abs(max_real) <= MARGINAL_TOLERANCE:
        verdict = "marginal"
    else:
        verdict = "unstable" if max_real > 0 else "linearly_stable"
    return SpectrumReport(
        eigenvalues=tuple(zip(map(complex, re, im_plus), map(complex, re, im_minus))),
        zero_mode=0j,
        verdict=verdict,
        max_real_part=max_real,
        critical_mode=crit + 1,
    )


def eigenvalues(params: ModeParams, ell_max: int = DEFAULT_ELL_MAX) -> SpectrumReport:
    """Enumerate linearization eigenvalues of a q-twisted state.

    lambda_l^{+-} = p*chi1*cos(sigma) -+ i*p*chi2*sin(sigma) for
    l = 1..ell_max, plus the simple zero mode.  The verdict reads the max
    real part with marginal tolerance 1e-10; callers near a bifurcation
    should inspect ``max_real_part`` directly.  At q = 0 chi2 vanishes and
    lambda_l = -p*cos(sigma)*(2*kappa - sin(2*pi*l*kappa)/(pi*l)), negative
    for every l since |sin z| < z for z > 0.
    """
    _check_int("ell_max", ell_max, 1)
    kappa, q = params.kappa, params.q
    cc, ss = _window_integrals(kappa, np.arange(1, ell_max + 1), q)
    re = params.p * (cc - 2.0 * _half_window(kappa, q)) * cos(params.sigma)
    im = params.p * ss * sin(params.sigma)
    return _report(re, -im, im)


def write_chi_curves_csv(path, q: int, ell_list: Sequence[int],
                         kappa_grid: Sequence[float]) -> None:
    """Write (kappa, ell, chi1, chi2) rows for plotting mode curves."""
    kappas = np.asarray(kappa_grid, dtype=float)
    curves = [(ell, chi1(kappas, int(ell), q).tolist(),
               chi2(kappas, int(ell), q).tolist()) for ell in ell_list]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kappa", "ell", "chi1", "chi2"])
        for i, kappa in enumerate(kappas.tolist()):
            for ell, c1, c2 in curves:
                writer.writerow([repr(kappa), ell, repr(c1[i]), repr(c2[i])])


def write_spectrum_csv(path, report: SpectrumReport) -> None:
    """Write (ell, branch, re, im) eigenvalue rows; the zero mode is ell 0."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ell", "branch", "re", "im"])
        writer.writerow([0, "zero", repr(report.zero_mode.real),
                         repr(report.zero_mode.imag)])
        for ell, (lam_plus, lam_minus) in enumerate(report.eigenvalues, start=1):
            writer.writerow([ell, "plus", repr(lam_plus.real), repr(lam_plus.imag)])
            writer.writerow([ell, "minus", repr(lam_minus.real), repr(lam_minus.imag)])
