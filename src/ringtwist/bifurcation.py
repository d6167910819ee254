"""Normal-form constants and branch predictions at the twisted-state threshold.

At kappa = kappa_crit (the smallest zero of chi1(.; 1, q)) the first Fourier
mode of a q-twisted state loses linear stability.  A center-manifold
reduction collapses the dynamics near the threshold onto the radial normal
form

    rdot = mu*r - p*beta*r^3,      mu = p*cos(sigma)*chibar'*(kappa - kappa_crit),

with chibar' the kappa-derivative of chi1 at the root and beta = beta_sigma a
combination of window overlap coefficients (beta0 at zero phase-lag); at
nonzero phase-lag the mode additionally precesses at nu1.  This module
computes every constant of that reduction in closed form, reads the side,
stability and amplitude of the branch from the radial equation (see
predict_bifurcation).  The threshold and the coefficients there depend
on q alone; they are computed once per q per process, and p and sigma
only scale or combine them, so write_beta_sigma_csv takes a whole grid of
phase-lags in one array expression.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import cos, inf, nan, pi, sin, sqrt
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from ._boundary import check_int, check_real, write_csv
from .spectrum import (
    _root,
    _scalar_or_array,
    _window_integrals,
    chi1,
    chi1_dkappa,
    phi,
    zeta0,
    zeta_extremum,
)

__all__ = [
    "NoRootError",
    "NormalFormConstants",
    "BifurcationPrediction",
    "kappa_critical",
    "a_coeffs",
    "normal_form_constants",
    "predict_bifurcation",
    "constants_rows",
    "write_constants_csv",
    "write_zeta_csv",
    "write_beta_sigma_csv",
]

_SCAN_POINTS = 4096
_SCAN_LO = 1e-4
_SCAN_HI = 0.5 - 1e-12


class NoRootError(ValueError):
    """chi1(.; ell, q) has no sign change inside (0, 1/2)."""


def kappa_critical(ell: int, q: int) -> float:
    """Smallest zero of chi1(.; ell, q) in (0, 1/2) (the mode-l threshold).

    brentq solves the first bracket of a 4096-point scan whose end signs
    multiply to <= 0, to 2e-16 absolute plus 4 machine epsilons relative; it
    returns an end where chi1 is exactly 0, so a zero on the scan is its grid point.

    Raises
    ------
    NoRootError
        If chi1 keeps a constant sign on the scan interval.
    """
    grid = np.linspace(_SCAN_LO, _SCAN_HI, _SCAN_POINTS)
    sign = np.sign(chi1(grid, ell, q))
    hits = np.flatnonzero(sign[:-1] * sign[1:] <= 0.0)
    if not hits.size:
        raise NoRootError(
            f"chi1(., ell={ell}, q={q}) has constant sign on "
            f"({_SCAN_LO}, {_SCAN_HI}); no threshold exists"
        )
    i = hits[0]
    return _root(lambda k: chi1(k, ell, q), float(grid[i]), float(grid[i + 1]))


def a_coeffs(q: int, j, kappa_crit: float):
    """Window overlap coefficients (a1, a2) of mode(s) j at the threshold.

    a1 = -int_{-k}^{k} sin(2*pi*q*y)*sin(2*pi*j*y) dy and
    a2 = -int_{-k}^{k} cos(2*pi*q*y)*cos(2*pi*j*y) dy, the negated window
    integrals of the spectrum (a1 = 0 at j = 0).

    Parameters
    ----------
    q : int
        Winding number >= 1.
    j : int or integer ndarray
        Mode index >= 0.
    kappa_crit : float
        Evaluation half-width in (0, 1/2] (normally the threshold value).

    Returns
    -------
    (a1, a2) : floats, or ndarrays for array j
    """
    check_int("q", q, 1)
    check_int("j", j, 0)
    check_real("kappa_crit", kappa_crit, 0.0, 0.5, "(]")
    cc, ss = _window_integrals(kappa_crit, j, q)
    return _scalar_or_array(-ss), _scalar_or_array(-cc)


@dataclass(frozen=True)
class NormalFormConstants:
    """Everything the radial normal form at the threshold depends on.

    Attributes
    ----------
    q, p, sigma : parameters of the twisted state and coupling.
    kappa_crit : float
        Threshold half-width (smallest zero of chi1(.; 1, q)).
    chi1_dk : float
        d(chi1)/d(kappa) at the threshold (written chibar' below).
    beta1, beta2, delta1, delta2, rho0, rho1, rho2 : float
        Cubic/quadratic interaction coefficients assembled from the overlap
        coefficients a1, a2 of modes j = 0..3, which are
        a_coeffs(q, np.arange(4), kappa_crit).
        rho0 = chi1(kappa_crit; 1, q)/2 = 0 up to root-finder tolerance.
    mu_j, nu_j : tuple of float
        Linear damping p*chi1(kappa_crit; j, q)*cos(sigma) and precession
        p*chi2(kappa_crit; j, q)*sin(sigma) of modes j = 1..3 (mu_j[0] ~ 0
        by definition of the threshold).
    beta0 : float
        Effective cubic coefficient at sigma = 0:
        beta1 + delta1*rho1/chi1(kappa_crit; 2, q).  Independent of p.
    beta_sigma : float
        Effective cubic coefficient at the stored sigma (reduces to beta0
        at sigma = 0).  Independent of p.
    Omega : float
        Continuum rotation speed p*sin(2*pi*q*kappa_crit)*sin(sigma)/(pi*q)
        of the twisted state at the threshold for zero natural frequency;
        add the natural frequency for the general case.  A run on n nodes
        turns at the speed of its realized window instead (see
        Trajectory.rotation_speed).  Omega is also the branch's
        drift-corrected rotation speed: the correction
        p*rho0*sin(sigma)*chi1_dk/beta_sigma per unit (kappa - kappa_crit)
        vanishes with rho0 at the threshold.
    nu1 : float
        Modulation angular frequency of the first mode, nu_j[0].
    """

    q: int
    p: float
    sigma: float
    kappa_crit: float
    chi1_dk: float
    beta1: float
    beta2: float
    delta1: float
    delta2: float
    rho0: float
    rho1: float
    rho2: float
    mu_j: tuple[float, float, float]
    nu_j: tuple[float, float, float]
    beta0: float
    beta_sigma: float
    Omega: float
    nu1: float


@cache
def _threshold(q: int) -> tuple[Mapping, np.ndarray, np.ndarray]:
    """The values at the threshold of winding number q that need no p or sigma.

    Returns the NormalFormConstants fields among them, and
    chi1(kappa_crit; j, q) and chi2(kappa_crit; j, q) for j = 1..3, all from
    a_coeffs(q, j, kappa_crit) at j = 0..3.  They are computed
    once per q per process (_lagged passes int(q) after checking it, so at
    most 8 are held) and returned read-only: a mapping proxy and two
    non-writeable arrays shared by every caller.
    """
    kc = kappa_critical(1, q)
    a1, a2 = a_coeffs(q, np.arange(4), kc)
    chi1_j, chi2_j = a2[0] - a2[1:], -a1[1:]
    if chi1_j[1] == 0.0:
        raise ValueError(
            f"chi1(kappa_crit; 2, q={q}) = 0: the mode-2 elimination is "
            "singular at this threshold"
        )
    a1, a2 = a1.tolist(), a2.tolist()
    beta1 = 0.375 * a2[0] - 0.5 * a2[1] + 0.125 * a2[2]
    delta1 = a1[1] - 0.5 * a1[2]
    rho1 = 0.5 * a1[1] - 0.25 * a1[2]
    values = dict(
        kappa_crit=kc, chi1_dk=chi1_dkappa(kc, 1, q),
        beta1=beta1, beta2=0.25 * a1[1] - 0.125 * a1[2],
        delta1=delta1, delta2=0.5 * a2[0] - 0.5 * a2[2],
        rho0=0.5 * (a2[0] - a2[1]), rho1=rho1,
        rho2=0.25 * a2[0] - 0.5 * a2[1] + 0.25 * a2[2],
        beta0=beta1 + delta1 * rho1 / float(chi1_j[1]),
    )
    chi1_j.flags.writeable = chi2_j.flags.writeable = False
    return MappingProxyType(values), chi1_j, chi2_j


def _lagged(q: int, p: float, sigma):
    """Check q, p and sigma; return _threshold(q) and beta_sigma at sigma.

    The result is (values, chi1_j, chi2_j, beta_sigma), beta_sigma an array
    for an array of phase-lags.  Its mode-2 term divides by mu2^2 + gyro^2
    with mu2 = p*chi1(kappa_crit; 2, q)*cos(sigma) and gyro = 2*nu1 - nu2.
    It is positive: _threshold rejects chi1(kappa_crit; 2, q) = 0, and
    cos(sigma) > 0 on (-pi/2, pi/2).
    """
    check_int("q", q, 1, 8)
    check_real("p", p, 0.0, 1.0, "(]")
    check_real("sigma", sigma, -pi / 2, pi / 2, "()")
    t, chi1_j, chi2_j = _threshold(int(q))
    cos_s, sin_s = np.cos(sigma), np.sin(sigma)
    mu2 = p * chi1_j[1] * cos_s
    gyro = 2.0 * (p * chi2_j[0] * sin_s) - p * chi2_j[1] * sin_s
    denom = mu2 * mu2 + gyro * gyro
    d1, d2, r1, r2 = t["delta1"], t["delta2"], t["rho1"], t["rho2"]
    return t, chi1_j, chi2_j, t["beta1"] * cos_s + p / (2.0 * denom) * (
        mu2 * (d1 * r1 + d2 * r2)
        + mu2 * (d1 * r1 - d2 * r2) * np.cos(2.0 * sigma)
        + gyro * (d1 * r2 - d2 * r1) * np.sin(2.0 * sigma)
    )


def normal_form_constants(q: int, p: float = 1.0,
                          sigma: float = 0.0) -> NormalFormConstants:
    """Compute all threshold constants for winding number q.

    Parameters
    ----------
    q : int
        Winding number, 1 <= q <= 8.
    p : float
        Coupling weight in (0, 1].
    sigma : float
        Phase-lag in (-pi/2, pi/2).

    Raises
    ------
    NoRootError
        Propagated from the threshold search.
    ValueError
        If the mode-2 damping chi1(kappa_crit; 2, q) vanishes (the slaved
        mode-2 elimination divides by it).
    """
    t, chi1_j, chi2_j, beta_sigma = _lagged(q, p, sigma)
    nu_j = p * chi2_j * sin(sigma)
    return NormalFormConstants(
        q=int(q), p=float(p), sigma=float(sigma), **t,
        mu_j=tuple((p * chi1_j * cos(sigma)).tolist()), nu_j=tuple(nu_j.tolist()),
        beta_sigma=float(beta_sigma),
        Omega=p * sin(2 * pi * q * t["kappa_crit"]) * sin(sigma) / (pi * q),
        nu1=float(nu_j[0]),
    )


@dataclass(frozen=True)
class BifurcationPrediction:
    """Branch prediction at a query kappa near the threshold.

    Side, stability, existence and amplitude are read from the radial
    equation rdot = mu*r - p*beta_sigma*r^3 with
    mu = p*cos(sigma)*chibar'*(kappa - kappa_crit), for every phase-lag.  Its
    nonzero equilibrium r^2 = radicand = cos(sigma)*chibar'*(kappa -
    kappa_crit)/beta_sigma exists on the kappa > kappa_crit side iff
    chibar'*beta_sigma > 0, and it is stable iff beta_sigma > 0.  The twisted
    family itself is stable below kappa_crit and unstable above it
    (``family_stability_at_query``).  Predictions are local: valid only for
    kappa near kappa_crit.

    Attributes primarily of note: ``branch_side``/``branch_stability``,
    ``amplitude`` (sqrt of the radicand at the query kappa, nan if
    negative), ``hypothesis_ok`` (all higher-mode dampings negative),
    ``modulation_frequency``/``modulation_period`` (nu1 and 2*pi/|nu1|, inf
    where nu1 = 0, as at sigma = 0; a run's modulation phase psi turns at
    -nu1), and ``omega_tilde`` (drift-corrected rotation speed, which is
    Omega).
    """

    constants: NormalFormConstants = field(repr=False)
    kappa: float
    branch_side: str
    branch_stability: str
    side_of_query: str
    family_stability_at_query: str
    branch_exists_at_query: bool
    amplitude_radicand: float
    amplitude: float
    hypothesis_ok: bool
    hypothesis_violations: tuple[int, ...]
    modulation_frequency: float
    modulation_period: float
    omega_tilde: float


def predict_bifurcation(constants: NormalFormConstants,
                        kappa: float) -> BifurcationPrediction:
    """Predict side, stability, and amplitude of the branch at a query kappa.

    Parameters
    ----------
    constants : NormalFormConstants
    kappa : float
        Query half-width in (0, 1/2], near constants.kappa_crit.

    The hypothesis (all mode dampings mu_j < 0 for j >= 2) is checked over
    j = 2..8; violations are reported, not raised.  The modulation fields are
    nu1, 2*pi/|nu1| (inf where nu1 = 0, as at sigma = 0) and Omega at every
    phase-lag.
    """
    check_real("kappa", kappa, 0.0, 0.5, "(]")
    c = constants
    modes = np.arange(2, 9)
    violations = tuple(modes[chi1(c.kappa_crit, modes, c.q) >= 0.0].tolist())

    d = kappa - c.kappa_crit
    side_query = "at" if d == 0.0 else ("above" if d > 0.0 else "below")
    rad = cos(c.sigma) * c.chi1_dk * d / c.beta_sigma

    return BifurcationPrediction(
        constants=c,
        kappa=float(kappa),
        branch_side="above" if c.chi1_dk * c.beta_sigma > 0.0 else "below",
        branch_stability="stable" if c.beta_sigma > 0.0 else "unstable",
        side_of_query=side_query,
        family_stability_at_query={"below": "stable", "above": "unstable",
                                   "at": "marginal"}[side_query],
        branch_exists_at_query=rad > 0.0 or d == 0.0,
        amplitude_radicand=rad,
        amplitude=sqrt(rad) if rad > 0.0 else (0.0 if rad == 0.0 else nan),
        hypothesis_ok=not violations,
        hypothesis_violations=violations,
        modulation_frequency=c.nu1,
        modulation_period=2.0 * pi / abs(c.nu1) if c.nu1 != 0.0 else inf,
        omega_tilde=c.Omega,
    )


_TABLE_COLUMNS = [
    "q", "kappa_crit", "chi1_dk", "beta1", "delta1", "rho1", "mu2_over_p",
    "beta0", "delta2", "rho2", "nu1_over_p_sin_sigma", "nu2_over_p_sin_sigma",
    "beta2", "rho0", "beta_sigma",
]


def constants_rows(q_list: Sequence[int], p: float = 1.0,
                   sigma: float = 0.0) -> list[dict]:
    """Constants-table rows (one dict per q) in the standard column layout.

    mu2_over_p and the nu columns are stored sigma-free (divided by p and
    p*sin(sigma) respectively, i.e. chi1/chi2 at the threshold), matching
    the tabulated convention; beta_sigma is evaluated at the given sigma.
    """
    rows = []
    for q in q_list:
        t, chi1_j, chi2_j, beta_sigma = _lagged(q, p, sigma)
        values = dict(
            t, q=int(q), mu2_over_p=float(chi1_j[1]),
            nu1_over_p_sin_sigma=float(chi2_j[0]),
            nu2_over_p_sin_sigma=float(chi2_j[1]),
            beta_sigma=float(beta_sigma),
        )
        rows.append({name: values[name] for name in _TABLE_COLUMNS})
    return rows


def write_constants_csv(path, rows: Sequence[dict]) -> None:
    """Write constants-table rows produced by constants_rows."""
    write_csv(path, _TABLE_COLUMNS, [[row[k] for k in _TABLE_COLUMNS] for row in rows])


def write_zeta_csv(path) -> None:
    """Write the window-function constants (name, value) rows."""
    z1 = zeta_extremum(1)
    z2 = zeta_extremum(2)
    z0 = zeta0()
    write_csv(path, ["name", "value"], [
        ("zeta0", z0), ("zeta1", z1), ("zeta2", z2),
        ("phi_zeta1", phi(z1)), ("phi_zeta2", phi(z2)),
        ("kappa_crit_q1", z0 / (2 * pi)),
    ])


def write_beta_sigma_csv(path, q: int, p: float,
                         sigma_grid: Sequence[float]) -> None:
    """Write (sigma, beta_sigma) rows, beta_sigma one array expression over the
    grid; sigma is checked before the file opens, so an invalid one leaves no file."""
    sigma = np.asarray(sigma_grid, dtype=float)
    write_csv(path, ["sigma", "beta_sigma"],
              zip(sigma.tolist(), _lagged(q, p, sigma)[3].tolist()))
