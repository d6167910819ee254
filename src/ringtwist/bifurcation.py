"""Normal-form constants and branch predictions at the twisted-state threshold.

At kappa = kappa_crit (the smallest zero of chi1(.; 1, q)) the first Fourier
mode of a q-twisted state loses linear stability.  A center-manifold
reduction collapses the dynamics near the threshold onto the radial normal
form

    rdot = mu*r - p*beta*r^3,      mu = p*chibar'*(kappa - kappa_crit),

with chibar' the kappa-derivative of chi1 at the root and beta a combination
of window overlap coefficients: beta0 for zero phase-lag and beta_sigma for
nonzero phase-lag, where the mode additionally precesses at nu1.  This
module computes every constant of that reduction in closed form, evaluates
the branch-side and branch-stability sign rules for both regimes (their
conventions disagree; see predict_bifurcation), and solves the reduced
radial flow exactly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from math import cos, inf, nan, pi, sin, sqrt
from typing import Sequence

import numpy as np

from .spectrum import (
    _bisect,
    _check_int,
    _check_range,
    _chi1_root_callback,
    _half_window,
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
    "kappa_critical_all",
    "chi1_dkappa",
    "a_coeffs",
    "normal_form_constants",
    "beta_sigma_curve",
    "rotation_speed_Omega",
    "natural_frequency_for_zero_rotation",
    "predict_bifurcation",
    "reduced_amplitude_flow",
    "reduced_equilibrium",
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


def _chi1_roots(ell: int, q: int, count: int | None = None) -> list[float]:
    # scan once with the checked array chi1, then bisect the first `count`
    # brackets (all of them for None) on the unchecked scalar callback
    grid = np.linspace(_SCAN_LO, _SCAN_HI, _SCAN_POINTS)
    vals = chi1(grid, ell, q)
    zero = vals == 0.0
    change = np.append(vals[:-1] * vals[1:] < 0.0, False)
    hits = np.flatnonzero(zero | change)
    if not hits.size:
        raise NoRootError(
            f"chi1(., ell={ell}, q={q}) has constant sign on "
            f"({_SCAN_LO}, {_SCAN_HI}); no threshold exists"
        )
    f = _chi1_root_callback(int(ell), int(q))
    return [
        float(grid[i]) if zero[i] else _bisect(f, float(grid[i]), float(grid[i + 1]))
        for i in hits[:count]
    ]


def kappa_critical_all(ell: int, q: int) -> list[float]:
    """All zeros of chi1(.; ell, q) in (0, 1/2), ascending, to 1e-12.

    Raises
    ------
    NoRootError
        If chi1 keeps a constant sign on the scan interval.
    """
    return _chi1_roots(ell, q)


def kappa_critical(ell: int, q: int) -> float:
    """Smallest zero of chi1(.; ell, q) in (0, 1/2) (the mode-l threshold)."""
    return _chi1_roots(ell, q, count=1)[0]


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
        Evaluation half-width (normally the threshold value).

    Returns
    -------
    (a1, a2) : floats, or ndarrays for array j
    """
    _check_int("q", q, 1)
    _check_int("j", j, 0)
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
    a1, a2 : tuple of float
        Overlap coefficients for modes j = 0..3.
    beta1, beta2, delta1, delta2, rho0, rho1, rho2 : float
        Cubic/quadratic interaction coefficients assembled from a1/a2.
        rho0 = chi1(kappa_crit; 1, q)/2 = 0 up to root-finder tolerance.
    mu_j, nu_j : tuple of float
        Linear damping p*chi1(kappa_crit; j, q)*cos(sigma) and precession
        p*chi2(kappa_crit; j, q)*sin(sigma) of modes j = 1..3 (mu_j[0] ~ 0
        by definition of the threshold).
    c1, c2 : float
        Quadratic center-manifold shape coefficients of the mode-2 slave.
    beta0 : float
        Effective cubic coefficient at sigma = 0:
        beta1 + delta1*rho1/chi1(kappa_crit; 2, q).  Independent of p.
    beta_sigma : float
        Effective cubic coefficient at the stored sigma (reduces to beta0
        at sigma = 0).  Independent of p.
    Omega : float
        Coupling-induced rotation speed p*sin(2*pi*q*kappa_crit)*
        sin(sigma)/(pi*q) of the twisted state for zero natural frequency;
        add the natural frequency for the general case (see
        rotation_speed_Omega).
    Omega_tilde_slope : float
        Coefficient of (kappa - kappa_crit) in the drift correction of the
        oscillating branch, p*rho0*sin(sigma)*chi1_dk/beta_sigma (0 up to
        tolerance because rho0 vanishes at the threshold).
    nu1 : float
        Modulation angular frequency of the first mode, nu_j[0].
    """

    q: int
    p: float
    sigma: float
    kappa_crit: float
    chi1_dk: float
    a1: tuple[float, float, float, float]
    a2: tuple[float, float, float, float]
    beta1: float
    beta2: float
    delta1: float
    delta2: float
    rho0: float
    rho1: float
    rho2: float
    mu_j: tuple[float, float, float]
    nu_j: tuple[float, float, float]
    c1: float
    c2: float
    beta0: float
    beta_sigma: float
    Omega: float
    Omega_tilde_slope: float
    nu1: float


def _check_args(q: int, p: float, sigma) -> None:
    _check_int("q", q, 1, 8)
    _check_range(0.0 < p <= 1.0, "p", p, "(0, 1]")
    s = np.asarray(sigma)
    _check_range((-pi / 2 < s) & (s < pi / 2), "sigma", sigma, "(-pi/2, pi/2)")


def _threshold(q: int) -> tuple[dict, np.ndarray, np.ndarray]:
    """The values at the threshold of winding number q that need no p or sigma.

    Returns the NormalFormConstants fields among them, and
    chi1(kappa_crit; j, q) and chi2(kappa_crit; j, q) for j = 1..3, all from
    one evaluation of the window integrals at j = 0..3.
    """
    kc = kappa_critical(1, q)
    cc, ss = _window_integrals(kc, np.arange(4), q)
    chi1_j = cc[1:] - 2.0 * _half_window(kc, q)
    if chi1_j[1] == 0.0:
        raise ValueError(
            f"chi1(kappa_crit; 2, q={q}) = 0: the mode-2 elimination is "
            "singular at this threshold"
        )
    a1, a2 = (-ss).tolist(), (-cc).tolist()
    beta1 = 0.375 * a2[0] - 0.5 * a2[1] + 0.125 * a2[2]
    delta1 = a1[1] - 0.5 * a1[2]
    rho1 = 0.5 * a1[1] - 0.25 * a1[2]
    values = dict(
        kappa_crit=kc, chi1_dk=chi1_dkappa(kc, 1, q), a1=tuple(a1), a2=tuple(a2),
        beta1=beta1, beta2=0.25 * a1[1] - 0.125 * a1[2],
        delta1=delta1, delta2=0.5 * a2[0] - 0.5 * a2[2],
        rho0=0.5 * (a2[0] - a2[1]), rho1=rho1,
        rho2=0.25 * a2[0] - 0.5 * a2[1] + 0.25 * a2[2],
        beta0=beta1 + delta1 * rho1 / float(chi1_j[1]),
    )
    return values, chi1_j, ss[1:]


def _lagged(t: dict, chi1_j: np.ndarray, chi2_j: np.ndarray, p: float, sigma):
    """beta_sigma and the mode-2 shape coefficients (c1, c2) at phase-lag(s) sigma.

    All three divide by mu2^2 + gyro^2 with mu2 = p*chi1(kappa_crit; 2, q)*
    cos(sigma) and gyro = 2*nu1 - nu2.  It is positive: _threshold rejects
    chi1(kappa_crit; 2, q) = 0, and cos(sigma) > 0 on (-pi/2, pi/2).
    """
    cos_s, sin_s = np.cos(sigma), np.sin(sigma)
    mu2 = p * chi1_j[1] * cos_s
    gyro = 2.0 * (p * chi2_j[0] * sin_s) - p * chi2_j[1] * sin_s
    denom = mu2 * mu2 + gyro * gyro
    d1, d2, r1, r2 = t["delta1"], t["delta2"], t["rho1"], t["rho2"]
    beta_sigma = t["beta1"] * cos_s + p / (2.0 * denom) * (
        mu2 * (d1 * r1 + d2 * r2)
        + mu2 * (d1 * r1 - d2 * r2) * np.cos(2.0 * sigma)
        + gyro * (d1 * r2 - d2 * r1) * np.sin(2.0 * sigma)
    )
    c1 = (p * gyro * r1 * cos_s - mu2 * r2 * sin_s) / denom
    c2 = (p * mu2 * r1 * cos_s - gyro * r2 * sin_s) / denom
    return beta_sigma, c1, c2


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
    _check_args(q, p, sigma)
    t, chi1_j, chi2_j = _threshold(q)
    beta_sigma, c1, c2 = (float(v) for v in _lagged(t, chi1_j, chi2_j, p, sigma))
    nu_j = p * chi2_j * sin(sigma)
    return NormalFormConstants(
        q=int(q), p=float(p), sigma=float(sigma), **t,
        mu_j=tuple((p * chi1_j * cos(sigma)).tolist()), nu_j=tuple(nu_j.tolist()),
        c1=c1, c2=c2, beta_sigma=beta_sigma,
        Omega=_rotation_term(p, q, t["kappa_crit"], sigma),
        Omega_tilde_slope=p * t["rho0"] * sin(sigma) * t["chi1_dk"] / beta_sigma,
        nu1=float(nu_j[0]),
    )


def beta_sigma_curve(q: int, p: float,
                     sigma_grid: Sequence[float]) -> list[tuple[float, float]]:
    """Evaluate beta_sigma over a grid of phase-lags.

    The threshold values are computed once; the sigma dependence is one
    array expression over the grid.
    """
    sigma = np.asarray(sigma_grid, dtype=float)
    _check_args(q, p, sigma)
    t, chi1_j, chi2_j = _threshold(q)
    return list(zip(sigma.tolist(), _lagged(t, chi1_j, chi2_j, p, sigma)[0].tolist()))


def _rotation_term(p: float, q: int, kappa: float, sigma: float) -> float:
    # coupling-induced rotation speed of the q-twisted solution
    _check_int("q", q, 1)
    return p * sin(2 * pi * q * kappa) * sin(sigma) / (pi * q)


def rotation_speed_Omega(omega: float, p: float, q: int, kappa: float,
                         sigma: float) -> float:
    """Rotation speed of the q-twisted solution: omega + p*sin(2*pi*q*kappa)*sin(sigma)/(pi*q)."""
    return omega + _rotation_term(p, q, kappa, sigma)


def natural_frequency_for_zero_rotation(p: float, q: int, kappa: float,
                                        sigma: float) -> float:
    """Natural frequency that makes the q-twisted solution stationary."""
    return -_rotation_term(p, q, kappa, sigma)


@dataclass(frozen=True)
class BifurcationPrediction:
    """Branch prediction at a query kappa near the threshold.

    The side/stability assignment follows one sign rule per regime:

    * sigma = 0: chibar'*beta0 > 0 puts a stable modulated branch on the
      kappa > kappa_crit side; chibar'*beta0 < 0 an unstable branch on the
      kappa < kappa_crit side.
    * sigma != 0: chibar'*beta_sigma < 0 puts a stable oscillating branch
      on the kappa > kappa_crit side; chibar'*beta_sigma > 0 an unstable
      branch on the kappa < kappa_crit side.

    The two rules contradict each other in the limit sigma -> 0
    (beta_sigma -> beta0); each regime keeps its own rule, and
    ``amplitude_radicand`` exposes the radial-equation consistency check:
    a real branch amplitude requires chibar'*(kappa - kappa_crit)/beta > 0,
    which fails on the claimed side whenever the applied rule is
    internally inconsistent.  In both regimes the twisted family itself is
    stable below kappa_crit and unstable above it
    (``family_stability_at_query``).  Predictions are local: valid only for
    kappa near kappa_crit.

    Attributes primarily of note: ``branch_side``/``branch_stability`` (the
    rule's assignment), ``amplitude`` (sqrt of the radicand at the query
    kappa, nan if negative), ``hypothesis_ok`` (all higher-mode dampings
    negative), ``modulation_frequency``/``modulation_period`` (nu1 and
    2*pi/|nu1|, sigma != 0 only), and ``omega_tilde`` (drift-corrected
    rotation speed at the query kappa, sigma != 0 only).
    """

    constants: NormalFormConstants = field(repr=False)
    kappa: float
    regime: str
    beta_selected: float
    criterion_product: float
    branch_side: str
    branch_stability: str
    side_of_query: str
    family_stability_at_query: str
    branch_exists_at_query: bool
    amplitude_radicand: float
    amplitude: float
    hypothesis_ok: bool
    hypothesis_violations: tuple[int, ...]
    modulation_frequency: float | None
    modulation_period: float | None
    omega_tilde: float | None

    def amplitude_at(self, kappa: float) -> float:
        """Branch amplitude sqrt(chibar'*(kappa - kappa_crit)/beta_sel) at kappa.

        Returns nan when the radicand is negative (no real branch there).
        """
        c = self.constants
        return _amplitude(c.chi1_dk * (kappa - c.kappa_crit) / self.beta_selected)


def _amplitude(rad: float) -> float:
    # branch amplitude from its radicand: nan where no real branch exists
    return sqrt(rad) if rad > 0.0 else (0.0 if rad == 0.0 else nan)


def predict_bifurcation(constants: NormalFormConstants, kappa: float,
                        ell_max: int = 8) -> BifurcationPrediction:
    """Predict side, stability, and amplitude of the branch at a query kappa.

    Parameters
    ----------
    constants : NormalFormConstants
    kappa : float
        Query half-width near constants.kappa_crit.
    ell_max : int
        The hypothesis (all mode dampings mu_j < 0 for j >= 2) is checked
        over j = 2..ell_max; violations are reported, not raised.
    """
    c = constants
    sigma_zero = c.sigma == 0.0
    beta_sel = c.beta0 if sigma_zero else c.beta_sigma
    product = c.chi1_dk * beta_sel

    if sigma_zero:
        # Zero phase-lag statement: positive product -> stable branch above.
        side, stab = ("above", "stable") if product > 0 else ("below", "unstable")
    else:
        # Nonzero phase-lag statement: negative product -> stable branch above.
        side, stab = ("above", "stable") if product < 0 else ("below", "unstable")

    modes = np.arange(2, ell_max + 1)
    violations = tuple(modes[chi1(c.kappa_crit, modes, c.q) >= 0.0].tolist())

    d = kappa - c.kappa_crit
    side_query = "at" if d == 0.0 else ("above" if d > 0.0 else "below")
    # The twisted family itself: stable below threshold, unstable above
    # (both regimes agree on this part).
    family_at_query = {"below": "stable", "above": "unstable", "at": "marginal"}[
        side_query
    ]
    rad = c.chi1_dk * d / beta_sel
    # A real branch amplitude needs rad > 0; on the predicted side this can
    # fail (sigma != 0 rule), which is the documented inconsistency.
    exists = (side_query == side and rad > 0.0) or d == 0.0

    if sigma_zero:
        mod_freq = mod_period = omega_tilde = None
    else:
        mod_freq = c.nu1
        mod_period = (2.0 * pi / abs(c.nu1)) if c.nu1 != 0.0 else inf
        omega_tilde = c.Omega + c.Omega_tilde_slope * d

    return BifurcationPrediction(
        constants=c,
        kappa=float(kappa),
        regime="sigma_zero" if sigma_zero else "sigma_nonzero",
        beta_selected=beta_sel,
        criterion_product=product,
        branch_side=side,
        branch_stability=stab,
        side_of_query=side_query,
        family_stability_at_query=family_at_query,
        branch_exists_at_query=exists,
        amplitude_radicand=rad,
        amplitude=_amplitude(rad),
        hypothesis_ok=not violations,
        hypothesis_violations=violations,
        modulation_frequency=mod_freq,
        modulation_period=mod_period,
        omega_tilde=omega_tilde,
    )


def reduced_amplitude_flow(mu: float, p: float, beta_sel: float, r0: float,
                           t_span: tuple[float, float],
                           num: int = 201) -> tuple[np.ndarray, np.ndarray]:
    """Exact solution of the reduced radial flow rdot = mu*r - p*beta*r^3.

    The substitution y = r^2 turns the flow into a logistic equation solved
    in closed form.  Subcritical escapes (finite-time blow-up) are reported
    as inf from the blow-up time onward.

    Parameters
    ----------
    mu, p, beta_sel : float
        Reduced flow coefficients.
    r0 : float
        Initial amplitude >= 0.
    t_span : (float, float)
        Time interval.
    num : int
        Number of equally spaced samples.

    Returns
    -------
    (times, r) : ndarray pair
    """
    if r0 < 0.0:
        raise ValueError(f"r0 must be >= 0, got {r0!r}")
    t0, t1 = float(t_span[0]), float(t_span[1])
    times = np.linspace(t0, t1, num)
    y0 = r0 * r0
    b = p * beta_sel
    dt = times - t0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if mu == 0.0:
            den = 1.0 + 2.0 * b * y0 * dt
            y = np.where(den > 0.0, y0 / den, np.inf)
        elif mu > 0.0:
            # Divide by e^{2 mu t}: only decaying exponentials, no overflow.
            den = (mu - b * y0) * np.exp(-2.0 * mu * dt) + b * y0
            y = np.where(den > 0.0, mu * y0 / den, np.inf)
        else:
            grow = np.exp(2.0 * mu * dt)
            den = (mu - b * y0) + b * y0 * grow
            # den and mu are both negative along valid solutions.
            y = np.where(den < 0.0, mu * y0 * grow / den, np.inf)
    # After a blow-up the closed form re-enters a spurious branch; freeze inf.
    blown = np.isinf(y) | (y < 0.0) | ~np.isfinite(y)
    if blown.any():
        first = int(np.argmax(blown))
        y[first:] = np.inf
    return times, np.sqrt(np.where(np.isfinite(y), y, np.inf))


def reduced_equilibrium(mu: float, p: float, beta_sel: float) -> float:
    """Nonzero equilibrium sqrt(mu/(p*beta)) of the reduced flow, else 0."""
    b = p * beta_sel
    if b == 0.0:
        return 0.0
    rad = mu / b
    return sqrt(rad) if rad > 0.0 else 0.0


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
        _check_args(q, p, sigma)
        t, chi1_j, chi2_j = _threshold(q)
        values = dict(
            t, q=int(q), mu2_over_p=float(chi1_j[1]),
            nu1_over_p_sin_sigma=float(chi2_j[0]),
            nu2_over_p_sin_sigma=float(chi2_j[1]),
            beta_sigma=float(_lagged(t, chi1_j, chi2_j, p, sigma)[0]),
        )
        rows.append({name: values[name] for name in _TABLE_COLUMNS})
    return rows


def write_constants_csv(path, rows: Sequence[dict]) -> None:
    """Write constants-table rows produced by constants_rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_TABLE_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: (v if k == "q" else repr(float(v)))
                             for k, v in row.items()})


def write_zeta_csv(path) -> None:
    """Write the window-function constants (name, value) rows."""
    z1 = zeta_extremum(1)
    z2 = zeta_extremum(2)
    z0 = zeta0()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "value"])
        for name, value in [
            ("zeta0", z0), ("zeta1", z1), ("zeta2", z2),
            ("phi_zeta1", phi(z1)), ("phi_zeta2", phi(z2)),
            ("kappa_crit_q1", z0 / (2 * pi)),
        ]:
            writer.writerow([name, repr(float(value))])


def write_beta_sigma_csv(path, q: int, p: float,
                         sigma_grid: Sequence[float]) -> None:
    """Write (sigma, beta_sigma) curve rows; an invalid sigma leaves no file."""
    curve = beta_sigma_curve(q, p, sigma_grid)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sigma", "beta_sigma"])
        for s, b in curve:
            writer.writerow([repr(s), repr(b)])
