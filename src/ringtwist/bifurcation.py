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
from math import cos, inf, isfinite, nan, pi, sin, sqrt
from typing import Sequence

import numpy as np

from .spectrum import (
    _bisect,
    _chi1_root_callback,
    _check_int,
    _check_range,
    chi1,
    chi1_dkappa,
    chi2,
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


def a_coeffs(q: int, j: int, kappa_crit: float) -> tuple[float, float]:
    """Window overlap coefficients (a1, a2) of mode j at the threshold.

    These are the elementary product integrals over the coupling window
    a1 = -int_{-k}^{k} sin(2*pi*q*y)*sin(2*pi*j*y) dy and
    a2 = -int_{-k}^{k} cos(2*pi*q*y)*cos(2*pi*j*y) dy, in closed form with
    a dedicated branch at j = q.  j = 0 is well defined through the general
    branch (a1 = 0 there).

    Parameters
    ----------
    q : int
        Winding number >= 1.
    j : int
        Mode index >= 0.
    kappa_crit : float
        Evaluation half-width (normally the threshold value).
    """
    _check_int("q", q, 1)
    _check_int("j", j, 0)
    k = float(kappa_crit)
    if j == q:
        a1 = sin(4 * pi * q * k) / (4 * pi * q) - k
        a2 = -sin(4 * pi * q * k) / (4 * pi * q) - k
        return a1, a2
    denom = pi * (q * q - j * j)
    sj, cj = sin(2 * pi * j * k), cos(2 * pi * j * k)
    sq, cq = sin(2 * pi * q * k), cos(2 * pi * q * k)
    a1 = (q * sj * cq - j * cj * sq) / denom
    a2 = (j * sj * cq - q * cj * sq) / denom
    return a1, a2


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


def _beta_sigma_value(beta1: float, delta1: float, delta2: float, rho1: float,
                      rho2: float, mu2: float, nu1: float, nu2: float,
                      p: float, sigma: float) -> float:
    gyro = 2.0 * nu1 - nu2
    denom = mu2 * mu2 + gyro * gyro
    if denom == 0.0:
        return nan
    return beta1 * cos(sigma) + p / (2.0 * denom) * (
        mu2 * (delta1 * rho1 + delta2 * rho2)
        + mu2 * (delta1 * rho1 - delta2 * rho2) * cos(2.0 * sigma)
        + gyro * (delta1 * rho2 - delta2 * rho1) * sin(2.0 * sigma)
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
    _check_int("q", q, 1, 8)
    _check_range(0.0 < p <= 1.0, "p", p, "(0, 1]")
    _check_range(-pi / 2 < sigma < pi / 2, "sigma", sigma, "(-pi/2, pi/2)")

    kc = kappa_critical(1, q)
    chid = chi1_dkappa(kc, 1, q)
    a1, a2 = zip(*(a_coeffs(q, j, kc) for j in range(4)))

    beta1 = 0.375 * a2[0] - 0.5 * a2[1] + 0.125 * a2[2]
    beta2 = 0.25 * a1[1] - 0.125 * a1[2]
    delta1 = a1[1] - 0.5 * a1[2]
    delta2 = 0.5 * a2[0] - 0.5 * a2[2]
    rho0 = 0.5 * (a2[0] - a2[1])
    rho1 = 0.5 * a1[1] - 0.25 * a1[2]
    rho2 = 0.25 * a2[0] - 0.5 * a2[1] + 0.25 * a2[2]

    modes = np.arange(1, 4)
    chi1_123 = chi1(kc, modes, q)
    mu_j = tuple((p * chi1_123 * cos(sigma)).tolist())
    nu_j = tuple((p * chi2(kc, modes, q) * sin(sigma)).tolist())

    chi1_2 = float(chi1_123[1])
    if chi1_2 == 0.0:
        raise ValueError(
            f"chi1(kappa_crit; 2, q={q}) = 0: the mode-2 elimination is "
            "singular at this threshold"
        )
    beta0 = beta1 + delta1 * rho1 / chi1_2

    mu2, nu1, nu2 = mu_j[1], nu_j[0], nu_j[1]
    beta_sigma = _beta_sigma_value(
        beta1, delta1, delta2, rho1, rho2, mu2, nu1, nu2, p, sigma
    )

    gyro = 2.0 * nu1 - nu2
    cm_denom = mu2 * mu2 + gyro * gyro
    c1 = (p * gyro * rho1 * cos(sigma) - mu2 * rho2 * sin(sigma)) / cm_denom
    c2 = (p * mu2 * rho1 * cos(sigma) - gyro * rho2 * sin(sigma)) / cm_denom

    Omega = _rotation_term(p, q, kc, sigma)
    slope = (
        p * rho0 * sin(sigma) * chid / beta_sigma
        if beta_sigma not in (0.0,) and isfinite(beta_sigma)
        else nan
    )

    return NormalFormConstants(
        q=int(q), p=float(p), sigma=float(sigma),
        kappa_crit=kc, chi1_dk=chid,
        a1=a1, a2=a2,
        beta1=beta1, beta2=beta2, delta1=delta1, delta2=delta2,
        rho0=rho0, rho1=rho1, rho2=rho2,
        mu_j=mu_j, nu_j=nu_j, c1=c1, c2=c2,
        beta0=beta0, beta_sigma=beta_sigma,
        Omega=Omega, Omega_tilde_slope=slope, nu1=nu1,
    )


def beta_sigma_curve(q: int, p: float,
                     sigma_grid: Sequence[float]) -> list[tuple[float, float]]:
    """Evaluate beta_sigma over a grid of phase-lags.

    The sigma-independent ingredients are computed once; only the
    trigonometric assembly varies along the grid.
    """
    base = normal_form_constants(q, p, 0.0)
    kc = base.kappa_crit
    chi1_2 = chi1(kc, 2, q)
    chi2_1 = chi2(kc, 1, q)
    chi2_2 = chi2(kc, 2, q)
    out = []
    for sigma in sigma_grid:
        s = float(sigma)
        _check_range(-pi / 2 < s < pi / 2, "sigma", s, "(-pi/2, pi/2)")
        mu2 = p * chi1_2 * cos(s)
        nu1 = p * chi2_1 * sin(s)
        nu2 = p * chi2_2 * sin(s)
        out.append((s, _beta_sigma_value(
            base.beta1, base.delta1, base.delta2, base.rho1, base.rho2,
            mu2, nu1, nu2, p, s,
        )))
    return out


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
    internally inconsistent.  Predictions are local: valid only for kappa
    near kappa_crit.

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
    family_stability_below: str
    family_stability_above: str
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
        rad = c.chi1_dk * (kappa - c.kappa_crit) / self.beta_selected
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
    amp = sqrt(rad) if rad > 0.0 else (0.0 if rad == 0.0 else nan)
    # A real branch amplitude needs rad > 0; on the predicted side this can
    # fail (sigma != 0 rule), which is the documented inconsistency.
    exists = (side_query == side and rad > 0.0) or d == 0.0

    if sigma_zero:
        mod_freq = mod_period = omega_tilde = None
    else:
        mod_freq = c.nu1
        mod_period = (2.0 * pi / abs(c.nu1)) if c.nu1 != 0.0 else inf
        omega_tilde = c.Omega + c.p * c.rho0 * sin(c.sigma) * (
            c.chi1_dk * d / c.beta_sigma
        )

    return BifurcationPrediction(
        constants=c,
        kappa=float(kappa),
        regime="sigma_zero" if sigma_zero else "sigma_nonzero",
        beta_selected=beta_sel,
        criterion_product=product,
        family_stability_below="stable",
        family_stability_above="unstable",
        branch_side=side,
        branch_stability=stab,
        side_of_query=side_query,
        family_stability_at_query=family_at_query,
        branch_exists_at_query=exists,
        amplitude_radicand=rad,
        amplitude=amp,
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
        c = normal_form_constants(int(q), p, sigma)
        rows.append({
            "q": c.q,
            "kappa_crit": c.kappa_crit,
            "chi1_dk": c.chi1_dk,
            "beta1": c.beta1,
            "delta1": c.delta1,
            "rho1": c.rho1,
            "mu2_over_p": chi1(c.kappa_crit, 2, c.q),
            "beta0": c.beta0,
            "delta2": c.delta2,
            "rho2": c.rho2,
            "nu1_over_p_sin_sigma": chi2(c.kappa_crit, 1, c.q),
            "nu2_over_p_sin_sigma": chi2(c.kappa_crit, 2, c.q),
            "beta2": c.beta2,
            "rho0": c.rho0,
            "beta_sigma": c.beta_sigma,
        })
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
