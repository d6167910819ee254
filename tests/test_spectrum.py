"""Closed-form spectra against quadrature oracles and frozen roots."""

import csv

import numpy as np
import pytest
from scipy.optimize import brentq

from _oracles import (
    chi1_quad,
    chi2_quad,
    eigenvalue_q0_quad,
    eigenvalue_quad,
)
from ringtwist import spectrum
from ringtwist.spectrum import (
    BracketError,
    ModeParams,
    SpectrumReport,
    chi1,
    chi1_dkappa,
    chi2,
    eigenvalues,
    phi,
    write_chi_curves_csv,
    write_spectrum_csv,
    zeta0,
    zeta_extremum,
)

KAPPAS = [0.03, 0.141, 0.25, 0.37, 0.47]


@pytest.mark.parametrize("kappa", KAPPAS)
@pytest.mark.parametrize("ell", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_chi_factors_match_quadrature(kappa, ell, q):
    assert chi1(kappa, ell, q) == pytest.approx(chi1_quad(kappa, ell, q), abs=1e-10)
    assert chi2(kappa, ell, q) == pytest.approx(chi2_quad(kappa, ell, q), abs=1e-10)


@pytest.mark.parametrize("ell, q", [(1, 1), (2, 1), (1, 2), (2, 2), (5, 3)])
def test_chi1_dkappa_matches_finite_difference(ell, q):
    h = 1e-6
    for kappa in (0.1, 0.23, 0.4):
        fd = (chi1(kappa + h, ell, q) - chi1(kappa - h, ell, q)) / (2 * h)
        assert chi1_dkappa(kappa, ell, q) == pytest.approx(fd, abs=1e-6)


def test_phi_value_and_limit():
    assert phi(0.0) == pytest.approx(1.0, abs=1e-15)
    z = 1.7
    assert phi(z) == pytest.approx(np.sin(z) / z * (2 - np.cos(z)), abs=1e-15)
    arr = phi(np.array([0.0, 1.0, 4.0]))
    assert arr.shape == (3,)


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("kappa", [0.07, 0.21, 0.33])
def test_phi_ties_diagonal_mode_to_window(kappa, q):
    # chi1 on the diagonal mode l = q factors through phi
    assert chi1(kappa, q, q) == pytest.approx(
        kappa * (1.0 - phi(2 * np.pi * q * kappa)), abs=1e-14
    )


@pytest.mark.parametrize("j", [1, 2, 3])
def test_zeta_extrema_match_independent_solver(j):
    lo = max((j - 1) * np.pi, 1e-3)
    ref = brentq(spectrum._extremum_equation, lo, j * np.pi, xtol=1e-14)
    assert zeta_extremum(j) == pytest.approx(ref, abs=1e-10)
    # critical points of phi have vanishing derivative
    h = 1e-7
    z = zeta_extremum(j)
    dphi = (phi(z + h) - phi(z - h)) / (2 * h)
    assert abs(dphi) < 1e-6


def test_zeta0_is_unit_level_crossing():
    z0 = zeta0()
    assert phi(z0) == pytest.approx(1.0, abs=1e-12)
    ref = brentq(lambda z: phi(z) - 1.0, zeta_extremum(1), zeta_extremum(2),
                 xtol=1e-14)
    assert z0 == pytest.approx(ref, abs=1e-10)
    assert zeta_extremum(1) < z0 < zeta_extremum(2)


@pytest.mark.parametrize("sigma", [0.0, 0.5, -0.9])
@pytest.mark.parametrize("p", [1.0, 0.37])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_eigenvalue_pairs_match_operator_quadrature(sigma, p, q):
    kappa = 0.29
    report = eigenvalues(ModeParams(q=q, kappa=kappa, sigma=sigma, p=p), ell_max=6)
    assert report.ell_max == 6
    for ell, (lam_plus, lam_minus) in enumerate(report.eigenvalues, start=1):
        oracle = eigenvalue_quad(kappa, ell, q, sigma, p)
        assert lam_plus == pytest.approx(oracle, abs=1e-10)
        assert lam_minus == pytest.approx(np.conjugate(oracle), abs=1e-10)


def test_zero_mode_always_present():
    for q in (0, 1, 3):
        report = eigenvalues(ModeParams(q=q, kappa=0.2, sigma=0.3), ell_max=4)
        assert report.zero_mode == 0j


@pytest.mark.parametrize("sigma", [0.0, 0.7])
def test_q0_eigenvalues_match_quadrature(sigma):
    kappa, p = 0.23, 0.8
    report = eigenvalues(ModeParams(q=0, kappa=kappa, sigma=sigma, p=p), ell_max=5)
    for ell, (lam_plus, lam_minus) in enumerate(report.eigenvalues, start=1):
        oracle = eigenvalue_q0_quad(kappa, ell, sigma, p)
        assert abs(oracle.imag) < 1e-12
        assert lam_plus == pytest.approx(oracle, abs=1e-10)
        assert lam_minus == pytest.approx(oracle, abs=1e-10)
    assert report.verdict == "linearly_stable"
    assert report.max_real_part < 0.0


@pytest.mark.parametrize("kappa", [0.01, 0.23, 0.5])
def test_q0_spectrum_is_the_real_closed_form(kappa):
    # at q = 0 the window integrals give chi2 = 0 and
    # chi1 = sin(2*pi*l*kappa)/(pi*l) - 2*kappa
    p, sigma = 0.8, -0.7
    report = eigenvalues(ModeParams(q=0, kappa=kappa, sigma=sigma, p=p), ell_max=16)
    ell = np.arange(1, 17)
    closed = -p * np.cos(sigma) * (
        2 * kappa - np.sin(2 * np.pi * ell * kappa) / (np.pi * ell))
    for (lam_plus, lam_minus), lam in zip(report.eigenvalues, closed):
        assert lam_plus.imag == 0.0 and lam_minus.imag == 0.0
        assert lam_plus.real == lam_minus.real == pytest.approx(lam, abs=1e-15)
    assert report.verdict == "linearly_stable"


def test_verdicts_and_critical_mode():
    stable = eigenvalues(ModeParams(q=1, kappa=0.31))
    assert stable.verdict == "linearly_stable"
    assert stable.max_real_part < 0.0

    unstable = eigenvalues(ModeParams(q=1, kappa=0.36))
    assert unstable.verdict == "unstable"
    assert unstable.critical_mode == 1
    assert unstable.max_real_part == pytest.approx(chi1(0.36, 1, 1), abs=1e-14)

    marginal = eigenvalues(ModeParams(q=1, kappa=zeta0() / (2 * np.pi)))
    assert marginal.verdict == "marginal"
    assert marginal.critical_mode == 1
    assert abs(marginal.max_real_part) <= spectrum.MARGINAL_TOLERANCE


def test_sigma_scales_imaginary_parts_only():
    base = eigenvalues(ModeParams(q=2, kappa=0.3, sigma=0.0), ell_max=4)
    lagged = eigenvalues(ModeParams(q=2, kappa=0.3, sigma=0.4), ell_max=4)
    for (b_plus, _), (l_plus, _) in zip(base.eigenvalues, lagged.eigenvalues):
        assert b_plus.imag == 0.0
        assert l_plus.real == pytest.approx(b_plus.real * np.cos(0.4), abs=1e-14)


@pytest.mark.parametrize("bad", [
    {"kappa": 0.0}, {"kappa": 0.6}, {"q": 1.5}, {"q": -1},
    {"sigma": 2.0}, {"p": 0.0}, {"p": 1.5},
])
def test_mode_params_validation(bad):
    with pytest.raises(ValueError):
        ModeParams(**bad)


def test_mode_params_frozen():
    params = ModeParams()
    with pytest.raises(AttributeError):
        params.kappa = 0.3


def test_chi_validation():
    # q = 0 is in the domain; negative winding numbers and l = 0 are not
    assert chi1(0.2, 3, 0) == pytest.approx(
        np.sin(1.2 * np.pi) / (3 * np.pi) - 0.4, abs=1e-15)
    assert chi2(0.2, 3, 0) == 0.0
    with pytest.raises(ValueError, match="q must be an integer >= 0"):
        chi1(0.2, 1, -1)
    with pytest.raises(ValueError):
        chi2(0.2, 0, 1)
    with pytest.raises(ValueError, match="q must be"):
        chi1_dkappa(0.2, 1, -1)


def test_bisect_bracket_error():
    with pytest.raises(BracketError):
        spectrum._bisect(lambda x: 1.0 + x * x, 0.0, 1.0)


def test_spectrum_csv_round_trip(tmp_path):
    report = eigenvalues(ModeParams(q=2, kappa=0.3, sigma=0.5), ell_max=3)
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(path, report)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 + 2 * 3
    assert rows[0]["branch"] == "zero"
    lam_plus = report.eigenvalues[0][0]
    assert float(rows[1]["re"]) == lam_plus.real
    assert float(rows[1]["im"]) == lam_plus.imag


def test_chi_curves_csv(tmp_path):
    path = tmp_path / "chi.csv"
    write_chi_curves_csv(path, 1, [1, 2], [0.1, 0.2, 0.3])
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert float(rows[0]["chi1"]) == chi1(0.1, 1, 1)
    assert float(rows[-1]["chi2"]) == chi2(0.3, 2, 1)


def test_report_is_frozen():
    report = eigenvalues(ModeParams(q=1, kappa=0.2))
    assert isinstance(report, SpectrumReport)
    with pytest.raises(AttributeError):
        report.verdict = "other"
