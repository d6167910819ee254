"""Closed-form spectra against quadrature oracles and frozen roots."""

import csv
from math import cos, pi, sin

import numpy as np
import pytest
from scipy.optimize import brentq

from _oracles import (
    chi1_quad,
    chi2_quad,
    eigenvalue_q0_quad,
    eigenvalue_quad,
    rhs_continuum,
)
from ringtwist import spectrum
from ringtwist.bifurcation import a_coeffs
from ringtwist.graphs import GraphSpec
from ringtwist.spectrum import (
    BracketError,
    ModeParams,
    SpectrumReport,
    chi1,
    chi1_dkappa,
    chi2,
    eigenvalues,
    phi,
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


def test_zero_mode_always_present(tmp_path):
    # the zero eigenvalue is not stored; the spectrum CSV writes it as ell 0
    for q in (0, 1, 3):
        report = eigenvalues(ModeParams(q=q, kappa=0.2, sigma=0.3), ell_max=4)
        path = tmp_path / f"spectrum{q}.csv"
        write_spectrum_csv(path, report)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1] == ["0", "zero", "0.0", "0.0"]
        assert len(rows) == 2 + 2 * 4


@pytest.mark.parametrize("q", [0, 3])
def test_eigenvalues_are_conjugate_columns(q):
    report = eigenvalues(ModeParams(q=q, kappa=0.27, sigma=0.7, p=0.9), ell_max=12)
    assert isinstance(report.eigenvalues, np.ndarray)
    assert report.eigenvalues.dtype == complex
    assert report.eigenvalues.shape == (12, 2)
    plus, minus = report.eigenvalues.T
    assert np.array_equal(minus, np.conj(plus))
    assert report.max_real_part == plus.real.max()


def test_spectrum_csv_keeps_signed_zeros(tmp_path):
    # at q = 0 chi2 vanishes, so the "plus" branch -i*p*chi2*sin(sigma) is
    # -0.0 for sigma > 0; building the pairs as re + 1j*im would print 0.0
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(path, eigenvalues(ModeParams(q=0, kappa=0.3, sigma=0.7),
                                         ell_max=3))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["im"] for r in rows if r["branch"] == "plus"] == ["-0.0"] * 3
    assert [r["im"] for r in rows if r["branch"] == "minus"] == ["0.0"] * 3


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
        spectrum._root(lambda x: 1.0 + x * x, 0.0, 1.0)


def _chi1_two_half_windows(kappa, ell, q):
    # chi1 with the l = 0 entry of the window integral written out as twice
    # the half-window term at q
    return (spectrum._window_integrals(kappa, ell, q)[0]
            - 2.0 * spectrum._half_window(kappa, q))


@pytest.mark.parametrize("q", range(9))
def test_chi1_is_the_window_integral_minus_twice_the_half_window(q):
    # the l = 0 entry is the half-window term at -q plus the one at q; the sine
    # is odd and doubling is exact, so the two forms agree bit for bit
    kappa = np.linspace(1e-4, 0.5, 257)[:, None]
    ell = np.arange(1, 65)
    assert np.array_equal(chi1(kappa, ell, q), _chi1_two_half_windows(kappa, ell, q))
    for k in kappa[::32, 0]:
        assert chi1(float(k), 7, q) == _chi1_two_half_windows(float(k), 7, q)


@pytest.mark.parametrize("sigma", [0.0, 0.5, -1.2])
@pytest.mark.parametrize("q", range(9))
def test_eigenvalues_read_the_same_chi1(q, sigma):
    p, ell = 0.7, np.arange(1, 65)
    for kappa in np.linspace(1e-4, 0.5, 257):
        report = eigenvalues(ModeParams(q=q, kappa=float(kappa), sigma=sigma, p=p))
        re = p * _chi1_two_half_windows(float(kappa), ell, q) * np.cos(sigma)
        im = p * spectrum._window_integrals(float(kappa), ell, q)[1] * np.sin(sigma)
        assert np.array_equal(report.eigenvalues[:, 0].real, re)
        assert np.array_equal(report.eigenvalues[:, 1].imag, im)


def _half_window_as_first_written(kappa, d):
    # an asarray and a fresh d == 0 mask for each np.where
    d = np.asarray(d)
    safe = np.where(d == 0, 1, d)
    return np.where(d == 0, kappa, np.sin(2 * pi * safe * kappa) / (2 * pi * safe))


def _window_integrals_as_first_written(kappa, ell, q):
    minus = _half_window_as_first_written(kappa, np.subtract(ell, q))
    plus = _half_window_as_first_written(kappa, np.add(ell, q))
    return minus + plus, minus - plus


def _pairs_as_first_written(params, ell_max):
    # the eigenvalue pairs with the imaginary columns stacked by np.stack
    cc, ss = _window_integrals_as_first_written(params.kappa, np.arange(ell_max + 1),
                                                params.q)
    re = params.p * (cc[1:] - cc[0]) * cos(params.sigma)
    im = params.p * ss[1:] * sin(params.sigma)
    pairs = np.empty((ell_max, 2), dtype=complex)
    pairs.real = re[:, None]
    pairs.imag = np.stack([-im, im], axis=1)
    return pairs, int(np.argmax(re))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("q", range(9))
def test_spectrum_queries_equal_the_first_written_form_bit_for_bit(q):
    kappa, ell = np.linspace(1e-4, 0.5, 257), np.arange(1, 65)
    cc, ss = _window_integrals_as_first_written(kappa[:, None], ell, q)
    cc0 = _window_integrals_as_first_written(kappa[:, None], 0, q)[0]
    assert _same_bits(chi1(kappa[:, None], ell, q), cc - cc0)
    assert _same_bits(chi2(kappa[:, None], ell, q), ss)
    # scalar ell against array kappa is the shape of the threshold scan
    cc1, _ = _window_integrals_as_first_written(kappa, 1, q)
    assert _same_bits(chi1(kappa, 1, q), cc1 - cc0[:, 0])
    for k in kappa.tolist():
        for sigma in (0.0, 0.5, -1.2):
            params = ModeParams(q=q, kappa=k, sigma=sigma, p=0.7)
            report = eigenvalues(params)
            pairs, crit = _pairs_as_first_written(params, 64)
            assert _same_bits(report.eigenvalues, pairs)
            assert report.critical_mode == crit + 1
            assert report.max_real_part == pairs[crit, 0].real
        if q >= 1:
            cc, ss = _window_integrals_as_first_written(k, np.arange(65), q)
            a1, a2 = a_coeffs(q, np.arange(65), k)
            assert _same_bits(a1, -ss) and _same_bits(a2, -cc)


def _ring_half_window_unreduced(kappa, d, n):
    # the ring form with d used as given: its sines' arguments, and their
    # rounding error, grow with |d|
    zero = np.mod(d, n) == 0
    safe = np.where(zero, 1, d)
    return np.where(zero, kappa, np.sin(2 * pi * safe * kappa) / (2 * n * np.sin(pi * safe / n)))


@pytest.mark.parametrize("n", [7, 100, 999, 1000])
def test_ring_window_integrals_are_the_band_offset_sums(n):
    # at kappa = (m + 1/2)/n, given n, the overlaps are sums over the band's
    # 2m + 1 offsets j, each over n; the angles are reduced mod n in integers
    # first, so the sums carry no large-argument error and are n-periodic in
    # l.  Modes -3n..3n are checked against one period of sums, since modes
    # past n/2 alias.  The worst gap seen was 2.8e-16; the unreduced ring
    # form misses by 1.0e-13 at n = 1000, m = 499
    ell, period = np.arange(-3 * n, 3 * n + 1), np.arange(n)
    alias, near = np.mod(ell, n), np.arange(-(n // 2), n // 2 + 1)
    for m in sorted({0, 1, n // 4, (n - 1) // 2}):
        kappa, j = (m + 0.5) / n, np.arange(-m, m + 1)
        mode_l = 2 * pi * np.mod(np.outer(period, j), n) / n
        for q in (0, 1, 2, 5):
            mode_q = 2 * pi * np.mod(q * j, n) / n
            cc_sums = (np.cos(mode_q) * np.cos(mode_l)).sum(1) / n
            ss_sums = (np.sin(mode_q) * np.sin(mode_l)).sum(1) / n
            cc, ss = spectrum._window_integrals(kappa, ell, q, n)
            assert np.abs(cc - cc_sums[alias]).max() <= 1e-15
            assert np.abs(ss - ss_sums[alias]).max() <= 1e-15
            if q == 0 and kappa < 0.5:
                # a graph's symbol is this sum on the band of its window
                symbol = GraphSpec(n, 1.0, kappa).symbol(ell)
                assert np.abs(symbol - cc_sums[alias]).max() <= 1e-15
        # every d = 0 mod n is the whole window over 2n, kappa itself
        d = np.array([0, n, -n, 3 * n])
        assert spectrum._half_window(kappa, d, n).tolist() == [kappa] * 4
        # up to n/2 the reduction moves no bit
        assert _same_bits(spectrum._half_window(kappa, near, n),
                          _ring_half_window_unreduced(kappa, near, n))


@pytest.mark.parametrize("q, kappa, sigma, p, n_grid", [
    (1, 0.35, 0.5, 1.0, 64), (2, 0.2, -0.8, 0.6, 64), (3, 0.1, 0.0, 1.0, 64),
    (1, 0.35, 0.5, 1.0, 128),
])
def test_spectrum_is_the_linearized_continuum_limit(q, kappa, sigma, p, n_grid):
    # central differences of the continuum limit's own right-hand side at the
    # q-twisted state: every closed-form eigenvalue of a mode l < n_grid/2 - q
    # (whose modes q -+ l the grid resolves) is one of the Jacobian's.  With
    # |rhs| <= 1 an entry carries round-off of about eps/h = 2.2e-10, and
    # the truncation h^2/6 is far below it; the worst gap seen was 3.3e-10
    h = 1e-6
    rhs = rhs_continuum(n_grid, kappa, p, sigma)
    u = 2 * pi * q * np.arange(n_grid) / n_grid
    jacobian = np.column_stack([(rhs(u + e) - rhs(u - e)) / (2 * h)
                                for e in h * np.eye(n_grid)])
    found = np.linalg.eigvals(jacobian)
    report = eigenvalues(ModeParams(q, kappa, sigma, p), ell_max=n_grid // 2 - q - 1)
    gaps = np.abs(report.eigenvalues.ravel()[:, None] - found[None, :]).min(axis=1)
    assert gaps.max() <= 10 * np.finfo(float).eps / h


def test_zeta_points_solve_their_equations_to_round_off():
    # the equations' terms are O(1), so a few ulp is all brentq leaves
    for j in (1, 2, 3):
        assert abs(spectrum._extremum_equation(zeta_extremum(j))) <= 2e-15
    assert abs(phi(zeta0()) - 1.0) <= 2e-15


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


def test_report_is_frozen():
    report = eigenvalues(ModeParams(q=1, kappa=0.2))
    assert isinstance(report, SpectrumReport)
    with pytest.raises(AttributeError):
        report.verdict = "other"
