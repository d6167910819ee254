"""Threshold constants and branch predictions."""

import csv
from dataclasses import replace
from math import cos, inf, isnan, pi, sin, sqrt

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from _oracles import a_coeffs_quad
from ringtwist import bifurcation
from ringtwist.bifurcation import (
    NoRootError,
    a_coeffs,
    constants_rows,
    kappa_critical,
    normal_form_constants,
    predict_bifurcation,
    write_beta_sigma_csv,
    write_constants_csv,
    write_zeta_csv,
)
from ringtwist.spectrum import chi1, chi1_dkappa, chi2, zeta0



def _radial_flow(mu, p, beta, r0, amp):
    """Integrate rdot = mu*r - p*beta*r^3 from r0 over 50/|mu|, stopping at 2*amp."""
    def escaped(t, y):
        return y[0] - 2.0 * amp
    escaped.terminal = True
    # an atol far below the decay bound keeps solver noise from meeting it
    return solve_ivp(lambda t, y: [mu * y[0] - p * beta * y[0] ** 3],
                     (0.0, 50.0 / abs(mu)), [r0], method="DOP853",
                     rtol=1e-12, atol=1e-9 * amp, events=escaped)


@pytest.mark.parametrize("q, expected", [
    (1, 0.3404614171300568),
    (2, 1.0 / 6.0),
    (3, 0.11072682961477364),
    (4, 0.08294700460065831),
])
def test_threshold_location(q, expected):
    kc = kappa_critical(1, q)
    assert kc == pytest.approx(expected, abs=1e-6)
    assert abs(chi1(kc, 1, q)) < 1e-11


def test_threshold_q1_equals_scaled_zeta0():
    assert kappa_critical(1, 1) == pytest.approx(zeta0() / (2 * pi), abs=1e-10)


def test_threshold_q2_is_exactly_one_sixth():
    # chi1(1/6; 1, 2) telescopes to zero analytically
    assert chi1(1.0 / 6.0, 1, 2) == pytest.approx(0.0, abs=1e-15)
    assert kappa_critical(1, 2) == pytest.approx(1.0 / 6.0, abs=1e-12)


@pytest.mark.parametrize("ell, q", [(1, 1), (1, 8), (2, 8), (3, 6), (4, 3), (5, 2)])
def test_kappa_critical_is_first_of_all_roots(ell, q):
    # a scan 25 times finer than the threshold search finds no zero of chi1
    # below its root, and chi1 changes sign across it
    root = kappa_critical(ell, q)
    below = chi1(np.linspace(1e-4, root * (1 - 1e-6), 100_000), ell, q)
    assert np.all(below > 0) or np.all(below < 0)
    assert below[-1] * chi1(root * (1 + 1e-6), ell, q) < 0


@pytest.mark.parametrize("q", range(1, 9))
@pytest.mark.parametrize("ell", range(1, 6))
def test_every_root_is_a_zero_to_round_off(ell, q):
    # brentq stops within a few ulp of kappa, where chi1 is a few 1e-17
    try:
        root = kappa_critical(ell, q)
    except NoRootError:  # ell = 3 and 5 at q = 1
        return
    assert abs(chi1(root, ell, q)) <= 4e-16


# the first zero of chi1(.; ell, q) in (0, 1/2) as kappa_critical returns it,
# in float hex; None where chi1 keeps one sign
ROOTS = {
    (1, 1): "0x1.5ca1eaf07e5ebp-2",
    (1, 2): "0x1.5555555555552p-3",
    (1, 3): "0x1.c58a1b7d3fbdbp-4",
    (1, 4): "0x1.53c0b9ba19f22p-4",
    (1, 5): "0x1.0fa7ab355211ep-4",
    (1, 6): "0x1.c4a022b68d20ep-5",
    (1, 7): "0x1.83e57590960f7p-5",
    (1, 8): "0x1.535ed8d43385ep-5",
    (2, 1): "0x1.fffffffe8cae8p-2",
    (2, 2): "0x1.5ca1eaf07e5ecp-3",
    (2, 3): "0x1.c96ba01caae74p-4",
    (2, 4): "0x1.5555555555556p-4",
    (2, 5): "0x1.10738e3142a94p-4",
    (2, 6): "0x1.c58a1b7d3fbd9p-5",
    (2, 7): "0x1.84780c3c8ce50p-5",
    (2, 8): "0x1.53c0b9ba19f31p-5",
    (3, 1): None,
    (3, 2): "0x1.6e72ceaf79fc8p-3",
    (3, 3): "0x1.d0d7e3eb53290p-4",
    (3, 4): "0x1.582ace8af537cp-4",
    (3, 5): "0x1.11d739fd30faap-4",
    (3, 6): "0x1.c71c71c71c719p-5",
    (3, 7): "0x1.8571fe842f6f3p-5",
    (3, 8): "0x1.5466b6a188fd5p-5",
    (4, 1): "0x1.ffffffffe12ebp-2",
    (4, 2): "0x1.fffffe4ffccf7p-3",
    (4, 3): "0x1.de118a63d68fep-4",
    (4, 4): "0x1.5ca1eaf07e5ecp-4",
    (4, 5): "0x1.13ee2268842e8p-4",
    (4, 6): "0x1.c96ba01caae78p-5",
    (4, 7): "0x1.86dc5ddfec4b9p-5",
    (4, 8): "0x1.5555555555557p-5",
    (5, 1): None,
    (5, 2): "0x1.1c395bcb306d9p-2",
    (5, 3): "0x1.f83ac9c1a31e2p-4",
    (5, 4): "0x1.637d6c57a415bp-4",
    (5, 5): "0x1.16e7ef26cb7f0p-4",
    (5, 6): "0x1.cc98c240267bap-5",
    (5, 7): "0x1.88c53efd6b73ap-5",
    (5, 8): "0x1.56936eb070381p-5",
}


def test_roots_are_pinned_bit_for_bit():
    # the roots are the same floats, whichever form of chi1 brentq is handed
    found = {}
    for ell, q in ROOTS:
        try:
            found[ell, q] = kappa_critical(ell, q).hex()
        except NoRootError:
            found[ell, q] = None
    assert found == ROOTS


def test_no_root_raises():
    # the high-mode curve keeps one sign across (0, 1/2) for this pair
    with pytest.raises(NoRootError):
        kappa_critical(64, 1)


@pytest.mark.parametrize("i", [0, 100, 4095])
def test_an_exact_zero_on_the_scan_is_returned_as_its_grid_point(monkeypatch, i):
    # brentq returns a bracket end where chi1 is exactly 0, so a zero on the
    # scan grid, the first point and the last included, comes back bit for bit
    grid = np.linspace(bifurcation._SCAN_LO, bifurcation._SCAN_HI,
                       bifurcation._SCAN_POINTS)
    monkeypatch.setattr(bifurcation, "chi1",
                        lambda kappa, ell, q: np.asarray(kappa) - grid[i])
    assert kappa_critical(1, 1) == grid[i]


@pytest.mark.parametrize("kappa", [0.09, 0.21, 0.34, 0.46])
@pytest.mark.parametrize("j", [0, 1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_a_coeffs_match_quadrature(kappa, j, q):
    a1, a2 = a_coeffs(q, j, kappa)
    o1, o2 = a_coeffs_quad(q, j, kappa)
    assert a1 == pytest.approx(o1, abs=1e-10)
    assert a2 == pytest.approx(o2, abs=1e-10)


def test_a_coeffs_validation():
    with pytest.raises(ValueError):
        a_coeffs(0, 1, 0.2)
    with pytest.raises(ValueError):
        a_coeffs(1, -1, 0.2)


@pytest.mark.parametrize("kappa", [float("nan"), float("inf"), 5.0, 0.0, -0.1, True])
def test_a_coeffs_checks_kappa_as_chi1_does(kappa):
    # the window overlaps are defined on (0, 1/2], as chi1 is; a NaN once came
    # back as (nan, nan)
    rule = r"must be a finite real number in \(0, 0.5\]"
    with pytest.raises(ValueError, match="kappa " + rule):
        chi1(kappa, 1, 1)
    with pytest.raises(ValueError, match="kappa_crit " + rule):
        a_coeffs(1, 0, kappa)


@pytest.mark.parametrize("q", [1, 2, 3, 4])
@pytest.mark.parametrize("kappa", [0.11, 0.26, 0.43])
def test_rho0_identity_general_kappa(q, kappa):
    # 0.5*(a2(q,0) - a2(q,1)) equals chi1(kappa; 1, q)/2 for every kappa,
    # hence rho0 vanishes identically at the threshold
    a2_0 = a_coeffs(q, 0, kappa)[1]
    a2_1 = a_coeffs(q, 1, kappa)[1]
    assert 0.5 * (a2_0 - a2_1) == pytest.approx(chi1(kappa, 1, q) / 2, abs=1e-14)


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_rho0_vanishes_at_threshold(q):
    c = normal_form_constants(q)
    assert abs(c.rho0) < 1e-11


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_beta_sigma_continuity_at_zero_lag(q):
    c = normal_form_constants(q, 1.0, 0.0)
    assert c.beta_sigma == pytest.approx(c.beta0, abs=1e-12)


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_beta0_assembly(q):
    c = normal_form_constants(q)
    expected = c.beta1 + c.delta1 * c.rho1 / chi1(c.kappa_crit, 2, q)
    assert c.beta0 == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("q", range(1, 9))
def test_interaction_coefficients_are_read_from_a_coeffs(q):
    # a_coeffs at the threshold is the one source of the overlaps a1, a2 of
    # modes 0..3; every coefficient is its combination of them, bit for bit
    c = normal_form_constants(q)
    a1, a2 = (a.tolist() for a in a_coeffs(q, np.arange(4), c.kappa_crit))
    assert c.beta1 == 0.375 * a2[0] - 0.5 * a2[1] + 0.125 * a2[2]
    assert c.beta2 == 0.25 * a1[1] - 0.125 * a1[2]
    assert c.delta1 == a1[1] - 0.5 * a1[2]
    assert c.delta2 == 0.5 * a2[0] - 0.5 * a2[2]
    assert c.rho0 == 0.5 * (a2[0] - a2[1])
    assert c.rho1 == 0.5 * a1[1] - 0.25 * a1[2]
    assert c.rho2 == 0.25 * a2[0] - 0.5 * a2[1] + 0.25 * a2[2]


@pytest.mark.parametrize("q", [1, 2, 3, 4])
@pytest.mark.parametrize("sigma", [0.0, 0.6, -1.1])
def test_p_invariance_of_effective_constants(q, sigma):
    full = normal_form_constants(q, 1.0, sigma)
    weak = normal_form_constants(q, 0.25, sigma)
    for name in ("kappa_crit", "chi1_dk", "beta1", "beta2", "delta1", "delta2",
                 "rho0", "rho1", "rho2", "beta0", "beta_sigma"):
        assert getattr(full, name) == pytest.approx(
            getattr(weak, name), abs=1e-12
        ), name
    # linear dampings and precessions scale with p
    assert weak.mu_j[1] == pytest.approx(0.25 * full.mu_j[1], abs=1e-14)
    assert weak.nu1 == pytest.approx(0.25 * full.nu1, abs=1e-14)


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_beta_sigma_keeps_sign_over_lag_range(q):
    # the formula-derived cubic coefficient stays negative on the whole
    # admissible lag range for every tabulated winding number
    grid = np.linspace(0.0, 1.5, 151)
    values = np.array([normal_form_constants(q, 1.0, s).beta_sigma for s in grid])
    assert np.all(values < 0.0)


def test_beta_sigma_curve_matches_pointwise_constants(tmp_path):
    grid = [0.0, 0.4, 1.0]
    write_beta_sigma_csv(tmp_path / "bs.csv", 2, 0.7, grid)
    with open(tmp_path / "bs.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(row["sigma"]) for row in rows] == grid
    for row in rows:
        direct = normal_form_constants(2, 0.7, float(row["sigma"])).beta_sigma
        assert float(row["beta_sigma"]) == pytest.approx(direct, abs=1e-14)


def test_mu_nu_definitions():
    q, p, sigma = 2, 0.8, 0.9
    c = normal_form_constants(q, p, sigma)
    for idx, j in enumerate((1, 2, 3)):
        assert c.mu_j[idx] == pytest.approx(
            p * chi1(c.kappa_crit, j, q) * cos(sigma), abs=1e-14)
        assert c.nu_j[idx] == pytest.approx(
            p * chi2(c.kappa_crit, j, q) * sin(sigma), abs=1e-14)
    assert abs(c.mu_j[0]) < 1e-12  # threshold mode is marginal
    assert c.nu1 == c.nu_j[0]


def test_omega_is_the_closed_form():
    # the continuum rotation speed at the threshold, as written, bit for bit
    p = 0.6
    for q in range(1, 9):
        for sigma in (-0.8, 0.0, 0.8):
            c = normal_form_constants(q, p, sigma)
            assert c.Omega == p * sin(2 * pi * q * c.kappa_crit) * sin(sigma) / (pi * q)


def test_normal_form_constants_validation():
    with pytest.raises(ValueError):
        normal_form_constants(0)
    with pytest.raises(ValueError):
        normal_form_constants(9)
    with pytest.raises(ValueError):
        normal_form_constants(1, p=0.0)
    with pytest.raises(ValueError):
        normal_form_constants(1, sigma=pi / 2)


class TestPredictions:
    def test_zero_lag_branch_is_unstable_below(self):
        c = normal_form_constants(1, 1.0, 0.0)
        pred = predict_bifurcation(c, 0.33)
        # chibar' > 0 and beta0 < 0: product negative -> unstable branch below
        assert pred.branch_side == "below"
        assert pred.branch_stability == "unstable"
        assert pred.side_of_query == "below"
        assert pred.family_stability_at_query == "stable"
        assert pred.branch_exists_at_query
        expected_amp = sqrt(c.chi1_dk * (0.33 - c.kappa_crit) / c.beta0)
        assert pred.amplitude == pytest.approx(expected_amp, abs=1e-12)
        # nu1 is zero without a lag, so the branch does not oscillate
        assert pred.modulation_frequency.hex() == c.nu1.hex()
        assert pred.modulation_period == inf
        assert pred.omega_tilde.hex() == c.Omega.hex()

    @pytest.mark.parametrize("sigma", [0.0, -0.0])
    @pytest.mark.parametrize("q", range(1, 9))
    def test_zero_lag_modulation_fields_are_the_constants(self, q, sigma):
        # one rule at every lag: the sign of zero comes through from nu1 and Omega
        c = normal_form_constants(q, 1.0, sigma)
        pred = predict_bifurcation(c, c.kappa_crit)
        assert pred.modulation_frequency.hex() == c.nu1.hex()
        assert pred.modulation_period == inf
        assert pred.omega_tilde.hex() == c.Omega.hex()
        assert pred.modulation_frequency == pred.omega_tilde == 0.0

    def test_zero_lag_no_branch_above(self):
        c = normal_form_constants(1, 1.0, 0.0)
        pred = predict_bifurcation(c, 0.35)
        assert pred.side_of_query == "above"
        assert pred.family_stability_at_query == "unstable"
        assert not pred.branch_exists_at_query
        assert isnan(pred.amplitude)

    def test_nonzero_lag_branch_is_unstable_below(self):
        c = normal_form_constants(2, 1.0, pi / 3)
        pred = predict_bifurcation(c, 0.168)
        # chibar' > 0, beta_sigma < 0: the radial equation puts an unstable
        # branch below threshold, so the query above has no branch
        assert pred.branch_side == "below"
        assert pred.branch_stability == "unstable"
        assert pred.side_of_query == "above"
        assert pred.amplitude_radicand == pytest.approx(
            cos(pi / 3) * c.chi1_dk * (0.168 - c.kappa_crit) / c.beta_sigma,
            rel=1e-15)
        assert pred.amplitude_radicand < 0.0
        assert not pred.branch_exists_at_query
        assert isnan(pred.amplitude)
        assert pred.modulation_frequency == pytest.approx(c.nu1, abs=1e-15)
        assert pred.modulation_period == pytest.approx(
            2 * pi / abs(c.nu1), abs=1e-9)
        assert pred.omega_tilde == pytest.approx(c.Omega, abs=1e-9)
        below = predict_bifurcation(c, 0.165)
        assert below.branch_exists_at_query
        assert below.amplitude == pytest.approx(sqrt(
            cos(pi / 3) * c.chi1_dk * (0.165 - c.kappa_crit) / c.beta_sigma),
            rel=1e-15)

    @pytest.mark.parametrize("q", range(1, 9))
    def test_one_rule_across_zero_lag(self, q):
        # no fork at sigma = 0: a tiny lag gives the zero-lag prediction
        for d in (-1e-3, 1e-3):
            zero, tiny = (predict_bifurcation(normal_form_constants(q, 0.8, s),
                                              kappa_critical(1, q) + d)
                          for s in (0.0, 1e-9))
            for name in ("branch_side", "branch_stability", "side_of_query",
                         "branch_exists_at_query", "family_stability_at_query"):
                assert getattr(tiny, name) == getattr(zero, name), name
            assert tiny.amplitude_radicand == pytest.approx(
                zero.amplitude_radicand, rel=1e-9)

    @pytest.mark.parametrize("q", range(1, 9))
    @pytest.mark.parametrize("sigma", [-1.2, -0.5, 0.0, 0.5, 1.2])
    def test_branch_is_the_reduced_flow_equilibrium(self, q, sigma):
        p = 0.8
        c = normal_form_constants(q, p, sigma)
        preds = [predict_bifurcation(c, c.kappa_crit + d) for d in (-1e-3, 1e-3)]
        exists = [pred for pred in preds if pred.branch_exists_at_query]
        assert len(exists) == 1
        pred = exists[0]
        mu = p * cos(sigma) * c.chi1_dk * (pred.kappa - c.kappa_crit)
        amp = pred.amplitude
        # every case of this grid has an unstable branch: a start just inside
        # it decays to the twisted state, one just outside escapes past 2*amp
        assert pred.branch_stability == "unstable"
        inside, outside = (_radial_flow(mu, p, c.beta_sigma, r0, amp)
                           for r0 in (0.99 * amp, 1.01 * amp))
        assert inside.status == 0 and inside.y[0, -1] < 1e-6 * amp
        assert outside.status == 1 and outside.t_events[0].size == 1

    @pytest.mark.parametrize("d", [-1e-3, 1e-3])
    @pytest.mark.parametrize("sigma", [-0.7, 0.0, 0.7])
    @pytest.mark.parametrize("chi_sign, beta_sign", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_every_sign_arm_is_read_from_the_flow(self, chi_sign, beta_sign, sigma, d):
        # no real threshold has beta_sigma > 0, so the grid above never meets
        # a stable branch or one above threshold; signed copies of real
        # constants reach every arm of the radial equation
        p = 0.8
        real = normal_form_constants(1, p, sigma)
        c = replace(real, chi1_dk=chi_sign * abs(real.chi1_dk),
                    beta_sigma=beta_sign * abs(real.beta_sigma))
        pred = predict_bifurcation(c, c.kappa_crit + d)
        mu = p * cos(sigma) * c.chi1_dk * d
        # the flow has a nonzero equilibrium iff mu and beta_sigma share a sign
        has_branch = mu * c.beta_sigma > 0.0
        assert pred.branch_exists_at_query == has_branch
        assert (pred.branch_side == pred.side_of_query) == has_branch
        if not has_branch:
            assert isnan(pred.amplitude)
            return
        amp = pred.amplitude
        assert amp ** 2 == pytest.approx(mu / (p * c.beta_sigma), rel=1e-12)
        inside, outside = (_radial_flow(mu, p, c.beta_sigma, r0, amp)
                           for r0 in (0.99 * amp, 1.01 * amp))
        if pred.branch_stability == "stable":
            for end in (inside, outside):
                assert end.status == 0
                assert end.y[0, -1] == pytest.approx(amp, rel=1e-9)
        else:
            assert pred.branch_stability == "unstable"
            assert inside.status == 0 and inside.y[0, -1] < 1e-6 * amp
            assert outside.status == 1 and outside.t_events[0].size == 1
        assert pred.branch_stability == ("stable" if beta_sign > 0 else "unstable")

    @pytest.mark.parametrize("kappa", [float("nan"), float("inf"), -float("inf"),
                                       0.0, -1.0, 0.6, True])
    def test_query_kappa_checked(self, kappa):
        with pytest.raises(ValueError, match="kappa"):
            predict_bifurcation(normal_form_constants(1), kappa)

    def test_query_at_threshold(self):
        c = normal_form_constants(1)
        pred = predict_bifurcation(c, c.kappa_crit)
        assert pred.side_of_query == "at"
        assert pred.family_stability_at_query == "marginal"
        assert pred.branch_exists_at_query
        assert pred.amplitude == 0.0

    def test_hypothesis_checks_higher_modes(self):
        for q in (1, 2, 3, 4):
            pred = predict_bifurcation(normal_form_constants(q), 0.3)
            assert pred.hypothesis_ok
            assert pred.hypothesis_violations == ()


def test_constants_rows_columns_and_values():
    rows = constants_rows([1, 2], 1.0, 0.5)
    assert [row["q"] for row in rows] == [1, 2]
    c1 = normal_form_constants(1, 1.0, 0.5)
    assert rows[0]["kappa_crit"] == pytest.approx(c1.kappa_crit, abs=1e-15)
    assert rows[0]["mu2_over_p"] == pytest.approx(
        chi1(c1.kappa_crit, 2, 1), abs=1e-15)
    assert rows[0]["nu1_over_p_sin_sigma"] == pytest.approx(
        chi2(c1.kappa_crit, 1, 1), abs=1e-15)
    assert rows[0]["beta_sigma"] == pytest.approx(c1.beta_sigma, abs=1e-15)


def test_constants_csv_round_trip(tmp_path):
    path = tmp_path / "constants.csv"
    rows = constants_rows([1, 2, 3, 4])
    write_constants_csv(path, rows)
    with open(path, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == 4
    for row, src in zip(parsed, rows):
        assert int(row["q"]) == src["q"]
        assert float(row["beta0"]) == src["beta0"]


def test_zeta_csv(tmp_path):
    path = tmp_path / "zeta.csv"
    write_zeta_csv(path)
    with open(path, newline="") as fh:
        values = {row["name"]: float(row["value"]) for row in csv.DictReader(fh)}
    assert values["zeta0"] == pytest.approx(zeta0(), abs=1e-15)
    assert values["kappa_crit_q1"] == pytest.approx(zeta0() / (2 * pi), abs=1e-15)


def test_beta_sigma_csv(tmp_path):
    path = tmp_path / "bs.csv"
    write_beta_sigma_csv(path, 2, 1.0, [0.0, 0.5])
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["beta_sigma"]) == pytest.approx(
        normal_form_constants(2).beta0, abs=1e-12)


def test_constants_are_frozen():
    c = normal_form_constants(1)
    with pytest.raises(AttributeError):
        c.beta0 = 0.0
    assert replace(c) == c


@pytest.fixture
def empty_threshold_cache():
    bifurcation._threshold.cache_clear()
    yield
    bifurcation._threshold.cache_clear()


def test_each_threshold_is_found_once_per_process(monkeypatch, empty_threshold_cache,
                                                  tmp_path):
    calls = []
    find = bifurcation.kappa_critical

    def counted(ell, q):
        calls.append(q)
        return find(ell, q)

    monkeypatch.setattr(bifurcation, "kappa_critical", counted)
    for q in range(1, 9):
        for sigma in (0.0, 0.5, -0.5, 1.2, -1.2):
            for p in (0.7, 1.0):
                normal_form_constants(q, p, sigma)
        constants_rows([q], 0.7, 0.5)
        write_beta_sigma_csv(tmp_path / "bs.csv", q, 0.7, [0.0, 0.5])
    normal_form_constants(np.int64(3))
    normal_form_constants(np.array(3))
    assert sorted(calls) == list(range(1, 9))
    assert bifurcation._threshold.cache_info().currsize == 8


def test_a_singular_mode_2_elimination_is_refused_and_not_cached(
        monkeypatch, empty_threshold_cache):
    # chi1(kappa_crit; 2, q) = a2(0) - a2(2) is the divisor of beta0; a
    # threshold where it vanishes raises, and the cache keeps no failure
    find = bifurcation.a_coeffs

    def singular(q, j, kappa_crit):
        a1, a2 = find(q, j, kappa_crit)
        a2[2] = a2[0]
        return a1, a2

    with monkeypatch.context() as patched:
        patched.setattr(bifurcation, "a_coeffs", singular)
        with pytest.raises(ValueError, match="mode-2 elimination is singular"):
            normal_form_constants(1)
    assert bifurcation._threshold.cache_info().currsize == 0
    fresh = bifurcation._threshold.__wrapped__(1)[0]
    assert normal_form_constants(1).beta0 == fresh["beta0"]


@pytest.mark.parametrize("q", range(1, 9))
def test_cached_threshold_is_the_uncached_one_and_read_only(q, empty_threshold_cache):
    t, chi1_j, chi2_j = bifurcation._threshold(q)
    fresh, fresh_chi1, fresh_chi2 = bifurcation._threshold.__wrapped__(q)
    assert dict(t) == fresh
    assert all(type(t[k]) is type(fresh[k]) for k in fresh)
    assert chi1_j.tobytes() == fresh_chi1.tobytes()
    assert chi2_j.tobytes() == fresh_chi2.tobytes()
    before = normal_form_constants(q, 0.7, 0.5)
    with pytest.raises(ValueError, match="read-only"):
        chi1_j[1] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        chi2_j[0] = 1.0
    with pytest.raises(TypeError):
        t["beta1"] = 1.0
    assert normal_form_constants(q, 0.7, 0.5) == before
    assert bifurcation._threshold(q)[0]["beta1"] == fresh["beta1"]
