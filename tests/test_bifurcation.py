"""Threshold constants, branch predictions, and the reduced radial flow."""

import csv
from dataclasses import replace
from math import cos, isnan, pi, sin, sqrt

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from _oracles import a_coeffs_quad
from ringtwist import bifurcation
from ringtwist.bifurcation import (
    NoRootError,
    a_coeffs,
    beta_sigma_curve,
    constants_rows,
    kappa_critical,
    kappa_critical_all,
    normal_form_constants,
    predict_bifurcation,
    reduced_amplitude_flow,
    write_beta_sigma_csv,
    write_constants_csv,
    write_zeta_csv,
)
from ringtwist.spectrum import _chi1_root_callback, chi1, chi1_dkappa, chi2, zeta0


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


def test_kappa_critical_all_ascending_roots():
    roots = kappa_critical_all(1, 3)
    assert roots == sorted(roots)
    for root in roots:
        assert abs(chi1(root, 1, 3)) < 1e-11


@pytest.mark.parametrize("ell, q", [(1, 1), (1, 8), (2, 8), (3, 6), (4, 3), (5, 2)])
def test_kappa_critical_is_first_of_all_roots(ell, q):
    assert kappa_critical(ell, q) == kappa_critical_all(ell, q)[0]


@pytest.mark.parametrize("ell, q", [(1, 1), (1, 2), (2, 2), (3, 1), (5, 8)])
def test_root_callback_is_bit_identical_to_chi1(ell, q):
    # the root-finding callback skips chi1's checks but not its float operations
    f = _chi1_root_callback(ell, q)
    for kappa in np.linspace(1e-4, 0.5, 257):
        assert f(float(kappa)) == chi1(float(kappa), ell, q)


@pytest.mark.parametrize("q", range(1, 9))
@pytest.mark.parametrize("ell", range(1, 6))
def test_every_root_is_a_zero_to_round_off(ell, q):
    # brentq stops within a few ulp of kappa, where chi1 is a few 1e-17
    f = _chi1_root_callback(ell, q)
    try:
        roots = kappa_critical_all(ell, q)
    except NoRootError:  # ell = 3 and 5 at q = 1
        roots = []
    for root in roots:
        assert abs(f(root)) <= 4e-16


def test_no_root_raises():
    # the high-mode curve keeps one sign across (0, 1/2) for this pair
    with pytest.raises(NoRootError):
        kappa_critical_all(64, 1)
    with pytest.raises(NoRootError):
        kappa_critical(64, 1)


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
    values = np.array([b for _, b in beta_sigma_curve(q, 1.0, grid)])
    assert np.all(values < 0.0)


def test_beta_sigma_curve_matches_pointwise_constants():
    grid = [0.0, 0.4, 1.0]
    curve = beta_sigma_curve(2, 0.7, grid)
    for sigma, value in curve:
        direct = normal_form_constants(2, 0.7, sigma).beta_sigma
        assert value == pytest.approx(direct, abs=1e-14)


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
        assert pred.modulation_frequency is None

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
        _, r_in = reduced_amplitude_flow(mu, p, c.beta_sigma, 0.99 * amp,
                                         (0.0, 50.0 / abs(mu)))
        _, r_out = reduced_amplitude_flow(mu, p, c.beta_sigma, 1.01 * amp,
                                          (0.0, 50.0 / abs(mu)))
        if pred.branch_stability == "stable":
            assert r_in[-1] == pytest.approx(amp, rel=1e-9)
            assert r_out[-1] == pytest.approx(amp, rel=1e-9)
        else:
            assert r_in[-1] < 1e-6 * amp
            assert np.isinf(r_out[-1])

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


class TestReducedFlow:
    @pytest.mark.parametrize("mu, p, beta, r0", [
        (-0.02, 1.0, -0.45, 0.1),
        (-0.02, 1.0, -0.45, 0.2),
        (0.015, 0.5, 0.2, 0.05),
        (0.0, 1.0, 0.3, 0.4),
        (-0.03, 1.0, 0.25, 0.5),
    ])
    def test_closed_form_matches_ode_solver(self, mu, p, beta, r0):
        times, r = reduced_amplitude_flow(mu, p, beta, r0, (0.0, 40.0), num=81)
        sol = solve_ivp(
            lambda t, y: [mu * y[0] - p * beta * y[0] ** 3],
            (0.0, 40.0), [r0], t_eval=times, rtol=1e-11, atol=1e-13,
            method="DOP853",
        )
        assert np.all(np.isfinite(r))
        assert np.max(np.abs(r - sol.y[0])) < 1e-8

    def test_blow_up_reported_as_inf(self):
        # mu > 0 with negative cubic coefficient: finite-time escape
        times, r = reduced_amplitude_flow(0.1, 1.0, -0.5, 0.2, (0.0, 100.0),
                                          num=401)
        assert np.isinf(r[-1])
        first = int(np.argmax(np.isinf(r)))
        assert first > 0
        assert np.all(np.isinf(r[first:]))
        assert np.all(np.isfinite(r[:first]))
        # analytic blow-up time of the logistic form
        y0 = 0.2 ** 2
        t_star = np.log1p(0.1 / (0.5 * y0)) / (2 * 0.1)
        assert times[first] == pytest.approx(t_star, abs=times[1] - times[0])

    def test_supercritical_equilibrium_attracts(self):
        mu, p, beta = 0.05, 1.0, 0.4
        r_star = sqrt(mu / (p * beta))
        _, r = reduced_amplitude_flow(mu, p, beta, 0.01, (0.0, 400.0))
        assert r[-1] == pytest.approx(r_star, abs=1e-6)
        _, r = reduced_amplitude_flow(mu, p, beta, 1.0, (0.0, 400.0))
        assert r[-1] == pytest.approx(r_star, abs=1e-6)

    def test_subcritical_equilibrium_separates(self):
        # mu < 0, beta < 0: nonzero equilibrium is a basin boundary
        mu, p, beta = -0.02, 1.0, -0.45
        r_star = sqrt(mu / (p * beta))
        _, r_in = reduced_amplitude_flow(mu, p, beta, 0.9 * r_star, (0.0, 2000.0))
        assert r_in[-1] < 1e-6
        _, r_out = reduced_amplitude_flow(mu, p, beta, 1.1 * r_star, (0.0, 2000.0))
        assert np.isinf(r_out[-1])

    def test_zero_mu_algebraic_decay(self):
        _, r = reduced_amplitude_flow(0.0, 1.0, 0.3, 0.4, (0.0, 50.0))
        expected = sqrt(0.4 ** 2 / (1 + 2 * 0.3 * 0.4 ** 2 * 50.0))
        assert r[-1] == pytest.approx(expected, abs=1e-12)

    def test_negative_r0_rejected(self):
        with pytest.raises(ValueError):
            reduced_amplitude_flow(0.1, 1.0, 0.3, -0.1, (0.0, 1.0))

    @pytest.mark.parametrize("name, args", [
        ("mu", (float("nan"), 1.0, 0.3, 0.1, (0.0, 1.0))),
        ("mu", (float("inf"), 1.0, 0.3, 0.1, (0.0, 1.0))),
        ("p", (0.1, float("nan"), 0.3, 0.1, (0.0, 1.0))),
        ("beta_sel", (0.1, 1.0, float("-inf"), 0.1, (0.0, 1.0))),
        (r"t_span\[0\]", (0.1, 1.0, 0.3, 0.1, (float("nan"), 1.0))),
        (r"t_span\[1\]", (0.1, 1.0, 0.3, 0.1, (0.0, float("nan")))),
        (r"t_span\[1\]", (0.1, 1.0, 0.3, 0.1, (0.0, float("inf")))),
    ], ids=["mu-nan", "mu-inf", "p-nan", "beta-inf", "t0-nan", "t1-nan", "t1-inf"])
    def test_non_finite_inputs_rejected(self, name, args):
        with pytest.raises(ValueError, match=f"^{name} must"):
            reduced_amplitude_flow(*args)

    def test_sample_count_checked(self):
        for num in (0, -3, 2.5, True):
            with pytest.raises(ValueError, match="num"):
                reduced_amplitude_flow(0.1, 1.0, 0.3, 0.1, (0.0, 1.0), num=num)
        times, r = reduced_amplitude_flow(0.1, 1.0, 0.3, 0.1, (0.0, 1.0), num=1)
        assert times.tolist() == [0.0]
        assert r == pytest.approx([0.1], rel=1e-15)


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


def test_each_threshold_is_found_once_per_process(monkeypatch, empty_threshold_cache):
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
        beta_sigma_curve(q, 0.7, [0.0, 0.5])
    normal_form_constants(np.int64(3))
    normal_form_constants(np.array(3))
    assert sorted(calls) == list(range(1, 9))
    assert bifurcation._threshold.cache_info().currsize == 8


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
