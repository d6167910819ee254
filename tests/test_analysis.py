"""Twisted-state fitting, modulation tracking, and convergence checks."""

import csv
import json
from math import pi, sqrt

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from _oracles import distance_grid
from ringtwist.analysis import (
    ModulationEstimate,
    NoFitError,
    convergence_study,
    deviation_field,
    deviation_series,
    distance_mod_rotation,
    estimate_modulation,
    fit_twisted,
    fourier_mode1,
    write_convergence_csv,
    write_fit_json,
    write_modulation_csv,
)
from ringtwist.circular import resultant, wrap_angle
from ringtwist.dynamics import SimulationConfig, Trajectory, twisted_profile
from ringtwist.graphs import GraphSpec


def synthetic_trajectory(times, phase_rows, n=128, q=1):
    cfg = SimulationConfig(
        graph=GraphSpec(n=n, p=1.0, kappa=0.31), q=q,
        t_end=float(times[-1]), perturbation_amplitude=0.0,
    )
    return Trajectory(times=times, phases=phase_rows, config=cfg, omega=0.0)


def modulated_rows(times, n=128, q=1, drift_rate=0.01,
                   amplitude=lambda t: 0.2 + 0.05 * np.sin(0.1 * t),
                   mod_phase=lambda t: 0.5 + 0.3 * t):
    profile = twisted_profile(n, q)
    x = 2.0 * np.pi * np.arange(1, n + 1) / n
    return np.stack([
        profile + drift_rate * t + amplitude(t) * np.sin(x + mod_phase(t))
        for t in times
    ])


class TestFitTwisted:
    def test_recovers_rigid_rotation(self):
        u = twisted_profile(64, 1) + 0.3
        fit = fit_twisted(u, 1)
        assert fit.theta == pytest.approx(0.3, abs=1e-12)
        assert fit.residual_max < 1e-12
        assert fit.residual_l2 < 1e-12

    def test_reports_wrapped_residuals(self):
        n = 200
        bump = 0.05 * np.sin(2.0 * np.pi * np.arange(1, n + 1) / n)
        fit = fit_twisted(twisted_profile(n, 2) + 0.3 + bump, 2)
        assert fit.theta == pytest.approx(0.3, abs=1e-3)
        assert fit.residual_max == pytest.approx(0.05, abs=1e-3)
        assert fit.residual_l2 == pytest.approx(0.05 / sqrt(2), abs=1e-3)

    def test_degenerate_alignment_raises(self):
        # a 2-twist is not a rotated 1-twist: the residual field winds once
        # around the circle and its resultant vanishes
        with pytest.raises(NoFitError):
            fit_twisted(twisted_profile(64, 2), 1)


class TestDeviationField:
    def test_invariant_under_global_rotation(self):
        rng = np.random.default_rng(2)
        u = twisted_profile(100, 1) + rng.uniform(-0.2, 0.2, 100)
        base = deviation_field(u, 1)
        assert np.allclose(deviation_field(u + 0.7, 1), base, atol=1e-12)
        assert np.allclose(deviation_field(u + 2 * pi, 1), base, atol=1e-12)

    @given(u=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=40),
           q=st.integers(0, 4), shift=st.floats(-50.0, 50.0))
    def test_rotation_invariance_property(self, u, q, shift):
        u = np.array(u)
        diff = u - twisted_profile(len(u), q)
        # a vanishing resultant leaves the alignment to the theta = 0 convention
        assume(abs(resultant(diff)) > 1e-6)
        moved = deviation_field(u + shift, q)
        assert np.max(np.abs(wrap_angle(moved - deviation_field(u, q)))) < 1e-9

    def test_exact_profile_has_zero_field(self):
        assert np.max(np.abs(deviation_field(twisted_profile(50, 3), 3))) < 1e-12

    def test_series_tracks_amplitude(self):
        times = np.arange(0.0, 20.5, 0.5)
        traj = synthetic_trajectory(times, modulated_rows(times))
        series = deviation_series(traj)
        amps = 0.2 + 0.05 * np.sin(0.1 * times)
        assert np.all(series <= amps + 1e-12)
        assert np.all(series >= 0.99 * amps)


class TestFourierMode1:
    def test_pure_mode(self):
        x = 2.0 * np.pi * np.arange(1, 201) / 200
        c, s, r, psi = fourier_mode1(0.4 * np.sin(x + 0.9))
        assert c == pytest.approx(0.2 * np.sin(0.9), abs=1e-12)
        assert s == pytest.approx(0.2 * np.cos(0.9), abs=1e-12)
        assert r == pytest.approx(0.4, abs=1e-12)
        assert psi == pytest.approx(0.9, abs=1e-12)

    def test_higher_harmonics_integrate_out(self):
        x = 2.0 * np.pi * np.arange(1, 201) / 200
        v = 0.4 * np.sin(x + 0.9) + 0.25 * np.sin(3 * x + 0.2)
        _, _, r, psi = fourier_mode1(v)
        assert r == pytest.approx(0.4, abs=1e-12)
        assert psi == pytest.approx(0.9, abs=1e-12)

    def test_zero_field(self):
        c, s, r, _ = fourier_mode1(np.zeros(32))
        assert (c, s, r) == (0.0, 0.0, 0.0)


class TestDistanceModRotation:
    def test_rotation_invariance_and_self_distance(self):
        rng = np.random.default_rng(5)
        u = rng.uniform(-pi, pi, 80)
        assert distance_mod_rotation(u, u) == 0.0
        assert distance_mod_rotation(u, u + 1.3) < 1e-12

    @given(pair=st.integers(1, 40).flatmap(lambda n: st.tuples(
               *[st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)] * 2)),
           shift=st.floats(-50.0, 50.0))
    def test_rotation_invariance_property(self, pair, shift):
        a, b = np.array(pair[0]), np.array(pair[1])
        assume(abs(resultant(a - b)) > 1e-6)
        d = distance_mod_rotation(a, b)
        assert abs(distance_mod_rotation(a + shift, b) - d) < 1e-9
        assert abs(distance_mod_rotation(a, b + shift) - d) < 1e-9
        assert abs(distance_mod_rotation(a + shift, b + shift) - d) < 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            distance_mod_rotation(np.zeros(4), np.zeros(5))

    def test_matches_grid_search_on_concentrated_fields(self):
        rng = np.random.default_rng(7)
        base = twisted_profile(120, 1)
        a = base + rng.uniform(-0.1, 0.1, 120)
        b = base + 0.4 + rng.uniform(-0.1, 0.1, 120)
        fast = distance_mod_rotation(a, b)
        oracle = distance_grid(a, b)
        assert fast == pytest.approx(oracle, abs=1e-5)

    def test_antipodal_convention(self):
        # half the nodes differ by pi: the alignment resultant vanishes and
        # the convention theta = 0 applies, giving pi/sqrt(2)
        a = np.zeros(64)
        b = np.concatenate([np.zeros(32), np.full(32, pi)])
        assert distance_mod_rotation(a, b) == pytest.approx(
            pi / sqrt(2), abs=1e-12)


class TestEstimateModulation:
    def test_recovers_drift_amplitude_and_rates(self):
        times = np.arange(0.0, 80.5, 0.5)
        traj = synthetic_trajectory(times, modulated_rows(times))
        est = estimate_modulation(traj)
        assert est.omega_tilde == pytest.approx(0.01, abs=1e-10)
        assert est.psi_rate == pytest.approx(0.3, abs=1e-10)
        amps = 0.2 + 0.05 * np.sin(0.1 * times)
        assert np.max(np.abs(est.r - amps)) < 1e-12
        assert est.r_min == pytest.approx(np.min(amps), abs=1e-12)
        assert est.r_max == pytest.approx(np.max(amps), abs=1e-12)
        assert est.r_final == pytest.approx(amps[-1], abs=1e-12)

    def test_window_selection(self):
        times = np.arange(0.0, 80.5, 0.5)
        traj = synthetic_trajectory(times, modulated_rows(times))
        est = estimate_modulation(traj, t_min=40.0, t_max=60.0)
        assert est.times[0] == 40.0
        assert est.times[-1] == 60.0
        assert est.psi_rate == pytest.approx(0.3, abs=1e-10)

    def test_too_few_samples(self):
        times = np.arange(0.0, 10.5, 0.5)
        traj = synthetic_trajectory(times, modulated_rows(times))
        with pytest.raises(NoFitError, match="samples"):
            estimate_modulation(traj, t_min=9.9, t_max=10.1)

    def test_aliasing_detected(self):
        times = np.arange(0.0, 12.0, 1.1)
        rows = modulated_rows(times, amplitude=lambda t: 0.2,
                              mod_phase=lambda t: 3.0 * t)
        with pytest.raises(NoFitError, match="psi advances"):
            estimate_modulation(synthetic_trajectory(times, rows))

    def test_aliasing_ignored_below_amplitude_floor(self):
        # psi is meaningless noise when the modulation has died out
        times = np.arange(0.0, 12.0, 1.1)
        rows = modulated_rows(times, amplitude=lambda t: 1e-4,
                              mod_phase=lambda t: 3.0 * t)
        est = estimate_modulation(synthetic_trajectory(times, rows))
        assert est.r_max < 2e-4


class TestConvergenceStudy:
    def template(self, **kwargs):
        defaults = dict(
            graph=GraphSpec(n=20, p=1.0, kappa=0.31), q=1,
            perturbation_amplitude=0.0, t_end=2.0, rel_tol=1e-10,
            abs_tol=1e-12,
        )
        defaults.update(kwargs)
        return SimulationConfig(**defaults)

    def test_errors_decrease_with_resolution(self):
        rows = convergence_study(self.template(), [20, 40], 80)
        assert [row["n"] for row in rows] == [20, 40]
        assert rows[0]["error"] > rows[1]["error"] > 0.0

    def test_reference_must_be_multiple(self):
        with pytest.raises(ValueError, match="multiple"):
            convergence_study(self.template(), [30], 80)

    def test_custom_profile_embedding_floor(self):
        # the exact twisted profile stays twisted at every resolution, so
        # the reported error is purely the piecewise-constant embedding of
        # the coarse grid: alternating residuals +-pi/40 after alignment
        rows = convergence_study(
            self.template(), [20], 40,
            profile=lambda x: 2.0 * np.pi * x, t_end=1.0,
        )
        assert rows[0]["error"] == pytest.approx(pi / 40, abs=1e-6)

    def test_constant_profile_no_floor(self):
        # a uniform state is a fixed point at sigma = 0 and embeds exactly
        rows = convergence_study(
            self.template(), [20], 40,
            profile=lambda x: np.full_like(x, 0.3), t_end=1.0,
        )
        assert rows[0]["error"] < 1e-10


class TestWriters:
    def test_fit_json(self, tmp_path):
        fit = fit_twisted(twisted_profile(64, 1) + 0.3, 1)
        path = tmp_path / "fit.json"
        write_fit_json(path, fit)
        payload = json.loads(path.read_text())
        assert payload["q"] == 1
        assert payload["theta"] == fit.theta
        assert payload["residual_l2"] == fit.residual_l2

    def test_modulation_csv(self, tmp_path):
        times = np.arange(0.0, 20.5, 0.5)
        est = estimate_modulation(
            synthetic_trajectory(times, modulated_rows(times)))
        path = tmp_path / "mod.csv"
        write_modulation_csv(path, est)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(times)
        assert float(rows[3]["r"]) == est.r[3]
        assert float(rows[-1]["drift"]) == est.drift[-1]

    def test_convergence_csv(self, tmp_path):
        rows = [{"n": 20, "error": 0.125}, {"n": 40, "error": 0.03125}]
        path = tmp_path / "conv.csv"
        write_convergence_csv(path, rows)
        with open(path, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert [int(r["n"]) for r in parsed] == [20, 40]
        assert [float(r["error"]) for r in parsed] == [0.125, 0.03125]


def test_modulation_estimate_is_frozen():
    times = np.arange(0.0, 5.5, 0.5)
    est = estimate_modulation(synthetic_trajectory(times, modulated_rows(times)))
    assert isinstance(est, ModulationEstimate)
    with pytest.raises(AttributeError):
        est.psi_rate = 0.0
