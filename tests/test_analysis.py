"""Twisted-state fitting, modulation tracking, and convergence checks."""

import csv
import json
import tracemalloc
from dataclasses import replace
from math import pi, sqrt

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from _oracles import (
    deviation_series_per_row,
    distance_grid,
    modulation_per_row,
    sweep_row_per_row,
)
from ringtwist import analysis, cli
from ringtwist.analysis import (
    ModulationEstimate,
    NoFitError,
    convergence_study,
    deviation_field,
    deviation_series,
    distance_mod_rotation,
    estimate_modulation,
    fit_twisted,
    write_fit_json,
    write_modulation_csv,
)
from ringtwist.circular import resultant, wrap_angle
from ringtwist.dynamics import (
    SimulationConfig,
    Trajectory,
    run_experiment,
    twisted_profile,
)
from ringtwist.graphs import GraphSpec


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_estimate(est, reference):
    for name, value in reference.items():
        assert same_bits(getattr(est, name), value), name


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

    def test_non_finite_snapshot_gives_a_nan_fit(self):
        # a NaN resultant is not a degenerate one: the fit reports NaN
        # instead of raising NoFitError
        fit = fit_twisted(np.full(5, np.nan), 1)
        assert all(np.isnan([fit.theta, fit.residual_max, fit.residual_l2]))

    def test_degenerate_alignment_raises(self):
        # a 2-twist is not a rotated 1-twist: the residual field winds once
        # around the circle and its resultant vanishes
        with pytest.raises(NoFitError):
            fit_twisted(twisted_profile(64, 2), 1)


@pytest.mark.parametrize("value", [np.inf, -np.inf])
@pytest.mark.parametrize("summary", [
    lambda u: [(fit := fit_twisted(u, 1)).theta, fit.residual_max, fit.residual_l2],
    lambda u: deviation_field(u, 1),
    lambda u: distance_mod_rotation(u, np.zeros(len(u))),
], ids=["fit_twisted", "deviation_field", "distance_mod_rotation"])
def test_infinite_phase_gives_nan_without_a_warning(summary, value):
    # as a NaN phase does; pytest turns a RuntimeWarning from cos, sin or
    # mod into an error
    assert np.isnan(summary(np.array([value, 0.0, 0.0, 0.0, 0.0]))).all()


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


def mode1(v, q=1):
    # (c, s, r, psi) of estimate_modulation on a field v added to the q-twist
    n = len(v)
    row = twisted_profile(n, q) + v
    est = estimate_modulation(synthetic_trajectory(np.array([0.0, 1.0]),
                                                   np.stack([row, row]), n=n, q=q))
    return est.c[0], est.s[0], est.r[0], est.psi[0]


class TestFourierMode1:
    def test_pure_mode(self):
        x = 2.0 * np.pi * np.arange(1, 201) / 200
        c, s, r, psi = mode1(0.4 * np.sin(x + 0.9))
        assert c == pytest.approx(0.2 * np.sin(0.9), abs=1e-12)
        assert s == pytest.approx(0.2 * np.cos(0.9), abs=1e-12)
        assert r == pytest.approx(0.4, abs=1e-12)
        assert psi == pytest.approx(0.9, abs=1e-12)

    def test_higher_harmonics_integrate_out(self):
        x = 2.0 * np.pi * np.arange(1, 201) / 200
        v = 0.4 * np.sin(x + 0.9) + 0.25 * np.sin(3 * x + 0.2)
        _, _, r, psi = mode1(v, q=2)
        assert r == pytest.approx(0.4, abs=1e-12)
        assert psi == pytest.approx(0.9, abs=1e-12)

    def test_zero_field(self):
        c, s, r, _ = mode1(np.zeros(32))
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

    def test_modes_equal_fourier_mode1_per_sample(self):
        # one record, aligned once per row, gives the per-row numbers bit for bit
        times = np.arange(0.0, 20.5, 0.5)
        traj = synthetic_trajectory(times, modulated_rows(times, n=97), n=97)
        assert_same_estimate(estimate_modulation(traj), modulation_per_row(traj))
        assert_same_estimate(estimate_modulation(traj, t_min=3.2, t_max=17.0),
                             modulation_per_row(traj, t_min=3.2, t_max=17.0))
        assert same_bits(deviation_series(traj), deviation_series_per_row(traj))

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


class TestDeviationRecord:
    """Every per-sample summary reads one pass that aligns each stored row once."""

    @pytest.fixture(scope="class")
    def band_config(self):
        return SimulationConfig(
            graph=GraphSpec(n=400, p=1.0, kappa=0.168), q=2, sigma=pi / 3,
            t_end=40.0, sample_dt=0.5, perturbation_amplitude=1e-2, ic_seed=7,
            ic_mode1_amplitude=0.32,
        )

    @pytest.fixture()
    def align_calls(self, monkeypatch):
        calls, real = [], analysis._align

        def counted(v_raw, strict=False):
            calls.append(np.shape(v_raw))
            return real(v_raw, strict)

        monkeypatch.setattr(analysis, "_align", counted)
        return calls

    def test_band_run_matches_per_row_oracle(self, band_config, tmp_path):
        traj = run_experiment(band_config)
        assert_same_estimate(estimate_modulation(traj), modulation_per_row(traj))
        assert_same_estimate(estimate_modulation(traj, t_min=10.0, t_max=30.0),
                             modulation_per_row(traj, t_min=10.0, t_max=30.0))
        assert same_bits(deviation_series(traj), deviation_series_per_row(traj))
        for threshold in (0.3, 0.34, 10.0):  # escapes at once, midway, never
            row = cli._sweep_worker({"config": band_config, "value": 0.168,
                                     "csv_path": str(tmp_path / "t.csv"),
                                     "threshold": threshold})
            assert repr(row) == repr(sweep_row_per_row(traj, 0.168, threshold))

    def test_each_stored_row_is_aligned_once(self, band_config, align_calls, tmp_path):
        times = np.arange(0.0, 80.5, 0.5)
        traj = synthetic_trajectory(times, modulated_rows(times))
        deviation_series(traj)
        assert align_calls == [(128,)] * len(times)
        align_calls.clear()
        estimate_modulation(traj, t_min=40.0, t_max=60.0)
        assert align_calls == [(128,)] * 41
        align_calls.clear()
        cli._sweep_worker({"config": band_config, "value": 0.168,
                           "csv_path": str(tmp_path / "t.csv"), "threshold": 0.5})
        assert align_calls == [(400,)] * 81

    def test_window_is_read_without_a_copy(self):
        # a (200 x 5000) trajectory: the window's rows alone take 7.2 MB
        times = np.arange(200.0)
        traj = synthetic_trajectory(times, modulated_rows(times, n=5000), n=5000)
        window_bytes = traj.phases[10:190].nbytes
        tracemalloc.start()
        try:
            estimate_modulation(traj, t_min=10.0, t_max=189.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < window_bytes / 10


class TestConvergenceStudy:
    def template(self, **kwargs):
        defaults = dict(
            graph=GraphSpec(n=20, p=1.0, kappa=0.31), q=1,
            perturbation_amplitude=0.0, t_end=2.0, rel_tol=1e-10,
            abs_tol=1e-12, ic_mode1_amplitude=0.1,
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

    @pytest.mark.parametrize("n_list", [[0], [20, 0], [-20], [2.5]])
    def test_resolutions_must_be_positive_integers(self, n_list):
        with pytest.raises(ValueError, match="n must be an integer"):
            convergence_study(self.template(), n_list, 80)

    @pytest.mark.parametrize("reference_n", ["80", 80.0, 0, True])
    def test_reference_must_be_a_positive_integer(self, reference_n):
        with pytest.raises(ValueError, match="reference_n must be an integer"):
            convergence_study(self.template(), [20], reference_n)

    def test_resolutions_must_not_be_empty(self, monkeypatch):
        # an empty study would still run the reference
        monkeypatch.setattr(analysis, "run_experiment", None)
        with pytest.raises(ValueError, match="n_list"):
            convergence_study(self.template(), [], 80)

    def test_custom_profile_embedding_floor(self):
        # with no bump the exact twisted profile stays twisted at every
        # resolution, so the reported error is purely the piecewise-constant
        # embedding of the coarse grid: alternating residuals +-pi/40 after
        # alignment
        rows = convergence_study(
            self.template(ic_mode1_amplitude=0.0, t_end=1.0), [20], 40)
        assert rows[0]["error"] == pytest.approx(pi / 40, abs=1e-6)

    def test_constant_profile_no_floor(self):
        # the q = 0 state is uniform, a fixed point at sigma = 0 that embeds
        # exactly
        rows = convergence_study(
            self.template(q=0, ic_mode1_amplitude=0.0, t_end=1.0), [20], 40)
        assert rows[0]["error"] < 1e-10

    def test_runs_through_run_experiment(self, monkeypatch):
        # each resolution is the template on n nodes, noise-free, sampled at
        # 0 and t_end only
        configs = []

        def record(config):
            configs.append(config)
            return run_experiment(config)

        monkeypatch.setattr(analysis, "run_experiment", record)
        template = self.template(perturbation_amplitude=0.01, ic_seed=4)
        convergence_study(template, [20, 40], 80)
        assert [c.graph.n for c in configs] == [80, 20, 40]
        for config in configs:
            graph = replace(template.graph, n=config.graph.n)
            assert config == replace(template, graph=graph, sample_dt=2.0,
                                     perturbation_amplitude=0.0, ic_seed=None)


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


def test_modulation_estimate_is_frozen():
    times = np.arange(0.0, 5.5, 0.5)
    est = estimate_modulation(synthetic_trajectory(times, modulated_rows(times)))
    assert isinstance(est, ModulationEstimate)
    with pytest.raises(AttributeError):
        est.psi_rate = 0.0
