"""Initial conditions, right-hand sides, integration, and run packaging."""

import csv
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from math import pi, sin

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import (
    SINCOS_BOUND,
    dop853_accepted_steps,
    integrate_solve_ivp,
    np_sincos,
    rhs_naive,
    rhs_ring_symbol,
    rhs_two_sums,
    sample_grid_as_first_written,
    window_sums,
)
from ringtwist import dynamics
from ringtwist.analysis import estimate_modulation
from ringtwist.dynamics import (
    IntegrationError,
    SimulationConfig,
    Trajectory,
    _sample_array,
    integrate_system,
    make_rhs,
    run_experiment,
    twisted_initial_condition,
    twisted_profile,
    write_run_json,
    write_trajectory_csv,
)
from ringtwist.graphs import (
    GraphSpec,
    _window_sums,
    build_coupling,
    empirical_band_density,
)


def det_graph(n=100, p=1.0, kappa=0.31):
    return GraphSpec(n=n, p=p, kappa=kappa)


def window_speed(p, n, m, q, sigma):
    # the coupling sum (p/n) * sum_{|d| <= m} sin(2*pi*q*d/n + sigma) on the twisted state
    return p / n * sum(sin(2 * pi * q * d / n + sigma) for d in range(-m, m + 1))


def quiet_config(**kwargs):
    defaults = dict(graph=det_graph(), q=1, perturbation_amplitude=0.0)
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


def noisy_start(n, q, seed, **kwargs):
    # the initial condition of a run on n nodes with noise amplitude 1e-2
    return twisted_initial_condition(quiet_config(
        graph=det_graph(n=n), q=q, perturbation_amplitude=1e-2, ic_seed=seed, **kwargs))


class TestSimulationConfig:
    @pytest.mark.parametrize("kwargs", [
        {"q": -1},
        {"q": 1.5},
        {"t_end": 0.0},
        {"sample_dt": 0.0},
        {"perturbation_amplitude": -0.1},
        {"perturbation_amplitude": 1e-2},  # noise without ic_seed
        # non-finite lag or frequency once hung run_experiment, a non-finite
        # t_end died with a raw conversion error, rel_tol=-1 was clamped
        {"sigma": float("nan")},
        {"omega": float("nan")},
        {"t_end": float("nan")},
        {"t_end": float("inf")},
        {"sample_dt": float("inf")},
        {"ic_mode1_amplitude": float("-inf")},
        {"rel_tol": -1.0},
        {"rel_tol": 0.0},
        {"abs_tol": -1e-8},
        # ic_seed follows GraphSpec.seed: None or an integer in [0, 2**64),
        # bool refused
        {"ic_seed": 1.5},
        {"ic_seed": "7"},
        {"ic_seed": True},
        {"ic_seed": -1},
        {"ic_seed": 2**64},
    ])
    def test_rejects_invalid(self, kwargs):
        base = dict(graph=det_graph(), q=1, perturbation_amplitude=0.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            SimulationConfig(**base)

    def test_zero_abs_tol_accepted(self):
        assert quiet_config(abs_tol=0.0).abs_tol == 0.0

    def test_json_round_trip(self):
        cfg = SimulationConfig(
            graph=GraphSpec(n=50, p=0.5, kappa=0.31, kind="random_dense", seed=7),
            q=2, sigma=pi / 3, t_end=20.0, sample_dt=0.5,
            perturbation_amplitude=1e-2, ic_seed=3, ic_mode1_amplitude=0.3,
            ic_mode1_phase=0.1,
        )
        text = json.dumps(cfg.to_dict())
        assert SimulationConfig.from_dict(json.loads(text)) == cfg

    def test_resolved_omega_zero_lag(self):
        assert quiet_config(sigma=0.0).resolved_omega() == 0.0

    def test_resolved_omega_compensates_rotation(self):
        # minus the coupling sum of the twisted state over the realized
        # window, m = floor(100*0.168) = 16
        cfg = quiet_config(
            graph=det_graph(kappa=0.168), q=2, sigma=pi / 3)
        assert cfg.resolved_omega() == pytest.approx(
            -window_speed(1.0, 100, 16, 2, pi / 3), abs=1e-15)
        assert cfg.resolved_omega() == pytest.approx(
            -0.12086280733346987, abs=1e-12)

    def test_resolved_omega_passthrough_and_q0(self):
        assert quiet_config(omega=0.25).resolved_omega() == 0.25
        # q = 0 compensates the synchronized state's rotation (p/n)*(2m + 1)*sin(sigma)
        assert quiet_config(q=0, sigma=0.3).resolved_omega() == -(1.0 / 100) * sin(0.3) * 63
        assert quiet_config(q=0, sigma=0.0).resolved_omega() == 0.0

    @pytest.mark.parametrize("n", [100, 999, 1000])
    @pytest.mark.parametrize("kappa", [0.1, 0.25, 0.3, 0.31])
    def test_window_speed_is_near_the_continuum_speed(self, n, kappa):
        # the window's 2m + 1 nodes against the continuum's 2*n*kappa, and its
        # Riemann sum against the integral; equality at q = 0 when n*kappa is whole
        for p, sigma in ((0.8, 0.7), (1.0, -1.2)):
            for q in range(9):
                speed = -quiet_config(graph=det_graph(n=n, p=p, kappa=kappa), q=q,
                                      sigma=sigma).resolved_omega()
                continuum = (2 * p * kappa * sin(sigma) if q == 0
                             else p * sin(2 * pi * q * kappa) * sin(sigma) / (pi * q))
                bound = p * abs(sin(sigma)) * (1 / n + (2 * pi * q) ** 2 / (12 * n * n))
                assert abs(speed - continuum) <= bound + 1e-12, (p, sigma, q)


class TestInitialConditions:
    def test_profile_winds_q_times(self):
        u = twisted_profile(12, 3)
        assert u.shape == (12,)
        assert u[-1] == pytest.approx(6 * pi, abs=1e-15)
        assert np.allclose(np.diff(u), 6 * pi / 12)

    def test_noise_bounded_and_reproducible(self):
        a, b, c = noisy_start(64, 1, 5), noisy_start(64, 1, 5), noisy_start(64, 1, 6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.max(np.abs(a - twisted_profile(64, 1))) <= 1e-2
        # a zero bump leaves the noisy profile bit for bit unchanged
        noise = np.random.default_rng(5).uniform(-1e-2, 1e-2, 64)
        assert np.array_equal(a, twisted_profile(64, 1) + noise)

    def test_noise_requires_seed(self):
        with pytest.raises(ValueError):
            noisy_start(64, 1, None)
        with pytest.raises(ValueError):
            noisy_start(64, 1, None, ic_mode1_amplitude=0.3)

    def test_bump_then_noise_from_the_config(self):
        # the profile, plus the first-harmonic bump, plus noise drawn from ic_seed
        u0 = noisy_start(90, 3, 8, ic_mode1_amplitude=0.2, ic_mode1_phase=-1.1)
        bump = 0.2 * np.sin(twisted_profile(90, 1) - 1.1)
        noise = np.random.default_rng(8).uniform(-1e-2, 1e-2, 90)
        assert u0.tobytes() == (twisted_profile(90, 3) + bump + noise).tobytes()

    def test_modulated_profile_recovered_by_projection(self):
        config = SimulationConfig(graph=GraphSpec(n=200, p=1.0, kappa=0.31), q=2,
                                  perturbation_amplitude=0.0, ic_mode1_amplitude=0.25,
                                  ic_mode1_phase=0.7)
        u0 = twisted_initial_condition(config)
        est = estimate_modulation(Trajectory(times=[0.0, 1.0], phases=[u0, u0],
                                             config=config, omega=0.0))
        assert est.r[0] == pytest.approx(0.25, abs=1e-12)
        assert est.psi[0] == pytest.approx(0.7, abs=1e-12)


class TestRightHandSides:
    @pytest.mark.parametrize("spec", [
        GraphSpec(n=50, p=0.8, kappa=0.31),
        GraphSpec(n=50, p=0.5, kappa=0.23, kind="random_dense", seed=2),
        GraphSpec(n=50, p=1.0, kappa=0.31, kind="random_sparse",
                  gamma=0.3, seed=2),
        # above half density: window sums minus the missing in-band edges,
        # with holes, without holes, and at halfwidth 0; then an edgeless graph
        GraphSpec(n=50, p=0.9, kappa=0.31, kind="random_dense", seed=2),
        GraphSpec(n=50, p=1.0, kappa=0.31, kind="random_dense", seed=2),
        GraphSpec(n=50, p=0.9, kappa=0.01, kind="random_dense", seed=2),
        GraphSpec(n=50, p=1e-9, kappa=0.31, kind="random_dense", seed=2),
    ])
    @pytest.mark.parametrize("sigma", [0.0, 0.4])
    def test_fast_matches_naive(self, spec, sigma):
        coupling = build_coupling(spec)
        rng = np.random.default_rng(11)
        u = rng.uniform(-pi, pi, spec.n)
        fast = make_rhs(coupling, 0.3, sigma)(0.0, u)
        slow = rhs_naive(0.0, u, coupling, 0.3, sigma)
        assert np.max(np.abs(fast - slow)) < 1e-12

    @pytest.mark.parametrize("n, q, sigma", [
        (200, 1, 0.4), (1000, 2, -1.0), (501, 3, 0.0), (10_000, 2, pi / 3)])
    def test_band_rhs_is_the_ring_symbol(self, n, q, sigma):
        # the prefix-sum band is one Fourier multiplier on e^{iu}, the ring's
        # window symbol; from perturbed twisted states the worst gap seen was
        # 1.9e-15 (n = 1e4), and ROADMAP's probe saw 5.7e-15 at n = 1e5
        spec = GraphSpec(n=n, p=0.8, kappa=0.31)
        rhs = make_rhs(build_coupling(spec), 0.3, sigma)
        oracle = rhs_ring_symbol(n, spec.halfwidth, spec.p, 0.3, sigma)
        rng = np.random.default_rng(n)
        for _ in range(3):
            u = twisted_profile(n, q) + rng.uniform(-0.5, 0.5, n)
            assert np.max(np.abs(rhs(0.0, u) - oracle(0.0, u))) <= 1e-14

    def test_weight_scales_the_band(self):
        # W = weight * A with weight p on the band; halving p halves the
        # coupling term exactly
        spec = GraphSpec(n=50, p=1.0, kappa=0.31)
        coupling = build_coupling(spec)
        half = build_coupling(replace(spec, p=0.5))
        u = np.random.default_rng(12).uniform(-pi, pi, spec.n)
        full_rhs, half_rhs = (make_rhs(c, 0.0, 0.4)(0.0, u) for c in (coupling, half))
        assert half_rhs.tobytes() == (full_rhs / 2).tobytes()
        assert np.max(np.abs(half_rhs - rhs_naive(0.0, u, half, 0.0, 0.4))) < 1e-12

    @given(n=st.integers(1, 80), kappa=st.floats(0.001, 0.499),
           p=st.one_of(st.floats(0.05, 0.45), st.floats(0.55, 1.0)),
           sigma=st.floats(-1.5, 1.5), seed=st.integers(0, 2**32))
    def test_fast_matches_naive_on_random_graphs(self, n, kappa, p, sigma, seed):
        # p on both sides of 1/2 reaches both the direct CSR route and the
        # window-sums-minus-holes route
        coupling = build_coupling(
            GraphSpec(n=n, p=p, kappa=kappa, kind="random_dense", seed=seed))
        u = np.random.default_rng(seed).uniform(-pi, pi, n)
        fast = make_rhs(coupling, 0.3, sigma)(0.0, u)
        slow = rhs_naive(0.0, u, coupling, 0.3, sigma)
        assert np.max(np.abs(fast - slow)) < 1e-12

    @pytest.mark.parametrize("p, holes_route", [(0.3, False), (0.9, True)])
    def test_route_follows_stored_density(self, p, holes_route):
        coupling = build_coupling(
            GraphSpec(n=60, p=p, kappa=0.31, kind="random_dense", seed=1))
        assert (empirical_band_density(coupling) > 0.5) == holes_route
        assert coupling.stored == ("holes" if holes_route else "edges")
        # the right-hand side multiplies by the stored CSR itself, twice a call
        stored, products = coupling.csr, []

        class Spy:
            def __matmul__(self, x):
                products.append(len(x))
                return stored @ x

        object.__setattr__(coupling, "csr", Spy())
        make_rhs(coupling, 0.0, 0.0)(0.0, np.zeros(60))
        assert products == [60, 60]
        assert "adjacency" not in vars(coupling)  # A is never built for the dynamics

    def test_window_sums(self):
        rng = np.random.default_rng(0)
        v, w = rng.normal(size=17), rng.normal(size=17)
        out0, _ = _window_sums(17, 0)(v, w)
        assert np.array_equal(out0, v)
        assert out0 is not v
        out3, _ = _window_sums(17, 3)(v, w)
        explicit = np.array([
            sum(v[(k + d) % 17] for d in range(-3, 4)) for k in range(17)
        ])
        assert np.max(np.abs(out3 - explicit)) < 1e-12

    @pytest.mark.parametrize("n, m", [(17, 0), (17, 1), (17, 5), (17, 8), (1000, 168)])
    def test_fused_window_sums_are_the_two_real_prefix_sums(self, n, m):
        rng = np.random.default_rng(n + m)
        s, c = rng.normal(size=n), rng.normal(size=n)
        ws, wc = _window_sums(n, m)(s, c)
        assert ws.tobytes() == window_sums(s, m).tobytes()
        assert wc.tobytes() == window_sums(c, m).tobytes()

    @pytest.mark.parametrize("spec", [
        # band halfwidths 0, 1, mid-size and (n - 1)/2
        GraphSpec(n=101, p=1.0, kappa=0.005),
        GraphSpec(n=101, p=0.7, kappa=0.011),
        GraphSpec(n=1000, p=1.0, kappa=0.168),
        GraphSpec(n=101, p=1.0, kappa=0.499),
        GraphSpec(n=300, p=0.9, kappa=0.31, kind="random_dense", seed=4),
        GraphSpec(n=300, p=0.3, kappa=0.31, kind="random_dense", seed=4),
    ])
    @pytest.mark.parametrize("sigma", [0.0, pi / 3, -1.2])
    def test_matches_two_sum_oracle_bit_for_bit(self, spec, sigma):
        coupling = build_coupling(spec)
        assert coupling.stored == {1.0: "band", 0.7: "band", 0.9: "holes",
                                   0.3: "edges"}[spec.p]
        rng = np.random.default_rng(21)
        rhs, oracle = make_rhs(coupling, 0.3, sigma), rhs_two_sums(coupling, 0.3, sigma)
        for _ in range(3):  # the workspace is reused across calls
            u = rng.uniform(-20.0, 20.0, spec.n)
            assert rhs(0.0, u).tobytes() == oracle(0.0, u).tobytes()

    @pytest.mark.parametrize("spec", [
        GraphSpec(n=101, p=1.0, kappa=0.005),
        GraphSpec(n=101, p=0.7, kappa=0.011),
        GraphSpec(n=1000, p=1.0, kappa=0.168),
        GraphSpec(n=101, p=1.0, kappa=0.499),
        GraphSpec(n=10_000, p=1.0, kappa=0.168),
        GraphSpec(n=300, p=0.9, kappa=0.31, kind="random_dense", seed=4),
        GraphSpec(n=300, p=0.3, kappa=0.31, kind="random_dense", seed=4),
    ])
    @pytest.mark.parametrize("sigma", [0.0, pi / 3, -1.2])
    def test_stays_within_the_sincos_bound_of_numpys_sin_and_cos(self, spec, sigma):
        # sincos moves each sin u and cos u by at most e = SINCOS_BOUND.  A
        # coupling sum over at most 2m + 1 neighbours then moves by (2m + 1)e,
        # and so does each product a*w, with |a| <= 1 moved by at most
        # (|cos sigma| + |sin sigma|)e <= sqrt(2)e and |w| <= 2m + 1, by
        # (1 + sqrt 2)(2m + 1)e.  Rounding both sides onto the float grid
        # near |rhs| adds at most one ulp, eps*max|rhs|.
        coupling = build_coupling(spec)
        rhs = make_rhs(coupling, 0.3, sigma)
        old = rhs_two_sums(coupling, 0.3, sigma, trig=np_sincos)
        neighbours = 2 * coupling.halfwidth + 1
        moved = (2 * (1 + np.sqrt(2)) * SINCOS_BOUND
                 * coupling.spec.scale * coupling.weight * neighbours)
        rng = np.random.default_rng(21)
        twisted = twisted_profile(spec.n, 2) + 0.3 * np.sin(twisted_profile(spec.n, 1))
        for u in (twisted, *rng.uniform(-20.0, 20.0, (3, spec.n))):
            fast, slow = rhs(0.0, u), old(0.0, u)
            ulp = np.finfo(float).eps * np.max(np.abs(slow))
            assert np.max(np.abs(fast - slow)) <= moved + ulp

    @staticmethod
    def _closure_arrays(fn):
        # every array a closure (or a closure it holds) keeps between calls
        found, todo = [], [fn]
        while todo:
            for cell in todo.pop().__closure__ or ():
                value = cell.cell_contents
                if isinstance(value, np.ndarray):
                    found.append(value)
                elif getattr(value, "__closure__", None) is not None:
                    todo.append(value)
        return found

    @pytest.mark.parametrize("spec", [
        GraphSpec(n=200, p=1.0, kappa=0.31),
        GraphSpec(n=200, p=0.9, kappa=0.31, kind="random_dense", seed=4),
        GraphSpec(n=200, p=0.3, kappa=0.31, kind="random_dense", seed=4),
    ])
    def test_each_call_returns_a_fresh_array_and_leaves_u_alone(self, spec):
        coupling = build_coupling(spec)
        rhs = make_rhs(coupling, 0.3, 0.4)
        workspace = self._closure_arrays(rhs)
        # the window-sum routes hold the fused complex workspace, the edges route none
        assert any(b.dtype == complex and b.size == spec.n + 2 * coupling.halfwidth + 1
                   for b in workspace) == (coupling.stored != "edges")
        u = noisy_start(spec.n, 1, 3)
        kept = u.copy()
        first, second = rhs(0.0, u), rhs(0.0, u)
        assert u.tobytes() == kept.tobytes()
        assert first.tobytes() == second.tobytes()
        assert not np.shares_memory(first, second)
        for buffer in workspace:
            assert not np.shares_memory(first, buffer)
            assert not np.shares_memory(second, buffer)

    @pytest.mark.parametrize("spec, vectors", [
        (GraphSpec(n=2000, p=1.0, kappa=0.31), 1),
        (GraphSpec(n=2000, p=0.9, kappa=0.31, kind="random_dense", seed=4), 1),
        (GraphSpec(n=2000, p=0.3, kappa=0.31, kind="random_dense", seed=4), 3),
    ])
    def test_a_call_allocates_its_result_and_one_tangent_temporary(self, spec, vectors):
        # sin u, cos u and the expression's scratch are the closure's own
        # buffers, so a call holds at most one n-vector at a time on the
        # window-sum routes (the tangent form's d, then the result), and the
        # edges route adds its two matvec results; 4 KiB covers the Python
        # objects of a call
        rhs = make_rhs(build_coupling(spec), 0.3, 0.4)
        u = noisy_start(spec.n, 1, 3)
        rhs(0.0, u)
        tracemalloc.start()
        try:
            rhs(0.0, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= vectors * 8 * spec.n + 4096

    @pytest.mark.parametrize("spec", [
        GraphSpec(n=200, p=1.0, kappa=0.31),
        GraphSpec(n=200, p=0.9, kappa=0.31, kind="random_dense", seed=4),
        GraphSpec(n=200, p=0.3, kappa=0.31, kind="random_dense", seed=4),
    ])
    def test_two_closures_on_one_coupling_keep_their_own_buffers(self, spec):
        # two closures called alternately on different states, and the second
        # also called inside each call of the first, between its coupling sums
        # and its expression, as a second thread could: a buffer the two
        # shared (held by the coupling or the module) would change the bits
        coupling = build_coupling(spec)
        second = make_rhs(coupling, -0.2, 1.1)
        oracles = rhs_two_sums(coupling, 0.3, 0.4), rhs_two_sums(coupling, -0.2, 1.1)
        states = np.random.default_rng(5).uniform(-20.0, 20.0, (4, spec.n))
        inner, sums = [], coupling.coupling_sums()

        def interrupted(s, c):
            ws, wc = sums(s, c)
            inner.append(second(0.0, states[0]))
            return ws, wc

        object.__setattr__(coupling, "coupling_sums", lambda: interrupted)
        first = make_rhs(coupling, 0.3, 0.4)
        for u, v in zip(states[1:], states[:0:-1]):
            assert first(0.0, u).tobytes() == oracles[0](0.0, u).tobytes()
            assert second(0.0, v).tobytes() == oracles[1](0.0, v).tobytes()
        assert len(inner) == 3
        assert all(w.tobytes() == oracles[1](0.0, states[0]).tobytes() for w in inner)

    @pytest.mark.parametrize("spec", [
        GraphSpec(n=100, p=1.0, kappa=0.31),
        GraphSpec(n=100, p=0.9, kappa=0.31, kind="random_dense", seed=4),
        GraphSpec(n=100, p=0.3, kappa=0.31, kind="random_dense", seed=4),
    ])
    @pytest.mark.parametrize("size", [99, 101])
    def test_rejects_a_state_of_another_size(self, spec, size):
        # a state of another size must not be summed as a ring of that size
        rhs = make_rhs(build_coupling(spec), 0.0, 0.0)
        with pytest.raises(ValueError, match=rf"^state of shape \({size},\) .* n=100$"):
            rhs(0.0, np.zeros(size))
        with pytest.raises(ValueError, match="n=100"):
            integrate_system(rhs, np.zeros(size), 2.0)

    def test_one_band_call_allocates_no_prefix_sum_temporaries(self):
        # the workspace is allocated with the closure; a call allocates sin u,
        # cos u and the expression's temporaries (six n-vectors at most), and
        # none of the concatenations and prefix sums of two real window sums,
        # which take the peak to eight
        n = 20_000
        rhs = make_rhs(build_coupling(GraphSpec(n=n, p=1.0, kappa=0.3)), 0.1, 0.4)
        u = noisy_start(n, 2, 1)
        rhs(0.0, u)
        tracemalloc.start()
        try:
            rhs(0.0, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * 8 * n

    def test_twisted_profile_is_fixed_point(self):
        # symmetric window, sigma = 0, omega = 0: the coupling sum cancels
        coupling = build_coupling(det_graph(n=100))
        u0 = twisted_profile(100, 1)
        rhs = make_rhs(coupling, 0.0, 0.0)
        assert np.max(np.abs(rhs(0.0, u0))) < 1e-13


class TestIntegration:
    def test_sample_grid_exact_end(self):
        grid, states = _sample_array(3, 10.0, 1.0)
        assert len(grid) == 11
        assert grid[-1] == 10.0
        assert states.shape == (11, 3)
        ragged, _ = _sample_array(3, 1.05, 0.1)
        assert ragged[-1] == 1.05
        assert len(ragged) == 12

    @given(steps=st.integers(1, 3000), sample_dt=st.floats(1e-3, 10.0),
           nudge=st.sampled_from([0.0, 1e-16, -1e-16, 1e-10, -1e-10, 1e-8, 0.3]))
    def test_sample_grid_is_sized_before_it_is_built(self, steps, sample_dt, nudge):
        # the count worked out from scalars gives the grid built whole, ragged
        # ends and ends within the 1e-9 slack included
        t_end = sample_dt * steps * (1.0 + nudge)
        grid, states = _sample_array(2, t_end, sample_dt)
        assert grid.tobytes() == sample_grid_as_first_written(t_end, sample_dt).tobytes()
        assert states.shape == (len(grid), 2)

    def test_a_run_within_the_slack_keeps_its_start(self):
        # a grid holds both 0 and t_end, however far below the 1e-9 slack t_end is
        grid, states = _sample_array(3, 1e-12, 1.0)
        assert grid.tolist() == [0.0, 1e-12]
        assert states.shape == (2, 3)
        cfg = quiet_config(t_end=1e-12, perturbation_amplitude=1e-2, ic_seed=5)
        traj = run_experiment(cfg)
        assert traj.times.tolist() == [0.0, 1e-12]
        assert traj.phases[0].tobytes() == twisted_initial_condition(cfg).tobytes()

    def test_a_refused_run_touches_no_memory(self, tmp_path):
        # 2e7 + 1 samples of n = 1e5 phases (16 TB) cannot be reserved; a grid
        # built before that refusal would touch 320 MB.  The address space is
        # capped so that the refusal does not hang on the overcommit policy
        config = quiet_config(graph=det_graph(n=100_000), t_end=2e7)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config.to_dict()))
        script = (
            "import resource, sys\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "cap = 16 << 30 if hard == resource.RLIM_INFINITY else min(16 << 30, hard)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
            "from ringtwist.cli import main\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "code = main(['simulate', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(code, (after - before) / 1024)\n"
        )
        src = os.path.dirname(os.path.dirname(dynamics.__file__))
        child = subprocess.run([sys.executable, "-c", script, str(path), str(tmp_path / "o")],
                               capture_output=True, text=True, timeout=120,
                               env={**os.environ, "PYTHONPATH": src})
        code, rise_mib = child.stdout.split()
        assert code == "2", child.stderr
        assert "cannot allocate" in child.stderr
        assert float(rise_mib) < 50.0

    def test_harmonic_oscillator_accuracy(self):
        rhs = lambda t, y: np.array([y[1], -y[0]])
        times, states = integrate_system(
            rhs, np.array([1.0, 0.0]), 2 * pi, rel_tol=1e-10, abs_tol=1e-12,
            sample_dt=0.25,
        )
        assert times[-1] == 2 * pi
        exact = np.stack([np.cos(times), -np.sin(times)], axis=1)
        assert np.max(np.abs(states - exact)) < 1e-8

    def test_blow_up_raises_with_time(self):
        rhs = lambda t, y: y ** 2
        with pytest.raises(IntegrationError, match="t="):
            integrate_system(rhs, np.array([1.0]), 2.0, sample_dt=0.1)

    @pytest.mark.parametrize("spec, t_end, sample_dt", [
        (det_graph(n=400), 20.0, 1.0),
        # p > 1/2: the window-sums-minus-holes route
        (GraphSpec(n=300, p=0.9, kappa=0.31, kind="random_dense", seed=3), 10.0, 0.5),
        (det_graph(n=200), 1.05, 0.1),  # ragged grid
        (det_graph(n=200), 5.0, 5.0),  # sample_dt = t_end, as convergence_study runs
        # a few steps cover the 201 samples, so the interpolant fills each in parts
        (det_graph(n=200), 2.0, 0.01),
    ])
    def test_matches_solve_ivp_bit_for_bit(self, spec, t_end, sample_dt):
        coupling = build_coupling(spec)
        if spec.kind == "random_dense":
            assert empirical_band_density(coupling) > 0.5
        rhs = make_rhs(coupling, 0.2, 0.3)
        y0 = noisy_start(spec.n, 1, 5)
        result = integrate_system(rhs, y0, t_end, rel_tol=1e-8, abs_tol=1e-8,
                                  sample_dt=sample_dt)
        times, states = result
        ref_times, ref_states, ref_nfev = integrate_solve_ivp(
            rhs, y0, _sample_array(spec.n, t_end, sample_dt)[0], rel_tol=1e-8, abs_tol=1e-8)
        assert times.tobytes() == ref_times.tobytes()
        assert states.shape == ref_states.shape and states.flags.c_contiguous
        assert states.tobytes() == ref_states.tobytes()
        assert result.nfev == ref_nfev

    def test_band_run_matches_solve_ivp_on_the_two_sum_oracle(self):
        # the solver keeps each returned derivative, so a result that aliased
        # the workspace would change the run
        spec = det_graph(n=400)
        coupling = build_coupling(spec)
        assert coupling.halfwidth > 0
        y0 = noisy_start(spec.n, 1, 5)
        times, states = integrate_system(make_rhs(coupling, 0.2, 0.3), y0, 20.0)
        _, ref_states, _ = integrate_solve_ivp(rhs_two_sums(coupling, 0.2, 0.3), y0,
                                               times, rel_tol=1e-8, abs_tol=1e-8)
        assert states.tobytes() == ref_states.tobytes()

    @pytest.mark.parametrize("kwargs", [
        {"sample_dt": 0.0}, {"sample_dt": -1.0}, {"t_end": -1.0}, {"t_end": float("nan")},
        {"rel_tol": 1e-20}, {"rel_tol": np.nextafter(100 * np.finfo(float).eps, 0.0)},
        {"abs_tol": -1.0},
    ], ids=["sample-dt-zero", "sample-dt-negative", "t-end-negative", "t-end-nan",
            "rel-tol-1e-20", "rel-tol-below-100-eps", "abs-tol-negative"])
    def test_inputs_follow_the_config_rule(self, kwargs):
        # one rule for integrate_system and SimulationConfig; a rel_tol below
        # 100 machine epsilons would be raised by DOP853 with only a warning
        name = next(iter(kwargs))
        args = {"t_end": 2.0, "rel_tol": 1e-8, "abs_tol": 1e-8, "sample_dt": 1.0, **kwargs}
        with pytest.raises(ValueError, match=f"^{name} must be a finite real number"):
            integrate_system(lambda t, u: -u, np.ones(2), args.pop("t_end"), **args)
        with pytest.raises(ValueError, match=f"^{name} must be a finite real number"):
            quiet_config(**kwargs)

    def test_smallest_rel_tol_runs_as_given(self):
        # at 100 machine epsilons DOP853 keeps the tolerance and does not warn
        tol = 100 * np.finfo(float).eps
        assert quiet_config(rel_tol=tol).rel_tol == tol
        times, _ = integrate_system(lambda t, u: -u, np.ones(2), 1.0, rel_tol=tol)
        assert times[-1] == 1.0

    def test_failure_names_the_time_the_solver_reached(self):
        # the solver creeps up to t=1 before its step size underflows; the
        # last sample it stored is t=0
        rhs = lambda t, u: np.full_like(u, np.nan) if t > 1.0 else -u
        with pytest.raises(IntegrationError,
                           match=r"^integrator stopped at t=1 of 100000: "):
            integrate_system(rhs, np.ones(3), 1e5)

    def test_non_finite_samples_name_the_first_bad_time(self):
        # NaN only in the interpolant's extra stages past t=1: every step is
        # accepted, and the step over [0.67, 1.27] samples NaN at 0.75, 1, 1.25
        def in_interpolant():
            frame = sys._getframe()
            while frame is not None and frame.f_code.co_name != "_dense_output_impl":
                frame = frame.f_back
            return frame is not None

        rhs = lambda t, u: np.full_like(u, np.nan) if t >= 1.0 and in_interpolant() else -u
        with pytest.raises(IntegrationError, match=r"^non-finite phases at t=0\.75 of 4$"):
            integrate_system(rhs, np.ones(2), 4.0, sample_dt=0.25)

    @pytest.mark.parametrize("t_end", [2.0, 200.0])
    def test_trajectory_is_held_once(self, t_end):
        # solve_ivp peaks at 2.13x the trajectory: its sample blocks plus their stack
        n = 20_000
        rhs = make_rhs(build_coupling(det_graph(n=n)), 0.0, 0.0)
        y0 = noisy_start(n, 1, 7)
        tracemalloc.start()
        try:
            _, states = integrate_system(rhs, y0, t_end, sample_dt=t_end / 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert states.shape == (201, n)
        assert peak <= 1.6 * states.nbytes

    def test_solver_record_counts_calls_and_steps(self):
        rhs = make_rhs(build_coupling(det_graph(n=100)), 0.2, 0.3)
        calls = []

        def counting(t, u):
            calls.append(t)
            return rhs(t, u)

        y0 = noisy_start(100, 1, 5)
        result = integrate_system(counting, y0, 10.0, sample_dt=0.5)
        assert result.nfev == len(calls) > 0
        assert result.steps == dop853_accepted_steps(rhs, y0, 10.0, rel_tol=1e-8,
                                                     abs_tol=1e-8)

    def test_twisted_state_stays_put(self):
        coupling = build_coupling(det_graph(n=100))
        u0 = twisted_profile(100, 1)
        rhs = make_rhs(coupling, 0.0, 0.0)
        _, states = integrate_system(
            rhs, u0, 10.0, rel_tol=1e-10, abs_tol=1e-12, sample_dt=2.0)
        assert np.max(np.abs(states - u0)) < 1e-9


class TestRunExperiment:
    def test_shapes_and_times(self):
        traj = run_experiment(quiet_config(t_end=5.0, sample_dt=1.0))
        assert traj.times.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert traj.phases.shape == (6, 100)
        assert traj.n == 100

    def test_solver_record_is_kept(self):
        cfg = quiet_config(t_end=5.0)
        traj = run_experiment(cfg)
        rhs = make_rhs(build_coupling(cfg.graph), traj.omega, cfg.sigma)
        result = integrate_system(rhs, twisted_profile(100, 1), 5.0)
        assert (traj.nfev, traj.steps) == (result.nfev, result.steps)
        assert traj.steps > 0

    def test_prebuilt_coupling_reused(self):
        cfg = SimulationConfig(
            graph=GraphSpec(n=60, p=0.5, kappa=0.31, kind="random_dense",
                            seed=4),
            q=1, t_end=3.0, perturbation_amplitude=1e-2, ic_seed=1,
        )
        built = run_experiment(cfg, coupling=build_coupling(cfg.graph))
        auto = run_experiment(cfg)
        assert np.array_equal(built.phases, auto.phases)

    @pytest.mark.parametrize("graph", [
        det_graph(n=40, p=0.7),
        GraphSpec(n=40, p=0.9, kappa=0.31, kind="random_dense", seed=4),
        GraphSpec(n=40, p=1.0, kappa=0.31, kind="random_sparse", gamma=0.3, seed=4),
    ])
    def test_a_coupling_of_an_equal_spec_is_accepted(self, graph):
        # the check compares specs by value: a coupling built from an equal
        # spec, not the config's own object, runs as the config's own graph
        cfg = quiet_config(graph=graph, t_end=1.0, perturbation_amplitude=1e-2, ic_seed=1)
        coupling = build_coupling(replace(graph))
        assert coupling.spec is not cfg.graph
        built = run_experiment(cfg, coupling=coupling)
        assert np.array_equal(built.phases, run_experiment(cfg).phases)

    @pytest.mark.parametrize("graph, ignored", [
        (GraphSpec(n=40, p=0.5, kappa=0.3, kind="random_dense", seed=1), {"gamma": 0.3}),
        (det_graph(n=40, p=0.7), {"seed": 5}),
    ])
    def test_a_field_its_kind_ignores_names_no_other_graph(self, graph, ignored):
        # a gamma off random_sparse or a seed on the band is checked, then
        # dropped: the config runs with a coupling built from the spec
        # without it, bit for bit as the config without it
        cfg = quiet_config(graph=replace(graph, **ignored), t_end=1.0,
                           perturbation_amplitude=1e-2, ic_seed=1)
        assert cfg.graph == graph
        given = run_experiment(cfg, coupling=build_coupling(graph))
        plain = run_experiment(replace(cfg, graph=graph))
        assert given.phases.tobytes() == plain.phases.tobytes()

    def test_coupling_size_mismatch(self):
        # a prebuilt coupling must be the graph the config records, and the
        # refusal names every field of the spec that differs
        dense = GraphSpec(n=100, p=0.5, kappa=0.31, kind="random_dense", seed=4)
        sparse = GraphSpec(n=100, p=0.5, kappa=0.31, kind="random_sparse", gamma=0.3,
                           seed=4)
        for config_graph, coupling_graph, differ in [
            (det_graph(), det_graph(n=60), "n 60 (graph 100)"),
            (det_graph(), replace(dense, p=1.0),
             "kind 'random_dense' (graph 'deterministic_dense'), seed 4 (graph None)"),
            (det_graph(kappa=0.3), det_graph(kappa=0.1), "kappa 0.1 (graph 0.3)"),
            (dense, replace(dense, seed=5), "seed 5 (graph 4)"),
            (sparse, replace(sparse, gamma=0.4), "gamma 0.4 (graph 0.3)"),
            # a band built at another weight turns the state at the wrong speed
            (det_graph(p=1.0), det_graph(p=0.5), "p 0.5 (graph 1.0)"),
        ]:
            with pytest.raises(ValueError) as refused:
                run_experiment(quiet_config(graph=config_graph, sigma=0.5),
                               coupling=build_coupling(coupling_graph))
            assert str(refused.value) == f"coupling realizes another graph: {differ}"

    @pytest.mark.parametrize("kind, built_p, config_p", [
        ("random_dense", 0.9, 0.3), ("random_dense", 0.3, 0.9),
        ("random_dense", 0.3, 0.4), ("random_sparse", 1.0, 0.5),
    ])
    def test_random_coupling_drawn_at_another_p_is_refused(self, kind, built_p, config_p):
        # a p = 0.9 graph under a p = 0.3 config would run on the one and
        # resolve omega for, and record, the other
        spec = GraphSpec(n=200, p=config_p, kappa=0.2, kind=kind, seed=1,
                         **({"gamma": 0.3} if kind == "random_sparse" else {}))
        coupling = build_coupling(replace(spec, p=built_p))
        with pytest.raises(ValueError, match=rf"^coupling realizes another graph: "
                                             rf"p {built_p} \(graph {config_p}\)$"):
            run_experiment(quiet_config(graph=spec), coupling=coupling)

    @pytest.mark.parametrize("config_graph, coupling_graph, differ", [
        # realized density 0.891 lies within six binomial deviations (0.063)
        # of 0.86, so a density test let this graph run under the other's name
        (GraphSpec(n=60, p=0.86, kappa=0.31, kind="random_dense", seed=1),
         GraphSpec(n=60, p=0.9, kappa=0.31, kind="random_dense", seed=1),
         "p 0.9 (graph 0.86)"),
        # kappa alone, at one halfwidth: 31 at n = 100, 18 at n = 60
        (det_graph(kappa=0.31), det_graph(kappa=0.315), "kappa 0.315 (graph 0.31)"),
        (GraphSpec(n=60, p=0.5, kappa=0.31, kind="random_dense", seed=2),
         GraphSpec(n=60, p=0.5, kappa=0.312, kind="random_dense", seed=2),
         "kappa 0.312 (graph 0.31)"),
        # gamma alone, named as itself rather than as the scale it sets
        (GraphSpec(n=60, p=1.0, kappa=0.31, kind="random_sparse", gamma=0.3, seed=2),
         GraphSpec(n=60, p=1.0, kappa=0.31, kind="random_sparse", gamma=0.35, seed=2),
         "gamma 0.35 (graph 0.3)"),
    ])
    def test_a_coupling_of_a_nearby_spec_is_refused(self, config_graph, coupling_graph,
                                                    differ):
        coupling = build_coupling(coupling_graph)
        assert coupling.halfwidth == config_graph.halfwidth
        with pytest.raises(ValueError) as refused:
            run_experiment(quiet_config(graph=config_graph), coupling=coupling)
        assert str(refused.value) == f"coupling realizes another graph: {differ}"

    @pytest.mark.parametrize("omega", [None, 0.0, 0.7])
    def test_synchronized_state_turns_at_its_rotation_speed(self, omega):
        # q = 0 with a phase lag: the uniform state turns at omega plus
        # (p/n)*(2m + 1)*sin(sigma), its window's 2m + 1 nodes
        n, p, kappa, sigma = 1000, 1.0, 0.3, 0.5
        cfg = quiet_config(graph=det_graph(n=n, p=p, kappa=kappa), q=0, sigma=sigma,
                           omega=omega, t_end=4.0)
        traj = run_experiment(cfg)
        rate = (np.mean(traj.phases[-1]) - np.mean(traj.phases[0])) / traj.times[-1]
        assert abs(rate - traj.rotation_speed) <= 1e-12
        expected = 0.0 if omega is None else omega + p * 601 / n * sin(sigma)
        assert traj.rotation_speed == pytest.approx(expected, abs=1e-15)
        assert abs(rate - traj.omega) > 0.28  # the coupling does turn it

    @pytest.mark.parametrize("n", [999, 1000])
    @pytest.mark.parametrize("sigma", [0.5, -1.2])
    @pytest.mark.parametrize("q", [0, 1, 2, 3])
    def test_omega_null_freezes_the_band(self, q, sigma, n):
        # omega = None cancels the realized window's speed, so the noise-free
        # twisted state stands still to round-off
        cfg = quiet_config(graph=det_graph(n=n, kappa=0.31), q=q, sigma=sigma,
                           t_end=10.0, sample_dt=10.0)
        traj = run_experiment(cfg)
        rate = (np.mean(traj.phases[-1]) - np.mean(traj.phases[0])) / traj.times[-1]
        assert abs(rate) <= 1e-12
        assert traj.rotation_speed == 0.0

    def test_rotation_speed_matches_observed_drift(self):
        # explicit omega = 0 leaves the coupling-induced rotation visible;
        # the corotating frame freezes it to round-off
        cfg = quiet_config(
            graph=det_graph(n=1000), omega=0.0, sigma=pi / 3, t_end=5.0,
            sample_dt=1.0,
        )
        traj = run_experiment(cfg)
        assert traj.rotation_speed == pytest.approx(
            window_speed(1.0, 1000, 310, 1, pi / 3), abs=1e-15)
        raw_move = np.max(np.abs(traj.phases[-1] - traj.phases[0]))
        corot = traj.phases - traj.rotation_speed * traj.times[:, None]
        corot_move = np.max(np.abs(corot[-1] - corot[0]))
        assert raw_move > 1.0
        assert corot_move < 1e-10

    def test_a_hand_built_trajectory_reports_its_rotation_speed(self, tmp_path):
        # the speed is read from omega and the config, so a trajectory not
        # made by run_experiment reports, and writes, the speed a run has
        cfg = quiet_config(graph=det_graph(n=1000), omega=0.3, sigma=0.5, t_end=1.0)
        traj = Trajectory(times=[0.0, 1.0], phases=np.zeros((2, 1000)), config=cfg,
                          omega=0.3)
        assert traj.rotation_speed == pytest.approx(
            0.3 + window_speed(1.0, 1000, 310, 1, 0.5), abs=1e-15)
        assert traj.rotation_speed == run_experiment(cfg).rotation_speed
        write_run_json(tmp_path / "run.json", traj)
        assert json.loads((tmp_path / "run.json").read_text())["rotation_speed"] \
            == traj.rotation_speed

    def test_trajectory_shape_validation(self):
        cfg = quiet_config()
        with pytest.raises(ValueError, match="shape"):
            Trajectory(times=[0.0, 1.0], phases=np.zeros((2, 7)), config=cfg,
                       omega=0.0)

    @pytest.mark.parametrize("times", [[0.0, 1.0, 5.0, 2.0, 3.0],  # windows misread these
                                       [0.0, np.nan, 2.0], [0.0, 1.0, 1.0, 2.0]])
    def test_trajectory_times_must_ascend_strictly(self, times):
        cfg = quiet_config()
        with pytest.raises(ValueError, match="strictly ascending"):
            Trajectory(times=times, phases=np.zeros((len(times), cfg.graph.n)),
                       config=cfg, omega=0.0)

    def test_output_nodes(self):
        cfg = quiet_config(graph=det_graph(n=1000), t_end=1.0)
        traj = run_experiment(cfg)
        nodes = traj.output_nodes()
        assert nodes.tolist() == list(range(50, 1000, 100))
        cfg_small = SimulationConfig(graph=GraphSpec(n=7, p=1.0, kappa=0.31),
                                     q=1, perturbation_amplitude=0.0,
                                     t_end=1.0)
        small = run_experiment(cfg_small)
        assert small.output_nodes().tolist() == list(range(7))


class TestFileOutputs:
    @pytest.fixture()
    def small_run(self):
        return run_experiment(quiet_config(graph=det_graph(n=20), t_end=2.0,
                                           sample_dt=1.0))

    def test_trajectory_csv(self, small_run, tmp_path):
        # n = 20 writes every second node from index 1: labels u2, u4, ..., u20
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, small_run)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# n=20")
        rows = list(csv.reader(lines[1:]))
        assert rows[0] == ["t"] + [f"u{k}" for k in range(2, 21, 2)]
        assert len(rows) - 1 == len(small_run.times)
        last = rows[-1]
        assert float(last[0]) == small_run.times[-1]
        assert float(last[3]) == small_run.phases[-1, 5]

    def test_run_json(self, small_run, tmp_path):
        path = tmp_path / "run.json"
        write_run_json(path, small_run, extra={"note": 1})
        payload = json.loads(path.read_text())
        assert payload["config"] == small_run.config.to_dict()
        assert payload["t_final"] == 2.0
        assert payload["omega_resolved"] == small_run.omega
        assert payload["note"] == 1
        assert "code_version" in payload

