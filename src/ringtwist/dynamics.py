"""Phase dynamics on ring-band coupling: right-hand sides and integration.

The oscillator system is

    du_k/dt = omega + scale * sum_j w_kj * sin(u_j - u_k + sigma)

with scale = 1/(n*alpha_n) and w_kj = weight * A_kj carried by the
coupling matrix, which forms the sums over A itself (see ringtwist.graphs).
Time stepping is the explicit high-order Runge-Kutta DOP853 from scipy,
driven one step at a time: each accepted step's dense output fills the
grid points it covers straight into one preallocated (samples, n) array,
so a run holds its trajectory once.  A non-finite sample or a failed step
stops the run at once, and the run records the solver's right-hand-side
evaluations and accepted steps.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import cos, floor, inf, sin
from typing import Callable

import numpy as np
from scipy.integrate import DOP853

from . import __version__
from ._boundary import check_int, check_real, check_seed, write_csv, write_json
from .circular import sincos
from .graphs import CouplingMatrix, GraphSpec, _check_coupling, build_coupling

__all__ = [
    "IntegrationError",
    "SimulationConfig",
    "Trajectory",
    "twisted_profile",
    "twisted_initial_condition",
    "make_rhs",
    "integrate_system",
    "run_experiment",
    "write_trajectory_csv",
    "write_run_json",
]


class IntegrationError(RuntimeError):
    """Raised when the ODE solver fails or produces non-finite phases."""


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one simulation run.

    omega=None resolves to minus the speed at which the coupling turns the
    q-twisted state, p*sin(sigma)*graph.symbol(q) (see _coupling_speed), so
    on the band that state is stationary and deviations from the
    twisted profile are directly readable from raw phases.  ic_seed feeds
    the initial-condition noise only; the graph has its own seed, and both
    are None or an integer in [0, 2**64).  A nonzero ic_mode1_amplitude
    superimposes that amplitude of the first spatial harmonic on the
    twisted profile before the noise.  Every float field must be finite.
    """

    graph: GraphSpec
    q: int
    sigma: float = 0.0
    omega: float | None = None
    t_end: float = 100.0
    rel_tol: float = 1e-8
    abs_tol: float = 1e-8
    sample_dt: float = 1.0
    perturbation_amplitude: float = 1e-2
    ic_seed: int | None = None
    ic_mode1_amplitude: float = 0.0
    ic_mode1_phase: float = 0.0

    def __post_init__(self) -> None:
        check_int("q", self.q, 0)
        check_real("sigma", self.sigma)
        if self.omega is not None:
            check_real("omega", self.omega)
        _check_integration(self.t_end, self.rel_tol, self.abs_tol, self.sample_dt)
        check_real("perturbation_amplitude", self.perturbation_amplitude, 0.0, inf, "[)")
        check_seed("ic_seed", self.ic_seed)
        check_real("ic_mode1_amplitude", self.ic_mode1_amplitude)
        check_real("ic_mode1_phase", self.ic_mode1_phase)
        if self.perturbation_amplitude > 0.0 and self.ic_seed is None:
            raise ValueError("noisy initial conditions require ic_seed")

    def resolved_omega(self) -> float:
        """The natural frequency actually used: omega, or -_coupling_speed if None."""
        if self.omega is not None:
            return self.omega
        return -_coupling_speed(self.graph, self.q, self.sigma)

    def to_dict(self) -> dict:
        """Every field as plain JSON-ready data, the graph as a nested dict."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationConfig":
        data = dict(data)
        graph = GraphSpec(**data.pop("graph"))
        return cls(graph=graph, **data)


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of one run.

    times are 1-D, finite and strictly ascending.  phases has shape
    (len(times), n) and holds raw (unwrapped, lab-frame) phases as produced
    by the integrator.  nfev and steps are the solver record of the run
    (right-hand-side evaluations and accepted steps), None for a trajectory
    not made by run_experiment.
    """

    times: np.ndarray
    phases: np.ndarray
    config: SimulationConfig
    omega: float
    nfev: int | None = None
    steps: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "phases", np.asarray(self.phases, dtype=float))
        t = self.times
        if t.ndim != 1 or not np.isfinite(t).all() or (np.diff(t) <= 0).any():
            raise ValueError("times must be 1-D, finite and strictly ascending")
        if self.phases.shape != (len(self.times), self.config.graph.n):
            raise ValueError(
                f"phases shape {self.phases.shape} does not match "
                f"(n_times, n) = {(len(self.times), self.config.graph.n)}"
            )

    @property
    def n(self) -> int:
        return self.config.graph.n

    @property
    def rotation_speed(self) -> float:
        """omega plus the speed p*sin(sigma)*graph.symbol(q) at which the coupling
        turns the q-twisted state (see _coupling_speed), 0 for an omega=None run."""
        cfg = self.config
        return self.omega + _coupling_speed(cfg.graph, cfg.q, cfg.sigma)

    def output_nodes(self) -> np.ndarray:
        """CSV column subset: every floor(n/10)-th node from floor(n/20).

        Full states stay in memory; only file output is thinned.
        """
        n = self.n
        return np.arange(min(floor(n / 20), n - 1), n, max(1, floor(n / 10)))


def _check_integration(t_end, rel_tol, abs_tol, sample_dt) -> None:
    """Raise ValueError unless DOP853 can integrate to t_end as asked.

    rel_tol must be at least 100 machine epsilons (2.22e-14), the floor
    DOP853 would otherwise raise it to with only a warning.
    """
    check_real("t_end", t_end, 0.0, inf, "()")
    check_real("rel_tol", rel_tol, 100 * np.finfo(float).eps, inf, "[)")
    check_real("abs_tol", abs_tol, 0.0, inf, "[)")
    check_real("sample_dt", sample_dt, 0.0, inf, "()")


def _coupling_speed(graph: GraphSpec, q: int, sigma: float) -> float:
    """The speed at which the coupling turns the q-twisted state, for any q >= 0.

    On u_k = 2*pi*q*k/n the sines over the realized window |d| <= graph.halfwidth
    cancel in pairs, leaving p*sin(sigma) times the graph's symbol of mode q:
    exact on the band, and the expected speed of a random graph, whose scale
    times edge probability is p/n too.
    """
    return graph.p * sin(sigma) * float(graph.symbol(q))


def twisted_profile(n: int, q: int) -> np.ndarray:
    """The q-twisted phase profile 2*pi*q*k/n on nodes k = 1..n."""
    return 2.0 * np.pi * q * np.arange(1, n + 1) / n


def twisted_initial_condition(config: SimulationConfig) -> np.ndarray:
    """The config's q-twisted profile plus a first-harmonic bump, then seeded noise.

    The bump is ic_mode1_amplitude * sin(2*pi*k/n + ic_mode1_phase), the
    shape of the slow modulation that grows or decays near the fold of the
    twisted family, so runs can start at a chosen modulation amplitude
    instead of waiting for noise to organize.  The noise is uniform on
    [-a, a] with a = perturbation_amplitude, drawn from ic_seed.
    """
    n, a = config.graph.n, config.perturbation_amplitude
    u0 = twisted_profile(n, config.q) + config.ic_mode1_amplitude * np.sin(
        twisted_profile(n, 1) + config.ic_mode1_phase
    )
    if a > 0.0:
        u0 = u0 + np.random.default_rng(config.ic_seed).uniform(-a, a, n)
    return u0


def make_rhs(coupling: CouplingMatrix, omega: float,
             sigma: float) -> Callable[[float, np.ndarray], np.ndarray]:
    """Build the right-hand side for a coupling matrix.

    sin(u_j - u_k + sigma) =
    cos(u_k - sigma) * sin(u_j) - sin(u_k - sigma) * cos(u_j) reduces the
    coupling sum to two linear operations (CouplingMatrix.coupling_sums),
    and the angle-addition formulas give cos(u_k - sigma) and
    sin(u_k - sigma) from sin u and cos u, which circular.sincos takes from
    one tangent per node; a call stays within 4.5e-16*2(1 + sqrt 2)*prefactor
    *(2m + 1), plus one rounding, of the expression on np.sin / np.cos.
    sin u, cos u and one scratch vector are the closure's own buffers, and
    the sums may reuse a workspace, so build one closure per thread.  A call
    evaluates the expression with out= into those buffers and one fresh
    array, in the plain expression's order, so it gives its bits; the fresh
    array is returned, since the solver keeps the last one.  A state whose
    shape is not (n,) raises ValueError.
    """
    spec = coupling.spec
    prefactor, coupling_sums = spec.scale * spec.weight, coupling.coupling_sums()
    cos_sigma, sin_sigma = cos(sigma), sin(sigma)
    n = spec.n
    s, c, scratch = np.empty(n), np.empty(n), np.empty(n)

    def rhs(t: float, u: np.ndarray) -> np.ndarray:
        if u.shape != (n,):
            raise ValueError(
                f"state of shape {u.shape} given to a right-hand side built for n={n}")
        sincos(u, out=(s, c))
        ws, wc = coupling_sums(s, c)
        # omega + prefactor*((c*cos_sigma + s*sin_sigma)*ws - (s*cos_sigma - c*sin_sigma)*wc)
        du = np.multiply(c, cos_sigma)
        np.add(du, np.multiply(s, sin_sigma, out=scratch), out=du)
        np.multiply(du, ws, out=du)
        np.multiply(s, cos_sigma, out=scratch)
        # s is read for the last time above, so it holds c*sin_sigma
        np.subtract(scratch, np.multiply(c, sin_sigma, out=s), out=scratch)
        np.subtract(du, np.multiply(scratch, wc, out=scratch), out=du)
        return np.add(omega, np.multiply(prefactor, du, out=du), out=du)

    return rhs


def _sample_array(n: int, t_end: float,
                  sample_dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Grid on [0, t_end] by sample_dt, ending at t_end, and an empty (len(grid), n) array.

    The count comes from scalars and the states are reserved before the grid
    is built, so a refused size touches no memory.  Every size that cannot be
    allocated (a count overflowing to inf too) raises ValueError, a config error.
    """
    n_steps = t_end / sample_dt + 1e-9
    try:
        n_steps = floor(n_steps)
        ragged = sample_dt * n_steps < t_end - 1e-9 * max(1.0, abs(t_end))
        count = max(2, n_steps + 1 + ragged)  # a grid holds both 0 and t_end
        states = np.empty((count, n))
        grid = sample_dt * np.arange(count)
    except (MemoryError, OverflowError, ValueError):
        raise ValueError(
            f"cannot allocate {n_steps + 1:.6g} samples of n={n} phases "
            f"(t_end={t_end:g}, sample_dt={sample_dt:g})"
        ) from None
    grid[-1] = t_end
    return grid, states


class _Samples(tuple):
    # the pair (times, states), carrying the solver record as attributes
    def __new__(cls, times: np.ndarray, states: np.ndarray, nfev: int, steps: int):
        pair = super().__new__(cls, (times, states))
        pair.nfev, pair.steps = nfev, steps
        return pair


# a state that overflows ends in a failed step or a non-finite sample, each
# an IntegrationError, so the solver's own overflow warnings stay quiet
@np.errstate(over="ignore", invalid="ignore")
def integrate_system(rhs: Callable[[float, np.ndarray], np.ndarray],
                     y0: np.ndarray, t_end: float, *, rel_tol: float = 1e-8,
                     abs_tol: float = 1e-8,
                     sample_dt: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Integrate du/dt = rhs(t, u) from t = 0 with DOP853 on a uniform sample grid.

    Returns (times, states) with states a C-ordered array of shape
    (len(times), n); the final time is exactly t_end.  The solver is
    stepped directly: after each accepted step, its dense output evaluates
    the grid points the step covered and writes them into their rows, so
    no second copy of the trajectory is ever built.  The samples
    are bit for bit those of solve_ivp(method="DOP853", t_eval=times).
    The returned pair also carries the solver record as attributes: nfev,
    the right-hand-side evaluations, and steps, the accepted steps.

    Raises
    ------
    ValueError
        For a t_end, rel_tol, abs_tol or sample_dt a SimulationConfig refuses.
    IntegrationError
        At the first failed step, naming the time the solver reached, or
        at the first step whose samples are not all finite, naming the
        first such sample time.
    """
    _check_integration(t_end, rel_tol, abs_tol, sample_dt)
    y0 = np.asarray(y0, dtype=float)
    t_eval, states = _sample_array(len(y0), t_end, sample_dt)
    # the interpolant fills at most 1/16 of the grid per call, so its temporary
    # block stays small beside the trajectory; it computes each row on its
    # own, so the split changes no sample
    rows = -(-len(t_eval) // 16)
    solver = DOP853(rhs, 0.0, y0, float(t_end), rtol=rel_tol, atol=abs_tol)
    filled = steps = 0
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise IntegrationError(
                f"integrator stopped at t={solver.t:g} of {t_end:g}: {message}"
            )
        steps += 1
        end = int(np.searchsorted(t_eval, solver.t, side="right"))
        if end == filled:
            continue
        interpolant = solver.dense_output()
        for lo in range(filled, end, rows):
            hi = min(lo + rows, end)
            # the interpolant returns (n, k); its transpose is C-ordered
            block = interpolant(t_eval[lo:hi]).T
            finite = np.isfinite(block).all(axis=1)
            if not finite.all():
                bad = lo + int(np.argmin(finite))
                raise IntegrationError(
                    f"non-finite phases at t={t_eval[bad]:g} of {t_end:g}"
                )
            states[lo:hi] = block
        filled = end
    return _Samples(t_eval, states, solver.nfev, steps)


def run_experiment(config: SimulationConfig,
                   coupling: CouplingMatrix | None = None) -> Trajectory:
    """Build the graph, set up the initial condition, integrate, package.

    A prebuilt coupling may be passed to reuse one random graph across
    several runs; its spec must equal config.graph, field for field, or
    ValueError names every field that differs, so omega is resolved for,
    and the config records, the graph that runs.  The Trajectory keeps the
    solver record (nfev, steps).  Samples that cannot be allocated are
    refused before the graph is built.
    """
    graph = config.graph
    # np.empty only reserves the array, so the trial costs no memory
    _sample_array(graph.n, config.t_end, config.sample_dt)
    if coupling is None:
        coupling = build_coupling(graph)
    else:
        _check_coupling(coupling, graph)
    omega = config.resolved_omega()
    y0 = twisted_initial_condition(config)
    rhs = make_rhs(coupling, omega, config.sigma)
    samples = integrate_system(
        rhs, y0, config.t_end, rel_tol=config.rel_tol, abs_tol=config.abs_tol,
        sample_dt=config.sample_dt,
    )
    times, states = samples
    return Trajectory(times=times, phases=states, config=config, omega=omega,
                      nfev=samples.nfev, steps=samples.steps)


def write_trajectory_csv(path, trajectory: Trajectory) -> None:
    """Write sampled phases of trajectory.output_nodes() as CSV.

    The first line is a comment with run metadata; the header row names
    columns t, u<k> with 1-based node labels.
    """
    nodes = trajectory.output_nodes()
    cfg = trajectory.config
    write_csv(path, ["t"] + [f"u{k + 1}" for k in nodes],
              np.column_stack([trajectory.times, trajectory.phases[:, nodes]]).tolist(),
              comment=f"n={cfg.graph.n} kind={cfg.graph.kind} q={cfg.q} "
                      f"kappa={cfg.graph.kappa!r} sigma={cfg.sigma!r} "
                      f"omega={trajectory.omega!r}")


def write_run_json(path, trajectory: Trajectory, extra: dict | None = None) -> None:
    """Write run provenance: config echo, code version, final-state digest."""
    final = trajectory.phases[-1]
    payload = {
        "code_version": __version__,
        "config": trajectory.config.to_dict(),
        "omega_resolved": trajectory.omega,
        "rotation_speed": trajectory.rotation_speed,
        "t_final": float(trajectory.times[-1]),
        "final_phase_mean": float(np.mean(final)),
        "final_phase_span": float(np.ptp(final)),
    }
    if extra:
        payload.update(extra)
    write_json(path, payload)
