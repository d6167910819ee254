"""The three workloads: their inputs per seed and the round each repeats.

A round is two operations.  The prediction set evaluates the closed forms
(normal-form constants, branch predictions, spectra).  The simulation builds
the graph, integrates, analyses the trajectory and writes the files that
``ringtwist estimate`` (band_threshold) or ``ringtwist simulate`` (the lock
workloads) writes.  ``setup_s`` is the prediction set plus the graph build;
``run_s`` is everything after, starting with ``run_experiment``, which
builds the initial condition (O(n) vector work) just before integrating.

Every ringtwist function is called through its module, so the tracer's
rebinding of module attributes sees these calls.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from math import pi

import numpy as np

from ringtwist import analysis, bifurcation, dynamics, graphs, spectrum
from ringtwist.cli import RunManifest

LAG = pi / 3


@dataclass(frozen=True)
class Inputs:
    """Everything a workload feeds the program, derived from one seed.

    normal_forms holds (q, sigma, p, kappa_query) points; kappa_query None
    means 1e-3 above the point's own threshold.  spectra holds (q, kappa,
    sigma, p) points.  command names the CLI command whose files the
    simulation writes: an "estimate" run must show a settled oscillating
    modulation, a "simulate" run a twisted state that persists.
    """

    normal_forms: tuple
    spectra: tuple
    config: dynamics.SimulationConfig
    window: tuple[float, float]
    command: str
    rhs_rows: tuple
    spectrum_sample: tuple


def band_threshold(seed: int) -> Inputs:
    """Closed forms for q = 1..8, then one long band run just above threshold."""
    rng = np.random.default_rng([seed, 0])
    sigmas = np.sort(rng.uniform(-1.2, 1.2, 6))
    normal_forms = [(q, float(s), 1.0, None) for q in range(1, 9) for s in sigmas]
    normal_forms.append((2, LAG, 1.0, 0.168))
    kappas = np.sort(rng.uniform(0.02, 0.48, 240))
    spectrum_sigma = float(rng.uniform(-1.2, 1.2))
    spectra = tuple((q, float(k), spectrum_sigma, 1.0) for k in kappas for q in range(1, 9))
    n = 10_000
    config = dynamics.SimulationConfig(
        graph=graphs.GraphSpec(n=n, p=1.0, kappa=0.168), q=2, sigma=LAG,
        t_end=1000.0, sample_dt=1.0, perturbation_amplitude=1e-2,
        ic_seed=int(rng.integers(2**31)), ic_mode1_amplitude=0.32,
        ic_mode1_phase=float(rng.uniform(0.0, 2.0 * pi)),
    )
    return Inputs(
        normal_forms=tuple(normal_forms), spectra=spectra,
        config=config, window=(500.0, 1000.0), command="estimate",
        rhs_rows=tuple(int(k) for k in rng.choice(n, 64, replace=False)),
        spectrum_sample=tuple(int(i) for i in rng.choice(len(spectra), 16, replace=False)),
    )


def _lock(seed: int, stream: int, graph: dict, sigma: float, t_end: float) -> Inputs:
    rng = np.random.default_rng([seed, stream])
    spec = graphs.GraphSpec(**graph, seed=int(rng.integers(2**63)))
    config = dynamics.SimulationConfig(
        graph=spec, q=1, sigma=sigma, t_end=t_end, sample_dt=1.0,
        perturbation_amplitude=1e-2, ic_seed=int(rng.integers(2**31)),
    )
    return Inputs(
        normal_forms=((1, sigma, spec.p, spec.kappa),),
        spectra=((1, spec.kappa, sigma, spec.p),), config=config,
        window=(t_end / 2, t_end), command="simulate",
        rhs_rows=tuple(int(k) for k in rng.choice(spec.n, 64, replace=False)),
        spectrum_sample=(0,),
    )


# The random graphs are sized so their CSR stays within a few MiB: with CSRs
# of tens of MiB (n = 3000 dense, n = 2e4 sparse: 77 and 44 MiB) the
# memory-bound run phase swung by up to 2x between runs on a shared machine.


def random_dense_lock(seed: int) -> Inputs:
    """p = 0.9 > 1/2 random graph, q = 1 with lag, below threshold."""
    return _lock(seed, 1, dict(n=1000, p=0.9, kappa=0.31, kind="random_dense"),
                 sigma=LAG, t_end=120.0)


def random_sparse_lock(seed: int) -> Inputs:
    """gamma = 0.45 random sparse graph, short integration: the build dominates."""
    return _lock(seed, 2, dict(n=5000, p=1.0, kappa=0.31, kind="random_sparse",
                               gamma=0.45),
                 sigma=0.0, t_end=5.0)


WORKLOADS = {
    "band_threshold": band_threshold,
    "random_dense_lock": random_dense_lock,
    "random_sparse_lock": random_sparse_lock,
}


@dataclass(frozen=True)
class Predictions:
    """Closed-form outputs of one prediction set, compared across rounds."""

    normal_forms: tuple  # (kappa_crit, nu1, family stability at the query)
    max_real_parts: tuple
    verdicts: tuple
    ell_max: int


def predict(inputs: Inputs) -> Predictions:
    normal_forms = []
    for q, sigma, p, kappa in inputs.normal_forms:
        constants = bifurcation.normal_form_constants(q, p, sigma)
        query = constants.kappa_crit + 1e-3 if kappa is None else kappa
        prediction = bifurcation.predict_bifurcation(constants, query)
        normal_forms.append(
            (constants.kappa_crit, constants.nu1, prediction.family_stability_at_query))
    reports = [spectrum.eigenvalues(spectrum.ModeParams(q=q, kappa=k, sigma=s, p=p))
               for q, k, s, p in inputs.spectra]
    return Predictions(
        normal_forms=tuple(normal_forms),
        max_real_parts=tuple(r.max_real_part for r in reports),
        verdicts=tuple(r.verdict for r in reports),
        ell_max=reports[0].ell_max,
    )


def build(inputs: Inputs):
    return graphs.build_coupling(inputs.config.graph)


@dataclass
class Simulation:
    trajectory: dynamics.Trajectory
    estimate: analysis.ModulationEstimate
    deviation: np.ndarray
    files: dict


def simulate(inputs: Inputs, coupling, out_dir: str) -> Simulation:
    """Integrate, analyse and write what the matching CLI command writes."""
    start = time.perf_counter()
    config = inputs.config
    trajectory = dynamics.run_experiment(config, coupling)
    t_min, t_max = inputs.window
    estimate = analysis.estimate_modulation(trajectory, t_min=t_min, t_max=t_max)
    deviation = analysis.deviation_series(trajectory)
    fit = analysis.fit_twisted(trajectory.phases[-1], config.q)
    if inputs.command == "estimate":
        files = {"modulation": os.path.join(out_dir, "modulation.csv"),
                 "fit": os.path.join(out_dir, "fit.json")}
        analysis.write_modulation_csv(files["modulation"], estimate)
        analysis.write_fit_json(files["fit"], fit)
        results = {"r_final": estimate.r_final, "r_min": estimate.r_min,
                   "r_max": estimate.r_max, "psi_rate": estimate.psi_rate,
                   "omega_tilde": estimate.omega_tilde,
                   "final_residual_max": fit.residual_max}
    else:
        files = {"trajectory": os.path.join(out_dir, "trajectory.csv"),
                 "run": os.path.join(out_dir, "run.json")}
        results = {"omega": trajectory.omega, "t_final": float(trajectory.times[-1]),
                   "final_residual_max": fit.residual_max,
                   "final_residual_l2": fit.residual_l2}
        dynamics.write_trajectory_csv(files["trajectory"], trajectory)
        dynamics.write_run_json(files["run"], trajectory, extra={"results": results})
    manifest = RunManifest(command=inputs.command, config=config.to_dict(),
                           outputs=list(files.values()), seed=config.graph.seed,
                           results=results)
    manifest.wall_time_s = time.perf_counter() - start
    files["manifest"] = manifest.write(out_dir)
    return Simulation(trajectory=trajectory, estimate=estimate, deviation=deviation,
                      files=files)


def rhs_bytes_per_call(coupling) -> int:
    """Bytes one make_rhs evaluation reads and writes, computed from array sizes.

    Counts each n-vector pass of the current routes once (25 for the trig
    and products; per window sum 6 passes over n + 2m plus 3 over n) and each
    CSR matvec as its data, indices and indptr plus one read of x and one
    write of y.  Cache reuse and gathers are ignored.
    """
    n, m = coupling.n, coupling.halfwidth
    if coupling.layout == "banded_uniform":
        return 8 * (25 * n + 2 * (6 * (n + 2 * m) + 3 * n))
    adj = coupling.adjacency
    matvec = adj.data.nbytes + adj.indices.nbytes + adj.indptr.nbytes + 16 * n
    return 8 * 25 * n + 2 * matvec


def layer_sizes(coupling, sim: Simulation) -> dict:
    """Per-layer sizes and counts of one round, read from its outputs."""
    n, m = coupling.n, coupling.halfwidth
    if coupling.layout == "banded_uniform":
        csr_bytes, kept_ratio = 0, 1.0
    else:
        adj = coupling.adjacency
        csr_bytes = adj.data.nbytes + adj.indices.nbytes + adj.indptr.nbytes
        rows = np.repeat(np.arange(n), np.diff(adj.indptr))
        diagonal = int(np.count_nonzero(rows == adj.indices))
        kept_ratio = (diagonal + (adj.nnz - diagonal) / 2) / (n * (m + 1))
    trajectory = sim.trajectory
    return {
        "graphs.nnz": float(coupling.nnz),
        "graphs.csr_mb": csr_bytes / 2**20,
        "graphs.kept_ratio": kept_ratio,
        "dynamics.rhs_mb_moved": rhs_bytes_per_call(coupling) / 2**20,
        "dynamics.trajectory_mb": trajectory.phases.nbytes / 2**20,
        "analysis.samples": float(len(sim.estimate.times) + len(trajectory.times)),
        "cli.bytes_written": float(sum(os.path.getsize(p) for p in sim.files.values())),
    }
