#!/usr/bin/env python3
"""Threshold-study benchmark for ringtwist.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ringtwist is imported from ./src.
The workload's rounds repeat until S seconds have passed (at least one
round, two when tracing).  Correctness checks run after the timed phases.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: with --trace 0 the end-to-end metrics
(median set-up and run time per round, peak RSS after the first round), with
--trace 1 the per-layer metrics of the traced rounds, which alternate with
untraced ones so the tracing overhead can be stated.  See README.md.
"""

import os

# BLAS and OpenMP pools are held to one thread; this must precede numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from math import floor  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer", as BENCHMARK.json lists them."""
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> float:
    """Import ringtwist from ./src and return the import time in seconds."""
    package = SRC / "ringtwist"
    if not (package / "__init__.py").is_file():
        print(f"error: no ringtwist sources at {package}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import ringtwist.cli  # noqa: F401  (loads every layer module)
    elapsed = time.perf_counter() - start
    if Path(sys.modules["ringtwist"].__file__).resolve().parent != package.resolve():
        print(f"error: ringtwist was not imported from {package}", file=sys.stderr)
        sys.exit(2)
    return elapsed


def one_round(workloads, inputs, out_dir, tracer):
    """Run one round; return its record and the (coupling, simulation) kept for checks."""
    span = tracer.span if tracer else (lambda name: nullcontext())
    record = {"traced": tracer is not None, "failed": 0}
    try:
        with span("bench.setup.predict"):
            start = time.perf_counter()
            record["predictions"] = workloads.predict(inputs)
            predict_s = time.perf_counter() - start
    except Exception:
        traceback.print_exc()
        record["failed"] += 1
        predict_s = None
    try:
        with span("bench.setup.build"):
            start = time.perf_counter()
            coupling = workloads.build(inputs)
            build_s = time.perf_counter() - start
        with span("bench.run"):
            start = time.perf_counter()
            sim = workloads.simulate(inputs, coupling, str(out_dir))
            record["run_s"] = time.perf_counter() - start
    except Exception:
        traceback.print_exc()
        record["failed"] += 1
        return record, None
    if predict_s is not None:
        record["setup_s"] = predict_s + build_s
    record["digest"] = hashlib.sha256(sim.trajectory.phases[-1].tobytes()).hexdigest()
    if tracer:
        record["layers"] = {**tracer.round_layers(), **workloads.layer_sizes(coupling, sim)}
    return record, (coupling, sim)


def run_rounds(workloads, inputs, seconds, out_dir, tracer):
    """Repeat rounds for the given seconds; also return the peak RSS after round one.

    Repeating rounds in one process lets the allocator's heap grow a little
    with every round, so the peak of a single invocation is read after the
    first round, before any check runs.
    """
    rounds = []
    last = None
    peak_rss_mb = None
    deadline = time.perf_counter() + seconds
    while len(rounds) < (2 if tracer else 1) or time.perf_counter() < deadline:
        traced = tracer is not None and len(rounds) % 2 == 1
        last = None  # release the previous round's arrays before this one allocates
        if traced:
            tracer.install(len(rounds))
        try:
            record, last = one_round(workloads, inputs, out_dir, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        rounds.append(record)
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"round {len(rounds)}{' traced' if traced else ''}: "
              f"setup_s={record.get('setup_s')} run_s={record.get('run_s')}", file=sys.stderr)
    return rounds, last, peak_rss_mb


def run_checks(checks, dynamics, inputs, rounds, last) -> list[str]:
    failures = []
    refs = checks.References()
    predictions = [r["predictions"] for r in rounds if "predictions" in r]
    if predictions:
        first = predictions[0]
        if any(p != first for p in predictions[1:]):
            failures.append("closed-form predictions differ between rounds")
        failures += checks.check_normal_forms(
            inputs.normal_forms, [nf[:2] for nf in first.normal_forms], refs)
        failures += checks.check_spectra(
            [inputs.spectra[i] for i in inputs.spectrum_sample],
            [first.max_real_parts[i] for i in inputs.spectrum_sample], first.ell_max)
        if inputs.command == "simulate":
            if any(nf[2] != "stable" for nf in first.normal_forms):
                failures.append("the lock run is not predicted below threshold")
            if any(v != "linearly_stable" for v in first.verdicts):
                failures.append("the lock run's spectrum is not linearly stable")
    digests = {r["digest"] for r in rounds if "digest" in r}
    if len(digests) > 1:
        failures.append("the final state differs between rounds")
    if last is not None:
        failures += check_simulation(checks, dynamics, inputs, refs, *last)
    return failures


def check_simulation(checks, dynamics, inputs, refs, coupling, sim) -> list[str]:
    import numpy as np  # loaded by ringtwist inside the timed import

    failures = []
    config, traj = inputs.config, sim.trajectory
    spec, q = config.graph, config.q
    modulating = inputs.command == "estimate"
    n, m = spec.n, floor(spec.n * spec.kappa)
    if spec.kind == "deterministic_dense":
        if (coupling.layout, coupling.halfwidth, coupling.weight) != ("banded_uniform", m, spec.p):
            failures.append("deterministic coupling is not the weight-p band of half-width m")

        def neighbors(k):
            return (k + np.arange(-m, m + 1)) % n

        prefactor = spec.p / n
    else:
        adj = coupling.adjacency
        failures += checks.check_csr_graph(adj.indptr, adj.indices, adj.data, n, m,
                                           spec.edge_probability)

        def neighbors(k):
            return adj.indices[adj.indptr[k]:adj.indptr[k + 1]]

        prefactor = float(n) ** (spec.gamma - 1.0) if spec.kind == "random_sparse" else 1.0 / n
    u = traj.phases[-1]
    fast = dynamics.make_rhs(coupling, traj.omega, config.sigma)(traj.times[-1], u)
    failures += checks.check_rhs_rows(fast, u, inputs.rhs_rows, neighbors, traj.omega,
                                      config.sigma, prefactor)

    t_min, t_max = inputs.window
    window = (traj.times >= t_min - 1e-12) & (traj.times <= t_max + 1e-12)
    own_r, own_rate = checks.modulation(traj.times[window], traj.phases[window], q)
    dev_max, dev_median = checks.deviation_stats(traj.phases, q)
    failures += checks.check_analysis(sim.estimate.r, sim.estimate.psi_rate, sim.deviation,
                                      own_r, own_rate, dev_max,
                                      compare_rate=modulating)
    if modulating:
        nu1 = checks.nu1_quad(q, spec.p, config.sigma, refs.kappa_crit(q))
        failures += checks.check_modulation_settles(own_r, own_rate, nu1)
    else:
        failures += checks.check_twist_persists(dev_median, checks.winding(u, max(10, n // 50)), q)
    csv_lines = 1 + len(sim.estimate.times) if modulating else 2 + len(traj.times)
    failures += checks.check_files(sim.files, csv_lines, inputs.command)
    return failures


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_program()

    import checks
    import tracing
    import workloads
    from ringtwist import dynamics

    inputs = workloads.WORKLOADS[args.workload](args.seed)
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None

    rounds, last, peak_rss_mb = run_rounds(workloads, inputs, args.seconds, out_dir, tracer)

    failures = run_checks(checks, dynamics, inputs, rounds, last)
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    attempted = 2 * len(rounds)
    failed = sum(r["failed"] for r in rounds)

    def median(key, traced):
        values = [r[key] for r in rounds if key in r and r["traced"] == traced]
        return statistics.median(values) if values else None

    if args.trace:
        tracer.write(out_dir / f"trace-seed{args.seed}.json")
        layered = [r["layers"] for r in rounds if "layers" in r]
        values = {name: statistics.median(layer[name] for layer in layered)
                  for name in layered[0]} if layered else {}
        values["ringtwist.import_s"] = import_s
        for phase in ("setup", "run"):
            plain, traced = median(f"{phase}_s", False), median(f"{phase}_s", True)
            if plain and traced:
                values[f"trace.{phase}_overhead_pct"] = 100.0 * (traced / plain - 1.0)
        units = metric_units("per_layer")
    else:
        values = {"setup_s": median("setup_s", False), "run_s": median("run_s", False),
                  "peak_rss_mb": peak_rss_mb}
        units = metric_units("end_to_end")
    missing = [name for name in units if values.get(name) is None]
    if missing:
        print(f"error: no successful round measured {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
