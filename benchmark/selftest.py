#!/usr/bin/env python3
"""Self-test of the benchmark's checks: each accepts a correct value and
rejects a deliberately wrong one.

    python3 benchmark/selftest.py

Run from the root of a source checkout (ringtwist is imported from ./src).
Prints one line per case and exits 1 if any check accepts a wrong value or
rejects a correct one.  Takes a few seconds.
"""

import sys
from dataclasses import replace
from math import pi

import run

run.import_program()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from ringtwist import analysis, bifurcation, dynamics, graphs, spectrum  # noqa: E402

CASES = []


def case(fn):
    CASES.append(fn)
    return fn


@case
def normal_forms():
    refs = checks.References()
    points = [(q, 0.7, 0.8, None) for q in (1, 3, 8)]
    good = [(c.kappa_crit, c.nu1) for c in
            (bifurcation.normal_form_constants(q, p, s) for q, s, p, _ in points)]
    yield "closed forms", checks.check_normal_forms(points, good, refs), True
    bad = [good[0], (good[1][0] + 1e-8, good[1][1]), good[2]]
    yield "kappa_crit off by 1e-8", checks.check_normal_forms(points, bad, refs), False
    bad = [good[0], good[1], (good[2][0], good[2][1] + 1e-8)]
    yield "nu1 off by 1e-8", checks.check_normal_forms(points, bad, refs), False


@case
def spectra():
    points = [(2, 0.21, -0.4, 1.0), (5, 0.37, 0.9, 0.6)]
    reports = [spectrum.eigenvalues(spectrum.ModeParams(q=q, kappa=k, sigma=s, p=p))
               for q, k, s, p in points]
    good = [r.max_real_part for r in reports]
    ell_max = reports[0].ell_max
    yield "max real parts", checks.check_spectra(points, good, ell_max), True
    bad = [good[0], good[1] - 1e-8]
    yield "max real part off by 1e-8", checks.check_spectra(points, bad, ell_max), False


def _graph():
    spec = graphs.GraphSpec(n=400, p=0.9, kappa=0.2, kind="random_dense", seed=5)
    adj = graphs.build_coupling(spec).adjacency
    return spec, adj.indptr.copy(), adj.indices.copy(), adj.data.copy()


def _csr(entries, n):
    rows, cols = entries
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return indptr, cols


@case
def csr_graph():
    spec, indptr, indices, data = _graph()
    n, m, p = spec.n, spec.halfwidth, spec.edge_probability
    yield "random dense graph", checks.check_csr_graph(indptr, indices, data, n, m, p), True
    two = data.copy()
    two[7] = 2.0
    yield "an entry of 2", checks.check_csr_graph(indptr, indices, two, n, m, p), False
    rows = np.repeat(np.arange(n), np.diff(indptr))
    off = np.flatnonzero(rows != indices)[0]
    keep = np.arange(len(indices)) != off
    one_sided = _csr((rows[keep], indices[keep]), n)
    yield "one direction of an edge dropped", checks.check_csr_graph(
        *one_sided, data[keep], n, m, p), False
    outside = _csr((np.append(rows, [0, m + 1]), np.append(indices, [m + 1, 0])), n)
    yield "an edge outside the band", checks.check_csr_graph(
        *outside, np.ones(len(indices) + 2), n, m, p), False
    twice = _csr((np.append(rows, [rows[off], indices[off]]),
                  np.append(indices, [indices[off], rows[off]])), n)
    yield "an edge stored twice", checks.check_csr_graph(
        *twice, np.ones(len(indices) + 2), n, m, p), False
    thin = graphs.build_coupling(replace(spec, p=0.85)).adjacency
    yield "edges drawn with p = 0.85 against a target of 0.9", checks.check_csr_graph(
        thin.indptr, thin.indices, thin.data, n, m, p), False


@case
def rhs_rows():
    spec = graphs.GraphSpec(n=500, p=1.0, kappa=0.3)
    coupling = graphs.build_coupling(spec)
    u = dynamics.twisted_profile(spec.n, 1) + np.random.default_rng(3).uniform(-0.3, 0.3, spec.n)
    omega, sigma, m = 0.2, 0.5, spec.halfwidth
    fast = dynamics.make_rhs(coupling, omega, sigma)(0.0, u)
    rows = [0, 17, 250, 499]

    def neighbors(k):
        return (k + np.arange(-m, m + 1)) % spec.n

    yield "banded RHS", checks.check_rhs_rows(fast, u, rows, neighbors, omega, sigma,
                                              1.0 / spec.n), True
    bad = fast.copy()
    bad[250] += 1e-11
    yield "one row off by 1e-11", checks.check_rhs_rows(bad, u, rows, neighbors, omega,
                                                        sigma, 1.0 / spec.n), False


def _modulated(n=400, q=2, r=0.3, rate=0.1):
    times = np.arange(0.0, 101.0)
    x = 2 * pi * np.arange(1, n + 1) / n
    phases = (2 * pi * q * np.arange(1, n + 1) / n + 0.7
              + r * np.sin(x[None, :] + rate * times[:, None]))
    return times, phases


@case
def recomputed_analysis():
    times, phases = _modulated()
    config = dynamics.SimulationConfig(graph=graphs.GraphSpec(n=400, p=1.0, kappa=0.2), q=2,
                                      perturbation_amplitude=0.0)
    trajectory = dynamics.Trajectory(times=times, phases=phases, config=config, omega=0.0)
    est = analysis.estimate_modulation(trajectory)
    dev = analysis.deviation_series(trajectory)
    own_r, own_rate = checks.modulation(times, phases, 2)
    own_dev, _ = checks.deviation_stats(phases, 2)
    yield "modulation recovers r and rate", [] if (
        abs(own_rate - 0.1) < 1e-3 and np.allclose(own_r, 0.3, atol=1e-3)) else ["off"], True
    args = (est.r, est.psi_rate, dev, own_r, own_rate, own_dev)
    yield "program analysis", checks.check_analysis(*args, compare_rate=True), True
    for i, label in enumerate(("r", "psi_rate", "deviation series")):
        bad = list(args)
        bad[i] = bad[i] + 1e-8
        yield f"{label} off by 1e-8", checks.check_analysis(*bad, compare_rate=True), False


@case
def modulation_settles():
    yield "settled modulation", checks.check_modulation_settles([0.4, 0.5], 0.11, 0.1), True
    yield "collapsed modulation", checks.check_modulation_settles([0.05, 0.5], 0.1, 0.1), False
    yield "rate 1.5 nu1", checks.check_modulation_settles([0.4, 0.5], -0.15, 0.1), False


@case
def twist_persists():
    n, q = 600, 3
    u = dynamics.twisted_profile(n, q) + np.random.default_rng(4).uniform(-0.5, 0.5, n)
    wind = checks.winding(u, max(10, n // 50))
    _, medians = checks.deviation_stats(u[None, :], q)
    yield "noisy 3-twisted state", checks.check_twist_persists(medians, wind, q), True
    yield "bulk median 0.4", checks.check_twist_persists([0.1, 0.4], wind, q), False
    slipped = checks.winding(dynamics.twisted_profile(n, q + 1), max(10, n // 50))
    yield "winding q + 1", checks.check_twist_persists(medians, slipped, q), False


@case
def files():
    out = run.OUT / "selftest"
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: str(out / name) for name in ("table.csv", "manifest.json", "bad.json")}
    with open(paths["table.csv"], "w") as fh:
        fh.write("t,r\n0.0,1.0\n1.0,1.0\n")
    with open(paths["manifest.json"], "w") as fh:
        fh.write('{"command": "estimate"}\n')
    with open(paths["bad.json"], "w") as fh:
        fh.write('{"command": \n')
    good = {"table": paths["table.csv"], "manifest": paths["manifest.json"]}
    yield "written files", checks.check_files(good, 3, "estimate"), True
    yield "a missing CSV row", checks.check_files(good, 4, "estimate"), False
    yield "a manifest of another command", checks.check_files(good, 3, "simulate"), False
    yield "truncated JSON", checks.check_files({"fit": paths["bad.json"]}, 3, "estimate"), False


@case
def rounds():
    inputs = workloads.random_dense_lock(0)
    good = workloads.predict(inputs)
    record = {"traced": False, "predictions": good, "digest": "a"}
    yield "identical rounds", run.run_checks(checks, dynamics, inputs, [record, record], None), True
    moved = replace(good, normal_forms=((good.normal_forms[0][0] + 1e-15,)
                                        + good.normal_forms[0][1:],))
    yield "predictions differing between rounds", run.run_checks(
        checks, dynamics, inputs, [record, {**record, "predictions": moved}], None), False
    yield "final states differing between rounds", run.run_checks(
        checks, dynamics, inputs, [record, {**record, "digest": "b"}], None), False
    unstable = replace(good, verdicts=("unstable",))
    yield "a lock run predicted unstable", run.run_checks(
        checks, dynamics, inputs, [{**record, "predictions": unstable}], None), False


def main() -> int:
    wrong = 0
    for fn in CASES:
        for label, failures, should_pass in fn():
            ok = (not failures) if should_pass else bool(failures)
            wrong += not ok
            verdict = "accepts" if should_pass else "rejects"
            detail = failures[0] if failures else "no failure"
            print(f"{'ok  ' if ok else 'FAIL'} {fn.__name__} {verdict} {label}: {detail}")
    print(f"{wrong} of the cases misbehaved")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
