"""Command-line interface: constants tables, spectra, runs, sweeps.

Every successful invocation writes exactly one ``manifest.json`` into the
output directory recording the command, the effective configuration,
output paths, code version, and wall time.  Each ``cmd_*`` function
returns its manifest; :func:`main` creates the output directory, times
the command, writes the manifest and maps errors to exit codes: 0
success, 2 for configuration problems (bad files, bad values, bad paths:
any ValueError or OSError), 3 for numeric failures (integration
breakdown, ill-posed fits, missing roots).

Run configurations are JSON files; any entry can be overridden on the
command line with ``--set dotted.key=value`` (values parsed as JSON,
falling back to plain strings).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .analysis import (
    NoFitError,
    deviation_field,
    deviation_series,
    estimate_modulation,
    fit_twisted,
    fourier_mode1,
    write_fit_json,
    write_modulation_csv,
)
from .bifurcation import (
    NoRootError,
    constants_rows,
    write_beta_sigma_csv,
    write_constants_csv,
    write_zeta_csv,
)
from .dynamics import (
    IntegrationError,
    SimulationConfig,
    run_experiment,
    write_run_json,
    write_trajectory_csv,
)
from .graphs import (
    GraphSpec,
    build_coupling,
    empirical_band_density,
    step_graphon_error,
    write_adjacency_binary,
    write_pixel_csv,
)
from .spectrum import BracketError, ModeParams, eigenvalues, write_spectrum_csv

__all__ = ["main", "RunManifest"]

_NUMERIC_ERRORS = (IntegrationError, NoFitError, NoRootError, BracketError)


class ConfigError(ValueError):
    """Raised for malformed configuration input (exit code 2)."""


@dataclass
class RunManifest:
    """Provenance record written once per CLI invocation."""

    command: str
    config: dict
    outputs: list[str] = field(default_factory=list)
    seed: int | None = None
    code_version: str = __version__
    wall_time_s: float = 0.0
    results: dict = field(default_factory=dict)

    def write(self, out_dir: str) -> str:
        path = os.path.join(out_dir, "manifest.json")
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, default=str)
            fh.write("\n")
        return path


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _apply_override(data: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"override {assignment!r} is not of form key=value")
    dotted, raw = assignment.split("=", 1)
    keys = dotted.strip().split(".")
    node = data
    for key in keys[:-1]:
        if key not in node or not isinstance(node[key], dict):
            node[key] = {}
        node = node[key]
    node[keys[-1]] = _parse_value(raw)


def _load_config(path: str, overrides: list[str]) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    for assignment in overrides:
        _apply_override(data, assignment)
    return data


def _parse_int_list(raw: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {raw!r}") from exc


def _simulation_config(args) -> SimulationConfig:
    data = _load_config(args.config, args.set or [])
    try:
        return SimulationConfig.from_dict(data)
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"bad simulation config: {exc}") from exc


def cmd_constants(args) -> RunManifest:
    q_list = _parse_int_list(args.q_list)
    rows = constants_rows(q_list, args.p, args.sigma)
    constants_path = os.path.join(args.out, "constants.csv")
    zeta_path = os.path.join(args.out, "zeta.csv")
    write_constants_csv(constants_path, rows)
    write_zeta_csv(zeta_path)
    for row in rows:
        print(
            f"q={row['q']} kappa_crit={row['kappa_crit']:.6f} "
            f"beta0={row['beta0']:.6f} beta_sigma={row['beta_sigma']:.6f}"
        )
    return RunManifest(
        command="constants",
        config={"q_list": q_list, "p": args.p, "sigma": args.sigma},
        outputs=[constants_path, zeta_path],
    )


def cmd_spectrum(args) -> RunManifest:
    params = ModeParams(q=args.q, kappa=args.kappa, sigma=args.sigma, p=args.p)
    report = eigenvalues(params, ell_max=args.ell_max)
    spectrum_path = os.path.join(args.out, "spectrum.csv")
    write_spectrum_csv(spectrum_path, report)
    print(f"verdict={report.verdict} max_real_part={report.max_real_part!r} "
          f"critical_mode={report.critical_mode}")
    return RunManifest(
        command="spectrum",
        config={"q": args.q, "kappa": args.kappa, "sigma": args.sigma,
                "p": args.p, "ell_max": args.ell_max},
        outputs=[spectrum_path],
        results={"verdict": report.verdict,
                 "max_real_part": report.max_real_part,
                 "critical_mode": report.critical_mode},
    )


def cmd_betasigma(args) -> RunManifest:
    problem = (f"--sigma-grid must be lo:hi:count with an integer count >= 1, "
               f"got {args.sigma_grid!r}")
    try:
        lo, hi, count = args.sigma_grid.split(":")
        grid = np.linspace(float(lo), float(hi), int(count))
    except ValueError as exc:
        raise ConfigError(problem) from exc
    if not grid.size:
        raise ConfigError(problem)
    path = os.path.join(args.out, f"beta_sigma_q{args.q}.csv")
    write_beta_sigma_csv(path, args.q, args.p, grid)
    return RunManifest(
        command="betasigma",
        config={"q": args.q, "p": args.p, "sigma_grid": args.sigma_grid},
        outputs=[path],
    )


def cmd_graph(args) -> RunManifest:
    data = _load_config(args.config, args.set or [])
    try:
        spec = GraphSpec(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad graph config: {exc}") from exc
    coupling = build_coupling(spec)
    outputs = []
    if args.pixels:
        pixel_path = os.path.join(args.out, "pixels.csv")
        write_pixel_csv(pixel_path, coupling)
        outputs.append(pixel_path)
    if args.binary:
        bin_path = os.path.join(args.out, "adjacency.bin")
        write_adjacency_binary(bin_path, coupling)
        outputs.append(bin_path)
    density = empirical_band_density(coupling)
    step_err = step_graphon_error(spec)
    print(f"halfwidth={coupling.halfwidth} nnz={coupling.nnz} "
          f"density={density:.6f} (target {spec.edge_probability:.6f})")
    return RunManifest(
        command="graph", config=data, outputs=outputs, seed=spec.seed,
        results={"halfwidth": coupling.halfwidth, "nnz": coupling.nnz,
                 "edge_probability": spec.edge_probability,
                 "empirical_band_density": density,
                 "step_graphon_error": step_err},
    )


def cmd_simulate(args) -> RunManifest:
    config = _simulation_config(args)
    trajectory = run_experiment(config)
    csv_path = os.path.join(args.out, "trajectory.csv")
    json_path = os.path.join(args.out, "run.json")
    write_trajectory_csv(csv_path, trajectory)
    results = {"omega": trajectory.omega, "t_final": float(trajectory.times[-1])}
    try:
        fit = fit_twisted(trajectory.phases[-1], config.q)
        results["final_residual_max"] = fit.residual_max
        results["final_residual_l2"] = fit.residual_l2
    except NoFitError as exc:
        results["final_fit_error"] = str(exc)
    write_run_json(json_path, trajectory, extra={"results": results})
    print(", ".join(f"{k}={v}" for k, v in results.items()))
    return RunManifest(
        command="simulate", config=config.to_dict(),
        outputs=[csv_path, json_path], seed=config.graph.seed, results=results,
    )


def cmd_estimate(args) -> RunManifest:
    config = _simulation_config(args)
    trajectory = run_experiment(config)
    estimate = estimate_modulation(trajectory, t_min=args.t_min, t_max=args.t_max)
    mod_path = os.path.join(args.out, "modulation.csv")
    write_modulation_csv(mod_path, estimate)
    outputs = [mod_path]
    results = {
        "r_final": estimate.r_final, "r_min": estimate.r_min,
        "r_max": estimate.r_max, "psi_rate": estimate.psi_rate,
        "omega_tilde": estimate.omega_tilde,
    }
    try:
        fit = fit_twisted(trajectory.phases[-1], config.q)
        fit_path = os.path.join(args.out, "fit.json")
        write_fit_json(fit_path, fit)
        outputs.append(fit_path)
        results["final_residual_max"] = fit.residual_max
    except NoFitError as exc:
        results["final_fit_error"] = str(exc)
    print(f"r_final={estimate.r_final!r} psi_rate={estimate.psi_rate!r} "
          f"omega_tilde={estimate.omega_tilde!r}")
    return RunManifest(
        command="estimate", config=config.to_dict(), outputs=outputs,
        seed=config.graph.seed, results=results,
    )


def _sweep_worker(payload: dict) -> dict:
    config = SimulationConfig.from_dict(payload["config"])
    trajectory = run_experiment(config)
    write_trajectory_csv(payload["csv_path"], trajectory)
    dev = deviation_series(trajectory)
    threshold = payload["threshold"]
    escape_idx = np.nonzero(dev > threshold)[0]
    escaped = len(escape_idx) > 0
    _, _, r_final, _ = fourier_mode1(
        deviation_field(trajectory.phases[-1], config.q)
    )
    return {
        "value": payload["value"],
        "max_deviation": float(np.max(dev)),
        "final_deviation": float(dev[-1]),
        "final_r": float(r_final),
        "escaped": escaped,
        "escape_time": float(trajectory.times[escape_idx[0]]) if escaped else None,
    }


def cmd_sweep(args) -> RunManifest:
    base = _load_config(args.config, args.set or [])
    values = [_parse_value(tok) for tok in args.values.split(",") if tok.strip()]
    if not values:
        raise ConfigError("--values produced an empty list")
    payloads = []
    for i, value in enumerate(values):
        data = json.loads(json.dumps(base))
        _apply_override(data, f"{args.param}={json.dumps(value)}")
        try:
            SimulationConfig.from_dict(data)
        except (TypeError, ValueError, KeyError) as exc:
            raise ConfigError(f"bad config at {args.param}={value}: {exc}") from exc
        payloads.append({
            "config": data, "value": value,
            "csv_path": os.path.join(args.out, f"trajectory_{i:03d}.csv"),
            "threshold": args.escape_threshold,
        })
    jobs = args.jobs or min(len(payloads), os.cpu_count() or 1)
    if jobs <= 1:
        rows = [_sweep_worker(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_worker, payloads))
    summary_path = os.path.join(args.out, "sweep.csv")
    with open(summary_path, "w", newline="") as fh:
        fh.write("value,max_deviation,final_deviation,final_r,escaped,escape_time\n")
        for row in rows:
            esc_t = "" if row["escape_time"] is None else repr(row["escape_time"])
            fh.write(
                f"{row['value']},{row['max_deviation']!r},"
                f"{row['final_deviation']!r},{row['final_r']!r},"
                f"{int(row['escaped'])},{esc_t}\n"
            )
    for row in rows:
        print(f"{args.param}={row['value']}: max_dev={row['max_deviation']:.4f} "
              f"escaped={row['escaped']}")
    return RunManifest(
        command="sweep",
        config={"base": base, "param": args.param, "values": values,
                "escape_threshold": args.escape_threshold},
        outputs=[summary_path] + [p["csv_path"] for p in payloads],
        results={"n_runs": len(rows),
                 "n_escaped": sum(1 for r in rows if r["escaped"])},
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringtwist",
        description="Twisted states on ring-band graphs: constants, spectra, runs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_const = sub.add_parser("constants", help="normal-form constants tables")
    p_const.add_argument("--q-list", default="1,2,3,4")
    p_const.add_argument("--p", type=float, default=1.0)
    p_const.add_argument("--sigma", type=float, default=0.0)
    p_const.add_argument("--out", default="out_constants")
    p_const.set_defaults(func=cmd_constants)

    p_spec = sub.add_parser("spectrum", help="twisted-state eigenvalue report")
    p_spec.add_argument("--q", type=int, required=True)
    p_spec.add_argument("--kappa", type=float, required=True)
    p_spec.add_argument("--sigma", type=float, default=0.0)
    p_spec.add_argument("--p", type=float, default=1.0)
    p_spec.add_argument("--ell-max", type=int, default=64)
    p_spec.add_argument("--out", default="out_spectrum")
    p_spec.set_defaults(func=cmd_spectrum)

    p_beta = sub.add_parser("betasigma", help="frustration dependence of the cubic coefficient")
    p_beta.add_argument("--q", type=int, required=True)
    p_beta.add_argument("--p", type=float, default=1.0)
    p_beta.add_argument("--sigma-grid", default="0:1.5:31",
                        help="lo:hi:count linspace")
    p_beta.add_argument("--out", default="out_betasigma")
    p_beta.set_defaults(func=cmd_betasigma)

    p_graph = sub.add_parser("graph", help="build a coupling matrix from a graph spec")
    p_graph.add_argument("--config", required=True, help="GraphSpec JSON file")
    p_graph.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_graph.add_argument("--pixels", action="store_true", help="write pixels.csv")
    p_graph.add_argument("--binary", action="store_true", help="write adjacency.bin")
    p_graph.add_argument("--out", default="out_graph")
    p_graph.set_defaults(func=cmd_graph)

    p_sim = sub.add_parser("simulate", help="integrate one configured run")
    p_sim.add_argument("--config", required=True, help="SimulationConfig JSON file")
    p_sim.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_sim.add_argument("--out", default="out_simulate")
    p_sim.set_defaults(func=cmd_simulate)

    p_est = sub.add_parser("estimate", help="run and summarize the slow modulation")
    p_est.add_argument("--config", required=True, help="SimulationConfig JSON file")
    p_est.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_est.add_argument("--t-min", type=float, default=None)
    p_est.add_argument("--t-max", type=float, default=None)
    p_est.add_argument("--out", default="out_estimate")
    p_est.set_defaults(func=cmd_estimate)

    p_sweep = sub.add_parser("sweep", help="run a config over a parameter list")
    p_sweep.add_argument("--config", required=True, help="SimulationConfig JSON file")
    p_sweep.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_sweep.add_argument("--param", required=True, help="dotted key, e.g. graph.kappa")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--jobs", type=int, default=None)
    p_sweep.add_argument("--escape-threshold", type=float, default=0.5)
    p_sweep.add_argument("--out", default="out_sweep")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        os.makedirs(args.out, exist_ok=True)
        manifest = args.func(args)
        manifest.wall_time_s = time.perf_counter() - start
        manifest.write(args.out)
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
