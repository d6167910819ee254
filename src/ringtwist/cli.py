"""Command-line interface: constants tables, spectra, runs, sweeps.

Every successful invocation writes exactly one ``manifest.json`` into the
output directory recording the command, the effective configuration,
output paths, code version, and wall time.  Each ``cmd_*`` function takes
the parsed arguments and ``out``, which joins a file name onto ``--out``
and lists it as an output, and returns its configuration echo, seed and
results.  :func:`main` creates the output directory, times the command,
writes the manifest under the subcommand's name and maps errors to exit
codes: 0 success, 2 for configuration problems (bad files, bad values,
bad paths, sizes that cannot be allocated: any ValueError, OSError or
MemoryError), 3 for numeric failures (integration breakdown, ill-posed
fits, missing roots).  A sweep writes every run's row, with its status and
error; if any run failed at integration it still writes the manifest, which
lists only the files written and counts the failed runs, and exits 3.

Run configurations are JSON files; any entry can be overridden on the
command line with ``--set dotted.key=value`` (values parsed as JSON,
falling back to plain strings).
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from ._boundary import check_int, check_real, write_csv, write_json
from .analysis import (
    NoFitError,
    _deviation_record,
    _window,
    estimate_modulation,
    fit_twisted,
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
    _sample_array,
    run_experiment,
    write_run_json,
    write_trajectory_csv,
)
from .graphs import (
    GraphSpec,
    build_coupling,
    empirical_band_density,
    write_adjacency_binary,
    write_pixel_csv,
)
from .spectrum import (
    DEFAULT_ELL_MAX,
    BracketError,
    ModeParams,
    _window_integrals,
    eigenvalues,
    write_spectrum_csv,
)

__all__ = ["main", "RunManifest"]

_NUMERIC_ERRORS = (IntegrationError, NoFitError, NoRootError, BracketError)


class FailedRuns(IntegrationError):
    """Some runs of a command failed at integration (exit code 3).

    ``report`` is the command's (config, seed, results) for the runs that
    finished, and ``unwritten`` the named outputs the failed runs never wrote.
    """

    def __init__(self, message: str, report: tuple, unwritten: list[str]) -> None:
        super().__init__(message)
        self.report, self.unwritten = report, unwritten


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
        write_json(path, asdict(self))
        return path


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _apply_override(data: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ValueError(f"override {assignment!r} is not of form key=value")
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
        raise ValueError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    for assignment in overrides:
        _apply_override(data, assignment)
    return data


def _parse_int_list(raw: str) -> list[int]:
    try:
        values = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"expected comma-separated integers, got {raw!r}") from exc
    if not values:
        raise ValueError(f"expected comma-separated integers, got {raw!r}")
    return values


def _parse_config(parse, data: dict, what: str):
    """parse(data); a missing, unknown or invalid entry is ValueError("bad <what>: ...")."""
    try:
        return parse(data)
    except (TypeError, ValueError, KeyError) as exc:
        raise ValueError(f"bad {what}: {exc}") from exc


def _simulation_config(args) -> SimulationConfig:
    return _parse_config(SimulationConfig.from_dict,
                         _load_config(args.config, args.set), "simulation config")


def cmd_constants(args, out):
    q_list = _parse_int_list(args.q_list)
    rows = constants_rows(q_list, args.p, args.sigma)
    write_constants_csv(out("constants.csv"), rows)
    write_zeta_csv(out("zeta.csv"))
    for row in rows:
        print(
            f"q={row['q']} kappa_crit={row['kappa_crit']:.6f} "
            f"beta0={row['beta0']:.6f} beta_sigma={row['beta_sigma']:.6f}"
        )
    return {"q_list": q_list, "p": args.p, "sigma": args.sigma}, None, {}


def cmd_spectrum(args, out):
    params = ModeParams(q=args.q, kappa=args.kappa, sigma=args.sigma, p=args.p)
    report = eigenvalues(params, ell_max=args.ell_max)
    write_spectrum_csv(out("spectrum.csv"), report)
    print(f"verdict={report.verdict} max_real_part={report.max_real_part!r} "
          f"critical_mode={report.critical_mode}")
    return ({"q": args.q, "kappa": args.kappa, "sigma": args.sigma, "p": args.p,
             "ell_max": args.ell_max}, None,
            {"verdict": report.verdict, "max_real_part": report.max_real_part,
             "critical_mode": report.critical_mode})


def cmd_betasigma(args, out):
    try:
        lo, hi, count = args.sigma_grid.split(":")
        grid = np.linspace(float(lo), float(hi), int(count))
        check_int("count", grid.size, 1)
    except ValueError as exc:
        raise ValueError(f"--sigma-grid must be lo:hi:count with an integer count "
                         f">= 1, got {args.sigma_grid!r}") from exc
    write_beta_sigma_csv(out(f"beta_sigma_q{args.q}.csv"), args.q, args.p, grid)
    return {"q": args.q, "p": args.p, "sigma_grid": args.sigma_grid}, None, {}


def cmd_graph(args, out):
    """Build one graph, write the files asked for and report its facts; symbol_distance
    is max |symbol - continuum window integral| at kappa_eff over the modes a spectrum
    report lists, 0..DEFAULT_ELL_MAX, capped at the ring's Nyquist mode n // 2.

    The gap at mode j, sin(2*pi*j*kappa_eff)*(1/(n*sin(pi*j/n)) - 1/(pi*j)), peaks near
    (pi/6)*j/n^2, so the highest mode read sets the figure, and weighted by 1/j it is
    still not the graph's: n^2*max_j |gap_j|/j reads 0.50-0.56 over modes <= 64 and
    2*(1 - 2/pi) over all.  Per-mode gaps tell which modes a run can trust."""
    data = _load_config(args.config, args.set)
    spec = _parse_config(lambda d: GraphSpec(**d), data, "graph config")
    coupling = build_coupling(spec)
    if args.pixels:
        write_pixel_csv(out("pixels.csv"), coupling)
    if args.binary:
        write_adjacency_binary(out("adjacency.bin"), coupling)
    density = empirical_band_density(coupling)
    modes = np.arange(min(DEFAULT_ELL_MAX, spec.n // 2) + 1)
    distance = float(np.max(np.abs(
        spec.symbol(modes) - _window_integrals(spec.kappa_eff, modes, 0)[0])))
    print(f"halfwidth={spec.halfwidth} nnz={coupling.nnz} "
          f"density={density:.6f} (target {spec.edge_probability:.6f})")
    return asdict(spec), spec.seed, {
        "halfwidth": spec.halfwidth, "nnz": coupling.nnz,
        "edge_probability": spec.edge_probability,
        "empirical_band_density": density, "kappa_eff": spec.kappa_eff,
        "symbol_distance": distance,
        "stored": coupling.stored, "stored_nnz": coupling.stored_nnz}


def _final_fit(trajectory, q: int, results: dict):
    """fit_twisted on the last sample, its residual_max (or why no fit) in results."""
    try:
        fit = fit_twisted(trajectory.phases[-1], q)
    except NoFitError as exc:
        results["final_fit_error"] = str(exc)
        return None
    results["final_residual_max"] = fit.residual_max
    return fit


def cmd_simulate(args, out):
    config = _simulation_config(args)
    trajectory = run_experiment(config)
    write_trajectory_csv(out("trajectory.csv"), trajectory)
    results = {"omega": trajectory.omega, "t_final": float(trajectory.times[-1]),
               "nfev": trajectory.nfev, "steps": trajectory.steps}
    fit = _final_fit(trajectory, config.q, results)
    if fit is not None:
        results["final_residual_l2"] = fit.residual_l2
    write_run_json(out("run.json"), trajectory, extra={"results": results})
    print(", ".join(f"{k}={v}" for k, v in results.items()))
    return config.to_dict(), config.graph.seed, results


def cmd_estimate(args, out):
    config = _simulation_config(args)
    # the library's window rule, on the grid of a run that fits in memory
    grid, _ = _sample_array(config.graph.n, config.t_end, config.sample_dt)
    _window(grid, args.t_min, args.t_max)
    trajectory = run_experiment(config)
    estimate = estimate_modulation(trajectory, t_min=args.t_min, t_max=args.t_max)
    write_modulation_csv(out("modulation.csv"), estimate)
    results = {
        "r_final": estimate.r_final, "r_min": estimate.r_min,
        "r_max": estimate.r_max, "psi_rate": estimate.psi_rate,
        "omega_tilde": estimate.omega_tilde,
        "nfev": trajectory.nfev, "steps": trajectory.steps,
    }
    fit = _final_fit(trajectory, config.q, results)
    if fit is not None:
        write_fit_json(out("fit.json"), fit)
    print(f"r_final={estimate.r_final!r} psi_rate={estimate.psi_rate!r} "
          f"omega_tilde={estimate.omega_tilde!r}")
    return config.to_dict(), config.graph.seed, results


_SWEEP_COLUMNS = ["value", "status", "error", "max_deviation", "final_deviation",
                  "final_r", "escaped", "escape_time"]


def _sweep_worker(payload: dict) -> dict:
    try:
        trajectory = run_experiment(payload["config"])
    except IntegrationError as exc:
        # the run keeps its row, so one bad value costs the sweep that run alone
        return {"value": payload["value"], "status": "failed", "error": str(exc)}
    write_trajectory_csv(payload["csv_path"], trajectory)
    _, dev, c, s = _deviation_record(trajectory)
    escape_idx = np.nonzero(dev > payload["threshold"])[0]
    escaped = len(escape_idx) > 0
    return {
        "value": payload["value"],
        "status": "ok",
        "max_deviation": float(np.max(dev)),
        "final_deviation": float(dev[-1]),
        "final_r": float(2.0 * np.hypot(c[-1], s[-1])),
        "escaped": int(escaped),
        "escape_time": float(trajectory.times[escape_idx[0]]) if escaped else None,
    }


def cmd_sweep(args, out):
    if args.jobs is not None:
        check_int("--jobs", args.jobs, 1)
    check_real("--escape-threshold", args.escape_threshold, 0.0)
    base = _load_config(args.config, args.set)
    values = [_parse_value(tok) for tok in args.values.split(",") if tok.strip()]
    if not values:
        raise ValueError("--values produced an empty list")
    summary_path = out("sweep.csv")
    payloads = []
    for i, value in enumerate(values):
        # every run starts from the one read the manifest records as base
        data = copy.deepcopy(base)
        _apply_override(data, f"{args.param}={json.dumps(value)}")
        config = _parse_config(SimulationConfig.from_dict, data,
                               f"config at {args.param}={value}")
        # refuse a grid no run could hold before any run writes a file
        _sample_array(config.graph.n, config.t_end, config.sample_dt)
        payloads.append({"config": config, "value": value,
                         "csv_path": out(f"trajectory_{i:03d}.csv"),
                         "threshold": args.escape_threshold})
    # the executor starts every worker it is asked for, so no more than runs
    jobs = min(args.jobs or os.cpu_count() or 1, len(payloads))
    if jobs <= 1:
        rows = [_sweep_worker(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_worker, payloads))
    write_csv(summary_path, _SWEEP_COLUMNS,
              [[row.get(column) for column in _SWEEP_COLUMNS] for row in rows])
    for row in rows:
        print(f"{args.param}={row['value']}: " + (
            f"failed: {row['error']}" if row["status"] == "failed" else
            f"max_dev={row['max_deviation']:.4f} escaped={bool(row['escaped'])}"))
    failed = [i for i, row in enumerate(rows) if row["status"] == "failed"]
    report = ({"base": base, "param": args.param, "values": values,
               "escape_threshold": args.escape_threshold}, None,
              {"n_runs": len(rows), "n_escaped": sum(1 for r in rows if r.get("escaped")),
               "n_failed": len(failed)})
    if failed:
        first = rows[failed[0]]
        raise FailedRuns(
            f"{len(failed)} of {len(rows)} sweep runs failed, each one marked in "
            f"sweep.csv; first {args.param}={first['value']}: {first['error']}",
            report, [payloads[i]["csv_path"] for i in failed])
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringtwist",
        description="Twisted states on ring-band graphs: constants, spectra, runs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *arguments, config=None):
        # config names the JSON file a config command reads, with --set
        # overrides; --out follows the command's own arguments in its help
        cmd = sub.add_parser(name, help=summary)
        cmd.set_defaults(func=func)
        if config is not None:
            cmd.add_argument("--config", required=True, help=f"{config} JSON file")
            cmd.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
        for flag, options in arguments:
            cmd.add_argument(flag, **options)
        cmd.add_argument("--out", default=f"out_{name}")

    command("constants", cmd_constants, "normal-form constants tables",
            ("--q-list", dict(default="1,2,3,4")),
            ("--p", dict(type=float, default=1.0)),
            ("--sigma", dict(type=float, default=0.0)))
    command("spectrum", cmd_spectrum, "twisted-state eigenvalue report",
            ("--q", dict(type=int, required=True)),
            ("--kappa", dict(type=float, required=True)),
            ("--sigma", dict(type=float, default=0.0)),
            ("--p", dict(type=float, default=1.0)),
            ("--ell-max", dict(type=int, default=DEFAULT_ELL_MAX)))
    command("betasigma", cmd_betasigma, "frustration dependence of the cubic coefficient",
            ("--q", dict(type=int, required=True)),
            ("--p", dict(type=float, default=1.0)),
            ("--sigma-grid", dict(default="0:1.5:31", help="lo:hi:count linspace; a negative "
                                  "lo takes the = form, --sigma-grid=-1.5:1.5:61")))
    command("graph", cmd_graph, "build a coupling matrix from a graph spec",
            ("--pixels", dict(action="store_true", help="write pixels.csv")),
            ("--binary", dict(action="store_true", help="write adjacency.bin")),
            config="GraphSpec")
    command("simulate", cmd_simulate, "integrate one configured run",
            config="SimulationConfig")
    command("estimate", cmd_estimate, "run and summarize the slow modulation",
            ("--t-min", dict(type=float, default=None)),
            ("--t-max", dict(type=float, default=None)),
            config="SimulationConfig")
    command("sweep", cmd_sweep, "run a config over a parameter list",
            ("--param", dict(required=True, help="dotted key, e.g. graph.kappa")),
            ("--values", dict(required=True, help="comma-separated values")),
            ("--jobs", dict(type=int, default=None)),
            ("--escape-threshold", dict(type=float, default=0.5)),
            config="SimulationConfig")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    outputs = []

    def out(name: str) -> str:
        outputs.append(os.path.join(args.out, name))
        return outputs[-1]

    try:
        os.makedirs(args.out, exist_ok=True)
        try:
            failure, report = None, args.func(args, out)
        except FailedRuns as exc:
            failure, report = exc, exc.report
            outputs = [path for path in outputs if path not in exc.unwritten]
        config, seed, results = report
        RunManifest(command=args.command, config=config, outputs=outputs, seed=seed,
                    wall_time_s=time.perf_counter() - start,
                    results=results).write(args.out)
        if failure is not None:
            raise failure
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:
        print(f"configuration error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
