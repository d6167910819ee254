"""End-to-end command-line interface tests, in-process apart from the exit codes."""

import csv
import json
import os
import subprocess
import sys
from math import inf, nan
from pathlib import Path

import numpy as np
import pytest

from _oracles import graph_file_bytes, sample_adjacency_one_shot
from ringtwist import cli, dynamics
from ringtwist.analysis import NoFitError, estimate_modulation
from ringtwist.bifurcation import NoRootError
from ringtwist.cli import main
from ringtwist.dynamics import SimulationConfig, run_experiment
from ringtwist.graphs import GraphSpec, build_coupling


@pytest.fixture()
def sim_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "graph": {"n": 60, "p": 1.0, "kappa": 0.31,
                  "kind": "deterministic_dense", "gamma": None, "seed": None},
        "q": 1, "sigma": 0.0, "omega": None, "t_end": 5.0,
        "rel_tol": 1e-8, "abs_tol": 1e-8, "sample_dt": 1.0,
        "perturbation_amplitude": 0.01, "ic_seed": 1,
        "ic_mode1_amplitude": 0.0, "ic_mode1_phase": 0.0,
    }))
    return path


@pytest.fixture()
def graph_config(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({
        "n": 40, "p": 0.5, "kappa": 0.31, "kind": "random_dense", "seed": 3,
    }))
    return path


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


def run_cli(argv, stdin=None):
    """python -W error -m ringtwist.cli in a child process, on this checkout's src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-W", "error", "-m", "ringtwist.cli", *argv],
                          input=stdin, capture_output=True, text=True, env=env, timeout=120)


class TestConstants:
    def test_writes_tables_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["constants", "--q-list", "1,2", "--out", str(out)]) == 0
        with open(out / "constants.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["q"]) for r in rows] == [1, 2]
        assert float(rows[0]["kappa_crit"]) == pytest.approx(0.340461, abs=1e-6)
        with open(out / "zeta.csv", newline="") as fh:
            zeta = {r["name"]: float(r["value"]) for r in csv.DictReader(fh)}
        assert zeta["zeta0"] == pytest.approx(2.139182, abs=1e-6)
        manifest = read_manifest(out)
        assert manifest["command"] == "constants"
        assert len(manifest["outputs"]) == 2
        assert manifest["wall_time_s"] >= 0.0
        assert "q=1" in capsys.readouterr().out

    def test_bad_q_list(self, tmp_path):
        assert main(["constants", "--q-list", "1,x", "--out",
                     str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("q_list", ["", ",", " , "])
    def test_empty_q_list(self, tmp_path, q_list):
        out = tmp_path / "o"
        assert main(["constants", "--q-list", q_list, "--out", str(out)]) == 2
        assert not (out / "constants.csv").exists()


class TestSpectrum:
    def test_stable_and_unstable_verdicts(self, tmp_path, capsys):
        out_s = tmp_path / "s"
        assert main(["spectrum", "--q", "1", "--kappa", "0.31",
                     "--out", str(out_s)]) == 0
        assert "verdict=linearly_stable" in capsys.readouterr().out
        assert read_manifest(out_s)["results"]["verdict"] == "linearly_stable"

        out_u = tmp_path / "u"
        assert main(["spectrum", "--q", "1", "--kappa", "0.36",
                     "--out", str(out_u)]) == 0
        manifest = read_manifest(out_u)
        assert manifest["results"]["verdict"] == "unstable"
        assert manifest["results"]["critical_mode"] == 1
        with open(out_u / "spectrum.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) - 1 == 1 + 2 * 64

    def test_invalid_kappa_is_config_error(self, tmp_path, capsys):
        assert main(["spectrum", "--q", "1", "--kappa", "0.6",
                     "--out", str(tmp_path / "o")]) == 2
        assert "configuration error" in capsys.readouterr().err


class TestBetaSigma:
    def test_writes_grid(self, tmp_path):
        out = tmp_path / "out"
        assert main(["betasigma", "--q", "2", "--sigma-grid", "0:1:5",
                     "--out", str(out)]) == 0
        with open(out / "beta_sigma_q2.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        assert float(rows[0]["sigma"]) == 0.0

    def test_bad_grid(self, tmp_path):
        assert main(["betasigma", "--q", "2", "--sigma-grid", "abc",
                     "--out", str(tmp_path / "o")]) == 2


class TestGraph:
    def test_outputs_and_results(self, tmp_path, graph_config):
        out = tmp_path / "out"
        assert main(["graph", "--config", str(graph_config), "--pixels",
                     "--binary", "--out", str(out)]) == 0
        manifest = read_manifest(out)
        assert manifest["command"] == "graph"
        assert manifest["seed"] == 3
        assert manifest["results"]["halfwidth"] == 12
        assert 0.0 < manifest["results"]["empirical_band_density"] < 1.0
        spec = GraphSpec(**json.loads(graph_config.read_text()))
        binary, pixels = graph_file_bytes(sample_adjacency_one_shot(40, 12, 0.5, 3), spec)
        assert (out / "adjacency.bin").read_bytes() == binary
        assert (out / "pixels.csv").read_bytes() == pixels
        coupling = build_coupling(spec)
        assert manifest["results"]["nnz"] == coupling.nnz
        assert manifest["results"]["stored"] == coupling.stored
        assert manifest["results"]["stored_nnz"] == coupling.stored_nnz
        # the realized window and the gap between its ring symbol and the
        # continuum window integral, as cosine sums over the offsets |d| <= 12
        # against sin(2*pi*j*kappa_eff)/(pi*j), over modes 0..n/2
        assert manifest["results"]["kappa_eff"] == 12.5 / 40
        d, j = np.arange(-12, 13), np.arange(1, 21)
        ring = np.cos(2 * np.pi * np.outer(j, d) / 40).sum(1) / 40
        gaps = [0.0, *np.abs(ring - np.sin(2 * np.pi * j * 12.5 / 40) / (np.pi * j))]
        assert manifest["results"]["symbol_distance"] == pytest.approx(max(gaps), abs=1e-15)
        # and no step-kernel error beside them: these keys and no others
        assert set(manifest["results"]) == {
            "halfwidth", "nnz", "edge_probability", "empirical_band_density",
            "kappa_eff", "symbol_distance", "stored", "stored_nnz"}

    @pytest.mark.parametrize("p, stored", [(0.3, "edges"), (0.9, "holes"), (1.0, "holes")])
    def test_stored_side_in_results(self, tmp_path, graph_config, p, stored):
        out = tmp_path / "out"
        assert main(["graph", "--config", str(graph_config), "--set", f"p={p}",
                     "--out", str(out)]) == 0
        results = read_manifest(out)["results"]
        assert results["stored"] == stored
        band = 40 * (2 * results["halfwidth"] + 1)
        assert results["stored_nnz"] == (results["nnz"] if stored == "edges"
                                         else band - results["nnz"])

    @pytest.mark.parametrize("n", [1000, 2000, 4000, 8000])
    def test_the_band_symbol_meets_the_continuum_at_rate_n_to_the_minus_2(
            self, tmp_path, graph_config, n):
        # the ring's symbol is the window integral at kappa_eff up to
        # O((j/n)^2); n^2 times the distance read 32.03-32.61 at kappa = 0.31
        out = tmp_path / "out"
        assert main(["graph", "--config", str(graph_config), "--set", f"n={n}",
                     "--set", "kind=deterministic_dense", "--out", str(out)]) == 0
        assert 31.9 <= n * n * read_manifest(out)["results"]["symbol_distance"] <= 32.7

    def test_a_one_node_ring_has_the_continuum_symbol(self, tmp_path, graph_config):
        out = tmp_path / "out"
        assert main(["graph", "--config", str(graph_config), "--set", "n=1",
                     "--set", "kind=deterministic_dense", "--out", str(out)]) == 0
        assert read_manifest(out)["results"]["symbol_distance"] == 0.0

    def test_band_stores_nothing(self, tmp_path, graph_config):
        out = tmp_path / "out"
        assert main(["graph", "--config", str(graph_config),
                     "--set", "kind=deterministic_dense", "--out", str(out)]) == 0
        results = read_manifest(out)["results"]
        assert (results["stored"], results["stored_nnz"]) == ("band", 0)

    def test_manifest_records_the_realized_spec(self, tmp_path, graph_config):
        # a gamma off random_sparse is checked, then dropped, so the manifest
        # does not record it as if it had been used
        out = tmp_path / "out"
        assert main(["graph", "--config", str(graph_config), "--set", "gamma=0.3",
                     "--out", str(out)]) == 0
        assert read_manifest(out)["config"] == {
            "n": 40, "p": 0.5, "kappa": 0.31, "kind": "random_dense", "gamma": None,
            "seed": 3}

    def test_set_override(self, tmp_path, graph_config):
        out = tmp_path / "out"
        assert main(["graph", "--config", str(graph_config),
                     "--set", "kappa=0.2", "--out", str(out)]) == 0
        manifest = read_manifest(out)
        assert manifest["config"]["kappa"] == 0.2
        assert manifest["results"]["halfwidth"] == 8

    def test_invalid_spec(self, tmp_path, graph_config):
        assert main(["graph", "--config", str(graph_config),
                     "--set", "kappa=0.7", "--out", str(tmp_path / "o")]) == 2

    def test_negative_seed_is_config_error(self, tmp_path, graph_config, capsys):
        # a seed outside [0, 2**64) cannot be stored in adjacency.bin
        out = tmp_path / "o"
        assert main(["graph", "--config", str(graph_config),
                     "--set", "kind=deterministic_dense", "--set", "seed=-1",
                     "--binary", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "seed" in err
        assert err.count("\n") == 1
        assert not (out / "adjacency.bin").exists()


class TestSimulate:
    def test_run_outputs(self, tmp_path, sim_config):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(sim_config),
                     "--out", str(out)]) == 0
        manifest = read_manifest(out)
        assert manifest["command"] == "simulate"
        assert manifest["results"]["t_final"] == 5.0
        assert manifest["results"]["final_residual_max"] < 0.05
        run = json.loads((out / "run.json").read_text())
        assert run["config"]["q"] == 1
        # the solver record: right-hand-side evaluations and accepted steps
        for key in ("nfev", "steps"):
            assert run["results"][key] == manifest["results"][key] > 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 2 + 6  # comment, header, six samples

    def test_set_override_reaches_config(self, tmp_path, sim_config):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(sim_config),
                     "--set", "q=2", "--set", "t_end=3.0",
                     "--out", str(out)]) == 0
        manifest = read_manifest(out)
        assert manifest["config"]["q"] == 2
        assert manifest["results"]["t_final"] == 3.0

    def test_missing_config(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_bad_ic_seed_is_named_before_any_work(self, tmp_path, sim_config, capsys):
        assert main(["simulate", "--config", str(sim_config), "--set", "ic_seed=-1",
                     "--out", str(tmp_path / "o")]) == 2
        assert "ic_seed must be None or an integer" in capsys.readouterr().err

    def test_invalid_override_value(self, tmp_path, sim_config):
        assert main(["simulate", "--config", str(sim_config),
                     "--set", "graph.kappa=0.7",
                     "--out", str(tmp_path / "o")]) == 2


class TestEstimate:
    def test_modulation_outputs(self, tmp_path, sim_config):
        out = tmp_path / "out"
        assert main(["estimate", "--config", str(sim_config),
                     "--set", "ic_mode1_amplitude=0.1", "--set", "t_end=10.0",
                     "--out", str(out)]) == 0
        manifest = read_manifest(out)
        assert set(manifest["results"]) >= {"r_final", "r_min", "r_max",
                                            "psi_rate", "omega_tilde"}
        assert manifest["results"]["nfev"] > manifest["results"]["steps"] > 0
        with open(out / "modulation.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 11
        assert (out / "fit.json").exists()

    def test_empty_window_is_numeric_failure(self, tmp_path, sim_config, capsys):
        # the window lies inside [0, t_end] but holds no sample
        assert main(["estimate", "--config", str(sim_config),
                     "--t-min", "2.2", "--t-max", "2.8",
                     "--out", str(tmp_path / "o")]) == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_sampleless_window_fails_before_the_run(self, tmp_path, sim_config,
                                                    monkeypatch):
        def no_run(config):
            raise AssertionError("run_experiment was called")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        assert main(["estimate", "--config", str(sim_config),
                     "--t-min", "2.2", "--t-max", "2.8",
                     "--out", str(tmp_path / "o")]) == 3
        assert main(["estimate", "--config", str(sim_config),
                     "--t-min", "4.5", "--out", str(tmp_path / "o")]) == 3
        # a sample 1e-13 outside the window counts, as in estimate_modulation
        with pytest.raises(AssertionError, match="run_experiment was called"):
            main(["estimate", "--config", str(sim_config),
                  "--t-min", "4.0000000000001", "--out", str(tmp_path / "o")])


class TestSweep:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_parameter_sweep(self, tmp_path, sim_config, jobs):
        out = tmp_path / f"out{jobs}"
        assert main(["sweep", "--config", str(sim_config),
                     "--param", "graph.kappa", "--values", "0.2,0.31",
                     "--jobs", jobs, "--out", str(out)]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["value"]) for r in rows] == [0.2, 0.31]
        assert all(float(r["max_deviation"]) < 0.5 for r in rows)
        assert all(r["escaped"] == "0" for r in rows)
        assert (out / "trajectory_000.csv").exists()
        assert (out / "trajectory_001.csv").exists()
        manifest = read_manifest(out)
        assert manifest["results"] == {"n_runs": 2, "n_escaped": 0, "n_failed": 0}

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_run_failing_at_integration_keeps_the_finished_runs(
            self, tmp_path, sim_config, capsys, jobs):
        # omega = 1e308 overflows the solver's first step; the runs around it
        # finish, every run keeps its row with its status and error, and the
        # manifest lists the files written and counts the failed run
        out = tmp_path / f"out{jobs}"
        assert main(["sweep", "--config", str(sim_config), "--param", "omega",
                     "--values", "0.1,1e308,0.5", "--jobs", jobs, "--out", str(out)]) == 3
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["value"]) for r in rows] == [0.1, 1e308, 0.5]
        assert [r["status"] for r in rows] == ["ok", "failed", "ok"]
        assert rows[1]["error"].startswith("integrator stopped at t=0 of 5: ")
        assert [rows[1][key] for key in ("max_deviation", "escaped", "escape_time")] \
            == ["", "", ""]
        assert all(r["error"] == "" and float(r["max_deviation"]) < 0.5
                   for r in (rows[0], rows[2]))
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "sweep.csv", "trajectory_000.csv", "trajectory_002.csv"]
        manifest = read_manifest(out)
        assert manifest["command"] == "sweep"
        assert manifest["outputs"] == [str(out / name) for name in (
            "sweep.csv", "trajectory_000.csv", "trajectory_002.csv")]
        assert manifest["results"] == {"n_runs": 3, "n_escaped": 0, "n_failed": 1}
        assert manifest["config"]["values"] == [0.1, 1e308, 0.5]
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: 1 of 3 sweep runs failed, ")
        assert "first omega=1e+308: integrator stopped" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_sweep_whose_every_run_fails_keeps_its_table_and_manifest(
            self, tmp_path, sim_config, capsys, jobs):
        # no trajectory is written, so the manifest lists the table alone
        out = tmp_path / f"out{jobs}"
        assert main(["sweep", "--config", str(sim_config), "--param", "omega",
                     "--values", "1e308,-1e308", "--jobs", jobs, "--out", str(out)]) == 3
        with open(out / "sweep.csv", newline="") as fh:
            assert [r["status"] for r in csv.DictReader(fh)] == ["failed", "failed"]
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "sweep.csv"]
        manifest = read_manifest(out)
        assert manifest["outputs"] == [str(out / "sweep.csv")]
        assert manifest["results"] == {"n_runs": 2, "n_escaped": 0, "n_failed": 2}
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: 2 of 2 sweep runs failed, ")
        assert "first omega=1e+308: integrator stopped" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("jobs, values, workers", [
        ("64", "0.2,0.31", 2), ("2", "0.2,0.25,0.31", 2)])
    def test_no_more_workers_than_runs(self, tmp_path, sim_config, monkeypatch,
                                       jobs, values, workers):
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        assert main(["sweep", "--config", str(sim_config), "--param", "graph.kappa",
                     "--values", values, "--jobs", jobs,
                     "--out", str(tmp_path / "o")]) == 0
        assert asked == [workers]

    @pytest.mark.parametrize("param, values", [
        ("sample_dt", "1,1e-310"), ("t_end", "5,1e15")])
    def test_a_later_unallocatable_grid_refuses_the_whole_sweep(
            self, tmp_path, sim_config, param, values):
        # every grid is tried before the first run writes its trajectory
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(sim_config), "--param", param,
                     "--values", values, "--jobs", "1", "--out", str(out)]) == 2
        assert list(out.glob("trajectory_*.csv")) == []
        assert not (out / "sweep.csv").exists()

    def test_one_config_sweeps_all_three_kinds(self, tmp_path, sim_config):
        # a config holding both seed and gamma runs every kind: a field a kind
        # ignores is dropped, not refused
        out = tmp_path / "o"
        kinds = ["deterministic_dense", "random_dense", "random_sparse"]
        assert main(["sweep", "--config", str(sim_config), "--set", "graph.seed=3",
                     "--set", "graph.gamma=0.3", "--param", "graph.kind",
                     "--values", ",".join(kinds), "--jobs", "1", "--out", str(out)]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["value"], r["status"]) for r in rows] == [(k, "ok") for k in kinds]

    def test_a_config_on_stdin_is_read_once(self, tmp_path, sim_config):
        # a stream can be read only once: every run starts from that read
        out = tmp_path / "o"
        done = run_cli(["sweep", "--config", "/dev/stdin", "--param", "graph.kappa",
                        "--values", "0.3,0.31", "--jobs", "1", "--out", str(out)],
                       stdin=sim_config.read_text())
        assert done.returncode == 0, done.stderr
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["value"], r["status"]) for r in rows] == [("0.3", "ok"), ("0.31", "ok")]
        assert read_manifest(out)["config"]["base"] == json.loads(sim_config.read_text())

    def test_unknown_parameter(self, tmp_path, sim_config):
        assert main(["sweep", "--config", str(sim_config),
                     "--param", "graph.bogus", "--values", "1",
                     "--out", str(tmp_path / "o")]) == 2

    def test_empty_values(self, tmp_path, sim_config):
        assert main(["sweep", "--config", str(sim_config),
                     "--param", "graph.kappa", "--values", ",",
                     "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("argv, code, stderr", [
    (["constants", "--q-list", "1"], 0, ""),
    (["spectrum", "--q", "1", "--kappa", "0.7"], 2, "configuration error: "),
    (["simulate", "--config", "{sim_config}", "--set", "omega=1e308"], 3,
     "numeric failure: integrator stopped at t=0 of 5: "),
])
def test_exit_codes_reach_the_process(tmp_path, sim_config, argv, code, stderr):
    # sys.exit carries main's code, and no warning escapes on the way to it
    argv = [arg.format(sim_config=sim_config) for arg in argv]
    done = run_cli([*argv, "--out", str(tmp_path / argv[0])])
    assert done.returncode == code, done.stderr
    assert done.stderr.startswith(stderr) and done.stderr.count("\n") == (code > 0)


def test_version_flag():
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


# each of the seven commands with the arguments it requires
REQUIRED = {
    "constants": [], "spectrum": ["--q", "1", "--kappa", "0.2"],
    "betasigma": ["--q", "1"], "graph": ["--config", "g.json"],
    "simulate": ["--config", "r.json"], "estimate": ["--config", "r.json"],
    "sweep": ["--config", "r.json", "--param", "q", "--values", "1"],
}


@pytest.mark.parametrize("command", sorted(REQUIRED))
def test_out_defaults_to_the_command_name(command):
    assert cli.build_parser().parse_args([command, *REQUIRED[command]]).out \
        == f"out_{command}"


@pytest.mark.parametrize("command", ["graph", "simulate", "estimate", "sweep"])
def test_set_defaults_to_no_overrides(command):
    parser = cli.build_parser()
    given = parser.parse_args([command, *REQUIRED[command],
                               "--set", "q=2", "--set", "a=1"])
    assert given.set == ["q=2", "a=1"]
    # the appends went to a copy: the default list stays empty
    assert parser.parse_args([command, *REQUIRED[command]]).set == []


@pytest.mark.parametrize("argv", [
    ["constants", "--q-list", "9"],
    ["constants", "--p", "2"],
    ["spectrum", "--q", "1", "--kappa", "0.3", "--ell-max", "0"],
    ["betasigma", "--q", "2", "--sigma-grid", "0:2:5"],
    ["betasigma", "--q", "2", "--sigma-grid", "0:1:2.7"],
    ["betasigma", "--q", "2", "--sigma-grid", "0:1:0"],
    ["simulate", "--set", "ic_seed=1.5"],
    ["simulate", "--set", 'ic_seed="7"'],
    ["simulate", "--set", "ic_seed=true"],
    ["simulate", "--set", "ic_seed=-1"],
    ["simulate", "--set", "graph.n=true"],
    # the fixture run ends at t_end = 5
    ["estimate", "--t-min", "4", "--t-max", "2"],
    ["estimate", "--t-min", "nan"],
    ["estimate", "--t-max", "inf"],
    ["estimate", "--t-min", "50", "--t-max", "60"],
    ["estimate", "--t-min", "-3", "--t-max", "-1"],
    ["sweep", "--param", "q", "--values", "1", "--jobs", "-3"],
    ["sweep", "--param", "q", "--values", "1", "--jobs", "0"],
    ["sweep", "--param", "q", "--values", "1", "--escape-threshold", "nan"],
    ["sweep", "--param", "q", "--values", "1", "--escape-threshold", "-0.1"],
    # a bool once ran as 1 or 0, a string or list died with a traceback
    ["simulate", "--set", "sigma=true"],
    ["simulate", "--set", 'sigma="0.5"'],
    ["simulate", "--set", "omega=[1]"],
    ["simulate", "--set", 'ic_mode1_amplitude="0.1"'],
    ["simulate", "--set", "graph.p=true"],
    ["simulate", "--set", "rel_tol=true"],
    ["simulate", "--set", "abs_tol=false"],
    ["simulate", "--set", 't_end="5"'],
    # DOP853 ran such a run at 2.22e-14 with only a warning, and the
    # manifest recorded 1e-20
    ["simulate", "--set", "rel_tol=1e-20"],
], ids=["q-list", "p", "ell-max", "sigma-grid", "sigma-grid-fractional-count",
        "sigma-grid-zero-count", "ic-seed-float", "ic-seed-text", "ic-seed-bool",
        "ic-seed-negative", "graph-n-bool", "window-reversed", "window-nan",
        "window-infinite", "window-after-run", "window-before-run", "jobs-negative",
        "jobs-zero", "escape-threshold-nan", "escape-threshold-negative",
        "sigma-bool", "sigma-text", "omega-list", "ic-mode1-amplitude-text",
        "graph-p-bool", "rel-tol-bool", "abs-tol-bool", "t-end-text",
        "rel-tol-below-the-solver-floor"])
def test_library_range_errors_are_config_errors(argv, tmp_path, capsys, sim_config):
    out = tmp_path / "o"
    if argv[0] in ("simulate", "estimate", "sweep"):
        argv = argv[:1] + ["--config", str(sim_config)] + argv[1:]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1  # one line, no traceback
    assert list(out.iterdir()) == []  # no partial output, no manifest
    if "--set" in argv:  # the message names the overridden field
        field = argv[argv.index("--set") + 1].split("=")[0].split(".")[-1]
        assert f"{field} must be" in err


@pytest.mark.parametrize("override, contents, named", [
    ("n", None, "not of form key=value"), ("foo.bar=1", None, "'foo'"),
    (None, "{", "is not valid JSON"), (None, "[1]", "must hold a JSON object"),
], ids=["set-without-equals", "set-new-nested-key", "file-not-json",
        "file-not-an-object"])
def test_unreadable_config_input_is_a_config_error(override, contents, named, tmp_path,
                                                   capsys, sim_config):
    # an override that is not key=value, one that makes a key the config
    # does not know, and a file that is not a JSON object
    config = sim_config
    if contents is not None:
        config = tmp_path / "bad.json"
        config.write_text(contents)
    argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "o")]
    if override is not None:
        argv += ["--set", override]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and named in err
    assert err.count("\n") == 1  # one line, no traceback
    assert not (tmp_path / "o" / "manifest.json").exists()


# (t_min, t_max) on the fixture run's samples at t = 0, 1, ..., 5, and the
# refusal: the field a ValueError names, "no fit" for NoFitError, or None
WINDOWS = [
    (4.0, 2.0, "t_max"), (nan, None, "t_min"), (None, inf, "t_max"),
    (50.0, 60.0, "t_min"), (-3.0, -1.0, "t_max"), (-inf, None, "t_min"),
    (inf, None, "t_min"), (None, nan, "t_max"), (5.0000001, None, "t_min"),
    (None, -1e-13, "t_max"), (2.2, 2.8, "no fit"), (4.5, None, "no fit"),
    (5.0, None, "no fit"), (None, 0.0, "no fit"), (None, None, None),
    (-3.0, 1.0, None), (4.0, 60.0, None), (4.0000000000001, None, None),
]


@pytest.mark.parametrize("t_min, t_max, refusal", WINDOWS,
                         ids=[f"{lo}-{hi}" for lo, hi, _ in WINDOWS])
def test_estimate_refuses_the_windows_the_library_refuses(t_min, t_max, refusal,
                                                          tmp_path, capsys, sim_config):
    # one window rule: ValueError from estimate_modulation is exit 2 here,
    # NoFitError exit 3
    trajectory = run_experiment(SimulationConfig.from_dict(
        json.loads(sim_config.read_text())))
    if refusal is None:
        estimate_modulation(trajectory, t_min=t_min, t_max=t_max)
        expected = 0
    else:
        error = NoFitError if refusal == "no fit" else ValueError
        with pytest.raises(error, match="samples" if error is NoFitError
                           else f"^{refusal} must be"):
            estimate_modulation(trajectory, t_min=t_min, t_max=t_max)
        expected = 3 if error is NoFitError else 2
    argv = ["estimate", "--config", str(sim_config), "--out", str(tmp_path / "o")]
    argv += [f"{flag}={value!r}" for flag, value in (("--t-min", t_min), ("--t-max", t_max))
             if value is not None]
    assert main(argv) == expected
    if expected == 2:
        assert capsys.readouterr().err.startswith(f"configuration error: {refusal} must be")


@pytest.mark.parametrize("argv", [
    ["simulate"],
    ["estimate"],
    ["sweep", "--param", "graph.kappa", "--values", "0.31", "--jobs", "1"],
])
def test_unallocatable_samples_are_config_errors(argv, tmp_path, capsys, sim_config):
    # 1e15 samples of float64 exceed any address space, whatever the
    # machine's overcommit policy
    out = tmp_path / "o"
    assert main(argv[:1] + ["--config", str(sim_config), "--set", "t_end=1e15"]
                + argv[1:] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1  # one line, no traceback
    assert all(name in err for name in ("n=60", "t_end=1e+15", "sample_dt=1)"))
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["simulate"],
    ["estimate"],
    ["sweep", "--param", "graph.kappa", "--values", "0.31", "--jobs", "1"],
])
def test_sample_count_overflowing_to_inf_is_a_config_error(argv, tmp_path, capsys,
                                                          sim_config):
    # t_end/sample_dt overflows to inf, which no grid can hold
    out = tmp_path / "o"
    assert main(argv[:1] + ["--config", str(sim_config), "--set", "sample_dt=1e-310"]
                + argv[1:] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot allocate inf samples of n=60")
    assert err.count("\n") == 1  # one line, no traceback
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("sample_dt, count", [("1e-20", "5e+20"), ("1e-300", "5e+300")])
def test_sample_counts_beyond_any_array_name_the_run(sample_dt, count, tmp_path, capsys,
                                                     sim_config):
    # numpy once refused these with "Maximum allowed size exceeded", naming
    # none of n, t_end and sample_dt
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(sim_config), "--set", f"sample_dt={sample_dt}",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: cannot allocate {count} samples of n=60 phases "
        f"(t_end=5, sample_dt={sample_dt})\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["betasigma", "--q", "1", "--sigma-grid", "0:1:100000000000000"],
    ["spectrum", "--q", "1", "--kappa", "0.3", "--ell-max", "100000000000000"],
])
def test_unallocatable_grids_are_config_errors(argv, tmp_path, capsys):
    # 1e14 eight-byte values (728 TiB) exceed any address space, so the
    # allocation is refused at once, whatever the overcommit policy
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["simulate"],
    ["sweep", "--param", "graph.kappa", "--values", "0.31", "--jobs", "1"],
])
def test_unallocatable_samples_are_refused_before_the_graph(argv, tmp_path, capsys,
                                                            sim_config, monkeypatch):
    # a large random graph would take seconds to build for nothing
    built = []
    monkeypatch.setattr(dynamics, "build_coupling", built.append)
    out = tmp_path / "o"
    assert main(argv[:1] + ["--config", str(sim_config), "--set", "t_end=1e15",
                            "--set", "graph.kind=random_dense", "--set", "graph.seed=1"]
                + argv[1:] + ["--out", str(out)]) == 2
    assert "cannot allocate" in capsys.readouterr().err
    assert built == []


def test_no_root_error_stays_numeric(tmp_path, capsys, monkeypatch):
    # NoRootError subclasses ValueError but must keep exit code 3
    def no_root(*args):
        raise NoRootError("no threshold exists")

    monkeypatch.setattr(cli, "constants_rows", no_root)
    assert main(["constants", "--out", str(tmp_path / "o")]) == 3
    assert "numeric failure" in capsys.readouterr().err


def is_float_text(field):
    try:
        float(field)
    except ValueError:  # a name, or an empty field
        return False
    return not field.lstrip("-").isdigit()


def test_every_csv_is_lf_terminated_with_round_trip_floats(tmp_path, sim_config,
                                                           graph_config):
    runs = [
        ["constants", "--q-list", "1,2", "--sigma", "0.3"],
        ["spectrum", "--q", "0", "--kappa", "0.3", "--sigma", "0.7", "--ell-max", "4"],
        ["betasigma", "--q", "2", "--sigma-grid", "0:1.2:7"],
        ["graph", "--config", str(graph_config), "--pixels"],
        ["graph", "--config", str(graph_config), "--set", "kind=deterministic_dense",
         "--pixels"],
        ["simulate", "--config", str(sim_config)],
        ["estimate", "--config", str(sim_config), "--set", "ic_mode1_amplitude=0.1"],
        ["sweep", "--config", str(sim_config), "--param", "graph.kappa",
         "--values", "0.2,0.31", "--jobs", "1"],
    ]
    paths = []
    for i, argv in enumerate(runs):
        assert main(argv + ["--out", str(tmp_path / str(i))]) == 0
        paths += sorted((tmp_path / str(i)).glob("*.csv"))
    assert {p.name for p in paths} == {
        "constants.csv", "zeta.csv", "spectrum.csv", "beta_sigma_q2.csv", "pixels.csv",
        "trajectory.csv", "modulation.csv", "sweep.csv", "trajectory_000.csv",
        "trajectory_001.csv"}
    for path in paths:
        text = path.read_bytes().decode()
        assert "\r" not in text, path.name
        rows = list(csv.reader(line for line in text.split("\n")[:-1]
                               if not line.startswith("#")))
        floats = [field for row in rows[1:] for field in row if is_float_text(field)]
        assert floats, path.name
        for field in floats:  # the shortest text that reads back as its value
            assert repr(float(field)) == field, (path.name, field)


GRAPH, SIM = "<graph config>", "<run config>"
# each command's arguments, and the files it writes in the order it names them
WRITTEN = {
    "constants": (["constants", "--q-list", "1,2"], ["constants.csv", "zeta.csv"]),
    "spectrum": (["spectrum", "--q", "1", "--kappa", "0.2"], ["spectrum.csv"]),
    "betasigma": (["betasigma", "--q", "3", "--sigma-grid", "0:1:3"],
                  ["beta_sigma_q3.csv"]),
    "graph": (["graph", "--config", GRAPH], []),
    "graph-pixels": (["graph", "--config", GRAPH, "--pixels"], ["pixels.csv"]),
    "graph-binary": (["graph", "--config", GRAPH, "--binary"], ["adjacency.bin"]),
    "graph-binary-pixels": (["graph", "--config", GRAPH, "--binary", "--pixels"],
                            ["pixels.csv", "adjacency.bin"]),
    "simulate": (["simulate", "--config", SIM], ["trajectory.csv", "run.json"]),
    "estimate-window": (["estimate", "--config", SIM, "--t-min", "2", "--t-max", "4"],
                        ["modulation.csv", "fit.json"]),
    "sweep": (["sweep", "--config", SIM, "--param", "graph.kappa",
               "--values", "0.2,0.31", "--jobs", "1"],
              ["sweep.csv", "trajectory_000.csv", "trajectory_001.csv"]),
}


@pytest.mark.parametrize("case", WRITTEN)
def test_manifest_names_the_command_and_every_file_written(case, tmp_path,
                                                           sim_config, graph_config):
    argv, written = WRITTEN[case]
    out = tmp_path / "out"
    paths = {GRAPH: str(graph_config), SIM: str(sim_config)}
    assert main([paths.get(arg, arg) for arg in argv] + ["--out", str(out)]) == 0
    manifest = read_manifest(out)
    assert manifest["command"] == argv[0]
    assert manifest["outputs"] == [str(out / name) for name in written]
    assert sorted(p.name for p in out.iterdir()) == sorted(written + ["manifest.json"])


def test_a_failed_final_fit_is_recorded_in_place_of_its_residuals(
        tmp_path, sim_config, monkeypatch):
    def no_fit(phases, q):
        raise NoFitError("no twisted state fits")

    monkeypatch.setattr(cli, "fit_twisted", no_fit)
    for command, keys in [("simulate", ["omega", "t_final", "nfev", "steps"]),
                          ("estimate", ["r_final", "r_min", "r_max", "psi_rate",
                                        "omega_tilde", "nfev", "steps"])]:
        out = tmp_path / command
        assert main([command, "--config", str(sim_config), "--out", str(out)]) == 0
        results = read_manifest(out)["results"]
        assert list(results) == keys + ["final_fit_error"]
        assert results["final_fit_error"] == "no twisted state fits"
        assert not (out / "fit.json").exists()
    run = json.loads((tmp_path / "simulate" / "run.json").read_text())
    assert run["results"]["final_fit_error"] == "no twisted state fits"
