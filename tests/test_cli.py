"""End-to-end command-line interface tests (in-process, no subprocesses)."""

import csv
import json

import pytest

from ringtwist import cli
from ringtwist.bifurcation import NoRootError
from ringtwist.cli import main
from ringtwist.graphs import read_adjacency_binary


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
        assert (out / "pixels.csv").exists()
        back = read_adjacency_binary(out / "adjacency.bin")
        assert back.n == 40
        assert back.nnz == manifest["results"]["nnz"]

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
        with open(out / "modulation.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 11
        assert (out / "fit.json").exists()

    def test_empty_window_is_numeric_failure(self, tmp_path, sim_config, capsys):
        assert main(["estimate", "--config", str(sim_config),
                     "--t-min", "50", "--t-max", "60",
                     "--out", str(tmp_path / "o")]) == 3
        assert "numeric failure" in capsys.readouterr().err


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
        assert manifest["results"] == {"n_runs": 2, "n_escaped": 0}

    def test_unknown_parameter(self, tmp_path, sim_config):
        assert main(["sweep", "--config", str(sim_config),
                     "--param", "graph.bogus", "--values", "1",
                     "--out", str(tmp_path / "o")]) == 2

    def test_empty_values(self, tmp_path, sim_config):
        assert main(["sweep", "--config", str(sim_config),
                     "--param", "graph.kappa", "--values", ",",
                     "--out", str(tmp_path / "o")]) == 2


def test_version_flag():
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


@pytest.mark.parametrize("argv", [
    ["constants", "--q-list", "9"],
    ["constants", "--p", "2"],
    ["spectrum", "--q", "1", "--kappa", "0.3", "--ell-max", "0"],
    ["betasigma", "--q", "2", "--sigma-grid", "0:2:5"],
    ["betasigma", "--q", "2", "--sigma-grid", "0:1:2.7"],
    ["betasigma", "--q", "2", "--sigma-grid", "0:1:0"],
], ids=["q-list", "p", "ell-max", "sigma-grid", "sigma-grid-fractional-count",
        "sigma-grid-zero-count"])
def test_library_range_errors_are_config_errors(argv, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1  # one line, no traceback
    assert list(out.iterdir()) == []  # no partial output, no manifest


def test_no_root_error_stays_numeric(tmp_path, capsys, monkeypatch):
    # NoRootError subclasses ValueError but must keep exit code 3
    def no_root(*args):
        raise NoRootError("no threshold exists")

    monkeypatch.setattr(cli, "constants_rows", no_root)
    assert main(["constants", "--out", str(tmp_path / "o")]) == 3
    assert "numeric failure" in capsys.readouterr().err
