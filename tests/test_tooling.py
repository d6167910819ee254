"""The benchmark harness still runs against the package.

The harness calls many public names and its tracer rebinds every function
listed in each layer module's ``__all__``, so a renamed or removed public
name shows up here as a failing self-test or benchmark round.  The source
checks keep:

* every CSV and JSON writer in the boundary module;
* the stepping loop of ``integrate_system`` the one integration path;
* one pass over the stored samples the only place that aligns them;
* the dynamics, and the coupling sums ``graphs`` forms for them, from
  rebuilding a graph's holes;
* every stored CSR assembled by one function of ``graphs``, and no band
  complement anywhere in the package;
* what a coupling stores read in ``graphs`` alone;
* a coupling taking its ``GraphSpec`` alone, holding the one stored side
  the spec names, and built in ``graphs`` alone;
* the ``ringtwist`` console script naming ``cli.main``;
* ``run_experiment`` the one path from a configuration to a trajectory;
* the run layer importing nothing from ``bifurcation``;
* the run's rotation speed read from ``GraphSpec.symbol``, which reads
  ``spectrum._window_integrals`` at the realized n, with no offset array in
  ``dynamics``, and the realized window formed in ``GraphSpec`` alone;
* the right-hand side and the mean resultant taking sin and cos from
  ``circular.sincos`` alone;
* the closed forms on one window integral (no second function names the
  half window) and one root finder;
* the threshold cache and the adjacency a coupling draws once the
  package's only memos;
* the helper in ``build_parser`` the only place that declares a
  subcommand and its shared options;
* ``cli.main`` the only place that builds a ``RunManifest`` or reads ``args.out``;
* ``analysis._window`` the one rule that refuses a time window;
* every public function of a layer module referred to in code (not in a
  string) by the package, the benchmark or the acceptance gate, so none is
  kept for tests alone.
"""

import ast
import inspect
import json
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from ringtwist import __version__
from ringtwist.cli import main
from ringtwist.graphs import CouplingMatrix

ROOT = Path(__file__).resolve().parent.parent
# every module of the package, parsed once: (path, syntax tree) in file-name order
SOURCES = [(path, ast.parse(path.read_text()))
           for path in sorted((ROOT / "src" / "ringtwist").glob("*.py"))]


def _source(name):
    """The syntax tree of the package module with file name ``name``."""
    return next(tree for path, tree in SOURCES if path.name == name)


def _called(node):
    """The name a call goes by: f in f(...), or the attribute in x.f(...)."""
    return getattr(node.func, "id", getattr(node.func, "attr", None))


def run(*args):
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)


def test_benchmark_selftest_and_traced_round():
    selftest = run("benchmark/selftest.py")
    assert selftest.returncode == 0, selftest.stdout + selftest.stderr
    assert "0 of the cases misbehaved" in selftest.stdout

    bench = run("benchmark/run.py", "--workload", "random_dense_lock", "--seed", "1",
                "--seconds", "0", "--trace", "1")
    assert bench.returncode == 0, bench.stderr
    result = json.loads(bench.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, bench.stderr
    assert result["correct"] is True, bench.stderr


@pytest.mark.parametrize("workload", ["band_threshold", "random_dense_lock",
                                      "random_sparse_lock"])
def test_untraced_round(workload):
    # band_threshold's checks read 1,920 spectra and the banded coupling;
    # random_dense_lock's read the adjacency a holes-stored graph draws
    bench = run("benchmark/run.py", "--workload", workload, "--seed", "1",
                "--seconds", "0")
    assert bench.returncode == 0, bench.stderr
    result = json.loads(bench.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, bench.stderr
    assert result["correct"] is True, bench.stderr


def test_only_the_boundary_module_writes_csv_or_json():
    # one module decides how a number is written; every other module calls it
    banned = {("csv", "writer"), ("csv", "DictWriter"), ("json", "dump")}
    calls = []
    for path, tree in SOURCES:
        if path.name == "_boundary.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and (node.value.id, node.attr) in banned:
                calls.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module in ("csv", "json"):
                calls += [f"{path.name}:{node.lineno} from {node.module} import {a.name}"
                          for a in node.names if (node.module, a.name) in banned]
    assert calls == []


def test_no_module_imports_solve_ivp():
    # integrate_system steps DOP853 itself; solve_ivp would hold a second copy
    # of every trajectory
    uses = []
    for path, tree in SOURCES:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                uses += [f"{path.name}:{node.lineno}" for a in node.names
                         if a.name == "solve_ivp"]
            elif isinstance(node, ast.Attribute) and node.attr == "solve_ivp":
                uses.append(f"{path.name}:{node.lineno}")
    assert uses == []


def test_only_the_deviation_record_aligns_inside_a_loop():
    # every per-sample summary reads one record; a second loop over the
    # samples would align each of them again
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    uses = set()
    for path, tree in SOURCES:
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for loop in (node for node in ast.walk(func) if isinstance(node, loops)):
                uses |= {(path.name, func.name, call.lineno) for call in ast.walk(loop)
                         if isinstance(call, ast.Call) and _called(call) == "_align"}
    assert {name for _, name, _ in uses} == {"_deviation_record"}, sorted(uses)


def test_only_run_experiment_builds_and_integrates_a_right_hand_side():
    # one run path: a second caller of make_rhs or integrate_system would
    # build its own initial condition and natural frequency, and could drift
    # from what a configuration means
    names = {"make_rhs", "integrate_system"}

    def calls(tree):
        return {node: _called(node) for node in ast.walk(tree)
                if isinstance(node, ast.Call)}

    outside, inside = [], set()
    for path, tree in SOURCES:
        allowed = {}
        if path.name == "dynamics.py":
            run = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                       and node.name == "run_experiment")
            allowed = calls(run)
            inside = set(allowed.values()) & names
        outside += [f"{path.name}:{node.lineno} {name}"
                    for node, name in calls(tree).items()
                    if name in names and node not in allowed]
    assert inside == names
    assert outside == []


def test_dynamics_never_takes_a_band_complement():
    # a graph stores its holes H = band - A when they are the smaller side, and
    # the right-hand side's coupling sums read them as stored: taking a band
    # complement, or reading ``adjacency`` (A, drawn again from the seed),
    # would cost a pass over the whole graph for each run.  The sums are
    # formed by CouplingMatrix.coupling_sums and the window sums it calls, and
    # the dynamics only call that method
    graphs = _source("graphs.py")
    matrix = next(node for node in graphs.body if isinstance(node, ast.ClassDef)
                  and node.name == "CouplingMatrix")
    route = [node for node in matrix.body + graphs.body
             if isinstance(node, ast.FunctionDef)
             and node.name in ("coupling_sums", "_window_sums")]
    assert len(route) == 2
    names = set()
    for tree in route + [_source("dynamics.py")]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
    assert {name for name in names if "complement" in name or "band_holes" in name
            or name == "adjacency"} == set()


def test_one_function_assembles_every_stored_csr():
    # both sides of a random graph are drawn from its seed and assembled the
    # one way, U + U^T; a second CSR constructor, or a function that turns
    # one side into the other, would be a second way to form a graph
    named = [f"{path.name}:{node.lineno} {node.name}"
             for path, tree in SOURCES for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and "complement" in node.name.lower()]
    assert named == []
    builders = {func.name for func in ast.walk(_source("graphs.py"))
                if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                for call in ast.walk(func)
                if isinstance(call, ast.Call) and _called(call) == "csr_array"}
    assert builders == {"_draw"}


def test_only_graphs_reads_what_a_coupling_stores():
    # graphs picks the route of W @ x from what a coupling stores; a module
    # that read the stored CSR, or branched on which side is stored, would
    # hold a second copy of that decision
    reads = []
    for path, tree in SOURCES:
        if path.name == "graphs.py":
            continue
        refused = {"csr"} | ({"stored"} if path.name == "dynamics.py" else set())
        reads += [f"{path.name}:{node.lineno} .{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in refused]
    assert reads == []


def test_a_coupling_is_its_spec_and_one_stored_side_built_in_graphs():
    # the spec is the one record of which graph a coupling realizes and
    # which side it stores: a field copied from it could disagree, a side
    # passed in could be another graph's, and a coupling built outside
    # graphs could carry a spec it does not realize
    assert [f.name for f in fields(CouplingMatrix)] == ["spec", "csr"]
    assert list(inspect.signature(CouplingMatrix).parameters) == ["spec"]
    built = [f"{path.name}:{node.lineno}"
             for path, tree in SOURCES for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _called(node) == "CouplingMatrix"]
    assert built and all(site.startswith("graphs.py:") for site in built)


def test_the_console_script_is_main_and_prints_the_version(capsys):
    # pyproject's [project.scripts] entry names cli.main, which answers --version
    script = re.search(r'^ringtwist\s*=\s*"([^"]+)"',
                       (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    assert script is not None and script.group(1) == "ringtwist.cli:main"
    with pytest.raises(SystemExit) as done:
        main(["--version"])
    assert done.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


def test_dynamics_imports_nothing_from_bifurcation():
    # a run takes its rotation speed from the window integral at its realized
    # n, not from the threshold constants
    tree = _source("dynamics.py")
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported += [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert [name for name in imported if "bifurcation" in name] == []


def test_the_rotation_speed_reads_the_window_integrals_at_the_realized_n():
    # one window symbol for the continuum and the ring: _coupling_speed calls
    # GraphSpec.symbol, which hands the graph's n to spectrum._window_integrals,
    # and dynamics sums no cosines over an array of window offsets of its own
    tree = _source("dynamics.py")
    speed = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                 and node.name == "_coupling_speed")
    calls = {_called(node): node for node in ast.walk(speed) if isinstance(node, ast.Call)}
    assert "symbol" in calls
    symbol = next(node for node in ast.walk(_source("graphs.py"))
                  if isinstance(node, ast.FunctionDef) and node.name == "symbol")
    inner = {_called(node): node for node in ast.walk(symbol) if isinstance(node, ast.Call)}
    assert "_window_integrals" in inner
    ring_size = inner["_window_integrals"].args[3]
    assert isinstance(ring_size, ast.Attribute) and ring_size.attr == "n"
    assert {"cos", "sum", "arange"} & set(calls) == set()
    offsets = [f"dynamics.py:{node.lineno}" for node in ast.walk(tree)
               if isinstance(node, ast.Call) and _called(node) in ("arange", "linspace")
               and any(getattr(n, "attr", None) == "halfwidth" for n in ast.walk(node))]
    assert offsets == []


def test_only_the_graph_spec_forms_the_realized_window():
    # kappa_eff = (halfwidth + 1/2)/n has one owner, GraphSpec: no other code
    # in the package adds 0.5 to a halfwidth
    spec = next(node for node in _source("graphs.py").body
                if isinstance(node, ast.ClassDef) and node.name == "GraphSpec")
    owned = set(ast.walk(spec))
    formed = [f"{path.name}:{node.lineno}" for path, tree in SOURCES
              for node in ast.walk(tree)
              if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
              and node not in owned
              and 0.5 in [getattr(side, "value", None) for side in (node.left, node.right)]
              and any(getattr(n, "attr", getattr(n, "id", None)) == "halfwidth"
                      for n in ast.walk(node))]
    assert formed == []


def test_the_state_sized_trig_is_the_one_sincos():
    # make_rhs's closure and resultant take sin and cos from circular.sincos,
    # one tangent per node; a second np.sin / np.cos path would undo it
    def calls(path, *names):
        func = _source(path)
        for name in names:
            func = next(node for node in ast.walk(func)
                        if isinstance(node, ast.FunctionDef) and node.name == name)
        return [_called(node) for node in ast.walk(func) if isinstance(node, ast.Call)]

    # make_rhs itself takes cos(sigma) and sin(sigma) once, outside the closure
    rhs_calls, resultant_calls = (calls("dynamics.py", "make_rhs", "rhs"),
                                  calls("circular.py", "resultant"))
    for found in (rhs_calls, resultant_calls):
        assert "sincos" in found
        assert {"sin", "cos"} & set(found) == set()


def test_only_window_integrals_names_the_half_window():
    # chi1 is the window integral minus its own l = 0 entry, so no closed
    # form adds the half-window term at q on its own
    uses = []
    for path, tree in SOURCES:
        allowed = {node for top in tree.body if isinstance(top, ast.FunctionDef)
                   and top.name == "_window_integrals" for node in ast.walk(top)}
        for node in ast.walk(tree):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.ImportFrom)
                     else [getattr(node, "id", getattr(node, "attr", None))])
            if "_half_window" in names and node not in allowed:
                uses.append(f"{path.name}:{node.lineno}")
    assert uses == []
    # nor does a second copy of it under another name: chi1 has one formula
    defined = [f"{path.stem}.{node.name}"
               for path, tree in SOURCES for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and "half_window" in node.name]
    assert defined == ["spectrum._half_window"]


def test_no_hand_rolled_root_iteration():
    # every root comes from spectrum._root, which is scipy's brentq
    loops = [f"{name}:{node.lineno}" for name in ("spectrum.py", "bifurcation.py")
             for node in ast.walk(_source(name)) if isinstance(node, ast.While)]
    assert loops == []


def test_only_the_threshold_values_are_cached():
    # q alone keys the threshold values, and they come back read-only; a
    # coupling keeps the A it draws from its seed for its whole life; a memo
    # on a float-keyed query or on a mutable result must not appear
    memo = {"cache", "lru_cache", "cached_property"}
    decorated, stray = [], []
    for path, tree in SOURCES:
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                for dec in node.decorator_list:
                    inner = {getattr(n, "id", getattr(n, "attr", None))
                             for n in ast.walk(dec)}
                    if inner & memo:
                        decorated.append(f"{path.stem}.{node.name}")
                        allowed |= set(ast.walk(dec))
        stray += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if getattr(node, "id", getattr(node, "attr", None)) in memo
                  and node not in allowed]
    assert decorated == ["bifurcation._threshold", "graphs.adjacency"]
    assert stray == []


def test_only_the_command_helper_declares_a_subcommand():
    # one helper in build_parser declares every subcommand and adds its
    # shared --config, --set and --out, so each of them is written once
    outside, inside = [], []
    for path, tree in SOURCES:
        helper = set()
        if path.name == "cli.py":
            build = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                         and node.name == "build_parser")
            helper = {node for top in build.body if isinstance(top, ast.FunctionDef)
                      and top.name == "command" for node in ast.walk(top)}
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and getattr(node.func, "attr", None) == "add_parser"]
        inside += [node for node in calls if node in helper]
        outside += [f"{path.name}:{node.lineno}" for node in calls if node not in helper]
    assert len(inside) == 1
    assert outside == []


def test_only_main_builds_a_manifest_or_reads_the_out_directory():
    # main names the command, lists each file a command asks it to join onto
    # --out, and writes the one manifest; no command does any of that itself
    outside, inside = [], []
    for path, tree in SOURCES:
        main = set()
        if path.name == "cli.py":
            main = set(ast.walk(next(node for node in tree.body
                                     if isinstance(node, ast.FunctionDef)
                                     and node.name == "main")))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and _called(node) == "RunManifest") \
                    or (isinstance(node, ast.Attribute) and node.attr == "out"
                        and getattr(node.value, "id", None) == "args"):
                (inside if node in main else outside).append(
                    f"{path.name}:{node.lineno}")
    assert len(inside) >= 2  # one manifest, and the directory it goes to
    assert outside == []


def test_only_the_window_rule_refuses_a_window():
    # analysis._window is the one rule for t_min and t_max: estimate_modulation
    # and ringtwist estimate both call it, and neither checks a bound itself
    refusers, estimate_checks = set(), []
    for path, tree in SOURCES:
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                check = (isinstance(node, ast.Call)
                         and getattr(node.func, "id", None) == "check_real")
                if check and func.name == "cmd_estimate":
                    estimate_checks.append(f"{path.name}:{node.lineno}")
                if check or isinstance(node, ast.Raise):
                    text = " ".join(str(n.value) for n in ast.walk(node)
                                    if isinstance(n, ast.Constant))
                    if re.search(r"t[-_]m(in|ax)", text):
                        refusers.add(f"{path.stem}.{func.name}")
    assert refusers == {"analysis._window"}
    assert estimate_checks == []


def test_every_public_function_has_a_caller_outside_the_unit_tests():
    # a function in a layer's __all__ that only its own tests call is code
    # kept for tests alone: it belongs under tests/, or nowhere.  A name
    # counts where src/ (outside the function's own body), benchmark/*.py
    # or the acceptance gate refers to it in code, through an import, a name
    # or an attribute; a string naming it (a docstring, an __all__ entry, a
    # tracer key) calls nothing
    layers = ("analysis", "bifurcation", "circular", "dynamics", "graphs", "spectrum")
    readers = SOURCES + [(path, ast.parse(path.read_text())) for path in
                         sorted((ROOT / "benchmark").glob("*.py"))
                         + [ROOT / "tests" / "test_acceptance.py"]]
    public, named = set(), set()
    for path, tree in readers:
        own = {}
        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                own.update((node, top.name) for node in ast.walk(top))
            elif (isinstance(top, ast.Assign)
                  and [getattr(t, "id", None) for t in top.targets] == ["__all__"]
                  and path.stem in layers and path.parent.name == "ringtwist"):
                exported = {elt.value for elt in top.value.elts}
                public |= {node.name for node in tree.body
                           if isinstance(node, ast.FunctionDef) and node.name in exported}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                names = [getattr(node, "id", getattr(node, "attr", None))]
            named |= {name for name in names if name and own.get(node) != name}
    assert len(public) > 30
    assert sorted(public - named) == []
