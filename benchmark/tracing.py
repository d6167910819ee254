"""In-memory span tracer that wraps ringtwist's public functions from outside.

The tracer rebinds every public function of the layer modules, wherever a
ringtwist module holds a reference to it, so calls between modules are seen
too.  Each call of a wrapped function records one span (round, id, parent
id, name, start, end, time covered by children); spans stay in memory until
:meth:`Tracer.write` dumps them.  A span's self time is its duration minus
the time its children cover.

Three kinds of call are too frequent for one span each and are aggregated
per name instead: the scalar closed forms ``chi1``/``chi2``/``chi1_dkappa``
(counted only), the circular helpers and the right-hand side closure that
``make_rhs`` returns (counted and timed; their time is charged to the
enclosing span as child time).
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("bifurcation", "spectrum", "graphs", "dynamics", "analysis", "circular")

COUNTED = {"spectrum.chi1", "spectrum.chi2", "spectrum.chi1_dkappa"}
TIMED_LEAVES = {"circular.wrap_angle", "circular.resultant", "circular.circular_mean"}
RHS = "dynamics.rhs"
MEMORY_SPANS = {"graphs.build_coupling"}


class Tracer:
    """Spans and leaf counters for the rounds run while it is installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.round = -1
        self._stack: list[list] = []
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []
        self._round_start = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.leaf_s: dict[str, float] = defaultdict(float)
        self.peak_bytes: dict[str, int] = {}

    # -- recording ---------------------------------------------------------

    def _open(self) -> tuple[list | None, list]:
        parent = self._stack[-1] if self._stack else None
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return parent, frame

    def _close(self, name: str, parent, frame, start: float, end: float) -> None:
        self._stack.pop()
        self.spans.append((self.round, frame[0], parent[0] if parent else 0,
                           name, start, end, frame[1]))
        if parent is not None:
            parent[1] += end - start

    @contextmanager
    def span(self, name: str):
        parent, frame = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, parent, frame, start, time.perf_counter())

    def _span_wrapper(self, name: str, fn):
        tracer = self
        measure_memory = name in MEMORY_SPANS

        def wrapper(*args, **kwargs):
            parent, frame = tracer._open()
            if measure_memory:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if measure_memory:
                    tracer.peak_bytes[name] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer._close(name, parent, frame, start, end)
            if name == "dynamics.make_rhs":
                return tracer._timed_leaf(RHS, result)
            return result

        return wrapper

    def _counted_leaf(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed_leaf(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer.calls[name] += 1
                tracer.leaf_s[name] += elapsed
                if tracer._stack:
                    tracer._stack[-1][1] += elapsed

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, round_index: int) -> None:
        """Start a traced round: reset the counters and rebind the functions."""
        self.round = round_index
        self._round_start = len(self.spans)
        self.calls.clear()
        self.leaf_s.clear()
        self.peak_bytes.clear()
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"ringtwist.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name in COUNTED:
                    wrappers[fn] = self._counted_leaf(name, fn)
                elif name in TIMED_LEAVES:
                    wrappers[fn] = self._timed_leaf(name, fn)
                else:
                    wrappers[fn] = self._span_wrapper(name, fn)
        for module_name, module in list(sys.modules.items()):
            if module_name != "ringtwist" and not module_name.startswith("ringtwist."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        from ringtwist.cli import RunManifest

        original = RunManifest.write
        self._patched.append((RunManifest, "write", original))
        RunManifest.write = self._span_wrapper("cli.RunManifest.write", original)

    def uninstall(self) -> None:
        """Restore every rebound function."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def self_times(self, spans=None) -> dict[str, float]:
        """Total self time per span name."""
        totals: dict[str, float] = defaultdict(float)
        for _, _, _, name, start, end, child in (self.spans if spans is None else spans):
            totals[name] += end - start - child
        return dict(totals)

    def round_layers(self) -> dict[str, float]:
        """Per-layer times and counts of the current round, in seconds and counts."""
        spans = self.spans[self._round_start:]
        inclusive: dict[str, float] = defaultdict(float)
        for _, _, _, name, start, end, _ in spans:
            inclusive[name] += end - start
        own = self.self_times(spans)

        def total(table, names):
            return sum(table.get(name, 0.0) for name in names)

        kappa_names = {"bifurcation.kappa_critical_all", "bifurcation.kappa_critical"}
        other_bifurcation = {name for name in own
                             if name.startswith("bifurcation.") and name not in kappa_names}
        writes = {name for name in inclusive
                  if name.rsplit(".", 1)[-1].startswith("write")}
        rhs_calls = self.calls.get(RHS, 0)
        rhs_s = self.leaf_s.get(RHS, 0.0)
        integrate_s = inclusive.get("dynamics.integrate_system", 0.0)
        return {
            "bifurcation.kappa_critical_s": total(own, kappa_names),
            "bifurcation.normal_form_s": total(own, other_bifurcation),
            "spectrum.eigenvalues_s": total(own, {"spectrum.eigenvalues",
                                                  "spectrum.eigenvalues_q0"}),
            "spectrum.chi_calls": float(sum(self.calls.get(n, 0) for n in COUNTED)),
            "graphs.build_s": inclusive.get("graphs.build_coupling", 0.0),
            "graphs.build_peak_mb":
                self.peak_bytes.get("graphs.build_coupling", 0) / 2**20,
            "dynamics.rhs_calls": float(rhs_calls),
            "dynamics.rhs_s": rhs_s,
            "dynamics.rhs_us": 1e6 * rhs_s / rhs_calls if rhs_calls else 0.0,
            "dynamics.integrate_s": integrate_s,
            "dynamics.rhs_share": rhs_s / integrate_s if integrate_s else 0.0,
            "analysis.estimate_s": inclusive.get("analysis.estimate_modulation", 0.0),
            "analysis.deviation_s": inclusive.get("analysis.deviation_series", 0.0),
            "circular.calls": float(sum(self.calls.get(n, 0) for n in TIMED_LEAVES)),
            "circular.s": sum(self.leaf_s.get(n, 0.0) for n in TIMED_LEAVES),
            "cli.write_s": total(inclusive, writes),
        }

    def write(self, path) -> None:
        """Dump every span plus the self time per name as JSON."""
        payload = {
            "fields": ["round", "id", "parent", "name", "start", "end", "child_s"],
            "spans": self.spans,
            "self_s": self.self_times(),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
            fh.write("\n")
