"""Span tracer for the traced benchmark run.

The tracer rebinds the names that each teleportnet module imports or calls
through its own globals (``protocol.measure_bell``, ``resources.tensor``,
``cli.run_controlled_teleport``, ...) to wrappers that record a span: name,
start, end, parent span and op id. The package source is not touched, and
``uninstall`` restores every original binding. A name that a later version
of the package no longer has is skipped, and its metrics read zero.

Spans go into preallocated numpy arrays so that recording one allocates
nothing that tracemalloc would attribute to the layer being measured.
"""

from __future__ import annotations

import json
import time
import tracemalloc

import numpy as np

LAYERS = ("states", "resources", "protocol", "defection", "accounting", "cli")

STATE_FNS = (
    "measure_bell", "measure_z", "measure_x", "apply_hadamard", "partial_trace",
    "fidelity", "tensor", "project_onto_qubit_state", "_apply_1q",
)
RESOURCE_FNS = ("prepare_control_resource", "prepare_message_state")
PROTOCOL_ENTRIES = ("run_controlled_teleport", "run_multi_receiver", "run_baseline_ghz")
DEFECTION_ENTRIES = ("analyze_defection", "analyze_baseline_defection")
DEFECTION_FNS = DEFECTION_ENTRIES + ("max_recovery_fidelity", "recovery_unitaries")
ACCOUNTING_FNS = ("account", "crossover_table")

# (module that looks the name up at call time, name); the span is named
# after the module that defines the function
WRAPS = (
    [("protocol", f) for f in STATE_FNS]
    + [("defection", f) for f in ("measure_bell", "partial_trace", "fidelity", "project_onto_qubit_state")]
    + [("resources", "tensor"), ("cli", "apply_hadamard")]
    + [("protocol", f) for f in RESOURCE_FNS + ("prepare_ghz",)]
    + [("cli", "prepare_ghz"), ("cli", "parity_decompose")]
    + [("cli", f) for f in PROTOCOL_ENTRIES] + [("protocol", "run_baseline_ghz")]
    + [("cli", "analyze_defection")] + [("defection", f) for f in DEFECTION_FNS[1:]]
    + [("cli", f) for f in ACCOUNTING_FNS]
    + [("cli", "main")]
)
ENTRIES = set(PROTOCOL_ENTRIES + DEFECTION_ENTRIES)


def _nbytes(obj) -> int:
    if isinstance(obj, tuple) and obj:
        obj = obj[0]
    for attr in ("amplitudes", "matrix"):
        arr = getattr(obj, attr, None)
        if isinstance(arr, np.ndarray):
            return arr.nbytes
    return obj.nbytes if isinstance(obj, np.ndarray) else 0


class Tracer:
    def __init__(self, modules: dict, capacity: int = 1 << 20):
        self.modules = modules
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.start = np.zeros(capacity)
        self.end = np.zeros(capacity)
        self.parent = np.full(capacity, -1, dtype=np.int64)
        self.name_id = np.zeros(capacity, dtype=np.int64)
        self.op_id = np.zeros(capacity, dtype=np.int64)
        self.count = 0
        self.stack = [-1]
        self.op = 0
        self.counters = {
            "states.amp_bytes": 0, "resources.state_bytes": 0, "protocol.branches": 0,
            "defection.branches": 0, "protocol.peak_bytes": 0, "defection.peak_bytes": 0,
            "cli.nonzero_exits": 0,
        }
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Drop the spans and counts recorded so far; keep the peak bytes."""
        self.count = 0
        self.op = 0
        for key in self.counters:
            if not key.endswith("peak_bytes"):
                self.counters[key] = 0

    def install(self) -> None:
        for mod_name, attr in WRAPS:
            mod = self.modules.get(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.layer_of.append(layer)
        return self.names.index(name)

    def _grow(self) -> None:
        for attr in ("start", "end", "parent", "name_id", "op_id"):
            old = getattr(self, attr)
            new = np.full(2 * len(old), -1 if attr == "parent" else 0, dtype=old.dtype)
            new[: len(old)] = old
            setattr(self, attr, new)

    def _wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        short = fn.__name__
        nid = self._name_id(f"{layer}.{short}", layer)
        counters = self.counters
        entry = short in ENTRIES
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = self.count
            if i == len(self.start):
                self._grow()
            self.count = i + 1
            self.parent[i] = self.stack[-1]
            self.name_id[i] = nid
            self.op_id[i] = self.op
            self.stack.append(i)
            if entry and tracemalloc.is_tracing():
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            self.start[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self.stack.pop()
            if layer == "states" and args:
                counters["states.amp_bytes"] += _nbytes(args[0])
            elif layer == "resources":
                counters["resources.state_bytes"] += _nbytes(result)
            elif short == "main" and result:
                counters["cli.nonzero_exits"] += 1
            if entry:
                counters[f"{layer}.branches"] += len(result) if isinstance(result, list) else 1
                if tracemalloc.is_tracing():
                    peak = tracemalloc.get_traced_memory()[1] - base
                    counters[f"{layer}.peak_bytes"] = max(counters[f"{layer}.peak_bytes"], peak)
            return result

        traced.__wrapped__ = fn
        return traced

    def metrics(self, traced_wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over every span recorded so far."""
        k = self.count
        dur = self.end[:k] - self.start[:k]
        parent = self.parent[:k]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=k)
        own = dur - child
        names = np.array(self.names + [""])[self.name_id[:k]]
        layers = np.array(self.layer_of + [""])[self.name_id[:k]]

        def calls(name):
            return float(np.count_nonzero(names == name))

        def seconds(name):
            return float(dur[names == name].sum())

        out: dict[str, tuple[float, str]] = {}
        self_s = {layer: float(own[layers == layer].sum()) for layer in LAYERS}
        c = self.counters
        out["states.calls"] = (float(np.count_nonzero(layers == "states")), "count")
        out["states.self_s"] = (self_s["states"], "s")
        out["states.amp_bytes"] = (float(c["states.amp_bytes"]), "B")
        out["states.amp_bytes_per_s"] = (c["states.amp_bytes"] / self_s["states"] if self_s["states"] else 0.0, "B/s")
        for fn in STATE_FNS:
            out[f"states.{fn}.calls"] = (calls(f"states.{fn}"), "count")
            out[f"states.{fn}.s"] = (seconds(f"states.{fn}"), "s")
        for fn in RESOURCE_FNS:
            out[f"resources.{fn}.s"] = (seconds(f"resources.{fn}"), "s")
        out["resources.self_s"] = (self_s["resources"], "s")
        out["resources.state_bytes"] = (float(c["resources.state_bytes"]), "B")
        for fn in PROTOCOL_ENTRIES:
            out[f"protocol.{fn}.calls"] = (calls(f"protocol.{fn}"), "count")
            out[f"protocol.{fn}.s"] = (seconds(f"protocol.{fn}"), "s")
        out["protocol.self_s"] = (self_s["protocol"], "s")
        out["protocol.branches"] = (float(c["protocol.branches"]), "count")
        out["protocol.peak_bytes"] = (float(c["protocol.peak_bytes"]), "B")
        under = self._states_calls_under(layers.tolist(), "protocol")
        out["protocol.states_calls_per_branch"] = (
            under / c["protocol.branches"] if c["protocol.branches"] else 0.0, "calls/branch")
        for fn in DEFECTION_FNS:
            out[f"defection.{fn}.calls"] = (calls(f"defection.{fn}"), "count")
            out[f"defection.{fn}.s"] = (seconds(f"defection.{fn}"), "s")
        out["defection.self_s"] = (self_s["defection"], "s")
        out["defection.branches"] = (float(c["defection.branches"]), "count")
        out["defection.peak_bytes"] = (float(c["defection.peak_bytes"]), "B")
        for fn in ACCOUNTING_FNS:
            out[f"accounting.{fn}.calls"] = (calls(f"accounting.{fn}"), "count")
            out[f"accounting.{fn}.s"] = (seconds(f"accounting.{fn}"), "s")
        out["cli.ops"] = (calls("cli.main"), "count")
        out["cli.nonzero_exits"] = (float(c["cli.nonzero_exits"]), "count")
        out["cli.self_s"] = (self_s["cli"], "s")
        out["trace.coverage"] = (sum(self_s.values()) / traced_wall_s if traced_wall_s else 0.0, "ratio")
        out["trace.spans"] = (float(k), "count")
        return out

    def _states_calls_under(self, layers: list[str], layer: str) -> int:
        """States spans that have a span of ``layer`` among their ancestors."""
        under = [False] * self.count
        for i, p in enumerate(self.parent[: self.count].tolist()):
            if p >= 0:
                under[i] = layers[p] == layer or under[p]
        return sum(u and lay == "states" for u, lay in zip(under, layers))

    def write(self, path) -> None:
        """One JSON line per span: [name, start_s, end_s, parent, op]."""
        with open(path, "w") as fh:
            for i in range(self.count):
                fh.write(json.dumps([
                    self.names[self.name_id[i]], float(self.start[i]), float(self.end[i]),
                    int(self.parent[i]), int(self.op_id[i]),
                ]) + "\n")
