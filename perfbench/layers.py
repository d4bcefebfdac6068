"""Per-layer tracing: spans around csbsim's functions, recorded from outside.

install() wraps every public function of every csbsim module, plus the two
private ones the metrics name (cli._write_csv and the airspy._Tables
constructor behind the cached _tables), and replaces every module binding of
each, including from-import bindings and the CLI's command table, so nested
calls are timed too. A wrapper records one span per call: (span id, parent
span id, name, start, end). Spans stay in memory; metrics() derives the
per-layer numbers from them and dump() writes them out when the run ends.

A layer's self time is its span time minus the time of the wrapped calls it
made. Counters marked "computed" come from call arguments seen at the
wrapper, not from measurement, so they repeat exactly from run to run.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import inspect
import itertools
import json
import math
import os
import sys
import time
import types

import numpy as np

# Layers whose call counts and self times the benchmark reports.
CALLS = (
    "array.beam_gain",
    "array.dft_codeword",
    "csb_defense.mixture_mi",
    "csb_defense.csb_shift_atoms",
    "csb_defense.circulant_shift",
    "csb_defense.shift_phase_factor",
    "asm_baseline.random_subset_masks",
    "channel_sim.simulate_symbols",
)
SELF_TIMES = (
    "array.beam_gain",
    "array.beam_pattern",
    "csb_defense.mixture_mi",
    "csb_defense.csb_shift_atoms",
    "csb_defense.psk_mutual_information",
    "asm_baseline.random_subset_masks",
    "asm_baseline.asm_relative_atoms",
    "channel_sim.simulate_symbols",
    "airspy.tables",
    "airspy.value_iteration",
    "airspy.extract_trajectory",
    "airspy.episode_secrecy_profile",
    "cli.load_config",
    "cli.write_csv",
)
COMPUTED = (
    "array.beam_pattern.macs",
    "csb_defense.mixture_mi.ops",
    "asm_baseline.random_subset_masks.mask_bytes",
    "channel_sim.simulate_symbols.symbols",
    "airspy.tables.cells_x_steps",
    "airspy.value_iteration.updates",
)

# The CLI entry point is the run itself (timed as wall_s), not a layer.
UNWRAPPED = {"csbsim.cli.main"}


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters = collections.Counter({name: 0 for name in COMPUTED})
        self.mi_inputs: set[bytes] = set()
        self.written: list[str] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    def wrap(self, name, fn, before=None):
        """fn wrapped in a span called name; before(tracer, arguments), if
        given, runs ahead of the span with the call's bound arguments."""
        sig = inspect.signature(fn) if before is not None else None
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                before(self, bound.arguments)
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, named <module>.<function>.<stat>."""
        calls: collections.Counter = collections.Counter()
        self_s: dict[str, float] = collections.defaultdict(float)
        child_s: dict[int, float] = collections.defaultdict(float)
        # A span is appended when it ends, so its children precede it.
        for sid, parent, name, start, end in self.spans:
            duration = end - start
            calls[name] += 1
            self_s[name] += duration - child_s.pop(sid, 0.0)
            child_s[parent] += duration

        def total(prefix, table):
            return sum(v for k, v in table.items() if k.startswith(prefix))

        out: dict[str, float] = {
            "geometry.calls": total("geometry.", calls),
            "geometry.self_s": total("geometry.", self_s),
        }
        out.update({f"{name}.calls": calls[name] for name in CALLS})
        out.update({f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_TIMES})
        out["airspy.tables.builds"] = calls["airspy.tables"]
        out["cli.cmd.self_s"] = total("cli.cmd_", self_s)
        out.update(self.counters)
        mi_calls = calls["csb_defense.mixture_mi"]
        out["csb_defense.mixture_mi.distinct_ratio"] = len(self.mi_inputs) / mi_calls if mi_calls else 0.0
        out["cli.write_csv.rows"] = out["cli.write_csv.bytes"] = 0
        for path in self.written:
            with open(path, "rb") as fh:
                data = fh.read()
            out["cli.write_csv.rows"] += data.count(b"\n") - 1
            out["cli.write_csv.bytes"] += len(data)
        return out

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: one header, then one span a line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"run_id": self.run_id, "fields": ["id", "parent", "name", "start", "end"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# Computed counters, from the arguments each call received.

def _mixture_mi(tracer, a):
    atoms = np.asarray(a["atoms"], dtype=complex).ravel()
    tracer.counters["csb_defense.mixture_mi.ops"] += a["num_samples"] * atoms.size * a["m_order"]
    # The generator state is read before the call advances it.
    key = repr((float(a["rho"]), a["m_order"], a["num_samples"], a["rng"].bit_generator.state))
    tracer.mi_inputs.add(hashlib.sha256(atoms.tobytes() + key.encode()).digest())


def _beam_pattern(tracer, a):
    directions = np.atleast_2d(np.asarray(a["directions"], dtype=float))
    tracer.counters["array.beam_pattern.macs"] += directions.shape[0] * np.asarray(a["f"]).size


def _random_subset_masks(tracer, a):
    tracer.counters["asm_baseline.random_subset_masks.mask_bytes"] += a["num"] * a["size"]


def _simulate_symbols(tracer, a):
    tracer.counters["channel_sim.simulate_symbols.symbols"] += a["num_symbols"]


def _tables(tracer, a):
    g = a["constraints"].grid_g
    tracer.counters["airspy.tables.cells_x_steps"] += g * g * a["scenario"].num_steps


def _value_iteration(tracer, a):
    scenario, constraints = a["scenario"], a["constraints"]
    g = constraints.grid_g
    # Moves per step: grid offsets inside the velocity disc of the planner model.
    radius = constraints.step_radius * scenario.t_s * g / 2.0
    lim = math.floor(radius)
    offsets = sum(
        di * di + dj * dj <= radius * radius for di in range(-lim, lim + 1) for dj in range(-lim, lim + 1)
    )
    tracer.counters["airspy.value_iteration.updates"] += g * g * (scenario.num_steps - 1) * offsets


def _write_csv(tracer, a):
    # rows and bytes are counted from the files once the run has ended
    tracer.written.append(a["path"])


BEFORE = {
    "csb_defense.mixture_mi": _mixture_mi,
    "array.beam_pattern": _beam_pattern,
    "asm_baseline.random_subset_masks": _random_subset_masks,
    "channel_sim.simulate_symbols": _simulate_symbols,
    "airspy.tables": _tables,
    "airspy.value_iteration": _value_iteration,
    "cli.write_csv": _write_csv,
}


def install(tracer: Tracer) -> None:
    """Wrap the functions of the imported csbsim modules in tracer's spans."""
    modules = [m for n, m in sys.modules.items() if n == "csbsim" or n.startswith("csbsim.")]
    wrapped: dict[int, types.FunctionType] = {}
    for module in modules:
        for attr, obj in vars(module).items():
            if not isinstance(obj, types.FunctionType) or obj.__module__ != module.__name__:
                continue
            if f"{module.__name__}.{attr}" in UNWRAPPED:
                continue
            if attr == "_write_csv":
                name = "cli.write_csv"
            elif attr.startswith("_"):
                continue
            else:
                name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            wrapped[id(obj)] = tracer.wrap(name, obj, BEFORE.get(name))
    for module in modules:
        namespace = vars(module)
        for attr, obj in list(namespace.items()):
            if id(obj) in wrapped:
                namespace[attr] = wrapped[id(obj)]
            elif isinstance(obj, dict):  # e.g. the CLI's subcommand table
                for key, value in list(obj.items()):
                    if id(value) in wrapped:
                        obj[key] = wrapped[id(value)]
    tables = getattr(sys.modules.get("csbsim.airspy"), "_Tables", None)
    if tables is not None:
        tables.__init__ = tracer.wrap("airspy.tables", tables.__init__, _tables)


def skipped_directions(out_dir: str) -> int:
    """Eavesdropper directions with no trained channel: the smi-sweep rows
    whose csb_smi field is empty (0 when the run wrote no smi_sweep.csv)."""
    path = os.path.join(out_dir, "smi_sweep.csv")
    if not os.path.exists(path):
        return 0
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        column = header.index("csb_smi")
        return sum(line.rstrip("\n").split(",")[column] == "" for line in fh)
