"""Spans around the public stripesim functions that `cli` and `runner` call.

The wrappers are installed from outside the package: every module attribute
of `stripesim.*` (and class attribute, for methods) that *is* a target
function is replaced by a wrapper, and restored when tracing ends. A span
records its layer, function, parent span, start and end; spans stay in
memory until the benchmark writes them out. A target that no longer exists
is reported as missing, and its time falls to the layer that calls it; a
layer none of whose targets exist is reported as a missing layer.

Per-layer times are self times (span minus its child spans), normalised per
coherence block or per drop, so an engine that covers many blocks in one
call still compares with one that makes a call per block.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import sys
import time

# (layer, module, attribute path, what the span measures besides time)
TARGETS = (
    ("cli", "stripesim.cli", "main", None),
    ("config", "stripesim.config", "load_config", None),
    ("config", "stripesim.config", "save_config", None),
    ("runner", "stripesim.runner", "run_experiment", None),
    ("runner", "stripesim.runner", "simulate_setup", None),
    ("scenario", "stripesim.scenario", "build_scenario", None),
    ("channel.stats", "stripesim.channel", "estimation_statistics", None),
    ("channel.draw", "stripesim.channel", "draw_channels", None),
    ("channel.pilot", "stripesim.channel", "simulate_pilot_phase", "out_bytes"),
    ("channel.estimate", "stripesim.channel", "mmse_estimate", None),
    ("stripe", "stripesim.stripe", "run_stripe", "out_bytes"),
    ("baselines.l4", "stripesim.baselines", "centralized_lmmse_l4", None),
    ("baselines.mr", "stripesim.baselines", "MrFusionAccumulator.update", None),
    ("baselines.mr", "stripesim.baselines", "MrFusionAccumulator.sinr", None),
    ("metrics.sinr", "stripesim.metrics", "sinr_per_ue", None),
    ("metrics.sinr", "stripesim.metrics", "spectral_efficiency", None),
    ("metrics", "stripesim.metrics", "empirical_cdf", None),
    ("metrics", "stripesim.metrics", "summary_payload", None),
    ("metrics", "stripesim.metrics", "fronthaul_load", None),
    ("metrics", "stripesim.metrics", "write_se_csv", "written"),
    ("metrics", "stripesim.metrics", "write_cdf_csv", "written"),
    ("metrics", "stripesim.metrics", "write_summary_json", "written"),
)

PER_BLOCK = ("channel.draw", "channel.pilot", "channel.estimate", "stripe",
             "baselines.l4", "baselines.mr", "metrics.sinr")
PER_DROP = ("scenario", "channel.stats")
LAYERS = ("cli", "config", "runner") + PER_DROP + PER_BLOCK + ("metrics",)
# Layers whose self time is orchestration, not simulation work: the trace
# coverage counts how much of run_experiment the other layers explain.
ORCHESTRATION = ("cli", "config", "runner")

# name -> (unit, better); the order is the order of the printed report.
METRICS: dict[str, tuple[str, str]] = {}
for _layer in PER_DROP:
    METRICS[f"{_layer}.ms_per_drop"] = ("ms", "lower")
for _layer in PER_BLOCK:
    METRICS[f"{_layer}.ms_per_block"] = ("ms", "lower")
METRICS["channel.pilot.out_bytes_per_block"] = ("bytes", "lower")
METRICS["stripe.out_bytes_per_block"] = ("bytes", "lower")
METRICS["runner.self_s"] = ("s", "lower")
METRICS["runner.loop.ms_per_block"] = ("ms", "lower")
METRICS["runner.pool_efficiency"] = ("ratio", "higher")
METRICS["metrics.write_ms"] = ("ms", "lower")
METRICS["metrics.bytes_written"] = ("bytes", "lower")
METRICS["cli.self_ms"] = ("ms", "lower")
METRICS["config.ms"] = ("ms", "lower")
for _layer in LAYERS:
    METRICS[f"{_layer}.calls"] = ("count", "lower")
    METRICS[f"{_layer}.share"] = ("ratio", "lower")
METRICS["trace.coverage"] = ("ratio", "higher")
METRICS["trace.overhead"] = ("ratio", "lower")
del _layer

# Metrics each layer owns, so a missing layer drops them from the report.
LAYER_OF_METRIC = {
    name: next(layer for layer in sorted(LAYERS, key=len, reverse=True)
               if name.startswith(layer + "."))
    for name in METRICS if not name.startswith("trace.")
}


def nbytes(obj) -> int:
    """Exact nbytes of every array in a returned value (dataclasses, lists)."""
    if hasattr(obj, "nbytes") and hasattr(obj, "dtype"):
        return int(obj.nbytes)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(nbytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (list, tuple)):
        return sum(nbytes(item) for item in obj)
    return 0


@dataclasses.dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    start_ns: int = 0
    end_ns: int = 0
    bytes: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Installs the wrappers on enter, removes them on exit; keeps the spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing_functions: list[str] = []
        self.missing_layers: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, extra: str | None, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, layer, name)
            spans.append(span)
            stack.append(span.id)
            span.start_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                stack.pop()
            if extra == "out_bytes":
                span.bytes = nbytes(result)
            elif extra == "written":
                span.bytes = os.path.getsize(args[0])
            return result

        return traced

    def __enter__(self) -> "Tracer":
        found = set()
        for layer, module_name, path, extra in TARGETS:
            owner = sys.modules.get(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                self.missing_functions.append(f"{module_name}.{path}")
                continue
            found.add(layer)
            wrapper = self._wrap(layer, path, extra, original)
            holders = [owner] if owner_path else [
                m for n, m in list(sys.modules.items())
                if n == "stripesim" or n.startswith("stripesim.")
            ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, value))
                        setattr(holder, key, wrapper)
        self.missing_layers = [layer for layer in LAYERS if layer not in found]
        return self

    def __exit__(self, *exc) -> None:
        for holder, key, value in reversed(self._restore):
            setattr(holder, key, value)
        self._restore.clear()

    def to_json(self) -> list[dict]:
        return [dataclasses.asdict(s) for s in self.spans]


def layer_metrics(spans: list[Span], blocks: int, drops: int) -> dict[str, float]:
    """Per-layer metrics of one traced run (one or more root `cli` spans)."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] += s.duration_ns
    self_ns = [s.duration_ns - child_ns[s.id] for s in spans]

    def under_run_experiment(s: Span) -> bool:
        while s.parent is not None:
            s = spans[s.parent]
            if s.name == "run_experiment":
                return True
        return False

    layer_ns = dict.fromkeys(LAYERS, 0)
    calls = dict.fromkeys(LAYERS, 0)
    covered_ns = 0
    for s in spans:
        layer_ns[s.layer] += self_ns[s.id]
        calls[s.layer] += 1
        if s.layer not in ORCHESTRATION and under_run_experiment(s):
            covered_ns += self_ns[s.id]

    def self_total_ns(name: str) -> int:
        return sum(self_ns[s.id] for s in spans if s.name == name)

    def bytes_of(layer: str) -> int:
        return sum(s.bytes for s in spans if s.layer == layer)

    root_ns = sum(s.duration_ns for s in spans if s.parent is None)
    ms = 1e-6
    out: dict[str, float] = {}
    for layer in PER_DROP:
        out[f"{layer}.ms_per_drop"] = layer_ns[layer] * ms / drops
    for layer in PER_BLOCK:
        out[f"{layer}.ms_per_block"] = layer_ns[layer] * ms / blocks
    out["channel.pilot.out_bytes_per_block"] = bytes_of("channel.pilot") / blocks
    out["stripe.out_bytes_per_block"] = bytes_of("stripe") / blocks
    out["runner.self_s"] = self_total_ns("run_experiment") * 1e-9
    out["runner.loop.ms_per_block"] = self_total_ns("simulate_setup") * ms / blocks
    out["metrics.write_ms"] = layer_ns["metrics"] * ms
    out["metrics.bytes_written"] = float(bytes_of("metrics"))
    out["cli.self_ms"] = layer_ns["cli"] * ms
    out["config.ms"] = layer_ns["config"] * ms
    for layer in LAYERS:
        out[f"{layer}.calls"] = float(calls[layer])
        out[f"{layer}.share"] = layer_ns[layer] / max(root_ns, 1)
    out["trace.coverage"] = covered_ns / max(busy_ns(spans), 1)
    return out


def busy_ns(spans: list[Span]) -> int:
    """Time inside run_experiment: the simulation work of a traced run."""
    return sum(s.duration_ns for s in spans if s.name == "run_experiment")
