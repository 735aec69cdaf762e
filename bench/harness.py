"""Round loop, call recorder and tracer shared by the four workloads.

Every call the workloads make into a ``qgle`` layer goes through
``Recorder.call``.  The recorder always counts attempted and failed
operations and times the stepping calls (they feed
``replica_steps_per_s``); with tracing on it also keeps one span per call
(name, layer, start, end, parent, run id, round) and per-layer work counters.
Nothing inside the program is traced: a span covers exactly one call made
from the benchmark's own files.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

# layers with a metric in BENCHMARK.json (expressions is reached only
# through config and model, so it has no call of its own to trace)
LAYERS = ("config", "model", "kernels", "ergodicity", "simulate", "stats")

# calls whose time counts as stepping time for replica_steps_per_s
STEPPING = {"simulate", "simulate_ensemble", "fordkac_simulate",
            "fordkac_vs_gle"}
WRITERS = {"trajectory_to_csv", "write_noise_sidecar"}

# per-layer counters reported by a traced run, beyond busy_s and calls
COUNTERS = {
    "simulate": ("replica_steps", "noise_draws", "bath_mode_steps",
                 "stored_mb", "write_s", "written_mb"),
    "stats": ("samples",),
}


class OperationFailed(Exception):
    """A call into the program raised; the round is abandoned."""


@dataclass
class Span:
    span_id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    run_id: str
    round: int


@dataclass
class RoundRecord:
    """Work and timings of one round."""

    traced: bool
    setup_s: float = 0.0
    wall_s: float = 0.0
    step_s: float = 0.0
    replica_steps: int = 0
    counters: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


class Recorder:
    """Counts, times and (optionally) traces calls into the program."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.attempted = 0
        self.failed = 0
        self.trace = False
        self.round = None
        self.round_index = -1
        self._next_id = 0
        self._stack = []

    def begin_round(self, traced):
        self.trace = traced
        self.round = RoundRecord(traced=traced)
        self.round_index += 1
        return self.round

    def _new_span(self, name, layer, start, end, parent):
        self._next_id += 1
        return Span(self._next_id, name, layer, start, end, parent,
                    self.run_id, self.round_index)

    def phase(self, name):
        """Context manager for a benchmark phase (setup / job / check)."""
        return _Phase(self, name)

    def count(self, layer, key, value):
        counters = self.round.counters.setdefault(layer, {})
        counters[key] = counters.get(key, 0) + value

    def call(self, fn, *args, work=None, **kwargs):
        """Call ``fn`` and record it as one operation of its layer.

        ``work`` maps counter names of the callee's layer to the amount of
        work the call does (replica steps, noise draws, samples, ...).
        """
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = fn.__qualname__
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as err:
            self.failed += 1
            raise OperationFailed(f"{layer}.{name}: {err!r}") from err
        end = time.perf_counter()
        work = dict(work or {})
        if name in STEPPING:
            self.round.step_s += end - start
            self.round.replica_steps += work.get("replica_steps", 0)
            work["stored_mb"] = _array_mb(result)
        if name in WRITERS:
            work["write_s"] = end - start
        for key, value in work.items():
            self.count(layer, key, value)
        if self.trace:
            parent = self._stack[-1].span_id if self._stack else None
            self.round.spans.append(
                self._new_span(name, layer, start, end, parent))
            self.count(layer, "calls", 1)
        return result


def _array_mb(result):
    """Size of the arrays a stepping call returned, in MB."""
    total = sum(value.nbytes for value in vars(result).values()
                if isinstance(value, np.ndarray))
    return total / 1e6


class _Phase:
    def __init__(self, rec, name):
        self.rec = rec
        self.name = name

    def __enter__(self):
        self.start = time.perf_counter()
        if self.rec.trace:
            parent = self.rec._stack[-1].span_id if self.rec._stack else None
            span = self.rec._new_span(self.name, "bench", self.start,
                                      self.start, parent)
            self.rec._stack.append(span)
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if self.rec.trace:
            span = self.rec._stack.pop()
            span.end = self.start + self.elapsed
            self.rec.round.spans.append(span)
        return False


def self_times(spans):
    """Self time per span id: duration minus the union of its children."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted(children.get(span.span_id, ())):
            lo, hi = max(lo, cursor), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.span_id] = (span.end - span.start) - covered
    return out


def layer_table(record):
    """Per-layer busy (self) time and counters of one traced round."""
    selfs = self_times(record.spans)
    table = {}
    for layer in LAYERS:
        table[layer] = {"busy_s": 0.0, "calls": 0}
        for key in COUNTERS.get(layer, ()):
            table[layer][key] = 0
    for span in record.spans:
        if span.layer in table:
            table[span.layer]["busy_s"] += selfs[span.span_id]
    for layer, counters in record.counters.items():
        for key, value in counters.items():
            table[layer][key] = table[layer].get(key, 0) + value
    return table


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(workload, rec, seed, seconds, size, out_dir, trace):
    """Whole rounds until the next one would overrun ``seconds``.

    Each round builds fresh inputs from (seed, round index), builds the
    models (setup), runs the job and checks its outputs.  In a traced run the
    rounds alternate traced / untraced so that the tracing overhead is the
    difference of the two medians.  Returns (records, failures).
    """
    records = []
    failures = []
    start = time.perf_counter()
    min_rounds = 4 if trace else 3
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        if index >= min_rounds:
            per_round = elapsed / index
            if elapsed + per_round > seconds:
                break
        traced = trace and index % 2 == 0
        record = rec.begin_round(traced)
        inputs = workload.make_inputs(seed, index, size)
        try:
            with rec.phase("setup") as ph:
                models = workload.setup(rec, inputs)
            record.setup_s = ph.elapsed
            with rec.phase("job") as ph:
                outputs = workload.run(rec, models, inputs, out_dir)
            record.wall_s = ph.elapsed
        except OperationFailed as err:
            failures.append(f"round {index}: {err}")
            index += 1
            continue
        problems = workload.check(outputs, inputs)
        failures.extend(f"round {index}: {p}" for p in problems)
        records.append(record)
        del outputs, models, inputs
        index += 1
    return records, failures


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(records):
    return {
        "setup_s": {"value": median([r.setup_s for r in records]),
                    "unit": "s"},
        "wall_s": {"value": median([r.wall_s for r in records]), "unit": "s"},
        "replica_steps_per_s": {
            "value": median([r.replica_steps / r.step_s for r in records
                             if r.step_s > 0]),
            "unit": "replica-steps/s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


PER_LAYER_UNITS = {
    "busy_s": "s", "calls": "count", "replica_steps": "count",
    "noise_draws": "count", "bath_mode_steps": "count", "stored_mb": "MB",
    "write_s": "s", "written_mb": "MB", "samples": "count",
}


def per_layer_metrics(records):
    traced = [r for r in records if r.traced]
    plain = [r for r in records if not r.traced]
    tables = [layer_table(r) for r in traced]
    metrics = {}
    for layer in LAYERS:
        for key, unit in PER_LAYER_UNITS.items():
            if key in ("busy_s", "calls") or key in COUNTERS.get(layer, ()):
                metrics[f"{layer}.{key}"] = {
                    "value": median([t[layer][key] for t in tables]),
                    "unit": unit}
    step_ns = median([r.step_s / r.replica_steps * 1e9 for r in traced
                      if r.replica_steps])
    metrics["simulate.ns_per_replica_step"] = {"value": step_ns, "unit": "ns"}
    metrics["trace.overhead_s"] = {
        "value": median([r.wall_s for r in traced])
        - median([r.wall_s for r in plain]),
        "unit": "s"}
    return metrics


def format_table(workload_name, metrics):
    lines = [f"per-layer table ({workload_name}, median of traced rounds)",
             f"{'layer':<12}{'busy_s':>12}{'calls':>9}  counters"]
    for layer in LAYERS:
        busy = metrics[f"{layer}.busy_s"]["value"]
        calls = metrics[f"{layer}.calls"]["value"]
        extra = ", ".join(
            f"{key}={metrics[f'{layer}.{key}']['value']:.6g}"
            for key in COUNTERS.get(layer, ()))
        lines.append(f"{layer:<12}{busy:>12.6f}{calls:>9.0f}  {extra}")
    lines.append(f"simulate.ns_per_replica_step = "
                 f"{metrics['simulate.ns_per_replica_step']['value']:.1f}")
    lines.append(f"trace.overhead_s = {metrics['trace.overhead_s']['value']:.6f}")
    return "\n".join(lines)


def write_spans(path, records):
    spans = [vars(s) for r in records if r.traced for s in r.spans]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(spans, handle)
