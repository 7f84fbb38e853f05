"""Span tracing for the benchmark's traced run.

The tracer wraps the public functions of each ldconv module by patching the
module or class attribute at the place the caller looks it up (for example
``ldconv.layer.bilinear_sample``, not ``ldconv.sampler.bilinear_sample``).
Every call records a span ``[name, start, end, parent, step, instance,
in_round]``; spans stay in memory and are written out once at exit.  A
span's self time is its duration minus the time its child spans cover, so
the self times of all spans under a root add up to the root's duration.

Work counts (samples, clamped coordinates, modelled bytes, multiply-adds) are
taken after the traced call returns, inside their own ``trace.overhead``
span, so that the arithmetic does not land in any module's self time.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

ROUND = "bench.round"
OVERHEAD = "trace.overhead"

# Per-module self times reported for every workload (ms per timed step).
MODULE_SPANS = (
    "sampler.sample", "sampler.backward",
    "layer.forward", "layer.aggregate", "layer.assemble_grid", "layer.backward",
    "tensor.pad2d", "tensor.write_tensors",
    "training.synthetic_bars", "training.net.forward", "training.net.backward",
    "training.net.offset_fields", "training.loss", "training.train",
    "training.evaluate",
    "analysis.average_offset",
    "cli.main",
)
# Spans reported per TinyNet layer instance (layer.ld1.* / layer.ld2.*).
INSTANCE_SPANS = ("layer.forward", "layer.backward", "layer.aggregate",
                  "layer.assemble_grid", "sampler.sample", "sampler.backward",
                  "tensor.pad2d")
INSTANCES = ("ld1", "ld2")
# Spans whose inclusive per-call median is reported (ms per call).
CALL_SPANS = ("layer.forward", "layer.backward", "sampler.backward")


def _short(name: str) -> str:
    """layer.forward -> forward, sampler.sample -> sampler.sample (per instance)."""
    return name[len("layer."):] if name.startswith("layer.") else name


def per_layer_names() -> list[str]:
    """Every per-layer metric name the traced run reports, in output order."""
    names = [f"{span}.self_ms" for span in MODULE_SPANS]
    names += ["sampler.samples", "sampler.bytes_computed", "sampler.clamp_fraction",
              "layer.macs", "layer.calls", "tensor.write_tensors.bytes"]
    names += [f"{span}.call_ms" for span in CALL_SPANS]
    for inst in INSTANCES:
        names += [f"layer.{inst}.{_short(span)}.self_ms" for span in INSTANCE_SPANS]
        names += [f"layer.{inst}.{_short(span)}.call_ms" for span in CALL_SPANS]
        names += [f"layer.{inst}.samples", f"layer.{inst}.clamp_fraction"]
    names += ["trace.step_ms", "trace.module_self_ms", "trace.glue_ms",
              "trace.overhead_ms", "trace.img_per_s"]
    return names


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("img_per_s"):
        return "img/s"
    if name.endswith("clamp_fraction"):
        return "fraction"
    if name.endswith("bytes") or name.endswith("bytes_computed"):
        return "B"
    return "count"


class Tracer:
    """In-memory span recorder plus exact work counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.step = -1                        # id of the timed step in progress
        self._stack: list[int] = []
        self._instances: dict[int, str] = {}  # id(LdconvLayer) -> "ld1" / "ld2"
        self.counts: dict[tuple, int] = defaultdict(int)

    # -- recording -------------------------------------------------------------

    def _open(self, name: str, instance: str | None) -> list:
        parent = self._stack[-1] if self._stack else -1
        in_round = name == ROUND
        if parent >= 0:
            prec = self.spans[parent]
            instance = instance or prec[5]
            in_round = in_round or prec[6]
        rec = [name, 0.0, 0.0, parent, self.step, instance, in_round]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def round(self, fn):
        """Run fn() as one measured round (the root span of its work)."""
        rec = self._open(ROUND, None)
        try:
            return fn()
        finally:
            self._close(rec)

    def wrap(self, name: str, fn, *, layer_arg: bool = False, before=None, after=None):
        """Return fn wrapped in a span.

        layer_arg: args[0] is an LdconvLayer whose registered instance name
        labels the span.  before(args) runs ahead of the span; after(inst,
        args, result) runs once the span has closed, inside a trace.overhead
        span, and only for calls inside a measured round.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            inst = tracer._instances.get(id(args[0])) if layer_arg else None
            rec = tracer._open(name, inst)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if after is not None and rec[6]:
                extra = tracer._open(OVERHEAD, rec[5])
                try:
                    after(rec[5], args, out)
                finally:
                    tracer._close(extra)
            return out
        return traced

    def name_layers(self, args) -> None:
        """Label a TinyNet's layers so their spans report per instance."""
        net = args[0]
        self._instances[id(net.ld1)] = "ld1"
        self._instances[id(net.ld2)] = "ld2"

    def count(self, inst: str | None, key: str, value: int) -> None:
        self.counts[(None, key)] += value
        if inst is not None:
            self.counts[(inst, key)] += value

    # -- counters taken after a call -------------------------------------------

    def after_sample(self, inst, args, out) -> None:
        x, grid = args[0], args[1]
        _, c_n, h_in, w_in = x.dims
        samples = grid.rows.size
        clamped = int(np.count_nonzero((grid.rows < 0) | (grid.rows > h_in - 1))) \
            + int(np.count_nonzero((grid.cols < 0) | (grid.cols > w_in - 1)))
        self.count(inst, "samples", samples)
        self.count(inst, "coords", 2 * samples)
        self.count(inst, "clamped", clamped)
        # 2 coordinates and 4 corners of C values read, C values written
        self.count(inst, "bytes", x.data.itemsize * samples * (2 + 5 * c_n))

    def after_sample_backward(self, inst, args, out) -> None:
        x, grid = args[0], args[1]
        c_n = x.dims[1]
        samples = grid.rows.size
        # coordinates, 4 corner gathers and upstream read; 2 coordinate
        # gradients written; 4 scatter-adds of C values into the input gradient
        self.count(inst, "bytes", x.data.itemsize * samples * (4 + 9 * c_n))

    def after_layer_forward(self, inst, args, out) -> None:
        layer, x = args[0], args[1]
        b_n, _, h_in, w_in = x.dims
        self.count(inst, "macs", b_n * layer.flops_estimate(h_in, w_in))
        self.count(inst, "layer_calls", 1)

    def after_layer_backward(self, inst, args, out) -> None:
        self.count(inst, "layer_calls", 1)

    def after_write(self, inst, args, out) -> None:
        self.count(None, "write_bytes", os.path.getsize(args[0]))

    # -- installation ----------------------------------------------------------

    def install(self, patches) -> None:
        """Wrap every public function the workloads reach, where it is used."""
        from ldconv import analysis, cli, layer, training

        def put(owner, attr, name, **kw):
            patches.set(owner, attr, self.wrap(name, getattr(owner, attr), **kw))

        put(layer, "bilinear_sample", "sampler.sample", after=self.after_sample)
        put(layer, "bilinear_backward", "sampler.backward",
            after=self.after_sample_backward)
        cls = layer.LdconvLayer
        put(cls, "forward", "layer.forward", layer_arg=True,
            after=self.after_layer_forward)
        put(cls, "backward", "layer.backward", layer_arg=True,
            after=self.after_layer_backward)
        put(cls, "aggregate", "layer.aggregate", layer_arg=True)
        put(cls, "assemble_grid", "layer.assemble_grid", layer_arg=True)
        put(layer, "pad2d", "tensor.pad2d")
        put(training, "write_tensors", "tensor.write_tensors", after=self.after_write)
        put(training, "synthetic_bars", "training.synthetic_bars")
        put(cli, "synthetic_bars", "training.synthetic_bars")
        net = training.TinyNet
        put(net, "forward", "training.net.forward", before=self.name_layers)
        put(net, "backward", "training.net.backward", before=self.name_layers)
        put(net, "offset_fields", "training.net.offset_fields", before=self.name_layers)
        put(training, "softmax_cross_entropy", "training.loss")
        put(training, "train", "training.train")
        put(cli, "train", "training.train")
        put(training, "evaluate", "training.evaluate")
        put(analysis, "average_offset", "analysis.average_offset")
        put(cli, "average_offset", "analysis.average_offset")
        put(cli, "main", "cli.main")

    # -- reporting -------------------------------------------------------------

    def self_times(self) -> dict[tuple, float]:
        """Self seconds per (instance or None, span name), measured rounds only."""
        covered = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                covered[rec[3]] += rec[2] - rec[1]
        out: dict[tuple, float] = defaultdict(float)
        for rec, child in zip(self.spans, covered):
            if rec[6]:
                own = rec[2] - rec[1] - child
                out[(None, rec[0])] += own
                if rec[5] is not None:
                    out[(rec[5], rec[0])] += own
        return out

    def call_medians(self) -> dict[tuple, float]:
        """Median inclusive ms per call per (instance or None, span name)."""
        calls: dict[tuple, list] = defaultdict(list)
        for rec in self.spans:
            if rec[6] and rec[0] in CALL_SPANS:
                calls[(None, rec[0])].append(rec[2] - rec[1])
                if rec[5] is not None:
                    calls[(rec[5], rec[0])].append(rec[2] - rec[1])
        return {key: 1e3 * statistics.median(vals) for key, vals in calls.items()}

    def metrics(self, steps: list[float], rounds: int, img_per_s: float) -> dict[str, float]:
        """Per-layer metrics: self ms and counts per timed step, except
        tensor.write_tensors.bytes, which is per round."""
        n_steps = len(steps)
        selfs = self.self_times()
        calls = self.call_medians()
        ms = lambda key: 1e3 * selfs.get(key, 0.0) / n_steps  # noqa: E731
        per_step = lambda key: self.counts.get(key, 0) / n_steps  # noqa: E731

        def fraction(inst):
            coords = self.counts.get((inst, "coords"), 0)
            return self.counts.get((inst, "clamped"), 0) / coords if coords else 0.0

        out = {f"{span}.self_ms": ms((None, span)) for span in MODULE_SPANS}
        out["sampler.samples"] = per_step((None, "samples"))
        out["sampler.bytes_computed"] = per_step((None, "bytes"))
        out["sampler.clamp_fraction"] = fraction(None)
        out["layer.macs"] = per_step((None, "macs"))
        out["layer.calls"] = per_step((None, "layer_calls"))
        out["tensor.write_tensors.bytes"] = self.counts.get((None, "write_bytes"), 0) / rounds
        for span in CALL_SPANS:
            out[f"{span}.call_ms"] = calls.get((None, span), 0.0)
        for inst in INSTANCES:
            for span in INSTANCE_SPANS:
                out[f"layer.{inst}.{_short(span)}.self_ms"] = ms((inst, span))
            for span in CALL_SPANS:
                out[f"layer.{inst}.{_short(span)}.call_ms"] = calls.get((inst, span), 0.0)
            out[f"layer.{inst}.samples"] = per_step((inst, "samples"))
            out[f"layer.{inst}.clamp_fraction"] = fraction(inst)
        wall = sum(rec[2] - rec[1] for rec in self.spans if rec[0] == ROUND)
        glue = selfs.get((None, ROUND), 0.0)
        overhead = selfs.get((None, OVERHEAD), 0.0)
        modules = sum(val for (inst, name), val in selfs.items()
                      if inst is None and name not in (ROUND, OVERHEAD))
        out["trace.step_ms"] = 1e3 * wall / n_steps
        out["trace.module_self_ms"] = 1e3 * modules / n_steps
        out["trace.glue_ms"] = 1e3 * glue / n_steps
        out["trace.overhead_ms"] = 1e3 * overhead / n_steps
        out["trace.img_per_s"] = img_per_s
        return out

    def write(self, path) -> None:
        """Write every span as one JSON row per line (gzip)."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "step",
                                 "instance", "in_round"]) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
