"""Span recorder for the traced run, installed from outside the program.

Nothing here edits the program. The traced run wraps, on live objects, the
public functions the workloads call and each module instance's `forward`
(keyed by its dotted path), and wraps every tape node's `_backward` closure
after `ComputationTape.trace` during the top-level backward. Spans stay in
memory as parallel lists and are written out when the run ends.

A span's self time is its duration minus the durations of its direct
children; calls nest synchronously, so children never overlap. The wrappers
stay installed for the whole traced run; while the tracer is switched off
they pass straight through, so traced and untraced ops can alternate.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

from hirisk import model as model_mod, scenes
from hirisk.autograd import ComputationTape, Tensor
from hirisk.modules import Module

# Backward ops timed one by one; every other `_op` goes to ops.bwd.other_ms.
BWD_OPS = ("matmul", "layer_norm", "depthwise_conv3d", "conv2d", "softmax_rows", "add",
           "gelu", "mul", "reshape", "swapaxes", "getitem", "concat")

# Forward roll-ups: metric -> span-name prefixes whose self times it sums.
# Module spans are "fwd:<dotted path>"; the encoder's and the LM's
# TransformerBlocks share a class, so only the path tells them apart.
FWD_ROLLUPS = {
    "encoder.blocks_fwd_ms": ("fwd:encoder.blocks",),
    "encoder.adapters_fwd_ms": ("fwd:encoder.adapters",),
    "encoder.pooler_fwd_ms": ("fwd:encoder.pooler",),
    "encoder.embed_ms": ("fwd:encoder.embed", "fwd:encoder.patch_proj"),
    "hrbranch.cnn_fwd_ms": ("fwd:cnn",),
    "hrbranch.highlight_ms": ("fwd:highlighter",),
    "hrbranch.incorporation_fwd_ms": ("fwd:incorporation",),
    "hrbranch.detector_fwd_ms": ("fwd:detector",),
    "lm.blocks_fwd_ms": ("fwd:lm.blocks",),
}

# Inclusive span times reported per workload op, metric -> span name.
INCLUSIVE = {
    "train.make_batch_ms": "train.make_batch",
    "model.forward_train_ms": "model.forward_train",
    "autograd.backward_ms": "autograd.backward",
    "optim.step_ms": "optim.step",
    "model.encode_scene_ms": "model.encode_scene",
    "lm.greedy_decode_ms": "lm.greedy_decode",
    "metrics.evaluate_ms": "metrics.evaluate",
}

# Inclusive span times reported per set-up, metric -> span name. Only the
# decode workload's set-up writes and reads files.
SETUP_INCLUSIVE = {
    "scenes.save_dataset_ms": "scenes.save_dataset",
    "scenes.load_dataset_ms": "scenes.load_dataset",
    "train.save_checkpoint_ms": "train.save_checkpoint",
    "train.load_checkpoint_ms": "train.load_checkpoint",
}

# Counters reported per workload op, with their units.
COUNTS = {
    "autograd.tape_nodes": "count",
    "autograd.grad_nodes_built": "count",
    "lm.positions_processed": "count",
}

# Counters reported per set-up, with their units.
SETUP_COUNTS = {
    "scenes.bytes_written": "bytes",
    "train.checkpoint_bytes": "bytes",
}


def layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {name: "ms" for name in INCLUSIVE}
    units["scenes.generate_scene_ms"] = "ms"
    units.update({name: "ms" for name in SETUP_INCLUSIVE})
    units.update({name: "ms" for name in FWD_ROLLUPS})
    units["model.box_head_ms"] = "ms"
    units["lm.forward_hidden_calls"] = "count"
    units.update(COUNTS)
    units.update(SETUP_COUNTS)
    for op in BWD_OPS:
        units[f"ops.bwd.{op}_ms"] = "ms"
        units[f"ops.bwd.{op}_calls"] = "count"
    units["ops.bwd.other_ms"] = "ms"
    units["trace.overhead_pct"] = "%"
    units["trace.accounted_pct"] = "%"
    return units


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer.open(self.name)

    def __exit__(self, *exc):
        self.tracer.close(self.idx)


class NullTracer:
    """Stands in for the tracer on untraced ops: every hook is a no-op."""

    def activate(self):
        pass

    def span(self, name):
        return _NULL

    def add(self, name, value):
        pass

    def backward(self, loss):
        return loss.backward()


class _NullSpan:
    def __enter__(self):
        pass

    def __exit__(self, *exc):
        pass


_NULL = _NullSpan()


class _Off(NullTracer):
    """A tracer switched off for one op: its wrappers pass straight through."""

    def __init__(self, tracer):
        self.tracer = tracer

    def activate(self):
        self.tracer.enabled = False


class Tracer:
    def __init__(self):
        self.enabled = True
        # >0 inside the highlighter's heatmap, whose private tape is part of
        # the forward pass by design and so not counted as grad nodes built
        self.private_tape = 0
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.bwd_s: dict[str, float] = defaultdict(float)
        self.bwd_calls: dict[str, int] = defaultdict(int)
        self.in_backward = False

    def activate(self):
        self.enabled = True

    def off(self) -> _Off:
        """Stand-in that switches this tracer off for the ops it is handed to."""
        return _Off(self)

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def add(self, name: str, value) -> None:
        self.counts[name] += value

    def wrap(self, name: str, fn):
        def wrapped(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapped

    def backward(self, loss):
        """Top-level backward: one span, plus per-op closure timing."""
        self.in_backward = True
        try:
            with self.span("autograd.backward"):
                tape = loss.backward()
        finally:
            self.in_backward = False
        self.add("autograd.tape_nodes", len(tape))
        return tape

    def _timed_closure(self, op: str, fn):
        def run(grad):
            t0 = time.perf_counter()
            fn(grad)
            self.bwd_s[op] += time.perf_counter() - t0
            self.bwd_calls[op] += 1
        return run

    # -- installation -----------------------------------------------------------

    def install_globals(self) -> None:
        """Wrap process-wide entry points: scene generation and the tape."""
        scenes.generate_scene = self.wrap("scenes.generate_scene", scenes.generate_scene)

        trace = ComputationTape.trace.__func__
        tracer = self

        def traced_trace(cls, root):
            tape = trace(cls, root)
            # only the benchmark's own backward call; the highlighter's
            # private tape inside the forward pass is not a backward step
            if tracer.in_backward:
                for node in tape.nodes:
                    if node._backward is not None:
                        node._backward = tracer._timed_closure(node._op, node._backward)
            return tape

        ComputationTape.trace = classmethod(traced_trace)

        from_op = Tensor._from_op.__func__

        def counted_from_op(cls, data, parents, backward, op):
            out = from_op(cls, data, parents, backward, op)
            if tracer.enabled and out.requires_grad and not tracer.private_tape:
                tracer.counts["autograd.grad_nodes_built"] += 1
            return out

        Tensor._from_op = classmethod(counted_from_op)

    def install_model(self, model) -> None:
        """Wrap every submodule's forward by dotted path, plus the model's
        non-forward entry points the workloads reach."""
        for path, mod in _walk(model, ""):
            if hasattr(type(mod), "forward"):
                mod.forward = self.wrap("fwd:" + path, mod.forward)
        model.encode_scene = self.wrap("model.encode_scene", model.encode_scene)
        model.encoder.embed = self.wrap("fwd:encoder.embed", model.encoder.embed)
        model.lm.greedy_decode = self.wrap("lm.greedy_decode", model.lm.greedy_decode)
        if hasattr(model, "highlighter"):
            heatmap = self.wrap("fwd:highlighter.heatmap", model.highlighter.heatmap)

            def private_heatmap(*args, **kwargs):
                self.private_tape += 1
                try:
                    return heatmap(*args, **kwargs)
                finally:
                    self.private_tape -= 1

            model.highlighter.heatmap = private_heatmap
        model_mod.apply_highlight = self.wrap("fwd:highlighter.apply", model_mod.apply_highlight)

        lm = model.lm
        forward_hidden = self.wrap("lm.forward_hidden", lm.forward_hidden)

        def counted_forward_hidden(z_v, answer_ids):
            if self.enabled:
                self.counts["lm.positions_processed"] += (
                    z_v.shape[0] * (lm.prefix_len + answer_ids.shape[1])
                )
            return forward_hidden(z_v, answer_ids)

        lm.forward_hidden = counted_forward_hidden

    # -- reduction ----------------------------------------------------------------

    def _durations(self):
        """(duration, self time, parent index) arrays, one entry per span."""
        parents = np.asarray(self.parents, dtype=np.int64)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return dur, dur - child, parents

    def _totals(self):
        """Inclusive time, self time (s) and call count per span name."""
        dur, self_t, _ = self._durations()
        incl: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, d, s in zip(self.names, dur, self_t):
            incl[name] += d
            own[name] += s
            calls[name] += 1
        return incl, own, calls

    def layer_metrics(self, n_ops: int, op_wall_s: float, n_setups: int) -> dict[str, float]:
        """Per-layer figures: per workload op (a step or a batch), per set-up
        for the set-up's file I/O, and per call for scene generation."""
        incl, own, calls = self._totals()
        per = 1.0 / n_ops
        out = {metric: incl[name] * 1e3 * per for metric, name in INCLUSIVE.items()}
        out.update({metric: incl[name] * 1e3 / n_setups
                    for metric, name in SETUP_INCLUSIVE.items()})
        out["scenes.generate_scene_ms"] = (
            incl["scenes.generate_scene"] * 1e3 / max(calls["scenes.generate_scene"], 1))
        for metric, prefixes in FWD_ROLLUPS.items():
            total = sum(s for name, s in own.items()
                        if any(name == p or name.startswith(p + ".") for p in prefixes))
            out[metric] = total * 1e3 * per

        # box head: whatever decode does besides the trunk and the greedy loop,
        # i.e. the teacher-forced re-read of the generated tokens plus the detector
        dur, _, parents = self._durations()
        has_parent = parents >= 0
        names = np.asarray(self.names, dtype=object)
        is_decode = names == "model.decode"
        under_decode = has_parent & np.isin(parents, np.flatnonzero(is_decode))
        split_off = under_decode & np.isin(names, ["model.encode_scene", "lm.greedy_decode"])
        box_head = dur[is_decode].sum() - dur[split_off].sum()
        out["model.box_head_ms"] = box_head * 1e3 * per

        out["lm.forward_hidden_calls"] = calls["lm.forward_hidden"] * per
        for name in COUNTS:
            out[name] = self.counts[name] * per
        for name in SETUP_COUNTS:
            out[name] = self.counts[name] / n_setups
        for op in BWD_OPS:
            out[f"ops.bwd.{op}_ms"] = self.bwd_s[op] * 1e3 * per
            out[f"ops.bwd.{op}_calls"] = self.bwd_calls[op] * per
        other = sum(s for op, s in self.bwd_s.items() if op not in BWD_OPS)
        out["ops.bwd.other_ms"] = other * 1e3 * per

        top_level = dur[~has_parent & (names != "setup")].sum()
        out["trace.accounted_pct"] = 100.0 * top_level / op_wall_s
        return out

    def self_ms_by_span(self) -> dict[str, float]:
        """Total self time of every span name, in ms."""
        _, own, _ = self._totals()
        return {name: s * 1e3 for name, s in sorted(own.items())}

    def write(self, path) -> None:
        """Spans as JSON lines: name, start and end (s), parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in zip(self.names, self.starts, self.ends, self.parents):
                fh.write(json.dumps(rec) + "\n")


def _walk(mod: Module, prefix: str):
    for name, child in mod._children.items():
        path = prefix + name
        yield path, child
        yield from _walk(child, path + ".")
