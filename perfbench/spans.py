"""Spans around growcl's public functions, recorded from outside the engine.

``Tracer.install()`` replaces each target function or method with a wrapper
that records a span (name, start, end, parent) and, for a few targets, a
content key. A function imported by name into several growcl modules (for
example ``project_gradient`` in both ``growcl.decisions`` and
``growcl.trainer``) is replaced under every one of those names, so every call
site is seen. ``Tracer.restore()`` puts every original back.

``layer_metrics()`` turns the spans of one traced run into the per-layer
metrics. A span's self time is its duration minus the time its child spans
cover; the layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import hashlib
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import growcl.autodiff
import growcl.decisions
import growcl.encoder
import growcl.pool
import growcl.snapshot
import growcl.stream
import growcl.subspace
import growcl.trainer

LAYERS = ("encoder", "autodiff", "decisions", "subspace", "pool", "trainer", "stream", "snapshot")

# Spans that are direct children of Engine.train_task, grouped by run phase.
# Children not listed (the pre-trained space, drift bookkeeping) count as other.
_PHASES = {
    "decide": {"decisions.hindrance_old", "decisions.threshold", "decisions.decide"},
    "transfer": {"decisions.probe", "decisions.select_transfer", "decisions.compose"},
    "train": {"encoder.forward_query", "encoder.loss_and_grads", "decisions.soft_constraint",
              "trainer.orthogonal_step"},
    "finalize": {"trainer.finalize"},
}


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.digest()


class Tracer:
    """Records spans in memory while installed; see the module docstring."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = []
        self.query_keys = []   # one content key per forward_query call
        self.probe_keys = []   # one content key per GradientProbe.gradient call
        self.encode_rows = 0
        self.retrieve_rows = 0
        self._patched = []     # (owner, attribute, original)

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(perf_counter())
        self.ends.append(0.0)
        self._stack.append(idx)
        try:
            yield
        finally:
            self.ends[idx] = perf_counter()
            self._stack.pop()

    def _note_encode(self, backbone, batch, *args, **kwargs):
        self.encode_rows += len(batch)

    def _note_query(self, backbone, batch):
        self.query_keys.append(_digest(batch))

    def _note_probe(self, probe, pset):
        arrays = [a for x, y in probe.batches for a in (x, y)]
        arrays += [np.asarray(probe.head_mask), probe.head.w, probe.head.b, pset.p, pset.k]
        self.probe_keys.append(_digest(*arrays))

    def _note_retrieve(self, pool, queries):
        self.retrieve_rows += len(queries)

    # -- installing wrappers ---------------------------------------------------

    def _wrap(self, fn, name, note=None):
        def wrapper(*args, **kwargs):
            if note is not None:
                note(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _patch_function(self, fn, name, note=None):
        wrapper = self._wrap(fn, name, note)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "growcl" or mod_name.startswith("growcl.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patched.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, attr, name, note=None):
        fn = vars(cls)[attr]
        self._patched.append((cls, attr, fn))
        setattr(cls, attr, self._wrap(fn, name, note))

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        ad, dec, enc, sub = growcl.autodiff, growcl.decisions, growcl.encoder, growcl.subspace
        functions = [
            (growcl.stream.generate, "stream.generate", None),
            (enc.pretrain_backbone, "encoder.pretrain", None),
            (enc.encode, "encoder.encode", self._note_encode),
            (enc.forward_query, "encoder.forward_query", self._note_query),
            (enc.forward_prompted, "encoder.forward_prompted", None),
            (enc.query_with_layers, "encoder.layers", None),
            (enc.prompted_with_layers, "encoder.layers", None),
            (enc.loss_and_grads, "encoder.loss_and_grads", None),
            (ad.gelu, "autodiff.gelu", None),
            (ad.softmax, "autodiff.softmax", None),
            (ad.layer_norm, "autodiff.layer_norm", None),
            (dec.project_gradient, "decisions.project_gradient", None),
            (dec.apply_soft_constraint, "decisions.soft_constraint", None),
            (dec.select_transfer_sets, "decisions.select_transfer", None),
            (dec.hindrance_for_old_set, "decisions.hindrance_old", None),
            (dec.dynamic_threshold, "decisions.threshold", None),
            (dec.decide, "decisions.decide", None),
            (dec.compose_prompts, "decisions.compose", None),
            (sub.k_rank_basis, "subspace.basis", None),
            (sub.extend_basis, "subspace.basis", None),
            (growcl.snapshot.save, "snapshot.save", None),
        ]
        methods = [
            (ad.Tensor, "backward", "autodiff.backward", None),
            (dec.GradientProbe, "gradient", "decisions.probe", self._note_probe),
            (growcl.pool.PromptPool, "retrieve_batch", "pool.retrieve", self._note_retrieve),
            (growcl.trainer.Engine, "train_task", "trainer.train_task", None),
            (growcl.trainer.Engine, "evaluate_after", "trainer.evaluate", None),
            (growcl.trainer.Engine, "finalize_task_space", "trainer.finalize", None),
            (growcl.trainer.Engine, "orthogonal_step", "trainer.orthogonal_step", None),
        ]
        try:
            for fn, name, note in functions:
                self._patch_function(fn, name, note)
            for cls, attr, name, note in methods:
                self._patch_method(cls, attr, name, note)
        except BaseException:
            self.restore()
            raise

    def restore(self):
        """Put back every original that ``install`` replaced."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- metrics -----------------------------------------------------------------

    def durations(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)

    def self_times(self) -> np.ndarray:
        dur = self.durations()
        own = dur.copy()
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[idx]
        return own


def _ratio(keys) -> float:
    """Distinct keys over calls; 1.0 means no call repeated an earlier one."""
    return len(set(keys)) / len(keys) if keys else 0.0


def layer_metrics(tracer: Tracer, engine, run_wall_s: float, traced_wall_s: float,
                  snapshot_bytes: int) -> dict:
    """Per-layer metrics of one traced run, as {name: value}.

    ``run_wall_s`` is the traced run phase (after set-up); ``traced_wall_s``
    covers set-up and run. ``trace.overhead_frac`` is left to the caller,
    which has the untraced runs to compare with.
    """
    names = tracer.names
    dur = tracer.durations()
    own = tracer.self_times()

    def total(*span_names):
        return float(sum(d for n, d in zip(names, dur) if n in span_names))

    def count(*span_names):
        return sum(1 for n in names if n in span_names)

    train_task = {i for i, n in enumerate(names) if n == "trainer.train_task"}
    phase = {key: 0.0 for key in _PHASES}
    steps = []
    for i, (n, parent) in enumerate(zip(names, tracer.parents)):
        if parent not in train_task:
            continue
        for key, members in _PHASES.items():
            if n in members:
                phase[key] += float(dur[i])
        if n == "encoder.loss_and_grads":
            steps.append(float(dur[i]) * 1e3)
    evaluate_s = total("trainer.evaluate")

    m = {}
    m["encoder.pretrain_s"] = total("encoder.pretrain")
    if len(steps) >= 2:
        deciles = statistics.quantiles(steps, n=10)
        m["encoder.train_step_ms.p50"] = statistics.median(steps)
        m["encoder.train_step_ms.p90"] = deciles[8]
    else:
        m["encoder.train_step_ms.p50"] = m["encoder.train_step_ms.p90"] = steps[0] if steps else 0.0
    m["encoder.train_steps"] = len(steps)
    m["encoder.encode_s"] = total("encoder.encode")
    m["encoder.encode_calls"] = count("encoder.encode")
    m["encoder.encode_rows"] = tracer.encode_rows
    m["encoder.forward_query_s"] = total("encoder.forward_query")
    m["encoder.forward_prompted_s"] = total("encoder.forward_prompted")
    m["encoder.layers_s"] = total("encoder.layers")
    m["encoder.query_unique_ratio"] = _ratio(tracer.query_keys)
    m["autodiff.backward_s"] = total("autodiff.backward")
    m["autodiff.backward_calls"] = count("autodiff.backward")
    for op in ("gelu", "softmax", "layer_norm"):
        m[f"autodiff.{op}_fwd_s"] = total(f"autodiff.{op}")
        m[f"autodiff.{op}_calls"] = count(f"autodiff.{op}")
    m["decisions.probe_s"] = total("decisions.probe")
    m["decisions.probe_calls"] = count("decisions.probe")
    m["decisions.probe_unique_ratio"] = _ratio(tracer.probe_keys)
    m["decisions.project_gradient_s"] = total("decisions.project_gradient")
    m["decisions.project_gradient_calls"] = count("decisions.project_gradient")
    m["decisions.soft_constraint_s"] = total("decisions.soft_constraint")
    m["decisions.select_transfer_s"] = total("decisions.select_transfer")
    m["subspace.basis_s"] = total("subspace.basis")
    m["subspace.basis_calls"] = count("subspace.basis")
    m["subspace.stored_rank"] = sum(
        b.rank for spaces in engine.memory.old_spaces.values() for b in spaces.values()
    )
    m["pool.retrieve_s"] = total("pool.retrieve")
    m["pool.retrieve_rows"] = tracer.retrieve_rows
    m["pool.size"] = len(engine.pool)
    for key in _PHASES:
        m[f"trainer.{key}_s"] = phase[key]
    m["trainer.evaluate_s"] = evaluate_s
    m["trainer.other_s"] = run_wall_s - sum(phase.values()) - evaluate_s
    m["stream.generate_s"] = total("stream.generate")
    m["snapshot.save_s"] = total("snapshot.save")
    m["snapshot.bytes"] = snapshot_bytes
    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(sum(o for n, o in zip(names, own) if n.split(".", 1)[0] == layer))
    m["trace.wall_s"] = traced_wall_s
    return m
