"""Outside-in span tracer: wraps the package's public functions from outside.

Each wrapper is installed at the name its callers look up at call time, so
the package's own code is never edited.  ``training`` imports
``stack_forward`` with ``from .layer import``, so that binding is wrapped as
``training.stack_forward``; ``layer`` and ``decoders`` call primitives as
``dn.<name>``, so those are wrapped on ``brgcn.diffnum``; methods are
wrapped on their class.

Spans (name, start, end, parent) are kept in memory in flat arrays while
tracing is on and aggregated, or written to disk, afterwards.  Self time is
a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

import numpy as np

# diffnum primitives the layer, decoders and losses call through ``dn.``.
DIFFNUM_OPS = (
    "add", "sub", "neg", "mul", "matmul", "dot", "concat", "stack", "reshape",
    "transpose", "take", "tsum", "exp", "log", "sigmoid", "relu", "leaky_relu",
    "softmax", "softmax_rows", "segment_sum", "segment_softmax", "l2_norm", "clip_min",
)


def _targets(brgcn):
    """(owner, attribute, span name, measure) for every wrapped entry point.

    ``measure(args, result)`` returns a number summed into a counter named
    after the span, or None.
    """
    dn, hg, lay, tr, dec, ev = (
        brgcn.diffnum, brgcn.hetgraph, brgcn.layer, brgcn.training, brgcn.decoders, brgcn.evalkit
    )
    out = [
        (hg.HeteroGraph, "from_triples", "hetgraph.from_triples", None),
        (hg, "augment", "hetgraph.augment", None),
        (hg, "with_triples", "hetgraph.with_triples", None),
        (hg, "load_triples", "hetgraph.load_triples", None),
        (hg, "load_labels", "hetgraph.load_labels", None),
        (hg, "load_node_split", "hetgraph.load_node_split", None),
        (hg, "load_triple_split", "hetgraph.load_triple_split", None),
        (tr, "stack_forward", "layer.stack_forward", None),
        (lay, "stack_forward", "layer.stack_forward", None),
        (lay, "layer_forward", "layer.layer_forward", None),
        (dn.Tape, "backward", "diffnum.backward", lambda args, res: len(args[0])),
        (tr, "train_node_classifier", "training.train_node_classifier", None),
        (tr, "train_link_predictor", "training.train_link_predictor", None),
        (tr, "optimize", "training.optimize", None),
        (tr, "nc_loss", "training.nc_loss", None),
        (tr, "lp_loss", "training.lp_loss", None),
        (tr.Adam, "step", "training.adam_step", None),
        (tr.NodeClassificationModel, "predict", "training.predict", None),
        (tr.LinkPredictionModel, "embeddings", "training.embeddings", None),
        (tr.LinkPredictionModel, "score_fn", "training.score_fn", None),
        (tr, "negative_sample", "training.negative_sample", lambda args, res: len(res)),
        (dec, "score_triples", "decoders.score_triples", None),
        (dec, "score", "decoders.score", None),
        (ev, "rank_triples", "evalkit.rank_triples", None),
        (ev, "accuracy", "evalkit.accuracy", None),
    ]
    out += [(dn, op, f"diffnum.{op}", None) for op in DIFFNUM_OPS]
    return out


class Tracer:
    """Collects spans from wrapped calls while ``active()`` is entered."""

    def __init__(self, brgcn):
        self._brgcn = brgcn
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.measured: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []

    def _wrap(self, name: str, fn: Callable, measure) -> Callable:
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, name_id, parent, start, end = (
            self._stack, self.name_id, self.parent, self.start, self.end
        )
        clock = time.perf_counter
        measured = self.measured[name]
        wrap_result = self._wrap_score_closure if name == "training.score_fn" else None

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if measure is not None:
                measured.append(measure(args, result))
            if wrap_result is not None:
                result = wrap_result(result)
            return result

        return traced

    def _wrap_score_closure(self, fn: Callable) -> Callable:
        # The scorer returned by LinkPredictionModel.score_fn is training-module
        # code that evalkit calls once per candidate; without its own span its
        # per-call overhead would be booked as evalkit self time.
        return self._wrap("training.score_closure", fn, None)

    @contextmanager
    def active(self):
        """Install every wrapper, yield, then restore the original bindings."""
        saved = []
        try:
            for owner, attr, name, measure in _targets(self._brgcn):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, measure))
                else:
                    wrapped = self._wrap(name, raw, measure)
                saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


class SpanSummary:
    """Per-name busy time, self time, call counts and per-module busy time."""

    def __init__(self, tracer: Tracer):
        names = tracer.names
        name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
        parent = np.frombuffer(tracer.parent, dtype=np.int32)
        dur = np.frombuffer(tracer.end, dtype=np.float64) - np.frombuffer(tracer.start, dtype=np.float64)
        n = dur.size
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=n)[:n]
        self_t = dur - child
        k = len(names)
        self.incl = dict(zip(names, np.bincount(name_id, weights=dur, minlength=k)))
        self.self_time = dict(zip(names, np.bincount(name_id, weights=self_t, minlength=k)))
        self.calls = dict(zip(names, np.bincount(name_id, minlength=k).tolist()))
        self.measured = {key: list(v) for key, v in tracer.measured.items()}
        self.root_s = float(dur[parent < 0].sum())

        # Busy time of a module: spans with no enclosing span of the same module.
        modules = sorted({s.split(".")[0] for s in names})
        mod_of_name = np.array([modules.index(s.split(".")[0]) for s in names], dtype=np.int64)
        mod = mod_of_name[name_id] if n else np.zeros(0, dtype=np.int64)
        par, modl = parent.tolist(), mod.tolist()
        enc = [0] * n  # bitmask of the modules of all enclosing spans
        for i in range(n):  # parents precede children
            p = par[i]
            if p >= 0:
                enc[i] = enc[p] | (1 << modl[p])
        outer = ((np.array(enc, dtype=np.int64) >> mod) & 1) == 0
        busy = np.bincount(mod[outer], weights=dur[outer], minlength=len(modules))
        self.module_busy = dict(zip(modules, busy.tolist()))

    def incl_of(self, *names: str) -> float:
        return float(sum(self.incl.get(n, 0.0) for n in names))

    def self_of(self, *names: str) -> float:
        return float(sum(self.self_time.get(n, 0.0) for n in names))

    def calls_of(self, *names: str) -> int:
        return int(sum(self.calls.get(n, 0) for n in names))
