"""End-to-end optimization for node classification and link prediction.

Both tasks train full-batch with Adam.  All randomness of a run (parameter
init, dropout masks, negative sampling) flows from a single seeded
generator, so fixed-seed runs are bit-reproducible.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import logging
import os
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import decoders as dec
from . import diffnum as dn
from . import evalkit
from . import hetgraph as hg
from .diffnum import Tape, Tensor
from .layer import VARIANTS, AttentionTrace, BrgcnLayerParams, ConfigurationError, stack_forward

log = logging.getLogger(__name__)

LOG_CLAMP = 1e-12


class TrainingAbort(Exception):
    """Training hit a non-finite loss; message carries epoch and culprit."""


class SamplingExhaustedError(Exception):
    """No valid negative triple could be drawn."""


TASKS = ("node_classification", "link_prediction")


def check(problems_of: Callable[[Any], Iterable[str]]) -> dict:
    """Field metadata carrying a range check: ``problems_of(value)`` says what is wrong."""
    return {"check": problems_of}


def rule(test: Callable[[Any], bool], text: str) -> dict:
    """A check that reports ``"<text>, got <value>"`` when ``test(value)`` fails."""
    return check(lambda v: () if test(v) else (f"{text}, got {v}",))


def one_of(choices: tuple) -> dict:
    """A check that the value is one of ``choices``."""
    return check(lambda v: () if v in choices else (f"expected one of {choices}, got {v!r}",))


POSITIVE = rule(lambda v: v > 0, "must be positive")
NON_NEGATIVE = rule(lambda v: v >= 0, "must be non-negative")


def problems(cfg) -> Iterator[str]:
    """Every ``"key: message"`` the checks in the metadata of ``cfg``'s fields report."""
    for f in fields(cfg):
        if "check" in f.metadata:
            for message in f.metadata["check"](getattr(cfg, f.name)):
                yield f"{f.name}: {message}"


@dataclass(frozen=True)
class Hyperparameters:
    """The settings a training run and an experiment config file share.

    Each field is declared once, here, with its range check in its metadata;
    :func:`problems` runs the checks for both subclasses.
    """

    task: str = field(default="node_classification", metadata=one_of(TASKS))
    variant: str = field(default="full", metadata=one_of(VARIANTS))
    lr: float = field(default=0.05, metadata=POSITIVE)
    l2_penalty: float = field(default=0.0, metadata=NON_NEGATIVE)
    epochs: int = field(default=85, metadata=POSITIVE)
    hidden_units: int = field(default=16, metadata=POSITIVE)
    num_bases: int = field(default=0, metadata=NON_NEGATIVE)
    dropout: float = field(default=0.4, metadata=rule(lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)"))
    leaky_slope: float = 0.2
    omega: int = field(default=1, metadata=rule(lambda v: v >= 1, "must be at least 1"))
    beta: float = field(default=0.4, metadata=rule(lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"))
    num_layers: int = field(default=2, metadata=POSITIVE)
    encoder_layers: int = field(default=1, metadata=POSITIVE)
    add_inverse: bool = False
    add_self_loop: bool = False
    # epochs without validation improvement; 0 = off
    early_stop_patience: int = field(default=0, metadata=NON_NEGATIVE)


@dataclass(frozen=True)
class TrainConfig(Hyperparameters):
    """Hyperparameters of one training run."""

    seed: int = field(default=0, metadata=NON_NEGATIVE)

    def validate(self) -> None:
        found = list(problems(self))
        if found:
            raise ConfigurationError("; ".join(found))


@dataclass(frozen=True)
class TripleBatch:
    """Scored triples with their positive/negative indicator."""

    triples: tuple[tuple[int, int, int], ...]
    y: tuple[int, ...]

    def __post_init__(self):
        if len(self.triples) != len(self.y):
            raise ConfigurationError("triples and y must have equal length")
        y = np.asarray(self.y)
        if y.ndim != 1 or not np.isin(y, (0, 1)).all():
            raise ConfigurationError("y entries must be 0 or 1")


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def nc_loss(probs: Tensor, labels: hg.NodeLabels) -> Tensor:
    """Cross-entropy over labeled nodes: -sum_i ln p[i, class_i].

    ``probs`` holds per-node class probabilities (softmax already applied).
    Unlabeled nodes contribute nothing.  Probabilities are clamped at 1e-12
    before the log, with a warning, so a confidently wrong model yields a
    large finite loss instead of an overflow.
    """
    if probs.ndim != 2:
        raise dn.DimensionError(f"probs must be (N, K), got {probs.shape}")
    ids = np.asarray(labels.labeled_ids, dtype=np.intp)
    if ids.size == 0:
        raise ConfigurationError("nc_loss requires at least one labeled node")
    classes = np.array([labels.labels[i] for i in labels.labeled_ids])
    if probs.data[ids, classes].min() < LOG_CLAMP:
        log.warning("true-class probability below %g clamped in nc_loss", LOG_CLAMP)
    picked = dn.take(probs, ids)
    onehot = np.zeros((ids.size, probs.shape[1]))
    onehot[np.arange(ids.size), classes] = 1.0
    return dn.neg(dn.tsum(dn.mul(Tensor(onehot), dn.log(dn.clip_min(picked, LOG_CLAMP)))))


def lp_loss(batch: TripleBatch, scores: Tensor, e_prime_size: int, omega: int) -> Tensor:
    """Normalized binary cross-entropy over real and corrupted triples.

    L = c * sum_i [ y_i log l(a_i) + (1 - y_i) log(1 - l(a_i)) ] with
    l the logistic sigmoid and c = -1 / ((1 + omega) * |E'|); the negative
    constant makes the loss non-negative.  Saturated sigmoids are clamped at
    1e-12 inside the logs, with a warning.
    """
    if scores.ndim != 1 or scores.shape[0] != len(batch.triples):
        raise dn.DimensionError(
            f"scores shape {scores.shape} does not match batch size {len(batch.triples)}"
        )
    if e_prime_size <= 0:
        raise ConfigurationError("e_prime_size must be positive")
    c = -1.0 / ((1 + omega) * e_prime_size)
    probs = dn.sigmoid(scores)
    y = np.asarray(batch.y, dtype=np.float64)
    hit = ((y == 1) & (probs.data < LOG_CLAMP)) | ((y == 0) & (probs.data > 1.0 - LOG_CLAMP))
    if hit.any():
        log.warning("saturated sigmoid clamped in lp_loss for %d triple(s)", int(hit.sum()))
    pos = dn.mul(Tensor(y), dn.log(dn.clip_min(probs, LOG_CLAMP)))
    neg = dn.mul(Tensor(1.0 - y), dn.log(dn.clip_min(dn.sub(1.0, probs), LOG_CLAMP)))
    return dn.mul(dn.tsum(dn.add(pos, neg)), c)


# ---------------------------------------------------------------------------
# negative sampling
# ---------------------------------------------------------------------------


NEGATIVE_MAX_RETRIES = 100


def negative_sample(
    positive: tuple[int, int, int],
    graph: hg.HeteroGraph,
    rng: np.random.Generator,
    *,
    omega: int = 1,
    known: set[tuple[int, int, int]] | None = None,
) -> list[tuple[int, int, int]]:
    """Draw ``omega`` corrupted triples for one observed positive.

    Each draw replaces the head or the tail (equal probability) with a
    uniformly random entity; draws that reproduce a known positive are
    rejected and resampled (filtered negatives).  Raises
    :class:`SamplingExhaustedError` when NEGATIVE_MAX_RETRIES consecutive
    draws for one negative all land on known positives.
    """
    if graph.num_nodes == 0:
        raise SamplingExhaustedError("cannot sample negatives from an empty graph")
    known_set = graph.triple_set if known is None else known
    h, r, t = positive
    out = []
    for _ in range(omega):
        for attempt in range(NEGATIVE_MAX_RETRIES):
            corrupt_head = rng.random() < 0.5
            entity = int(rng.integers(graph.num_nodes))
            cand = (entity, r, t) if corrupt_head else (h, r, entity)
            if cand not in known_set:
                out.append(cand)
                break
        else:
            raise SamplingExhaustedError(
                f"no valid corruption of {positive} found in {NEGATIVE_MAX_RETRIES} draws"
            )
    return out


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction: moment decays ADAM_BETA1 and ADAM_BETA2, epsilon ADAM_EPS."""

    def __init__(self, params: Sequence[Tensor], lr: float):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        dn.zero_grad(self.params)

    def step(self) -> None:
        """One update, the moments and parameter data changed in place.

        Bit-equal to m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
        p = p - (lr*m_hat) / (sqrt(v_hat) + eps): the same operations in the same order.
        """
        self.t += 1
        c1, c2 = 1 - ADAM_BETA1**self.t, 1 - ADAM_BETA2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            part = np.multiply(g, 1 - ADAM_BETA1)
            m *= ADAM_BETA1
            m += part
            np.multiply(g, 1 - ADAM_BETA2, out=part)
            part *= g
            v *= ADAM_BETA2
            v += part
            den = np.divide(v, c2)
            np.sqrt(den, out=den)
            den += ADAM_EPS
            np.divide(m, c1, out=part)
            part *= self.lr
            part /= den
            p.data -= part


# glibc's mallopt parameter M_TOP_PAD (malloc.h): how much free memory the top of the heap
# keeps when it grows or is trimmed.  glibc documents 128 KiB as its default.
M_TOP_PAD = -2
GLIBC_TOP_PAD = 128 << 10
TRAINING_TOP_PAD = 32 << 20


@contextlib.contextmanager
def _kept_heap() -> Iterator[None]:
    """Keep up to TRAINING_TOP_PAD of freed heap for the next step, then restore glibc's default.

    Every step frees its transients when it ends; with the default pad glibc
    trims that memory and the next step faults it back in, page by page.
    Does nothing where libc is not glibc or where the user has set the pad
    (``MALLOC_TOP_PAD_``, or ``glibc.malloc.top_pad`` in ``GLIBC_TUNABLES``).
    Arrays above glibc's mmap threshold are mapped afresh either way.
    """
    libc, tunables = None, os.environ.get("GLIBC_TUNABLES", "")
    if "MALLOC_TOP_PAD_" not in os.environ and "glibc.malloc.top_pad" not in tunables:
        try:
            if os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
                libc = ctypes.CDLL(None)
        except (ValueError, OSError, AttributeError):  # no such name, no value, or no libc handle
            pass
    if libc is None:
        yield
        return
    libc.mallopt(M_TOP_PAD, TRAINING_TOP_PAD)
    try:
        yield
    finally:
        libc.mallopt(M_TOP_PAD, GLIBC_TOP_PAD)


@dataclass
class OptimizeResult:
    loss_curve: list[float] = field(default_factory=list)


def optimize(
    params: Sequence[Tensor],
    loss_fn: Callable[[int], Tensor],
    config: TrainConfig,
    *,
    on_epoch: Callable[[int, float], None] | None = None,
) -> OptimizeResult:
    """Run Adam for up to ``config.epochs`` full-batch steps.

    ``loss_fn(epoch)`` rebuilds the scalar loss; the l2 penalty (when
    configured) is added here as lambda * sum ||theta||^2 so it flows
    through the tape.  A non-finite loss aborts with the epoch number and
    the first offending parameter.  ``on_epoch`` may return a truthy value
    to stop training early (used for validation-based early stopping).
    The epochs run in :func:`_kept_heap`, so each step reuses the heap the
    first one grew.
    """
    config.validate()
    adam = Adam(params, lr=config.lr)
    result = OptimizeResult()
    with _kept_heap():
        for epoch in range(config.epochs):
            adam.zero_grad()
            try:
                with Tape() as tape:
                    loss = loss_fn(epoch)
                    if config.l2_penalty > 0.0:
                        penalty = functools.reduce(dn.add, (dn.tsum(dn.mul(p, p)) for p in params))
                        loss = dn.add(loss, dn.mul(penalty, config.l2_penalty))
                    tape.backward(loss)
            except dn.NumericError as err:
                raise TrainingAbort(f"epoch {epoch}: {err}; {_culprit(params)}") from err
            value = loss.item()
            if not np.isfinite(value):
                raise TrainingAbort(f"epoch {epoch}: non-finite loss; {_culprit(params)}")
            adam.step()
            result.loss_curve.append(value)
            if on_epoch is not None and on_epoch(epoch, value):
                break
    return result


def _culprit(params: Sequence[Tensor]) -> str:
    for p in params:
        if not np.isfinite(p.data).all() or (p.grad is not None and not np.isfinite(p.grad).all()):
            return f"offending parameter: {p.name or 'unnamed'}"
    return "offending parameter: none (loss computation itself overflowed)"


# ---------------------------------------------------------------------------
# task models
# ---------------------------------------------------------------------------


class _Model:
    """The subclass's layer stack ``layers``, run as its ``variant``, and checkpoint
    I/O over its ``params()``, keyed by parameter name."""

    def encode(
        self,
        graph: hg.HeteroGraph,
        *,
        training: bool = False,
        rng: np.random.Generator | None = None,
        collect_trace: bool = False,
    ) -> tuple[Tensor, list[AttentionTrace]]:
        """The layer stack's output on one-hot input, with one trace per layer."""
        return stack_forward(
            self.layers, None, graph, mode=self.variant, training=training, rng=rng, collect_trace=collect_trace
        )

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {p.name: p.data for p in self.params()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Load a checkpoint whose keys are exactly this model's parameter names.

        A per-relation checkpoint is converted first (:func:`_from_per_relation`).
        Every key and shape is checked before any parameter changes.
        """
        params = self.params()
        arrays = _from_per_relation(arrays, [p.name for p in params])
        unexpected = sorted(set(arrays) - {p.name for p in params})
        if unexpected:
            raise ConfigurationError(f"checkpoint has parameters the model lacks: {unexpected}")
        for p in params:
            if p.name not in arrays:
                raise ConfigurationError(f"checkpoint missing parameter {p.name!r}")
            if arrays[p.name].shape != p.data.shape:
                raise ConfigurationError(
                    f"checkpoint shape {arrays[p.name].shape} != expected {p.data.shape} for {p.name!r}"
                )
        for p in params:
            p.data = np.array(arrays[p.name], dtype=np.float64, order="C")


def _from_per_relation(arrays: dict[str, np.ndarray], names: Sequence[str]) -> dict[str, np.ndarray]:
    """``arrays`` with the per-relation format's keys moved to ``names``, with one warning.

    That format stored a layer group as ``<name>.0 .. <name>.{R-1}``, stacked
    here by :meth:`BrgcnLayerParams.stacked`, and the decoder's embeddings as
    ``decoder.rel`` and ``decoder.entity``, read as the configured kind's.
    """
    out = dict(arrays)
    for name in [n for n in names if n not in arrays]:
        group = name.rpartition(".")[2]
        if name.startswith("decoder.") and f"decoder.{group}" in out:
            out[name] = out.pop(f"decoder.{group}")
        rows = []
        while f"{name}.{len(rows)}" in out:
            rows.append(out.pop(f"{name}.{len(rows)}"))
        if rows:
            try:
                out[name] = BrgcnLayerParams.stacked(group, rows)
            except ValueError as err:
                raise ConfigurationError(f"checkpoint arrays {name}.<r> do not stack: {err}") from err
    if out.keys() != arrays.keys():
        log.warning("checkpoint in the per-relation format: its arrays were stacked into one per group")
    return out


def _check_memory(num_floats: int) -> None:
    """Refuse parameters whose four float64 copies (with gradients and Adam moments) exceed RAM."""
    need = 4 * 8 * num_floats
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") if hasattr(os, "sysconf") else need
    if need > have:
        raise ConfigurationError(
            f"parameters, gradients and Adam moments need about {need / 1e9:.1f} GB, more than "
            f"this machine's {have / 1e9:.1f} GB of memory; lower hidden_units"
        )


def _layer_stack(
    rng: np.random.Generator, dims: Sequence[int], graph: hg.HeteroGraph, cfg: Hyperparameters
) -> list[BrgcnLayerParams]:
    """Glorot-initialized layers ``layer{k}`` mapping width ``dims[k]`` to ``dims[k + 1]``."""
    r, b = graph.num_relations, cfg.num_bases
    _check_memory(sum(BrgcnLayerParams.num_floats(i, o, r, b) for i, o in zip(dims, dims[1:])))
    return [
        BrgcnLayerParams.create(
            rng,
            dims[k],
            dims[k + 1],
            graph.num_relations,
            num_bases=cfg.num_bases,
            leaky_slope=cfg.leaky_slope,
            dropout=cfg.dropout,
            prefix=f"layer{k}",
        )
        for k in range(len(dims) - 1)
    ]


class NodeClassificationModel(_Model):
    """Stacked layers with a per-node softmax head."""

    def __init__(self, layers: list[BrgcnLayerParams], variant: str):
        self.layers = layers
        self.variant = variant

    @classmethod
    def build(
        cls,
        rng: np.random.Generator,
        graph: hg.HeteroGraph,
        num_classes: int,
        cfg: TrainConfig,
    ) -> "NodeClassificationModel":
        dims = [graph.num_nodes] + [cfg.hidden_units] * (cfg.num_layers - 1) + [num_classes]
        return cls(_layer_stack(rng, dims, graph, cfg), cfg.variant)

    def params(self) -> list[Tensor]:
        return [t for lay in self.layers for t in lay.params()]

    def forward(self, graph: hg.HeteroGraph, **kwargs) -> tuple[Tensor, list[AttentionTrace]]:
        """Per-node class probabilities, the row softmax of :meth:`encode` given ``kwargs``."""
        h, traces = self.encode(graph, **kwargs)
        return dn.softmax_rows(h), traces

    def predict(self, graph: hg.HeteroGraph) -> np.ndarray:
        probs, _ = self.forward(graph)
        return probs.data.argmax(axis=1)


class LinkPredictionModel(_Model):
    """Encoder embeddings plus a triple-scoring decoder.

    In auto-encoder mode the entity embeddings are the encoder outputs on
    the training graph; in standalone mode they are free parameters owned by
    the decoder.
    """

    def __init__(self, encoder: list[BrgcnLayerParams] | None, decoder: dec.DecoderParams, variant: str):
        self.encoder = encoder
        self.decoder = decoder
        self.variant = variant

    layers = property(lambda self: self.encoder)  # the stack encode() runs

    @classmethod
    def build(
        cls,
        rng: np.random.Generator,
        graph: hg.HeteroGraph,
        num_score_relations: int,
        cfg: TrainConfig,
        decoder_kind: str,
        *,
        standalone: bool = False,
    ) -> "LinkPredictionModel":
        width = cfg.hidden_units
        if standalone:
            decoder = dec.DecoderParams.create(
                rng, decoder_kind, num_score_relations, width, num_entities=graph.num_nodes
            )
            return cls(None, decoder, cfg.variant)
        encoder = _layer_stack(rng, [graph.num_nodes] + [width] * cfg.encoder_layers, graph, cfg)
        decoder = dec.DecoderParams.create(rng, decoder_kind, num_score_relations, width)
        return cls(encoder, decoder, cfg.variant)

    def params(self) -> list[Tensor]:
        return [t for lay in self.encoder or () for t in lay.params()] + self.decoder.params()

    def embeddings(self, graph: hg.HeteroGraph, **kwargs) -> Tensor:
        """The entity embeddings: :meth:`encode` given ``kwargs``, or the standalone decoder's."""
        if self.encoder is None:
            return self.decoder.entity_emb
        return self.encode(graph, **kwargs)[0]

    def score_fn(self, graph: hg.HeteroGraph) -> Callable[..., np.ndarray]:
        """A deterministic eval-mode scorer ``fn(h, r, t)`` that broadcasts over id arrays.

        The entity and relation features are computed once, here; see
        :class:`decoders.Scorer` for the calls it answers with one matmul.
        """
        return dec.Scorer(self.decoder.kind, self.embeddings(graph).data, self.decoder.rel_emb.data)


# ---------------------------------------------------------------------------
# training pipelines
# ---------------------------------------------------------------------------


def run_graph(
    graph: hg.HeteroGraph, cfg: Hyperparameters, train_ids: Sequence[int] | None = None
) -> hg.HeteroGraph:
    """The graph a model of ``cfg`` trains and runs on, augmented per its flags.

    For link prediction pass ``train_ids``, the indexes of the training
    triples: messages then pass over those edges only, so valid and test
    triples never leak into the encoder input.
    """
    if train_ids is not None:
        graph = hg.with_triples(graph, graph.triples[list(train_ids)])
    return hg.augment(graph, cfg.add_inverse, cfg.add_self_loop)


@dataclass
class NCRun:
    model: NodeClassificationModel
    graph: hg.HeteroGraph  # the augmented training graph
    loss_curve: list[float]
    metrics_rows: list[tuple[int, float, float, str]]
    train_accuracy: float
    valid_accuracy: float | None
    test_accuracy: float | None
    traces: list[AttentionTrace]


def train_node_classifier(
    graph: hg.HeteroGraph,
    labels: hg.NodeLabels,
    split: hg.SplitSpec,
    cfg: TrainConfig,
) -> NCRun:
    """Full-batch semi-supervised classification training.

    The graph is augmented per the config flags, the model is trained on the
    ``split.train`` labels, and per-epoch metrics are recorded from an
    evaluation-mode forward pass (dropout off).  With a positive
    ``early_stop_patience`` and a non-empty validation split, training stops
    once the validation accuracy has not improved for that many epochs.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    g = run_graph(graph, cfg)
    model = NodeClassificationModel.build(rng, g, labels.num_classes, cfg)
    train_labels = labels.restrict(split.train)
    metrics_rows: list[tuple[int, float, float, str]] = []
    best_val = [-1.0, 0]  # best validation accuracy, epochs since improvement

    def loss_fn(epoch: int) -> Tensor:
        probs, _ = model.forward(g, training=True, rng=rng)
        return nc_loss(probs, train_labels)

    def on_epoch(epoch: int, loss_value: float) -> bool:
        pred = model.predict(g)
        train_acc = evalkit.accuracy(pred, labels, split.train)
        val = ""
        stop = False
        if split.valid:
            val_acc = evalkit.accuracy(pred, labels, split.valid)
            val = f"{val_acc:.17g}"
            if val_acc > best_val[0]:
                best_val[0], best_val[1] = val_acc, 0
            else:
                best_val[1] += 1
            stop = 0 < cfg.early_stop_patience <= best_val[1]
        metrics_rows.append((epoch, loss_value, train_acc, val))
        return stop

    result = optimize(model.params(), loss_fn, cfg, on_epoch=on_epoch)
    probs, traces = model.forward(g, collect_trace=True)
    pred = probs.data.argmax(axis=1)
    return NCRun(
        model=model,
        graph=g,
        loss_curve=result.loss_curve,
        metrics_rows=metrics_rows,
        train_accuracy=evalkit.accuracy(pred, labels, split.train),
        valid_accuracy=evalkit.accuracy(pred, labels, split.valid) if split.valid else None,
        test_accuracy=evalkit.accuracy(pred, labels, split.test) if split.test else None,
        traces=traces,
    )


@dataclass
class LPRun:
    model: LinkPredictionModel
    graph: hg.HeteroGraph  # augmented message-passing graph (training edges only)
    loss_curve: list[float]
    metrics_rows: list[tuple[int, float, float, str]]


def train_link_predictor(
    graph: hg.HeteroGraph,
    split: hg.SplitSpec,
    cfg: TrainConfig,
    decoder_kind: str,
    *,
    standalone: bool = False,
) -> LPRun:
    """Negative-sampled link-prediction training.

    Message passing and negative filtering use only the training edges;
    scores for valid/test triples never leak into the encoder input.  Each
    epoch draws ``omega`` fresh corruptions per positive.  The metrics
    ``train_acc`` column reports the fraction of batch triples whose score
    sign matches their label; the validation column is left empty, so a
    positive ``early_stop_patience`` is refused.
    """
    cfg.validate()
    if cfg.early_stop_patience:
        raise ConfigurationError(
            "early_stop_patience: link prediction records no validation metric to stop on; set it to 0"
        )
    rng = np.random.default_rng(cfg.seed)
    train_triples = tuple(map(tuple, graph.triples[list(split.train)].tolist()))
    if not train_triples:
        raise ConfigurationError("link prediction requires a non-empty training split")
    g_enc = run_graph(graph, cfg, split.train)
    model = LinkPredictionModel.build(
        rng, g_enc, graph.num_relations, cfg, decoder_kind, standalone=standalone
    )
    known = set(train_triples)
    metrics_rows: list[tuple[int, float, float, str]] = []
    last_batch_acc = [0.0]

    def loss_fn(epoch: int) -> Tensor:
        emb = model.embeddings(g_enc, training=True, rng=rng)
        negatives = []
        for pos in train_triples:
            negatives += negative_sample(pos, g_enc, rng, omega=cfg.omega, known=known)
        y = (1,) * len(train_triples) + (0,) * len(negatives)
        batch = TripleBatch(train_triples + tuple(negatives), y)
        scores = dec.score_triples(model.decoder, emb, batch.triples)
        correct = int(np.count_nonzero((scores.data > 0) == np.asarray(y, dtype=bool)))
        last_batch_acc[0] = 100.0 * correct / len(y)
        return lp_loss(batch, scores, e_prime_size=len(train_triples), omega=cfg.omega)

    def on_epoch(epoch: int, loss_value: float) -> None:
        metrics_rows.append((epoch, loss_value, last_batch_acc[0], ""))

    result = optimize(model.params(), loss_fn, cfg, on_epoch=on_epoch)
    return LPRun(
        model=model,
        graph=g_enc,
        loss_curve=result.loss_curve,
        metrics_rows=metrics_rows,
    )
