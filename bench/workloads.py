"""The benchmark workloads: set-up, one measured round, and output checks.

Each workload is one user session through the package's public entry points,
the functions the CLI subcommands call: load the TSV inputs, train
(``train-nc``/``train-lp``), reload the checkpoint, run one eval-mode forward
that records attention (``export-attention``), then evaluate (``eval``).
The sessions differ in task, decoder and size, so each puts its weight on a
different layer; README.md gives the make-up and the reasons.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import brgcn
from brgcn import decoders, evalkit, layer, training
from brgcn import hetgraph as hg
from brgcn.diffnum import Tape, Tensor, load_checkpoint, save_checkpoint

import inputs
import refs
from meter import Meter, clock

NEAR_TIE = 1e-9  # reference scores this close to the target's may rank either way
MIN_UNTIED_ACCURACY = 0.7  # chance is 0.5 with two balanced classes
FD_HEADS = 8  # head nodes of the seeded subgraph for the gradient probe
FD_ENTRIES = 8
FD_EPS = 1e-6
LP_CHECK_TRIPLES = 200
RANK_CHUNK = 2  # test triples per evalkit.rank_triples call


@dataclass
class Round:
    """Timings and outputs of one measured round, in reference seconds.

    ``epoch_s`` holds one time per epoch, ``eval_s`` one per evaluation call,
    which scores ``eval_candidates`` candidates.
    """

    epoch_s: list[float]
    infer_s: list[float]
    eval_s: list[float]
    eval_candidates: int
    attempted: int
    failed: int = 0
    outputs: dict = field(default_factory=dict)


def _repeated(meter: Meter, times: int, fn, *args, **kwargs):
    """Call ``fn`` ``times`` times; the last output and every time."""
    outs, times_s = meter.series([lambda: fn(*args, **kwargs)] * times)
    return outs[-1], times_s


def _train(meter: Meter, pipeline, *args):
    """Run a training pipeline; its output and the time of each epoch.

    For the call, ``training.optimize`` is wrapped so that the pipeline's
    per-epoch callback also reads the clock and runs the calibration kernel.
    An epoch's time runs from the end of one callback to the end of the
    next: one optimizer step plus the pipeline's own per-epoch evaluation.
    """
    optimize = training.optimize
    epoch_s: list[float] = []
    cal = [meter.calibrate()]
    mark = [0.0]

    def stamped(params, loss_fn, config, *, on_epoch=None):
        def on_epoch_stamped(epoch, value):
            stop = on_epoch(epoch, value) if on_epoch is not None else None
            raw = clock() - mark[0]
            cal.append(meter.calibrate(nested=True))
            epoch_s.append(meter.scale(raw, cal[-2], cal[-1]))
            mark[0] = clock()
            return stop

        mark[0] = clock()
        return optimize(params, loss_fn, config, on_epoch=on_epoch_stamped)

    training.optimize = stamped
    try:
        run = pipeline(*args)
    finally:
        training.optimize = optimize
    return run, epoch_s


def _reload(model, trained, path: Path) -> None:
    """What ``train-*`` then ``eval`` do: checkpoint the trained model, load it."""
    save_checkpoint(path, trained.state_arrays())
    model.load_arrays(load_checkpoint(path))


# ---------------------------------------------------------------------------
# nc-onehot
# ---------------------------------------------------------------------------


class NodeClassification:
    name = "nc-onehot"
    epochs = 4
    infer_repeats = 4
    eval_repeats = 4

    def setup(self, seed: int, workdir: Path) -> dict:
        files = inputs.write_tsv(inputs.generate(self.name, seed), workdir)
        graph = hg.load_triples(files["triples"])
        labels = hg.load_labels(files["labels"], graph)
        split = hg.SplitSpec(
            hg.load_node_split(files["train_nodes"], graph),
            (),
            hg.load_node_split(files["test_nodes"], graph),
        )
        cfg = training.TrainConfig(epochs=self.epochs, seed=seed, add_self_loop=True)
        aug = hg.augment(graph, cfg.add_inverse, cfg.add_self_loop)
        model = training.NodeClassificationModel.build(
            np.random.default_rng(seed), aug, labels.num_classes, cfg
        )
        return dict(seed=seed, graph=graph, labels=labels, split=split, cfg=cfg, aug=aug,
                    model=model, ckpt=workdir / "checkpoint.npz")

    def measure(self, s: dict, meter: Meter) -> Round:
        run, epoch_s = _train(
            meter, training.train_node_classifier, s["graph"], s["labels"], s["split"], s["cfg"]
        )
        model, aug = s["model"], s["aug"]
        _reload(model, run.model, s["ckpt"])
        (probs, traces), infer_s = _repeated(
            meter, self.infer_repeats, model.forward, aug, collect_trace=True
        )
        accuracy, eval_s = _repeated(meter, self.eval_repeats, self._evaluate, model, aug, s)
        return Round(
            epoch_s=epoch_s,
            infer_s=infer_s,
            eval_s=eval_s,
            eval_candidates=aug.num_nodes * s["labels"].num_classes,
            attempted=len(run.loss_curve) + self.eval_repeats * len(s["split"].test),
            outputs=dict(loss=run.loss_curve, probs=probs.data, traces=traces,
                         accuracy=accuracy),
        )

    @staticmethod
    def _evaluate(model, aug, s: dict) -> float:
        """What ``eval`` does for classification: predict, then score the test split."""
        return evalkit.accuracy(model.predict(aug), s["labels"], s["split"].test)

    def probe(self, rnd: Round) -> None:
        """The bundled toy graph under the README quick-start config, 10 epochs.

        Its inputs never depend on the seed, and every "red" node's logits are
        ReLU'd to zero by the output layer, so its class probabilities tie at
        [0.5, 0.5].  Each tied test prediction counts as a failed operation
        until that fault is mended.
        """
        data = Path(brgcn.__file__).parent / "data"
        graph = hg.load_triples(data / "toy_nc_triples.tsv")
        labels = hg.load_labels(data / "toy_nc_labels.tsv", graph)
        split = hg.SplitSpec(
            hg.load_node_split(data / "toy_nc_train.txt", graph),
            (),
            hg.load_node_split(data / "toy_nc_test.txt", graph),
        )
        cfg = training.TrainConfig(epochs=10, dropout=0.0, add_self_loop=True, seed=0)
        run = training.train_node_classifier(graph, labels, split, cfg)
        probs, _ = run.model.forward(run.graph)
        tied = int(refs.tied_rows(probs.data[list(split.test)]).sum())
        rnd.attempted += len(split.test)
        rnd.failed += tied
        rnd.outputs["toy"] = (tied, len(split.test), run.test_accuracy)

    def check(self, s: dict, rounds: list[Round]) -> list[str]:
        last = rounds[-1].outputs
        for r in rounds[1:]:
            refs.check("loss curve repeats across rounds", r.outputs["loss"] == rounds[0].outputs["loss"])
        loss = last["loss"]
        refs.check(f"final loss {loss[-1]:.6g} below the first {loss[0]:.6g}", loss[-1] < loss[0])

        for k, trace in enumerate(last["traces"]):
            for key, g in trace.gamma.items():
                refs.assert_close(f"layer {k} gamma{key} sums to 1", g.sum(), 1.0, 1e-12)
            for i, p in trace.psi.items():
                refs.assert_close(f"layer {k} psi[{i}] rows sum to 1", p.sum(axis=1), np.ones(len(p)), 1e-12)

        out = self._check_layers(s, last["probs"])
        grad_err = self._check_gradients(s)

        labels, test = s["labels"], np.asarray(s["split"].test)
        probs = last["probs"][test]
        y = np.array([labels.labels[i] for i in test])
        argmax_hit = probs.argmax(axis=1) == y
        tied = refs.tied_rows(probs)
        untied_acc = float(np.sum(argmax_hit & ~tied) / max(1, np.sum(~tied)))
        refs.assert_close("evalkit.accuracy against argmax accuracy", last["accuracy"],
                          100.0 * argmax_hit.mean(), 1e-12)
        refs.check(f"untied test accuracy {untied_acc:.3f} below {MIN_UNTIED_ACCURACY}",
                   untied_acc >= MIN_UNTIED_ACCURACY)
        toy_tied, toy_n, toy_acc = last["toy"]
        return [
            f"layer outputs match the dense reference (max scaled error {out['err']:.1e})",
            f"gradients match central differences on {FD_ENTRIES} entries (max error {grad_err:.1e})",
            f"loss {loss[0]:.4f} -> {loss[-1]:.4f} over {len(loss)} epochs",
            f"output rows all zero: {out['zero_rows']} of {len(out['last'])}",
            f"test predictions tied: {int(tied.sum())} of {len(test)}",
            f"test accuracy: program (argmax) {last['accuracy']:.2f}%, ties counted wrong "
            f"{100.0 * np.mean(argmax_hit & ~tied):.2f}%, untied nodes only {100.0 * untied_acc:.2f}%",
            f"toy probe: {toy_tied} of {toy_n} test predictions tied (program reports {toy_acc:.1f}%)",
        ]

    @staticmethod
    def _check_layers(s: dict, probs: np.ndarray) -> dict:
        """Each trained layer's eval-mode output against ``refs.dense_layer``."""
        aug, model = s["aug"], s["model"]
        h = np.eye(aug.num_nodes)
        err = 0.0
        for k, lay in enumerate(model.layers):
            out, trace = layer.layer_forward(lay, Tensor(h), aug, collect_trace=True)
            ref, gamma, psi, _ = refs.dense_layer(
                h, aug.triples, aug.num_relations,
                [a.data for a in lay.a],
                [w.data for w in lay.w_query], [w.data for w in lay.w_key],
                [w.data for w in lay.w_value], lay.w_self.data, lay.leaky_slope,
            )
            err = max(err, refs.assert_close(f"layer {k} output", out.data, ref, 1e-10))
            for (i, r), g in trace.gamma.items():
                refs.assert_close(f"layer {k} gamma({i},{r})", g,
                                  gamma[r, i, list(aug.neighbors(i, r))], 1e-10)
            for i, p in trace.psi.items():
                rels = list(trace.rel_order[i])
                refs.assert_close(f"layer {k} psi[{i}]", p, psi[i][np.ix_(rels, rels)], 1e-10)
            h = out.data
        e = np.exp(h - h.max(axis=1, keepdims=True))
        refs.assert_close("forward probabilities", probs, e / e.sum(axis=1, keepdims=True), 1e-10)
        return dict(err=err, last=h, zero_rows=int(np.sum(~h.any(axis=1))))

    @staticmethod
    def _check_gradients(s: dict) -> float:
        """Tape gradients of the NC loss against central differences.

        The loss is taken on a seeded subgraph (the out-edges of FD_HEADS
        random labeled nodes) so each finite difference costs one small
        forward pass; half of the probed entries have a non-zero tape gradient.
        """
        rng = np.random.default_rng((s["seed"], 0xFD))
        graph, labels = s["graph"], s["labels"]
        heads = set(rng.choice(np.asarray(labels.labeled_ids), FD_HEADS, replace=False).tolist())
        edges = [t for t in graph.triples if t[0] in heads]
        nodes = sorted(heads | {t for _, _, t in edges})
        new = {old: k for k, old in enumerate(nodes)}
        sub = hg.HeteroGraph.from_triples(
            [(new[h], r, new[t]) for h, r, t in edges],
            num_nodes=len(nodes), relation_names=graph.relation_names,
        )
        sub = hg.augment(sub, False, True)
        ids = tuple(new[i] for i in nodes if i in labels.labels)
        sub_labels = hg.NodeLabels(ids, {new[i]: labels.labels[i] for i in nodes if i in labels.labels},
                                   labels.num_classes)
        model = training.NodeClassificationModel.build(rng, sub, labels.num_classes, s["cfg"])
        params = model.params()

        def loss() -> Tensor:
            return training.nc_loss(model.forward(sub)[0], sub_labels)

        with Tape() as tape:
            tape.backward(loss())
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
        nonzero = [(k, j) for k, g in enumerate(grads) for j in np.flatnonzero(g)]
        picks = [nonzero[j] for j in rng.choice(len(nonzero), FD_ENTRIES // 2, replace=False)]
        for _ in range(FD_ENTRIES - len(picks)):
            k = int(rng.integers(len(params)))
            picks.append((k, int(rng.integers(params[k].data.size))))
        err = 0.0
        for k, j in picks:
            numeric = refs.central_difference(lambda: loss().item(), params[k].data, j, FD_EPS)
            err = max(err, refs.assert_gradient(f"{params[k].name}[{j}]",
                                                float(grads[k].reshape(-1)[j]), numeric, 1e-6))
        return err


# ---------------------------------------------------------------------------
# link prediction
# ---------------------------------------------------------------------------


class LinkPrediction:
    """A ``train-lp`` then ``eval`` session with one decoder."""

    infer_repeats = 5

    def __init__(self, name: str, decoder: str, epochs: int, eval_repeats: int, loss_must_fall: bool):
        self.name, self.decoder, self.epochs, self.eval_repeats = name, decoder, epochs, eval_repeats
        self.loss_must_fall = loss_must_fall

    def setup(self, seed: int, workdir: Path) -> dict:
        gen = inputs.generate(self.name, seed)
        files = inputs.write_tsv(gen, workdir)
        graph = hg.load_triples(files["triples"])
        split = hg.SplitSpec(
            hg.load_triple_split(files["train_triples"], graph),
            (),
            hg.load_triple_split(files["test_triples"], graph),
        )
        cfg = training.TrainConfig(task="link_prediction", epochs=self.epochs, seed=seed,
                                   add_self_loop=True)
        train_triples = tuple(graph.triples[k] for k in split.train)
        g_enc = hg.augment(hg.with_triples(graph, train_triples), cfg.add_inverse, cfg.add_self_loop)
        model = training.LinkPredictionModel.build(
            np.random.default_rng(seed), g_enc, graph.num_relations, cfg, self.decoder
        )
        # The reference's notion of "known", built from the generated names
        # rather than from the program's triple set.
        ids = lambda t: (graph.node_id(t[0]), graph.relation_id(t[1]), graph.node_id(t[2]))
        return dict(seed=seed, graph=graph, split=split, cfg=cfg, g_enc=g_enc, model=model,
                    test=[graph.triples[k] for k in split.test],
                    train=set(map(ids, gen.train_triples)), known=set(map(ids, gen.triples)),
                    ckpt=workdir / "checkpoint.npz")

    def measure(self, s: dict, meter: Meter) -> Round:
        graph, model, g_enc = s["graph"], s["model"], s["g_enc"]
        run, epoch_s = _train(
            meter, training.train_link_predictor, graph, s["split"], s["cfg"], self.decoder
        )
        _reload(model, run.model, s["ckpt"])
        _, infer_s = _repeated(meter, self.infer_repeats, layer.stack_forward, model.encoder, None,
                               g_enc, collect_trace=True)
        fn = model.score_fn(g_enc)
        # The test triples are ranked in chunks, so a round yields several
        # timings; every pass ranks every test triple.
        chunks = [s["test"][k : k + RANK_CHUNK] for k in range(0, len(s["test"]), RANK_CHUNK)]
        calls = [
            lambda chunk=chunk: evalkit.rank_triples(fn, chunk, graph.num_nodes, graph.triple_set)
            for chunk in chunks
        ]
        ranked, rank_s = meter.series(calls * self.eval_repeats)
        ranked = ranked[-len(chunks):]
        return Round(
            epoch_s=epoch_s,
            infer_s=infer_s,
            eval_s=rank_s,
            eval_candidates=2 * graph.num_nodes * RANK_CHUNK,
            attempted=len(run.loss_curve) + self.eval_repeats * 2 * len(s["test"]),
            outputs=dict(loss=run.loss_curve, ranked=ranked),
        )

    def probe(self, rnd: Round) -> None:
        pass

    def check(self, s: dict, rounds: list[Round]) -> list[str]:
        last = rounds[-1].outputs
        for r in rounds[1:]:
            refs.check("loss curve repeats across rounds", r.outputs["loss"] == rounds[0].outputs["loss"])
            refs.check("ranks repeat across rounds", r.outputs["ranked"] == rounds[0].outputs["ranked"])
        loss = last["loss"]
        if self.loss_must_fall:
            refs.check(f"final loss {loss[-1]:.6g} below the first {loss[0]:.6g}", loss[-1] < loss[0])
        negatives = self._check_negatives(s)
        score_err = self._check_scores(s, negatives)
        for ranks, summary in last["ranked"]:
            self._check_ranks(s, ranks, summary)
        all_ranks = [x for ranks, _ in last["ranked"] for res in ranks
                     for x in (res.filt_rank_head, res.filt_rank_tail)]
        return [
            f"{len(negatives)} sampled negatives lie outside the training triples and corrupt one end",
            f"score_triples matches the {self.decoder} reference (max scaled error {score_err:.1e})",
            f"raw and filtered ranks of {len(s['test'])} test triples match the reference ranking",
            f"loss {loss[0]:.6f} -> {loss[-1]:.6f} over {len(loss)} epochs",
            "filtered MRR {:.4f}, hits@1/3/10 {:.3f}/{:.3f}/{:.3f}".format(
                np.mean([1.0 / x for x in all_ranks]),
                *(np.mean([x <= k for x in all_ranks]) for k in (1, 3, 10))),
        ]

    def _check_negatives(self, s: dict) -> list[tuple]:
        """Record the negatives of one training epoch and check each of them."""
        seen: list[tuple] = []
        sample = training.negative_sample

        def recording(positive, *args, **kwargs):
            out = sample(positive, *args, **kwargs)
            seen.extend((positive, neg) for neg in out)
            return out

        training.negative_sample = recording
        try:
            training.train_link_predictor(s["graph"], s["split"], replace(s["cfg"], epochs=1), self.decoder)
        finally:
            training.negative_sample = sample
        refs.check("one negative per training positive", len(seen) == s["cfg"].omega * len(s["train"]))
        for pos, neg in seen:
            refs.check(f"negative {neg} is a training triple", neg not in s["train"])
            same = [a == b for a, b in zip(pos, neg)]
            refs.check(f"negative {neg} of {pos} must change exactly the head or the tail",
                       same in ([False, True, True], [True, True, False]))
        return [neg for _, neg in seen]

    def _check_scores(self, s: dict, negatives: list[tuple]) -> float:
        model = s["model"]
        emb = model.embeddings(s["g_enc"])
        batch = sorted(s["train"])[:LP_CHECK_TRIPLES] + negatives[:LP_CHECK_TRIPLES]
        got = decoders.score_triples(model.decoder, emb, batch)
        h, r, t = (np.array(col) for col in zip(*batch))
        rel = model.decoder.rel_emb.data
        want = refs.SCORERS[self.decoder](emb.data[h], rel[r], emb.data[t])
        return refs.assert_close("score_triples", got.data, want, 1e-10)

    def _check_ranks(self, s: dict, ranks, summary: dict) -> None:
        model, n, known = s["model"], s["graph"].num_nodes, s["known"]
        emb = model.embeddings(s["g_enc"]).data
        rel = model.decoder.rel_emb.data
        none = np.zeros(n, dtype=bool)
        for res in ranks:
            h, r, t = res.triple
            tails, heads = refs.all_scores(self.decoder, emb, rel, res.triple)
            known_t = np.array([(h, r, c) in known for c in range(n)])
            known_h = np.array([(c, r, t) in known for c in range(n)])
            refs.check_rank(f"raw tail {res.triple}", res.raw_rank_tail, refs.rank_bounds(tails, t, none, NEAR_TIE))
            refs.check_rank(f"raw head {res.triple}", res.raw_rank_head, refs.rank_bounds(heads, h, none, NEAR_TIE))
            refs.check_rank(f"filtered tail {res.triple}", res.filt_rank_tail,
                            refs.rank_bounds(tails, t, known_t, NEAR_TIE))
            refs.check_rank(f"filtered head {res.triple}", res.filt_rank_head,
                            refs.rank_bounds(heads, h, known_h, NEAR_TIE))
            for raw, filt in ((res.raw_rank_tail, res.filt_rank_tail), (res.raw_rank_head, res.filt_rank_head)):
                refs.check(f"1 <= filtered {filt} <= raw {raw} <= {n}", 1 <= filt <= raw <= n)
        for kind in ("raw", "filtered"):
            hits = [summary[f"hits@{k}_{kind}"] for k in (1, 3, 10)]
            refs.check(f"hits@1 <= hits@3 <= hits@10 ({kind})", hits[0] <= hits[1] <= hits[2])
            rank_list = [x for res in ranks for x in (
                (res.raw_rank_head, res.raw_rank_tail) if kind == "raw"
                else (res.filt_rank_head, res.filt_rank_tail))]
            refs.assert_close(f"mrr_{kind}", summary[f"mrr_{kind}"],
                              np.mean([1.0 / x for x in rank_list]), 1e-12)


WORKLOADS = {
    w.name: w
    for w in (
        NodeClassification(),
        LinkPrediction("lp-train", "distmult", epochs=6, eval_repeats=3, loss_must_fall=True),
        # This session is about ranking: its short training run need not
        # lower the loss under dropout and fresh negatives.
        LinkPrediction("lp-rank", "hole", epochs=4, eval_repeats=1, loss_must_fall=False),
    )
}
