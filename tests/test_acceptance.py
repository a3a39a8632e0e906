"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[criterion NN] PASS/FAIL` line (run pytest with -s or
read the captured output).  Paper-scale benchmark numbers are out of reach at
desk scale, so these are property suites, oracle comparisons, and scaled-down
behavioral checks; expensive shared work (the planted-graph training runs)
lives in module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from brgcn import hetgraph as hg
from brgcn.cli import main
from brgcn.decoders import score
from brgcn.diffnum import Tensor
from brgcn.evalkit import ablate, rank_triples
from brgcn.layer import layer_forward
from brgcn.training import (
    LinkPredictionModel,
    NodeClassificationModel,
    TrainConfig,
    TripleBatch,
    lp_loss,
    nc_loss,
    negative_sample,
    train_link_predictor,
)
from dense_oracle import dense_layer_forward, random_instance
from gradcheck import grad_check
from layer_weights import layer_with_weights
from synth import memorization_kg, planted_graph, planted_split
from test_decoders import fft_circular_correlation
from test_evalkit import brute_force_ranks


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {status} {name}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def _random_graph_and_params(rng, max_nodes, max_rels):
    inst = random_instance(rng, max_nodes=max_nodes, max_rels=max_rels)
    graph = hg.HeteroGraph.from_triples(
        inst["triples"],
        num_nodes=inst["n"],
        relation_names=[f"r{k}" for k in range(inst["num_rels"])],
    )
    params = layer_with_weights(
        inst["a_vecs"], inst["w_query"], inst["w_key"], inst["w_value"], inst["w_self"], leaky_slope=0.2
    )
    return inst, graph, params


PLANTED_CFG = TrainConfig(
    task="node_classification",
    lr=0.05,
    epochs=100,
    hidden_units=16,
    dropout=0.2,
    leaky_slope=0.2,
    add_self_loop=True,
)

SIGNAL, NOISE_A, NOISE_B = 0, 1, 2


@pytest.fixture(scope="module")
def planted_ablation():
    """Ten seeded full-graph runs plus top/bottom retrains at the 10% split."""
    graph, labels = planted_graph()
    split = planted_split(labels)
    return ablate(
        graph,
        labels,
        split,
        PLANTED_CFG,
        strategies=("top_attention", "bottom_attention"),
        fractions=(0.1,),
        seeds=range(10),
    )


def test_criterion_01_attention_normalization():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        _, graph, params = _random_graph_and_params(rng, max_nodes=20, max_rels=5)
        h = Tensor(rng.normal(size=(graph.num_nodes, params.d_in)))
        _, trace = layer_forward(params, h, graph)
        for gamma in trace.gamma.values():
            worst = max(worst, abs(gamma.sum() - 1.0))
        for psi in trace.psi.values():
            worst = max(worst, np.abs(psi.sum(axis=1) - 1.0).max())
    elapsed = time.monotonic() - start
    _report(
        1,
        "attention normalization over 1000 random graphs",
        worst <= 1e-9 and elapsed < 60.0,
        f"max deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_dense_oracle_equivalence():
    rng = np.random.default_rng(202)
    start = time.monotonic()
    worst = 0.0
    for _ in range(200):
        inst, graph, params = _random_graph_and_params(rng, max_nodes=10, max_rels=3)
        out, _ = layer_forward(params, Tensor(inst["h"]), graph)
        oracle, _, _ = dense_layer_forward(
            inst["h"],
            inst["triples"],
            inst["n"],
            inst["num_rels"],
            inst["a_vecs"],
            inst["w_query"],
            inst["w_key"],
            inst["w_value"],
            inst["w_self"],
            0.2,
        )
        worst = max(worst, np.abs(out.data - oracle).max())
    elapsed = time.monotonic() - start
    _report(
        2,
        "sparse layer matches dense masked-matrix oracle on 200 instances",
        worst <= 1e-10 and elapsed < 60.0,
        f"max entry error {worst:.2e}, {elapsed:.1f}s",
    )


def _six_node_two_relation_graph():
    triples = [
        (0, 0, 1),
        (0, 1, 2),
        (1, 0, 3),
        (2, 0, 4),
        (3, 1, 5),
        (4, 1, 0),
        (5, 0, 2),
    ]
    return hg.HeteroGraph.from_triples(triples, num_nodes=6, relation_names=["p", "q"])


def test_criterion_03_gradient_correctness():
    start = time.monotonic()
    graph = _six_node_two_relation_graph()

    # (a) full node-classification loss, 2-layer model
    labels = hg.NodeLabels((0, 1, 2, 3), {0: 0, 1: 1, 2: 0, 3: 1}, 2)
    cfg = TrainConfig(hidden_units=4, dropout=0.0, num_layers=2)
    nc_model = NodeClassificationModel.build(np.random.default_rng(0), graph, 2, cfg)

    def f_nc():
        probs, _ = nc_model.forward(graph)
        return nc_loss(probs, labels)

    nc_report = grad_check(f_nc, nc_model.params(), eps=1e-5, tol=1e-4)

    # (b) full link-prediction loss with a DistMult decoder
    lp_cfg = TrainConfig(task="link_prediction", hidden_units=4, dropout=0.0)
    lp_model = LinkPredictionModel.build(
        np.random.default_rng(1), graph, graph.num_relations, lp_cfg, "distmult"
    )
    rng = np.random.default_rng(2)
    positives = list(graph.triples)
    negatives = [negative_sample(p, graph, rng)[0] for p in positives]
    batch = TripleBatch(tuple(positives + negatives), (1,) * len(positives) + (0,) * len(negatives))

    def f_lp():
        from brgcn.decoders import score_triples

        emb = lp_model.embeddings(graph)
        scores = score_triples(lp_model.decoder, emb, batch.triples)
        return lp_loss(batch, scores, e_prime_size=len(positives), omega=1)

    lp_report = grad_check(f_lp, lp_model.params(), eps=1e-5, tol=1e-4)
    elapsed = time.monotonic() - start
    _report(
        3,
        "task-loss gradients match central finite differences",
        nc_report.passed and lp_report.passed and elapsed < 120.0,
        f"nc {nc_report.max_rel_error:.2e}, lp {lp_report.max_rel_error:.2e}, {elapsed:.1f}s",
    )


def test_criterion_04_masking_and_permutation():
    rng = np.random.default_rng(404)
    mask_worst = 0.0
    perm_worst = 0.0
    for _ in range(25):
        inst, graph, params = _random_graph_and_params(rng, max_nodes=9, max_rels=3)
        out, _ = layer_forward(params, Tensor(inst["h"]), graph)

        # appending a disconnected component must not move existing outputs
        extra = [(inst["n"], 0, inst["n"] + 1), (inst["n"] + 1, 0, inst["n"] + 2)]
        bigger = hg.HeteroGraph.from_triples(
            list(inst["triples"]) + extra,
            num_nodes=inst["n"] + 3,
            relation_names=graph.relation_names,
        )
        h2 = np.vstack([inst["h"], rng.normal(size=(3, inst["d_in"]))])
        out2, _ = layer_forward(params, Tensor(h2), bigger)
        mask_worst = max(mask_worst, np.abs(out2.data[: inst["n"]] - out.data).max())

        # relabeling nodes by a permutation permutes the output rows
        perm = rng.permutation(inst["n"])
        remapped = [(int(perm[h_]), r, int(perm[t_])) for h_, r, t_ in inst["triples"]]
        g_perm = hg.HeteroGraph.from_triples(
            remapped, num_nodes=inst["n"], relation_names=graph.relation_names
        )
        h_perm = np.empty_like(inst["h"])
        h_perm[perm] = inst["h"]
        out_perm, _ = layer_forward(params, Tensor(h_perm), g_perm)
        perm_worst = max(perm_worst, np.abs(out_perm.data[perm] - out.data).max())
    _report(
        4,
        "masking and permutation equivariance",
        mask_worst <= 1e-12 and perm_worst <= 1e-10,
        f"masking {mask_worst:.2e}, permutation {perm_worst:.2e}",
    )


def test_criterion_05_learning_sanity(planted_ablation):
    acc_hits = 0
    attn_hits = 0
    for info in planted_ablation.full_runs.values():
        if info.train_accuracy >= 95.0:
            acc_hits += 1
        scores = info.relation_scores
        if scores[SIGNAL] > scores[NOISE_A] and scores[SIGNAL] > scores[NOISE_B]:
            attn_hits += 1
    _report(
        5,
        "planted-signal learning within 200 epochs",
        acc_hits >= 9 and attn_hits >= 9,
        f"train acc >= 95% in {acc_hits}/10 seeds, signal relation ranked top in {attn_hits}/10",
    )


def test_criterion_06_ranking_metrics():
    triples = [(0, 0, 1), (1, 0, 2), (2, 1, 3), (3, 1, 0), (0, 1, 2)]
    graph = hg.HeteroGraph.from_triples(triples, num_nodes=4, relation_names=["p", "q"])

    def score_fn(h, r, t):
        return float((3 * h + 5 * r + 7 * t) % 6)

    results, summary = rank_triples(
        np.vectorize(score_fn, otypes=[float]), graph.triples, 4, graph.triple_set
    )
    exact = all(
        (res.raw_rank_head, res.raw_rank_tail)
        == brute_force_ranks(score_fn, res.triple, 4, graph.triple_set, False)
        and (res.filt_rank_head, res.filt_rank_tail)
        == brute_force_ranks(score_fn, res.triple, 4, graph.triple_set, True)
        for res in results
    )
    ordered = (
        all(
            res.filt_rank_head <= res.raw_rank_head and res.filt_rank_tail <= res.raw_rank_tail
            for res in results
        )
        and summary["mrr_filtered"] >= summary["mrr_raw"]
        and summary["hits@1_raw"] <= summary["hits@3_raw"] <= summary["hits@10_raw"]
        and summary["hits@1_filtered"]
        <= summary["hits@3_filtered"]
        <= summary["hits@10_filtered"]
    )
    _report(
        6,
        "ranks equal exhaustive enumeration with the standard orderings",
        exact and ordered,
        f"filtered MRR {summary['mrr_filtered']:.3f} >= raw {summary['mrr_raw']:.3f}",
    )


def test_criterion_07_link_prediction_memorization():
    graph = memorization_kg(num_entities=20, num_triples=40, seed=3)
    split = hg.SplitSpec(tuple(range(graph.num_triples)))
    cfg = TrainConfig(
        task="link_prediction",
        lr=0.05,
        epochs=400,
        hidden_units=16,
        dropout=0.0,
        leaky_slope=0.2,
        omega=1,
        seed=0,
    )
    run = train_link_predictor(graph, split, cfg, "distmult")
    fn = run.model.score_fn(run.graph)
    train_triples = graph.triples[list(split.train)]
    _, summary = rank_triples(fn, train_triples, graph.num_nodes, graph.triple_set)
    hits10 = summary["hits@10_filtered"]
    _report(
        7,
        "training-triple memorization with a DistMult decoder",
        hits10 >= 0.9,
        f"filtered Hits@10 = {hits10:.3f} after {cfg.epochs} epochs",
    )


def test_criterion_08_ablation_ordering(planted_ablation):
    top = {seed: acc for s, f, seed, acc in planted_ablation.rows if s == "top_attention"}
    bottom = {seed: acc for s, f, seed, acc in planted_ablation.rows if s == "bottom_attention"}
    wins = sum(1 for seed in top if top[seed] >= bottom[seed])
    mean_top = np.mean(list(top.values()))
    mean_bottom = np.mean(list(bottom.values()))
    _report(
        8,
        "top-attention subgraph beats bottom-attention at the 10% split",
        wins >= 9,
        f"{wins}/10 seeds, mean top {mean_top:.1f}% vs bottom {mean_bottom:.1f}%",
    )


def test_criterion_09_decoder_identities():
    rng = np.random.default_rng(909)
    worst = {"distmult": 0.0, "transe": 0.0, "complex": 0.0, "hole": 0.0}
    for _ in range(1000):
        h, r, t, c = rng.normal(size=(4, 6))
        d_sym = abs(
            score("distmult", Tensor(h), Tensor(r), Tensor(t)).item()
            - score("distmult", Tensor(t), Tensor(r), Tensor(h)).item()
        )
        worst["distmult"] = max(worst["distmult"], d_sym)
        t_inv = abs(
            score("transe", Tensor(h), Tensor(r), Tensor(t)).item()
            - score("transe", Tensor(h + c), Tensor(r), Tensor(t + c)).item()
        )
        worst["transe"] = max(worst["transe"], t_inv)
        zeros = np.zeros(6)
        c_red = abs(
            score(
                "complex",
                Tensor(np.concatenate([h, zeros])),
                Tensor(np.concatenate([r, zeros])),
                Tensor(np.concatenate([t, zeros])),
            ).item()
            - score("distmult", Tensor(h), Tensor(r), Tensor(t)).item()
        )
        worst["complex"] = max(worst["complex"], c_red)
        h_corr = abs(
            score("hole", Tensor(h), Tensor(r), Tensor(t)).item()
            - float(r @ fft_circular_correlation(h, t))
        )
        worst["hole"] = max(worst["hole"], h_corr)
    _report(
        9,
        "decoder identities on 1000 random vectors each",
        max(worst.values()) <= 1e-10,
        ", ".join(f"{k} {v:.1e}" for k, v in worst.items()),
    )


def test_criterion_10_cli_determinism(toy_config, tmp_path):
    code_a = main(["train-nc", "--config", str(toy_config)])
    out_b = tmp_path / "repeat"
    code_b = main(["train-nc", "--config", str(toy_config), "--set", f"output_dir={out_b}"])
    metrics_a = (tmp_path / "out" / "seed_0" / "metrics.csv").read_bytes()
    metrics_b = (out_b / "seed_0" / "metrics.csv").read_bytes()
    snap_a = (tmp_path / "out" / "config.resolved").read_text()
    _report(
        10,
        "identical config and seed give bit-identical metrics files",
        code_a == 0 and code_b == 0 and metrics_a == metrics_b and "seeds = 0" in snap_a,
        f"{len(metrics_a)} bytes compared",
    )
