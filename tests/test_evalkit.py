"""Metrics and the ablation harness."""

import numpy as np
import pytest

from brgcn import evalkit, training
from brgcn import hetgraph as hg
from brgcn.decoders import score
from brgcn.diffnum import NumericError, Tape, Tensor
from brgcn.evalkit import (
    AblationSplit,
    EvalError,
    ablate,
    ablation_splits,
    accuracy,
    rank_triples,
    relation_attention_scores,
)
from brgcn.layer import AttentionTrace, BrgcnLayerParams, ConfigurationError, stack_forward
from brgcn.training import LinkPredictionModel, TrainConfig
from synth import memorization_kg, planted_graph


class TestAccuracy:
    def _labels(self):
        return hg.NodeLabels((0, 1, 2, 3), {0: 0, 1: 1, 2: 0, 3: 1}, 2)

    def test_all_correct(self):
        assert accuracy(np.array([0, 1, 0, 1]), self._labels(), [0, 1, 2, 3]) == 100.0

    def test_one_of_four(self):
        assert accuracy(np.array([0, 0, 1, 0]), self._labels(), [0, 1, 2, 3]) == 25.0

    def test_probability_matrix_input(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.3, 0.7]])
        assert accuracy(probs.argmax(axis=1), self._labels(), [0, 1, 2, 3]) == 100.0

    def test_probability_matrix_refused(self):
        with pytest.raises(EvalError, match=r"one class id per node, got shape \(2, 2\)"):
            accuracy(np.array([[0.9, 0.1], [0.2, 0.8]]), self._labels(), [0, 1])

    def test_empty_split_rejected(self):
        with pytest.raises(EvalError):
            accuracy(np.array([0, 1]), self._labels(), [])

    def test_unlabeled_split_node_rejected(self):
        with pytest.raises(EvalError, match="node 7 in split has no label"):
            accuracy(np.zeros(8, dtype=int), self._labels(), [1, 7, 2])

    def test_probabilities_and_their_argmax_agree(self):
        # Class ids from an argmax (a tie goes to the lower class); the labels
        # live in a dict in arbitrary order and the split repeats a node.
        rng = np.random.default_rng(5)
        for _ in range(50):
            n, k = int(rng.integers(1, 30)), int(rng.integers(1, 5))
            probs = rng.integers(0, 3, size=(n, k)).astype(float)
            ids = rng.permutation(n)[: int(rng.integers(1, n + 1))].tolist()
            labels = hg.NodeLabels(tuple(ids), {i: int(rng.integers(k)) for i in ids[::-1]}, k)
            split = ids + ids[:1]
            want = 100.0 * sum(probs[i].argmax() == labels.labels[i] for i in split) / len(split)
            assert accuracy(probs.argmax(axis=1), labels, split) == want


def _vectorized(score_fn):
    """A scalar test scorer lifted to the id arrays rank_triples passes."""
    return np.vectorize(score_fn, otypes=[float])


def brute_force_ranks(score_fn, triple, num_entities, known, filtered):
    """Sorting-based oracle with pessimistic ties; independent of rank_triples."""
    h, r, t = triple
    ranks = {}
    for direction in ("tail", "head"):
        if direction == "tail":
            cands = [
                (c, score_fn(h, r, c))
                for c in range(num_entities)
                if c == t or not (filtered and (h, r, c) in known)
            ]
            target = t
        else:
            cands = [
                (c, score_fn(c, r, t))
                for c in range(num_entities)
                if c == h or not (filtered and (c, r, t) in known)
            ]
            target = h
        # sort by descending score; among equals the target goes last
        ordered = sorted(cands, key=lambda cs: (-cs[1], cs[0] == target))
        ranks[direction] = 1 + [c for c, _ in ordered].index(target)
    return ranks["head"], ranks["tail"]


class TestRanking:
    def _toy(self):
        triples = [(0, 0, 1), (1, 0, 2), (2, 1, 3), (3, 1, 0), (0, 1, 2)]
        graph = hg.HeteroGraph.from_triples(triples, num_nodes=4, relation_names=["p", "q"])

        def score_fn(h, r, t):
            # deterministic with deliberate ties
            return float((3 * h + 5 * r + 7 * t) % 6)

        return graph, score_fn

    def test_matches_exhaustive_enumeration(self):
        graph, score_fn = self._toy()
        results, _ = rank_triples(_vectorized(score_fn), graph.triples, 4, graph.triple_set)
        for res in results:
            raw_h, raw_t = brute_force_ranks(score_fn, res.triple, 4, graph.triple_set, False)
            fil_h, fil_t = brute_force_ranks(score_fn, res.triple, 4, graph.triple_set, True)
            assert (res.raw_rank_head, res.raw_rank_tail) == (raw_h, raw_t)
            assert (res.filt_rank_head, res.filt_rank_tail) == (fil_h, fil_t)

    def test_filtered_never_worse_than_raw(self):
        graph, score_fn = self._toy()
        results, summary = rank_triples(_vectorized(score_fn), graph.triples, 4, graph.triple_set)
        for res in results:
            assert res.filt_rank_head <= res.raw_rank_head
            assert res.filt_rank_tail <= res.raw_rank_tail
        assert summary["mrr_filtered"] >= summary["mrr_raw"]

    def test_hits_ordering(self):
        graph, score_fn = self._toy()
        _, summary = rank_triples(_vectorized(score_fn), graph.triples, 4, graph.triple_set)
        for setting in ("raw", "filtered"):
            assert (
                summary[f"hits@1_{setting}"]
                <= summary[f"hits@3_{setting}"]
                <= summary[f"hits@10_{setting}"]
            )

    def test_perfect_oracle_scorer(self):
        graph, _ = self._toy()
        truth = graph.triple_set

        def indicator(h, r, t):
            return 1.0 if (h, r, t) in truth else 0.0

        # rank only triples that are unambiguous under the indicator
        _, summary = rank_triples(_vectorized(indicator), [(2, 1, 3)], 4, truth)
        assert summary["mrr_filtered"] == 1.0
        assert summary["hits@1_filtered"] == 1.0

    def test_mrr_definition(self):
        # one triple engineered to rank 1 on tails and 3 on heads
        def score_fn(h, r, t):
            return {(0, 0, 1): 5.0, (1, 0, 1): 9.0, (2, 0, 1): 8.0}.get((h, r, t), 0.0)

        results, summary = rank_triples(_vectorized(score_fn), [(0, 0, 1)], 3, {(0, 0, 1)})
        res = results[0]
        assert res.raw_rank_tail == 1
        assert res.raw_rank_head == 3
        assert summary["mrr_raw"] == pytest.approx((1.0 + 1.0 / 3.0) / 2.0)

    def test_randomized_against_oracle(self):
        # An integer-valued scorer with many ties over 30 entities and 3
        # relations; the known set mixes the test relation with the others.
        rng = np.random.default_rng(13)
        n = 30
        table = rng.integers(0, 4, size=(n, 3, n)).astype(float)

        def score_fn(h, r, t):
            return table[h, r, t]

        known = {tuple(int(x) for x in row) for row in rng.integers(0, [n, 3, n], size=(400, 3))}
        tests = sorted(known)[::7] + [(5, 2, 5), (0, 0, 29)]
        results, _ = rank_triples(score_fn, tests, n, known | set(tests))
        for res in results:
            for filtered in (False, True):
                want = brute_force_ranks(score_fn, res.triple, n, known | set(tests), filtered)
                got = (
                    (res.filt_rank_head, res.filt_rank_tail)
                    if filtered
                    else (res.raw_rank_head, res.raw_rank_tail)
                )
                assert got == want, (res.triple, filtered)

    @pytest.mark.parametrize("triple", [(-1, 0, 1), (0, 0, -1), (4, 0, 1), (0, 0, 4), (0, -1, 1)])
    def test_out_of_range_test_ids_rejected(self, triple):
        graph, score_fn = self._toy()
        with pytest.raises(EvalError):
            rank_triples(_vectorized(score_fn), [triple], 4, graph.triple_set)

    def test_out_of_range_known_positives_are_ignored(self):
        graph, score_fn = self._toy()
        want, _ = rank_triples(_vectorized(score_fn), graph.triples, 4, graph.triple_set)
        # Each stray id, read as a key (a*R + r)*N + b, would land in the
        # range of some other (a, r) query if it were not dropped.
        stray = {(0, 0, 5), (0, 0, -1), (0, 1, 4), (-1, 1, 2), (4, 0, 1), (0, -1, 1), (1, 2, 0)}
        got, _ = rank_triples(_vectorized(score_fn), graph.triples, 4, graph.triple_set | stray)
        assert got == want

    def test_scalar_scorer_rejected(self):
        graph, _ = self._toy()
        with pytest.raises(EvalError):
            rank_triples(lambda h, r, t: 1.0, graph.triples, 4, graph.triple_set)

    @pytest.mark.parametrize("bad", [(0, 0, 1), (0, 0, 3), (2, 0, 1)], ids=["nan-target", "inf-tail", "inf-head"])
    def test_non_finite_scores_rejected(self, bad):
        # A NaN target would rank 1 (every ``>= nan`` is false); an infinite
        # candidate has no meaningful place either.
        table = np.zeros((4, 2, 4))
        table[bad] = np.nan if bad == (0, 0, 1) else np.inf

        def score_fn(h, r, t):
            return table[h, r, t]

        with pytest.raises(NumericError, match="non-finite"):
            rank_triples(score_fn, [(0, 0, 1)], 4, [(0, 0, 1)])

    def test_repeated_known_positives_count_once(self):
        # Each known positive listed twice must still drop its candidate once.
        rng = np.random.default_rng(14)
        n = 12
        table = rng.integers(0, 4, size=(n, 2, n)).astype(float)

        def score_fn(h, r, t):
            return table[h, r, t]

        known = [tuple(int(x) for x in row) for row in rng.integers(0, [n, 2, n], size=(60, 3))]
        results, _ = rank_triples(score_fn, known[:12], n, known * 2)
        for res in results:
            want = brute_force_ranks(score_fn, res.triple, n, set(known), True)
            assert (res.filt_rank_head, res.filt_rank_tail) == want, res.triple
        assert any(res.filt_rank_tail < res.raw_rank_tail for res in results)


class TestKnownPositiveIndex:
    """rank_triples over a graph's ``triple_set``, keyed once per graph."""

    @staticmethod
    def _case(seed: int, n: int = 15, num_rel: int = 3, num_triples: int = 60):
        # An integer-valued scorer with many ties, over more entities and
        # relations than the graph has, for the fallbacks that name them.
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, [n, num_rel, n], size=(num_triples, 3))
        names = [f"r{k}" for k in range(num_rel)]
        graph = hg.HeteroGraph.from_triples(rows, num_nodes=n, relation_names=names)
        table = rng.integers(0, 3, size=(n + 3, num_rel + 1, n + 3)).astype(float)
        return graph, lambda h, r, t: table[h, r, t]

    @staticmethod
    def _chunked(score_fn, tests, n, known, size):
        """The ranks of ``tests``, one rank_triples call per ``size`` of them."""
        calls = (rank_triples(score_fn, tests[k : k + size], n, known) for k in range(0, len(tests), size))
        return [res for results, _ in calls for res in results]

    @staticmethod
    def _count_calls(monkeypatch, name):
        """Replace ``hg.<name>`` by a wrapper; the returned list gets one entry per call, its rows."""
        original, rows = getattr(hg, name), []

        def counted(triples, *shape):
            rows.append(len(hg.triple_array(triples)))
            return original(triples, *shape)

        monkeypatch.setattr(hg, name, counted)
        return rows

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("size", [1, 2, 7, None], ids=["1", "2", "7", "all"])
    def test_index_ranks_as_every_other_form_and_the_oracle(self, seed, size):
        graph, score_fn = self._case(seed)
        n, tests = graph.num_nodes, graph.triples[::3]
        known = graph.triple_set
        want = self._chunked(score_fn, tests, n, known, size or len(tests))
        for other in (set(known), list(known), graph.triples):
            assert self._chunked(score_fn, tests, n, other, size or len(tests)) == want
        for res in want:
            raw = brute_force_ranks(score_fn, res.triple, n, known, False)
            filtered = brute_force_ranks(score_fn, res.triple, n, known, True)
            assert (res.raw_rank_head, res.raw_rank_tail) == raw
            assert (res.filt_rank_head, res.filt_rank_tail) == filtered
        assert any(res.filt_rank_tail < res.raw_rank_tail for res in want)

    @pytest.mark.parametrize(
        "fallback", ["more-entities", "fewer-entities", "unknown-relation", "union", "mutable"]
    )
    def test_each_fallback_ranks_as_the_plain_path(self, fallback, monkeypatch):
        graph, score_fn = self._case(3)
        n, tests = graph.num_nodes, [tuple(x) for x in graph.triples[::4].tolist()]
        known = graph.triple_set
        if fallback == "more-entities":
            n += 3
        elif fallback == "fewer-entities":
            n -= 4
            tests = [x for x in tests if max(x[0], x[2]) < n]
        elif fallback == "unknown-relation":
            tests += [(h, graph.num_relations, t) for h, _, t in tests[:3]]
        elif fallback == "union":
            known = known | {(0, 0, n + 1), (0, 0, -1), (1, graph.num_relations, 0), (2, 0, 2)}
        else:
            known = set(known)
        want = rank_triples(score_fn, tests, n, list(known))
        keyed = self._count_calls(monkeypatch, "sorted_triple_keys")
        assert rank_triples(score_fn, tests, n, known) == want
        assert keyed == [len(known)]  # keyed in the call, not taken from an index

    def test_chunked_calls_key_the_graph_triples_once(self, monkeypatch):
        graph, score_fn = self._case(5)
        known, tests = graph.triple_set, graph.triples[:20]
        keyed = self._count_calls(monkeypatch, "triple_keys")
        for known_form, times in ((known, 1), (set(known), 10)):
            keyed.clear()
            assert len(self._chunked(score_fn, tests, graph.num_nodes, known_form, 2)) == 20
            # Each call keys its 2 test triples twice, and each keying of the
            # known rows keys them by head and by tail.
            assert len(keyed) == 2 * 10 + 2 * times
            if known_form is known:
                assert keyed.count(graph.num_triples) == 2
        first = known.sorted_keys
        rank_triples(score_fn, tests[:2], graph.num_nodes, known)
        assert all(a is b for a, b in zip(known.sorted_keys, first))


class TestModelScorerRanking:
    """rank_triples over ``LinkPredictionModel.score_fn``, the 1-N path."""

    @staticmethod
    def _model(kind: str, width: int, seed: int):
        graph = memorization_kg(num_entities=12, num_triples=30, seed=seed)
        cfg = TrainConfig(task="link_prediction", hidden_units=width)
        rng = np.random.default_rng(seed)
        model = LinkPredictionModel.build(rng, graph, graph.num_relations, cfg, kind, standalone=True)
        return graph, model, rng

    # HolE's Fourier transform is exact only at d = 1 (cos 0 and sin 0), so
    # only there do integer embeddings give it exact ties.
    @pytest.mark.parametrize("kind,width", [("distmult", 3), ("transe", 3), ("complex", 4), ("hole", 1)])
    def test_integer_embeddings_rank_like_brute_force(self, kind, width, monkeypatch):
        # Entries in {-1, 0, 1} make many scores exactly equal, and every
        # route to a score is exact on them, so the ranks must equal the
        # brute-force pessimistic ranks.  A 3-row block budget splits the
        # 10 test triples into blocks of 3, 3, 3 and 1.
        graph, model, rng = self._model(kind, width, seed=5)
        for table in (model.decoder.entity_emb.data, model.decoder.rel_emb.data):
            table[:] = rng.integers(-1, 2, size=table.shape)
        E, R = model.decoder.entity_emb.data, model.decoder.rel_emb.data

        def exact(h, r, t):
            return score(kind, Tensor(E[h]), Tensor(R[r]), Tensor(E[t])).item()

        n = graph.num_nodes
        monkeypatch.setattr(evalkit, "SCORE_BLOCK_BYTES", 3 * 8 * n)
        known = graph.triple_set
        tests = [tuple(x) for x in graph.triples[::3].tolist()]
        results, _ = rank_triples(model.score_fn(graph), tests, n, known)
        assert [res.triple for res in results] == tests
        ties = 0
        for res in results:
            for filtered in (False, True):
                want = brute_force_ranks(exact, res.triple, n, known, filtered)
                got = (
                    (res.filt_rank_head, res.filt_rank_tail)
                    if filtered
                    else (res.raw_rank_head, res.raw_rank_tail)
                )
                assert got == want, (res.triple, filtered)
            h, r, t = res.triple
            ties += sum(exact(h, r, c) == exact(h, r, t) for c in range(n) if c != t)
        assert ties  # tails tied with the target exist to break

    @pytest.mark.parametrize("kind", ["distmult", "transe", "hole", "complex"])
    def test_ranking_records_nothing_on_an_active_tape(self, kind):
        graph, model, _ = self._model(kind, 4, seed=6)
        with Tape() as tape:
            rank_triples(model.score_fn(graph), graph.triples, graph.num_nodes, graph.triples)
        assert len(tape) == 0


def _per_node_score(traces, r):
    """Oracle of ``relation_attention_scores``: walk every node's psi and rel_order per relation."""
    masses = []
    for trace in traces:
        for i, rels in trace.rel_order.items():
            if r in rels:
                col = rels.index(r)
                masses.append(float(trace.psi[i][:, col].mean()))
    return float(np.mean(masses)) if masses else 0.0


def _hand_trace(triples, num_nodes, num_relations, psi):
    """A trace over a small real graph whose flat psi (node-major) is given by hand."""
    g = hg.HeteroGraph.from_triples(
        triples, num_nodes=num_nodes, relation_names=[f"r{k}" for k in range(num_relations)]
    )
    return AttentionTrace(g.index, flat_psi=np.asarray(psi, dtype=np.float64))


class TestRelationAttentionScore:
    def test_hand_example(self):
        # node 0 carries relations 1 and 2; psi rows attend over (1, 2)
        trace = _hand_trace([(0, 1, 1), (0, 2, 2)], 3, 3, [0.7, 0.3, 0.6, 0.4])
        assert trace.rel_order[0] == (1, 2)
        np.testing.assert_array_equal(trace.psi[0], [[0.7, 0.3], [0.6, 0.4]])
        scores = relation_attention_scores([trace], 3)
        assert scores.tolist() == pytest.approx([0.0, 0.65, 0.35])

    def test_uniform_psi_scores_one_over_m(self):
        m = 4
        trace = _hand_trace([(0, r, 1) for r in range(m)], 2, m, np.full(m * m, 1.0 / m))
        assert relation_attention_scores([trace], m).tolist() == pytest.approx([1.0 / m] * m)

    def test_absent_relation_scores_zero(self):
        assert relation_attention_scores([AttentionTrace()], 3).tolist() == [0.0] * 3
        trace = _hand_trace([(0, 1, 1), (0, 2, 2)], 3, 3, [0.7, 0.3, 0.6, 0.4])
        assert relation_attention_scores([trace], 5)[[0, 3, 4]].tolist() == [0.0] * 3

    def test_scores_in_unit_interval_and_columns_sum_to_one(self):
        rng = np.random.default_rng(0)
        raw = rng.uniform(size=(3, 3))
        psi = raw / raw.sum(axis=1, keepdims=True)
        trace = _hand_trace([(5, r, 0) for r in range(3)], 6, 3, psi.ravel())
        scores = relation_attention_scores([trace], 3)
        assert all(0.0 <= s <= 1.0 for s in scores)
        assert scores.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("variant", ["full", "relation_only"])
    @pytest.mark.parametrize("num_layers", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_per_node_walk(self, variant, num_layers, seed):
        rng = np.random.default_rng(seed)
        n, base = 40, 5
        triples = np.stack([rng.integers(hi, size=150) for hi in (n, base, n)], axis=1)
        names = [f"r{k}" for k in range(base)]
        g = hg.augment(hg.HeteroGraph.from_triples(triples, num_nodes=n, relation_names=names),
                       add_inverse=True, add_self_loop=True)
        dims = [n, 6, 3][: num_layers + 1]
        layers = [
            BrgcnLayerParams.create(rng, a, b, g.num_relations, variant=variant, live=None if k else g.index)
            for k, (a, b) in enumerate(zip(dims, dims[1:]))
        ]
        _, traces = stack_forward(layers, None, g)
        for num_relations in (base, g.num_relations, g.num_relations + 2):
            want = [_per_node_score(traces, r) for r in range(num_relations)]
            got = relation_attention_scores(traces, num_relations)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("variant", ["node_only", "rgcn_baseline"])
    def test_variants_without_psi_score_zero(self, variant):
        rng = np.random.default_rng(3)
        g = hg.augment(planted_graph(num_labeled=20)[0], add_inverse=True, add_self_loop=True)
        layer = BrgcnLayerParams.create(rng, 4, 4, g.num_relations, variant=variant)
        h = Tensor(rng.normal(size=(g.num_nodes, 4)))
        _, traces = stack_forward([layer, layer], h, g)
        assert relation_attention_scores(traces, g.num_relations).tolist() == [0.0] * g.num_relations


class TestAblationSplits:
    def _scores(self):
        return {0: 0.5, 1: 0.1, 2: 0.9, 3: 0.3}

    def test_sizes_are_ceil(self):
        splits = ablation_splits(
            self._scores(), ["top_attention"], [0.1, 0.5, 1.0], np.random.default_rng(0)
        )
        assert [len(s.retained) for s in splits] == [1, 2, 4]

    def test_top_and_bottom_ordering(self):
        splits = {
            (s.strategy, s.fraction): s.retained
            for s in ablation_splits(
                self._scores(),
                ["top_attention", "bottom_attention"],
                [0.25, 0.5],
                np.random.default_rng(0),
            )
        }
        assert splits[("top_attention", 0.25)] == (2,)
        assert splits[("top_attention", 0.5)] == (2, 0)
        assert splits[("bottom_attention", 0.25)] == (1,)
        assert splits[("bottom_attention", 0.5)] == (1, 3)

    def test_cumulative_nesting_for_all_strategies(self):
        fractions = [k / 10 for k in range(1, 11)]
        for strategy in ("random", "top_attention", "bottom_attention"):
            splits = ablation_splits(
                self._scores(), [strategy], fractions, np.random.default_rng(3)
            )
            for earlier, later in zip(splits, splits[1:]):
                assert set(earlier.retained) <= set(later.retained)

    def test_zero_fraction_rejected(self):
        with pytest.raises(EvalError):
            ablation_splits(self._scores(), ["random"], [0.0], np.random.default_rng(0))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(EvalError):
            ablation_splits(self._scores(), ["best"], [0.5], np.random.default_rng(0))


class TestAblate:
    def test_full_fraction_gives_identical_accuracy_across_strategies(self):
        graph, labels = planted_graph(num_labeled=12, num_distractors=3, seed=9)
        split = hg.SplitSpec(tuple(labels.labeled_ids[:8]), (), tuple(labels.labeled_ids[8:]))
        cfg = TrainConfig(lr=0.05, epochs=4, hidden_units=4, dropout=0.0, add_self_loop=True)
        report = ablate(
            graph,
            labels,
            split,
            cfg,
            strategies=("random", "top_attention", "bottom_attention"),
            fractions=(1.0,),
            seeds=[1],
        )
        accs = {row[0]: row[3] for row in report.rows}
        # retaining every relation retrains the full run: the rows hold its test accuracy
        assert set(accs.values()) == {report.full_runs[1].test_accuracy}

    def test_split_without_test_nodes_is_refused_before_training(self, monkeypatch):
        def train(*args, **kwargs):
            raise AssertionError("ablate trained before refusing")

        monkeypatch.setattr(training, "train_node_classifier", train)
        graph, labels = planted_graph(num_labeled=10, num_distractors=3, seed=10)
        split = hg.SplitSpec(tuple(labels.labeled_ids))  # everything trains, nothing is tested
        with pytest.raises(ConfigurationError, match="no test nodes"):
            ablate(graph, labels, split, TrainConfig(epochs=2, hidden_units=4), seeds=[0])

    def test_rows_schema_and_full_run_info(self):
        graph, labels = planted_graph(num_labeled=10, num_distractors=3, seed=10)
        split = hg.SplitSpec(tuple(labels.labeled_ids[:7]), (), tuple(labels.labeled_ids[7:]))
        cfg = TrainConfig(lr=0.05, epochs=3, hidden_units=4, dropout=0.0, add_self_loop=True)
        report = ablate(
            graph, labels, split, cfg, strategies=("top_attention",), fractions=(0.5, 1.0), seeds=[0, 1]
        )
        assert len(report.rows) == 4
        for strategy, fraction, seed, acc in report.rows:
            assert strategy == "top_attention"
            assert fraction in (0.5, 1.0)
            assert seed in (0, 1)
            assert 0.0 <= acc <= 100.0
        assert set(report.full_runs) == {0, 1}
        for info in report.full_runs.values():
            assert set(info.relation_scores) == {0, 1, 2}
