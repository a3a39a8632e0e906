"""Receptive fields: layers run over the edges whose rows a loss or metric reads.

The oracle is the whole-graph forward: on a field, the target rows, the loss,
every gradient and the generator's state after the step equal it bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

from brgcn import diffnum as dn
from brgcn import hetgraph as hg
from brgcn import layer as layer_mod
from brgcn.diffnum import Tensor
from brgcn.hetgraph import GraphIndex, HeteroGraph, NodeLabels, augment, receptive_fields, with_triples
from brgcn.layer import VARIANTS, BrgcnLayerParams, ConfigurationError, layer_forward, stack_forward
from brgcn.training import TrainConfig, nc_loss, train_node_classifier
from synth import planted_graph


def _graph(seed: int) -> HeteroGraph:
    """40 nodes, 3 relations: two hubs that point at and are pointed at by many nodes, groups of
    1-4 edges, nodes 32-35 with in-edges only and nodes 36-39 with no edge."""
    rng = np.random.default_rng(seed)
    n, num_rel, hubs, triples = 40, 3, (0, 1), set()
    for head in range(32):
        for rel in np.flatnonzero(rng.random(num_rel) < 0.5):
            size = int(rng.integers(1, 5))
            triples |= {(head, int(rel), int(t)) for t in rng.choice(36, size, replace=False)}
        triples |= {(head, 0, hubs[head % 2])}
    triples |= {(hub, int(rng.integers(num_rel)), int(t)) for hub in hubs for t in rng.choice(36, 12, replace=False)}
    g = HeteroGraph.from_triples(sorted(triples), num_nodes=n, relation_names=[f"r{k}" for k in range(num_rel)])
    assert g.index.node_count[32:].sum() == 0 and 0 < g.index.multi_edges.size < g.num_triples
    return g


TARGETS = {
    "mixed": (3, 17, 33, 25, 38),  # two targets without out-edges, one of them with inverses
    "hub": (0, 36),  # a hub's field reaches most of the graph
    "edgeless": (36, 37, 39),  # no target has an edge: every field is empty
}


def _bits(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _step(g, targets, variant, dropout, num_bases, one_hot, num_layers, fields):
    """One NC step over ``fields`` (None: the whole graph): target rows, loss, gradients, generator state."""
    rng = np.random.default_rng(1)
    d_in = g.num_nodes if one_hot else 5
    dims = [d_in] + [4] * (num_layers - 1) + [3]
    layers = [
        BrgcnLayerParams.create(rng, dims[k], dims[k + 1], g.num_relations, num_bases=num_bases, dropout=dropout,
                                variant=variant, prefix=f"layer{k}",
                                live=g.index if k == 0 and one_hot else None)
        for k in range(num_layers)
    ]
    x0 = None if one_hot else dn.param(rng.normal(size=(g.num_nodes, d_in)))
    labels = NodeLabels(targets, {i: i % 3 for i in targets}, 3)
    rng = np.random.default_rng(5)
    with dn.Tape() as tape:
        out, _ = stack_forward(layers, x0, g, rng=rng, fields=fields)
        loss = nc_loss(dn.softmax_rows(out), labels)
        tape.backward(loss)
    params = [p for lay in layers for p in lay.params()] + ([] if x0 is None else [x0])
    return out.data[list(targets)], loss.item(), [p.grad for p in params], rng.bit_generator.state


class TestFieldStepEqualsWholeGraphStep:
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("one_hot", [True, False])
    @pytest.mark.parametrize("num_bases", [0, 2])
    @pytest.mark.parametrize("dropout", [0.0, 0.4])
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bit_equal(self, seed, variant, dropout, num_bases, one_hot, num_layers):
        g = augment(_graph(seed), add_inverse=seed == 1)
        for kind, targets in TARGETS.items():
            fields = receptive_fields(g.index, targets, num_layers)
            got = _step(g, targets, variant, dropout, num_bases, one_hot, num_layers, fields)
            want = _step(g, targets, variant, dropout, num_bases, one_hot, num_layers, None)
            assert np.array_equal(_bits(got[0]), _bits(want[0])), kind
            assert got[1] == want[1], kind
            for a, b in zip(got[2], want[2]):
                # A parameter that no field edge reads takes no gradient; the whole graph gives it zeros.
                assert np.array_equal(_bits(a), _bits(b)) if a is not None else b is None or not b.any(), kind
            assert got[3] == want[3], kind
            if kind == "edgeless":
                assert all(f.num_edges == 0 for f in fields)

    @pytest.mark.parametrize("one_hot", [True, False])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_bit_equal_over_many_chunks(self, variant, one_hot):
        # 600 nodes, 4 relations with inverses and self loops: each relation's 470-600 live slots fill
        # several chunks of the dense layer's products, and the field's rows keep their chunk lanes.
        rng = np.random.default_rng(3)
        t = np.column_stack([rng.integers(0, 600, 4000), rng.integers(0, 4, 4000), rng.integers(0, 600, 4000)])
        g = augment(HeteroGraph.from_triples(t, num_nodes=600), add_inverse=True, add_self_loop=True)
        assert np.bincount(g.index.live_slots % g.num_relations).min() > 7 * dn.CHUNK_ROWS
        targets = tuple(range(40))
        fields = receptive_fields(g.index, targets, 2)
        got = _step(g, targets, variant, 0.4, 0, one_hot, 2, fields)
        want = _step(g, targets, variant, 0.4, 0, one_hot, 2, None)
        assert np.array_equal(_bits(got[0]), _bits(want[0])) and got[1] == want[1] and got[3] == want[3]
        for a, b in zip(got[2], want[2]):
            assert np.array_equal(_bits(a), _bits(b)) if a is not None else b is None or not b.any()

    def test_an_empty_field_draws_the_whole_graphs_edge_mask(self):
        g = _graph(0)
        p = BrgcnLayerParams.create(np.random.default_rng(0), 5, 4, g.num_relations, dropout=0.4)
        h = Tensor(np.random.default_rng(1).normal(size=(g.num_nodes, 5)))
        (empty,) = receptive_fields(g.index, [39], 1)
        states = []
        for index in (empty, None):
            rng = np.random.default_rng(2)
            out, _ = layer_forward(p, h, g, rng=rng, index=index)
            states.append(rng.bit_generator.state)
        assert empty.num_groups == 0 and not out.data[39].any()
        assert states[0] == states[1]


class TestReceptiveFields:
    def test_each_field_is_the_index_of_its_edges(self):
        # Grouped from the parent's sorted edges: the same arrays as an index built from the field's triples.
        g = augment(_graph(0), add_inverse=True, add_self_loop=True)
        idx = g.index
        heads = {3, 17, 33}
        for field in reversed(receptive_fields(idx, sorted(heads), 3)):
            keep = np.isin(idx.heads, sorted(heads))
            assert np.array_equal(field.edges, np.flatnonzero(keep)) and field.parent is idx
            rows = np.column_stack([idx.heads, idx.edge_rel, idx.tails])[keep]
            want = GraphIndex(with_triples(g, rows))
            for name in ("heads", "edge_rel", "tails", "edge_group", "group_node", "group_rel", "group_size",
                         "group_slot", "node_count", "edge_start"):
                assert np.array_equal(getattr(field, name), getattr(want, name)), name
            assert field.blocks.runs == want.blocks.runs
            assert np.array_equal(field.mean_weights, want.mean_weights)
            assert np.array_equal(field.multi_edges.ids, want.multi_edges.ids)
            assert np.array_equal(field.multi_by_group.ids, want.multi_by_group.ids)
            heads = set(field.heads.tolist()) | set(field.tails.tolist())

    def test_a_field_reads_none_of_the_parents_group_arrays(self):
        # 500 nodes with 100 of 200 relations each, one edge per group: 50,000 groups.  A one-node
        # field masks the parent's edges once and groups its own 100; nothing is over the groups.
        rng = np.random.default_rng(0)
        n, num_rel, per_node = 500, 200, 100
        rels = np.argsort(rng.random((n, num_rel)), axis=1)[:, :per_node].ravel()
        heads = np.repeat(np.arange(n), per_node)
        triples = np.column_stack([heads, rels, rng.integers(n, size=heads.size)])
        idx = HeteroGraph.from_triples(triples, num_nodes=n, relation_names=[f"r{k}" for k in range(num_rel)]).index
        nodes = np.zeros(n, dtype=bool)
        nodes[7] = True
        tracemalloc.start()
        try:
            field = idx.field(nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert idx.num_groups == n * per_node and field.num_groups == per_node
        assert peak < 4 * idx.num_groups

    def test_a_field_numbers_its_own_live_slots(self):
        # The slots its edges read, in the parent's order, and where the parent's numbering, which a
        # live layer stores, holds each of its a rows and slot rows.
        g = augment(_graph(1), add_self_loop=True)
        idx = g.index
        (field,) = receptive_fields(idx, [3, 17], 1)
        slots = field.tails * g.num_relations + field.edge_rel
        assert np.array_equal(field.live_slots, np.unique(slots))
        assert np.array_equal(field.live_slots[field.edges_by_live_slot.ids], slots)
        assert field.edges_by_live_slot.n == field.live_slots.size < idx.live_slots.size
        a_rows, slot_rows = field.parent_a_rows, field.parent_slots
        assert a_rows.n == idx.num_groups + idx.live_slots.size and slot_rows.n == idx.live_slots.size
        assert np.array_equal(idx.live_slots[slot_rows.ids], field.live_slots)
        groups, multi_slots = field.multi_rows  # a's attention rows: the multi groups, then their edges' slots
        head, tail = field.multi_live
        multi = field.multi_edges.ids
        assert head.n == tail.n == groups.size + multi_slots.size
        assert np.array_equal(groups[head.ids], field.edge_group[multi])
        assert np.array_equal(multi_slots[tail.ids - groups.size], field.edges_by_live_slot.ids[multi])
        assert np.array_equal(idx.group_slot[a_rows.ids[: groups.size]], field.group_slot[groups])
        assert np.array_equal(a_rows.ids[groups.size :], idx.num_groups + slot_rows.ids[multi_slots])
        whole_groups, whole_slots = idx.multi_rows
        assert np.array_equal(idx.parent_a_rows.ids, np.concatenate((whole_groups, idx.num_groups + whole_slots)))
        assert idx.parent_slots is None
        # A dense layer's rows on the field are ranked as the whole graph's, whose own chunk layout is not built.
        rank, slot_rank = field.attention_rows.rank, field.slot_rows.rank
        assert not any(isinstance(v, dn.TypedRows) for v in vars(idx).values())
        at = {slot: k for k, slot in enumerate(idx.group_slot[whole_groups].tolist())}
        at = [at[slot] for slot in field.group_slot[groups].tolist()]
        assert np.array_equal(rank[: groups.size], idx.attention_rows.rank[at])
        at = np.searchsorted(whole_slots, slot_rows.ids[multi_slots])
        assert np.array_equal(rank[groups.size :], idx.attention_rows.rank[whole_groups.size + at])
        assert np.array_equal(slot_rank, idx.slot_rows.rank[slot_rows.ids])

    def test_the_whole_graph_is_the_field_of_every_node(self):
        g = _graph(0)
        assert receptive_fields(g.index, range(g.num_nodes), 2) == [g.index, g.index]
        assert g.index.parent is g.index and g.index.edges is None

    def test_refusals(self):
        g = _graph(0)
        with pytest.raises(hg.BoundsError):
            receptive_fields(g.index, [40], 1)
        with pytest.raises(hg.BoundsError):
            receptive_fields(g.index, [-1], 1)
        (field,) = receptive_fields(g.index, [3], 1)
        with pytest.raises(hg.GraphError, match="whole graph"):
            field.field(np.ones(g.num_nodes, dtype=bool))
        other = _graph(1)
        p = BrgcnLayerParams.create(np.random.default_rng(0), g.num_nodes, 4, g.num_relations)
        with pytest.raises(ConfigurationError, match="fields"):
            layer_forward(p, None, other, index=field)
        with pytest.raises(ConfigurationError, match="2 field indexes for 1 layers"):
            stack_forward([p], None, g, fields=[field, field])

    def test_graph_constant_weights_are_kept(self):
        idx = _graph(0).index
        assert idx.mean_weights is idx.mean_weights and not idx.mean_weights.flags.writeable
        assert np.array_equal(idx.mean_weights, 1.0 / idx.group_size[idx.edge_group])
        assert idx.unit_weights is idx.unit_weights and not idx.unit_weights.flags.writeable
        assert np.array_equal(idx.unit_weights, np.ones(idx.num_edges))


class TestTrainingFields:
    @pytest.mark.parametrize("epochs, patience, valid, built", [
        (1, 0, True, 2),  # the only epoch can end the run: its metrics forward is whole-graph
        (6, 0, False, 2),  # train and valid are the training nodes: the same fields
        (6, 0, True, 4),
        (6, 2, True, 2),  # early stopping can end any epoch: every metrics forward is whole-graph
    ])
    def test_each_field_is_built_once_per_run(self, monkeypatch, epochs, patience, valid, built):
        graph, labels = planted_graph(num_labeled=12, num_distractors=3, seed=8)
        ids = labels.labeled_ids
        split = hg.SplitSpec(ids[:6], ids[6:9] if valid else (), ids[9:] if valid else ids[6:])
        cfg = TrainConfig(epochs=epochs, hidden_units=4, dropout=0.2, add_self_loop=True,
                          early_stop_patience=patience)
        cut, forwards = [], []
        field, forward = GraphIndex.field, layer_mod.layer_forward

        def counting_field(self, nodes):
            cut.append(self)
            return field(self, nodes)

        def recording(params, h, g, *, rng=None, collect_trace=True, index=None):
            forwards.append((rng is None, index))
            return forward(params, h, g, rng=rng, collect_trace=collect_trace, index=index)

        monkeypatch.setattr(GraphIndex, "field", counting_field)
        monkeypatch.setattr(layer_mod, "layer_forward", recording)
        run = train_node_classifier(graph, labels, split, cfg)
        assert len(cut) == built and all(idx is run.graph.index for idx in cut)
        n = len(run.metrics_rows)
        assert n == epochs or patience
        steps = [index for is_eval, index in forwards if not is_eval]
        metrics = [index for is_eval, index in forwards if is_eval]
        assert len(steps) == len(metrics) == 2 * n
        assert steps[:2] != [None, None] and steps == steps[:2] * n  # the same two fields every step
        assert metrics[-2:] == [None, None]  # the epoch that ended the run
        whole = patience > 0 or epochs == 1
        assert metrics[:-2] == ([None, None] if whole else metrics[:2]) * (n - 1)
        assert whole or (metrics[:2] == steps[:2]) == (not valid)
