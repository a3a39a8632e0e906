"""Receptive fields: layers run over the edges whose rows a loss or metric reads.

The oracle is the whole-graph forward: on a field, the target rows, the loss,
every gradient and the generator's state after the step equal it bit for bit.
"""

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
                                live=g.index if k == 0 and one_hot and not num_bases else None)
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
        # Cut by a mask, without a sort: the same arrays as an index built from the field's triples.
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

    def test_a_field_keeps_the_parents_live_numbering(self):
        g = augment(_graph(1), add_self_loop=True)
        idx = g.index
        (field,) = receptive_fields(idx, [3, 17], 1)
        assert field.live_slots is idx.live_slots and field.live_nodes is idx.live_nodes
        assert np.array_equal(field.edges_by_live_slot.ids, idx.edges_by_live_slot.ids[field.edges])
        assert field.edges_by_live_slot.n == idx.live_slots.size
        head, tail = field.multi_live
        assert head.n == tail.n == idx.num_groups + idx.live_slots.size
        multi = field.edges[field.multi_edges.ids]
        assert np.array_equal(head.ids, idx.edge_group[multi])
        assert np.array_equal(tail.ids, idx.num_groups + idx.edges_by_live_slot.ids[multi])

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
