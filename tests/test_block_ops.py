"""The block ops ``block_dot`` and ``block_sum`` against the flat pair-list oracle, bit for bit."""

import tracemalloc

import numpy as np
import pytest

from brgcn import diffnum as dn
from brgcn.diffnum import DimensionError, Tape, Tensor
from brgcn.hetgraph import HeteroGraph, augment
from brgcn.layer import BrgcnLayerParams, layer_forward
from pair_oracle import block_pairs, pair_dot


def _same(x, y) -> bool:
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


def _skewed_graph(seed: int) -> HeteroGraph:
    """Node 0 carries every relation, nodes 1-8 one each, nodes 30-39 have no out-edges,
    the rest a random few; the triples are given in shuffled order."""
    rng = np.random.default_rng(seed)
    n, num_rel = 40, 9
    rows = [(0, r, int(rng.integers(n))) for r in range(num_rel) for _ in range(2)]
    rows += [(i, i, int(rng.integers(n))) for i in range(1, num_rel)]
    for i in range(num_rel, 30):
        for r in rng.choice(num_rel, size=rng.integers(1, 6), replace=False):
            rows += [(i, int(r), int(t)) for t in rng.integers(0, n, rng.integers(1, 4))]
    triples = np.array(rows)[rng.permutation(len(rows))]
    return HeteroGraph.from_triples(triples, num_nodes=n)


def _spread(rng, *shape):
    """Values of magnitude 1e-6..1e6, so any other summation order changes the bits."""
    return rng.normal(size=shape) * 10.0 ** rng.integers(-6, 7, size=shape)


def _grads(f, inputs, upstream):
    """Output and every input's gradient of ``f(*inputs)`` under the upstream gradient."""
    params = [dn.param(x) for x in inputs]
    with Tape() as tape:
        out = f(*params)
        tape.backward(dn.tsum(dn.mul(out, Tensor(upstream))))
    return [out.data] + [p.grad for p in params]


class TestIndexLayout:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pairs_are_every_same_node_pair_position_major(self, seed):
        g = _skewed_graph(seed)
        idx = g.index
        rows, cols = block_pairs(idx.blocks.first)
        assert np.array_equal(rows, idx.pair_rows)
        assert idx.blocks.start[-1] == rows.size == (idx.node_count**2).sum()
        assert np.array_equal(idx.group_node[rows], idx.group_node[cols])
        assert (np.diff(idx.node_count[idx.group_node]) <= 0).all()
        assert idx.node_count[0] == g.num_relations and not idx.node_count[30:].any()
        for i in range(g.num_nodes):
            first, m = idx.node_first[i], idx.node_count[i]
            heads = g.triples[:, 0] == i
            assert idx.relations_of(i) == tuple(np.unique(g.triples[heads, 1]).tolist())
            block = slice(first, first + m)
            assert (idx.group_node[block] == i).all() and (idx.blocks.first[block] == first).all()
            for a in range(m):
                for b in range(m):
                    p = idx.blocks.start[b] + first + a
                    assert (rows[p], cols[p]) == (first + a, first + b)


class TestBitIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d", [1, 5, 16])
    @pytest.mark.parametrize("order", ["C", "F"])  # einsum sums a strided row in another order
    def test_block_dot_equals_pair_dot(self, seed, d, order):
        idx = _skewed_graph(seed).index
        rows, cols = block_pairs(idx.blocks.first)
        rng = np.random.default_rng(seed + 10)
        q, k = (np.asarray(_spread(rng, idx.num_groups, d), order=order) for _ in range(2))
        up = _spread(rng, rows.size)
        got = _grads(lambda a, b: dn.block_dot(a, b, idx.blocks), [q, k], up)
        want = _grads(lambda a, b: pair_dot(a, b, rows, cols), [q, k], up)
        assert all(_same(x, y) for x, y in zip(got, want))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d", [1, 5, 16])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_block_sum_equals_gather_sum(self, seed, d, order):
        idx = _skewed_graph(seed).index
        rows, cols = block_pairs(idx.blocks.first)
        rng = np.random.default_rng(seed + 20)
        w, v = _spread(rng, rows.size), np.asarray(_spread(rng, idx.num_groups, d), order=order)
        up = np.asarray(_spread(rng, idx.num_groups, d), order=order)
        got = _grads(lambda a, b: dn.block_sum(a, b, idx.blocks), [w, v], up)
        want = _grads(lambda a, b: dn.gather_sum(a, b, cols, rows, idx.num_groups), [w, v], up)
        assert all(_same(x, y) for x, y in zip(got, want))

    @pytest.mark.parametrize("mode", ["full", "relation_only"])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("augmented", [False, True])
    def test_layer_matches_the_flat_pair_path(self, monkeypatch, mode, seed, augmented):
        # The whole layer, forward and every parameter gradient, with the block
        # ops and with the flat pair-list oracle in their place.
        g = _skewed_graph(seed)
        if augmented:
            g = augment(g, add_inverse=True, add_self_loop=True)
        p = BrgcnLayerParams.create(np.random.default_rng(seed), 6, 4, g.num_relations)
        h = Tensor(np.random.default_rng(seed + 1).normal(size=(g.num_nodes, 6)))
        up = np.random.default_rng(seed + 2).normal(size=(g.num_nodes, 4))

        def run():
            dn.zero_grad(p.params())
            with Tape() as tape:
                out, trace = layer_forward(p, h, g, mode=mode)
                tape.backward(dn.tsum(dn.mul(out, Tensor(up))))
            return [out.data] + [t.grad for t in p.params()], trace

        got, trace = run()
        rows, cols = block_pairs(g.index.blocks.first)
        groups = g.index.num_groups
        monkeypatch.setattr(dn, "block_dot", lambda a, b, blocks: pair_dot(a, b, rows, cols))
        monkeypatch.setattr(
            dn, "block_sum", lambda w, x, blocks: dn.gather_sum(w, x, cols, rows, groups)
        )
        want, want_trace = run()
        assert all(x is None and y is None or _same(x, y) for x, y in zip(got, want))
        assert list(trace.psi) == list(want_trace.psi)
        assert all(_same(trace.psi[i], want_trace.psi[i]) for i in trace.psi)


class TestMemory:
    def test_transients_stay_below_half_a_pairs_by_d_array(self):
        # 200 nodes with 30 relations each: 6,000 groups and 180,000 pairs.
        n, num_rel, d = 200, 30, 16
        rng = np.random.default_rng(3)
        heads, rels = np.repeat(np.arange(n), num_rel), np.tile(np.arange(num_rel), n)
        tails = rng.integers(0, n, heads.size)
        g = HeteroGraph.from_triples(np.column_stack([heads, rels, tails]), num_nodes=n)
        idx = g.index
        pairs, groups = idx.blocks.start[-1], idx.num_groups
        assert pairs >= 20 * groups
        q, k, v = (dn.param(rng.normal(size=(groups, d))) for _ in range(3))

        def peak(dot, mix):
            tracemalloc.start()
            try:
                with Tape() as tape:
                    tape.backward(dn.tsum(mix(dot(q, k), v)))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        blocks = idx.blocks
        block = peak(lambda a, b: dn.block_dot(a, b, blocks), lambda w, x: dn.block_sum(w, x, blocks))
        assert block < pairs * d * 8 / 2
        # The flat pair list gathers (pairs, d) blocks: the bound tells the two apart.
        # Every block has num_rel rows, so position b pairs each group with first + b.
        rows = idx.pair_rows
        cols = blocks.first[rows] + np.repeat(np.arange(num_rel), groups)
        flat = peak(
            lambda a, b: pair_dot(a, b, rows, cols),
            lambda w, x: dn.gather_sum(w, x, cols, rows, groups),
        )
        assert flat > pairs * d * 8


class TestLayoutChecks:
    def test_bad_layouts_and_shapes_are_rejected(self):
        # a block not at its first row, growing blocks, no first row, a
        # negative id, a matrix
        for first in ([0, 0, 1, 1], [0, 1, 1, 1], [1, 1, 1, 1], [0, 0, 0, -1], [[0, 0, 0, 0]]):
            with pytest.raises(DimensionError, match="BlockLayout"):
                dn.BlockLayout(np.array(first))
        m = Tensor(np.zeros((4, 2)))
        blocks = dn.BlockLayout(np.array([0, 0, 0, 3]))  # 9 + 1 pairs
        assert blocks.start[-1] == 10
        for layout in (dn.BlockLayout(np.array([0, 0, 2])), np.array([0, 0, 0, 3])):
            with pytest.raises(DimensionError, match="block_dot"):
                dn.block_dot(m, m, layout)
            with pytest.raises(DimensionError, match="block_sum"):
                dn.block_sum(Tensor(np.zeros(10)), m, layout)
        with pytest.raises(DimensionError):
            dn.block_dot(m, Tensor(np.zeros((4, 3))), blocks)
        with pytest.raises(DimensionError):
            dn.block_sum(Tensor(np.zeros(9)), m, blocks)
        assert dn.block_dot(m, m, blocks).shape == (10,)
        assert dn.block_sum(Tensor(np.ones(10)), m, blocks).shape == (4, 2)
        empty = Tensor(np.zeros((0, 2)))
        assert dn.block_dot(empty, empty, dn.BlockLayout(np.zeros(0, int))).shape == (0,)
