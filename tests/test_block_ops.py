"""The relation stage's fused ``block_attention`` against the flat pair-list oracles."""

import tracemalloc

import numpy as np
import pytest

from brgcn import diffnum as dn
from brgcn.diffnum import DimensionError, NumericError, Tape, Tensor
from brgcn.diffnum.tensor import _row_max
from brgcn.hetgraph import HeteroGraph, augment
from brgcn.layer import BrgcnLayerParams, layer_forward
from gradcheck import grad_check
from pair_oracle import (
    PositionMajor,
    attention_chain,
    block_dot,
    block_pairs,
    block_sum,
    node_pairs,
    pair_dot,
    row_firsts,
)
from synth import relations_of


def _same(x, y) -> bool:
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


def _close(x, y) -> bool:
    """Equal shapes, and every entry within 1e-12 of the largest entry of ``y``."""
    return x.shape == y.shape and np.abs(x - y).max(initial=0.0) <= 1e-12 * np.abs(y).max(initial=0.0)


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


# |R_i| per node: both sides of numpy's 8-term pairwise-summation unroll, and
# a run of one node (13).
SIZES = (2, 13, 8, 1, 7, 8, 2, 1, 7, 1)


def _sized_graph(seed: int) -> HeteroGraph:
    """Node i carries SIZES[i] random relations of 16, one to three edges each; shuffled triples."""
    rng = np.random.default_rng(seed)
    rows = []
    for i, m in enumerate(SIZES):
        for r in rng.choice(16, size=m, replace=False):
            rows += [(i, int(r), int(t)) for t in rng.integers(0, len(SIZES), rng.integers(1, 4))]
    triples = np.array(rows)[rng.permutation(len(rows))]
    return HeteroGraph.from_triples(triples, num_nodes=len(SIZES))


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
        # The index's runs, and the position-major pairs of the block-position
        # oracles put in node-major order at the runs' offsets.
        g = _skewed_graph(seed)
        idx = g.index
        lay = idx.blocks
        rows, cols = node_pairs(lay)
        assert lay.rows == idx.num_groups and lay.pairs == rows.size == (idx.node_count**2).sum()
        assert np.array_equal(idx.group_node[rows], idx.group_node[cols])
        assert (np.diff(idx.node_count[idx.group_node]) <= 0).all()
        assert idx.node_count[0] == g.num_relations and not idx.node_count[30:].any()
        sizes = [m for _, _, m, _ in lay.runs]
        assert sizes == sorted(set(idx.node_count[idx.node_count > 0].tolist()), reverse=True)
        assert [lo for lo, _, _, _ in lay.runs] == [0] + [hi for _, hi, _, _ in lay.runs[:-1]]
        for i in range(g.num_nodes):
            first, m = idx.node_first[i], idx.node_count[i]
            heads = g.triples[:, 0] == i
            assert relations_of(g, i) == tuple(np.unique(g.triples[heads, 1]).tolist())
            if not m:
                continue
            assert (idx.group_node[first : first + m] == i).all()
            lo, hi, _, p = next(run for run in lay.runs if run[2] == m)
            assert lo <= first < hi and (first - lo) % m == 0
            for a in range(m):
                for b in range(m):
                    q = p + (first - lo) * m + a * m + b
                    assert (rows[q], cols[q]) == (first + a, first + b)


class TestBitIdentity:
    """The block-position oracles equal the flat pair list bit for bit; the
    layer on the fused op matches the layer on the flat pair list to 1e-12."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d", [1, 5, 16])
    @pytest.mark.parametrize("order", ["C", "F"])  # einsum sums a strided row in another order
    def test_block_dot_equals_pair_dot(self, seed, d, order):
        idx = _skewed_graph(seed).index
        first = row_firsts(idx.blocks)
        rows, cols = block_pairs(first)
        rng = np.random.default_rng(seed + 10)
        q, k = (np.asarray(_spread(rng, idx.num_groups, d), order=order) for _ in range(2))
        up = _spread(rng, rows.size)
        got = _grads(lambda a, b: block_dot(a, b, PositionMajor(first)), [q, k], up)
        want = _grads(lambda a, b: pair_dot(a, b, rows, cols), [q, k], up)
        assert all(_same(x, y) for x, y in zip(got, want))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d", [1, 5, 16])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_block_sum_equals_gather_sum(self, seed, d, order):
        idx = _skewed_graph(seed).index
        first = row_firsts(idx.blocks)
        rows, cols = block_pairs(first)
        rng = np.random.default_rng(seed + 20)
        w, v = _spread(rng, rows.size), np.asarray(_spread(rng, idx.num_groups, d), order=order)
        up = np.asarray(_spread(rng, idx.num_groups, d), order=order)
        got = _grads(lambda a, b: block_sum(a, b, PositionMajor(first)), [w, v], up)
        by_col, by_row = dn.Segments(cols, idx.num_groups), dn.Segments(rows, idx.num_groups)
        want = _grads(lambda a, b: dn.gather_sum(a, b, by_col, by_row), [w, v], up)
        assert all(_same(x, y) for x, y in zip(got, want))

    @pytest.mark.parametrize("variant", ["full", "relation_only"])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("augmented", [False, True])
    def test_layer_matches_the_flat_pair_path(self, monkeypatch, variant, seed, augmented):
        # The whole layer, forward and every parameter gradient, with the
        # fused op and with the flat pair-list chain in its place.
        g = _skewed_graph(seed)
        if augmented:
            g = augment(g, add_inverse=True, add_self_loop=True)
        p = BrgcnLayerParams.create(np.random.default_rng(seed), 6, 4, g.num_relations, variant=variant)
        h = Tensor(np.random.default_rng(seed + 1).normal(size=(g.num_nodes, 6)))
        up = np.random.default_rng(seed + 2).normal(size=(g.num_nodes, 4))

        def run():
            dn.zero_grad(p.params())
            with Tape() as tape:
                out, trace = layer_forward(p, h, g)
                tape.backward(dn.tsum(dn.mul(out, Tensor(up))))
            return [out.data] + [t.grad for t in p.params()], trace

        got, trace = run()

        def chain(q, k, v, layout):
            out, psi = attention_chain(q, k, v, layout)
            return out, psi.data

        monkeypatch.setattr(dn, "block_attention", chain)
        want, want_trace = run()
        assert all(x is None and y is None or _close(x, y) for x, y in zip(got, want))
        assert list(trace.psi) == list(want_trace.psi)
        assert all(_close(trace.psi[i], want_trace.psi[i]) for i in trace.psi)


class TestBlockAttention:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("d", [1, 5, 16])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_the_flat_pair_oracle(self, seed, d, order):
        lay = _sized_graph(seed).index.blocks
        assert [m for _, _, m, _ in lay.runs] == sorted(set(SIZES), reverse=True)
        assert lay.runs[0][1] - lay.runs[0][0] == 13  # one node of 13 relations
        rng = np.random.default_rng(seed + 30)
        qkv = [np.asarray(rng.normal(size=(lay.rows, d)), order=order) for _ in range(3)]
        up = np.asarray(rng.normal(size=(lay.rows, d)), order=order)
        psis = []

        def fused(q, k, v):
            out, psi = dn.block_attention(q, k, v, lay)
            psis.append(psi)
            return out

        def flat(q, k, v):
            out, psi = attention_chain(q, k, v, lay)
            psis.append(psi.data)
            return out

        got, want = _grads(fused, qkv, up), _grads(flat, qkv, up)
        assert all(_close(x, y) for x, y in zip(got, want))
        assert _close(*psis)

    @pytest.mark.parametrize("m", range(1, 10))
    def test_row_maxima_are_numpys(self, m):
        rng = np.random.default_rng(m)
        s = rng.normal(size=(40, m, m))
        s[0, :, -1] = np.inf
        s[1, 0] = -np.inf
        s[2] = s[2, :, :1]  # every row tied
        assert _same(_row_max(s), s.max(axis=-1))

    def test_partials_match_central_differences(self):
        rng = np.random.default_rng(40)
        lay = dn.BlockLayout([3, 2, 2, 1])
        q, k, v = (dn.param(rng.uniform(-2, 2, size=(8, 3))) for _ in range(3))
        weight = rng.normal(size=(8, 3))
        report = grad_check(
            lambda: dn.tsum(dn.mul(dn.block_attention(q, k, v, lay)[0], weight)), [q, k, v]
        )
        assert report.passed, str(report)

    def test_psi_rows_sum_to_one(self):
        lay = _sized_graph(2).index.blocks
        rng = np.random.default_rng(50)
        q, k, v = (Tensor(rng.normal(size=(lay.rows, 4)) * 10) for _ in range(3))
        _, psi = dn.block_attention(q, k, v, lay)
        assert psi.shape == (lay.pairs,) and not psi.flags.writeable
        for lo, hi, m, p in lay.runs:
            rows = psi[p : p + (hi - lo) * m].reshape(-1, m)
            np.testing.assert_allclose(rows.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_non_finite_input_raises(self, which):
        lay = dn.BlockLayout([2, 1])
        qkv = [Tensor(np.ones((3, 2))) for _ in range(3)]
        bad = np.ones((3, 2))
        bad[1, 0] = np.nan
        qkv[which] = Tensor(bad)
        with pytest.raises(NumericError, match="block_attention"):
            dn.block_attention(*qkv, lay)


class TestMemory:
    def test_transients_stay_below_half_a_pairs_by_d_array(self):
        # 200 nodes with 30 relations each: 6,000 groups and 180,000 pairs.
        n, num_rel, d = 200, 30, 16
        rng = np.random.default_rng(3)
        heads, rels = np.repeat(np.arange(n), num_rel), np.tile(np.arange(num_rel), n)
        tails = rng.integers(0, n, heads.size)
        g = HeteroGraph.from_triples(np.column_stack([heads, rels, tails]), num_nodes=n)
        blocks = g.index.blocks
        pairs, groups = blocks.pairs, blocks.rows
        assert pairs >= 20 * groups
        q, k, v = (dn.param(rng.normal(size=(groups, d))) for _ in range(3))

        def peak(attention):
            tracemalloc.start()
            try:
                with Tape() as tape:
                    tape.backward(dn.tsum(attention(q, k, v, blocks)[0]))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(dn.block_attention) < pairs * d * 8 / 2
        # The flat pair list gathers (pairs, d) blocks: the bound tells the two apart.
        assert peak(attention_chain) > pairs * d * 8


class TestLayoutChecks:
    def test_pair_blocks_are_views_of_each_run_of_the_flat_vector(self):
        blocks = dn.BlockLayout(np.array([3, 2, 2, 1]))
        flat = np.arange(18.0)
        runs = list(blocks.pair_blocks(flat))
        assert [run[:3] for run in runs] == [(0, 3, 3), (3, 7, 2), (7, 8, 1)]
        assert [view.shape for *_, view in runs] == [(1, 3, 3), (2, 2, 2), (1, 1, 1)]
        assert all(view.base is flat for *_, view in runs)
        np.testing.assert_array_equal(np.concatenate([view.ravel() for *_, view in runs]), flat)

    def test_bad_layouts_and_shapes_are_rejected(self):
        # growing blocks, an empty block, a negative size, float sizes, a matrix
        for sizes in ([1, 2], [2, 0], [2, -1], [2.0, 1.0], [[2, 1]]):
            with pytest.raises(DimensionError, match="BlockLayout"):
                dn.BlockLayout(np.array(sizes))
        blocks = dn.BlockLayout(np.array([3, 2, 2, 1]))  # 9 + 4 + 4 + 1 pairs
        assert blocks.runs == ((0, 3, 3, 0), (3, 7, 2, 9), (7, 8, 1, 17))
        assert (blocks.rows, blocks.pairs) == (8, 18)
        m = Tensor(np.zeros((8, 2)))
        for layout in (dn.BlockLayout(np.array([3, 2, 2])), np.array([3, 2, 2, 1])):
            with pytest.raises(DimensionError, match="block_attention"):
                dn.block_attention(m, m, m, layout)
        # k narrower than q, v too short, v a vector
        for k, v in ((Tensor(np.zeros((8, 3))), m), (m, Tensor(np.zeros((7, 2)))), (m, Tensor(np.zeros(8)))):
            with pytest.raises(DimensionError, match="block_attention"):
                dn.block_attention(m, k, v, blocks)
        out, psi = dn.block_attention(m, m, Tensor(np.ones((8, 5))), blocks)
        assert out.shape == (8, 5) and psi.shape == (18,)
        np.testing.assert_array_equal(out.data, 1.0)
        empty = Tensor(np.zeros((0, 2)))
        out, psi = dn.block_attention(empty, empty, empty, dn.BlockLayout(np.zeros(0, int)))
        assert out.shape == (0, 2) and psi.shape == (0,)
