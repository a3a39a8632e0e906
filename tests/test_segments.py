"""Reduction schedules: ``dn.Segments`` and the ops that take one.

Every sum is compared bit for bit (as int64 views) with ``_scatter_add`` and
with the raw-array oracles of ``scatter_oracle``, on index shapes that take
each of the schedule's paths: one bincount, passes only, and passes with
the deepest segments in one bincount.
"""

import numpy as np
import pytest

from brgcn import diffnum as dn
from brgcn import hetgraph
from brgcn.diffnum import DimensionError, Tape, Tensor
from brgcn.diffnum.tensor import PASS_MIN_SEGMENTS, _scatter_add
from brgcn.training import TrainConfig, train_node_classifier
import scatter_oracle as oracle
from synth import planted_graph, planted_split


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _index(kind: str, rng) -> tuple[np.ndarray, int]:
    """Segment ids and segment count of one index shape."""
    if kind == "few":  # fewer segments than a pass needs
        return rng.integers(0, PASS_MIN_SEGMENTS - 24, 500), PASS_MIN_SEGMENTS - 24
    if kind == "uniform":  # 100 segments of 5 entries each
        return rng.permutation(np.repeat(np.arange(100), 5)), 100
    if kind == "random":
        return rng.integers(0, 300, 5000), 300
    if kind == "hubs":  # 600 segments of 1-2 entries and 4 hubs of 250
        ids = np.concatenate([np.arange(600), rng.integers(0, 600, 300), np.repeat(np.arange(600, 604), 250)])
        return rng.permutation(ids), 604
    if kind == "gaps":  # every third segment empty, the others 1-4 entries
        live = np.arange(500)[np.arange(500) % 3 != 0]
        return rng.permutation(np.repeat(live, rng.integers(1, 5, live.size))), 500
    if kind == "empty":
        return np.zeros(0, dtype=np.intp), 7
    raise ValueError(kind)


KINDS = ("few", "uniform", "random", "hubs", "gaps", "empty")
PATHS = {
    "few": "bincount",
    "uniform": "passes",
    "random": "passes+bincount",
    "hubs": "passes+bincount",
    "gaps": "passes",
    "empty": "bincount",
}


def _path(seg: dn.Segments) -> str:
    if not seg._widths:  # every segment deep
        return "bincount"
    return "passes+bincount" if seg._deep else "passes"


def _values(rng, size: int, tail=()) -> np.ndarray:
    """Magnitudes 1e-12..1e12, so any other summation order changes the bits; 5% are -0.0."""
    shape = (size,) + tail
    v = rng.normal(size=shape) * 10.0 ** rng.integers(-12, 13, size=shape)
    v.reshape(-1)[rng.random(v.size) < 0.05] = -0.0
    return v


class TestSchedule:
    @pytest.mark.parametrize("kind", KINDS)
    def test_each_index_shape_takes_its_path(self, kind):
        ids, n = _index(kind, np.random.default_rng(0))
        assert _path(dn.Segments(ids, n)) == PATHS[kind]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("tail", [(), (1,), (3,), (16,)])
    def test_sum_is_bit_equal_to_scatter_add(self, kind, tail):
        rng = np.random.default_rng(len(tail))
        ids, n = _index(kind, rng)
        values = _values(rng, ids.size, tail)
        out = dn.Segments(ids, n).sum(values)
        assert _same(out, _scatter_add(ids, values, n))
        assert _same(out, oracle.add_at(ids, values, n))

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_lone_negative_zero_sums_to_zero(self, kind):
        ids, n = _index(kind, np.random.default_rng(1))
        out = dn.Segments(ids, n).sum(np.full(ids.size, -0.0))
        assert _same(out, np.zeros(n))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("tail", [(), (3,)])
    def test_max_is_bit_equal_to_maximum_at(self, kind, tail):
        rng = np.random.default_rng(2)
        ids, n = _index(kind, rng)
        values = _values(rng, ids.size, tail)
        assert _same(dn.Segments(ids, n).max(values), oracle.max_at(ids, values, n))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d", [1, 16])
    def test_sum_products_is_the_sum_of_the_products(self, kind, d):
        rng = np.random.default_rng(3)
        ids, n = _index(kind, rng)
        w, x = _values(rng, ids.size), _values(rng, 40, (d,))
        rows = rng.integers(0, 40, ids.size)
        got = dn.Segments(ids, n).sum_products(w, x, dn.Segments(rows, 40))
        assert _same(got, _scatter_add(ids, w[:, None] * x[rows], n))

    @pytest.mark.parametrize("kind", ["few", "uniform"])
    def test_integer_values_sum_as_floats(self, kind):
        ids, n = _index(kind, np.random.default_rng(5))
        values = np.arange(ids.size)
        assert _same(dn.Segments(ids, n).sum(values), _scatter_add(ids, values, n))

    def test_ids_are_a_read_only_copy(self):
        ids = np.array([2, 0, 2, 1])
        seg = dn.Segments(ids, 3)
        ids[0] = 1
        assert seg.ids.tolist() == [2, 0, 2, 1] and not seg.ids.flags.writeable
        with pytest.raises(ValueError):
            seg.ids[0] = 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_the_schedule_holds_a_few_integers_per_entry_and_segment(self, kind):
        ids, n = _index(kind, np.random.default_rng(4))
        seg = dn.Segments(ids, n)
        held = [getattr(seg, name) for name in ("ids", "order", "_slot", "_deep_rows")]
        ints = sum(a.size for a in held if isinstance(a, np.ndarray) and a is not seg.ids) + seg.ids.size
        assert ints <= 3 * ids.size + n


class TestRefusals:
    @pytest.mark.parametrize("ids", [[0, 3], [-1, 0], [[0, 1]]])
    def test_bad_ids_are_refused_at_construction(self, ids):
        with pytest.raises(DimensionError, match="Segments"):
            dn.Segments(ids, 3)

    def test_out_of_range_message(self):
        with pytest.raises(DimensionError, match=r"segment ids out of range \[0, 3\)"):
            dn.Segments([0, 3], 3)

    def test_segments_sized_for_another_operand_are_refused(self):
        four, three = dn.Segments([0, 0, 1, 1], 2), dn.Segments([0, 1, 1], 2)
        m, w = Tensor(np.ones((4, 2))), Tensor(np.ones(4))
        with pytest.raises(DimensionError, match="segment_sum"):
            dn.segment_sum(m, three)
        with pytest.raises(DimensionError, match="segment_softmax"):
            dn.segment_softmax(Tensor(np.ones(3)), four)
        with pytest.raises(DimensionError, match="gather_sum"):  # src into 2 rows, x has 4
            dn.gather_sum(w, m, four, four)
        with pytest.raises(DimensionError, match="gather_sum"):  # dst of 3 entries, w has 4
            dn.gather_sum(w, m, dn.Segments([0, 1, 2, 3], 4), three)
        with pytest.raises(DimensionError, match="take"):  # rows into 2, m has 4
            dn.take(m, three)
        with pytest.raises(DimensionError, match="Segments"):  # a raw index is not a schedule
            dn.segment_sum(m, np.array([0, 0, 1, 1]))
        with pytest.raises(DimensionError, match="Segments"):
            four.sum(np.ones(3))
        with pytest.raises(DimensionError, match="sum_products"):  # rows into 2, x has 4
            four.sum_products(np.ones(4), np.ones((4, 2)), four)
        with pytest.raises(DimensionError, match="sum_products"):
            four.sum_products(np.ones(3), np.ones((2, 2)), four)


def _grads(fn, arrays, up):
    """fn's output and the gradient of sum(out * up) for each of ``arrays``."""
    params = [dn.param(a) for a in arrays]
    with Tape() as tape:
        out = fn(*params)
        tape.backward(dn.tsum(dn.mul(out, up)))
    return [out.data] + [p.grad for p in params]


class TestOpsAgainstTheRawOracle:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("tail", [(), (5,)])
    def test_segment_sum(self, kind, tail):
        rng = np.random.default_rng(5)
        ids, n = _index(kind, rng)
        a, up = _values(rng, ids.size, tail), rng.normal(size=(n,) + tail)
        seg = dn.Segments(ids, n)
        got = _grads(lambda t: dn.segment_sum(t, seg), [a], up)
        want = _grads(lambda t: oracle.segment_sum(t, ids, n), [a], up)
        assert all(_same(g, o) for g, o in zip(got, want))

    @pytest.mark.parametrize("kind", ["few", "uniform", "random", "hubs"])
    def test_segment_softmax(self, kind):
        rng = np.random.default_rng(6)
        ids, n = _index(kind, rng)
        a, up = rng.normal(size=ids.size) * 5.0, rng.normal(size=ids.size)
        seg = dn.Segments(ids, n)
        got = _grads(lambda t: dn.segment_softmax(t, seg), [a], up)
        want = _grads(lambda t: oracle.segment_softmax(t, ids, n), [a], up)
        assert all(_same(g, o) for g, o in zip(got, want))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("tail", [(), (5,)])
    def test_take(self, kind, tail):
        rng = np.random.default_rng(8)
        ids, n = _index(kind, rng)
        a, up = _values(rng, n, tail), rng.normal(size=ids.shape + tail)
        seg = dn.Segments(ids, n)
        got = _grads(lambda t: dn.take(t, seg), [a], up)
        want = _grads(lambda t: dn.take(t, ids), [a], up)
        assert all(_same(g, o) for g, o in zip(got, want))

    @pytest.mark.parametrize("dst_kind", KINDS)
    @pytest.mark.parametrize("src_kind", ["few", "hubs"])
    @pytest.mark.parametrize("d", [1, 2, 16])
    def test_gather_sum(self, dst_kind, src_kind, d):
        rng = np.random.default_rng(7)
        dst_ids, n = _index(dst_kind, rng)
        src_pool, m = _index(src_kind, rng)  # rows of x, one per entry of dst
        src_ids = rng.permutation(np.resize(src_pool, dst_ids.size)) if dst_ids.size else dst_ids
        w, x, up = _values(rng, dst_ids.size), _values(rng, m, (d,)), rng.normal(size=(n, d))
        src, dst = dn.Segments(src_ids, m), dn.Segments(dst_ids, n)
        got = _grads(lambda a, b: dn.gather_sum(a, b, src, dst), [w, x], up)
        want = _grads(lambda a, b: oracle.gather_sum(a, b, src_ids, dst_ids, n), [w, x], up)
        assert all(_same(g, o) for g, o in zip(got, want))


class TestSchedulesPerGraph:
    # The schedules each variant's layer reads: edges into groups, groups into
    # nodes, edges into head nodes, edges into tail slots, and with node-level
    # attention edges into head slots.
    USED = {"full": 4, "relation_only": 3, "node_only": 4, "rgcn_baseline": 2}

    @pytest.mark.parametrize("variant", sorted(USED))
    def test_training_builds_each_schedule_once(self, monkeypatch, variant):
        built = []

        class Counting(dn.Segments):
            __slots__ = ()

            def __init__(self, ids, n):
                built.append(n)
                super().__init__(ids, n)

        monkeypatch.setattr(hetgraph, "Segments", Counting)
        graph, labels = planted_graph()
        split = planted_split(labels)
        for epochs in (1, 5):
            built.clear()
            cfg = TrainConfig(epochs=epochs, variant=variant, dropout=0.2, add_self_loop=True, seed=0)
            run = train_node_classifier(graph, labels, split, cfg)
            assert len(built) == self.USED[variant]
        index = run.graph.index
        assert index.edges_by_group is index.edges_by_group
        assert index.edges_by_tail_slot(4) is index.edges_by_tail_slot(4)
        assert index.edges_by_head_slot(4) is index.edges_by_head_slot(4)
        assert index.edges_by_head_slot(4) is not index.edges_by_tail_slot(4)
