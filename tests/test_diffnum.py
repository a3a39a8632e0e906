"""Tests for the tensor substrate: forward values, backward, and the FD oracle."""

import math

import numpy as np
import pytest

from brgcn import diffnum as dn
from brgcn.diffnum import (
    DimensionError,
    NumericError,
    Tape,
    Tensor,
    load_checkpoint,
    record_op,
    save_checkpoint,
)
from brgcn.diffnum.tensor import _scatter_add
from gradcheck import DeterminismError, grad_check
from pair_oracle import pair_dot


class TestScatterAdd:
    """``_scatter_add`` against ``np.add.at``, compared bit for bit."""

    @staticmethod
    def _check(index, values, n):
        expected = np.zeros((n,) + values.shape[index.ndim :])
        np.add.at(expected, index, values)
        out = _scatter_add(index, values, n)
        assert out.shape == expected.shape and out.dtype == np.float64
        assert np.array_equal(out.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("tail", [(), (4,), (3, 2)])
    def test_repeated_indices_and_untouched_rows(self, tail):
        rng = np.random.default_rng(len(tail))
        index = np.array([3, 0, 3, 3, 7, 0, 3])  # rows 1, 2, 4, 5, 6 and 8 untouched
        shape = index.shape + tail
        # magnitudes 1e-12..1e12, so any other summation order changes the bits
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-12, 13, size=shape)
        self._check(index, values, 9)

    @pytest.mark.parametrize("tail", [(), (16,), (2, 3)])
    def test_many_collisions(self, tail):
        rng = np.random.default_rng(5)
        index = rng.integers(0, 40, 3000)
        shape = index.shape + tail
        self._check(index, rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape), 50)

    @pytest.mark.parametrize("tail", [(), (5,), (2, 3)])
    def test_empty_index(self, tail):
        self._check(np.zeros(0, dtype=np.intp), np.zeros((0,) + tail), 4)

    def test_two_dimensional_index(self):
        rng = np.random.default_rng(6)
        self._check(rng.integers(0, 6, (4, 5)), rng.normal(size=(4, 5, 3)), 6)


class TestForwardValues:
    def test_softmax_equal_logits(self):
        out = dn.softmax(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_softmax_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            x = rng.uniform(-30, 30, size=rng.integers(1, 9))
            s = dn.softmax(Tensor(x)).data
            assert abs(s.sum() - 1.0) < 1e-12
            shifted = dn.softmax(Tensor(x + 17.3)).data
            np.testing.assert_allclose(s, shifted, atol=1e-12)

    def test_softmax_requires_vector(self):
        with pytest.raises(DimensionError):
            dn.softmax(Tensor(np.zeros((2, 2))))

    def test_leaky_relu_definition(self):
        assert dn.leaky_relu(Tensor(-2.0), 0.2).item() == pytest.approx(-0.4)
        assert dn.leaky_relu(Tensor(3.0), 0.2).item() == 3.0

    def test_sigmoid_derivative_at_zero(self):
        x = dn.param([0.0])
        with Tape() as tape:
            tape.backward(dn.tsum(dn.sigmoid(x)))
        assert x.grad[0] == pytest.approx(0.25, abs=1e-15)

    def test_segment_softmax_matches_per_segment_softmax(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=7)
        seg = np.array([0, 0, 0, 1, 1, 2, 2])
        out = dn.segment_softmax(Tensor(x), dn.Segments(seg, 3)).data
        for s in range(3):
            np.testing.assert_allclose(
                out[seg == s], dn.softmax(Tensor(x[seg == s])).data, atol=1e-14
            )

    def test_segment_softmax_rejects_empty_segment(self):
        with pytest.raises(DimensionError):
            dn.segment_softmax(Tensor([1.0, 2.0]), dn.Segments([0, 2], 3))

    def test_segment_sum_buckets(self):
        x = Tensor(np.arange(8.0).reshape(4, 2))
        out = dn.segment_sum(x, dn.Segments([0, 0, 1, 1], 2))
        np.testing.assert_array_equal(out.data, [[2.0, 4.0], [10.0, 12.0]])

    def test_pair_dot_samples_the_product(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
        rows, cols = np.array([2, 0, 2, 1]), np.array([4, 4, 0, 1])
        out = pair_dot(Tensor(a), Tensor(b), rows, cols)
        np.testing.assert_allclose(out.data, (a @ b.T)[rows, cols], atol=1e-14)

    def test_gather_sum_is_a_sparse_product(self):
        rng = np.random.default_rng(3)
        w, x = rng.normal(size=5), rng.normal(size=(4, 2))
        src, dst = np.array([1, 3, 1, 0, 1]), np.array([0, 2, 0, 0, 2])
        dense = np.zeros((4, 4))
        np.add.at(dense, (dst, src), w)
        out = dn.gather_sum(Tensor(w), Tensor(x), dn.Segments(src, 4), dn.Segments(dst, 4))
        np.testing.assert_allclose(out.data, dense @ x, atol=1e-14)
        np.testing.assert_array_equal(out.data[[1, 3]], 0.0)

    def test_fused_ops_reject_bad_indices(self):
        m = Tensor(np.zeros((2, 3)))
        with pytest.raises(DimensionError):
            pair_dot(m, m, np.array([0, 2]), np.array([0, 1]))
        with pytest.raises(DimensionError):
            dn.gather_sum(Tensor([1.0]), m, dn.Segments([0], 2), dn.Segments([3], 3))

    def test_matmul_shape_mismatch(self):
        with pytest.raises(DimensionError):
            dn.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_add_shape_mismatch(self):
        with pytest.raises(DimensionError):
            dn.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))

    def test_numeric_error_names_op(self):
        with pytest.raises(NumericError, match="exp"):
            dn.exp(Tensor([1000.0]))
        with pytest.raises(NumericError, match="log"):
            dn.log(Tensor([-1.0]))


class TestBackwardSemantics:
    def test_fanout_accumulates(self):
        # grad of x in x*x + 3*x must be 2x + 3
        x = dn.param(4.0)
        with Tape() as tape:
            y = dn.add(dn.mul(x, x), dn.mul(x, 3.0))
            tape.backward(y)
        assert x.grad == pytest.approx(11.0)

    def test_grad_accumulates_across_backward_calls(self):
        x = dn.param(2.0)
        for _ in range(2):
            with Tape() as tape:
                tape.backward(dn.mul(x, x))
        assert x.grad == pytest.approx(8.0)  # 2 * (2x)

    def test_backward_requires_scalar(self):
        x = dn.param([1.0, 2.0])
        with Tape() as tape:
            y = dn.mul(x, x)
            with pytest.raises(DimensionError):
                tape.backward(y)

    def test_no_tape_means_no_tracking(self):
        x = dn.param(3.0)
        y = dn.mul(x, x)
        assert not y.requires_grad

    def test_broadcast_backward_reduces(self):
        a = dn.param(np.ones((3, 2)))
        b = dn.param(np.ones(2))
        with Tape() as tape:
            tape.backward(dn.tsum(dn.mul(a, b)))
        assert a.grad.shape == (3, 2)
        assert b.grad.shape == (2,)
        np.testing.assert_array_equal(b.grad, [3.0, 3.0])

    @pytest.mark.parametrize(
        "op, shapes",
        [
            (dn.add, [(3, 2), (2,)]),
            (dn.sub, [(3, 2), (3, 2)]),
            (dn.mul, [(3, 2), (3, 1)]),
            (dn.matmul, [(3, 2), (2, 4)]),
            (dn.matmul, [(3, 2), (2,)]),
            (dn.matmul, [(3,), (3, 2)]),
        ],
    )
    def test_no_partial_for_a_constant_operand(self, op, shapes):
        # Only the side that takes a gradient gets a partial; the other is never computed.
        rng = np.random.default_rng(4)
        for trained in (0, 1):
            args = [dn.param(rng.normal(size=s)) if k == trained else Tensor(rng.normal(size=s))
                    for k, s in enumerate(shapes)]
            with Tape() as tape:
                out = op(*args)
            (_, inputs, backward), = tape._records
            partials = backward(np.ones_like(out.data))
            assert partials[1 - trained] is None
            assert partials[trained].shape == shapes[trained]


    def test_row_norms_and_zero_row_gradient(self):
        m = dn.param([[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]])
        with Tape() as tape:
            norms = dn.l2_norm(m, axis=1)
            tape.backward(dn.tsum(dn.mul(norms, np.array([1.0, 5.0, -2.0]))))
        np.testing.assert_array_equal(norms.data, [5.0, 0.0, 1.0])
        np.testing.assert_array_equal(m.grad, [[0.6, 0.8], [0.0, 0.0], [-2.0, 0.0]])


def _rand(rng, *shape):
    return rng.uniform(-2.0, 2.0, size=shape)


# Builders return (f, params) with f a scalar-valued closure over the params.
def _op_cases(rng):
    a = dn.param(_rand(rng, 4))
    b = dn.param(_rand(rng, 4))
    m = dn.param(_rand(rng, 3, 4))
    n = dn.param(_rand(rng, 4, 2))
    seg = dn.Segments([0, 0, 1, 1], 2)
    lo_vec = dn.param(_rand(rng, 5))
    pos = dn.param(np.abs(_rand(rng, 4)) + 0.05)
    w = dn.param(_rand(rng, 5))
    # repeated indices: gradients must accumulate, not overwrite
    src, dst = dn.Segments([1, 3, 1, 0, 1], 4), dn.Segments([0, 2, 0, 0, 1], 3)
    # blocks of 3, 2, 2 and 1 rows: runs of sizes 3, 2 and 1
    blocks = dn.BlockLayout([3, 2, 2, 1])
    q, k, v = (dn.param(_rand(rng, 8, 2)) for _ in range(3))
    pw = _rand(rng, 8, 2)
    rows = dn.Segments([2, 0, 2, 1, 2], 3)
    return [
        ("add", lambda: dn.tsum(dn.add(a, b)), [a, b]),
        ("add_broadcast", lambda: dn.tsum(dn.add(m, b)), [m, b]),
        ("sub", lambda: dn.tsum(dn.sub(a, b)), [a, b]),
        ("neg", lambda: dn.tsum(dn.neg(a)), [a]),
        ("mul", lambda: dn.tsum(dn.mul(a, b)), [a, b]),
        ("mul_broadcast", lambda: dn.tsum(dn.mul(m, b)), [m, b]),
        ("matmul_mm", lambda: dn.tsum(dn.matmul(m, n)), [m, n]),
        ("matmul_mv", lambda: dn.tsum(dn.matmul(m, a)), [m, a]),
        ("matmul_vm", lambda: dn.tsum(dn.matmul(a, n)), [a, n]),
        ("dot", lambda: dn.dot(a, b), [a, b]),
        ("concat", lambda: dn.tsum(dn.mul(dn.concat([a, b]), dn.concat([b, a]))), [a, b]),
        ("stack", lambda: dn.tsum(dn.mul(dn.stack([a, b]), 0.5)), [a, b]),
        ("reshape", lambda: dn.tsum(dn.mul(dn.reshape(m, (4, 3)), 1.5)), [m]),
        ("transpose", lambda: dn.tsum(dn.matmul(dn.transpose(m), m)), [m]),
        ("take", lambda: dn.tsum(dn.take(m, np.array([2, 0, 2]))), [m]),
        # a checked index, repeated rows: the gradient is the schedule's sum
        ("take_segments", lambda: dn.tsum(dn.mul(dn.take(m, rows), pw[:5, :1])), [m]),
        ("sum_all", lambda: dn.tsum(dn.mul(m, m)), [m]),
        ("sum_axis", lambda: dn.tsum(dn.mul(dn.tsum(m, axis=0), b)), [m, b]),
        ("exp", lambda: dn.tsum(dn.exp(a)), [a]),
        ("log", lambda: dn.tsum(dn.log(pos)), [pos]),
        ("sigmoid", lambda: dn.tsum(dn.sigmoid(a)), [a]),
        ("relu", lambda: dn.tsum(dn.relu(a)), [a]),
        ("leaky_relu", lambda: dn.tsum(dn.leaky_relu(a, 0.2)), [a]),
        ("softmax", lambda: dn.tsum(dn.mul(dn.softmax(a), b)), [a, b]),
        (
            "softmax_rows",
            lambda: dn.tsum(dn.mul(dn.softmax_rows(m), 0.7)),
            [m],
        ),
        (
            "segment_softmax",
            lambda: dn.tsum(dn.mul(dn.segment_softmax(a, seg), b)),
            [a, b],
        ),
        (
            "segment_sum",
            lambda: dn.tsum(dn.mul(dn.segment_sum(m, dn.Segments([0, 1, 0], 2)), 1.3)),
            [m],
        ),
        (
            "block_attention",
            lambda: dn.tsum(dn.mul(dn.block_attention(q, k, v, blocks)[0], pw)),
            [q, k, v],
        ),
        (
            "gather_sum",
            lambda: dn.tsum(dn.mul(dn.gather_sum(w, n, src, dst), dn.gather_sum(w, n, src, dst))),
            [w, n],
        ),
        ("l2_norm", lambda: dn.l2_norm(a), [a]),
        (
            "l2_norm_axis",
            lambda: dn.tsum(dn.mul(dn.l2_norm(m, axis=1), np.array([1.0, -0.5, 2.0]))),
            [m],
        ),
        ("clip_min", lambda: dn.tsum(dn.clip_min(lo_vec, 0.0)), [lo_vec]),
    ]


class TestPrimitiveGradients:
    def test_every_primitive_100_trials(self):
        """Each registered primitive passes grad_check at 1e-6, 100 random trials."""
        rng = np.random.default_rng(42)
        ops = {name for (name, _, _) in _op_cases(rng)}
        worst = {name: 0.0 for name in ops}
        for _ in range(100):
            for name, f, params in _op_cases(rng):
                report = grad_check(f, params, eps=1e-5, tol=1e-6)
                worst[name] = max(worst[name], report.max_rel_error)
                assert report.passed, f"{name}: {report}"
        assert max(worst.values()) <= 1e-6


class TestGradCheckOracle:
    def test_quadratic(self):
        x = dn.param(3.0, name="x")
        report = grad_check(lambda: dn.mul(x, x), [x], eps=1e-5, tol=1e-6)
        assert report.passed
        # analytic gradient is 6; the FD estimate must agree to ~1e-6
        assert report.max_rel_error < 1e-6

    def test_wrong_gradient_detected(self):
        x = dn.param([1.5], name="x")

        def square_with_broken_backward():
            out = record_op("bad_square", x.data * x.data, (x,), lambda g: (3.0 * x.data * g,))
            return dn.tsum(out)

        report = grad_check(square_with_broken_backward, [x], eps=1e-5, tol=1e-6)
        assert not report.passed

    def test_nondeterministic_function_rejected(self):
        rng = np.random.default_rng(0)
        x = dn.param(1.0)
        with pytest.raises(DeterminismError):
            grad_check(lambda: dn.mul(x, rng.random()), [x])

    def test_eps_bounds(self):
        x = dn.param(1.0)
        with pytest.raises(ValueError):
            grad_check(lambda: dn.mul(x, x), [x], eps=1e-8)
        with pytest.raises(ValueError):
            grad_check(lambda: dn.mul(x, x), [x], eps=1e-2)

    def test_unused_parameter_gets_zero_gradient(self):
        x = dn.param(2.0)
        unused = dn.param(5.0)
        report = grad_check(lambda: dn.mul(x, x), [x, unused], eps=1e-5, tol=1e-6)
        assert report.passed


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        arrays = {
            "layer0.w": rng.normal(size=(4, 3)),
            "layer0.a.0": rng.normal(size=7),
            "scalar": np.array(math.pi),
        }
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, arrays)
        loaded = load_checkpoint(path)
        assert set(loaded) == set(arrays)
        for key in arrays:
            assert np.array_equal(loaded[key], arrays[key])
            assert loaded[key].dtype == np.float64

    def test_reserved_key_rejected(self, tmp_path):
        from brgcn.diffnum import CheckpointError

        with pytest.raises(CheckpointError):
            save_checkpoint(tmp_path / "x.npz", {"__bad__": np.zeros(1)})

    def test_missing_file(self, tmp_path):
        from brgcn.diffnum import CheckpointError

        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "absent.npz")
