"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every primitive funnels through :func:`record_op`, which checks the result
for NaN/Inf and, when a tape is active and some input carries a gradient,
appends a record to that tape.  ``Tape.backward`` walks the records once,
in reverse order, accumulating gradients additively at fan-out points.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class DiffnumError(Exception):
    """Base class for numeric-substrate failures."""


class DimensionError(DiffnumError):
    """Operands have incompatible shapes."""


class NumericError(DiffnumError):
    """An operation produced NaN or Inf."""


class Tensor:
    """A dense float64 array, optionally tracked for differentiation.

    ``grad`` is populated by ``Tape.backward`` and accumulates across
    backward calls until reset (see :func:`zero_grad`).  Tensor buffers are
    treated as immutable by all ops; only the optimizer mutates parameter
    data in place.
    """

    __slots__ = ("data", "requires_grad", "grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        if isinstance(data, np.ndarray) and data.dtype == np.float64:
            self.data = data
        else:
            self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}{tag})"

    # Operator sugar; definitions attached below the op functions.


def param(data, name: str | None = None) -> Tensor:
    """A learnable tensor: owns its buffer and participates in backward."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True, name=name)


def zero_grad(tensors) -> None:
    for t in tensors:
        t.grad = None


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Ordered record of primitive ops executed while the tape is active.

    Use as a context manager around a forward computation, then call
    ``backward`` on the resulting scalar.  Each record is visited exactly
    once during backward, in reverse execution order.
    """

    __slots__ = ("_records",)

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, loss: Tensor) -> None:
        """Populate ``grad`` on every recorded tensor reachable from ``loss``."""
        if loss.data.ndim != 0:
            raise DimensionError(
                f"backward requires a scalar loss, got shape {loss.data.shape}"
            )
        pending: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=np.float64)}
        finished: dict[int, tuple[Tensor, np.ndarray]] = {}
        holders: dict[int, Tensor] = {id(loss): loss}
        for out, inputs, backward_fn in reversed(self._records):
            g = pending.pop(id(out), None)
            if g is None:
                continue
            finished[id(out)] = (out, g)
            partials = backward_fn(g)
            for inp, part in zip(inputs, partials):
                if part is None or not inp.requires_grad:
                    continue
                key = id(inp)
                if key in pending:
                    pending[key] = pending[key] + part
                else:
                    pending[key] = part
                    holders[key] = inp
        for key, g in pending.items():  # leaves (parameters and the loss itself)
            finished[key] = (holders[key], g)
        for t, g in finished.values():
            t.grad = g if t.grad is None else t.grad + g


def record_op(
    op: str,
    out_data: np.ndarray,
    inputs: Sequence[Tensor],
    backward_fn: Callable,
) -> Tensor:
    """Finalize a primitive: trap non-finite results and register on the tape.

    ``backward_fn(g)`` must return one partial per input (``None`` allowed
    for inputs that do not need gradients).  Recording happens only when a
    tape is active and at least one input requires a gradient; the output's
    ``requires_grad`` flag mirrors that condition.
    """
    # NaN/Inf in any entry makes the sum non-finite; the elementwise check
    # only reruns to rule out overflow of the sum itself.
    if not np.isfinite(out_data.sum()) and not np.isfinite(out_data).all():
        raise NumericError(f"non-finite values produced by op '{op}'")
    tape = _TAPE_STACK[-1] if _TAPE_STACK else None
    track = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        tape._records.append((out, tuple(inputs), backward_fn))
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a gradient back to the shape of a broadcast operand."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitive set
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data + b.data
    except ValueError:
        raise DimensionError(f"add: incompatible shapes {a.shape} and {b.shape}")
    ash, bsh = a.data.shape, b.data.shape

    def backward(g):
        return _unbroadcast(g, ash), _unbroadcast(g, bsh)

    return record_op("add", out, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data - b.data
    except ValueError:
        raise DimensionError(f"sub: incompatible shapes {a.shape} and {b.shape}")
    ash, bsh = a.data.shape, b.data.shape

    def backward(g):
        return _unbroadcast(g, ash), _unbroadcast(-g, bsh)

    return record_op("sub", out, (a, b), backward)


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return record_op("neg", -a.data, (a,), lambda g: (-g,))


def mul(a, b) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data * b.data
    except ValueError:
        raise DimensionError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    ad, bd = a.data, b.data

    def backward(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return record_op("mul", out, (a, b), backward)


def matmul(a, b) -> Tensor:
    """Matrix product for 2D@2D, 2D@1D and 1D@2D operands."""
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim == 2 and bd.ndim == 2:
        if ad.shape[1] != bd.shape[0]:
            raise DimensionError(f"matmul: {ad.shape} @ {bd.shape}")
        out = ad @ bd

        def backward(g):
            return g @ bd.T, ad.T @ g

    elif ad.ndim == 2 and bd.ndim == 1:
        if ad.shape[1] != bd.shape[0]:
            raise DimensionError(f"matmul: {ad.shape} @ {bd.shape}")
        out = ad @ bd

        def backward(g):
            return g[:, None] * bd, ad.T @ g

    elif ad.ndim == 1 and bd.ndim == 2:
        if ad.shape[0] != bd.shape[0]:
            raise DimensionError(f"matmul: {ad.shape} @ {bd.shape}")
        out = ad @ bd

        def backward(g):
            return bd @ g, ad[:, None] * g

    else:
        raise DimensionError(f"matmul: unsupported ranks {ad.ndim} and {bd.ndim}")
    return record_op("matmul", out, (a, b), backward)


def dot(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise DimensionError(f"dot: need equal-length vectors, got {a.shape}, {b.shape}")
    ad, bd = a.data, b.data

    def backward(g):
        return g * bd, g * ad

    return record_op("dot", np.dot(ad, bd), (a, b), backward)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise DimensionError("concat: empty input list")
    try:
        out = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError:
        raise DimensionError(f"concat: incompatible shapes {[t.shape for t in ts]}")
    sizes = np.cumsum([t.data.shape[axis] for t in ts])[:-1]

    def backward(g):
        return tuple(np.split(g, sizes, axis=axis))

    return record_op("concat", out, ts, backward)


def stack(tensors: Sequence, axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise DimensionError("stack: empty input list")
    try:
        out = np.stack([t.data for t in ts], axis=axis)
    except ValueError:
        raise DimensionError(f"stack: incompatible shapes {[t.shape for t in ts]}")

    def backward(g):
        return tuple(np.moveaxis(g, axis, 0)[i] for i in range(len(ts)))

    return record_op("stack", out, ts, backward)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise DimensionError(f"reshape: cannot view {a.shape} as {shape}")
    orig = a.data.shape

    def backward(g):
        return (g.reshape(orig),)

    return record_op("reshape", out, (a,), backward)


def transpose(a) -> Tensor:
    a = _as_tensor(a)
    if a.ndim != 2:
        raise DimensionError(f"transpose: expected a matrix, got shape {a.shape}")

    def backward(g):
        return (g.T,)

    return record_op("transpose", a.data.T.copy(), (a,), backward)


def take(a, indices) -> Tensor:
    """Gather rows (or elements of a vector) along axis 0."""
    a = _as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    if a.ndim == 0:
        raise DimensionError("take: cannot index a scalar")
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise DimensionError(f"take: index out of range for axis of size {a.data.shape[0]}")
    out = a.data[idx]
    shape = a.data.shape

    def backward(g):
        z = np.zeros(shape, dtype=np.float64)
        np.add.at(z, idx, g)
        return (z,)

    return record_op("take", out, (a,), backward)


def tsum(a, axis: int | None = None) -> Tensor:
    """Summation over one axis, or over all entries when ``axis`` is None."""
    a = _as_tensor(a)
    if axis is not None and not -a.ndim <= axis < a.ndim:
        raise DimensionError(f"sum: axis {axis} out of range for shape {a.shape}")
    out = np.sum(a.data, axis=axis)
    shape = a.data.shape

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, shape),)
        return (np.broadcast_to(np.expand_dims(g, axis), shape),)

    return record_op("sum", out, (a,), backward)


def exp(a) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(over="ignore"):
        out = np.exp(a.data)

    def backward(g):
        return (g * out,)

    return record_op("exp", out, (a,), backward)


def log(a) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(a.data)
    ad = a.data

    def backward(g):
        return (g / ad,)

    return record_op("log", out, (a,), backward)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)

    def backward(g):
        return (g * out * (1.0 - out),)

    return record_op("sigmoid", out, (a,), backward)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0

    def backward(g):
        return (g * mask,)

    return record_op("relu", np.where(mask, a.data, 0.0), (a,), backward)


def leaky_relu(a, slope: float) -> Tensor:
    """LeakyReLU with configurable negative slope; the kink at 0 takes the slope branch."""
    a = _as_tensor(a)
    mask = a.data > 0
    out = np.where(mask, a.data, slope * a.data)

    def backward(g):
        return (g * np.where(mask, 1.0, slope),)

    return record_op("leaky_relu", out, (a,), backward)


def softmax(a) -> Tensor:
    """Vector softmax, computed with max-subtraction for stability."""
    a = _as_tensor(a)
    if a.ndim != 1:
        raise DimensionError(f"softmax: expected a vector, got shape {a.shape}")
    shifted = a.data - a.data.max()
    e = np.exp(shifted)
    out = e / e.sum()

    def backward(g):
        return (out * (g - np.dot(g, out)),)

    return record_op("softmax", out, (a,), backward)


def softmax_rows(a) -> Tensor:
    """Row-wise softmax of a matrix (each row an independent distribution)."""
    a = _as_tensor(a)
    if a.ndim != 2:
        raise DimensionError(f"softmax_rows: expected a matrix, got shape {a.shape}")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        return (out * (g - (g * out).sum(axis=1, keepdims=True)),)

    return record_op("softmax_rows", out, (a,), backward)


def _check_segments(segments: np.ndarray, n: int, num_segments: int, op: str) -> None:
    if segments.shape != (n,):
        raise DimensionError(f"{op}: segments shape {segments.shape} != ({n},)")
    if n and (segments.min() < 0 or segments.max() >= num_segments):
        raise DimensionError(f"{op}: segment ids out of range [0, {num_segments})")


def segment_sum(a, segments, num_segments: int) -> Tensor:
    """Sum rows of ``a`` into ``num_segments`` buckets given by ``segments``."""
    a = _as_tensor(a)
    seg = np.asarray(segments, dtype=np.intp)
    if a.ndim not in (1, 2):
        raise DimensionError(f"segment_sum: expected vector or matrix, got shape {a.shape}")
    _check_segments(seg, a.data.shape[0], num_segments, "segment_sum")
    out = np.zeros((num_segments,) + a.data.shape[1:])
    np.add.at(out, seg, a.data)

    def backward(g):
        return (g[seg],)

    return record_op("segment_sum", out, (a,), backward)


def _check_index(idx: np.ndarray, size: int, op: str) -> None:
    if idx.ndim != 1:
        raise DimensionError(f"{op}: index arrays must be vectors, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= size):
        raise DimensionError(f"{op}: index out of range for axis of size {size}")


def pair_dot(a, b, rows, cols) -> Tensor:
    """Row-wise dot products ``out[p] = a[rows[p]] . b[cols[p]]``.

    A sampled dense-dense product: only the listed (row, col) entries of
    a @ b.T are computed.  The gathered (pairs, d) rows are recomputed in
    backward instead of being kept alive on the tape.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise DimensionError(f"pair_dot: need matrices of equal width, got {a.shape}, {b.shape}")
    if rows.shape != cols.shape:
        raise DimensionError(f"pair_dot: rows {rows.shape} and cols {cols.shape} differ")
    _check_index(rows, a.shape[0], "pair_dot")
    _check_index(cols, b.shape[0], "pair_dot")
    ad, bd = a.data, b.data
    out = np.einsum("pd,pd->p", ad[rows], bd[cols])

    def backward(g):
        ga = gb = None
        if a.requires_grad:
            ga = np.zeros_like(ad)
            np.add.at(ga, rows, g[:, None] * bd[cols])
        if b.requires_grad:
            gb = np.zeros_like(bd)
            np.add.at(gb, cols, g[:, None] * ad[rows])
        return ga, gb

    return record_op("pair_dot", out, (a, b), backward)


def gather_sum(w, x, src, dst, num_segments: int) -> Tensor:
    """Weighted gather-scatter ``out[dst[e]] += w[e] * x[src[e]]``.

    A sparse-dense product: the (num_segments, len(x)) matrix with entries
    w at (dst, src), times x.  Rows of ``out`` no entry reaches are zero.
    The gathered (entries, d) rows are recomputed in backward instead of
    being kept alive on the tape.
    """
    w, x = _as_tensor(w), _as_tensor(x)
    src = np.asarray(src, dtype=np.intp)
    if w.ndim != 1 or x.ndim != 2:
        raise DimensionError(f"gather_sum: need a weight vector and a matrix, got {w.shape}, {x.shape}")
    if src.shape != w.shape:
        raise DimensionError(f"gather_sum: src shape {src.shape} != weights {w.shape}")
    _check_index(src, x.shape[0], "gather_sum")
    seg = np.asarray(dst, dtype=np.intp)
    _check_segments(seg, w.shape[0], num_segments, "gather_sum")
    wd, xd = w.data, x.data
    out = np.zeros((num_segments, xd.shape[1]))
    np.add.at(out, seg, wd[:, None] * xd[src])

    def backward(g):
        gw = gx = None
        if w.requires_grad:
            # summed like mul's broadcast gradient, so results match mul + segment_sum bit for bit
            gw = (g[seg] * xd[src]).sum(axis=1)
        if x.requires_grad:
            gx = np.zeros_like(xd)
            np.add.at(gx, src, wd[:, None] * g[seg])
        return gw, gx

    return record_op("gather_sum", out, (w, x), backward)


def segment_softmax(a, segments, num_segments: int) -> Tensor:
    """Independent stable softmax over each segment of a vector.

    Every segment id in ``[0, num_segments)`` must occur at least once so
    each distribution is well defined.
    """
    a = _as_tensor(a)
    seg = np.asarray(segments, dtype=np.intp)
    if a.ndim != 1:
        raise DimensionError(f"segment_softmax: expected a vector, got shape {a.shape}")
    _check_segments(seg, a.data.shape[0], num_segments, "segment_softmax")
    mx = np.full(num_segments, -np.inf)
    np.maximum.at(mx, seg, a.data)
    if not np.isfinite(mx).all():
        raise DimensionError("segment_softmax: every segment needs at least one entry")
    e = np.exp(a.data - mx[seg])
    denom = np.zeros(num_segments)
    np.add.at(denom, seg, e)
    out = e / denom[seg]

    def backward(g):
        t = g * out
        dots = np.zeros(num_segments)
        np.add.at(dots, seg, t)
        return (out * (g - dots[seg]),)

    return record_op("segment_softmax", out, (a,), backward)


def l2_norm(a, axis: int | None = None) -> Tensor:
    """Euclidean norm over all entries, or along ``axis``; zero gradient where a norm is 0."""
    a = _as_tensor(a)
    ad = a.data
    out = np.sqrt(np.sum(ad * ad, axis=axis))

    def backward(g):
        norm, g = (out, g) if axis is None else (np.expand_dims(out, axis), np.expand_dims(g, axis))
        return (np.where(norm == 0.0, 0.0, g * ad / np.where(norm == 0.0, 1.0, norm)),)

    return record_op("l2_norm", np.asarray(out), (a,), backward)


def clip_min(a, lo: float) -> Tensor:
    """Elementwise max(x, lo); gradient is zero on the clamped branch."""
    a = _as_tensor(a)
    mask = a.data > lo

    def backward(g):
        return (g * mask,)

    return record_op("clip_min", np.maximum(a.data, lo), (a,), backward)


Tensor.__add__ = lambda self, other: add(self, other)
Tensor.__radd__ = lambda self, other: add(other, self)
Tensor.__sub__ = lambda self, other: sub(self, other)
Tensor.__rsub__ = lambda self, other: sub(other, self)
Tensor.__mul__ = lambda self, other: mul(self, other)
Tensor.__rmul__ = lambda self, other: mul(other, self)
Tensor.__neg__ = lambda self: neg(self)
Tensor.__matmul__ = lambda self, other: matmul(self, other)
