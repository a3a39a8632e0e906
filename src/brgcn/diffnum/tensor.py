"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every primitive funnels through :func:`record_op`, which checks the result
for NaN/Inf with one elementwise test and, when a tape is active and some
input carries a gradient, appends a record to that tape.  ``Tape.backward``
walks the records once, in reverse order, accumulating gradients additively
at fan-out points, and sets ``grad`` on leaves only.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Sequence

import numpy as np


class DiffnumError(Exception):
    """Base class for numeric-substrate failures."""


class DimensionError(DiffnumError):
    """Operands have incompatible shapes."""


class NumericError(DiffnumError):
    """An operation produced NaN or Inf."""


class Tensor:
    """A dense float64 array, optionally tracked for differentiation.

    ``grad`` is populated on leaves by ``Tape.backward`` and accumulates
    across backward calls until reset (see :func:`zero_grad`).  Tensor
    buffers are treated as immutable by all ops; only the optimizer mutates
    parameter data in place.
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
        """Add the gradient of ``loss`` to ``grad`` on every leaf it reaches.

        A leaf is a tensor that no record of this tape produced: a parameter,
        or ``loss`` itself when nothing recorded it.  An intermediate's
        gradient is passed on to its record's inputs when the walk reaches
        that record and is then dropped, so its ``grad`` stays None.
        """
        if loss.data.ndim != 0:
            raise DimensionError(
                f"backward requires a scalar loss, got shape {loss.data.shape}"
            )
        pending: dict[int, tuple[Tensor, np.ndarray]] = {id(loss): (loss, np.ones((), dtype=np.float64))}
        for out, inputs, backward_fn in reversed(self._records):
            if id(out) not in pending:
                continue
            partials = backward_fn(pending.pop(id(out))[1])
            for inp, part in zip(inputs, partials):
                if part is None or not inp.requires_grad:
                    continue
                key = id(inp)
                if key in pending:
                    pending[key] = (inp, pending[key][1] + part)
                else:
                    pending[key] = (inp, part)
        for t, g in pending.values():  # what is left are the leaves
            t.grad = g if t.grad is None else t.grad + g


def record_op(
    op: str,
    out_data: np.ndarray,
    inputs: Sequence[Tensor],
    backward_fn: Callable,
) -> Tensor:
    """Finalize a primitive: trap non-finite results and register on the tape.

    The trap is one ``np.isfinite`` test over the entries, which raises no
    floating-point warning of its own, so it needs no ``np.errstate``.
    ``backward_fn(g)`` must return one partial per input (``None`` allowed
    for inputs that do not need gradients).  Recording happens only when a
    tape is active and at least one input requires a gradient; the output's
    ``requires_grad`` flag mirrors that condition.
    """
    if not np.isfinite(out_data).all():
        raise NumericError(f"non-finite values produced by op '{op}'")
    tape = _TAPE_STACK[-1] if _TAPE_STACK else None
    track = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        tape._records.append((out, tuple(inputs), backward_fn))
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _scatter_add(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """``out[index[k]] += values[k]`` for values of shape ``index.shape + tail``, into n zero rows.

    One bincount; it adds in index order, so the sums are bit-equal to ``np.add.at``."""
    tail = values.shape[index.ndim :]
    d = math.prod(tail)
    bins = index.ravel() if d == 1 else (index.reshape(-1, 1) * d + np.arange(d)).ravel()
    sums = np.bincount(bins, weights=values.ravel(), minlength=n * d)  # int64 if bins is empty
    return sums.astype(np.float64, copy=False).reshape((n,) + tail)


def _partial(t: Tensor, compute: Callable[[], np.ndarray]) -> np.ndarray | None:
    """``compute()``, the partial for input ``t``, or None when ``t`` takes no gradient."""
    return compute() if t.requires_grad else None


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


def _broadcast(op: str, ufunc: np.ufunc, a, b, da: Callable, db: Callable) -> Tensor:
    """``ufunc(a, b)`` with numpy broadcasting; ``da(g, x, y)`` and ``db(g, x, y)``
    are the partials for ``a`` and ``b`` before they are summed back to their shapes."""
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    try:
        out = ufunc(ad, bd)
    except ValueError:
        raise DimensionError(f"{op}: incompatible shapes {a.shape} and {b.shape}")

    def backward(g):
        return (
            _partial(a, lambda: _unbroadcast(da(g, ad, bd), ad.shape)),
            _partial(b, lambda: _unbroadcast(db(g, ad, bd), bd.shape)),
        )

    return record_op(op, out, (a, b), backward)


def add(a, b) -> Tensor:
    return _broadcast("add", np.add, a, b, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _broadcast("sub", np.subtract, a, b, lambda g, x, y: g, lambda g, x, y: -g)


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return record_op("neg", -a.data, (a,), lambda g: (-g,))


def mul(a, b) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    return _broadcast("mul", np.multiply, a, b, lambda g, x, y: g * y, lambda g, x, y: g * x)


def matmul(a, b) -> Tensor:
    """Matrix product of two 2-D operands."""
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2:
        raise DimensionError(f"matmul: unsupported ranks {ad.ndim} and {bd.ndim}")
    if ad.shape[1] != bd.shape[0]:
        raise DimensionError(f"matmul: {ad.shape} @ {bd.shape}")

    def backward(g):
        return _partial(a, lambda: g @ bd.T), _partial(b, lambda: ad.T @ g)

    return record_op("matmul", ad @ bd, (a, b), backward)


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
    """Gather rows (or elements of a vector) along axis 0.

    ``indices`` may be a :class:`Segments` over the rows of ``a``: its ids,
    checked when it was built, are then checked against ``a`` by size alone,
    and the gradient is its :meth:`Segments.sum`, bit-equal to the scatter of
    plain indices.
    """
    a = _as_tensor(a)
    if a.ndim == 0:
        raise DimensionError("take: cannot index a scalar")
    if isinstance(indices, Segments):
        if indices.n != a.data.shape[0]:
            raise DimensionError(f"take: {indices} for an axis of size {a.data.shape[0]}")
        return record_op("take", np.take(a.data, indices.ids, axis=0), (a,), lambda g: (indices.sum(g),))
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise DimensionError(f"take: index out of range for axis of size {a.data.shape[0]}")
    out = a.data[idx]
    shape = a.data.shape

    def backward(g):
        return (_scatter_add(idx, g, shape[0]),)

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

    out = np.fmax(a.data, 0.0)  # NaN gives 0.0, as where(mask, a, 0.0) does
    out += 0.0  # and -0.0 gives +0.0
    return record_op("relu", out, (a,), backward)


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


# A rank of a schedule is summed as one pass while at least this many segments reach it.
# Per-sum times on the benchmark graphs are flat for values from 16 to 256; at 8,
# nc-onehot's tail slots take 237 passes.
PASS_MIN_SEGMENTS = 64


class Segments:
    """An index of segment ids in [0, n), one per entry, checked once, with its sum schedule.

    ``ids`` is a read-only copy, range-checked when the index is built, so
    an index built once per graph is checked once.  ``sum(values)`` returns
    ``_scatter_add(ids, values, n)`` bit for bit: every segment adds its
    entries in index order, starting from 0.  A sum of one column is that
    one bincount and reads no schedule; the schedule is built on the first
    sum of more columns, once, from the index's shape alone, so an index
    only ever read by 1-D takes and sums holds its ids and nothing of size
    n.  Segments are ranked by entry count,
    descending, so the segments with more than k entries are a prefix.
    While at least ``PASS_MIN_SEGMENTS`` segments have a k-th entry, rank k
    is one pass: one vectorized add of each such segment's k-th entry onto
    that prefix of the partial sums.  A segment deeper than the last pass is
    summed whole by one bincount, as ``_scatter_add`` sums it; in an index
    with fewer segments than that, every segment is deep and there is no pass.

    ``order`` lists the entries as the schedule reads them: the deep
    segments' entries, then pass after pass.  They are gathered once into a
    work array with one spare row, and the partial sums are kept in place of
    each segment's first entry read, so a sum allocates the work array
    and its result only.  The schedule holds O(entries + n) integers and
    nothing that depends on the values' width.
    """

    __slots__ = ("ids", "n", "order", "_slot", "_deep", "_num_deep", "_deep_rows", "_widths")
    _SCHEDULE = __slots__[2:]

    def __init__(self, ids, n: int):
        ids = np.array(ids, dtype=np.intp)
        if ids.ndim != 1:
            raise DimensionError(f"Segments: ids must be a vector, got shape {ids.shape}")
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise DimensionError(f"Segments: segment ids out of range [0, {n})")
        ids.flags.writeable = False
        self.ids, self.n = ids, n

    def __getattr__(self, name: str):  # a schedule slot read before the schedule is built
        if name not in Segments._SCHEDULE:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self._build_schedule()
        return object.__getattribute__(self, name)

    def _build_schedule(self) -> None:
        ids, n = self.ids, self.n
        counts = np.bincount(ids, minlength=n)
        reach = np.cumsum(np.bincount(counts)[::-1])[::-1][1:]  # reach[k]: segments with > k entries
        short = reach < PASS_MIN_SEGMENTS
        passes = int(np.argmax(short)) if short.any() else reach.size
        self._num_deep = num_deep = int(reach[passes]) if passes < reach.size else 0
        widths = reach[:passes] - num_deep
        # The segments with entries by count, descending, ties by id; a segment's
        # rank is its row of the partial sums.
        live = np.flatnonzero(counts)
        by_count = live[np.argsort(-counts[live], kind="stable")]
        rank = np.arange(live.size)
        rank_of = np.empty(n, dtype=np.intp)
        rank_of[by_count] = rank
        by_segment = np.argsort(ids, kind="stable")
        nth = np.empty_like(ids)  # which of its segment's entries each entry is
        nth[by_segment] = np.arange(ids.size) - (np.cumsum(counts) - counts)[ids[by_segment]]
        # Where the schedule reads each entry: the deep segments' entries first, by
        # row; then a shallow segment's k-th entry in pass k, at the segment's row.
        row = rank_of[ids]
        deep_counts = counts[by_count[:num_deep]]
        deep, is_deep = int(deep_counts.sum()), row < num_deep
        at = np.empty_like(ids)
        at[is_deep] = (np.cumsum(deep_counts) - deep_counts)[row[is_deep]] + nth[is_deep]
        shallow = ~is_deep
        at[shallow] = (deep + np.cumsum(widths) - widths)[nth[shallow]] + row[shallow] - num_deep
        self.order = np.empty_like(ids)
        self.order[at] = np.arange(ids.size)
        self.order.flags.writeable = False
        self._deep, self._widths = deep, tuple(widths.tolist())
        self._deep_rows = np.repeat(np.arange(num_deep), deep_counts)
        # Where each segment's result ends up in the work array; the spare row for empty ones.
        self._slot = np.full(n, ids.size)
        self._slot[by_count] = np.where(rank < num_deep, rank, deep + rank - num_deep)

    @property
    def size(self) -> int:
        return self.ids.size

    def __repr__(self) -> str:
        return f"Segments({self.size} entries into {self.n})"

    def sum(self, values: np.ndarray) -> np.ndarray:
        """Per-segment sums of ``values`` (entries, ...), bit-equal to ``_scatter_add``.

        Values of one column are summed by ``_scatter_add`` itself: one
        bincount, with no bins to expand, is faster than the passes."""
        if np.ndim(values) == 1:
            return _scatter_add(self.ids, self._checked(values), self.n)
        return self._reduce(self._entries(values))

    def sum_products(self, w: np.ndarray, x: np.ndarray, rows: "Segments") -> np.ndarray:
        """:meth:`sum` of ``w[:, None] * x[rows.ids]``, the products made in the work array."""
        _check_segments(rows, self.size, "Segments.sum_products", x.shape[0])
        if w.shape != (self.size,):
            raise DimensionError(f"Segments.sum_products: {w.shape} weights for {self.size} entries")
        return self._reduce(self._entries(x, rows.ids, w))

    def _checked(self, values: np.ndarray) -> np.ndarray:
        """``values`` as float64, one row per entry."""
        x = np.asarray(values, dtype=np.float64)
        if x.shape[0] != self.size:
            raise DimensionError(f"Segments: {x.shape[0]} values for {self.size} entries")
        return x

    def _entries(self, x: np.ndarray, rows: np.ndarray | None = None, w: np.ndarray | None = None):
        """The work array: ``x[e]`` or ``w[e] * x[rows[e]]`` per entry e of ``order``, and a spare row."""
        if rows is None:
            x, index = self._checked(x), self.order
        else:
            x, index = np.asarray(x, dtype=np.float64), rows[self.order]
        v = np.empty((self.size + 1,) + x.shape[1:])
        np.take(x, index, axis=0, out=v[: self.size], mode="clip")  # checked indices: nothing clips
        if w is not None:
            v[: self.size] *= w[self.order].reshape((-1,) + (1,) * (x.ndim - 1))
        return v

    def _reduce(self, v: np.ndarray) -> np.ndarray:
        """Sum the entries of ``_entries``; consumes the work array."""
        deep, num_deep = self._deep, self._num_deep
        v[:num_deep] = _scatter_add(self._deep_rows, v[:deep], num_deep)
        v[-1] = 0.0
        if self._widths:
            acc = v[deep : deep + self._widths[0]]  # the first entry read of every shallow segment
            acc += 0.0  # a sum from 0: -0.0 becomes 0.0, as in bincount
            lo = deep + self._widths[0]
            for m in self._widths[1:]:  # rank k: the k-th entries of the first m segments
                np.add(acc[:m], v[lo : lo + m], out=acc[:m])
                lo += m
        return np.take(v, self._slot, axis=0)


def _check_segments(seg, entries: int, op: str, n: int | None = None) -> None:
    """O(1): ``seg`` is a :class:`Segments` of ``entries`` entries, into ``n`` segments if given."""
    if not isinstance(seg, Segments) or seg.size != entries or n is not None and seg.n != n:
        want = f"{entries} entries" + ("" if n is None else f" into {n} segments")
        got = seg if isinstance(seg, Segments) else type(seg).__name__
        raise DimensionError(f"{op}: need Segments of {want}, got {got}")


def segment_sum(a, segments: Segments) -> Tensor:
    """Sum rows of ``a`` into the segments of ``segments``, as :meth:`Segments.sum` adds them."""
    a = _as_tensor(a)
    if a.ndim not in (1, 2):
        raise DimensionError(f"segment_sum: expected vector or matrix, got shape {a.shape}")
    _check_segments(segments, a.data.shape[0], "segment_sum")
    ids = segments.ids

    def backward(g):
        return (g[ids],)

    return record_op("segment_sum", segments.sum(a.data), (a,), backward)


class BlockLayout:
    """Rows split into contiguous square blocks of non-increasing size, checked once.

    Built from the blocks' sizes, in row order.  The blocks of one size m
    form one run: ``runs`` lists (lo, hi, m, p) per distinct size,
    descending, where rows lo:hi are (hi - lo) / m blocks of m rows.  The
    ordered row pairs of every block are listed node-major: each block's
    m x m pairs are row-major and consecutive, and the run's pairs are
    entries p:p + (hi - lo) * m of a ``pairs``-long vector, which
    :meth:`pair_blocks` reads.
    """

    __slots__ = ("runs", "rows", "pairs")

    def __init__(self, sizes):
        sizes = np.asarray(sizes)
        if sizes.ndim != 1 or sizes.size and (sizes.dtype.kind not in "iu" or sizes.min() < 1):
            raise DimensionError(f"BlockLayout: sizes must be a vector of positive ints, got {sizes!r}")
        if (sizes[1:] > sizes[:-1]).any():
            raise DimensionError("BlockLayout: block sizes must not increase")
        runs, lo, p = [], 0, 0
        for neg_m, count in zip(*np.unique(-sizes, return_counts=True)):
            m = int(-neg_m)
            hi = lo + m * int(count)
            runs.append((lo, hi, m, p))
            lo, p = hi, p + m * m * int(count)
        self.runs, self.rows, self.pairs = tuple(runs), lo, p

    def pair_blocks(self, flat: np.ndarray) -> Iterator[tuple[int, int, int, np.ndarray]]:
        """Each run's (lo, hi, m) with its pairs in the ``pairs``-long ``flat``, a (blocks, m, m) view."""
        for lo, hi, m, p in self.runs:
            yield lo, hi, m, flat[p : p + (hi - lo) * m].reshape(-1, m, m)


def _row_max(s: np.ndarray) -> np.ndarray:
    """``s.max(axis=-1)`` as m - 1 passes over the last axis's columns, one fresh array.

    A maximum does not depend on order, so this is exact; over a short last
    axis it is faster than numpy's reduction.
    """
    top = s[..., 0].copy()
    for j in range(1, s.shape[-1]):
        np.maximum(top, s[..., j], out=top)
    return top


def block_attention(q, k, v, layout: BlockLayout) -> tuple[Tensor, np.ndarray]:
    """Dot-product attention, unscaled, within each block of ``layout``.

    For the rows B of one block, psi_B = softmax_rows(q_B k_B^T) and
    ``out[B] = psi_B v_B``.  Returns ``out`` and psi, one float per ordered
    row pair in ``layout``'s node-major order, as a fresh read-only vector.
    Each run of equal-size blocks is one (blocks, m, d) view of the rows, so
    the loop runs once per distinct block size, with batched matmuls and no
    gathers; transients are at most one run's pairs or rows.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.ndim != 2 or q.shape != k.shape or v.ndim != 2 or v.shape[0] != q.shape[0]:
        raise DimensionError(
            f"block_attention: need q, k of equal shape and v as tall, got {q.shape}, {k.shape}, {v.shape}"
        )
    if not isinstance(layout, BlockLayout) or layout.rows != q.shape[0]:
        raise DimensionError(f"block_attention: need a BlockLayout over {q.shape[0]} rows")
    qd, kd, vd = q.data, k.data, v.data
    d, dv = qd.shape[1], vd.shape[1]
    out = np.empty_like(vd, order="C")
    psi = np.empty(layout.pairs)

    def views(lo, hi, m):  # the run's blocks of q, k and v, (blocks, m, .)
        return qd[lo:hi].reshape(-1, m, d), kd[lo:hi].reshape(-1, m, d), vd[lo:hi].reshape(-1, m, dv)

    for lo, hi, m, s in layout.pair_blocks(psi):
        qb, kb, vb = views(lo, hi, m)
        np.matmul(qb, kb.transpose(0, 2, 1), out=s)
        s -= _row_max(s)[..., None]
        np.exp(s, out=s)
        s /= s.sum(axis=-1, keepdims=True)
        np.matmul(s, vb, out=out[lo:hi].reshape(-1, m, dv))
    psi.flags.writeable = False

    def backward(g):
        gq, gk, gv = (np.empty_like(t.data, order="C") if t.requires_grad else None for t in (q, k, v))
        for lo, hi, m, s in layout.pair_blocks(psi):
            qb, kb, vb = views(lo, hi, m)
            gb = g[lo:hi].reshape(-1, m, dv)
            if gv is not None:
                np.matmul(s.transpose(0, 2, 1), gb, out=gv[lo:hi].reshape(-1, m, dv))
            if gq is None and gk is None:
                continue
            gs = gb @ vb.transpose(0, 2, 1)  # d psi, then d logits in place
            gs -= (gs * s).sum(axis=-1, keepdims=True)
            gs *= s
            if gq is not None:
                np.matmul(gs, kb, out=gq[lo:hi].reshape(-1, m, d))
            if gk is not None:
                np.matmul(gs.transpose(0, 2, 1), qb, out=gk[lo:hi].reshape(-1, m, d))
        return gq, gk, gv

    return record_op("block_attention", out, (q, k, v), backward), psi


def gather_sum(w, x, src: Segments, dst: Segments, *, at: Segments | None = None, base=None) -> Tensor:
    """Weighted gather-scatter ``out[dst[e]] += w[e] * x[src[e]]``.

    A sparse-dense product: the (dst.n, len(x)) matrix with entries w at
    (dst.ids, src.ids), times x.  Rows of ``out`` no entry reaches are zero.
    Each side's sums follow its own schedule: ``dst`` in forward, ``src`` for
    x's gradient.  The gathered (entries, d) rows are recomputed in backward
    instead of being kept alive on the tape.

    With ``at``, a :class:`Segments` of entry positions in [0, dst.size),
    only some weights are learned: ``w[k]`` is the weight of entry
    ``at.ids[k]`` and every other entry e keeps the constant ``base[e]``.
    ``out`` and x's gradient are bit-equal to the call with the full weight
    vector, and w's gradient is that call's at the learned entries, computed
    there only: its cost is O(len(at) * d), not O(entries * d).
    """
    w, x = _as_tensor(w), _as_tensor(x)
    if w.ndim != 1 or x.ndim != 2:
        raise DimensionError(f"gather_sum: need a weight vector and a matrix, got {w.shape}, {x.shape}")
    wd = w.data
    if at is not None:  # the full weight vector: base, with the learned weights at their entries
        wd = np.array(base, dtype=np.float64)
        if wd.ndim != 1:
            raise DimensionError(f"gather_sum: base must be a vector, got shape {wd.shape}")
        _check_segments(at, w.shape[0], "gather_sum", wd.shape[0])
        np.put(wd, at.ids, w.data)
    _check_segments(src, wd.shape[0], "gather_sum", x.shape[0])
    _check_segments(dst, wd.shape[0], "gather_sum")
    xd, src_ids, dst_ids = x.data, src.ids, dst.ids
    out = dst.sum_products(wd, xd, src)

    def backward(g):
        gw = gx = None
        if w.requires_grad:
            # summed like mul's broadcast gradient, so results match mul + segment_sum bit for bit
            rows, cols = (dst_ids, src_ids) if at is None else (np.take(i, at.ids) for i in (dst_ids, src_ids))
            part = np.take(g, rows, axis=0)
            part *= np.take(xd, cols, axis=0)
            gw = part.sum(axis=1)
        if x.requires_grad:
            gx = src.sum_products(wd, g, dst)
        return gw, gx

    return record_op("gather_sum", out, (w, x), backward)


def segment_softmax(a, segments: Segments) -> Tensor:
    """Independent stable softmax over each segment of a vector.

    Every segment must have at least one entry so each distribution is well
    defined; a segment whose maximum stays -inf, one with no entries or only
    -inf logits, is refused as empty.  A NaN or +inf logit reaches
    :func:`record_op`, which raises :class:`NumericError`.  The maxima are one
    ``np.maximum.at``; the sums run on the schedule of ``segments``.
    """
    a = _as_tensor(a)
    if a.ndim != 1:
        raise DimensionError(f"segment_softmax: expected a vector, got shape {a.shape}")
    _check_segments(segments, a.data.shape[0], "segment_softmax")
    ids = segments.ids
    mx = np.full(segments.n, -np.inf)
    np.maximum.at(mx, ids, a.data)
    if np.isneginf(mx).any():
        raise DimensionError("segment_softmax: every segment needs at least one entry")
    e = np.exp(a.data - mx[ids])
    out = e / segments.sum(e)[ids]

    def backward(g):
        return (out * (g - segments.sum(g * out)[ids]),)

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
