"""Raw-array oracles of the scheduled reductions.

``segment_sum``, ``segment_softmax`` and ``gather_sum`` over plain index
arrays, as taped ops: every sum is one ``np.add.at`` and every maximum one
``np.maximum.at``, both in index order, and the products and row sums are
written as the ops wrote them before they took a :class:`~brgcn.diffnum.Segments`.
"""

from __future__ import annotations

import numpy as np

from brgcn.diffnum import Tensor, record_op
from brgcn.diffnum.tensor import _as_tensor


def add_at(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """``out[index[k]] += values[k]`` into n zero rows, one entry at a time in index order."""
    out = np.zeros((n,) + values.shape[1:])
    np.add.at(out, index, values)
    return out


def max_at(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    out = np.full((n,) + values.shape[1:], -np.inf)
    np.maximum.at(out, index, values)
    return out


def segment_sum(a, seg: np.ndarray, n: int) -> Tensor:
    a = _as_tensor(a)
    return record_op("segment_sum", add_at(seg, a.data, n), (a,), lambda g: (g[seg],))


def segment_softmax(a, seg: np.ndarray, n: int) -> Tensor:
    a = _as_tensor(a)
    e = np.exp(a.data - max_at(seg, a.data, n)[seg])
    out = e / add_at(seg, e, n)[seg]

    def backward(g):
        return (out * (g - add_at(seg, g * out, n)[seg]),)

    return record_op("segment_softmax", out, (a,), backward)


def gather_sum(w, x, src: np.ndarray, dst: np.ndarray, n: int) -> Tensor:
    w, x = _as_tensor(w), _as_tensor(x)
    wd, xd = w.data, x.data

    def backward(g):
        gw = (g[dst] * xd[src]).sum(axis=1) if w.requires_grad else None
        gx = add_at(src, wd[:, None] * g[dst], xd.shape[0]) if x.requires_grad else None
        return gw, gx

    return record_op("gather_sum", add_at(dst, wd[:, None] * xd[src], n), (w, x), backward)
