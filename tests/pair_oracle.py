"""Flat pair-list oracles for the block ops ``block_dot`` and ``block_sum``.

``pair_dot`` is the generic sampled dense-dense product.  With it and
``gather_sum`` over the flat (row, column) lists of :func:`block_pairs`, the
block ops' results come from one gather of (pairs, d) rows and one scatter
each, with every sum added in the same order.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from brgcn.diffnum import DimensionError, Tensor, record_op
from brgcn.diffnum.tensor import _as_tensor, _check_index, _scatter_add


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
        ga = _scatter_add(rows, g[:, None] * bd[cols], ad.shape[0]) if a.requires_grad else None
        gb = _scatter_add(cols, g[:, None] * ad[rows], bd.shape[0]) if b.requires_grad else None
        return ga, gb

    return record_op("pair_dot", out, (a, b), backward)


def block_pairs(first) -> tuple[np.ndarray, np.ndarray]:
    """The flat (rows, cols) of every ordered same-block row pair, in the block ops' order.

    Built per row from the block sizes alone: position-major, so pair (s, j)
    (row s, column the j-th row of s's block) comes before every pair at a
    later position, and within a position the rows ascend.
    """
    first = np.asarray(first).tolist()
    size = Counter(first)
    pairs = sorted((j, s, f + j) for s, f in enumerate(first) for j in range(size[f]))
    rows = np.array([s for _, s, _ in pairs], dtype=np.intp)
    cols = np.array([c for _, _, c in pairs], dtype=np.intp)
    return rows, cols
