"""Flat pair-list oracles for the relation stage's ``block_attention``.

:func:`attention_chain` computes the attention as three generic ops over the
flat (row, column) list of every ordered same-block row pair: ``pair_dot``
(the sampled dense-dense product) for the logits, ``segment_softmax`` for psi
and ``gather_sum`` for the psi-weighted values.  :func:`block_dot` and
:func:`block_sum` compute the logits and the values position by position
over the blocks (:class:`PositionMajor`), adding the same products in the
same order as the flat list of :func:`block_pairs`.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from brgcn import diffnum as dn
from brgcn.diffnum import BlockLayout, DimensionError, Tensor, record_op
from brgcn.diffnum.tensor import _as_tensor, _scatter_add


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
        ga = _scatter_add(rows, g[:, None] * bd[cols], ad.shape[0]) if a.requires_grad else None
        gb = _scatter_add(cols, g[:, None] * ad[rows], bd.shape[0]) if b.requires_grad else None
        return ga, gb

    return record_op("pair_dot", out, (a, b), backward)


def row_firsts(layout: BlockLayout) -> np.ndarray:
    """The first row of each row's block."""
    parts = [np.repeat(np.arange(lo, hi, m), m) for lo, hi, m, _ in layout.runs]
    return np.concatenate([np.zeros(0, dtype=np.intp), *parts])


def node_pairs(layout: BlockLayout) -> tuple[np.ndarray, np.ndarray]:
    """The pairs of :func:`block_pairs` in ``block_attention``'s psi order: by row, then column."""
    rows, cols = block_pairs(row_firsts(layout))
    order = np.lexsort((cols, rows))
    return rows[order], cols[order]


def attention_chain(q, k, v, layout: BlockLayout) -> tuple[Tensor, Tensor]:
    """``block_attention``'s output and psi from the flat pair list, three taped ops."""
    rows, cols = node_pairs(layout)
    by_row, by_col = dn.Segments(rows, layout.rows), dn.Segments(cols, layout.rows)
    psi = dn.segment_softmax(pair_dot(q, k, rows, cols), by_row)
    return dn.gather_sum(psi, v, by_col, by_row), psi


class PositionMajor:
    """The pairs of :func:`block_pairs`' order, located per block position.

    ``first[s]`` is the first row of row s's block.  The rows of blocks
    larger than j are a prefix, of length ``counts[j]``.  Pair (s, j), row s
    with the j-th row of its block, is entry ``start[j] + s``, and pair
    (first[t] + j, t) is entry ``col_start[t] + j``.
    """

    def __init__(self, first):
        self.first = first = np.asarray(first, dtype=np.intp)
        pos = np.arange(first.size) - first
        starts = np.flatnonzero(pos == 0)
        size = np.diff(starts, append=first.size)
        self.counts = np.searchsorted(-np.repeat(size, size), -np.arange(size[0] if first.size else 0))
        self.start = np.concatenate(([0], np.cumsum(self.counts)))
        self.col_start = self.start[pos] + first


def block_pairs(first) -> tuple[np.ndarray, np.ndarray]:
    """The flat (rows, cols) of every ordered same-block row pair, position-major.

    Built per row from the block sizes alone: pair (s, j) (row s, column the
    j-th row of s's block) comes before every pair at a later position, and
    within a position the rows ascend.
    """
    first = np.asarray(first).tolist()
    size = Counter(first)
    pairs = sorted((j, s, f + j) for s, f in enumerate(first) for j in range(size[f]))
    rows = np.array([s for _, s, _ in pairs], dtype=np.intp)
    cols = np.array([c for _, _, c in pairs], dtype=np.intp)
    return rows, cols


def block_dot(a, b, lay: PositionMajor) -> Tensor:
    """``out[start[j] + s] = a[s] . b[first[s] + j]``, one gather and product per position j."""
    a, b = _as_tensor(a), _as_tensor(b)
    first, start, col_start = lay.first, lay.start, lay.col_start
    ad, bd = np.ascontiguousarray(a.data), b.data  # einsum sums contiguous rows alike
    out = np.empty(start[-1])
    for j, c in enumerate(lay.counts):
        out[start[j] : start[j + 1]] = np.einsum("gd,gd->g", ad[:c], bd[first[:c] + j])

    def backward(g):
        ga = np.zeros_like(ad) if a.requires_grad else None
        gb = np.zeros_like(bd) if b.requires_grad else None
        for j, c in enumerate(lay.counts):
            partner = first[:c] + j
            if ga is not None:
                part = bd[partner]
                part *= g[start[j] : start[j + 1], None]
                ga[:c] += part
            if gb is not None:
                part = ad[partner]
                part *= g[col_start[:c] + j, None]
                gb[:c] += part
        return ga, gb

    return record_op("block_dot", out, (a, b), backward)


def block_sum(w, x, lay: PositionMajor) -> Tensor:
    """``out[s] = sum_j w[start[j] + s] * x[first[s] + j]``, in :func:`block_dot`'s loop."""
    w, x = _as_tensor(w), _as_tensor(x)
    first, start, col_start = lay.first, lay.start, lay.col_start
    wd, xd = w.data, x.data
    out = np.zeros_like(xd)
    for j, c in enumerate(lay.counts):
        part = xd[first[:c] + j]
        part *= wd[start[j] : start[j + 1], None]
        out[:c] += part

    def backward(g):
        gw = np.empty_like(wd) if w.requires_grad else None
        gx = np.zeros_like(xd) if x.requires_grad else None
        for j, c in enumerate(lay.counts):
            partner = first[:c] + j
            if gw is not None:
                gw[start[j] : start[j + 1]] = (g[:c] * xd[partner]).sum(axis=1)
            if gx is not None:
                part = g[partner]
                part *= wd[col_start[:c] + j, None]
                gx[:c] += part
        return gw, gx

    return record_op("block_sum", out, (w, x), backward)
