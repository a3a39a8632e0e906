"""The layer with node-level attention over every edge: the oracle of the multi-edge path.

``all_edge_layer_forward`` is ``brgcn.layer.layer_forward`` as it was before
node attention ran over the edges of multi-edge groups only: LeakyReLU and
one segment softmax over all E edges (a lone edge's gamma is the softmax's
1.0 of its logit, which the layer reads no a row for, so it is 0 here),
every graph-constant read a plain index that ``dn.take`` checks on each
call, and a ``dn.gather_sum`` that learns the weight of every edge.  The
rows it reads, the relation stage and the value path are the layer's own.
"""

from __future__ import annotations

import numpy as np

from brgcn import diffnum as dn
from brgcn.diffnum import Tensor
from brgcn.layer import GAMMA_VARIANTS, PSI_VARIANTS, AttentionTrace, _project, _rows


def all_edge_layer_forward(params, h, graph, *, rng=None, collect_trace=True):
    n, idx = graph.num_nodes, graph.index

    def mask(shape):
        keep = 1.0 - params.dropout
        return Tensor((rng.random(shape) < keep) / keep) if rng is not None and params.dropout > 0.0 else None

    feature_mask = mask((n, 1) if h is None else h.shape)
    if h is not None and feature_mask is not None:
        h = dn.mul(h, feature_mask)
    if not idx.num_groups:
        return Tensor(np.zeros((n, params.d_out))), AttentionTrace()
    roles = params.ROLES if params.variant in PSI_VARIANTS else ("value",)
    multi = idx.multi_edges.ids
    a, rows = _rows(params, h, feature_mask, idx, roles, params.variant in GAMMA_VARIANTS and multi.size > 0)

    if params.variant in GAMMA_VARIANTS:
        logits = Tensor(np.zeros(idx.num_edges))
        if multi.size:  # each multi edge's logit at its place among every edge's, 0 at a lone edge
            at = np.full(idx.num_edges, multi.size)
            at[multi] = np.arange(multi.size)
            head, tail = (dn.take(a, read.ids) for read in idx.multi_live)
            logits = dn.take(dn.concat([dn.add(head, tail), np.zeros(1)]), at)
        gamma = dn.segment_softmax(dn.leaky_relu(logits, params.leaky_slope), idx.edges_by_group)
        edge_mask = mask(gamma.shape)
        weights = gamma if edge_mask is None else dn.mul(gamma, edge_mask)
    else:
        gamma = weights = Tensor(1.0 / idx.group_size[idx.edge_group])

    def messages(w):
        return dn.gather_sum(weights, w, idx.edges_by_live_slot, idx.edges_by_group)

    self_rows = _project(h, feature_mask, dn.transpose(params.w_self))
    psi = None
    if params.variant in PSI_VARIANTS:
        q, k, v = (messages(w) for w in rows)
        fused, psi = dn.block_attention(q, k, v, idx.blocks)
        delta = dn.relu(dn.add(fused, dn.take(self_rows, idx.groups_by_node)))
        out = dn.segment_sum(delta, idx.groups_by_node)
    else:
        has_rel = Tensor((idx.node_count > 0).astype(np.float64)[:, None])
        summed = dn.segment_sum(messages(rows[0]), idx.groups_by_node)
        out = dn.mul(dn.relu(dn.add(summed, self_rows)), has_rel)
    if not collect_trace:
        return out, AttentionTrace()
    return out, AttentionTrace(idx, gamma.data.copy(), psi)
