"""The layer with node-level attention over every edge: the oracle of the multi-edge path.

``all_edge_layer_forward`` is ``brgcn.layer.layer_forward`` as it was before
node attention ran over the edges of multi-edge groups only: logits,
LeakyReLU and one segment softmax over all E edges (a lone edge's gamma is
the softmax's 1.0), every graph-constant read a plain index that
``dn.take`` checks on each call, and a ``dn.gather_sum`` that learns the
weight of every edge.  The relation stage and the value path are the
layer's own.
"""

from __future__ import annotations

import numpy as np

from brgcn import diffnum as dn
from brgcn.diffnum import Tensor
from brgcn.layer import GAMMA_VARIANTS, PSI_VARIANTS, AttentionTrace, _project, _slot_rows


def all_edge_layer_forward(params, h, graph, *, rng=None, collect_trace=True):
    n, idx, built = graph.num_nodes, graph.index, params.live
    d_in = n if h is None else h.shape[1]

    def mask(shape):
        keep = 1.0 - params.dropout
        return Tensor((rng.random(shape) < keep) / keep) if rng is not None and params.dropout > 0.0 else None

    feature_mask = mask((n, 1) if h is None else h.shape)
    if h is not None and feature_mask is not None:
        h = dn.mul(h, feature_mask)
    if not idx.num_groups:
        return Tensor(np.zeros((n, params.d_out))), AttentionTrace()
    live = built is not None and h is None
    if live:
        a_node, tail_entry = idx.live_nodes, idx.num_groups + idx._live[1]
        row_mask = None if feature_mask is None else Tensor(feature_mask.data[a_node[idx.num_groups :]])

    if params.variant in GAMMA_VARIANTS:
        if live:
            a = params.attention
            if feature_mask is not None:
                a = dn.mul(a, feature_mask.data[a_node, 0])
            logits = dn.add(dn.take(a, idx.edge_group), dn.take(a, tail_entry))
        else:
            attention = params._full("a", params.attention)
            a_head, a_tail = (dn.take(attention, np.arange(lo, lo + d_in)) for lo in (0, d_in))
            head, tail = (_slot_rows(params, h, feature_mask, idx, a) for a in (a_head, a_tail))
            logits = dn.add(dn.take(dn.take(head, idx.group_slot), idx.edges_by_group),
                            dn.take(tail, idx.edges_by_tail_slot))
        gamma = dn.segment_softmax(dn.leaky_relu(logits, params.leaky_slope), idx.edges_by_group)
        edge_mask = mask(gamma.shape)
        weights = gamma if edge_mask is None else dn.mul(gamma, edge_mask)
    else:
        gamma = weights = Tensor(1.0 / idx.group_size[idx.edge_group])

    def messages(role):
        if live:
            w = params.roles[role]
            rows, tails = (w if row_mask is None else dn.mul(w, row_mask)), idx.edges_by_live_slot
        else:
            rows = _slot_rows(params, h, feature_mask, idx, params._slot_weight(role), row=(params.d_out,))
            tails = idx.edges_by_tail_slot
        return dn.gather_sum(weights, rows, tails, idx.edges_by_group)

    self_rows = _project(h, feature_mask, dn.transpose(params.w_self))
    psi = None
    if params.variant in PSI_VARIANTS:
        q, k, v = (messages(role) for role in params.ROLES)
        fused, psi = dn.block_attention(q, k, v, idx.blocks)
        delta = dn.relu(dn.add(fused, dn.take(self_rows, idx.groups_by_node)))
        out = dn.segment_sum(delta, idx.groups_by_node)
    else:
        has_rel = Tensor((idx.node_count > 0).astype(np.float64)[:, None])
        summed = dn.segment_sum(messages("value"), idx.groups_by_node)
        out = dn.mul(dn.relu(dn.add(summed, self_rows)), has_rel)
    if not collect_trace:
        return out, AttentionTrace()
    return out, AttentionTrace(idx, gamma.data.copy(), psi)
