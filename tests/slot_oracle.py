"""The N*R row source: the oracle of the rows a layer reads at its live slots.

``nr_rows`` returns what ``brgcn.layer._rows`` returns, computed the way
every dense layer and every basis layer computed its rows before each layer
read them at its index's live slots alone: h @ slot weight over all N*R
(node, relation) slots, one-hot input as the slot weight's rows scaled by
each node's dropout mask entry, and a_r's two halves as width-1 slot
weights.  An edge reads the (N*R, .) rows through a tail-slot index, a group
a's head half through its head slot ``node * R + relation``; a's rows are
the attention rows, the head slots of the groups of two or more edges and
the tail slots their edges read.
"""

from __future__ import annotations

import numpy as np

from brgcn import diffnum as dn


def nr_rows(params, h, feature_mask, idx, roles, attend):
    n, r, d_in = idx.num_nodes, params.num_relations, params.d_in

    def slot_rows(w, width):  # the row of h @ w at every (node, relation) slot
        x = (w if feature_mask is None else dn.mul(w, feature_mask)) if h is None else dn.matmul(h, w)
        return dn.reshape(x, (n * r, width))

    rows = [dn.take(slot_rows(params._slot_weight(role), params.d_out), idx.live_slots) for role in roles]
    if not attend:
        return None, rows
    a, (groups, slots) = params._full("a", params.attention), idx.multi_rows
    head, tail = (slot_rows(dn.take(a, np.arange(lo, lo + d_in)), 1) for lo in (0, d_in))
    a_rows = dn.concat([dn.take(head, idx.group_slot[groups]), dn.take(tail, idx.live_slots[slots])])
    return dn.reshape(a_rows, (-1,)), rows
