"""The bi-level attention graph convolution layer and its uni-level variants.

One layer maps node features (N, d_in) to (N, d_out) in two stages.  Per
relation r incident to node i, additive attention over the neighbors
N_i^r produces a relation-specific embedding

    z_i^r = sum_j softmax_j(LeakyReLU(a_r . [h_i || h_j])) * h_j,

then multiplicative attention across the incident relations fuses these
summaries through query/key/value projections

    psi_i[r, r'] = softmax_{r'}(q_r . k_{r'}),
    delta_i^r   = ReLU(sum_{r'} psi_i[r, r'] v_{r'} + W_self h_i),
    h'_i        = sum_{r in R_i} delta_i^r.

The self term W_self h_i is shared across relations and, per the layer
algebra, appears inside every delta_i^r, so it is counted |R_i| times in
the output.  Nodes with no outgoing edges produce the zero vector.

The four variants (``VARIANTS``) are the 2 x 2 grid of the two levels, each
on or off.  ``full`` and ``node_only`` learn gamma, the other two use the
uniform 1/|N_i^r|.  ``full`` and ``relation_only`` fuse through psi, the
other two take R-GCN's sum (Schlichtkrull et al. 2018) over the value
projections, h'_i = ReLU(sum_{r in R_i} W^V_r z_i^r + W_self h_i).

Both stages run in one pass over the graph's sorted index arrays
(``graph.index``, built once per graph), for all relations at once, in the
edge-softmax / scatter formulation of GAT (Velickovic et al. 2018): one
segment softmax over the edges of the groups with two or more edges gives
their gamma, and a lone edge's gamma is 1, a softmax over one entry, whose
logit gradient is 0.  Since sum_j gamma_ij W_r h_j = W_r z_i^r, each role is
projected first, as R-GCN's per-relation messages are (Schlichtkrull et al.
2018), then gathered once.  The relation stage is
Transformer-style attention (Vaswani et al. 2017) within per-node blocks, one
op (``dn.block_attention``): the index numbers groups by their node's |R_i|,
descending, so node i's groups form one block and the nodes with |R_i| = m
are one run of groups, read as a (nodes, m, d_out) view.  Per run, one
batched matmul gives the logits, a row softmax gives psi and one batched
matmul the psi-weighted values.  The tape's length depends on the number of
layers only.

Cost model: every layer reads one set of rows: each role's (L, d_out) rows
at the index's L live slots, the distinct (tail, relation) slots its edges
read, and a's attention rows, a_r's head half at each of the G_m groups of
two or more edges, then its tail half at each of the L_m live slots their
edges read.  Only their source differs.  A one-hot layer built with ``live``
(layer 0 of both task models) stores them, a at every group and live slot,
O(groups + live slots), each row scaled by its node's dropout mask entry;
under bases it stores a and forms the row of slot (j, r) as sum_b coeff[r,
b] * basis[b][:, j].  A layer built without ``live`` refuses one-hot input.
Dense input is projected at the rows alone, per relation
(``dn.segment_matmul``): one call for the roles, one for a's attention
rows.  No layer computes a row of all N*R slots.  Each edge reads its tail
slot's rows, and every sum into a node sums the node's groups, so every
variant runs on the same ``dn.Segments`` schedules, built and range-checked
once per index: edges
into groups, groups into nodes and edges into live slots.  Every scatter and
every gradient of a gather by a graph-constant index runs on one of them;
its sums are a few vectorized passes, one per rank of a segment's entries,
bit-equal to one bincount.  Nothing is restacked per forward, and one-hot
dropout draws one mask entry per node, so no N x N array is built.  The
relation stage does d_out work per same-node pair and loops once per
distinct |R_i|, its row maxima m - 1 column passes; only psi and one run's
logits grow with the pairs.  So a step is linear in edges plus live slots
plus pairs, whatever the relation count.  A step frees its transients when
it ends; ``training.optimize`` keeps glibc from trimming them, so the next
step reuses that heap.

Node attention runs over the E_m edges of multi-edge groups only: each
reads a's head row at its group and its tail row at its live slot
(``multi_live``, Segments built once per index), and the logits, the
LeakyReLU and the segment softmax are O(E_m).  ``dn.gather_sum`` takes the
E_m learned weights at ``multi_edges`` and gives every lone edge the
constant 1 times its edge-dropout entry, so the weight gradient, two row
gathers and a product per entry and role, is O(E_m * d_out) too, not
O(E * d_out); the x gradient still sums over every edge.  A graph of lone
edges records no node-attention op, and its a takes no gradient.

A layer runs over one index: ``graph.index``, or a receptive field of it
(``hetgraph.receptive_fields``), the edges whose head is in a node subset,
grouped as the whole graph's are, with its own live slots and schedules.  A
node's row depends only on its own edges, which a field keeps whole, and on
the layer's input at their heads and tails, and a product gives a row the
same bits wherever it keeps its whole-graph rank, so a field's rows equal
the whole graph's bit for bit, and every other row comes out zero.  So every cost above is
the field's: a classification step pays for the edges its loss reads.  The
self term, the dense feature mask and a live layer's dropout-scaled stored
rows stay whole; the field reads the latter at ``parent_slots``.  The masks
are drawn at the whole graph's shapes and the edge mask is read at the
field's edges, so a field draws the same stream.  The uniform weights of the
variants without node attention and a lone edge's weight without edge
dropout are graph-constant, kept on each index.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Iterator, Sequence

import numpy as np

from . import diffnum as dn
from .diffnum import Tensor
from .hetgraph import GraphIndex, HeteroGraph


class ConfigurationError(Exception):
    """A layer or model was assembled with inconsistent dimensions/options."""


VARIANTS = ("full", "node_only", "relation_only", "rgcn_baseline")
GAMMA_VARIANTS = ("full", "node_only")  # the variants that learn gamma
PSI_VARIANTS = ("full", "relation_only")  # the variants that fuse through psi


class BrgcnLayerParams:
    """All learnable state of one layer, one parameter array per group, and its slot layout.

    ``attention`` (``<prefix>.a``, 2*d_in x R): column r is a_r.  ``roles``
    maps the query, key and value roles to ``<prefix>.w_<role>`` (d_in x
    R*d_out) in slot layout: columns r*d_out:(r+1)*d_out hold W_role_r^T.
    With ``num_bases > 0``, it is the (R, B) ``<prefix>.coeff_<role>`` over
    the shared ``basis`` (B x d_out x d_in): W_role_r = sum_b coeff[r, b] *
    basis[b].  a and ``w_self`` (d_out x d_in, shared) are never decomposed.

    The class owns the slot layout both ways: ``stacked`` turns R
    per-relation arrays into a stored group, and ``_slot_weight`` gives the
    taped slot weight a dense forward projects per relation.  The read-only ``a``,
    ``w_query``, ``w_key`` and ``w_value`` list R detached per-relation
    Tensors (a_r; W_role_r as d_out x d_in), the roles' reshaped from
    ``_slot_weight`` on detached inputs: reading them records nothing.

    A layer built with ``live``, the :class:`GraphIndex` of the graph it
    runs on, reads one-hot input (d_in = N) and stores only the rows of that
    graph's G groups and L live tail slots (``GraphIndex.live_slots``):
    ``<prefix>.a`` is (G + L,), a_r's head half at each group's node, then
    its tail half at each live slot's node, and ``<prefix>.w_<role>``, if
    not under bases, is (L, d_out), each slot's row of the slot layout.  The
    views and ``_slot_weight`` place the stored rows at their slots, zeros
    elsewhere, so the layer runs on dense input too, and ``live_rows``
    reduces a full-layout array to the stored rows.  A forward on a graph
    with other live slots or groups is refused, and so is one-hot input to
    a layer built without ``live``.

    ``variant``, checked here and read-only after, is the cell of the
    module docstring's grid that every forward runs: ``rgcn_baseline`` is
    R-GCN's mean-aggregation convolution, ``node_only`` the same with learned
    gamma.  The parameters and their initial draws are the same for all four.
    """

    ROLES = ("query", "key", "value")

    def __init__(
        self,
        d_in: int,
        d_out: int,
        num_relations: int,
        *,
        num_bases: int = 0,
        leaky_slope: float = 0.2,
        dropout: float = 0.0,
        variant: str = "full",
        live: GraphIndex | None = None,
    ):
        if variant not in VARIANTS:
            raise ConfigurationError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
        if not 0.0 <= dropout < 1.0:
            raise ConfigurationError(f"dropout must lie in [0, 1), got {dropout}")
        if num_bases < 0:
            raise ConfigurationError(f"num_bases must be non-negative, got {num_bases}")
        if live is not None and (d_in, num_relations) != (live.num_nodes, live.num_relations):
            raise ConfigurationError(
                f"a live-slot layer reads its graph's one-hot input: d_in={d_in} and {num_relations} relations "
                f"for a graph of {live.num_nodes} nodes and {live.num_relations} relations"
            )
        self.d_in = d_in
        self.d_out = d_out
        self.num_relations = num_relations
        self.num_bases = num_bases
        self.leaky_slope = leaky_slope
        self.dropout = dropout
        self._variant = variant
        self._live = live
        self.attention: Tensor | None = None
        self.roles: dict[str, Tensor] = {}
        self.basis: Tensor | None = None
        self.w_self: Tensor | None = None

    @property
    def variant(self) -> str:
        """The variant every forward runs; read-only, fixed when the layer is built."""
        return self._variant

    @property
    def live(self) -> GraphIndex | None:
        """The index whose live slots and groups the stored rows cover; None in the full slot layout."""
        return self._live

    def num_floats(self) -> int:
        """How many parameter entries :meth:`create` allocates for this layer's settings; none is allocated here."""
        d_in, d_out, r, b, live = self.d_in, self.d_out, self.num_relations, self.num_bases, self._live
        if live is None:
            return r * 2 * d_in + (1 + b) * d_out * d_in + 3 * r * (b if b else d_out * d_in)
        slots = live.live_slots.size
        return live.num_groups + slots + (1 + b) * d_out * d_in + 3 * (r * b if b else slots * d_out)

    @classmethod
    def stacked(cls, group: str, per_relation) -> np.ndarray:
        """The stored, C-contiguous array of ``group`` from its R per-relation arrays."""
        x = np.asarray(per_relation, dtype=np.float64)
        if group == "a":
            x = x.T
        elif group.startswith("w_") and group[2:] in cls.ROLES:  # (R, d_out, d_in) -> slot layout
            x = x.transpose(2, 0, 1).reshape(x.shape[2], x.shape[0] * x.shape[1])
        return np.ascontiguousarray(x)

    @classmethod
    def create(cls, rng: np.random.Generator, *args, prefix: str = "layer", **kwargs) -> "BrgcnLayerParams":
        """The layer ``cls(*args, **kwargs)`` with its groups drawn, each named ``<prefix>.<group>``.

        Glorot-uniform initialization; a group's (R, ...) draw gives what R
        draws would.  With ``live``, each group is drawn one relation at a time
        and only the numbers the full draw places at the live slots and groups
        are kept.
        """
        p = cls(*args, **kwargs)
        d_in, d_out, num_relations, num_bases, live = p.d_in, p.d_out, p.num_relations, p.num_bases, p.live

        def glorot(fan_in, fan_out, shape):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-limit, limit, size=shape)

        def drawn(group, fan_in, fan_out, shape):  # glorot(fan_in, fan_out, (R, *shape)), stored
            if live is None:
                return cls.stacked(group, glorot(fan_in, fan_out, (num_relations, *shape)))
            at, _ = p._full_layout(group)
            rel, col = at % num_relations, at // num_relations
            kept = np.empty((at.size, *shape[:-1]))
            order = np.argsort(rel, kind="stable")
            ends = np.cumsum(np.bincount(rel, minlength=num_relations))
            for lo, hi in zip((0, *ends[:-1]), ends):  # relation r's entries, after one draw of shape
                entries = order[lo:hi]
                kept[entries] = glorot(fan_in, fan_out, shape)[..., col[entries]].T
            return kept

        def param(group, values):  # a fresh array: no copy, unlike dn.param
            return Tensor(values, requires_grad=True, name=f"{prefix}.{group}")

        p.attention = param("a", drawn("a", 2 * d_in, 1, (2 * d_in,)))
        p.w_self = param("w_self", glorot(d_in, d_out, (d_out, d_in)))
        if num_bases:
            p.basis = param("basis", glorot(d_in, d_out, (num_bases, d_out, d_in)))
        for role in cls.ROLES:
            if num_bases:
                coeff = rng.normal(0.0, 1.0 / np.sqrt(num_bases), size=(num_relations, num_bases))
                p.roles[role] = param(f"coeff_{role}", coeff)
            else:
                p.roles[role] = param(f"w_{role}", drawn(f"w_{role}", d_in, d_out, (d_out, d_in)))
        return p

    def params(self) -> list[Tensor]:
        """All learnable tensors in a fixed, checkpoint-stable order."""
        basis = [self.basis] if self.num_bases else []
        return [self.attention, *basis, *(self.roles[role] for role in self.ROLES), self.w_self]

    def _full_layout(self, group: str) -> tuple[np.ndarray, tuple[int, int]]:
        """The full-layout row of each stored row of ``group`` in a live layer, and the layout's shape.

        a's full layout, (2*d_in, R), is read as rows of one float: a group's
        head half sits at its slot ``node * R + relation``, a live slot's tail
        half at N*R plus the slot.  A role's, (d_in, R*d_out), is read as N*R
        rows of d_out, a live slot's at the slot.  Row k holds the number that
        the full (R, ..., 2*d_in or d_in) draw puts at relation k % R and last
        index k // R.
        """
        live, r = self._live, self.num_relations
        if group != "a":
            return live.live_slots, (self.d_in, r * self.d_out)
        return np.concatenate((live.group_slot, self.d_in * r + live.live_slots)), (2 * self.d_in, r)

    def _full(self, group: str, stored: Tensor) -> Tensor:
        """``group``'s full layout, taped: the stored entries at their rows, zeros elsewhere."""
        if self._live is None:
            return stored
        at, shape = self._full_layout(group)
        width = math.prod(stored.shape[1:])
        where = np.full(math.prod(shape) // width, stored.shape[0])  # the zero row appended below
        where[at] = np.arange(at.size)
        padded = dn.concat([stored, np.zeros((1, *stored.shape[1:]))])
        return dn.reshape(dn.take(padded, where), shape)

    def live_rows(self, group: str, full: np.ndarray) -> np.ndarray:
        """``full``, ``group``'s array in the full layout, reduced to this layer's stored rows.

        Any other array, or any array of a layer without ``live``, is returned unchanged.
        """
        if self._live is None or group not in ("a", *(f"w_{role}" for role in self.ROLES)):
            return full
        at, shape = self._full_layout(group)
        if full.shape != shape:
            return full
        return (full.reshape(-1) if group == "a" else full.reshape(-1, self.d_out))[at]

    @property
    def a(self) -> list[Tensor]:
        return [Tensor(col) for col in self._full("a", Tensor(self.attention.data)).data.T.copy()]

    def _slot_weight(self, role: str, detached: bool = False) -> Tensor:
        """``role``'s (d_in, R*d_out) slot weight, under bases one matmul; taped unless ``detached``.

        A live layer's weight is its stored rows placed at their slots, zeros elsewhere.
        """
        w, basis = (t if t is None or not detached else Tensor(t.data) for t in (self.roles[role], self.basis))
        if not self.num_bases:
            return self._full(f"w_{role}", w)
        mats = dn.matmul(w, dn.reshape(basis, (self.num_bases, self.d_out * self.d_in)))  # row r is W_role_r
        return dn.transpose(dn.reshape(mats, (self.num_relations * self.d_out, self.d_in)))

    def _stored_rows(self, group: str, idx: GraphIndex, mask: np.ndarray | None) -> Tensor:
        """The rows of a live layer's stored ``group`` that ``idx`` reads on one-hot input: a's attention rows, a role's slots.

        Each stored row is scaled by its node's dropout ``mask`` entry, then read at ``idx.parent_a_rows``
        or ``parent_slots`` (a whole graph's in place)."""
        t, a = (self.attention if group == "a" else self.roles[group[2:]]), group == "a"
        at = idx.parent_a_rows if a else idx.parent_slots
        if mask is not None:  # by each stored row's node, (k // R) % N at its full-layout row k
            m = mask[self._full_layout(group)[0] // self.num_relations % self.d_in]
            t = dn.mul(t, m[:, 0] if a else m)
        return t if at is None else dn.take(t, at)

    def _per_relation(self, role: str) -> list[Tensor]:
        w = self._slot_weight(role, detached=True).data.reshape(self.d_in, self.num_relations, self.d_out)
        return [Tensor(m) for m in w.transpose(1, 2, 0).copy()]

    w_query, w_key, w_value = (property(lambda self, r=role: self._per_relation(r)) for role in ROLES)


@dataclass(frozen=True, eq=False)
class AttentionTrace:
    """Recorded attention weights from one forward pass, as the layer computed them.

    ``flat_gamma`` is a read-only copy of gamma, one weight per edge of
    ``index``, 1.0 at a lone edge; a variant without node attention records
    its uniform 1/|N_i^r|.  ``flat_psi`` is the relation stage's read-only
    psi, one float per same-node pair in ``index.blocks`` order, None
    without relation attention.

    ``gamma``, ``psi`` and ``rel_order`` are read-only mappings of read-only
    views, each split from the flat arrays in one pass on first access and
    then kept.  ``gamma[(i, r)]`` holds the neighbor weights of node i under
    relation r, ordered like ``graph.neighbors(i, r)``, keys relation-major
    with nodes ascending.  ``psi[i]`` is the |R_i| x |R_i| relation-attention
    matrix whose row/column order is ``rel_order[i]``, nodes ascending.
    :meth:`gamma_lists` gives ``gamma``'s items as float lists without
    building or keeping the mapping.
    """

    index: GraphIndex | None = None
    flat_gamma: np.ndarray | None = None
    flat_psi: np.ndarray | None = None

    def _gamma_groups(self) -> tuple[Iterator[tuple[int, int]], np.ndarray]:
        """The (node, relation) key and the first edge of each group, in edge order."""
        idx = self.index
        starts = np.flatnonzero(np.diff(idx.edge_group, prepend=-1))
        return zip(idx.heads[starts].tolist(), idx.edge_rel[starts].tolist()), starts

    @cached_property
    def gamma(self) -> Mapping[tuple[int, int], np.ndarray]:
        if self.flat_gamma is None:
            return MappingProxyType({})
        keys, starts = self._gamma_groups()
        return MappingProxyType(dict(zip(keys, np.split(self.flat_gamma, starts[1:]))))

    def gamma_lists(self) -> Iterator[tuple[tuple[int, int], list[float]]]:
        """``gamma``'s items in its order, each value a list of floats, split from ``flat_gamma``."""
        if self.flat_gamma is None:
            return iter(())
        keys, starts = self._gamma_groups()
        values, bounds = self.flat_gamma.tolist(), [*starts.tolist(), self.flat_gamma.size]
        return ((key, values[a:b]) for key, a, b in zip(keys, bounds, bounds[1:]))

    @cached_property
    def psi(self) -> Mapping[int, np.ndarray]:
        return self._per_node(lambda lo, hi, m, blocks: blocks)

    @cached_property
    def rel_order(self) -> Mapping[int, tuple[int, ...]]:
        return self._per_node(
            lambda lo, hi, m, _: map(tuple, self.index.group_rel[lo:hi].reshape(-1, m).tolist())
        )

    def _per_node(self, run_values: Callable) -> Mapping:
        """Node i -> its value, one per block, from ``run_values(*run)`` per run of ``pair_blocks``."""
        if self.flat_psi is None:
            return MappingProxyType({})
        idx = self.index
        out = dict.fromkeys(np.flatnonzero(idx.node_count).tolist())  # the key order
        for run in idx.blocks.pair_blocks(self.flat_psi):
            lo, hi, m, _ = run
            out.update(zip(idx.group_node[lo:hi:m].tolist(), run_values(*run)))
        return MappingProxyType(out)


def _project(h: Tensor | None, feature_mask: Tensor | None, w: Tensor) -> Tensor:
    """h @ w; one-hot h (None) reads w's rows, each scaled by its node's dropout mask entry."""
    return (w if feature_mask is None else dn.mul(w, feature_mask)) if h is None else dn.matmul(h, w)


def _rows(params: BrgcnLayerParams, h: Tensor | None, feature_mask: Tensor | None, idx: GraphIndex,
          roles: Sequence[str], attend: bool) -> tuple[Tensor | None, list[Tensor]]:
    """The rows ``idx`` reads, as the module docstring sets out: a's attention rows (G_m + L_m,), None
    unless ``attend``, and each of ``roles``' (L, d_out)."""
    if h is None:
        mask = None if feature_mask is None else feature_mask.data
        a = params._stored_rows("a", idx, mask) if attend else None
        if not params.num_bases:
            return a, [params._stored_rows(f"w_{role}", idx, mask) for role in roles]
        # Slot (j, r)'s row is sum_b coeff[r, b] * basis[b][:, j]: node j's B*d_out basis entries times
        # coeff_r (x) I, the (B*d_out, d_out) weight that sums them, one product for every role.
        b, d, r = params.num_bases, params.d_out, params.num_relations
        eye, columns = np.eye(d).reshape(1, d, 1, d), dn.transpose(dn.reshape(params.basis, (b * d, params.d_in)))
        sums = [dn.reshape(dn.mul(dn.reshape(dn.transpose(params.roles[role]), (b, 1, r, 1)), eye), (b * d, r * d))
                for role in roles]
        rows = dn.segment_matmul(columns, sums, idx.slot_rows)
        return a, list(rows) if mask is None else [dn.mul(w, mask[idx.live_slots // r]) for w in rows]
    rows = list(dn.segment_matmul(h, [params._slot_weight(role) for role in roles], idx.slot_rows))
    if not attend:
        return None, rows
    a = params._full("a", params.attention)
    halves = dn.concat(  # (d_in, 2R): a_r's head halves, then their tail halves
        [dn.take(a, np.arange(lo, lo + params.d_in)) for lo in (0, params.d_in)], axis=1)
    return dn.reshape(dn.segment_matmul(h, [halves], idx.attention_rows)[0], (-1,)), rows


def layer_forward(
    params: BrgcnLayerParams,
    h: Tensor | None,
    graph: HeteroGraph,
    *,
    rng: np.random.Generator | None = None,
    collect_trace: bool = True,
    index: GraphIndex | None = None,
) -> tuple[Tensor, AttentionTrace]:
    """Apply one layer to the heads of ``index``'s edges, as its ``variant``; see the module docstring for the math.

    ``index`` is ``graph.index`` (the default: every node) or one of its
    fields (:func:`~brgcn.hetgraph.receptive_fields`).  A node's row depends
    only on its own edges, which a field keeps whole, so a field's rows equal
    the whole graph's bit for bit, and every other row is zero.  The result
    depends only on the graph's edge set, not on triple storage order or
    node iteration order.  The layer's relation count must equal the
    graph's.  Given an ``rng``, a layer with dropout draws its masks from
    it and applies them to the input features and to the post-softmax
    neighbor weights with inverted scaling; ``rng=None`` is a deterministic
    evaluation pass.  The masks are drawn at the whole graph's shapes, the
    edge mask over all of its edges and read at the field's, so a field
    draws the same stream.  ``h=None`` is the identity (one-hot features)
    without building it: h @ W is a lookup of the rows a layer built with
    ``live`` stores, and any other layer refuses it.  Dropout on it is one
    Bernoulli(keep) / keep mask entry per node, which scales that node's
    rows: the per-unit dropout of Srivastava et al. (2014).
    """
    n, num_rel = graph.num_nodes, params.num_relations
    if h is not None and (h.ndim != 2 or h.shape[0] != n):
        raise dn.DimensionError(f"feature matrix has shape {h.shape}, expected ({n}, d_in)")
    d_in = n if h is None else h.shape[1]
    if d_in != params.d_in:
        raise ConfigurationError(f"layer expects d_in={params.d_in}, features have {d_in}")
    if graph.num_relations != num_rel:
        raise ConfigurationError(f"layer sized for {num_rel} relations, graph has {graph.num_relations}")
    idx, built = (graph.index if index is None else index), params.live
    whole = idx.parent
    if whole is not graph.index:
        raise ConfigurationError("index is neither the graph's index nor one of its fields")
    if built is not None and built is not whole and not (
        np.array_equal(built.live_slots, whole.live_slots) and np.array_equal(built.group_slot, whole.group_slot)
    ):
        raise ConfigurationError("layer stores the rows of another graph's live slots and groups")
    if h is None and built is None:
        raise ConfigurationError("one-hot input reads a layer's stored rows: build it with live=graph.index")

    def mask(shape) -> Tensor | None:  # inverted dropout: Bernoulli(keep) / keep per entry, None without
        keep = 1.0 - params.dropout
        return Tensor((rng.random(shape) < keep) / keep) if rng is not None and params.dropout > 0.0 else None

    feature_mask = mask((n, 1) if h is None else h.shape)  # one-hot input: one entry per node
    if h is not None and feature_mask is not None:
        h = dn.mul(h, feature_mask)
    # One entry per edge of the whole graph, lone or not, drawn even where the field has no edge.
    edge_mask = mask(whole.num_edges) if params.variant in GAMMA_VARIANTS else None

    if not idx.num_groups:
        return Tensor(np.zeros((n, params.d_out))), AttentionTrace()
    roles = params.ROLES if params.variant in PSI_VARIANTS else ("value",)
    attend = params.variant in GAMMA_VARIANTS and idx.multi_edges.size > 0
    a, rows = _rows(params, h, feature_mask, idx, roles, attend)

    # Node-level attention where a group has a choice: one segment softmax over the edges of the
    # groups with two or more.  A lone edge's gamma is 1, and its logit would take no gradient.
    at = fixed = None
    if params.variant in GAMMA_VARIANTS:
        at, gamma = idx.multi_edges, Tensor(np.empty(0))
        if attend:  # each multi edge reads a's head row at its group and its tail row at its live slot
            logits = dn.add(*(dn.take(a, read) for read in idx.multi_live))
            gamma = dn.segment_softmax(dn.leaky_relu(logits, params.leaky_slope), idx.multi_by_group)
        if edge_mask is None:
            weights, fixed = gamma, idx.unit_weights
        else:  # a lone edge's weight is its mask entry
            fixed = idx.from_parent(edge_mask.data)
            weights = dn.mul(gamma, np.take(fixed, at.ids))
    else:
        weights = Tensor(idx.mean_weights)

    def messages(w: Tensor) -> Tensor:  # per group, sum_j gamma_ij W_r h_j
        return dn.gather_sum(weights, w, idx.edges_by_live_slot, idx.edges_by_group, at=at, base=fixed)

    self_rows = _project(h, feature_mask, dn.transpose(params.w_self))  # (N, d_out)
    psi = None
    if params.variant in PSI_VARIANTS:
        # Relation-level attention: one softmax over each node's block of groups.
        q, k, v = (messages(w) for w in rows)
        fused, psi = dn.block_attention(q, k, v, idx.blocks)
        delta = dn.relu(dn.add(fused, dn.take(self_rows, idx.groups_by_node)))
        out = dn.segment_sum(delta, idx.groups_by_node)
    else:
        # R-GCN's sum, over each node's groups; nodes without outgoing edges stay zero despite the self term.
        has_rel = Tensor((idx.node_count > 0).astype(np.float64)[:, None])
        summed = dn.segment_sum(messages(rows[0]), idx.groups_by_node)
        out = dn.mul(dn.relu(dn.add(summed, self_rows)), has_rel)

    if not collect_trace:
        return out, AttentionTrace()
    if at is None:
        flat_gamma = weights.data.copy()  # detached from the tape
    else:  # 1.0 at each lone edge
        flat_gamma = np.ones(idx.num_edges)
        np.put(flat_gamma, at.ids, gamma.data)
    flat_gamma.flags.writeable = False
    return out, AttentionTrace(idx, flat_gamma, psi)


def stack_forward(
    layers: Sequence[BrgcnLayerParams],
    x0: Tensor | None,
    graph: HeteroGraph,
    *,
    rng: np.random.Generator | None = None,
    collect_trace: bool = True,
    fields: Sequence[GraphIndex] | None = None,
) -> tuple[Tensor, list[AttentionTrace]]:
    """Sequential composition of layers, each run as its variant; defaults to one-hot input.

    When ``x0`` is None the input is the identity matrix, giving every node
    a unique one-hot feature vector; it is never materialized (see
    :func:`layer_forward`).  Every layer draws its dropout masks from
    ``rng``, in turn; ``rng=None`` is an evaluation pass.  ``fields``, one
    index per layer (:func:`~brgcn.hetgraph.receptive_fields`), runs each
    layer over its own; None runs every layer over ``graph.index``.
    """
    if not layers:
        raise ConfigurationError("stack_forward requires at least one layer")
    if fields is not None and len(fields) != len(layers):
        raise ConfigurationError(f"{len(fields)} field indexes for {len(layers)} layers")
    for a, b in zip(layers, layers[1:]):
        if a.d_out != b.d_in:
            raise ConfigurationError(
                f"layer dim chain mismatch: d_out={a.d_out} feeds d_in={b.d_in}"
            )
    h = x0
    traces = []
    for lay, index in zip(layers, fields or [None] * len(layers)):
        h, tr = layer_forward(lay, h, graph, rng=rng, collect_trace=collect_trace, index=index)
        traces.append(tr)
    return h, traces
