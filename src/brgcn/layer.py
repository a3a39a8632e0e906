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
segment softmax over every edge gives gamma, and since sum_j gamma_ij W_r h_j
= W_r z_i^r, each role is projected first, as R-GCN's per-relation messages
are (Schlichtkrull et al. 2018), then gathered once.  The relation stage is
Transformer-style attention (Vaswani et al. 2017) within per-node blocks, one
op (``dn.block_attention``): the index numbers groups by their node's |R_i|,
descending, so node i's groups form one block and the nodes with |R_i| = m
are one run of groups, read as a (nodes, m, d_out) view.  Per run, one
batched matmul gives the logits, a row softmax gives psi and one batched
matmul the psi-weighted values.  The tape's length depends on the number of
layers only.

Cost model: every row an edge gathers comes from one helper, ``_slot_rows``:
the row of each (node, relation) slot under a slot-layout weight (d_in,
R*width), relation r's columns at r*width, for each role's d_out-wide rows
and the one-float rows of a_r's two halves.  One matmul projects all N*R
slots (with one-hot input the weight is the rows), and a ``dn.Segments``
schedule takes each edge to its head or tail slot.  Every scatter and every
gradient of a gather by a graph-constant index runs on such a schedule,
which ``graph.index`` builds and range-checks once per graph; its sums are a
few vectorized passes, one per rank of a segment's entries, bit-equal to one
bincount.  Nothing is restacked per forward, and one-hot dropout draws one
mask entry per node, so no N x N array is built.  Under bases, every forward
multiplies out each role's (R, B, d_out, d_in) product into its slot weight,
which the per-relation views read too.  The relation stage does d_out work
per same-node pair and loops once per distinct |R_i|, its row maxima m - 1
column passes; only psi and one run's logits grow with the pairs.  So a step
is linear in edges plus slots plus pairs, and a dense layer whose nodes
carry few of many relations pays for its empty slots.  A step frees its
transients when it ends; ``training.optimize`` keeps glibc from trimming
them, so the next step reuses that heap.
"""

from __future__ import annotations

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
    taped slot weight every forward projects.  The read-only ``a``,
    ``w_query``, ``w_key`` and ``w_value`` list R detached per-relation
    Tensors (a_r; W_role_r as d_out x d_in), the roles' reshaped from
    ``_slot_weight`` on detached inputs: reading them records nothing.

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
    ):
        if variant not in VARIANTS:
            raise ConfigurationError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
        if not 0.0 <= dropout < 1.0:
            raise ConfigurationError(f"dropout must lie in [0, 1), got {dropout}")
        if num_bases < 0:
            raise ConfigurationError(f"num_bases must be non-negative, got {num_bases}")
        self.d_in = d_in
        self.d_out = d_out
        self.num_relations = num_relations
        self.num_bases = num_bases
        self.leaky_slope = leaky_slope
        self.dropout = dropout
        self._variant = variant
        self.attention: Tensor | None = None
        self.roles: dict[str, Tensor] = {}
        self.basis: Tensor | None = None
        self.w_self: Tensor | None = None

    @property
    def variant(self) -> str:
        """The variant every forward runs; read-only, fixed when the layer is built."""
        return self._variant

    @staticmethod
    def num_floats(d_in: int, d_out: int, num_relations: int, num_bases: int = 0) -> int:
        """How many parameter entries :meth:`create` allocates for these sizes."""
        roles = 3 * num_relations * (num_bases if num_bases else d_out * d_in)
        return num_relations * 2 * d_in + (1 + num_bases) * d_out * d_in + roles

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
    def create(
        cls,
        rng: np.random.Generator,
        d_in: int,
        d_out: int,
        num_relations: int,
        *,
        num_bases: int = 0,
        leaky_slope: float = 0.2,
        dropout: float = 0.0,
        variant: str = "full",
        prefix: str = "layer",
    ) -> "BrgcnLayerParams":
        """Glorot-uniform initialization; a group's (R, ...) draw gives what R draws would."""
        p = cls(d_in, d_out, num_relations, num_bases=num_bases, leaky_slope=leaky_slope, dropout=dropout,
                variant=variant)

        def glorot(fan_in, fan_out, shape):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-limit, limit, size=shape)

        def param(group, values):  # a fresh array: no copy, unlike dn.param
            return Tensor(cls.stacked(group, values), requires_grad=True, name=f"{prefix}.{group}")

        p.attention = param("a", glorot(2 * d_in, 1, (num_relations, 2 * d_in)))
        p.w_self = param("w_self", glorot(d_in, d_out, (d_out, d_in)))
        if num_bases:
            p.basis = param("basis", glorot(d_in, d_out, (num_bases, d_out, d_in)))
        for role in cls.ROLES:
            if num_bases:
                coeff = rng.normal(0.0, 1.0 / np.sqrt(num_bases), size=(num_relations, num_bases))
                p.roles[role] = param(f"coeff_{role}", coeff)
            else:
                p.roles[role] = param(f"w_{role}", glorot(d_in, d_out, (num_relations, d_out, d_in)))
        return p

    def params(self) -> list[Tensor]:
        """All learnable tensors in a fixed, checkpoint-stable order."""
        basis = [self.basis] if self.num_bases else []
        return [self.attention, *basis, *(self.roles[role] for role in self.ROLES), self.w_self]

    @property
    def a(self) -> list[Tensor]:
        return [Tensor(col) for col in self.attention.data.T.copy()]

    def _slot_weight(self, role: str, detached: bool = False) -> Tensor:
        """``role``'s (d_in, R*d_out) slot weight, multiplied out under bases; taped unless ``detached``."""
        w, basis = (t if t is None or not detached else Tensor(t.data) for t in (self.roles[role], self.basis))
        if self.num_bases:  # w holds the (R, B) coefficients; mats is (R, d_out, d_in)
            mats = dn.tsum(dn.mul(basis, dn.reshape(w, (self.num_relations, self.num_bases, 1, 1))), axis=1)
            w = dn.transpose(dn.reshape(mats, (self.num_relations * self.d_out, self.d_in)))
        return w

    def _per_relation(self, role: str) -> list[Tensor]:
        w = self._slot_weight(role, detached=True).data.reshape(self.d_in, self.num_relations, self.d_out)
        return [Tensor(m) for m in w.transpose(1, 2, 0).copy()]

    w_query, w_key, w_value = (property(lambda self, r=role: self._per_relation(r)) for role in ROLES)


@dataclass(frozen=True, eq=False)
class AttentionTrace:
    """Recorded attention weights from one forward pass, as the layer computed them.

    ``flat_gamma`` is a read-only copy of gamma, one weight per edge of
    ``index``; a variant without node attention records its uniform
    1/|N_i^r|.  ``flat_psi`` is the relation stage's read-only psi, one
    float per same-node pair in ``index.blocks`` order, None without
    relation attention.

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


def _slot_rows(params: BrgcnLayerParams, h: Tensor | None, feature_mask: Tensor | None, idx: GraphIndex,
               w: Tensor, *, row: tuple = (), head: bool = False) -> tuple[Tensor, dn.Segments]:
    """The row of h @ w at every (node, relation) slot, and the Segments of each edge's slot row.

    ``w`` is (d_in, R*width) in slot layout, and the rows are (N*R, *row):
    ``row`` is (width,), or () for a width-1 weight read as one float per
    slot.  An edge reads its tail's slot row, or with ``head`` its head's.
    """
    slots = idx.edges_by_head_slot if head else idx.edges_by_tail_slot
    return dn.reshape(_project(h, feature_mask, w), (idx.num_nodes * params.num_relations, *row)), slots


def layer_forward(
    params: BrgcnLayerParams,
    h: Tensor | None,
    graph: HeteroGraph,
    *,
    rng: np.random.Generator | None = None,
    collect_trace: bool = True,
) -> tuple[Tensor, AttentionTrace]:
    """Apply one layer to every node, as its ``variant``; see the module docstring for the math.

    The result depends only on the graph's edge set, not on triple storage
    order or node iteration order.  The layer's relation count must equal
    the graph's.  Given an ``rng``, a layer with dropout draws its masks from
    it and applies them to the input features and to the post-softmax
    neighbor weights with inverted scaling; ``rng=None`` is a deterministic
    evaluation pass.  ``h=None`` is the identity (one-hot features) without
    building it: h @ W is a lookup of W's rows.  Dropout on it is one
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

    def mask(shape) -> Tensor | None:  # inverted dropout: Bernoulli(keep) / keep per entry, None without
        keep = 1.0 - params.dropout
        return Tensor((rng.random(shape) < keep) / keep) if rng is not None and params.dropout > 0.0 else None

    feature_mask = mask((n, 1) if h is None else h.shape)  # one-hot input: one entry per node
    if h is not None and feature_mask is not None:
        h = dn.mul(h, feature_mask)

    idx = graph.index
    if not idx.num_groups:
        return Tensor(np.zeros((n, params.d_out))), AttentionTrace()

    # Node-level attention: one segment softmax over the edges of every group.
    if params.variant in GAMMA_VARIANTS:  # a_r's halves are width-1 slot weights, read at head and tail
        a_head, a_tail = (dn.take(params.attention, np.arange(lo, lo + d_in)) for lo in (0, d_in))
        logits = dn.add(dn.take(*_slot_rows(params, h, feature_mask, idx, a_head, head=True)),
                        dn.take(*_slot_rows(params, h, feature_mask, idx, a_tail)))
        gamma = dn.segment_softmax(dn.leaky_relu(logits, params.leaky_slope), idx.edges_by_group)
        edge_mask = mask(gamma.shape)
        weights = gamma if edge_mask is None else dn.mul(gamma, edge_mask)
    else:
        gamma = weights = Tensor(1.0 / idx.group_size[idx.edge_group])

    def messages(role: str, dst: dn.Segments) -> Tensor:  # sum_j gamma_ij W_r h_j
        rows, slots = _slot_rows(params, h, feature_mask, idx, params._slot_weight(role), row=(params.d_out,))
        return dn.gather_sum(weights, rows, slots, dst)

    self_rows = _project(h, feature_mask, dn.transpose(params.w_self))  # (N, d_out)
    psi = None
    if params.variant in PSI_VARIANTS:
        # Relation-level attention: one softmax over each node's block of groups.
        q, k, v = (messages(role, idx.edges_by_group) for role in params.ROLES)
        fused, psi = dn.block_attention(q, k, v, idx.blocks)
        delta = dn.relu(dn.add(fused, dn.take(self_rows, idx.groups_by_node)))
        out = dn.segment_sum(delta, idx.groups_by_node)
    else:
        # R-GCN's sum; nodes without outgoing edges must stay zero despite the self term.
        has_rel = Tensor((idx.node_count > 0).astype(np.float64)[:, None])
        out = dn.mul(dn.relu(dn.add(messages("value", idx.edges_by_head), self_rows)), has_rel)

    if not collect_trace:
        return out, AttentionTrace()
    flat_gamma = gamma.data.copy()  # detached from the tape
    flat_gamma.flags.writeable = False
    return out, AttentionTrace(idx, flat_gamma, psi)


def stack_forward(
    layers: Sequence[BrgcnLayerParams],
    x0: Tensor | None,
    graph: HeteroGraph,
    *,
    rng: np.random.Generator | None = None,
    collect_trace: bool = True,
) -> tuple[Tensor, list[AttentionTrace]]:
    """Sequential composition of layers, each run as its variant; defaults to one-hot input.

    When ``x0`` is None the input is the identity matrix, giving every node
    a unique one-hot feature vector; it is never materialized (see
    :func:`layer_forward`).  Every layer draws its dropout masks from
    ``rng``, in turn; ``rng=None`` is an evaluation pass.
    """
    if not layers:
        raise ConfigurationError("stack_forward requires at least one layer")
    for a, b in zip(layers, layers[1:]):
        if a.d_out != b.d_in:
            raise ConfigurationError(
                f"layer dim chain mismatch: d_out={a.d_out} feeds d_in={b.d_in}"
            )
    h = x0
    traces = []
    for lay in layers:
        h, tr = layer_forward(lay, h, graph, rng=rng, collect_trace=collect_trace)
        traces.append(tr)
    return h, traces
