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

Both stages run vectorized over the graph's sorted index arrays
(``graph.index``, built once per graph), in the edge-softmax / scatter
formulation of GAT (Velickovic et al. 2018) and PyG (Fey & Lenssen 2019):
the node stage is one segment softmax per relation over its edges, the
relation stage one segment softmax over all pairs of (node, relation)
groups at the same node.  The tape therefore holds a number of records that
depends on the relations and layers, not on the number of nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import diffnum as dn
from .diffnum import Tensor
from .hetgraph import GraphIndex, HeteroGraph


class ConfigurationError(Exception):
    """A layer or model was assembled with inconsistent dimensions/options."""


VARIANTS = ("full", "node_only", "relation_only", "rgcn_baseline")


class BrgcnLayerParams:
    """All learnable state of one layer.

    Per relation: the attention vector ``a[r]`` (length 2*d_in) and the
    query/key/value projections ``w_query/w_key/w_value`` (d_out x d_in).
    Shared: the self-connection matrix ``w_self`` (d_out x d_in).  The fused
    values are added to W_self h_i, so they too have d_out entries.

    With ``num_bases > 0`` the projection matrices are not stored directly;
    instead one shared stack of basis matrices plus per-(role, relation)
    coefficient vectors reconstructs W_role_r = sum_b coeff[b] * basis[b].
    The attention vectors and w_self are never decomposed.
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
    ):
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
        self.a: list[Tensor] = []
        self.w_self: Tensor | None = None
        self.w_query: list[Tensor] = []
        self.w_key: list[Tensor] = []
        self.w_value: list[Tensor] = []
        self.basis: Tensor | None = None
        self.coeff: dict[str, list[Tensor]] = {}

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
        prefix: str = "layer",
    ) -> "BrgcnLayerParams":
        """Glorot-uniform initialization of all parameter groups."""
        p = cls(
            d_in,
            d_out,
            num_relations,
            num_bases=num_bases,
            leaky_slope=leaky_slope,
            dropout=dropout,
        )

        def glorot(fan_in, fan_out, shape, name):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            return dn.param(rng.uniform(-limit, limit, size=shape), name=name)

        p.a = [
            glorot(2 * d_in, 1, (2 * d_in,), f"{prefix}.a.{r}") for r in range(num_relations)
        ]
        p.w_self = glorot(d_in, d_out, (d_out, d_in), f"{prefix}.w_self")
        if num_bases == 0:
            for role in cls.ROLES:
                mats = [
                    glorot(d_in, d_out, (d_out, d_in), f"{prefix}.w_{role}.{r}")
                    for r in range(num_relations)
                ]
                setattr(p, f"w_{role}", mats)
        else:
            p.basis = glorot(d_in, d_out, (num_bases, d_out, d_in), f"{prefix}.basis")
            p.coeff = {
                role: [
                    dn.param(
                        rng.normal(0.0, 1.0 / np.sqrt(num_bases), size=num_bases),
                        name=f"{prefix}.coeff_{role}.{r}",
                    )
                    for r in range(num_relations)
                ]
                for role in cls.ROLES
            }
        return p

    def params(self) -> list[Tensor]:
        """All learnable tensors in a fixed, checkpoint-stable order."""
        out = list(self.a)
        if self.num_bases == 0:
            for role in self.ROLES:
                out.extend(getattr(self, f"w_{role}"))
        else:
            out.append(self.basis)
            for role in self.ROLES:
                out.extend(self.coeff[role])
        out.append(self.w_self)
        return out

    def projection(self, role: str, r: int) -> Tensor:
        """The (d_out, d_in) projection for one role and relation.

        Under basis decomposition this materializes the matrix through tape
        ops so gradients reach the basis stack and the coefficients.
        """
        if self.num_bases == 0:
            return getattr(self, f"w_{role}")[r]
        coeff = dn.reshape(self.coeff[role][r], (self.num_bases, 1, 1))
        return dn.tsum(dn.mul(self.basis, coeff), axis=0)


@dataclass
class AttentionTrace:
    """Recorded attention weights from one forward pass.

    ``gamma[(i, r)]`` holds the neighbor weights of node i under relation r,
    ordered like ``graph.neighbors(i, r)``.  ``psi[i]`` is the
    |R_i| x |R_i| relation-attention matrix whose row/column order is
    ``rel_order[i]``.  Values are detached copies.
    """

    gamma: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    psi: dict[int, np.ndarray] = field(default_factory=dict)
    rel_order: dict[int, tuple[int, ...]] = field(default_factory=dict)


def layer_forward(
    params: BrgcnLayerParams,
    h: Tensor,
    graph: HeteroGraph,
    *,
    mode: str = "full",
    training: bool = False,
    rng: np.random.Generator | None = None,
    collect_trace: bool = True,
) -> tuple[Tensor, AttentionTrace]:
    """Apply one layer to every node; see the module docstring for the math.

    ``mode`` selects the variant.  ``full`` is the bi-level layer;
    ``node_only`` drops relation attention (unweighted sum of the z
    summaries plus ReLU(W_self h_i) added once); ``relation_only`` replaces
    neighbor attention by uniform weights; ``rgcn_baseline`` is the
    mean-aggregation relational convolution ReLU(sum_r W_r mean_j h_j +
    W_self h_i) with W_r taken from the value projections.

    The result depends only on the graph's edge set, not on triple storage
    order or node iteration order.  During training, dropout (when
    configured) is applied to the input features and to the post-softmax
    neighbor weights with inverted scaling; evaluation passes are
    deterministic.
    """
    if mode not in VARIANTS:
        raise ConfigurationError(f"unknown variant {mode!r}; expected one of {VARIANTS}")
    if h.ndim != 2 or h.shape[0] != graph.num_nodes:
        raise dn.DimensionError(
            f"feature matrix has shape {h.shape}, expected ({graph.num_nodes}, d_in)"
        )
    if h.shape[1] != params.d_in:
        raise ConfigurationError(f"layer expects d_in={params.d_in}, features have {h.shape[1]}")
    if graph.num_relations > params.num_relations:
        raise ConfigurationError(
            f"layer sized for {params.num_relations} relations, graph has {graph.num_relations}"
        )
    if mode == "node_only" and params.d_in != params.d_out:
        raise ConfigurationError(
            "node_only fuses unprojected neighbor summaries, so d_in must equal d_out"
        )

    use_dropout = training and params.dropout > 0.0
    if use_dropout and rng is None:
        raise ConfigurationError("training with dropout requires an rng")
    keep = 1.0 - params.dropout
    if use_dropout:
        fmask = (rng.random(h.shape) < keep) / keep
        h = dn.mul(h, Tensor(fmask))

    n = graph.num_nodes
    idx = graph.index
    trace = AttentionTrace()
    if not idx.num_groups:
        return Tensor(np.zeros((n, params.d_out))), trace
    uniform_gamma = mode in ("relation_only", "rgcn_baseline")
    head_idx = np.arange(params.d_in)
    tail_idx = np.arange(params.d_in, 2 * params.d_in)

    # Node-level attention: one segment softmax over each relation's edges,
    # then z[r] (one row per group of r) as a weighted gather-sum of tails.
    rel_list = np.flatnonzero(np.diff(idx.group_start)).tolist()  # relations with edges
    z: dict[int, Tensor] = {}
    gammas: list[Tensor] = []
    for r in rel_list:
        edges = slice(idx.edge_start[r], idx.edge_start[r + 1])
        g0, num_groups = idx.group_start[r], idx.group_start[r + 1] - idx.group_start[r]
        tails, seg = idx.tails[edges], idx.edge_group[edges] - g0
        if uniform_gamma:
            gamma = Tensor(1.0 / idx.group_size[idx.edge_group[edges]])
        else:
            s_head = dn.matmul(h, dn.take(params.a[r], head_idx))
            s_tail = dn.matmul(h, dn.take(params.a[r], tail_idx))
            logits = dn.add(dn.take(s_head, idx.heads[edges]), dn.take(s_tail, tails))
            gamma = dn.segment_softmax(dn.leaky_relu(logits, params.leaky_slope), seg, num_groups)
        gammas.append(gamma)
        weights = gamma
        if use_dropout and not uniform_gamma:
            gmask = (rng.random(len(tails)) < keep) / keep
            weights = dn.mul(gamma, Tensor(gmask))
        z[r] = dn.gather_sum(weights, h, tails, seg, num_groups)

    def project(role: str) -> Tensor:
        # Projected per relation, so no (groups, d_in) concatenation is made.
        parts = [dn.matmul(z[r], dn.transpose(params.projection(role, r))) for r in rel_list]
        return dn.concat(parts) if len(parts) > 1 else parts[0]

    self_rows = dn.matmul(h, dn.transpose(params.w_self))  # (N, d_out)
    psi = None
    if mode in ("full", "relation_only"):
        # Relation-level attention: one segment softmax over same-node group pairs.
        rows, cols = idx.pair_rows, idx.pair_cols
        psi = dn.segment_softmax(
            dn.pair_dot(project("query"), project("key"), rows, cols), rows, idx.num_groups
        )
        fused = dn.gather_sum(psi, project("value"), cols, rows, idx.num_groups)
        delta = dn.relu(dn.add(fused, dn.take(self_rows, idx.group_node)))
        out = dn.segment_sum(delta, idx.group_node, n)
    else:
        # Nodes without outgoing edges must stay zero despite the self term.
        has_rel = Tensor((idx.node_count > 0).astype(np.float64)[:, None])
        if mode == "rgcn_baseline":
            msgs = dn.segment_sum(project("value"), idx.group_node, n)
            out = dn.mul(dn.relu(dn.add(msgs, self_rows)), has_rel)
        else:
            z_all = dn.concat([z[r] for r in rel_list]) if len(rel_list) > 1 else z[rel_list[0]]
            zsum = dn.segment_sum(z_all, idx.group_node, n)
            out = dn.mul(dn.add(zsum, dn.relu(self_rows)), has_rel)

    if collect_trace:
        _fill_trace(trace, idx, None if mode == "rgcn_baseline" else gammas, psi)
    return out, trace


def _fill_trace(
    trace: AttentionTrace, idx: GraphIndex, gammas: list[Tensor] | None, psi: Tensor | None
) -> None:
    """Copy attention weights out of the flat edge and pair arrays, per group and node."""
    if gammas is not None:
        flat = np.concatenate([g.data for g in gammas])
        parts = np.split(flat, np.cumsum(idx.group_size)[:-1])
        for key, gamma in zip(zip(idx.group_node.tolist(), idx.group_rel.tolist()), parts):
            trace.gamma[key] = gamma
    if psi is not None:
        flat = psi.data.copy()
        first_pair = np.cumsum(idx.node_count**2) - idx.node_count**2
        for i in np.flatnonzero(idx.node_count).tolist():
            m, p0, g0 = int(idx.node_count[i]), int(first_pair[i]), int(idx.node_first[i])
            trace.psi[i] = flat[p0 : p0 + m * m].reshape(m, m)
            trace.rel_order[i] = tuple(idx.group_rel[idx.by_node[g0 : g0 + m]].tolist())


def stack_forward(
    layers: Sequence[BrgcnLayerParams],
    x0: Tensor | None,
    graph: HeteroGraph,
    *,
    mode: str = "full",
    training: bool = False,
    rng: np.random.Generator | None = None,
    collect_trace: bool = True,
) -> tuple[Tensor, list[AttentionTrace]]:
    """Sequential composition of layers; defaults to one-hot input features.

    When ``x0`` is None the input is the identity matrix, giving every node
    a unique one-hot feature vector.
    """
    if not layers:
        raise ConfigurationError("stack_forward requires at least one layer")
    for a, b in zip(layers, layers[1:]):
        if a.d_out != b.d_in:
            raise ConfigurationError(
                f"layer dim chain mismatch: d_out={a.d_out} feeds d_in={b.d_in}"
            )
    h = x0 if x0 is not None else Tensor(np.eye(graph.num_nodes))
    traces = []
    for lay in layers:
        h, tr = layer_forward(
            lay, h, graph, mode=mode, training=training, rng=rng, collect_trace=collect_trace
        )
        traces.append(tr)
    return h, traces
