"""Directed multi-relational graphs stored as one integer triple array.

Graphs are immutable after construction.  A graph is its node table, its
relation table and its triples, nothing else.  Node and relation identifiers
are dense integers assigned in first-seen file order; the loader keeps the
original string names, each unique within its table, for label/split
resolution and reporting.  N-Triples statements are read by one compiled term
pattern, matched three times from where the previous term ended.  Neighbor
lists hold out-neighbors only; incoming information is modeled by inverse
relations, added with the self loops by one :func:`augment` of the loaded
graph.

A graph holds its edges once, as an (E, 3) int64 array of (head, relation,
tail) rows in first-seen order: the edge-list layout of R-GCN (Schlichtkrull
et al. 2018) and PyG (Fey & Lenssen 2019).  The sorted :class:`GraphIndex`
that the layer and the neighbor queries read is derived from it on first use
and kept, as is ``triple_set``, a :class:`TripleSet` that keys the triples
for filtered ranking once.  Membership tests compare the int64 keys of
:func:`triple_keys`.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .diffnum import BlockLayout, Segments

log = logging.getLogger(__name__)

SELF_RELATION_NAME = "SELF"
INVERSE_SUFFIX = "^inv"

Triple = tuple[int, int, int]


class GraphError(Exception):
    pass


class ParseError(GraphError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class EmptyGraphError(GraphError):
    pass


class BoundsError(GraphError):
    pass


def triple_keys(triples, num_relations: int, num_nodes: int) -> np.ndarray:
    """The int64 key ``(a*R + r)*N + b`` of every (a, r, b) row.

    Keys of in-range triples are distinct, and they sort like the rows sort
    by (a, r, b).  Keying (b, r, a) instead groups triples by their tail.
    """
    a, r, b = triple_array(triples).T
    return (a * num_relations + r) * num_nodes + b


def triple_array(triples) -> np.ndarray:
    """``triples`` as an (E, 3) int64 array.

    Accepts an (E, 3) array or rows of three ids, a single (3,) triple, and
    empty input; other shapes and non-integer ids raise :class:`GraphError`.
    """
    if isinstance(triples, TripleSet):
        return triples.array
    if not isinstance(triples, np.ndarray):
        triples = list(triples)
    try:
        rows = np.asarray(triples)
    except ValueError as err:  # rows of unequal lengths
        raise GraphError(f"triples must be rows of three ids: {err}") from err
    if rows.size and rows.dtype.kind not in "iu":
        raise GraphError(f"triple ids must be integers, got {rows.dtype} ids")
    rows = rows.astype(np.int64, copy=False)
    if rows.shape in ((0,), (3,)):
        return rows.reshape(-1, 3)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise GraphError(f"triples must be rows of three ids, got an array of shape {rows.shape}")
    return rows


def in_range(triples: np.ndarray, num_nodes: int, num_relations: int) -> np.ndarray:
    """Mask of the (a, r, b) rows with a, b in [0, num_nodes) and r in [0, num_relations)."""
    lo, hi = np.zeros(3, dtype=np.int64), np.array([num_nodes, num_relations, num_nodes])
    return ((triples >= lo) & (triples < hi)).all(axis=1)


def sorted_triple_keys(triples, num_relations: int, num_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys of the in-range rows of ``triples``, ascending, keyed (a, r, b) and (b, r, a).

    Rows out of range are dropped, so that no key aliases the key of another
    row.  The triples (a, r, *) are then the keys in [key(a, r, 0),
    key(a, r, 0) + N) of the first array, one slice, and (*, r, b) those in
    [key(b, r, 0), key(b, r, 0) + N) of the second.
    """
    rows = triple_array(triples)
    rows = rows[in_range(rows, num_nodes, num_relations)]
    return tuple(_sorted_set(triple_keys(x, num_relations, num_nodes)) for x in (rows, rows[:, ::-1]))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _sorted_set(keys: np.ndarray) -> np.ndarray:
    """The distinct ``keys``, ascending: a sort and one neighbour compare."""
    keys = np.sort(keys)
    distinct = np.ones(keys.size, dtype=bool)
    distinct[1:] = keys[1:] != keys[:-1]
    return keys[distinct]


class TripleSet(frozenset):
    """A frozenset of (head, relation, tail) int tuples that keeps them as an array too.

    Built from an (E, 3) id array, which it keeps read-only as ``array``
    (a copy, unless the array is read-only and owns its data, as a graph's
    ``triples`` does), with the node and relation counts of the graph the
    ids belong to.  It is a frozenset in every other respect: it compares
    and hashes like one, and set algebra on it returns plain frozensets,
    which carry no array.
    ``sorted_keys``, the :func:`sorted_triple_keys` of ``array`` under
    those counts, is built on first use and kept; the set never changes, so
    neither do its keys.
    """

    def __new__(cls, triples, num_nodes: int, num_relations: int) -> "TripleSet":
        rows = triple_array(triples)
        if rows.flags.writeable or rows.base is not None:  # a view's base may be writable
            rows = rows.copy()
            rows.flags.writeable = False
        self = super().__new__(cls, map(tuple, rows.tolist()))
        self.array, self.num_nodes, self.num_relations = rows, num_nodes, num_relations
        return self

    def __reduce__(self):
        return TripleSet, (self.array, self.num_nodes, self.num_relations)

    @cached_property
    def sorted_keys(self) -> tuple[np.ndarray, np.ndarray]:
        return sorted_triple_keys(self.array, self.num_relations, self.num_nodes)


class GraphIndex:
    """Sorted index arrays of one graph, built with numpy sorts.

    Edges are sorted by (relation, head, tail), so within each (node,
    relation) group they follow ``graph.neighbors`` order; ``edge_rel`` and
    ``edge_group`` give each edge's relation and group, and relation r owns
    edges ``edge_start[r]:edge_start[r+1]``.

    Groups are in block order: by their node's relation count |R_i|
    descending, then by node, then by relation.  Node i's ``node_count[i]``
    groups are one contiguous block, relations ascending, and ``blocks`` is
    that layout as the relation stage's
    :func:`~brgcn.diffnum.block_attention` takes it: the nodes with |R_i| = m
    are one run of groups, and the ordered pairs (g, g') of groups at the
    same node are listed node-major, one |R_i| x |R_i| row-major block per
    node.  No per-pair index is kept.

    ``group_slot`` is each group's (node, relation) slot, ``group_node * R +
    group_rel`` with R the graph's relation count: the row of an (N*R, .)
    array that the layer reads once per group, for a_r's head half.

    The layer's scatters run on :class:`~brgcn.diffnum.Segments` built from
    these arrays on first use and kept for the graph's lifetime, so each
    index is range-checked and scheduled once per graph: ``edges_by_group``
    (edges into their groups), ``groups_by_node`` (groups into their nodes)
    and, for a dense layer, ``edges_by_tail_slot`` (edges into their tail
    slots ``tails * R + edge_rel`` of an (N*R, .) array).  Every head-side
    sum reaches its node through the group.

    A one-hot layer stores rows at the live slots only: ``live_slots``, the
    distinct tail slots, ascending, one ``np.unique`` on first use.
    ``edges_by_live_slot`` sends each edge to its slot's position there, a
    Segments over the L live slots, and ``live_nodes`` is the node of each
    entry of that layer's a, one entry per group and then one per live slot.

    Node-level attention has a choice only in a group of two or more edges;
    a lone edge's gamma is 1.  So the layer reads a_r at the E_m edges of
    those groups only, ascending, each index a Segments built and
    range-checked once: ``multi_edges`` (their positions among the edges),
    ``multi_by_group`` (their groups, renumbered 0..G_m-1 in group order,
    for the segment softmax) and each edge's head and tail read,
    ``multi_slots`` for a dense layer's N*R slot rows and ``multi_live`` for
    a one-hot layer's a.  None of these is summed over more than one column,
    so none builds a sum schedule or holds anything of size N*R.
    ``mean_weights`` (each edge's 1/|N_i^r|) and ``unit_weights`` (1.0 per
    edge) are the graph-constant edge weights, built once.

    :meth:`field` cuts the index of a node subset's edges from these arrays,
    and :func:`receptive_fields` gives one per layer: a field has every
    attribute above over its own edges and groups, its own schedules, and its
    edges' positions in the whole graph (``edges``; None in a whole-graph
    index, which is its own ``parent``).
    """

    def __init__(self, graph: HeteroGraph):
        self.num_nodes = n = graph.num_nodes
        self.num_relations = graph.num_relations
        t = graph.triples
        self.heads, self.edge_rel, self.tails = t[np.lexsort((t[:, 2], t[:, 0], t[:, 1]))].T
        first = np.flatnonzero(np.diff(self.edge_rel * n + self.heads, prepend=-1))  # the keys are sorted
        size = np.diff(first, append=self.heads.size)
        node, rel = self.heads[first], self.edge_rel[first]
        self.node_count = np.bincount(node, minlength=n)
        order = np.lexsort((rel, node, -self.node_count[node]))
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        self.edge_group = np.repeat(rank, size)
        self.group_node, self.group_rel, self.group_size = node[order], rel[order], size[order]
        self._parent, self.edges = None, None
        self._lay_out()

    def _lay_out(self) -> None:
        """The arrays derived from the sorted edges and groups: slots, relation starts and blocks."""
        self.group_slot = self.group_node * self.num_relations + self.group_rel
        self.edge_start = np.searchsorted(self.edge_rel, np.arange(self.num_relations + 1))
        starts = np.flatnonzero(np.diff(self.group_node, prepend=-1))  # each block's first group
        self.blocks = BlockLayout(self.node_count[self.group_node[starts]])

    def field(self, nodes: np.ndarray) -> "GraphIndex":
        """The index of the edges whose head is marked in ``nodes``, a boolean mask over the nodes.

        It is cut from this whole-graph index's sorted arrays by one mask, so
        nothing is re-sorted: a node's groups and block are kept whole, in
        order, or dropped, and the groups are renumbered in order.  The
        field's ``edges`` are its edges' positions here, and ``parent`` is this
        index, whose numbering it keeps for the rows a live layer stores:
        ``live_slots``, ``live_nodes`` and the entries of a that ``multi_live``
        reads.  A mask that keeps every edge gives this index itself.
        """
        if self._parent is not None:
            raise GraphError("a field is cut from a whole graph's index")
        keep = nodes[self.heads]
        if keep.all():
            return self
        sub = object.__new__(GraphIndex)
        sub.num_nodes, sub.num_relations = self.num_nodes, self.num_relations
        sub._parent, sub.edges = self, np.flatnonzero(keep)
        sub.heads, sub.edge_rel, sub.tails = (x[keep] for x in (self.heads, self.edge_rel, self.tails))
        kept = nodes[self.group_node]
        sub.edge_group = (np.cumsum(kept) - 1)[self.edge_group[keep]]
        sub.group_node, sub.group_rel, sub.group_size = (x[kept] for x in (self.group_node, self.group_rel,
                                                                           self.group_size))
        sub.node_count = np.where(nodes, self.node_count, 0)
        sub._lay_out()
        return sub

    @property
    def parent(self) -> "GraphIndex":
        """The whole graph's index: this one, or the one this field was cut from."""
        return self if self._parent is None else self._parent

    def from_parent(self, values: np.ndarray) -> np.ndarray:
        """``values``, one per edge of ``parent``, at this index's edges."""
        return values if self.edges is None else values[self.edges]

    @property
    def num_groups(self) -> int:
        return self.group_node.size

    @property
    def num_edges(self) -> int:
        return self.heads.size

    @cached_property
    def mean_weights(self) -> np.ndarray:
        """Each edge's uniform weight 1/|N_i^r| in its group, read-only: the variants' gamma without node attention."""
        return _read_only(1.0 / self.group_size[self.edge_group])

    @cached_property
    def unit_weights(self) -> np.ndarray:
        """1.0 per edge, read-only: a lone edge's weight without edge dropout."""
        return _read_only(np.ones(self.num_edges))

    @cached_property
    def edges_by_group(self) -> Segments:
        return Segments(self.edge_group, self.num_groups)

    @cached_property
    def groups_by_node(self) -> Segments:
        return Segments(self.group_node, self.num_nodes)

    @cached_property
    def edges_by_tail_slot(self) -> Segments:
        r = self.num_relations
        return Segments(self.tails * r + self.edge_rel, self.num_nodes * r)

    @cached_property
    def _live(self) -> tuple[np.ndarray, np.ndarray]:
        """The live slots and each edge's position among them; a field's are its parent's."""
        if self._parent is not None:
            slots, at = self._parent._live
            return slots, self.from_parent(at)
        return np.unique(self.tails * self.num_relations + self.edge_rel, return_inverse=True)

    @property
    def live_slots(self) -> np.ndarray:
        return self._live[0]

    @cached_property
    def edges_by_live_slot(self) -> Segments:
        return Segments(self._live[1], self.live_slots.size)

    @cached_property
    def live_nodes(self) -> np.ndarray:
        """The node of each entry of a one-hot layer's a: one entry per group, then one per live slot.

        A field's are its parent's: a live layer stores the whole graph's rows.
        """
        if self._parent is not None:
            return self._parent.live_nodes
        return np.concatenate((self.group_node, self.live_slots // self.num_relations))

    @cached_property
    def multi_edges(self) -> Segments:
        return Segments(np.flatnonzero(self.group_size[self.edge_group] > 1), self.num_edges)

    @cached_property
    def multi_by_group(self) -> Segments:
        multi = self.group_size > 1
        renumbered = np.cumsum(multi) - 1
        return Segments(renumbered[self.edge_group[self.multi_edges.ids]], int(multi.sum()))

    @cached_property
    def multi_slots(self) -> tuple[Segments, Segments]:
        """Each multi edge's head slot and tail slot, ``node * R + edge_rel``, among N*R."""
        e, r = self.multi_edges.ids, self.num_relations
        rel = self.edge_rel[e]
        return tuple(Segments(nodes[e] * r + rel, self.num_nodes * r) for nodes in (self.heads, self.tails))

    @cached_property
    def multi_live(self) -> tuple[Segments, Segments]:
        """Each multi edge's head and tail entry in a one-hot layer's a: its group, and G plus its live slot.

        Groups are numbered as in ``parent``, whose G groups a live layer stores.
        """
        e, g = self.multi_edges.ids, self.parent.num_groups
        size = g + self.live_slots.size
        return Segments(self.from_parent(self.parent.edge_group)[e], size), Segments(g + self._live[1][e], size)

    def edges_of(self, i: int, r: int) -> slice:
        """The sorted edges of node i under relation r, an empty slice when none exist."""
        lo, hi = self.edge_start[r], self.edge_start[r + 1]
        a, b = lo + np.searchsorted(self.heads[lo:hi], (i, i + 1))
        return slice(a, b)


def receptive_fields(index: GraphIndex, targets, num_layers: int) -> list[GraphIndex]:
    """One :meth:`GraphIndex.field` per layer of a ``num_layers`` stack whose output is read at ``targets``.

    Listed first layer first.  The last layer's field holds the edges whose
    head is a target, and each earlier layer's the edges whose head is a
    head or a tail of the next layer's field.  A layer's output row depends
    only on the edges whose head it is and on its input at their heads and
    tails, so a stack run over these fields gives the whole graph's rows at
    the targets, bit for bit, and rows that no later field reads.  This is
    GraphSAGE's k-hop computation graph (Hamilton et al. 2017) and DGL's
    message-flow blocks (Wang et al. 2019), with every neighbor kept.
    """
    nodes = np.zeros(index.num_nodes, dtype=bool)
    ids = np.asarray(targets, dtype=np.intp)
    if ids.size and (ids.min() < 0 or ids.max() >= index.num_nodes):
        raise BoundsError(f"target node ids out of range [0, {index.num_nodes})")
    nodes[ids] = True
    fields = []
    for _ in range(num_layers):
        fields.append(index.field(nodes))
        nodes = np.zeros_like(nodes)
        nodes[fields[-1].heads] = nodes[fields[-1].tails] = True
    return fields[::-1]


@dataclass(eq=False, repr=False)
class HeteroGraph:
    """An immutable directed labeled multigraph stored as (head, rel, tail) triples.

    ``triples`` is a read-only (E, 3) int64 array without repeated rows, in
    first-seen order; build graphs with :meth:`from_triples`.  ``index``
    (the sorted :class:`GraphIndex`) and ``triple_set`` are derived from it
    on first use and kept.
    """

    num_nodes: int
    node_names: tuple[str, ...]
    relation_names: tuple[str, ...]
    triples: np.ndarray

    @classmethod
    def from_triples(
        cls,
        triples: Iterable[Triple],
        *,
        num_nodes: int | None = None,
        node_names: Sequence[str] | None = None,
        relation_names: Sequence[str] | None = None,
    ) -> "HeteroGraph":
        """Build a graph from integer triples (an array or an iterable), deduplicating repeats.

        Duplicate triples are dropped, the first occurrence kept.  Ids must be
        dense: every referenced node id must be below ``num_nodes`` and
        relation id below the relation count.  Node names and relation names
        must each be unique.
        """
        rows = triple_array(triples)
        max_node = max(rows[:, 0].max(initial=-1), rows[:, 2].max(initial=-1))
        max_rel = rows[:, 1].max(initial=-1)
        if num_nodes is None:
            num_nodes = int(max_node) + 1
        if node_names is None:
            node_names = [f"n{i}" for i in range(num_nodes)]
        if relation_names is None:
            relation_names = [f"r{i}" for i in range(max_rel + 1)]
        if max_node >= num_nodes:
            raise BoundsError(f"triple references node {max_node} >= num_nodes {num_nodes}")
        if max_rel >= len(relation_names):
            raise BoundsError(
                f"triple references relation {max_rel} >= relation count {len(relation_names)}"
            )
        if len(node_names) != num_nodes:
            raise GraphError("node_names length must equal num_nodes")
        for kind, names in (("node", node_names), ("relation", relation_names)):
            if len(set(names)) < len(names):
                repeated = next(name for name, count in Counter(names).items() if count > 1)
                raise GraphError(f"repeated {kind} name {repeated!r}")
        negative = (rows < 0).any(axis=1)
        if negative.any():
            raise BoundsError(f"negative id in triple {tuple(rows[negative][0].tolist())}")
        _, first = np.unique(triple_keys(rows, len(relation_names), num_nodes), return_index=True)
        unique = rows[np.sort(first)]
        unique.flags.writeable = False
        return cls(num_nodes, tuple(node_names), tuple(relation_names), unique)

    @property
    def num_relations(self) -> int:
        return len(self.relation_names)

    @property
    def num_triples(self) -> int:
        return len(self.triples)

    @cached_property
    def index(self) -> GraphIndex:
        """The sorted index arrays, built on first use; the graph never changes."""
        return GraphIndex(self)

    @cached_property
    def triple_set(self) -> TripleSet:
        """The triples as a frozenset of int tuples with their ranking keys, built on first use."""
        return TripleSet(self.triples, self.num_nodes, self.num_relations)

    def check_node(self, i: int) -> None:
        if not 0 <= i < self.num_nodes:
            raise BoundsError(f"node id {i} out of range [0, {self.num_nodes})")

    def check_relation(self, r: int) -> None:
        if not 0 <= r < self.num_relations:
            raise BoundsError(f"relation id {r} out of range [0, {self.num_relations})")

    def neighbors(self, i: int, r: int) -> tuple[int, ...]:
        """Sorted tails of all triples (i, r, *); empty when none exist."""
        self.check_node(i)
        self.check_relation(r)
        return tuple(self.index.tails[self.index.edges_of(i, r)].tolist())

    @cached_property
    def _node_ids(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.node_names)}

    @cached_property
    def _relation_ids(self) -> dict[str, int]:
        return {name: r for r, name in enumerate(self.relation_names)}

    def node_id(self, name: str) -> int:
        try:
            return self._node_ids[name]
        except KeyError:
            raise GraphError(f"unknown node name {name!r}")

    def relation_id(self, name: str) -> int:
        try:
            return self._relation_ids[name]
        except KeyError:
            raise GraphError(f"unknown relation name {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, HeteroGraph):
            return NotImplemented
        return (
            self.num_nodes == other.num_nodes
            and self.node_names == other.node_names
            and self.relation_names == other.relation_names
            and np.array_equal(self.triples, other.triples)
        )

    def __repr__(self) -> str:
        return (
            f"HeteroGraph(nodes={self.num_nodes}, relations={self.num_relations}, "
            f"triples={self.num_triples})"
        )


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def read_lines(path, what: str) -> Iterator[tuple[int, str]]:
    """The 1-based number and text of each content line of a config, triple, label or split file.

    Raises ``GraphError("<what> file not found: ...")`` unless ``path`` is a
    regular file, and a ``GraphError`` naming both for a byte that is not
    UTF-8.  Endings (\\n, \\r\\n, \\r) are stripped; blank and ``#`` comment
    lines (indented or not) are skipped but still counted.
    """
    path = Path(path)
    if not path.is_file():
        raise GraphError(f"{what} file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.rstrip("\n").rstrip("\r")
                if line.strip() and not line.lstrip().startswith("#"):
                    yield lineno, line
        except UnicodeDecodeError as err:
            raise GraphError(f"{what} file is not UTF-8 ({err.reason}): {path}") from None


def _parse_tsv_line(line: str, lineno: int) -> tuple[str, str, str]:
    parts = line.split("\t")
    if len(parts) != 3:
        raise ParseError(f"expected 3 tab-separated fields, got {len(parts)}", lineno)
    h, r, t = (p.strip() for p in parts)
    if not h or not r or not t:
        raise ParseError("empty field", lineno)
    return h, r, t


# Groups: an IRI's inside, a blank node, a literal; DOTALL lets an escape take any character.
_NT_TERM = re.compile(r'\s*(?:<([^>]*)>|(_:\S*)|("[^"\\]*(?:\\.[^"\\]*)*"\S*))', re.DOTALL)
_NT_UNTERMINATED = {"<": "unterminated IRI", '"': "unterminated literal"}
_NT_NOT_IRI = ('"', "_:")  # an IRI's name may not start as a literal's or a blank node's does


def _parse_ntriples_line(line: str, lineno: int) -> tuple[str, str, str]:
    body = line.strip()
    if not body.endswith("."):
        raise ParseError("statement must end with '.'", lineno)
    body, at, names = body[:-1].rstrip(), 0, []
    for _ in range(3):
        term = _NT_TERM.match(body, at)
        if term is None:
            rest = body[at:].lstrip()
            message = f"cannot parse term starting at {rest[:20]!r}"
            raise ParseError(_NT_UNTERMINATED.get(rest[:1], message), lineno)
        names.append(term.group(term.lastindex))
        if term.lastindex == 1 and names[-1].startswith(_NT_NOT_IRI):
            raise ParseError(f"IRI <{names[-1]}> would alias a literal or blank node", lineno)
        at = term.end()
    if body[at:].strip():
        raise ParseError(f"trailing content {body[at:].strip()!r}", lineno)
    return tuple(names)


TRIPLE_FORMATS = {"tsv": _parse_tsv_line, "ntriples": _parse_ntriples_line}  # format -> line parser


def load_triples(path, format: str = "tsv") -> HeteroGraph:
    """Load a graph from a TSV or N-Triples file.

    TSV rows are ``head<TAB>relation<TAB>tail`` (UTF-8); lines starting with
    ``#`` and blank lines are skipped.  N-Triples statements are
    ``subject predicate object .``, each term an ``<IRI>`` (named without its
    brackets), a ``_:`` blank node or a quoted literal with its escapes and
    any ``^^<type>`` or ``@lang`` suffix; literal objects become ordinary nodes.
    An IRI named like a literal or blank node (``<"x">``, ``<_:b>``) is
    refused with ``ParseError``, as it would be that node.
    Ids are assigned in first-seen order.  Duplicate triples are dropped, and
    their count is logged.
    """
    if format not in TRIPLE_FORMATS:
        raise GraphError(f"unknown triple format {format!r}")
    path = Path(path)
    parse = TRIPLE_FORMATS[format]
    node_ids: dict[str, int] = {}
    rel_ids: dict[str, int] = {}
    triples: list[Triple] = []
    for lineno, line in read_lines(path, "triple"):
        h, r, t = parse(line, lineno)
        head = node_ids.setdefault(h, len(node_ids))
        rel = rel_ids.setdefault(r, len(rel_ids))
        triples.append((head, rel, node_ids.setdefault(t, len(node_ids))))

    if not triples:
        raise EmptyGraphError(f"no triples found in {path}")
    graph = HeteroGraph.from_triples(
        triples,
        num_nodes=len(node_ids),
        node_names=list(node_ids),
        relation_names=list(rel_ids),
    )
    if len(triples) > graph.num_triples:
        log.info(
            "loaded %s: %d triples (%d duplicates removed)",
            path,
            graph.num_triples,
            len(triples) - graph.num_triples,
        )
    return graph


# ---------------------------------------------------------------------------
# augmentation and restriction
# ---------------------------------------------------------------------------


def augment(
    graph: HeteroGraph, add_inverse: bool = False, add_self_loop: bool = False
) -> HeteroGraph:
    """Add inverse relations and/or per-node self loops to a loaded graph.

    ``add_inverse`` gives each relation r of the R relations an inverse,
    relation R + r named ``<name>^inv``, holding the reversed triples.
    ``add_self_loop`` then adds a last relation named ``SELF`` with triple
    (i, SELF, i) for every node.  Rows come in the order: the graph's own
    triples, the inverses of each relation in turn, then the self loops.
    Augmentation is applied once: a new relation name that the graph already
    has raises :class:`GraphError`, so augmenting an augmented graph again
    is refused.
    """
    names, parts = list(graph.relation_names), [graph.triples]
    if add_inverse:
        inverse = [name + INVERSE_SUFFIX for name in names]
        taken = [name for name in inverse if name in names]
        if taken:
            raise GraphError(f"relation name collision creating inverse {taken[0]!r}")
        h, r, t = graph.triples[np.argsort(graph.triples[:, 1], kind="stable")].T
        parts.append(np.stack((t, r + len(names), h), axis=1))
        names += inverse
    if add_self_loop:
        if SELF_RELATION_NAME in names:
            raise GraphError(f"relation name collision creating {SELF_RELATION_NAME!r}")
        nodes = np.arange(graph.num_nodes)
        parts.append(np.stack((nodes, np.full_like(nodes, len(names)), nodes), axis=1))
        names.append(SELF_RELATION_NAME)
    return HeteroGraph.from_triples(
        np.concatenate(parts),
        num_nodes=graph.num_nodes,
        node_names=graph.node_names,
        relation_names=names,
    )


def restrict_relations(graph: HeteroGraph, keep: Iterable[int]) -> HeteroGraph:
    """Drop all triples whose relation is not in ``keep``.

    The node and relation tables are preserved so ids stay stable across the
    restriction; dropped relations simply have no edges afterwards.
    """
    keep = sorted(set(keep))
    for r in keep:
        graph.check_relation(r)
    return with_triples(graph, graph.triples[np.isin(graph.triples[:, 1], keep)])


def with_triples(graph: HeteroGraph, triples: Iterable[Triple]) -> HeteroGraph:
    """A graph over the same node/relation tables, augmented ones included, but a different edge set."""
    return HeteroGraph.from_triples(
        triples,
        num_nodes=graph.num_nodes,
        node_names=graph.node_names,
        relation_names=graph.relation_names,
    )


# ---------------------------------------------------------------------------
# labels and splits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeLabels:
    """Class assignments for the labeled subset of nodes."""

    labeled_ids: tuple[int, ...]
    labels: dict[int, int]
    num_classes: int

    def restrict(self, ids: Iterable[int]) -> "NodeLabels":
        keep = set(ids)
        ids = tuple(i for i in self.labeled_ids if i in keep)
        return NodeLabels(ids, {i: self.labels[i] for i in ids}, self.num_classes)


def load_labels(path, graph: HeteroGraph) -> NodeLabels:
    """Read ``node<TAB>label`` rows; class ids are assigned in first-seen order."""
    path = Path(path)
    class_ids: dict[str, int] = {}
    labels: dict[int, int] = {}
    order: list[int] = []
    for lineno, line in read_lines(path, "label"):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(f"expected 2 tab-separated fields, got {len(parts)}", lineno)
        node = graph.node_id(parts[0].strip())
        cname = parts[1].strip()
        if cname not in class_ids:
            class_ids[cname] = len(class_ids)
        if node in labels:
            raise ParseError(f"duplicate label for node {parts[0].strip()!r}", lineno)
        labels[node] = class_ids[cname]
        order.append(node)
    if not labels:
        raise EmptyGraphError(f"no labels found in {path}")
    return NodeLabels(tuple(order), labels, len(class_ids))


@dataclass(frozen=True)
class SplitSpec:
    """Train/valid/test partition of node ids (classification) or triple indices (link prediction)."""

    train: tuple[int, ...]
    valid: tuple[int, ...] = ()
    test: tuple[int, ...] = ()

    def validate(self, universe: Iterable[int]) -> None:
        """Refuse a split whose parts overlap, repeat an item or miss part of ``universe``."""
        union = set(self.train) | set(self.valid) | set(self.test)
        if len(self.train) + len(self.valid) + len(self.test) != len(union):
            raise GraphError("split partitions overlap or repeat an item")
        if union != set(universe):
            raise GraphError("split union does not cover the full labeled/triple set")

    @staticmethod
    def random(ids: Sequence[int], fractions: tuple[float, float, float], rng) -> "SplitSpec":
        """Shuffle ``ids`` and cut into train/valid/test by the given fractions."""
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise GraphError("split fractions must sum to 1")
        if min(fractions) < 0:
            raise GraphError(f"split fractions must not be negative, got {tuple(fractions)}")
        perm = [ids[j] for j in rng.permutation(len(ids))]
        n_train = round(fractions[0] * len(ids))
        n_valid = round(fractions[1] * len(ids))
        return SplitSpec(
            tuple(perm[:n_train]),
            tuple(perm[n_train : n_train + n_valid]),
            tuple(perm[n_train + n_valid :]),
        )


def load_node_split(path, graph: HeteroGraph) -> tuple[int, ...]:
    """Read one node name per line into a tuple of node ids."""
    return tuple(graph.node_id(line.strip()) for _, line in read_lines(path, "split"))


def load_triple_split(path, graph: HeteroGraph) -> tuple[int, ...]:
    """Read one ``head<TAB>relation<TAB>tail`` per line into triple indices."""
    rows, lines = [], []
    for lineno, line in read_lines(path, "split"):
        h, r, t = _parse_tsv_line(line, lineno)
        rows.append((graph.node_id(h), graph.relation_id(r), graph.node_id(t)))
        lines.append((lineno, line))
    shape = graph.num_relations, graph.num_nodes
    known, keys = triple_keys(graph.triples, *shape), triple_keys(rows, *shape)
    order = np.argsort(known)
    at = np.searchsorted(known, keys, sorter=order)
    missing = np.flatnonzero(np.append(known[order], -1)[at] != keys)  # -1 is no key
    if missing.size:
        lineno, line = lines[missing[0]]
        raise ParseError(f"triple {line!r} not present in the graph", lineno)
    return tuple(order[at].tolist())
