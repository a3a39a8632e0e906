"""Directed multi-relational graphs stored as one integer triple array.

Graphs are immutable after construction.  Node and relation identifiers are
dense integers assigned in first-seen file order; the loader keeps the
original string names for label/split resolution and reporting.  Neighbor
lists hold out-neighbors only; incoming information is modeled by inverse
relations added through :func:`augment`.

A graph holds its edges once, as an (E, 3) int64 array of (head, relation,
tail) rows in first-seen order: the edge-list layout of R-GCN (Schlichtkrull
et al. 2018) and PyG (Fey & Lenssen 2019).  The sorted :class:`GraphIndex`
that the layer and the neighbor queries read is derived from it on first use
and kept.  Membership tests compare the int64 keys of :func:`triple_keys`.
"""

from __future__ import annotations

import logging
from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
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
    """``triples``, an array or any iterable of id triples, as an (E, 3) int64 array."""
    if isinstance(triples, AbstractSet):
        # A set's tuples are read once, as one run of ids, with no list of them.
        if triples and set(map(len, triples)) != {3}:
            raise GraphError("triples must be (head, relation, tail) tuples of three ids")
        ids = np.fromiter(chain.from_iterable(triples), dtype=np.int64, count=3 * len(triples))
        return ids.reshape(-1, 3)
    if not isinstance(triples, np.ndarray):
        triples = list(triples)
    return np.asarray(triples, dtype=np.int64).reshape(-1, 3)


class GraphIndex:
    """Sorted index arrays of one graph, built with numpy sorts.

    Edges are sorted by (relation, head, tail), so within each (node,
    relation) group they follow ``graph.neighbors`` order; ``edge_rel`` and
    ``edge_group`` give each edge's relation and group, and relation r owns
    edges ``edge_start[r]:edge_start[r+1]``.

    Groups are in block order: by their node's relation count |R_i|
    descending, then by node, then by relation.  Node i's groups are the
    block ``node_first[i]:node_first[i] + node_count[i]``, relations
    ascending, and ``blocks`` is that layout as the relation stage's
    :func:`~brgcn.diffnum.block_attention` takes it: the nodes with |R_i| = m
    are one run of groups, and the ordered pairs (g, g') of groups at the
    same node are listed node-major, one |R_i| x |R_i| row-major block per
    node.  No per-pair index is kept.

    The layer's scatters run on :class:`~brgcn.diffnum.Segments` built from
    these arrays on first use and kept for the graph's lifetime, so each
    index is range-checked and scheduled once per graph: ``edges_by_group``
    (edges into their groups), ``edges_by_head`` (edges into their head
    nodes), ``groups_by_node`` (groups into their nodes), and
    ``edges_by_head_slot(R)`` and ``edges_by_tail_slot(R)`` (edges into the
    (node, relation) slot rows ``heads * R + edge_rel`` or ``tails * R +
    edge_rel`` of an (N*R, .) array, one schedule per end and R).
    """

    def __init__(self, graph: HeteroGraph):
        self.num_nodes = n = graph.num_nodes
        t = graph.triples
        self.heads, self.edge_rel, self.tails = t[np.lexsort((t[:, 2], t[:, 0], t[:, 1]))].T
        _, first, edge_group, size = np.unique(
            self.edge_rel * n + self.heads,
            return_index=True,
            return_inverse=True,
            return_counts=True,
        )
        node, rel = self.heads[first], self.edge_rel[first]
        self.node_count = np.bincount(node, minlength=n)
        order = np.lexsort((rel, node, -self.node_count[node]))
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        self.edge_group = rank[edge_group]
        self.group_node, self.group_rel, self.group_size = node[order], rel[order], size[order]
        self.edge_start = np.searchsorted(self.edge_rel, np.arange(graph.num_relations + 1))

        starts = np.flatnonzero(np.diff(self.group_node, prepend=-1))  # each block's first group
        self.node_first = np.zeros(n, dtype=np.int64)
        self.node_first[self.group_node[starts]] = starts
        self.blocks = BlockLayout(self.node_count[self.group_node[starts]])
        self._slots: dict[tuple[str, int], Segments] = {}

    @property
    def num_groups(self) -> int:
        return self.group_node.size

    @cached_property
    def edges_by_group(self) -> Segments:
        return Segments(self.edge_group, self.num_groups)

    @cached_property
    def edges_by_head(self) -> Segments:
        return Segments(self.heads, self.num_nodes)

    @cached_property
    def groups_by_node(self) -> Segments:
        return Segments(self.group_node, self.num_nodes)

    def edges_by_head_slot(self, num_relations: int) -> Segments:
        """Edges into the slot rows ``heads * num_relations + edge_rel``, built once per count."""
        return self._slot_schedule("head", num_relations)

    def edges_by_tail_slot(self, num_relations: int) -> Segments:
        """Edges into the slot rows ``tails * num_relations + edge_rel``, built once per count."""
        return self._slot_schedule("tail", num_relations)

    def _slot_schedule(self, end: str, num_relations: int) -> Segments:
        key = (end, num_relations)
        if key not in self._slots:
            nodes = self.heads if end == "head" else self.tails
            self._slots[key] = Segments(nodes * num_relations + self.edge_rel, self.num_nodes * num_relations)
        return self._slots[key]

    def edges_of(self, i: int, r: int) -> slice:
        """The sorted edges of node i under relation r, an empty slice when none exist."""
        lo, hi = self.edge_start[r], self.edge_start[r + 1]
        a, b = lo + np.searchsorted(self.heads[lo:hi], (i, i + 1))
        return slice(a, b)

    def relations_of(self, i: int) -> tuple[int, ...]:
        """Node i's relation ids, ascending."""
        return tuple(self.group_rel[self.node_first[i] :][: self.node_count[i]].tolist())


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
    inverse_pairs: dict[int, int]
    self_relation: int | None
    duplicates_removed: int

    @classmethod
    def from_triples(
        cls,
        triples: Iterable[Triple],
        *,
        num_nodes: int | None = None,
        node_names: Sequence[str] | None = None,
        relation_names: Sequence[str] | None = None,
        inverse_pairs: dict[int, int] | None = None,
        self_relation: int | None = None,
    ) -> "HeteroGraph":
        """Build a graph from integer triples (an array or an iterable), deduplicating repeats.

        Duplicate triples are dropped (first occurrence kept) and counted in
        ``duplicates_removed``.  Ids must be dense: every referenced node id
        must be below ``num_nodes`` and relation id below the relation count.
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
        negative = (rows < 0).any(axis=1)
        if negative.any():
            raise BoundsError(f"negative id in triple {tuple(rows[negative][0].tolist())}")
        _, first = np.unique(triple_keys(rows, len(relation_names), num_nodes), return_index=True)
        unique = rows[np.sort(first)]
        unique.flags.writeable = False
        return cls(
            num_nodes, tuple(node_names), tuple(relation_names), unique,
            dict(inverse_pairs or {}), self_relation, len(rows) - len(first),
        )

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
    def triple_set(self) -> frozenset[Triple]:
        """The triples as a frozenset of int tuples, built on first use."""
        return frozenset(map(tuple, self.triples.tolist()))

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

    def relations_of(self, i: int) -> tuple[int, ...]:
        """Sorted relation ids with at least one outgoing edge at node ``i``."""
        self.check_node(i)
        return self.index.relations_of(i)

    def inverse_relation(self, r: int) -> int:
        self.check_relation(r)
        if r not in self.inverse_pairs:
            raise GraphError(
                f"relation {self.relation_names[r]!r} has no inverse; run augment(add_inverse=True)"
            )
        return self.inverse_pairs[r]

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


def _lines(path, what: str) -> Iterator[tuple[int, str]]:
    """The 1-based number and text of each content line of ``path``.

    Raises ``GraphError("<what> file not found: ...")`` for a missing file.
    Line endings are stripped; blank lines and ``#`` comment lines (indented
    or not) are skipped but still counted.
    """
    path = Path(path)
    if not path.exists():
        raise GraphError(f"{what} file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if line.strip() and not line.lstrip().startswith("#"):
                yield lineno, line


def _parse_tsv_line(line: str, lineno: int) -> tuple[str, str, str]:
    parts = line.split("\t")
    if len(parts) != 3:
        raise ParseError(f"expected 3 tab-separated fields, got {len(parts)}", lineno)
    h, r, t = (p.strip() for p in parts)
    if not h or not r or not t:
        raise ParseError("empty field", lineno)
    return h, r, t


def _parse_nt_term(text: str, lineno: int) -> tuple[str, str]:
    """Parse one N-Triples term; returns (name, remainder)."""
    text = text.lstrip()
    if text.startswith("<"):
        end = text.find(">")
        if end < 0:
            raise ParseError("unterminated IRI", lineno)
        return text[1:end], text[end + 1 :]
    if text.startswith("_:"):
        end = 2
        while end < len(text) and not text[end].isspace():
            end += 1
        return text[:end], text[end:]
    if text.startswith('"'):
        end = 1
        while end < len(text):
            if text[end] == "\\":
                end += 2
                continue
            if text[end] == '"':
                break
            end += 1
        if end >= len(text):
            raise ParseError("unterminated literal", lineno)
        end += 1
        # keep any datatype/language suffix as part of the node name
        while end < len(text) and not text[end].isspace():
            end += 1
        return text[:end], text[end:]
    raise ParseError(f"cannot parse term starting at {text[:20]!r}", lineno)


def _parse_ntriples_line(line: str, lineno: int) -> tuple[str, str, str]:
    body = line.strip()
    if not body.endswith("."):
        raise ParseError("statement must end with '.'", lineno)
    body = body[:-1].rstrip()
    s, rest = _parse_nt_term(body, lineno)
    p, rest = _parse_nt_term(rest, lineno)
    o, rest = _parse_nt_term(rest, lineno)
    if rest.strip():
        raise ParseError(f"trailing content {rest.strip()!r}", lineno)
    return s, p, o


def load_triples(path, format: str = "tsv") -> HeteroGraph:
    """Load a graph from a TSV or N-Triples file.

    TSV rows are ``head<TAB>relation<TAB>tail`` (UTF-8); lines starting with
    ``#`` and blank lines are skipped.  N-Triples statements are
    ``subject predicate object .``; literal objects become ordinary nodes.
    Ids are assigned in first-seen order.  Duplicate triples are dropped and
    counted on the returned graph.
    """
    if format not in ("tsv", "ntriples"):
        raise GraphError(f"unknown triple format {format!r}")
    path = Path(path)
    parse = _parse_tsv_line if format == "tsv" else _parse_ntriples_line
    node_ids: dict[str, int] = {}
    rel_ids: dict[str, int] = {}
    triples: list[Triple] = []
    for lineno, line in _lines(path, "triple"):
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
    if graph.duplicates_removed:
        log.info(
            "loaded %s: %d triples (%d duplicates removed)",
            path,
            graph.num_triples,
            graph.duplicates_removed,
        )
    return graph


# ---------------------------------------------------------------------------
# augmentation and restriction
# ---------------------------------------------------------------------------


def augment(
    graph: HeteroGraph, add_inverse: bool = False, add_self_loop: bool = False
) -> HeteroGraph:
    """Add inverse relations and/or per-node self loops; idempotent.

    ``add_inverse`` creates one new relation per base relation holding the
    reversed triples.  ``add_self_loop`` adds a distinguished relation named
    ``SELF`` with triple (i, SELF, i) for every node.  Relations created by a
    previous augmentation are recognized and never augmented again.  Rows
    come in the order: the graph's own triples, the inverses of each base
    relation in turn, then the self loops.
    """
    rel_names = list(graph.relation_names)
    parts = [graph.triples]
    inverse_pairs = dict(graph.inverse_pairs)
    self_rel = graph.self_relation

    if add_inverse:
        inverse_of = np.full(graph.num_relations, -1)
        for r in range(graph.num_relations):
            if r in inverse_pairs or r == self_rel:
                continue
            inv_name = graph.relation_names[r] + INVERSE_SUFFIX
            if inv_name in rel_names:
                raise GraphError(f"relation name collision creating inverse {inv_name!r}")
            inv_id = inverse_of[r] = len(rel_names)
            rel_names.append(inv_name)
            inverse_pairs[r], inverse_pairs[inv_id] = inv_id, r
        base = graph.triples[inverse_of[graph.triples[:, 1]] >= 0]
        h, r, t = base[np.argsort(base[:, 1], kind="stable")].T
        parts.append(np.stack((t, inverse_of[r], h), axis=1))

    if add_self_loop and self_rel is None:
        if SELF_RELATION_NAME in rel_names:
            raise GraphError(f"relation name collision creating {SELF_RELATION_NAME!r}")
        self_rel = len(rel_names)
        rel_names.append(SELF_RELATION_NAME)
        nodes = np.arange(graph.num_nodes)
        parts.append(np.stack((nodes, np.full_like(nodes, self_rel), nodes), axis=1))

    return HeteroGraph.from_triples(
        np.concatenate(parts),
        num_nodes=graph.num_nodes,
        node_names=graph.node_names,
        relation_names=rel_names,
        inverse_pairs=inverse_pairs,
        self_relation=self_rel,
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
    """A graph over the same node/relation tables but a different edge set."""
    return HeteroGraph.from_triples(
        triples,
        num_nodes=graph.num_nodes,
        node_names=graph.node_names,
        relation_names=graph.relation_names,
        inverse_pairs=graph.inverse_pairs,
        self_relation=graph.self_relation,
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
    class_names: tuple[str, ...] = ()

    def validate(self, graph: HeteroGraph) -> None:
        for i in self.labeled_ids:
            graph.check_node(i)
            if not 0 <= self.labels[i] < self.num_classes:
                raise GraphError(f"label {self.labels[i]} out of range for node {i}")

    def restrict(self, ids: Iterable[int]) -> "NodeLabels":
        keep = set(ids)
        ids = tuple(i for i in self.labeled_ids if i in keep)
        return NodeLabels(ids, {i: self.labels[i] for i in ids}, self.num_classes, self.class_names)


def load_labels(path, graph: HeteroGraph) -> NodeLabels:
    """Read ``node<TAB>label`` rows; class ids are assigned in first-seen order."""
    path = Path(path)
    class_ids: dict[str, int] = {}
    labels: dict[int, int] = {}
    order: list[int] = []
    for lineno, line in _lines(path, "label"):
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
    return NodeLabels(tuple(order), labels, len(class_ids), tuple(class_ids))


@dataclass(frozen=True)
class SplitSpec:
    """Train/valid/test partition of node ids (classification) or triple indices (link prediction)."""

    train: tuple[int, ...]
    valid: tuple[int, ...] = ()
    test: tuple[int, ...] = ()

    def validate(self, universe: Iterable[int]) -> None:
        parts = [set(self.train), set(self.valid), set(self.test)]
        total = sum(len(p) for p in parts)
        union = parts[0] | parts[1] | parts[2]
        if total != len(union):
            raise GraphError("split partitions overlap")
        if union != set(universe):
            raise GraphError("split union does not cover the full labeled/triple set")

    @staticmethod
    def random(ids: Sequence[int], fractions: tuple[float, float, float], rng) -> "SplitSpec":
        """Shuffle ``ids`` and cut into train/valid/test by the given fractions."""
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise GraphError("split fractions must sum to 1")
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
    return tuple(graph.node_id(line.strip()) for _, line in _lines(path, "split"))


def load_triple_split(path, graph: HeteroGraph) -> tuple[int, ...]:
    """Read one ``head<TAB>relation<TAB>tail`` per line into triple indices."""
    rows, lines = [], []
    for lineno, line in _lines(path, "split"):
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
