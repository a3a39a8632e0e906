"""Directed multi-relational graphs with relation-restricted neighbor indices.

Graphs are immutable after construction.  Node and relation identifiers are
dense integers assigned in first-seen file order; the loader keeps the
original string names for label/split resolution and reporting.  Neighbor
lists hold out-neighbors only; incoming information is modeled by inverse
relations added through :func:`augment`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

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


class HeteroGraph:
    """An immutable directed labeled multigraph stored as (head, rel, tail) triples.

    ``neighbor_index[(i, r)]`` lists the sorted out-neighbors of node ``i``
    under relation ``r``; ``relation_index[i]`` lists the sorted relations
    with at least one outgoing edge at ``i``.  Both are derived from
    ``triples`` at construction and are bit-identical under rebuilds.
    """

    __slots__ = (
        "num_nodes",
        "node_names",
        "relation_names",
        "triples",
        "neighbor_index",
        "relation_index",
        "inverse_pairs",
        "self_relation",
        "duplicates_removed",
        "_triple_set",
        "_node_ids",
        "_relation_ids",
    )

    def __init__(
        self,
        num_nodes: int,
        node_names: Sequence[str],
        relation_names: Sequence[str],
        triples: Sequence[Triple],
        *,
        inverse_pairs: dict[int, int] | None = None,
        self_relation: int | None = None,
        duplicates_removed: int = 0,
    ):
        self.num_nodes = num_nodes
        self.node_names = tuple(node_names)
        self.relation_names = tuple(relation_names)
        self.triples = tuple(triples)
        self.inverse_pairs = dict(inverse_pairs or {})
        self.self_relation = self_relation
        self.duplicates_removed = duplicates_removed
        nbr: dict[tuple[int, int], list[int]] = {}
        for h, r, t in self.triples:
            nbr.setdefault((h, r), []).append(t)
        self.neighbor_index = {key: tuple(sorted(v)) for key, v in nbr.items()}
        rels: dict[int, set[int]] = {}
        for h, r, _ in self.triples:
            rels.setdefault(h, set()).add(r)
        self.relation_index = {i: tuple(sorted(v)) for i, v in rels.items()}
        self._triple_set = frozenset(self.triples)
        self._node_ids = {name: i for i, name in enumerate(self.node_names)}
        self._relation_ids = {name: r for r, name in enumerate(self.relation_names)}

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
        """Build a graph from integer triples, deduplicating repeats.

        Duplicate triples are dropped (first occurrence kept) and counted in
        ``duplicates_removed``.  Ids must be dense: every referenced node id
        must be below ``num_nodes`` and relation id below the relation count.
        """
        triples = list(triples)
        seen: set[Triple] = set()
        unique: list[Triple] = []
        for t in triples:
            if t not in seen:
                seen.add(t)
                unique.append(t)
        dupes = len(triples) - len(unique)

        max_node = max((max(h, t) for h, _, t in unique), default=-1)
        max_rel = max((r for _, r, _ in unique), default=-1)
        if num_nodes is None:
            num_nodes = max_node + 1
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
        for h, r, t in unique:
            if h < 0 or t < 0 or r < 0:
                raise BoundsError(f"negative id in triple {(h, r, t)}")
        return cls(
            num_nodes,
            node_names,
            relation_names,
            unique,
            inverse_pairs=inverse_pairs,
            self_relation=self_relation,
            duplicates_removed=dupes,
        )

    @property
    def num_relations(self) -> int:
        return len(self.relation_names)

    @property
    def num_triples(self) -> int:
        return len(self.triples)

    @property
    def triple_set(self) -> frozenset[Triple]:
        return self._triple_set

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
        return self.neighbor_index.get((i, r), ())

    def relations_of(self, i: int) -> tuple[int, ...]:
        """Sorted relation ids with at least one outgoing edge at node ``i``."""
        self.check_node(i)
        return self.relation_index.get(i, ())

    def inverse_relation(self, r: int) -> int:
        self.check_relation(r)
        if r not in self.inverse_pairs:
            raise GraphError(
                f"relation {self.relation_names[r]!r} has no inverse; run augment(add_inverse=True)"
            )
        return self.inverse_pairs[r]

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
            and self.triples == other.triples
        )

    def __hash__(self):
        return hash((self.num_nodes, self.relation_names, self.triples))

    def __repr__(self) -> str:
        return (
            f"HeteroGraph(nodes={self.num_nodes}, relations={self.num_relations}, "
            f"triples={self.num_triples})"
        )


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


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
    if not path.exists():
        raise GraphError(f"triple file not found: {path}")
    node_ids: dict[str, int] = {}
    rel_ids: dict[str, int] = {}
    triples: list[Triple] = []

    def nid(name: str) -> int:
        if name not in node_ids:
            node_ids[name] = len(node_ids)
        return node_ids[name]

    def rid(name: str) -> int:
        if name not in rel_ids:
            rel_ids[name] = len(rel_ids)
        return rel_ids[name]

    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            if format == "tsv":
                h, r, t = _parse_tsv_line(line, lineno)
            else:
                h, r, t = _parse_ntriples_line(line, lineno)
            triples.append((nid(h), rid(r), nid(t)))

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
    previous augmentation are recognized and never augmented again.
    """
    rel_names = list(graph.relation_names)
    triples = list(graph.triples)
    inverse_pairs = dict(graph.inverse_pairs)
    self_rel = graph.self_relation

    if add_inverse:
        base = [
            r
            for r in range(graph.num_relations)
            if r not in inverse_pairs and r != self_rel
        ]
        for r in base:
            inv_name = graph.relation_names[r] + INVERSE_SUFFIX
            if inv_name in rel_names:
                raise GraphError(f"relation name collision creating inverse {inv_name!r}")
            inv_id = len(rel_names)
            rel_names.append(inv_name)
            inverse_pairs[r] = inv_id
            inverse_pairs[inv_id] = r
            triples.extend((t, inv_id, h) for h, rr, t in graph.triples if rr == r)

    if add_self_loop and self_rel is None:
        if SELF_RELATION_NAME in rel_names:
            raise GraphError(f"relation name collision creating {SELF_RELATION_NAME!r}")
        self_rel = len(rel_names)
        rel_names.append(SELF_RELATION_NAME)
        triples.extend((i, self_rel, i) for i in range(graph.num_nodes))

    return HeteroGraph.from_triples(
        triples,
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
    keep_set = set(keep)
    for r in keep_set:
        graph.check_relation(r)
    return HeteroGraph.from_triples(
        [t for t in graph.triples if t[1] in keep_set],
        num_nodes=graph.num_nodes,
        node_names=graph.node_names,
        relation_names=graph.relation_names,
        inverse_pairs=graph.inverse_pairs,
        self_relation=graph.self_relation,
    )


def with_triples(graph: HeteroGraph, triples: Iterable[Triple]) -> HeteroGraph:
    """A graph over the same node/relation tables but a different edge set."""
    return HeteroGraph.from_triples(
        list(triples),
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
    if not path.exists():
        raise GraphError(f"label file not found: {path}")
    class_ids: dict[str, int] = {}
    labels: dict[int, int] = {}
    order: list[int] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
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
    path = Path(path)
    if not path.exists():
        raise GraphError(f"split file not found: {path}")
    ids = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            ids.append(graph.node_id(line))
    return tuple(ids)


def load_triple_split(path, graph: HeteroGraph) -> tuple[int, ...]:
    """Read one ``head<TAB>relation<TAB>tail`` per line into triple indices."""
    path = Path(path)
    if not path.exists():
        raise GraphError(f"split file not found: {path}")
    index = {t: k for k, t in enumerate(graph.triples)}
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            h, r, t = _parse_tsv_line(line, lineno)
            triple = (graph.node_id(h), graph.relation_id(r), graph.node_id(t))
            if triple not in index:
                raise ParseError(f"triple {line!r} not present in the graph", lineno)
            out.append(index[triple])
    return tuple(out)
