"""Synthetic graphs used across the test suite.

``planted_graph`` builds a node-classification instance whose label is
fully determined by the neighbors under relation 0 (two class-specific hub
pairs), while relations 1 and 2 connect to shared distractor nodes and
carry no class signal.  ``memorization_kg`` builds a small random KG for
link-prediction training checks.  ``relations_of`` reads a node's relation
ids off the graph's index.
"""

from __future__ import annotations

import numpy as np

from brgcn import hetgraph as hg

SIGNAL_RELATION = 0


def relations_of(graph: hg.HeteroGraph, i: int) -> tuple[int, ...]:
    """Node ``i``'s relation ids with at least one outgoing edge, ascending: its groups in ``graph.index``."""
    idx = graph.index
    first = idx.node_first[i]
    return tuple(idx.group_rel[first : first + idx.node_count[i]].tolist())


def planted_graph(
    num_labeled: int = 50,
    num_distractors: int = 6,
    seed: int = 7,
) -> tuple[hg.HeteroGraph, hg.NodeLabels]:
    """60-node, 3-relation graph where class follows relation-0 neighbors.

    Layout: ``num_labeled`` labeled nodes, then 4 hubs (two per class), then
    ``num_distractors`` shared distractor nodes.  Each labeled node points
    under relation 0 at both hubs of its class, and under relations 1 and 2
    at random distractors (identical distribution for both classes).
    """
    rng = np.random.default_rng(seed)
    hubs_a = (num_labeled, num_labeled + 1)
    hubs_b = (num_labeled + 2, num_labeled + 3)
    distractors = [num_labeled + 4 + k for k in range(num_distractors)]
    n = num_labeled + 4 + num_distractors

    triples = []
    labels = {}
    for i in range(num_labeled):
        cls = i % 2
        labels[i] = cls
        for hub in (hubs_a if cls == 0 else hubs_b):
            triples.append((i, 0, hub))
        for rel in (1, 2):
            for d in rng.choice(distractors, size=2, replace=False):
                triples.append((i, rel, int(d)))
    graph = hg.HeteroGraph.from_triples(
        triples, num_nodes=n, relation_names=["signal", "noise1", "noise2"]
    )
    node_labels = hg.NodeLabels(tuple(range(num_labeled)), labels, 2)
    return graph, node_labels


def planted_split(labels: hg.NodeLabels, seed: int = 11) -> hg.SplitSpec:
    rng = np.random.default_rng(seed)
    return hg.SplitSpec.random(list(labels.labeled_ids), (0.7, 0.0, 0.3), rng)


def memorization_kg(num_entities: int = 20, num_triples: int = 40, seed: int = 3) -> hg.HeteroGraph:
    """A random 2-relation KG; every entity appears in at least one triple."""
    rng = np.random.default_rng(seed)
    triples = set()
    # ring under relation 0 guarantees no isolated entities
    for i in range(num_entities):
        triples.add((i, 0, (i + 1) % num_entities))
    while len(triples) < num_triples:
        h = int(rng.integers(num_entities))
        t = int(rng.integers(num_entities))
        r = int(rng.integers(2))
        if h != t:
            triples.add((h, r, t))
    return hg.HeteroGraph.from_triples(
        sorted(triples), num_nodes=num_entities, relation_names=["r0", "r1"]
    )
