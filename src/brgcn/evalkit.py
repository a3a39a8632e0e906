"""Task metrics (accuracy, MRR, Hits@n) and the relation-ablation harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from . import hetgraph as hg
from .layer import PSI_VARIANTS, AttentionTrace, ConfigurationError

if TYPE_CHECKING:  # training imports this module for accuracy
    from .training import TrainConfig

HITS_LEVELS = (1, 3, 10)

SCORE_BLOCK_BYTES = 32 * 2**20  # cap on one ranking block's (B, N) float64 score matrix

STRATEGIES = ("random", "top_attention", "bottom_attention")
FRACTIONS = tuple(k / 10 for k in range(1, 11))  # the default retained fractions of ablate


class EvalError(Exception):
    pass


def accuracy(predictions: np.ndarray, labels: hg.NodeLabels, split: Sequence[int]) -> float:
    """Percentage of nodes in ``split`` whose predicted class id matches the label."""
    preds = np.asarray(predictions)
    if preds.ndim != 1:
        raise EvalError(f"predictions must be one class id per node, got shape {preds.shape}")
    ids = np.fromiter(split, dtype=np.int64)
    if not ids.size:
        raise EvalError("accuracy over an empty split is undefined")
    nodes = np.fromiter(labels.labels, dtype=np.int64, count=len(labels.labels))
    unlabeled = ids[~np.isin(ids, nodes)]
    if unlabeled.size:
        raise EvalError(f"node {unlabeled[0]} in split has no label")
    classes = np.fromiter(labels.labels.values(), dtype=np.int64, count=nodes.size)
    order = np.argsort(nodes)
    hits = preds[ids] == classes[order[np.searchsorted(nodes, ids, sorter=order)]]
    return 100.0 * int(np.count_nonzero(hits)) / ids.size


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankResult:
    """Head- and tail-corruption ranks of one test triple (1-based)."""

    triple: tuple[int, int, int]
    raw_rank_head: int
    raw_rank_tail: int
    filt_rank_head: int
    filt_rank_tail: int


def rank_triples(
    score_fn: Callable[..., np.ndarray],
    triples: Sequence[tuple[int, int, int]],
    num_entities: int,
    known_positives: Iterable[tuple[int, int, int]],
) -> tuple[list[RankResult], dict[str, float]]:
    """Rank each test triple against all entity corruptions of its head and tail.

    ``score_fn(h, r, t)`` must broadcast over numpy id arrays and return
    finite float scores.  The test triples are ranked in blocks of B, with
    one call per direction per block: ``score_fn(h[:, None], r[:, None],
    ids)`` scores every entity as the tail of each block triple and
    ``score_fn(ids, r[:, None], t[:, None])`` every entity as its head, each
    a (B, num_entities) array; B keeps that array within SCORE_BLOCK_BYTES.
    Ties break pessimistically: the true triple ranks after every candidate
    with an equal score.  The filtered rank drops candidates that are known
    positives (anything in ``known_positives`` other than the target, which
    should normally be the union of train, valid and test triples).  The
    known positives are keyed by a sort on every call, except a graph's own
    ``triple_set``, which is keyed once for every call that ranks over that
    graph's entities and relations; callers that rank one graph in chunks
    should pass it.  The summary reports MRR and Hits@{1,3,10} in both
    settings, averaged over head and tail directions.
    """
    test = hg.triple_array(triples)
    n, num_rel = num_entities, int(test[:, 1].max(initial=-1)) + 1
    if not hg.in_range(test, n, num_rel).all():
        raise EvalError(f"test triples need entity ids in [0, {n}) and non-negative relation ids")
    # Known positives as sorted triple keys, once keyed (head, r, tail) and
    # once (tail, r, head): the known candidates b of a query (a, r) are the
    # keys in [key(a, r, 0), key(a, r, 0) + N), one slice.  A graph's own
    # triple set keys its triples once, under the graph's R; any other
    # known positives are keyed here, under the test triples' R.
    known = known_positives
    if isinstance(known, hg.TripleSet) and known.num_nodes == n and known.num_relations >= num_rel:
        num_rel = known.num_relations
        by_head, by_tail = known.sorted_keys
    else:
        by_head, by_tail = hg.sorted_triple_keys(known, num_rel, n)
    tail_first = hg.triple_keys(test * (1, 1, 0), num_rel, n)  # key(h, r, 0)
    head_first = hg.triple_keys(test[:, ::-1] * (1, 1, 0), num_rel, n)  # key(t, r, 0)

    def rank(scores, block: slice, side: int, keys: np.ndarray, first: np.ndarray) -> np.ndarray:
        """(B, 2) raw and filtered ranks of the column-``side`` ids of ``test[block]``."""
        target = test[block, side]
        b, rows = len(target), np.arange(len(target))
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != (b, n):
            raise EvalError(f"score_fn returned shape {scores.shape} for {b} queries x {n} candidates")
        finite = np.isfinite(scores)
        if not finite.all():
            bad = test[block][np.flatnonzero(~finite.all(axis=1))[0]]
            raise EvalError(f"score_fn returned a non-finite score for test triple {tuple(bad.tolist())}")
        ahead = scores >= scores[rows, target][:, None]
        ahead[rows, target] = False
        raw = 1 + np.count_nonzero(ahead, axis=1)
        # Row i's known candidates are keys[lo[i]:hi[i]] - first[i]; gather
        # every row's slice at once, with the row that owns each key.
        lo, hi = np.searchsorted(keys, first), np.searchsorted(keys, first + n)
        count = hi - lo
        owner = np.repeat(rows, count)
        at = np.arange(count.sum()) + np.repeat(lo - (np.cumsum(count) - count), count)
        known_ahead = owner[ahead[owner, keys[at] - first[owner]]]
        return np.stack([raw, raw - np.bincount(known_ahead, minlength=b)], axis=1)

    # Columns in RankResult order: raw head, raw tail, filtered head, filtered tail.
    table = np.empty((len(test), 4), dtype=np.int64)
    entities, step = np.arange(n), max(1, SCORE_BLOCK_BYTES // (8 * max(n, 1)))
    for start in range(0, len(test), step):
        block = slice(start, start + step)
        h, r, t = test[block].T
        tails = score_fn(h[:, None], r[:, None], entities)
        table[block, 1::2] = rank(tails, block, 2, by_head, tail_first[block])
        heads = score_fn(entities, r[:, None], t[:, None])
        table[block, 0::2] = rank(heads, block, 0, by_tail, head_first[block])
    results = [RankResult(tuple(x), *row) for x, row in zip(test.tolist(), table.tolist())]

    summary = {}
    for setting, ranks in (
        ("raw", [x for res in results for x in (res.raw_rank_head, res.raw_rank_tail)]),
        ("filtered", [x for res in results for x in (res.filt_rank_head, res.filt_rank_tail)]),
    ):
        summary[f"mrr_{setting}"] = sum(1.0 / x for x in ranks) / len(ranks) if ranks else math.nan
        for k in HITS_LEVELS:
            summary[f"hits@{k}_{setting}"] = sum(x <= k for x in ranks) / len(ranks) if ranks else math.nan
    return results, summary


# ---------------------------------------------------------------------------
# relation attention scoring and ablation
# ---------------------------------------------------------------------------


def relation_attention_scores(traces: Iterable[AttentionTrace], num_relations: int) -> np.ndarray:
    """Average incoming attention mass of relations 0..num_relations-1 across nodes and layers.

    For each node i and each r in R_i, take the mean of the column of psi_i
    belonging to r (how much every incident relation attends INTO r); r's
    score averages these node observations over all traces.  Per trace this
    is one column mean per block run of the flat psi, then one ``bincount``
    of the masses and one of the counts by ``group_rel``.  Relations never
    incident anywhere, and every relation of traces without psi, score 0.
    """
    mass, count = np.zeros(num_relations), np.zeros(num_relations)
    for trace in traces:
        if trace.flat_psi is None:
            continue
        runs = trace.index.blocks.pair_blocks(trace.flat_psi)
        col_means = [blocks.mean(axis=1).ravel() for *_, blocks in runs]  # one per group, in group order
        rel = trace.index.group_rel
        mass += np.bincount(rel, np.concatenate(col_means), minlength=num_relations)[:num_relations]
        count += np.bincount(rel, minlength=num_relations)[:num_relations]
    return np.divide(mass, count, out=np.zeros(num_relations), where=count > 0)


@dataclass(frozen=True)
class AblationSplit:
    """The relations retained by one (strategy, fraction) cell."""

    strategy: str
    fraction: float
    retained: tuple[int, ...]


def ablation_splits(
    scores: dict[int, float],
    strategies: Sequence[str],
    fractions: Sequence[float],
    rng: np.random.Generator,
) -> list[AblationSplit]:
    """Cumulative retained-relation sets: ceil(fraction * |R|) relations each.

    ``top_attention`` keeps the highest-scored relations, ``bottom_attention``
    the lowest, ``random`` a shuffled prefix; all three produce nested sets
    as the fraction grows.  Score ties break by relation id for determinism.
    """
    rel_ids = sorted(scores)
    if not rel_ids:
        raise EvalError("ablation requires at least one relation")
    orders = {}
    for strategy in strategies:
        if strategy == "top_attention":
            orders[strategy] = sorted(rel_ids, key=lambda r: (-scores[r], r))
        elif strategy == "bottom_attention":
            orders[strategy] = sorted(rel_ids, key=lambda r: (scores[r], r))
        elif strategy == "random":
            orders[strategy] = [rel_ids[k] for k in rng.permutation(len(rel_ids))]
        else:
            raise EvalError(f"unknown ablation strategy {strategy!r}")
    out = []
    for strategy in strategies:
        for fraction in fractions:
            count = math.ceil(fraction * len(rel_ids))
            if count <= 0:
                raise EvalError(f"fraction {fraction} retains zero relations")
            out.append(AblationSplit(strategy, fraction, tuple(orders[strategy][:count])))
    return out


@dataclass
class AblationSeedInfo:
    """Full-graph run diagnostics backing one seed's ablation row set."""

    train_accuracy: float
    test_accuracy: float
    relation_scores: dict[int, float]


@dataclass
class AblationReport:
    rows: list[tuple[str, float, int, float]] = field(default_factory=list)
    full_runs: dict[int, AblationSeedInfo] = field(default_factory=dict)


def ablate(
    graph: hg.HeteroGraph,
    labels: hg.NodeLabels,
    split: hg.SplitSpec,
    cfg: TrainConfig,
    *,
    strategies: Sequence[str] = STRATEGIES,
    fractions: Sequence[float] = FRACTIONS,
    seeds: Sequence[int] | None = None,
) -> AblationReport:
    """Score relations by learned attention, prune, retrain, and measure.

    Per seed: train the full-graph model, rank the base relations by
    :func:`relation_attention_scores` over its traces, then for every
    (strategy, fraction) cell rebuild the retained-relation subgraph and
    retrain from scratch with the identical config and seed, recording test
    accuracy.  Relations added by augmentation (inverses, self loops) are
    rebuilt inside each retrain and never ranked.  A variant without psi
    would score every relation 0, and a split without test nodes has no
    accuracy to record, so both are refused before anything trains.
    """
    from .training import train_node_classifier

    if cfg.variant not in PSI_VARIANTS:
        raise ConfigurationError(f"ablate ranks relations by psi; variant {cfg.variant} has none")
    if not split.test:
        raise ConfigurationError("ablate records test accuracy, but the split has no test nodes")
    seeds = list(seeds) if seeds is not None else [cfg.seed]
    report = AblationReport()
    for seed in seeds:
        seed_cfg = replace(cfg, seed=seed)
        full_run = train_node_classifier(graph, labels, split, seed_cfg)
        scores = dict(enumerate(relation_attention_scores(full_run.traces, graph.num_relations).tolist()))
        report.full_runs[seed] = AblationSeedInfo(
            train_accuracy=full_run.train_accuracy,
            test_accuracy=full_run.test_accuracy,
            relation_scores=scores,
        )
        splits = ablation_splits(
            scores, strategies, fractions, np.random.default_rng((seed, 0x5EED))
        )
        for cell in splits:
            sub = hg.restrict_relations(graph, cell.retained)
            run = train_node_classifier(sub, labels, split, seed_cfg)
            report.rows.append((cell.strategy, cell.fraction, seed, run.test_accuracy))
    return report
