"""Graph loading, indexing, augmentation, labels, and splits."""

import numpy as np
import pytest

from brgcn import hetgraph
from brgcn.hetgraph import (
    BoundsError,
    EmptyGraphError,
    GraphError,
    HeteroGraph,
    NodeLabels,
    ParseError,
    SplitSpec,
    augment,
    load_labels,
    load_node_split,
    load_triple_split,
    load_triples,
    restrict_relations,
)
from brgcn.training import TrainConfig, train_node_classifier


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestTsvLoading:
    def test_three_line_file(self, tmp_path):
        path = _write(tmp_path, "g.tsv", "a\tr\tb\nb\tr\tc\na\ts\tc\n")
        g = load_triples(path)
        assert g.num_nodes == 3
        assert g.num_relations == 2
        assert g.num_triples == 3
        assert g.node_names == ("a", "b", "c")
        assert g.relation_names == ("r", "s")

    def test_duplicate_line_deduplicated(self, tmp_path):
        path = _write(tmp_path, "g.tsv", "a\tr\tb\nb\tr\tc\na\ts\tc\na\tr\tb\n")
        g = load_triples(path)
        assert g.num_triples == 3
        assert g.duplicates_removed == 1

    def test_two_field_line_is_parse_error(self, tmp_path):
        path = _write(tmp_path, "g.tsv", "a\tr\tb\na\tr\n")
        with pytest.raises(ParseError) as err:
            load_triples(path)
        assert err.value.line == 2

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = _write(tmp_path, "g.tsv", "# header\n\na\tr\tb\n")
        assert load_triples(path).num_triples == 1

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyGraphError):
            load_triples(_write(tmp_path, "g.tsv", "# only a comment\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(GraphError):
            load_triples(tmp_path / "absent.tsv")


class TestNTriplesLoading:
    def test_iris_and_literal(self, tmp_path):
        text = (
            "<http://x/movieA> <http://x/actor> <http://x/actor1> .\n"
            '<http://x/movieA> <http://x/length> "2 hours" .\n'
            '<http://x/movieA> <http://x/rating> "8.1"^^<http://x/decimal> .\n'
        )
        g = load_triples(_write(tmp_path, "g.nt", text), format="ntriples")
        assert g.num_triples == 3
        # literals become ordinary nodes, datatype suffix kept in the name
        assert '"2 hours"' in g.node_names
        assert any(n.startswith('"8.1"^^') for n in g.node_names)

    def test_missing_terminator(self, tmp_path):
        path = _write(tmp_path, "g.nt", "<a> <r> <b>\n")
        with pytest.raises(ParseError) as err:
            load_triples(path, format="ntriples")
        assert err.value.line == 1

    def test_unknown_format(self, tmp_path):
        with pytest.raises(GraphError):
            load_triples(_write(tmp_path, "g.x", "a\tr\tb\n"), format="xml")


class TestNeighbors:
    def test_examples(self):
        g = HeteroGraph.from_triples([(0, 0, 1), (0, 0, 2), (0, 1, 2)])
        assert g.neighbors(0, 0) == (1, 2)
        assert g.neighbors(0, 1) == (2,)
        assert g.neighbors(1, 0) == ()

    def test_bounds(self):
        g = HeteroGraph.from_triples([(0, 0, 1)])
        with pytest.raises(BoundsError):
            g.neighbors(5, 0)
        with pytest.raises(BoundsError):
            g.neighbors(0, 3)

    def test_neighbors_sorted_regardless_of_storage_order(self):
        g = HeteroGraph.from_triples([(0, 0, 2), (0, 0, 1), (0, 0, 3)])
        assert g.neighbors(0, 0) == (1, 2, 3)


class TestAugment:
    def test_single_triple_both_flags(self):
        g = HeteroGraph.from_triples([(0, 0, 1)], relation_names=["r"])
        aug = augment(g, add_inverse=True, add_self_loop=True)
        assert aug.num_relations == 3
        assert aug.num_triples == 4  # original, inverse, two self loops
        assert aug.neighbors(1, aug.inverse_relation(0)) == (0,)
        assert aug.relation_names[aug.self_relation] == "SELF"

    def test_self_loops_on_isolated_nodes(self):
        g = HeteroGraph.from_triples([], num_nodes=5, relation_names=[])
        aug = augment(g, add_self_loop=True)
        assert aug.num_triples == 5
        for i in range(5):
            assert aug.relations_of(i) == (aug.self_relation,)

    def test_idempotent(self):
        g = HeteroGraph.from_triples([(0, 0, 1), (1, 1, 2)])
        once = augment(g, add_inverse=True, add_self_loop=True)
        twice = augment(once, add_inverse=True, add_self_loop=True)
        assert once == twice

    def test_inverse_doubles_triples(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            triples = {
                (int(rng.integers(n)), int(rng.integers(3)), int(rng.integers(n)))
                for _ in range(rng.integers(1, 12))
            }
            g = HeteroGraph.from_triples(sorted(triples), num_nodes=n, relation_names=["a", "b", "c"])
            aug = augment(g, add_inverse=True)
            assert aug.num_triples == 2 * g.num_triples
            assert aug.num_triples <= 2 * g.num_triples

    def test_row_order_originals_then_inverses_by_relation_then_self_loops(self):
        triples = [(2, 1, 0), (0, 0, 1), (1, 1, 2), (2, 0, 2)]
        g = HeteroGraph.from_triples(triples, relation_names=["a", "b"])
        aug = augment(g, add_inverse=True, add_self_loop=True)
        inverses = [(1, 2, 0), (2, 2, 2), (0, 3, 2), (2, 3, 1)]  # a^inv = 2, b^inv = 3
        assert aug.triples.tolist() == [list(t) for t in triples + inverses] + [[i, 4, i] for i in range(3)]
        assert aug.inverse_pairs == {0: 2, 2: 0, 1: 3, 3: 1}

    def test_inverse_requires_augmentation(self):
        g = HeteroGraph.from_triples([(0, 0, 1)])
        with pytest.raises(GraphError):
            g.inverse_relation(0)


class TestIndexInvariants:
    def test_queries_match_brute_force_and_rebuild_is_equal(self):
        # Random graphs with repeated triples in shuffled storage order: every
        # neighbor and relation query equals the answer read off the triple
        # list, and rebuilding from ``g.triples`` gives an equal graph.
        rng = np.random.default_rng(3)
        for _ in range(30):
            n, num_rel = int(rng.integers(1, 10)), int(rng.integers(1, 5))
            triples = rng.integers(0, [n, num_rel, n], size=(int(rng.integers(0, 25)), 3))
            triples = np.concatenate([triples, triples[: len(triples) // 2]])
            triples = triples[rng.permutation(len(triples))].tolist()
            g = HeteroGraph.from_triples(triples, num_nodes=n, relation_names=list("abcd")[:num_rel])
            unique = list(dict.fromkeys(map(tuple, triples)))
            assert g.triples.tolist() == [list(t) for t in unique]
            assert g.duplicates_removed == len(triples) - len(unique)
            for i in range(n):
                for r in range(num_rel):
                    assert g.neighbors(i, r) == tuple(sorted(b for a, s, b in unique if (a, s) == (i, r)))
                assert g.relations_of(i) == tuple(sorted({s for a, s, _ in unique if a == i}))
            rebuilt = HeteroGraph.from_triples(
                g.triples, num_nodes=g.num_nodes, relation_names=g.relation_names
            )
            assert rebuilt == g
            assert rebuilt.duplicates_removed == 0

    def test_triple_array_from_any_iterable(self):
        rows = [(2, 0, 1), (0, 1, 2), (1, 0, 0)]
        want = np.array(rows, dtype=np.int64)
        for given in (rows, tuple(rows), iter(rows), (np.array(x) for x in rows), want):
            got = hetgraph.triple_array(given)
            assert got.dtype == np.int64 and np.array_equal(got, want)
        for as_set in (set(rows), frozenset(rows)):
            got = hetgraph.triple_array(as_set)
            assert got.dtype == np.int64 and sorted(map(tuple, got.tolist())) == sorted(rows)
        assert hetgraph.triple_array(set()).shape == (0, 3)

    @pytest.mark.parametrize("rows", [{(0, 1)}, {(0, 1, 2, 3)}, {(0, 1), (2, 3, 4, 5)}])
    def test_triple_array_rejects_set_tuples_of_other_lengths(self, rows):
        # The ids of a set are read as one run, so row lengths are checked first.
        with pytest.raises(GraphError):
            hetgraph.triple_array(rows)

    def test_triples_are_read_only(self):
        g = HeteroGraph.from_triples([(0, 0, 1), (1, 0, 2)])
        assert g.triples.dtype == np.int64 and g.triples.shape == (2, 3)
        with pytest.raises(ValueError):
            g.triples[0, 0] = 2

    def test_array_input_keeps_first_occurrence_order(self):
        rows = np.array([(2, 0, 1), (0, 1, 2), (2, 0, 1), (1, 0, 0), (0, 1, 2)])
        g = HeteroGraph.from_triples(rows)
        assert g.triples.tolist() == [[2, 0, 1], [0, 1, 2], [1, 0, 0]]
        assert g.duplicates_removed == 2
        assert rows.flags.writeable  # the caller's array is left alone
        assert [tuple(t) for t in g.triples] == [(2, 0, 1), (0, 1, 2), (1, 0, 0)]
        assert g.triple_set == {(2, 0, 1), (0, 1, 2), (1, 0, 0)}

    def test_relation_index_matches_nonempty_neighborhoods(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            triples = sorted(
                {
                    (int(rng.integers(n)), int(rng.integers(3)), int(rng.integers(n)))
                    for _ in range(rng.integers(1, 15))
                }
            )
            g = HeteroGraph.from_triples(triples, num_nodes=n, relation_names=list("abc"))
            for i in range(n):
                expected = tuple(
                    r for r in range(g.num_relations) if g.neighbors(i, r)
                )
                assert g.relations_of(i) == expected

    def test_out_of_range_triple_rejected(self):
        with pytest.raises(BoundsError):
            HeteroGraph.from_triples([(0, 0, 5)], num_nodes=2)


class TestRestrictRelations:
    def test_keeps_tables_drops_edges(self):
        g = HeteroGraph.from_triples([(0, 0, 1), (1, 1, 2), (2, 2, 0)], relation_names=list("abc"))
        sub = restrict_relations(g, [0, 2])
        assert sub.relation_names == g.relation_names
        assert sub.num_triples == 2
        assert sub.neighbors(1, 1) == ()


class TestLabelsAndSplits:
    def test_load_labels(self, tmp_path):
        gpath = _write(tmp_path, "g.tsv", "a\tr\tb\nb\tr\tc\n")
        g = load_triples(gpath)
        lpath = _write(tmp_path, "l.tsv", "a\tred\nb\tblue\nc\tred\n")
        labels = load_labels(lpath, g)
        labels.validate(g)
        assert labels.num_classes == 2
        assert labels.labels[g.node_id("c")] == labels.labels[g.node_id("a")]

    def test_duplicate_label_rejected(self, tmp_path):
        g = load_triples(_write(tmp_path, "g.tsv", "a\tr\tb\n"))
        with pytest.raises(ParseError):
            load_labels(_write(tmp_path, "l.tsv", "a\tx\na\ty\n"), g)

    def test_unknown_node_rejected(self, tmp_path):
        g = load_triples(_write(tmp_path, "g.tsv", "a\tr\tb\n"))
        with pytest.raises(GraphError):
            load_labels(_write(tmp_path, "l.tsv", "zzz\tx\n"), g)

    def test_restrict(self):
        labels = NodeLabels((0, 1, 2), {0: 0, 1: 1, 2: 0}, 2)
        sub = labels.restrict([1, 2])
        assert sub.labeled_ids == (1, 2)
        assert sub.num_classes == 2

    def test_restrict_accepts_a_generator(self):
        labels = NodeLabels((0, 1, 2, 3), {0: 0, 1: 1, 2: 0, 3: 1}, 2)
        sub = labels.restrict(i for i in (3, 1, 2))
        assert sub.labeled_ids == (1, 2, 3)
        assert sub.labels == {1: 1, 2: 0, 3: 1}

    def test_split_validation(self):
        SplitSpec((0, 1), (2,), (3,)).validate(range(4))
        with pytest.raises(GraphError):
            SplitSpec((0, 1), (1,), (3,)).validate(range(4))  # overlap
        with pytest.raises(GraphError):
            SplitSpec((0,), (), (1,)).validate(range(3))  # union too small

    def test_random_split(self):
        rng = np.random.default_rng(0)
        split = SplitSpec.random(list(range(10)), (0.6, 0.2, 0.2), rng)
        split.validate(range(10))
        assert len(split.train) == 6

    def test_node_and_triple_split_files(self, tmp_path):
        g = load_triples(_write(tmp_path, "g.tsv", "a\tr\tb\nb\tr\tc\na\ts\tc\n"))
        ids = load_node_split(_write(tmp_path, "n.txt", "b\na\n"), g)
        assert ids == (g.node_id("b"), g.node_id("a"))
        tidx = load_triple_split(_write(tmp_path, "t.tsv", "b\tr\tc\n"), g)
        assert tidx == (1,)
        with pytest.raises(ParseError):
            load_triple_split(_write(tmp_path, "bad.tsv", "c\tr\ta\n"), g)

    def test_triple_split_names_the_line_of_a_missing_triple(self, tmp_path):
        g = load_triples(_write(tmp_path, "g.tsv", "a\tr\tb\nb\tr\tc\na\ts\tc\n"))
        path = _write(tmp_path, "t.tsv", "a\ts\tc\n# comment\nb\tr\ta\na\tr\tb\n")
        with pytest.raises(ParseError) as err:
            load_triple_split(path, g)
        assert err.value.line == 3
        assert "'b\\tr\\ta' not present" in str(err.value)
        assert load_triple_split(_write(tmp_path, "ok.tsv", "a\ts\tc\na\tr\tb\n"), g) == (2, 0)


# Each loader, its clean lines, its missing-file text, and a line it rejects
# with a ParseError (None: a node split raises none).
LOADERS = {
    "triples": (
        lambda path, g: load_triples(path),
        ["a\tr\tb", "b\tr\tc", "a\ts\tc", "a\tr\tb"],
        "triple file not found",
        "a\tr",
    ),
    "labels": (load_labels, ["a\tred", "b\tblue", "c\tred"], "label file not found", "c"),
    "node_split": (load_node_split, ["b", "c", "a"], "split file not found", None),
    "triple_split": (load_triple_split, ["a\ts\tc", "b\tr\tc"], "split file not found", "b\tr"),
}


def _noisy(lines):
    """``lines`` among indented comments and blank lines, with CRLF endings."""
    out = ["# header", ""]
    for line in lines:
        out += ["   # indented comment", line, "\t", ""]
    return "\r\n".join(out) + "\r\n"


class TestSharedLineReader:
    @pytest.fixture
    def graph(self, tmp_path):
        return load_triples(_write(tmp_path, "g.tsv", "a\tr\tb\nb\tr\tc\na\ts\tc\n"))

    @pytest.mark.parametrize("kind", LOADERS)
    def test_noisy_file_loads_like_clean_file_and_missing_file_text(self, tmp_path, graph, kind):
        load, lines, missing_text, _ = LOADERS[kind]
        clean = load(_write(tmp_path, "clean", "\n".join(lines) + "\n"), graph)
        noisy_path = tmp_path / "noisy"
        noisy_path.write_bytes(_noisy(lines).encode("utf-8"))
        noisy = load(noisy_path, graph)
        assert noisy == clean
        if kind == "triples":
            assert noisy.duplicates_removed == clean.duplicates_removed == 1
        with pytest.raises(GraphError) as err:
            load(tmp_path / "absent", graph)
        assert str(err.value) == f"{missing_text}: {tmp_path / 'absent'}"

    @pytest.mark.parametrize("kind", [k for k, entry in LOADERS.items() if entry[3] is not None])
    def test_parse_error_names_the_line_counting_comments(self, tmp_path, graph, kind):
        load, lines, _, bad = LOADERS[kind]
        text = _noisy([*lines, bad])
        path = tmp_path / "bad"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(ParseError) as err:
            load(path, graph)
        assert err.value.line == text.split("\r\n").index(bad) + 1 == 4 * len(lines) + 4


class TestIndexBuiltOnce:
    def test_one_training_run_indexes_each_graph_once(self, monkeypatch):
        # Graphs are immutable, so the sorted index is built once per graph,
        # although this run makes 14 layer calls on its training graph.
        built = []

        class CountingIndex(hetgraph.GraphIndex):
            def __init__(self, graph):
                built.append(graph)
                super().__init__(graph)

        monkeypatch.setattr(hetgraph, "GraphIndex", CountingIndex)
        g = HeteroGraph.from_triples([(0, 0, 1), (1, 0, 2), (2, 1, 0), (3, 1, 2)])
        labels = NodeLabels((0, 1, 2, 3), {0: 0, 1: 1, 2: 0, 3: 1}, 2)
        cfg = TrainConfig(epochs=3, num_layers=2, add_self_loop=True, seed=0)
        run = train_node_classifier(g, labels, SplitSpec((0, 1), (2,), (3,)), cfg)
        assert len(built) == 1 and built[0] is run.graph
