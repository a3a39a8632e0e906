"""Graph loading, indexing, augmentation, labels, and splits."""

import importlib.resources
import os
import random

import numpy as np
import pytest

from brgcn import hetgraph
from brgcn.hetgraph import (
    TRIPLE_FORMATS,
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
from nt_oracle import parse_ntriples_line
from synth import relations_of


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
        assert g.triples.tolist() == [[0, 0, 1], [1, 0, 2], [0, 1, 2]]

    def test_duplicate_count_is_logged(self, tmp_path, caplog):
        path = _write(tmp_path, "g.tsv", "a\tr\tb\na\tr\tb\nb\tr\tc\na\tr\tb\n")
        with caplog.at_level("INFO", logger="brgcn.hetgraph"):
            g = load_triples(path)
        assert g.num_triples == 2
        assert caplog.messages == [f"loaded {path}: 2 triples (2 duplicates removed)"]
        caplog.clear()
        with caplog.at_level("INFO", logger="brgcn.hetgraph"):
            load_triples(_write(tmp_path, "clean.tsv", "a\tr\tb\nb\tr\tc\n"))
        assert caplog.messages == []  # nothing dropped, nothing logged

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

    @pytest.mark.parametrize(
        "line, expected",
        [
            ("<a b> <r> <c> .", ("a b", "r", "c")),
            ("_:x <r> _:y.", ("_:x", "r", "_:y")),
            ('<a> <r> "say \\"hi\\"" .', ("a", "r", '"say \\"hi\\""')),
            ('<a> <r> "back\\\\" .', ("a", "r", '"back\\\\"')),
            ('<a> <r> "8.1"^^<t> .', ("a", "r", '"8.1"^^<t>')),
            ('<a> <r> "chat"@en .', ("a", "r", '"chat"@en')),
            ("<a><r><b>.", ("a", "r", "b")),
            ("<a> <r> <b>", "statement must end with '.'"),
            ("<a> <r <b .", "unterminated IRI"),
            ('<a> <r> "open\\" .', "unterminated literal"),
            ("<a> r <b> .", "cannot parse term starting at 'r <b>'"),
            ("<a> <r> <b> <c> .", "trailing content '<c>'"),
            ('<a> <r> <"x"> .', 'IRI <"x"> would alias a literal or blank node'),
            ("<_:b> <r> <a> .", "IRI <_:b> would alias a literal or blank node"),
        ],
        ids=[
            "iri_with_space",
            "blank_node_before_dot",
            "escaped_quotes",
            "escaped_backslash_before_quote",
            "datatype",
            "language",
            "no_whitespace",
            "no_terminator",
            "unterminated_iri",
            "unterminated_literal",
            "bare_word",
            "trailing_content",
            "iri_spelled_as_a_literal",
            "iri_spelled_as_a_blank_node",
        ],
    )
    def test_statement_table(self, line, expected):
        parse = TRIPLE_FORMATS["ntriples"]
        if isinstance(expected, tuple):
            assert parse(line, 7) == expected
        else:
            with pytest.raises(ParseError) as err:
                parse(line, 7)
            assert str(err.value) == f"line 7: {expected}" and err.value.line == 7

    def test_fuzzed_lines_read_like_the_character_reader(self):
        # Seeded random statements, each read by the compiled term pattern and
        # by the character-by-character reader of tests/nt_oracle.py: IRIs with
        # and without their '>', blank nodes, literals with escaped quotes,
        # backslashes and newlines or a trailing backslash, datatype and
        # language suffixes, IRIs spelled like a literal or a blank node, and
        # stray characters, with tabs and spaces between terms and a missing,
        # bare or padded terminator.
        terms = ["<a>", "<b c>", "<>", "_:b1", "_:", '"lit"', '"a\\"b"', '"a\\\\"', '"n\\\n"']
        terms += ['"x"^^<t>', '"y"@en', '<"x">', "<_:b>"]
        stray = ["<x", ">", "_", '"tail\\', '"', "\\", "w", "@", "^^", ".", "#"]
        rng = random.Random(25)

        def outcome(parse, line):
            try:
                return parse(line, 3)
            except ParseError as err:
                return str(err), err.line

        for _ in range(50_000):
            count = rng.choice([1, 2, 3, 3, 3, 4])
            words = [rng.choice(stray if rng.random() < 0.15 else terms) for _ in range(count)]
            line = "".join(word + rng.choice(["", " ", " ", "\t", "  "]) for word in words)
            line = rng.choice(["", " "]) + line + rng.choice(["", ".", " .", ". ", "\t.\t"])
            assert outcome(TRIPLE_FORMATS["ntriples"], line) == outcome(parse_ntriples_line, line), line

    def test_toy_graph_loads_equal_from_ntriples_and_tsv(self, tmp_path):
        tsv = importlib.resources.files("brgcn.data") / "toy_nc_triples.tsv"
        rows = [line.split("\t") for line in tsv.read_text(encoding="utf-8").splitlines()]
        nt = _write(tmp_path, "toy.nt", "".join(f"<{h}> <{r}> <{t}> .\n" for h, r, t in rows))
        assert load_triples(nt, format="ntriples") == load_triples(tsv)


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
        assert aug.relation_names == ("r", "r^inv", "SELF")
        assert aug.neighbors(1, aug.relation_id("r^inv")) == (0,)

    def test_self_loops_on_isolated_nodes(self):
        g = HeteroGraph.from_triples([], num_nodes=5, relation_names=[])
        aug = augment(g, add_self_loop=True)
        assert aug.num_triples == 5
        for i in range(5):
            assert relations_of(aug, i) == (aug.relation_id("SELF"),)

    @pytest.mark.parametrize(
        "flags, clash",
        [((True, False), "inverse 'r0^inv'"), ((False, True), "'SELF'"), ((True, True), "inverse 'r0^inv'")],
        ids=["inverse", "self_loop", "both"],
    )
    def test_second_augmentation_is_refused(self, flags, clash):
        g = HeteroGraph.from_triples([(0, 0, 1), (1, 1, 2)])
        once = augment(g, *flags)
        with pytest.raises(GraphError) as err:
            augment(once, *flags)
        assert str(err.value) == f"relation name collision creating {clash}"

    def test_inverse_after_self_loops_inverts_self(self):
        g = augment(HeteroGraph.from_triples([(0, 0, 1)], relation_names=["r"]), add_self_loop=True)
        aug = augment(g, add_inverse=True)
        assert aug.relation_names == ("r", "SELF", "r^inv", "SELF^inv")
        assert aug.triples.tolist() == [[0, 0, 1], [0, 1, 0], [1, 1, 1], [1, 2, 0], [0, 3, 0], [1, 3, 1]]

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
        assert aug.relation_names == ("a", "b", "a^inv", "b^inv", "SELF")

    def test_inverse_requires_augmentation(self):
        g = HeteroGraph.from_triples([(0, 0, 1)])
        assert g.relation_names == ("r0",)
        assert augment(g, add_inverse=True).relation_names == ("r0", "r0^inv")


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
            for i in range(n):
                for r in range(num_rel):
                    assert g.neighbors(i, r) == tuple(sorted(b for a, s, b in unique if (a, s) == (i, r)))
                assert relations_of(g, i) == tuple(sorted({s for a, s, _ in unique if a == i}))
            rebuilt = HeteroGraph.from_triples(
                g.triples, num_nodes=g.num_nodes, relation_names=g.relation_names
            )
            assert rebuilt == g

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
        with pytest.raises(GraphError):
            hetgraph.triple_array(rows)

    def test_graph_refuses_rows_that_are_not_triples(self):
        with pytest.raises(GraphError, match=r"shape \(3, 2\)"):
            HeteroGraph.from_triples([(0, 1), (2, 0), (1, 2)], num_nodes=3, relation_names=["a", "b", "c"])

    @pytest.mark.parametrize(
        "rows", [np.arange(6), np.zeros((2, 3, 1)), np.zeros((0, 2)), [[0, 1, 2], [0, 1]]]
    )
    def test_triple_array_refuses_other_shapes(self, rows):
        with pytest.raises(GraphError):
            hetgraph.triple_array(rows)

    @pytest.mark.parametrize(
        "rows",
        [[(0.5, 0, 1.9), (1, 0, 0)], np.array([[0.0, 0.0, 1.0]]), np.ones((2, 3), dtype=bool)],
        ids=["float_rows", "float_array", "bool_array"],
    )
    def test_triple_ids_must_be_integers(self, rows):
        for read in (hetgraph.triple_array, lambda x: HeteroGraph.from_triples(x, num_nodes=3),
                     lambda x: hetgraph.TripleSet(x, 3, 1)):
            with pytest.raises(GraphError, match="triple ids must be integers"):
                read(rows)

    def test_triple_array_reads_one_triple_and_empty_input(self):
        assert hetgraph.triple_array((2, 0, 1)).tolist() == [[2, 0, 1]]
        for empty in ([], (), np.zeros((0, 3))):
            assert hetgraph.triple_array(empty).shape == (0, 3)

    def test_triple_set_is_a_frozenset_of_the_triples(self):
        g = HeteroGraph.from_triples([(2, 0, 1), (0, 1, 2), (1, 0, 0), (2, 0, 1)])
        plain = frozenset({(2, 0, 1), (0, 1, 2), (1, 0, 0)})
        ts = g.triple_set
        assert isinstance(ts, hetgraph.TripleSet) and isinstance(ts, frozenset)
        assert ts == plain and hash(ts) == hash(plain) and len(ts) == 3
        assert (0, 1, 2) in ts and (0, 1, 1) not in ts
        assert (ts.num_nodes, ts.num_relations) == (3, 2)
        assert np.array_equal(ts.array, g.triples) and np.shares_memory(ts.array, g.triples)
        assert hetgraph.triple_array(ts) is ts.array  # no walk over the tuples
        # Set algebra returns plain frozensets, which carry no array or keys.
        for derived in (ts | {(0, 0, 0)}, ts - {(1, 0, 0)}, ts & plain, ts ^ {(0, 0, 0)}):
            assert type(derived) is frozenset
        assert ts | {(0, 0, 0)} == plain | {(0, 0, 0)} and ts - {(1, 0, 0)} == plain - {(1, 0, 0)}

    @pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
    def test_triple_set_copies_to_an_equal_set(self, how):
        import copy
        import pickle

        g = HeteroGraph.from_triples([(2, 0, 1), (0, 1, 2), (1, 0, 0)], num_nodes=5)
        ts = g.triple_set
        ts.sorted_keys  # a built index is not what makes a copy
        twin = {"copy": copy.copy, "deepcopy": copy.deepcopy,
                "pickle": lambda x: pickle.loads(pickle.dumps(x))}[how](ts)
        assert twin == ts and hash(twin) == hash(ts) and type(twin) is hetgraph.TripleSet
        assert (twin.num_nodes, twin.num_relations) == (5, 2)
        assert np.array_equal(twin.array, g.triples) and not twin.array.flags.writeable
        for got, want in zip(twin.sorted_keys, ts.sorted_keys):
            assert np.array_equal(got, want)

    def test_triple_set_keeps_no_writable_array(self):
        rows = np.array([(0, 0, 1), (1, 0, 2)])
        ts = hetgraph.TripleSet(rows, 3, 1)
        rows[0, 0] = 2  # the caller's array is copied, not frozen
        assert rows.flags.writeable and ts == {(0, 0, 1), (1, 0, 2)}
        assert ts.array.tolist() == [[0, 0, 1], [1, 0, 2]] and not ts.array.flags.writeable
        base = np.array([(0, 0, 1), (1, 0, 2)])
        view = base.view()
        view.flags.writeable = False
        ts = hetgraph.TripleSet(view, 3, 1)
        base[0, 0] = 2  # nor is a read-only view of a writable array kept
        assert ts.array.tolist() == [[0, 0, 1], [1, 0, 2]] and ts == {(0, 0, 1), (1, 0, 2)}
        assert ts.sorted_keys[0].tolist() == sorted(hetgraph.triple_keys(ts.array, 1, 3).tolist())

    def test_triples_are_read_only(self):
        g = HeteroGraph.from_triples([(0, 0, 1), (1, 0, 2)])
        assert g.triples.dtype == np.int64 and g.triples.shape == (2, 3)
        with pytest.raises(ValueError):
            g.triples[0, 0] = 2

    def test_array_input_keeps_first_occurrence_order(self):
        rows = np.array([(2, 0, 1), (0, 1, 2), (2, 0, 1), (1, 0, 0), (0, 1, 2)])
        g = HeteroGraph.from_triples(rows)
        assert g.triples.tolist() == [[2, 0, 1], [0, 1, 2], [1, 0, 0]]
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
                assert relations_of(g, i) == expected

    @pytest.mark.parametrize(
        "names, message",
        [
            ({"relation_names": ["r", "s", "r"], "node_names": ["a", "b"]}, "repeated relation name 'r'"),
            ({"relation_names": ["r", "s", "t"], "node_names": ["b", "a", "a", "b"]}, "repeated node name 'b'"),
        ],
        ids=["relation", "node"],
    )
    def test_repeated_names_are_refused(self, names, message):
        # With a repeated name, node_id and relation_id would resolve to its
        # last position, and the first could not be named.
        with pytest.raises(GraphError) as err:
            HeteroGraph.from_triples([(0, 0, 1), (1, 1, 0)], num_nodes=len(names["node_names"]), **names)
        assert str(err.value) == message

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
        with pytest.raises(GraphError, match="repeat"):
            SplitSpec((1, 1, 2), (), (3,)).validate([1, 2, 3])  # one part repeats an item

    def test_random_split(self):
        rng = np.random.default_rng(0)
        split = SplitSpec.random(list(range(10)), (0.6, 0.2, 0.2), rng)
        split.validate(range(10))
        assert len(split.train) == 6

    @pytest.mark.parametrize("fractions", [(0.5, 0.7, -0.2), (-0.1, 0.6, 0.5), (1.2, -0.2, 0.0)])
    def test_random_split_refuses_negative_fractions(self, fractions):
        # The cuts are rounded prefixes of one permutation, so a negative
        # fraction would shrink another part: unchecked, (0.5, 0.7, -0.2) over
        # 10 ids cuts 5 train, 5 valid and 0 test ids.
        with pytest.raises(GraphError, match="must not be negative"):
            SplitSpec.random(list(range(10)), fractions, np.random.default_rng(0))

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
            assert noisy.triples.tolist() == [[0, 0, 1], [1, 0, 2], [0, 1, 2]]
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

    @pytest.mark.parametrize("kind", LOADERS)
    def test_a_byte_that_is_not_utf8_is_refused_naming_the_file(self, tmp_path, graph, kind):
        load, lines, missing_text, _ = LOADERS[kind]
        path = tmp_path / "latin1"
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8") + b"# caf\xff\n")
        with pytest.raises(GraphError) as err:
            load(path, graph)
        what = missing_text.removesuffix(" not found")
        assert str(err.value) == f"{what} is not UTF-8 (invalid start byte): {path}"

    @pytest.mark.parametrize("kind", LOADERS)
    @pytest.mark.parametrize("special", ["directory", "fifo"])
    def test_a_path_that_is_no_regular_file_is_not_found(self, tmp_path, graph, kind, special):
        load, _, missing_text, _ = LOADERS[kind]
        path = tmp_path / special
        if special == "directory":
            path.mkdir()
        elif hasattr(os, "mkfifo"):
            os.mkfifo(path)  # opening it would block until a writer came
        else:
            pytest.skip("no FIFOs on this platform")
        with pytest.raises(GraphError) as err:
            load(path, graph)
        assert str(err.value) == f"{missing_text}: {path}"


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
