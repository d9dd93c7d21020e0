"""Parsing, tree canonicalization, and stats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierkit.errors import ContractViolation, ParseError, StructureError
from hierkit.taxonomy import (
    SYNTHETIC_ROOT_ID,
    TaxonomyNode,
    build_taxonomy,
    parse_counts,
    parse_isa_edges,
    parse_names,
    stats,
    subtree_counts,
)

from gen import random_taxonomy, serialize_counts, serialize_isa_edges
from oracles import oracle_build_taxonomy


class TestParseIsaEdges:
    def test_two_edges(self):
        assert parse_isa_edges("n1 n2\nn1 n3") == [("n1", "n2"), ("n1", "n3")]

    def test_empty_input(self):
        assert parse_isa_edges("") == []

    def test_duplicates_kept_in_file_order(self):
        assert parse_isa_edges("n1 n2\nn2 n3\nn1 n2") == [
            ("n1", "n2"), ("n2", "n3"), ("n1", "n2"),
        ]

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_isa_edges("n1 n2\nn1 n2 n3")

    def test_blank_lines_and_crlf(self):
        edges = parse_isa_edges("n1 n2\r\n\r\nn2 n3\n")
        assert edges == [("n1", "n2"), ("n2", "n3")]


class TestParseCounts:
    def test_large_class(self):
        assert parse_counts("n2 3072") == {"n2": 3072}

    def test_singleton_class(self):
        assert parse_counts("n5 1") == {"n5": 1}

    def test_zero_count(self):
        assert parse_counts("n9 0") == {"n9": 0}

    def test_negative_count_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_counts("n1 -3")

    def test_non_numeric_rejected(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_counts("n1 5\nn2 five")


class TestParseNames:
    def test_tab_separated(self):
        assert parse_names("n1\tdog\nn2\tsiamese cat") == {
            "n1": "dog",
            "n2": "siamese cat",
        }

    def test_missing_tab_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_names("n1 dog")


class TestBuildTaxonomy:
    def test_plain_tree(self):
        t = build_taxonomy(
            [("R", "A"), ("R", "B")], {"A": 1, "B": 2, "R": 0}
        )
        assert t.root == "R"
        assert len(t.nodes) == 3
        assert t.total_images() == 3
        assert t.dropped_edges == []
        assert not t.synthetic_root

    def test_multi_parent_keeps_shallowest(self):
        t = build_taxonomy(
            [("R", "A"), ("R", "B"), ("B", "A")], {"A": 1, "B": 1, "R": 0}
        )
        assert t.nodes["A"].parent == "R"
        assert t.dropped_edges == [("A", "B")]
        assert set(t.nodes) == {"R", "A", "B"}

    def test_multi_parent_tie_breaks_lexicographically(self):
        # A and B both sit at depth 1; C names both as parent
        t = build_taxonomy(
            [("R", "A"), ("R", "B"), ("A", "C"), ("B", "C")],
            {"C": 1},
        )
        assert t.nodes["C"].parent == "A"
        assert t.dropped_edges == [("C", "B")]

    def test_two_cycle_rejected(self):
        with pytest.raises(StructureError, match="cycle"):
            build_taxonomy([("A", "B"), ("B", "A")], {})

    def test_self_loop_rejected(self):
        with pytest.raises(StructureError, match="cycle"):
            build_taxonomy([("A", "A")], {})

    def test_detached_cycle_rejected(self):
        with pytest.raises(StructureError, match="cycle"):
            build_taxonomy(
                [("R", "A"), ("X", "Y"), ("Y", "X")], {"A": 1}
            )

    def test_empty_edges_rejected(self):
        with pytest.raises(ContractViolation):
            build_taxonomy([], {"A": 1})

    def test_multiple_roots_get_synthetic_parent(self):
        t = build_taxonomy(
            [("R1", "A"), ("R2", "B")], {"A": 1, "B": 2}
        )
        assert t.synthetic_root
        assert t.nodes[t.root].direct_count == 0
        assert sorted(t.nodes[t.root].children) == ["R1", "R2"]
        assert t.total_images() == 3

    def test_count_only_synsets_attach_to_root(self):
        t = build_taxonomy([("R", "A")], {"A": 1, "Z": 7})
        assert t.orphans == ["Z"]
        assert t.nodes["Z"].parent == "R"
        assert t.total_images() == 8

    def test_missing_counts_default_to_zero(self):
        t = build_taxonomy([("R", "A")], {})
        assert t.nodes["R"].direct_count == 0
        assert t.nodes["A"].direct_count == 0


class TestSubtreeCount:
    def test_leaf(self):
        t = build_taxonomy([("R", "A")], {"A": 5})
        assert subtree_counts(t)["A"] == 5

    def test_parent_plus_children(self):
        t = build_taxonomy(
            [("P", "L1"), ("P", "L2")], {"P": 2, "L1": 3, "L2": 4}
        )
        assert subtree_counts(t)["P"] == 9

    def test_root_matches_independent_flat_sum(self):
        for seed in range(25):
            t = random_taxonomy(seed)
            flat = sum(n.direct_count for n in t.nodes.values())
            sums = subtree_counts(t)
            assert set(sums) == set(t.nodes)
            assert sums[t.root] == flat


class TestStats:
    def test_small_tree(self):
        t = build_taxonomy(
            [("R", "A"), ("R", "B")], {"R": 0, "A": 1, "B": 2}
        )
        report = stats(t)
        assert report.class_count == 3
        assert report.total_images == 3
        assert report.singleton_classes == 1
        assert report.max_count_class == ("B", 2)
        assert report.per_depth_class_counts == [1, 2]

    def test_histogram_partitions_classes(self):
        for seed in range(25):
            t = random_taxonomy(seed)
            report = stats(t)
            assert sum(c for _, c in report.count_histogram) == report.class_count

    def test_histogram_buckets_are_powers_of_two(self):
        t = build_taxonomy(
            [("R", "A"), ("R", "B"), ("R", "C")],
            {"R": 0, "A": 1, "B": 5, "C": 9},
        )
        report = stats(t)
        bounds = [b for b, _ in report.count_histogram]
        assert bounds == [0, 1, 2, 4, 8]
        hist = dict(report.count_histogram)
        assert hist[0] == 1   # R
        assert hist[1] == 1   # A
        assert hist[4] == 1   # B
        assert hist[8] == 1   # C

    def test_single_child_chain_count(self):
        t = build_taxonomy(
            [("R", "A"), ("A", "B"), ("R", "C")], {"B": 1}
        )
        report = stats(t)
        assert report.single_child_chain_count == 1  # only A


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self):
        for seed in range(25):
            t = random_taxonomy(seed)
            edges2 = parse_isa_edges(serialize_isa_edges(t))
            counts2 = parse_counts(serialize_counts(t))
            t2 = build_taxonomy(edges2, counts2)
            assert t2.root == t.root
            assert set(t2.nodes) == set(t.nodes)
            for node_id, node in t.nodes.items():
                other = t2.nodes[node_id]
                assert other.direct_count == node.direct_count
                assert other.parent == node.parent
                assert other.children == node.children


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=12),
            st.integers(min_value=0, max_value=12),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_build_taxonomy_output_is_tree_or_error(pairs):
    """Whatever edge soup comes in, the result is a valid single-rooted tree."""
    edges = [(f"n{a}", f"n{b}") for a, b in pairs]
    try:
        t = build_taxonomy(edges, {})
    except (StructureError, ContractViolation):
        return
    # exactly one root
    roots = [v for v, n in t.nodes.items() if n.parent is None]
    assert roots == [t.root]
    # parent/child references mutually consistent
    for node_id, node in t.nodes.items():
        for child in node.children:
            assert t.nodes[child].parent == node_id
        if node.parent is not None:
            assert node_id in t.nodes[node.parent].children
    # acyclic and fully reachable
    depths = t.depths()
    assert set(depths) == set(t.nodes)
    # canonicalization only removes edges, never nodes
    mentioned = {v for e in edges for v in e}
    assert mentioned <= set(t.nodes)


_IDS = st.sampled_from(["a", "b", "c", "d", "e", "f", SYNTHETIC_ROOT_ID])


def _outcome(build, edges, counts):
    try:
        t = build(edges, counts)
    except Exception as exc:  # the exception itself is the outcome
        return type(exc), str(exc)
    nodes = {
        node_id: (n.id, n.direct_count, n.children, n.parent)
        for node_id, n in t.nodes.items()
    }
    return (nodes, t.root, t.dropped_edges, t.orphans, t.synthetic_root,
            t.duplicate_edges)


@settings(max_examples=400, deadline=None)
@given(
    edges=st.lists(st.tuples(_IDS, _IDS), max_size=14),
    counts=st.dictionaries(
        st.one_of(_IDS, st.sampled_from(["x", "y"])),
        st.sampled_from([-1, 0, 1, 2, 7, 50]),
        max_size=6,
    ),
)
def test_build_taxonomy_matches_oracle(edges, counts):
    """Duplicate edges, several parents or roots, orphans only in counts,
    cycles and the reserved root id: the same tree, or the same error."""
    new = _outcome(build_taxonomy, edges, counts)
    old = _outcome(oracle_build_taxonomy, edges, counts)
    if sum(c < 0 for c in counts.values()) > 1 and new[0] is ContractViolation:
        # the original named whichever negative count it met first in set
        # order; only the error type is comparable
        assert old[0] is ContractViolation
        return
    assert new == old


@settings(max_examples=300, deadline=None)
@given(
    edges=st.lists(st.tuples(_IDS, _IDS), min_size=1, max_size=12,
                   unique=True),
    data=st.data(),
)
def test_repeated_edges_change_only_the_duplicate_count(edges, data):
    """Repeats of any edge, inserted anywhere, give the tree (or the error)
    the edges give alone, and ``duplicate_edges`` counts them."""
    repeated = list(edges)
    inserted = data.draw(st.integers(0, 6))
    for _ in range(inserted):
        edge = data.draw(st.sampled_from(edges))
        repeated.insert(data.draw(st.integers(0, len(repeated))), edge)
    counts = {"a": 1, "x": 2}
    plain = _outcome(build_taxonomy, edges, counts)
    with_repeats = _outcome(build_taxonomy, repeated, counts)
    if isinstance(plain[0], type):  # an error: the same one
        assert with_repeats == plain
        return
    assert plain[-1] == 0
    assert with_repeats == plain[:-1] + (inserted,)


def test_nodes_take_no_extra_attributes():
    node = TaxonomyNode("a")
    with pytest.raises(AttributeError):
        node.depth = 1
