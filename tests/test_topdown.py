"""Breadth-first class selection and nearest-ancestor assignment."""

import ast
import os

import pytest

import hierkit

from hierkit.errors import ContractViolation, HierkitWarning
from hierkit.labelmap import write_label_map
from hierkit.taxonomy import build_taxonomy, subtree_counts
from hierkit.topdown import (
    TopDownConfig,
    assign_to_selected,
    top_down_pipeline,
    top_down_select,
)

from gen import random_taxonomy, random_topdown_params
from oracles import oracle_assign, oracle_top_down_select


def sample_tree():
    return build_taxonomy(
        [
            ("R", "A"), ("R", "B"), ("R", "C"),
            ("A", "A1"), ("A", "A2"),
            ("B", "B1"), ("B1", "B2"),
        ],
        {"A": 10, "A1": 3, "A2": 4, "B": 1, "B1": 2, "B2": 5, "C": 100},
    )


class TestSelect:
    def test_layer_one_sorted_by_inclusive_count(self):
        result = top_down_select(sample_tree(), TopDownConfig(t_t=5, budget=3))
        assert result.selected == ["C", "A", "B"]

    def test_budget_one_takes_largest(self):
        result = top_down_select(sample_tree(), TopDownConfig(t_t=5, budget=1))
        assert result.selected == ["C"]

    def test_threshold_filters_within_layer(self):
        result = top_down_select(sample_tree(), TopDownConfig(t_t=10, budget=5))
        # layer 1: C(100), A(17) pass; B(8) fails; layer 2: none reach 10
        assert result.selected == ["C", "A"]

    def test_budget_spills_into_deeper_layers(self):
        result = top_down_select(sample_tree(), TopDownConfig(t_t=3, budget=5))
        # layer 1 gives C, A, B; layer 2 sorted [B1:7, A2:4, A1:3]
        assert result.selected == ["C", "A", "B", "B1", "A2"]

    def test_root_is_never_a_candidate(self):
        result = top_down_select(sample_tree(), TopDownConfig(t_t=0, budget=100))
        assert "R" not in result.selected

    def test_returns_fewer_when_taxonomy_exhausted(self):
        result = top_down_select(
            sample_tree(), TopDownConfig(t_t=1_000, budget=4)
        )
        assert result.selected == []

    def test_every_selected_meets_threshold(self):
        for seed in range(40):
            t = random_taxonomy(seed, max_nodes=100)
            t_t, budget = random_topdown_params(seed)
            result = top_down_select(t, TopDownConfig(t_t=t_t, budget=budget))
            sums = subtree_counts(t)
            assert all(sums[s] >= t_t for s in result.selected)
            assert len(result.selected) <= budget

    def test_selection_count_is_min_of_budget_and_eligible(self):
        for seed in range(40):
            t = random_taxonomy(seed, max_nodes=100)
            t_t, budget = random_topdown_params(seed)
            result = top_down_select(t, TopDownConfig(t_t=t_t, budget=budget))
            sums = subtree_counts(t)
            eligible = sum(
                1
                for node_id in t.nodes
                if node_id != t.root and sums[node_id] >= t_t
            )
            assert len(result.selected) == min(budget, eligible)

    def test_finite_budget_is_prefix_of_unbounded_selection(self):
        for seed in range(40):
            t = random_taxonomy(seed, max_nodes=100)
            t_t, budget = random_topdown_params(seed)
            finite = top_down_select(t, TopDownConfig(t_t=t_t, budget=budget))
            unbounded = top_down_select(
                t, TopDownConfig(t_t=t_t, budget=len(t.nodes) + 1)
            )
            assert finite.selected == unbounded.selected[: len(finite.selected)]
            assert set(finite.selected) <= set(unbounded.selected)

    def test_matches_layered_oracle(self):
        for seed in range(60):
            t = random_taxonomy(seed, max_nodes=100)
            t_t, budget = random_topdown_params(seed)
            result = top_down_select(t, TopDownConfig(t_t=t_t, budget=budget))
            assert result.selected == oracle_top_down_select(t, t_t, budget)


class TestAssign:
    def test_root_alone_collects_everything(self):
        t = sample_tree()
        label_map, effective, _ = assign_to_selected(t, ["R"])
        assert len(label_map.classes) == 1
        assert label_map.classes[0].assigned_count == 125
        assert label_map.unassigned == []
        assert effective["R"] == 125

    def test_leaves_keep_their_own_images(self):
        t = build_taxonomy(
            [("R", "L1"), ("R", "L2")], {"R": 0, "L1": 4, "L2": 6}
        )
        label_map, _, _ = assign_to_selected(t, ["L1", "L2"])
        counts = {c.representative: c.assigned_count for c in label_map.classes}
        assert counts == {"L1": 4, "L2": 6}
        assert label_map.unassigned == []

    def test_nearest_selected_ancestor_wins(self):
        t = sample_tree()
        label_map, effective, warnings = assign_to_selected(
            t, ["B", "B1"], t_t=5
        )
        assert effective["B1"] == 7   # B1's own 2 plus B2's 5
        assert effective["B"] == 1
        assert warnings == ["class B: effective count 1 < t_t=5"]
        unassigned = dict(label_map.unassigned)
        assert unassigned == {"A": 10, "A1": 3, "A2": 4, "C": 100}
        assigned = sum(c.assigned_count for c in label_map.classes)
        assert assigned + label_map.total_unassigned() == 125

    def test_unknown_selected_id_rejected(self):
        with pytest.raises(ContractViolation):
            assign_to_selected(sample_tree(), ["nope"])

    def test_empty_selection_leaves_everything_unassigned(self):
        t = sample_tree()
        label_map, effective, warnings = assign_to_selected(
            t, [], t_t=5, provenance="x"
        )
        assert (label_map.classes, effective, warnings) == ([], {}, [])
        assert label_map.total_unassigned() == 125
        assert "".join(write_label_map(label_map)) == "".join(write_label_map(
            oracle_assign(t, [], "x")
        ))

    @pytest.mark.filterwarnings("ignore::hierkit.HierkitWarning")
    def test_conservation_and_disjoint_members(self):
        for seed in range(40):
            t = random_taxonomy(seed, max_nodes=100)
            t_t, budget = random_topdown_params(seed)
            label_map = top_down_pipeline(
                t, TopDownConfig(t_t=t_t, budget=budget)
            )
            assigned = sum(c.assigned_count for c in label_map.classes)
            assert assigned + label_map.total_unassigned() == t.total_images()
            seen = set()
            for cls in label_map.classes:
                assert not (seen & set(cls.members))
                seen |= set(cls.members)

    def test_matches_walk_up_oracle(self):
        for seed in range(60):
            t = random_taxonomy(seed, max_nodes=100)
            t_t, budget = random_topdown_params(seed)
            selected = top_down_select(
                t, TopDownConfig(t_t=t_t, budget=budget)
            ).selected
            label_map, _, _ = assign_to_selected(
                t, selected, provenance="x"
            )
            expected = oracle_assign(t, selected, "x")
            assert "".join(write_label_map(label_map)) == (
                "".join(write_label_map(expected)))


class TestPipeline:
    def test_provenance_records_parameters(self):
        label_map = top_down_pipeline(
            sample_tree(), TopDownConfig(t_t=5, budget=3)
        )
        assert label_map.provenance == "topdown t_t=5 budget=3"

    def test_warnings_surface_in_result(self):
        t = sample_tree()
        with pytest.warns(HierkitWarning) as record:
            top_down_pipeline(t, TopDownConfig(t_t=5, budget=5))
        # B1 gets selected at layer 2 and takes B2's images; B keeps 1 < 5,
        # and B2, selected at layer 3, leaves B1 its own 2
        assert [str(w.message) for w in record] == [
            "class B: effective count 1 < t_t=5",
            "class B1: effective count 2 < t_t=5",
        ]

    def test_config_validation(self):
        with pytest.raises(ContractViolation):
            TopDownConfig(t_t=-1, budget=1)
        with pytest.raises(ContractViolation):
            TopDownConfig(t_t=0, budget=0)


def test_only_assign_to_selected_builds_label_maps():
    """One class assignment for both routes: inside the package,
    ``labelmap.from_members`` has one caller, ``topdown.assign_to_selected``."""
    package = os.path.dirname(hierkit.__file__)
    callers = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for stmt in tree.body:
            owner = getattr(stmt, "name", "<module>")
            callers.extend(
                f"{name[:-3]}.{owner}" for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and node.id == "from_members"
                or isinstance(node, ast.Attribute)
                and node.attr == "from_members"
            )
    assert callers == ["topdown.assign_to_selected"]
