"""Roll, bind, promote, subsample, and their fixed composition."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierkit import bottomup
from hierkit.bottomup import (
    ReorgConfig,
    SubsamplePlan,
    bottom_up_pipeline,
    selected_indices,
    subsample_plan,
    read_plan,
    write_plan,
)
from hierkit.errors import ContractViolation
from hierkit.labelmap import write_label_map
from hierkit.taxonomy import Taxonomy, TaxonomyNode, build_taxonomy, subtree_counts

from gen import random_reorg_params, random_taxonomy
from oracles import (
    SimpleTree,
    oracle_bind,
    oracle_assign,
    oracle_bottom_up,
    oracle_promote,
    oracle_roll,
    oracle_selected_indices,
)


def tree_from(edges, counts):
    return build_taxonomy(edges, counts)


def sample_tree():
    """R(0) - {A(10):[A1(3),A2(4)], B(1)->B1(2)->B2(5), C(100)}."""
    return tree_from(
        [
            ("R", "A"), ("R", "B"), ("R", "C"),
            ("A", "A1"), ("A", "A2"),
            ("B", "B1"), ("B1", "B2"),
        ],
        {"A": 10, "A1": 3, "A2": 4, "B": 1, "B1": 2, "B2": 5, "C": 100},
    )


def on_copy(step, taxonomy, *args):
    """Run one in-place step on a working copy of ``taxonomy``."""
    out = bottomup._working_copy(taxonomy)
    step(out, *args)
    return out


def survivor_members(taxonomy, out):
    """The synsets of ``taxonomy`` whose nearest surviving ancestor-or-self
    is each node of ``out``."""
    assigned = oracle_assign(taxonomy, list(out.nodes), "")
    return {cls.representative: set(cls.members) for cls in assigned.classes}


class TestRoll:
    def test_single_link_chain_collapses_fully(self):
        t = tree_from(
            [
                ("snake", "mamba"), ("snake", "cobra"),
                ("mamba", "black_mamba"), ("black_mamba", "green_mamba"),
            ],
            {"mamba": 10, "black_mamba": 20, "green_mamba": 30, "cobra": 5},
        )
        rolled = on_copy(bottomup._roll, t)
        assert "black_mamba" not in rolled.nodes
        assert "green_mamba" not in rolled.nodes
        assert rolled.nodes["mamba"].direct_count == 60
        members = survivor_members(t, rolled)
        assert members["mamba"] == {"mamba", "black_mamba", "green_mamba"}

    def test_two_children_untouched(self):
        t = tree_from([("R", "A"), ("R", "B")], {"A": 1, "B": 2})
        rolled = on_copy(bottomup._roll, t)
        assert rolled == t

    def test_hand_traced_tree(self):
        rolled = on_copy(bottomup._roll, sample_tree())
        assert rolled.nodes["B"].direct_count == 8
        assert rolled.nodes["B"].children == []
        assert rolled.nodes["A"].direct_count == 10
        assert set(rolled.nodes) == {"R", "A", "A1", "A2", "B", "C"}

    def test_no_single_child_after_roll_and_idempotent(self):
        for seed in range(40):
            t = random_taxonomy(seed, max_nodes=80)
            rolled = on_copy(bottomup._roll, t)
            assert all(
                len(n.children) != 1 for n in rolled.nodes.values()
            )
            assert on_copy(bottomup._roll, rolled) == rolled

    def test_matches_single_merge_oracle(self):
        for seed in range(40):
            t = random_taxonomy(seed, max_nodes=80)
            rolled = on_copy(bottomup._roll, t)
            expected = SimpleTree(t)
            oracle_roll(expected)
            assert {v: n.direct_count for v, n in rolled.nodes.items()} == expected.count
            assert survivor_members(t, rolled) == expected.members

    def test_conserves_total(self):
        for seed in range(40):
            t = random_taxonomy(seed, max_nodes=80)
            assert on_copy(bottomup._roll, t).total_images() == t.total_images()


class TestBind:
    def test_small_subtree_folds_into_its_top(self):
        t = tree_from(
            [
                ("fish", "hammerhead"), ("fish", "tuna"),
                ("hammerhead", "smooth"), ("hammerhead", "smalleye"),
                ("hammerhead", "shovelhead"),
            ],
            {
                "hammerhead": 100, "smooth": 50, "smalleye": 40,
                "shovelhead": 30, "tuna": 5000,
            },
        )
        bound = on_copy(bottomup._bind, t, 1000)
        assert bound.nodes["hammerhead"].direct_count == 220
        assert bound.nodes["hammerhead"].children == []
        members = survivor_members(t, bound)
        assert members["hammerhead"] == {
            "hammerhead", "smooth", "smalleye", "shovelhead"
        }

    def test_threshold_zero_is_identity(self):
        t = sample_tree()
        assert on_copy(bottomup._bind, t, 0) == t

    def test_hand_traced_tree(self):
        t = tree_from(
            [("R", "A"), ("R", "B"), ("R", "C"), ("A", "A1"), ("A", "A2")],
            {"A": 10, "A1": 3, "A2": 4, "B": 8, "C": 100},
        )
        bound = on_copy(bottomup._bind, t, 20)
        assert bound.nodes["A"].direct_count == 17
        assert bound.nodes["A"].children == []
        assert bound.nodes["B"].direct_count == 8  # leaf: promote's job
        assert bound.nodes["C"].direct_count == 100

    def test_maximality_scan(self):
        for seed in range(40):
            t = random_taxonomy(seed, max_nodes=80)
            t_b, _, _ = random_reorg_params(seed)
            bound = on_copy(bottomup._bind, t, t_b)
            sums = subtree_counts(bound)
            for node in bound.nodes.values():
                if node.children:
                    assert sums[node.id] >= t_b

    def test_matches_full_rescan_oracle(self):
        for seed in range(40):
            t = random_taxonomy(seed, max_nodes=80)
            t_b, _, _ = random_reorg_params(seed)
            bound = on_copy(bottomup._bind, t, t_b)
            expected = SimpleTree(t)
            oracle_bind(expected, t_b)
            assert {v: n.direct_count for v, n in bound.nodes.items()} == expected.count
            assert survivor_members(t, bound) == expected.members


class TestPromote:
    def test_small_class_joins_parent(self):
        t = tree_from(
            [("furniture", "dining_table"), ("furniture", "chair"),
             ("dining_table", "triclinium")],
            {"dining_table": 500, "triclinium": 5, "chair": 300},
        )
        promoted = on_copy(bottomup._promote, t, 100)
        assert set(promoted.nodes) == set(t.nodes) - {"triclinium"}
        assert promoted.nodes["dining_table"].direct_count == 505
        members = survivor_members(t, promoted)
        assert members["dining_table"] == {"dining_table", "triclinium"}

    def test_identity_when_all_above_floor(self):
        t = tree_from(
            [("R", "A"), ("R", "B")], {"R": 50, "A": 40, "B": 60}
        )
        assert on_copy(bottomup._promote, t, 30) == t

    def test_every_survivor_meets_floor(self):
        for seed in range(40):
            t = random_taxonomy(seed, max_nodes=80)
            _, t_p, _ = random_reorg_params(seed)
            promoted = on_copy(bottomup._promote, t, t_p)
            for node_id, node in promoted.nodes.items():
                if node_id != promoted.root:
                    assert node.direct_count >= t_p

    def test_matches_deepest_first_oracle(self):
        for seed in range(40):
            t = random_taxonomy(seed, max_nodes=80)
            _, t_p, _ = random_reorg_params(seed)
            promoted = on_copy(bottomup._promote, t, t_p)
            expected = SimpleTree(t)
            oracle_promote(expected, t_p)
            assert {v: n.direct_count for v, n in promoted.nodes.items()} == expected.count
            assert survivor_members(t, promoted) == expected.members


class TestSubsamplePlan:
    def make_map(self, count):
        t = tree_from(
            [("R", "A"), ("R", "B")], {"A": count, "B": 55, "R": 10_000}
        )
        label_map, _ = bottom_up_pipeline(
            t, ReorgConfig(t_b=0, t_p=0, t_s=2000, seed=7)
        )
        return label_map

    def by_count(self, label_map, plan):
        assigned = {c.class_id: c.assigned_count for c in label_map.classes}
        for class_id, target in plan.targets.items():
            assert target == min(assigned[class_id], plan.t_s)
        return {assigned[c]: target for c, target in plan.targets.items()}

    def test_overfull_class_capped(self):
        label_map = self.make_map(3072)
        plan = subsample_plan(label_map, 2000, seed=7)
        assert self.by_count(label_map, plan)[3072] == 2000

    def test_small_class_kept_whole(self):
        label_map = self.make_map(100)
        plan = subsample_plan(label_map, 2000, seed=7)
        assert self.by_count(label_map, plan)[100] == 100

    def test_selection_deterministic_per_seed(self):
        first = selected_indices(7, 3, 3072, 2000)
        second = selected_indices(7, 3, 3072, 2000)
        assert first == second
        assert len(first) == 2000
        assert first == sorted(set(first))
        other_seed = selected_indices(8, 3, 3072, 2000)
        assert set(other_seed) != set(first)
        other_class = selected_indices(7, 4, 3072, 2000)
        assert set(other_class) != set(first)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        class_id=st.integers(min_value=0, max_value=2**40),
        population=st.integers(min_value=0, max_value=300),
        data=st.data(),
    )
    def test_selection_matches_oracle(self, seed, class_id, population, data):
        target = data.draw(st.integers(min_value=0, max_value=population))
        chosen = selected_indices(seed, class_id, population, target)
        assert chosen == oracle_selected_indices(
            seed, class_id, population, target
        )
        assert all(type(i) is int for i in chosen)

    def test_selection_target_over_population_rejected(self):
        with pytest.raises(ContractViolation, match="exceeds population"):
            selected_indices(7, 3, 4, 5)

    def test_plan_roundtrip(self):
        label_map = self.make_map(3072)
        plan = subsample_plan(label_map, 2000, seed=7)
        parsed = read_plan("".join(write_plan(plan)))
        assert list(parsed.targets.items()) == list(plan.targets.items())
        assert parsed.seed == plan.seed
        assert "".join(write_plan(parsed)) == "".join(write_plan(plan))

    @settings(max_examples=100, deadline=None)
    @given(
        targets=st.dictionaries(st.integers(0, 2**40), st.integers(0, 9),
                                max_size=6),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_rewritten_plan_is_byte_identical(self, targets, seed):
        """Classes in any order: reading a written plan and writing it again
        gives the same bytes."""
        text = "".join(write_plan(SubsamplePlan(targets, t_s=9, seed=seed)))
        assert "".join(write_plan(read_plan(text))) == text

    def test_invalid_threshold_rejected(self):
        label_map = self.make_map(10)
        with pytest.raises(ContractViolation):
            subsample_plan(label_map, 0, seed=1)


class TestPipeline:
    def test_single_node_taxonomy(self):
        t = Taxonomy(
            nodes={"only": TaxonomyNode(id="only", direct_count=42)},
            root="only",
        )
        label_map, plan = bottom_up_pipeline(
            t, ReorgConfig(t_b=0, t_p=0, t_s=100, seed=0)
        )
        assert len(label_map.classes) == 1
        assert label_map.classes[0].assigned_count == 42
        assert label_map.unassigned == []
        assert plan.targets == {0: 42}

    def test_sample_tree_conservation_and_root_rule(self):
        label_map, _ = bottom_up_pipeline(
            sample_tree(), ReorgConfig(t_b=20, t_p=10, t_s=2000, seed=1)
        )
        assert [c.representative for c in label_map.classes] == ["A", "C"]
        assigned = sum(c.assigned_count for c in label_map.classes)
        assert assigned == 117
        assert label_map.total_unassigned() == 8
        assert assigned + label_map.total_unassigned() == 125

    def test_conservation_on_random_taxonomies(self):
        for seed in range(60):
            t = random_taxonomy(seed)
            t_b, t_p, t_s = random_reorg_params(seed)
            label_map, _ = bottom_up_pipeline(
                t, ReorgConfig(t_b=t_b, t_p=t_p, t_s=t_s, seed=seed)
            )
            assigned = sum(c.assigned_count for c in label_map.classes)
            assert assigned + label_map.total_unassigned() == t.total_images()

    def test_member_sets_partition_synsets(self):
        for seed in range(30):
            t = random_taxonomy(seed)
            t_b, t_p, t_s = random_reorg_params(seed)
            label_map, _ = bottom_up_pipeline(
                t, ReorgConfig(t_b=t_b, t_p=t_p, t_s=t_s, seed=seed)
            )
            seen = set()
            for cls in label_map.classes:
                assert not (seen & set(cls.members))
                seen |= set(cls.members)
            unassigned_ids = {s for s, _ in label_map.unassigned}
            assert not (seen & unassigned_ids)
            contributing = {
                node_id
                for node_id, node in t.nodes.items()
                if node.direct_count > 0
            }
            assert contributing <= seen | unassigned_ids

    def test_raising_floor_never_adds_classes(self):
        for seed in range(25):
            t = random_taxonomy(seed, max_nodes=120)
            t_b, _, t_s = random_reorg_params(seed)
            sizes = []
            for t_p in (0, 3, 10, 50, 500, 15_000):
                label_map, _ = bottom_up_pipeline(
                    t, ReorgConfig(t_b=t_b, t_p=t_p, t_s=t_s, seed=seed)
                )
                sizes.append(len(label_map.classes))
            assert sizes == sorted(sizes, reverse=True)

    def test_byte_identical_reruns(self):
        t = random_taxonomy(11)
        config = ReorgConfig(t_b=100, t_p=10, t_s=50, seed=3)
        first_map, first_plan = bottom_up_pipeline(t, config)
        second_map, second_plan = bottom_up_pipeline(t, config)
        assert "".join(write_label_map(first_map)) == (
            "".join(write_label_map(second_map)))
        assert "".join(write_plan(first_plan)) == (
            "".join(write_plan(second_plan)))

    def test_matches_composed_oracle(self):
        for seed in range(30):
            t = random_taxonomy(seed, max_nodes=80)
            t_b, t_p, t_s = random_reorg_params(seed)
            config = ReorgConfig(t_b=t_b, t_p=t_p, t_s=t_s, seed=seed)
            label_map, _ = bottom_up_pipeline(t, config)
            expected = oracle_bottom_up(t, t_b, t_p, label_map.provenance)
            assert "".join(write_label_map(label_map)) == (
                "".join(write_label_map(expected)))

    def test_root_alone_below_floor_leaves_everything_unassigned(self):
        """Every synset promotes into a root that stays under t_p: no class,
        and the same map as an empty top-down selection."""
        for seed in range(20):
            t = random_taxonomy(seed, max_nodes=80)
            t_p = t.total_images() + 1
            label_map, plan = bottom_up_pipeline(
                t, ReorgConfig(t_b=0, t_p=t_p, t_s=5, seed=seed)
            )
            assert label_map.classes == [] and plan.targets == {}
            written = "".join(write_label_map(label_map))
            prov = label_map.provenance
            assert written == (
                "".join(write_label_map(oracle_bottom_up(t, 0, t_p, prov))))
            assert written == (
                "".join(write_label_map(oracle_assign(t, [], prov))))

    def test_one_working_copy_and_input_untouched(self, monkeypatch):
        """The three steps run in place on one copy of the input tree, and
        the result still equals the naive oracle."""
        copies = []
        real_copy = bottomup._working_copy

        def counting_copy(taxonomy):
            copies.append(None)
            return real_copy(taxonomy)

        for seed in range(40):
            t = random_taxonomy(seed, max_nodes=120)
            before = real_copy(t)
            t_b, t_p, t_s = random_reorg_params(seed)
            config = ReorgConfig(t_b=t_b, t_p=t_p, t_s=t_s, seed=seed)
            with monkeypatch.context() as patch:
                patch.setattr(bottomup, "_working_copy", counting_copy)
                copies.clear()
                label_map, plan = bottom_up_pipeline(t, config)
                assert len(copies) == 1
            assert t == before  # the input tree is untouched

            expected = oracle_bottom_up(t, t_b, t_p, label_map.provenance)
            assert "".join(write_label_map(label_map)) == (
                "".join(write_label_map(expected)))
            assert "".join(write_plan(plan)) == "".join(write_plan(
                subsample_plan(expected, t_s, seed)))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_conservation_property(seed):
    t = random_taxonomy(seed, max_nodes=60)
    t_b, t_p, t_s = random_reorg_params(seed)
    label_map, _ = bottom_up_pipeline(
        t, ReorgConfig(t_b=t_b, t_p=t_p, t_s=t_s, seed=seed)
    )
    assigned = sum(c.assigned_count for c in label_map.classes)
    assert assigned + label_map.total_unassigned() == t.total_images()


def test_config_validation():
    with pytest.raises(ContractViolation):
        ReorgConfig(t_b=-1, t_p=0, t_s=1)
    with pytest.raises(ContractViolation):
        ReorgConfig(t_b=0, t_p=-1, t_s=1)
    with pytest.raises(ContractViolation):
        ReorgConfig(t_b=0, t_p=0, t_s=0)
    with pytest.raises(ContractViolation):
        ReorgConfig(t_b=0, t_p=0, t_s=1, seed=2**64)
