"""Average precision, mAP, and late fusion."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierkit.errors import ContractViolation
from hierkit.evaluation import (
    ScoredList,
    average_precision,
    late_fuse,
    mean_average_precision,
)

from oracles import oracle_average_precision


def make_scored(scores, positives, event=""):
    return ScoredList(scores=list(scores), positives=set(positives), event=event)


class TestAveragePrecision:
    def test_perfect_ranking(self):
        scored = make_scored(
            [("a", 0.9), ("b", 0.8), ("c", 0.2), ("d", 0.1)], {"a", "b"}
        )
        assert average_precision(scored) == 1.0

    def test_single_positive_ranked_second(self):
        scored = make_scored([("a", 0.9), ("b", 0.1)], {"b"})
        assert average_precision(scored) == 0.5

    def test_ties_break_by_item_id(self):
        # equal scores: 'a' ranks first; positive 'b' lands at rank 2
        scored = make_scored([("a", 0.5), ("b", 0.5)], {"b"})
        assert average_precision(scored) == 0.5

    def test_zero_positives_rejected(self):
        with pytest.raises(ContractViolation):
            average_precision(make_scored([("a", 1.0)], set()))

    def test_exhaustive_agreement_with_rational_oracle(self):
        """All labelings x all distinct-score permutations, n <= 5."""
        for n in range(1, 6):
            ids = [chr(ord("a") + i) for i in range(n)]
            for perm in itertools.permutations(range(1, n + 1)):
                scores = list(zip(ids, map(float, perm)))
                for bits in range(1, 2**n):
                    positives = {
                        ids[i] for i in range(n) if (bits >> i) & 1
                    }
                    got = average_precision(make_scored(scores, positives))
                    want = oracle_average_precision(scores, positives)
                    assert abs(got - float(want)) < 1e-12

    def test_tied_scores_against_oracle(self):
        """Score alphabets with heavy ties, exhaustively for n <= 4."""
        alphabet = (0.0, 0.5, 1.0)
        for n in range(1, 5):
            ids = [chr(ord("a") + i) for i in range(n)]
            for values in itertools.product(alphabet, repeat=n):
                scores = list(zip(ids, values))
                for bits in range(1, 2**n):
                    positives = {
                        ids[i] for i in range(n) if (bits >> i) & 1
                    }
                    got = average_precision(make_scored(scores, positives))
                    want = oracle_average_precision(scores, positives)
                    assert abs(got - float(want)) < 1e-12

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_invariant_under_strictly_monotone_transforms(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 30)
        ids = [f"v{i}" for i in range(n)]
        scores = [(i, rng.uniform(-5, 5)) for i in ids]
        positives = {i for i in ids if rng.random() < 0.4} or {ids[0]}
        base = average_precision(make_scored(scores, positives))
        for transform in (
            lambda s: 3.0 * s + 11.0,
            math.atan,
            lambda s: s**3,
        ):
            mapped = [(i, transform(s)) for i, s in scores]
            assert average_precision(make_scored(mapped, positives)) == base


class TestMeanAveragePrecision:
    def test_single_event(self):
        scored = make_scored([("a", 1.0), ("b", 0.0)], {"a"}, event="e1")
        result = mean_average_precision([scored])
        assert result.mean_ap == 1.0
        assert result.per_event == [("e1", 1.0)]

    def test_two_events_average(self):
        # single positive at rank 5 -> AP 0.2
        eventA = make_scored(
            [("a", 0.1), ("b", 0.9), ("c", 0.8), ("d", 0.7), ("e", 0.6)], {"a"}
        )
        # positives at ranks 1,2,3,5,25 of 25 -> AP (1+1+1+0.8+0.2)/5 = 0.8
        ids = [f"i{n:02d}" for n in range(25)]
        scores = [(item, 25.0 - rank) for rank, item in enumerate(ids)]
        eventB = make_scored(scores, {ids[0], ids[1], ids[2], ids[4], ids[24]})
        assert average_precision(eventA) == 0.2
        assert average_precision(eventB) == 0.8
        result = mean_average_precision([eventA, eventB])
        assert result.mean_ap == 0.5

    def test_twenty_events_match_recomputation(self):
        rng = random.Random(13)
        events = []
        for e in range(20):
            n = rng.randint(3, 40)
            ids = [f"v{i}" for i in range(n)]
            scores = [(i, rng.random()) for i in ids]
            positives = {i for i in ids if rng.random() < 0.3} or {ids[0]}
            events.append(make_scored(scores, positives, event=f"e{e}"))
        result = mean_average_precision(events)
        independent = sum(average_precision(ev) for ev in events) / len(events)
        assert abs(result.mean_ap - independent) < 1e-12

    def test_mean_bounded_by_extremes(self):
        rng = random.Random(99)
        events = []
        for e in range(7):
            ids = [f"v{i}" for i in range(10)]
            scores = [(i, rng.random()) for i in ids]
            events.append(make_scored(scores, {ids[0], ids[3]}, event=f"e{e}"))
        result = mean_average_precision(events)
        values = [ap for _, ap in result.per_event]
        assert min(values) <= result.mean_ap <= max(values)

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            mean_average_precision([])


class TestLateFuse:
    def test_fusing_with_itself_keeps_ranking(self):
        scored = make_scored(
            [("a", 0.3), ("b", 0.9), ("c", 0.5)], {"b"}
        )
        fused = late_fuse([scored, scored])
        assert fused.ranking() == scored.ranking()

    def test_constant_channel_drops_out(self):
        informative = make_scored(
            [("a", 0.3), ("b", 0.9), ("c", 0.5)], {"b"}
        )
        constant = make_scored(
            [("a", 7.0), ("b", 7.0), ("c", 7.0)], {"b"}
        )
        fused = late_fuse([informative, constant])
        assert fused.ranking() == informative.ranking()

    def test_mismatched_item_sets_rejected(self):
        first = make_scored([("a", 0.1), ("b", 0.2)], {"a"})
        second = make_scored([("a", 0.1), ("c", 0.2)], {"a"})
        with pytest.raises(ContractViolation):
            late_fuse([first, second])

    def test_no_channels_rejected(self):
        with pytest.raises(ContractViolation, match="nothing to fuse"):
            late_fuse([])

    def test_channels_with_different_positives_rejected(self):
        first = make_scored([("a", 0.1), ("b", 0.2)], {"a"})
        second = make_scored([("a", 0.1), ("b", 0.2)], {"b"})
        with pytest.raises(ContractViolation, match="disagree on item labels"):
            late_fuse([first, second])

    def test_wide_channel_does_not_dominate(self):
        wide = make_scored([("a", 100.0), ("b", -100.0), ("c", 0.0)], {"a"})
        narrow = make_scored([("a", -1.0), ("b", 0.5), ("c", 1.0)], {"a"})
        # raw averages would rank a first; normalized ones give c .75,
        # a .5, b .375
        assert late_fuse([wide, narrow]).ranking() == ["c", "a", "b"]

    def test_complementary_channels_beat_either_alone(self):
        """Two channels, each informative on a disjoint half of the events."""
        rng = random.Random(2024)
        n_events, n_items, n_pos = 20, 100, 10

        def channel(informative_events):
            events = []
            for e in range(n_events):
                ids = [f"v{i}" for i in range(n_items)]
                positives = set(ids[:n_pos])
                scores = []
                for item in ids:
                    if e in informative_events:
                        lo, hi = (
                            (0.9, 1.0) if item in positives else (0.0, 0.1)
                        )
                        scores.append((item, rng.uniform(lo, hi)))
                    else:
                        scores.append((item, rng.uniform(0.0, 1.0)))
                events.append(make_scored(scores, positives, event=f"e{e}"))
            return events

        first = channel(set(range(10)))
        second = channel(set(range(10, 20)))
        fused = [
            late_fuse([a, b]) for a, b in zip(first, second)
        ]
        map_first = mean_average_precision(first).mean_ap
        map_second = mean_average_precision(second).mean_ap
        map_fused = mean_average_precision(fused).mean_ap
        assert map_fused >= max(map_first, map_second)

    def test_commutative_at_ranking_level(self):
        rng = random.Random(55)
        ids = [f"v{i}" for i in range(30)]
        first = make_scored([(i, rng.random()) for i in ids], {ids[0]})
        second = make_scored([(i, rng.random()) for i in ids], {ids[0]})
        assert (
            late_fuse([first, second]).ranking()
            == late_fuse([second, first]).ranking()
        )

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ContractViolation):
            make_scored([("a", 0.1), ("a", 0.2)], {"a"})

    def test_non_finite_scores_rejected(self):
        with pytest.raises(ContractViolation):
            make_scored([("a", float("nan"))], {"a"})
