"""Ranking evaluation (average precision, mAP) and late score fusion.

Average precision is the non-interpolated variant over a ranking sorted by
descending score, with ties broken by ascending item id so results are
reproducible. Fusion averages per-channel scores after min-max normalizing
each channel to [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ContractViolation


@dataclass
class ScoredList:
    """Scores plus binary relevance labels for one event."""

    scores: list[tuple[str, float]]
    positives: set[str] = field(default_factory=set)
    event: str = ""

    def __post_init__(self) -> None:
        ids = [item_id for item_id, _ in self.scores]
        if len(ids) != len(set(ids)):
            raise ContractViolation("duplicate item ids in scored list")
        for _, score in self.scores:
            if score != score or score in (float("inf"), float("-inf")):
                raise ContractViolation("scores must be finite")

    def ranking(self) -> list[str]:
        """Item ids by descending score, ties by ascending id."""
        return [
            item_id
            for item_id, _ in sorted(
                self.scores, key=lambda kv: (-kv[1], kv[0])
            )
        ]


@dataclass
class EvalResult:
    per_event: list[tuple[str, float]]
    mean_ap: float


def average_precision(scored: ScoredList) -> float:
    """Non-interpolated AP: mean over positives of precision at their rank."""
    if not scored.positives & {i for i, _ in scored.scores}:
        raise ContractViolation("scored list has no positive item")
    hits = 0
    total = 0.0
    for rank, item_id in enumerate(scored.ranking(), start=1):
        if item_id in scored.positives:
            hits += 1
            total += hits / rank
    return total / hits


def mean_average_precision(events: list[ScoredList]) -> EvalResult:
    """Arithmetic mean of per-event APs, keeping the per-event values."""
    if not events:
        raise ContractViolation("no events to evaluate")
    per_event = [
        (scored.event or str(idx), average_precision(scored))
        for idx, scored in enumerate(events)
    ]
    mean_ap = sum(ap for _, ap in per_event) / len(per_event)
    return EvalResult(per_event=per_event, mean_ap=mean_ap)


def _min_max(values: list[float]) -> list[float]:
    lo, hi = min(values), max(values)
    if hi == lo:
        return [0.5] * len(values)
    return [(v - lo) / (hi - lo) for v in values]


def late_fuse(channels: list[ScoredList]) -> ScoredList:
    """Average per-item scores across channels over identical item sets.

    Each channel is min-max normalized to [0, 1] first, since raw decision
    values from different classifiers live on different scales. The fused
    ordering is recomputed from the averaged scores.
    """
    if not channels:
        raise ContractViolation("nothing to fuse")
    base_ids = {i for i, _ in channels[0].scores}
    for channel in channels[1:]:
        if {i for i, _ in channel.scores} != base_ids:
            raise ContractViolation("channels cover different item sets")
        if channel.positives != channels[0].positives:
            raise ContractViolation("channels disagree on item labels")

    fused: dict[str, float] = {item_id: 0.0 for item_id in base_ids}
    for channel in channels:
        ids = [i for i, _ in channel.scores]
        values = _min_max([v for _, v in channel.scores])
        for item_id, value in zip(ids, values):
            fused[item_id] += value
    n = len(channels)
    items = sorted(
        ((item_id, total / n) for item_id, total in fused.items()),
        key=lambda kv: (-kv[1], kv[0]),
    )
    return ScoredList(
        scores=items,
        positives=set(channels[0].positives),
        event=channels[0].event,
    )
