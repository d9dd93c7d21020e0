"""Top-down class selection, and the class assignment both routes share.

Starting below the root, each tree layer is sorted by subtree-inclusive image
count (ties broken by synset id) and every class holding at least t_t images
is selected until the class budget is reached.

``assign_to_selected`` turns any set of selected classes into a label map,
for this route and for the bottom-up one: a synset's images go to its
nearest selected ancestor-or-self, and synsets with none are unassigned. A
selected class thus keeps descendant images unless a deeper selected class
captures them first.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractViolation
from .labelmap import LabelMap, from_members
from .taxonomy import SynsetId, Taxonomy, subtree_counts


@dataclass(frozen=True)
class TopDownConfig:
    t_t: int
    budget: int

    def __post_init__(self) -> None:
        if self.t_t < 0:
            raise ContractViolation(f"t_t must be >= 0, got {self.t_t}")
        if self.budget < 1:
            raise ContractViolation(f"budget must be >= 1, got {self.budget}")


@dataclass
class SelectionResult:
    selected: list[SynsetId]


def top_down_select(
    taxonomy: Taxonomy, config: TopDownConfig
) -> SelectionResult:
    """Pick up to ``budget`` classes layer by layer from the top.

    The root itself is never a candidate; selection starts with its
    children. Within a layer candidates are visited by descending
    subtree-inclusive count, then ascending id. Fewer than ``budget``
    classes come back when the taxonomy cannot supply them.
    """
    sums = subtree_counts(taxonomy)
    selected: list[SynsetId] = []
    layer = [taxonomy.root]
    while layer and len(selected) < config.budget:
        next_layer: list[SynsetId] = []
        for node_id in layer:
            next_layer.extend(taxonomy.nodes[node_id].children)
        next_layer.sort(key=lambda n: (-sums[n], n))
        for node_id in next_layer:
            if len(selected) >= config.budget:
                break
            if sums[node_id] >= config.t_t:
                selected.append(node_id)
        layer = next_layer
    return SelectionResult(selected=selected)


def assign_to_selected(
    taxonomy: Taxonomy,
    selected: list[SynsetId],
    t_t: int | None = None,
    provenance: str = "",
) -> tuple[LabelMap, dict[SynsetId, int], list[str]]:
    """Route every synset's direct images to its nearest selected ancestor.

    Synsets with no selected ancestor-or-self contribute to the unassigned
    pool; an empty selection leaves every image unassigned. Returns the
    label map, the per-class effective counts, and warnings for classes
    left short of t_t after assignment (reported, never repaired).
    """
    selected_set = set(selected)
    for node_id in selected:
        if node_id not in taxonomy.nodes:
            raise ContractViolation(f"unknown synset id: {node_id!r}")

    # breadth-first, so a node's parent is settled first (the root has None)
    nearest: dict[SynsetId, SynsetId | None] = {}
    for node_id in taxonomy.depths():
        nearest[node_id] = (node_id if node_id in selected_set
                            else nearest.get(taxonomy.nodes[node_id].parent))

    members: dict[SynsetId, set[SynsetId]] = {s: set() for s in selected_set}
    unassigned: list[tuple[SynsetId, int]] = []
    effective: dict[SynsetId, int] = {s: 0 for s in selected_set}
    for node_id, node in taxonomy.nodes.items():
        owner = nearest[node_id]
        if owner is None:
            if node.direct_count > 0:
                unassigned.append((node_id, node.direct_count))
        else:
            members[owner].add(node_id)
            effective[owner] += node.direct_count

    warnings = []
    if t_t is not None:
        warnings = [
            f"class {s}: effective count {effective[s]} < t_t={t_t}"
            for s in sorted(selected_set)
            if effective[s] < t_t
        ]
    label_map = from_members(members, effective, unassigned, provenance)
    return label_map, effective, warnings


def top_down_pipeline(
    taxonomy: Taxonomy, config: TopDownConfig
) -> tuple[LabelMap, list[str]]:
    """Selection, then assignment: the label map and short-class warnings."""
    selected = top_down_select(taxonomy, config).selected
    provenance = f"topdown t_t={config.t_t} budget={config.budget}"
    label_map, _, warnings = assign_to_selected(
        taxonomy, selected, t_t=config.t_t, provenance=provenance
    )
    return label_map, warnings
