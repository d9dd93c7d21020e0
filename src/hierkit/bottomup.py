"""Bottom-up hierarchy reorganization: roll, bind, promote, subsample.

The four operations run in that fixed order. Roll collapses single-child
links, bind folds whole low-image subtrees into their top node, promote moves
remaining small classes into their parents until every surviving class meets
the image floor, and subsample caps over-populated classes. The first three
transform one working copy of the tree in place; subsampling is a plan over
image indices and never touches image data.

Each merge moves a node's images into its current parent, which is always
its nearest surviving ancestor in the original tree. So the label map comes
from the one rule the top-down route uses too (``topdown.assign_to_selected``
on the original tree): a synset's images go to its nearest selected
ancestor-or-self, and synsets with none are unassigned.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolation, ParseError
from .io import _fields, _records
from .labelmap import LabelMap
from .taxonomy import Taxonomy, TaxonomyNode, subtree_counts
from .topdown import assign_to_selected

SELECTION_RULE = "shuffle-v1"


@dataclass(frozen=True)
class ReorgConfig:
    t_b: int
    t_p: int
    t_s: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.t_b < 0:
            raise ContractViolation(f"t_b must be >= 0, got {self.t_b}")
        if self.t_p < 0:
            raise ContractViolation(f"t_p must be >= 0, got {self.t_p}")
        if self.t_s < 1:
            raise ContractViolation(f"t_s must be >= 1, got {self.t_s}")
        if not 0 <= self.seed < 2**64:
            raise ContractViolation("seed must fit in 64 unsigned bits")


@dataclass
class SubsamplePlan:
    """``targets`` maps each class id to the number of its images kept, in
    the order the plan lists the classes: class order from
    ``subsample_plan``, file order from ``read_plan``."""

    targets: dict[int, int]
    t_s: int
    seed: int


def _working_copy(taxonomy: Taxonomy) -> Taxonomy:
    nodes = {
        node_id: TaxonomyNode(
            node_id, node.direct_count, list(node.children), node.parent
        )
        for node_id, node in taxonomy.nodes.items()
    }
    return replace(taxonomy, nodes=nodes)


def _roll(out: Taxonomy) -> None:
    """Merge every sole child into its parent, iterated to fixpoint, in place.

    A parent with exactly one child absorbs that child's images; the child's
    children are re-parented to it. Absorption can leave the parent with a
    single child again (a chain), so each node is drained until it has zero
    or at least two children. The result has no single-child node.
    """
    nodes = out.nodes
    for node_id in sorted(nodes):
        if node_id not in nodes:
            continue
        parent = nodes[node_id]
        while len(parent.children) == 1:
            child = nodes[parent.children[0]]
            parent.direct_count += child.direct_count
            parent.children = list(child.children)
            for grandchild in child.children:
                nodes[grandchild].parent = parent.id
            del nodes[child.id]


def _bind(out: Taxonomy, t_b: int) -> None:
    """Collapse every maximal subtree whose total image count is below t_b,
    in place.

    A non-leaf node heads a collapse when its subtree-inclusive count is
    under the threshold while its parent's is not (or it is the root); the
    entire subtree folds into that node. Leaves below the threshold are left
    alone: lifting those is promote's job.
    """
    nodes = out.nodes
    sums = subtree_counts(out)
    heads = [
        node_id
        for node_id in sorted(nodes)
        if nodes[node_id].children
        and sums[node_id] < t_b
        and (
            nodes[node_id].parent is None
            or sums[nodes[node_id].parent] >= t_b
        )
    ]
    for head_id in heads:
        head = nodes[head_id]
        stack = list(head.children)
        while stack:
            node = nodes.pop(stack.pop())
            head.direct_count += node.direct_count
            stack.extend(node.children)
        head.children = []


def _promote(out: Taxonomy, t_p: int) -> None:
    """Move every class under the image floor into its parent, deepest
    first, in place.

    Children are settled before their ancestors, so a parent that grows past
    the floor while absorbing promoted children keeps its images, and one
    that stays small passes everything further up. After the pass every
    surviving non-root node holds at least t_p images; the root may stay
    below the floor and is dealt with when the label map is built. Order
    within a depth is free: a promotion changes only the parent above.
    """
    nodes = out.nodes
    for node_id in reversed(out.depths()):
        node = nodes[node_id]
        if node_id == out.root or node.direct_count >= t_p:
            continue
        parent = nodes[node.parent]
        parent.direct_count += node.direct_count
        parent.children.remove(node_id)
        parent.children.extend(node.children)
        parent.children.sort()
        for child in node.children:
            nodes[child].parent = parent.id
        del nodes[node_id]


def selected_indices(
    seed: int, class_id: int, population: int, target: int
) -> list[int]:
    """Deterministic choice of ``target`` image indices out of ``population``.

    The rule (``shuffle-v1``) is a full pseudo-random permutation seeded by
    (seed, class_id); the first ``target`` slots win and are reported in
    ascending order.
    """
    if target > population:
        raise ContractViolation(
            f"target {target} exceeds population {population}"
        )
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, class_id]))
    )
    chosen = rng.permutation(population)[:target]
    chosen.sort()
    return chosen.tolist()


def subsample_plan(
    label_map: LabelMap, t_s: int, seed: int
) -> SubsamplePlan:
    """Cap every class at t_s images; selection is seeded per class."""
    if t_s < 1:
        raise ContractViolation(f"t_s must be >= 1, got {t_s}")
    targets = {
        cls.class_id: min(cls.assigned_count, t_s) for cls in label_map.classes
    }
    return SubsamplePlan(targets=targets, t_s=t_s, seed=seed)


def bottom_up_pipeline(
    taxonomy: Taxonomy, config: ReorgConfig
) -> tuple[LabelMap, SubsamplePlan]:
    """roll, then bind(t_b), then promote(t_p), then subsample(t_s).

    The three tree steps run in place on one copy of ``taxonomy``. The
    classes are the surviving nodes, the root only if its pooled count is at
    least t_p; the synsets pooled at a root below the floor are unassigned.
    """
    promoted = _working_copy(taxonomy)
    _roll(promoted)
    _bind(promoted, config.t_b)
    _promote(promoted, config.t_p)

    selected = [
        node_id
        for node_id, node in promoted.nodes.items()
        if node_id != promoted.root or node.direct_count >= config.t_p
    ]
    provenance = (
        "bottomup order=roll,bind,promote,subsample "
        f"t_b={config.t_b} t_p={config.t_p} t_s={config.t_s} "
        f"seed={config.seed}"
    )
    label_map, _, _ = assign_to_selected(
        taxonomy, selected, provenance=provenance
    )
    plan = subsample_plan(label_map, config.t_s, config.seed)
    return label_map, plan


def write_plan(plan: SubsamplePlan) -> Iterator[str]:
    """The plan file's lines: its header, then one line per class."""
    yield (f"# hierkit-subsample-plan v1 rule={SELECTION_RULE} "
           f"t_s={plan.t_s} seed={plan.seed}\n")
    for class_id, target in plan.targets.items():
        yield f"{class_id}\t{target}\t{plan.seed}\n"


def read_plan(text: str) -> SubsamplePlan:
    lines = text.splitlines()[:1]
    if not lines or not lines[0].startswith("# hierkit-subsample-plan v1"):
        raise ParseError("missing subsample-plan header", line=1)
    header = dict(
        token.split("=", 1)
        for token in lines[0].split()
        if "=" in token
    )
    try:
        t_s = int(header["t_s"])
        seed = int(header["seed"])
        rule = header["rule"]
    except (KeyError, ValueError):
        raise ParseError("bad subsample-plan header", line=1) from None
    if rule != SELECTION_RULE:
        raise ParseError(f"unknown selection rule {rule!r}", line=1)
    if t_s < 1:
        raise ParseError(f"plan t_s must be >= 1, got {t_s}", line=1)
    if not 0 <= seed < 2**64:
        raise ParseError("plan seed must fit in 64 unsigned bits", line=1)
    targets: dict[int, int] = {}
    rows = _fields(_records(text, "\t"), 3, "class_id<TAB>target<TAB>seed")
    for lineno, raw, fields in rows:
        try:
            class_id, target, line_seed = map(int, fields)
        except ValueError:
            raise ParseError(f"non-numeric field in {raw!r}", line=lineno) from None
        if not 0 <= target <= t_s:
            raise ParseError(
                f"target {target} is outside [0, t_s={t_s}]", line=lineno
            )
        if line_seed != seed:
            raise ParseError("per-line seed differs from header", line=lineno)
        if class_id in targets:
            raise ParseError(f"duplicate class id {class_id}", line=lineno)
        targets[class_id] = target
    return SubsamplePlan(targets=targets, t_s=t_s, seed=seed)
