"""Bottom-up hierarchy reorganization: roll, bind, promote, subsample.

The four operations run in that fixed order. Roll collapses single-child
links, bind folds whole low-image subtrees into their top node, promote moves
remaining small classes into their parents until every surviving class meets
the image floor, and subsample caps over-populated classes. The first three
transform the tree; subsampling is a plan over image indices and never touches
image data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, ParseError
from .labelmap import LabelMap, from_members
from .taxonomy import SynsetId, Taxonomy, TaxonomyNode, subtree_counts

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


@dataclass(frozen=True)
class MergeRecord:
    op: str
    absorbed: SynsetId
    survivor: SynsetId
    images_moved: int


MergeLog = list[MergeRecord]


@dataclass(frozen=True)
class PlanEntry:
    class_id: int
    target_count: int


@dataclass
class SubsamplePlan:
    entries: list[PlanEntry]
    t_s: int
    seed: int
    rule: str = SELECTION_RULE


def _working_copy(taxonomy: Taxonomy) -> Taxonomy:
    nodes = {
        node_id: TaxonomyNode(
            node_id, node.direct_count, node.name, list(node.children),
            node.parent,
        )
        for node_id, node in taxonomy.nodes.items()
    }
    return Taxonomy(
        nodes=nodes,
        root=taxonomy.root,
        dropped_edges=list(taxonomy.dropped_edges),
        synthetic_root=taxonomy.synthetic_root,
        orphans=list(taxonomy.orphans),
    )


def roll(taxonomy: Taxonomy) -> tuple[Taxonomy, MergeLog]:
    """Merge every sole child into its parent, iterated to fixpoint.

    A parent with exactly one child absorbs that child's images; the child's
    children are re-parented to it. Absorption can leave the parent with a
    single child again (a chain), so each node is drained until it has zero
    or at least two children. The result has no single-child node.
    """
    out = _working_copy(taxonomy)
    return out, _roll(out)


def _roll(out: Taxonomy) -> MergeLog:
    """``roll`` in place."""
    nodes = out.nodes
    log: list[MergeRecord] = []
    for node_id in sorted(nodes):
        if node_id not in nodes:
            continue
        parent = nodes[node_id]
        while len(parent.children) == 1:
            child = nodes[parent.children[0]]
            log.append(
                MergeRecord("roll", child.id, parent.id, child.direct_count)
            )
            parent.direct_count += child.direct_count
            parent.children = list(child.children)
            for grandchild in child.children:
                nodes[grandchild].parent = parent.id
            del nodes[child.id]
    return log


def bind(taxonomy: Taxonomy, t_b: int) -> tuple[Taxonomy, MergeLog]:
    """Collapse every maximal subtree whose total image count is below t_b.

    A non-leaf node heads a collapse when its subtree-inclusive count is
    under the threshold while its parent's is not (or it is the root); the
    entire subtree folds into that node. Leaves below the threshold are left
    alone: lifting those is promote's job.
    """
    if t_b < 0:
        raise ContractViolation(f"t_b must be >= 0, got {t_b}")
    out = _working_copy(taxonomy)
    return out, _bind(out, t_b)


def _bind(out: Taxonomy, t_b: int) -> MergeLog:
    """``bind`` in place."""
    nodes = out.nodes
    sums = subtree_counts(out)
    log: list[MergeRecord] = []
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
        absorbed: list[SynsetId] = []
        stack = list(head.children)
        while stack:
            cur = stack.pop()
            absorbed.append(cur)
            stack.extend(nodes[cur].children)
        for node_id in sorted(absorbed):
            log.append(
                MergeRecord(
                    "bind", node_id, head_id, nodes[node_id].direct_count
                )
            )
            head.direct_count += nodes[node_id].direct_count
            del nodes[node_id]
        head.children = []
    return log


def promote(taxonomy: Taxonomy, t_p: int) -> tuple[Taxonomy, MergeLog]:
    """Move every class under the image floor into its parent, deepest first.

    Children are settled before their ancestors, so a parent that grows past
    the floor while absorbing promoted children keeps its images, and one
    that stays small passes everything further up. After the pass every
    surviving non-root node holds at least t_p images; the root may stay
    below the floor and is dealt with when the label map is built.
    """
    if t_p < 0:
        raise ContractViolation(f"t_p must be >= 0, got {t_p}")
    out = _working_copy(taxonomy)
    return out, _promote(out, t_p)


def _promote(out: Taxonomy, t_p: int) -> MergeLog:
    """``promote`` in place."""
    nodes = out.nodes
    depths = out.depths()
    order = sorted(
        (node_id for node_id in nodes if node_id != out.root),
        key=lambda n: (-depths[n], n),
    )
    log: list[MergeRecord] = []
    for node_id in order:
        node = nodes[node_id]
        if node.direct_count >= t_p:
            continue
        parent = nodes[node.parent]
        log.append(
            MergeRecord("promote", node_id, parent.id, node.direct_count)
        )
        parent.direct_count += node.direct_count
        parent.children.remove(node_id)
        parent.children.extend(node.children)
        parent.children.sort()
        for child in node.children:
            nodes[child].parent = parent.id
        del nodes[node_id]
    return log


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
    entries = [
        PlanEntry(
            class_id=cls.class_id,
            target_count=min(cls.assigned_count, t_s),
        )
        for cls in label_map.classes
    ]
    return SubsamplePlan(entries=entries, t_s=t_s, seed=seed)


def replay_members(
    taxonomy: Taxonomy, log: MergeLog
) -> dict[SynsetId, set[SynsetId]]:
    """Reconstruct which original synsets each surviving node absorbed."""
    members: dict[SynsetId, set[SynsetId]] = {
        node_id: {node_id} for node_id in taxonomy.nodes
    }
    for record in log:
        members[record.survivor] |= members.pop(record.absorbed)
    return members


def build_label_map(
    reorganized: Taxonomy,
    members: dict[SynsetId, set[SynsetId]],
    original_counts: dict[SynsetId, int],
    t_p: int,
    provenance: str,
) -> LabelMap:
    """Turn a fully reorganized tree into a label map.

    Every surviving non-root node becomes a class. The root becomes one only
    if it meets the promote floor; otherwise whatever pooled at the root is
    recorded as unassigned, itemized by originating synset.
    """
    root = reorganized.root
    class_members: dict[SynsetId, set[SynsetId]] = {}
    assigned: dict[SynsetId, int] = {}
    unassigned: list[tuple[SynsetId, int]] = []
    for node_id, node in reorganized.nodes.items():
        if node_id == root and node.direct_count < t_p:
            unassigned = [
                (m, original_counts.get(m, 0))
                for m in sorted(members[root])
                if original_counts.get(m, 0) > 0
            ]
            continue
        class_members[node_id] = members[node_id]
        assigned[node_id] = node.direct_count
    return from_members(class_members, assigned, unassigned, provenance)


def bottom_up_pipeline(
    taxonomy: Taxonomy, config: ReorgConfig
) -> tuple[LabelMap, SubsamplePlan, MergeLog]:
    """roll, then bind(t_b), then promote(t_p), then subsample(t_s).

    The three tree steps run in place on one copy of ``taxonomy``.
    """
    promoted = _working_copy(taxonomy)
    log = _roll(promoted)
    log += _bind(promoted, config.t_b)
    log += _promote(promoted, config.t_p)

    members = replay_members(taxonomy, log)
    original_counts = {
        node_id: node.direct_count for node_id, node in taxonomy.nodes.items()
    }
    provenance = (
        "bottomup order=roll,bind,promote,subsample "
        f"t_b={config.t_b} t_p={config.t_p} t_s={config.t_s} "
        f"seed={config.seed}"
    )
    label_map = build_label_map(
        promoted, members, original_counts, config.t_p, provenance
    )
    plan = subsample_plan(label_map, config.t_s, config.seed)
    return label_map, plan, log


def write_plan(plan: SubsamplePlan) -> str:
    lines = [
        f"# hierkit-subsample-plan v1 rule={plan.rule} "
        f"t_s={plan.t_s} seed={plan.seed}"
    ]
    lines.extend(
        f"{e.class_id}\t{e.target_count}\t{plan.seed}" for e in plan.entries
    )
    return "\n".join(lines) + "\n"


def read_plan(text: str) -> SubsamplePlan:
    lines = text.splitlines()
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
    if not 0 <= seed < 2**64:
        raise ParseError("plan seed must fit in 64 unsigned bits", line=1)
    entries: list[PlanEntry] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip() or raw.startswith("#"):
            continue
        fields = raw.split("\t")
        if len(fields) != 3:
            raise ParseError(
                f"expected 'class_id<TAB>target<TAB>seed', got {raw!r}",
                line=lineno,
            )
        try:
            class_id, target, line_seed = map(int, fields)
        except ValueError:
            raise ParseError(f"non-numeric field in {raw!r}", line=lineno) from None
        if target < 0:
            raise ParseError(f"negative target {target}", line=lineno)
        if line_seed != seed:
            raise ParseError("per-line seed differs from header", line=lineno)
        entries.append(PlanEntry(class_id=class_id, target_count=target))
    return SubsamplePlan(entries=entries, t_s=t_s, seed=seed, rule=rule)
