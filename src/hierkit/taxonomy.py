"""Class-hierarchy parsing, canonicalization to a tree, and summary statistics.

The hierarchy arrives as WordNet-style is-a edges (``parent child`` per line)
plus per-synset image counts. Synsets may have several hypernyms; the builder
keeps, for every node, the parent closest to the root (ties broken by
lexicographically smallest parent id) so downstream operations can treat the
hierarchy as a rooted tree. Dropped edges are retained for auditability.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import ContractViolation, ParseError, StructureError
from .io import _records

SynsetId = str

SYNTHETIC_ROOT_ID = "__root__"


@dataclass(slots=True)
class TaxonomyNode:
    id: SynsetId
    direct_count: int = 0
    name: str | None = None
    children: list[SynsetId] = field(default_factory=list)
    parent: SynsetId | None = None


@dataclass
class Taxonomy:
    nodes: dict[SynsetId, TaxonomyNode]
    root: SynsetId
    dropped_edges: list[tuple[SynsetId, SynsetId]] = field(default_factory=list)
    # diagnostics from canonicalization, not part of the tree proper
    synthetic_root: bool = False
    orphans: list[SynsetId] = field(default_factory=list)

    def total_images(self) -> int:
        return sum(n.direct_count for n in self.nodes.values())

    def depths(self) -> dict[SynsetId, int]:
        """Depth of every node, in breadth-first order: parents first."""
        out = {self.root: 0}
        queue = deque([self.root])
        while queue:
            cur = queue.popleft()
            d = out[cur] + 1
            for child in self.nodes[cur].children:
                out[child] = d
                queue.append(child)
        return out


@dataclass
class StatsReport:
    class_count: int
    total_images: int
    count_histogram: list[tuple[int, int]]
    per_depth_class_counts: list[int]
    single_child_chain_count: int
    singleton_classes: int
    max_count_class: tuple[SynsetId, int]


def parse_isa_edges(text: str) -> tuple[list[tuple[SynsetId, SynsetId]], int]:
    """Parse ``parent child`` lines into an edge list.

    Returns the edges in file order with exact duplicates removed, together
    with the number of duplicates dropped.
    """
    edges: list[tuple[SynsetId, SynsetId]] = []
    seen: set[tuple[SynsetId, SynsetId]] = set()
    duplicates = 0
    for lineno, raw, tokens in _records(text, None):
        if len(tokens) != 2:
            raise ParseError(
                f"expected 'parent_id child_id', got {raw!r}", line=lineno
            )
        edge = (tokens[0], tokens[1])
        if edge in seen:
            duplicates += 1
            continue
        seen.add(edge)
        edges.append(edge)
    return edges, duplicates


def parse_counts(text: str) -> dict[SynsetId, int]:
    """Parse ``synset_id count`` lines into a count map."""
    counts: dict[SynsetId, int] = {}
    for lineno, raw, tokens in _records(text, None):
        if len(tokens) != 2:
            raise ParseError(
                f"expected 'synset_id count', got {raw!r}", line=lineno
            )
        synset, count_text = tokens
        try:
            count = int(count_text)
        except ValueError:
            raise ParseError(
                f"non-numeric count {count_text!r}", line=lineno
            ) from None
        if count < 0:
            raise ParseError(f"negative count {count}", line=lineno)
        counts[synset] = count
    return counts


def parse_names(text: str) -> dict[SynsetId, str]:
    """Parse ``synset<TAB>name`` lines; names may contain further tabs."""
    names: dict[SynsetId, str] = {}
    for lineno, raw, _ in _records(text, "\t"):
        synset, sep, name = raw.partition("\t")
        if not sep or not synset.strip() or not name.strip():
            raise ParseError(
                f"expected 'synset<TAB>name', got {raw!r}", line=lineno
            )
        names[synset.strip()] = name.strip()
    return names


def _find_cycle_edge(
    start: SynsetId, parents: dict[SynsetId, list[SynsetId]]
) -> tuple[SynsetId, SynsetId]:
    """Walk parent links from a node known to sit under a cycle.

    Every step stays inside the root-unreachable region, so the walk must
    revisit a node; the closing (parent, child) pair names the cycle.
    """
    path_index: dict[SynsetId, int] = {}
    path: list[SynsetId] = []
    cur = start
    while cur not in path_index:
        path_index[cur] = len(path)
        path.append(cur)
        cur = min(parents[cur])
    # the walk stepped from path[-1] to its parent cur, which we had already
    # visited: (cur, path[-1]) is a parent->child edge on the cycle
    return cur, path[-1]


def build_taxonomy(
    edges: list[tuple[SynsetId, SynsetId]],
    counts: dict[SynsetId, int],
    names: dict[SynsetId, str] | None = None,
) -> Taxonomy:
    """Canonicalize a multi-parent hierarchy into a single-rooted tree.

    Multi-parent nodes keep the parent with the smallest breadth-first depth
    (tie: smallest parent id); the other edges land in ``dropped_edges`` as
    (child, parent) pairs. Several root candidates are gathered under a
    synthetic zero-count root. Synsets that appear in ``counts`` but in no
    edge become children of the root and are listed in ``orphans``.
    """
    if not edges:
        raise ContractViolation("edge list is empty")
    names = names or {}

    parents: dict[SynsetId, list[SynsetId]] = {}
    children: dict[SynsetId, list[SynsetId]] = {}
    for parent, child in dict.fromkeys(map(tuple, edges)):
        parents.setdefault(child, []).append(parent)
        children.setdefault(parent, []).append(child)
    edge_ids = children.keys() | parents.keys()

    root_candidates = sorted(children.keys() - parents.keys())
    if not root_candidates:
        bad = _find_cycle_edge(min(edge_ids), parents)
        raise StructureError(
            f"hierarchy has no root; cycle through edge {bad[0]} -> {bad[1]}"
        )

    synthetic = len(root_candidates) > 1
    if synthetic:
        root = SYNTHETIC_ROOT_ID
        if root in edge_ids:
            raise StructureError(
                f"reserved id {root!r} already present in the hierarchy"
            )
        children[root] = list(root_candidates)
        for cand in root_candidates:
            parents[cand] = [root]
    else:
        root = root_candidates[0]

    # breadth-first depth over the full (pre-canonicalization) edge set;
    # the order children are visited in does not change any depth
    depth: dict[SynsetId, int] = {root: 0}
    queue = deque([root])
    while queue:
        cur = queue.popleft()
        for child in children.get(cur, ()):
            if child not in depth:
                depth[child] = depth[cur] + 1
                queue.append(child)

    unreachable = sorted(edge_ids - depth.keys())
    if unreachable:
        bad = _find_cycle_edge(unreachable[0], parents)
        raise StructureError(
            f"{len(unreachable)} node(s) unreachable from root {root!r}; "
            f"cycle through edge {bad[0]} -> {bad[1]}"
        )

    kept_parent: dict[SynsetId, SynsetId] = {}
    dropped: list[tuple[SynsetId, SynsetId]] = []
    for child_id, parent_list in parents.items():
        if len(parent_list) == 1:
            kept_parent[child_id] = parent_list[0]
            continue
        best = min(parent_list, key=lambda p: (depth[p], p))
        kept_parent[child_id] = best
        dropped.extend(
            (child_id, p) for p in sorted(parent_list) if p != best
        )
    dropped.sort()

    orphans = sorted(counts.keys() - depth.keys())
    for orphan in orphans:
        kept_parent[orphan] = root
    negative = [synset for synset, count in counts.items() if count < 0]
    if negative:
        raise ContractViolation(f"negative image count for {min(negative)!r}")

    nodes: dict[SynsetId, TaxonomyNode] = {
        node_id: TaxonomyNode(
            node_id, counts.get(node_id, 0), names.get(node_id), [],
            kept_parent.get(node_id),
        )
        for node_id in sorted(depth.keys() | orphans)
    }
    # ids arrive in sorted order, so every children list comes out sorted
    for node_id, node in nodes.items():
        if node.parent is not None:
            nodes[node.parent].children.append(node_id)

    return Taxonomy(
        nodes=nodes,
        root=root,
        dropped_edges=dropped,
        synthetic_root=synthetic,
        orphans=orphans,
    )


def subtree_counts(taxonomy: Taxonomy) -> dict[SynsetId, int]:
    """Subtree-inclusive image count for every node, deepest nodes first."""
    out: dict[SynsetId, int] = {}
    for node_id in reversed(taxonomy.depths()):
        node = taxonomy.nodes[node_id]
        out[node_id] = node.direct_count + sum(
            out[c] for c in node.children
        )
    return out


def stats(taxonomy: Taxonomy) -> StatsReport:
    """Summarize class-count imbalance and tree shape.

    Histogram buckets are powers of two: [0,1), [1,2), [2,4), ... up to the
    bucket holding the largest class, so bucket counts always partition the
    class count.
    """
    nodes = taxonomy.nodes
    class_count = len(nodes)
    total = 0
    singletons = 0
    single_child = 0
    max_class: tuple[SynsetId, int] | None = None
    max_bucket = 0
    for node_id in sorted(nodes):
        node = nodes[node_id]
        c = node.direct_count
        total += c
        if c == 1:
            singletons += 1
        if len(node.children) == 1:
            single_child += 1
        if max_class is None or c > max_class[1]:
            max_class = (node_id, c)
        max_bucket = max(max_bucket, c.bit_length())

    bounds = [0] + [1 << i for i in range(max_bucket)]
    hist = {b: 0 for b in bounds}
    for node in nodes.values():
        c = node.direct_count
        hist[0 if c == 0 else 1 << (c.bit_length() - 1)] += 1

    depths = taxonomy.depths()
    per_depth = [0] * (max(depths.values()) + 1)
    for d in depths.values():
        per_depth[d] += 1

    assert max_class is not None
    return StatsReport(
        class_count=class_count,
        total_images=total,
        count_histogram=[(b, hist[b]) for b in bounds],
        per_depth_class_counts=per_depth,
        single_child_chain_count=single_child,
        singleton_classes=singletons,
        max_count_class=max_class,
    )
