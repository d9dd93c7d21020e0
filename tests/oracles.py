"""Deliberately naive reference implementations.

Everything here trades efficiency for obviousness: full rescans instead of
memoization, one merge per pass, recursion over explicit traversal state.
The library must agree with these on random inputs; none of the library's
traversal helpers are reused.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

import numpy as np

from hierkit.bottomup import PlanEntry, SubsamplePlan
from hierkit.errors import ContractViolation, ParseError, StructureError
from hierkit.labelmap import LabelClass, LabelMap, from_members
from hierkit.taxonomy import SYNTHETIC_ROOT_ID, SynsetId, Taxonomy, TaxonomyNode


class SimpleTree:
    """Mutable parent-pointer tree with per-node merged member sets."""

    def __init__(self, taxonomy: Taxonomy):
        self.count = {
            node_id: node.direct_count
            for node_id, node in taxonomy.nodes.items()
        }
        self.parent = {
            node_id: node.parent for node_id, node in taxonomy.nodes.items()
        }
        self.root = taxonomy.root
        self.members = {node_id: {node_id} for node_id in self.count}

    def ids(self):
        return sorted(self.count)

    def children(self, node_id):
        return sorted(
            child
            for child, parent in self.parent.items()
            if parent == node_id
        )

    def subtree_ids(self, node_id):
        out = [node_id]
        for child in self.children(node_id):
            out.extend(self.subtree_ids(child))
        return out

    def subtree_sum(self, node_id):
        return sum(self.count[v] for v in self.subtree_ids(node_id))

    def depth(self, node_id):
        d = 0
        while self.parent[node_id] is not None:
            node_id = self.parent[node_id]
            d += 1
        return d

    def merge(self, absorbed, survivor):
        self.count[survivor] += self.count[absorbed]
        self.members[survivor] |= self.members.pop(absorbed)
        for child in self.children(absorbed):
            self.parent[child] = survivor
        del self.count[absorbed]
        del self.parent[absorbed]


def oracle_roll(tree: SimpleTree) -> None:
    """One merge per full rescan until no single-child node remains."""
    while True:
        single = [v for v in tree.ids() if len(tree.children(v)) == 1]
        if not single:
            return
        survivor = single[0]
        tree.merge(tree.children(survivor)[0], survivor)


def oracle_bind(tree: SimpleTree, t_b: int) -> None:
    heads = [
        v
        for v in tree.ids()
        if tree.children(v)
        and tree.subtree_sum(v) < t_b
        and (
            tree.parent[v] is None
            or tree.subtree_sum(tree.parent[v]) >= t_b
        )
    ]
    for head in heads:
        for descendant in sorted(set(tree.subtree_ids(head)) - {head}):
            tree.merge(descendant, head)


def oracle_promote(tree: SimpleTree, t_p: int) -> None:
    """One promotion per rescan, always the currently deepest small class."""
    while True:
        violating = [
            v
            for v in tree.ids()
            if v != tree.root and tree.count[v] < t_p
        ]
        if not violating:
            return
        violating.sort(key=lambda v: (-tree.depth(v), v))
        victim = violating[0]
        tree.merge(victim, tree.parent[victim])


def oracle_label_map(
    root: str,
    pooled: dict[str, int],
    members: dict[str, set[str]],
    original_counts: dict[str, int],
    t_p: int,
    provenance: str,
) -> LabelMap:
    """Every survivor (keys of ``pooled``) with its absorbed ``members``
    becomes a class; a root below t_p leaves its members unassigned."""
    unassigned = []
    classes = {}
    counts = {}
    for node_id in sorted(pooled):
        if node_id == root and pooled[node_id] < t_p:
            unassigned = [
                (m, original_counts[m])
                for m in sorted(members[node_id])
                if original_counts[m] > 0
            ]
            continue
        classes[node_id] = members[node_id]
        counts[node_id] = pooled[node_id]
    return from_members(classes, counts, unassigned, provenance)


def oracle_bottom_up(
    taxonomy: Taxonomy, t_b: int, t_p: int, provenance: str
) -> LabelMap:
    tree = SimpleTree(taxonomy)
    original = dict(tree.count)
    oracle_roll(tree)
    oracle_bind(tree, t_b)
    oracle_promote(tree, t_p)
    return oracle_label_map(
        tree.root, tree.count, tree.members, original, t_p, provenance
    )


def oracle_top_down_select(
    taxonomy: Taxonomy, t_t: int, budget: int
) -> list[str]:
    """Materialize every layer fully, then sort and select."""
    tree = SimpleTree(taxonomy)
    by_depth: dict[int, list[str]] = {}
    for node_id in tree.ids():
        by_depth.setdefault(tree.depth(node_id), []).append(node_id)
    selected: list[str] = []
    for depth in range(1, max(by_depth) + 1 if by_depth else 0):
        layer = by_depth.get(depth, [])
        layer.sort(key=lambda v: (-tree.subtree_sum(v), v))
        for node_id in layer:
            if len(selected) >= budget:
                return selected
            if tree.subtree_sum(node_id) >= t_t:
                selected.append(node_id)
    return selected


def oracle_assign(
    taxonomy: Taxonomy, selected: list[str], provenance: str
) -> LabelMap:
    """Per-synset upward walk to the first selected ancestor-or-self."""
    selected_set = set(selected)
    members: dict[str, set[str]] = {s: set() for s in selected_set}
    counts: dict[str, int] = {s: 0 for s in selected_set}
    unassigned = []
    for node_id, node in taxonomy.nodes.items():
        cursor = node_id
        while cursor is not None and cursor not in selected_set:
            cursor = taxonomy.nodes[cursor].parent
        if cursor is None:
            if node.direct_count > 0:
                unassigned.append((node_id, node.direct_count))
        else:
            members[cursor].add(node_id)
            counts[cursor] += node.direct_count
    return from_members(members, counts, unassigned, provenance)


def oracle_average_precision(
    scores: list[tuple[str, float]], positives: set[str]
) -> Fraction:
    """Exact rational AP straight from the definition."""
    order = sorted(scores, key=lambda kv: (-kv[1], kv[0]))
    total_positives = sum(1 for item_id, _ in scores if item_id in positives)
    hits = 0
    acc = Fraction(0)
    for rank, (item_id, _) in enumerate(order, start=1):
        if item_id in positives:
            hits += 1
            acc += Fraction(hits, rank)
    return acc / total_positives


def oracle_two_means(points: np.ndarray) -> list[np.ndarray]:
    """Globally optimal 2-means by exhausting all assignments."""
    n = len(points)
    best = None
    best_centroids = None
    for mask_bits in range(1, 2**n - 1):
        mask = np.array(
            [(mask_bits >> i) & 1 for i in range(n)], dtype=bool
        )
        c0 = points[mask].mean(axis=0)
        c1 = points[~mask].mean(axis=0)
        cost = (
            np.sum((points[mask] - c0) ** 2)
            + np.sum((points[~mask] - c1) ** 2)
        )
        if best is None or cost < best:
            best = cost
            best_centroids = [c0, c1]
    return best_centroids


def oracle_pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, (len(a), len(b)).

    The library's original one-shot version, kept verbatim: it materializes
    the whole (len(a), len(b), d) difference tensor.
    """
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def oracle_canonical_rows(arr: np.ndarray) -> np.ndarray:
    """Rows in lexicographic order.

    The library's original canonical order, kept verbatim: a stable sort
    on every column, last column first.
    """
    order = np.lexsort(arr.T[::-1])
    return arr[order]


def oracle_chi2_distances(x, y=None, epsilon: float = 1e-10) -> np.ndarray:
    """Chi-squared distances one full row at a time, both triangles.

    The library's original loop, kept verbatim: every row against every
    column, fresh full-width temporaries, zero denominators masked.
    """
    a = np.asarray(x, dtype=np.float64)
    b = a if y is None else np.asarray(y, dtype=np.float64)
    out = np.empty((a.shape[0], b.shape[0]), dtype=np.float64)
    for i in range(a.shape[0]):
        diff = a[i] - b
        denom = a[i] + b + epsilon
        nonzero = denom > 0.0
        terms = np.square(diff) / np.where(nonzero, denom, 1.0)
        out[i] = np.where(nonzero, terms, 0.0).sum(axis=1)
    return out


def oracle_chi2_gamma(dists: np.ndarray) -> float:
    """The library's original bandwidth heuristic, kept verbatim: 1 / mean
    of the strict upper triangle of a square distance matrix, 1.0 for
    fewer than two items or an all-zero mean."""
    n = dists.shape[0]
    if n < 2:
        return 1.0
    total = float(np.triu(dists, k=1).sum())
    mean = total / (n * (n - 1) / 2)
    return 1.0 / mean if mean > 0 else 1.0


def oracle_svm_dual(gram: np.ndarray, labels: np.ndarray, C: float):
    """Generic convex-QP solution of the dual, via scipy's SLSQP."""
    from scipy.optimize import minimize

    K = np.asarray(gram, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    n = len(y)
    Q = (y[:, None] * y[None, :]) * K

    result = minimize(
        fun=lambda a: 0.5 * a @ Q @ a - a.sum(),
        x0=np.zeros(n),
        jac=lambda a: Q @ a - 1.0,
        bounds=[(0.0, C)] * n,
        constraints=[{"type": "eq", "fun": lambda a: a @ y, "jac": lambda a: y}],
        method="SLSQP",
        options={"maxiter": 2000, "ftol": 1e-14},
    )
    assert result.success, result.message
    alpha = np.clip(result.x, 0.0, C)

    f0 = K @ (alpha * y)
    free = (alpha > 1e-6) & (alpha < C - 1e-6)
    if np.any(free):
        bias = float(np.mean((y - f0)[free]))
    else:
        up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
        down = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < C))
        neg_e = y - f0
        bias = float((np.max(neg_e[up]) + np.min(neg_e[down])) / 2.0)
    return alpha, bias


def oracle_duality_gap(gram: np.ndarray, labels: np.ndarray,
                       alpha: np.ndarray, C: float) -> float:
    """Primal minus dual objective of a dual solution, at the best bias.

    The primal is 1/2 |w|^2 + C * sum of hinge losses, with w taken from
    alpha; the dual is sum(alpha) - 1/2 |w|^2. The primal is convex and
    piecewise linear in the bias, with its kinks at b = y_i - f0_i, so its
    minimum over all biases is the smallest value at those kinks. For a
    feasible alpha the result bounds alpha's dual shortfall from the
    optimum, and is never negative (weak duality) up to rounding.
    """
    K = np.asarray(gram, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    coef = alpha * y
    f0 = K @ coef
    w_sq = float(coef @ f0)
    kinks = y - f0
    # margins[i, b]: 1 - y_i * (f0_i + kinks[b])
    margins = 1.0 - y[:, None] * (f0[:, None] + kinks[None, :])
    primal = 0.5 * w_sq + C * np.maximum(margins, 0.0).sum(axis=0)
    dual = float(alpha.sum()) - 0.5 * w_sq
    return float(primal.min()) - dual


# -- taxonomy and train list --------------------------------------------------

def _oracle_find_cycle_edge(
    start: SynsetId, parents: dict[SynsetId, set[SynsetId]]
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


def oracle_build_taxonomy(
    edges: list[tuple[SynsetId, SynsetId]],
    counts: dict[SynsetId, int],
    names: dict[SynsetId, str] | None = None,
) -> Taxonomy:
    """Canonicalize a multi-parent hierarchy into a single-rooted tree.

    The library's original builder, kept verbatim: a seen-edge set, parent
    sets, a sorted breadth-first walk and a ``min(key=...)`` per node.

    Multi-parent nodes keep the parent with the smallest breadth-first depth
    (tie: smallest parent id); the other edges land in ``dropped_edges`` as
    (child, parent) pairs. Several root candidates are gathered under a
    synthetic zero-count root. Synsets that appear in ``counts`` but in no
    edge become children of the root and are listed in ``orphans``.
    """
    if not edges:
        raise ContractViolation("edge list is empty")
    names = names or {}

    parents: dict[SynsetId, set[SynsetId]] = {}
    children: dict[SynsetId, list[SynsetId]] = {}
    edge_ids: set[SynsetId] = set()
    seen_edges: set[tuple[SynsetId, SynsetId]] = set()
    for parent, child in edges:
        edge_ids.add(parent)
        edge_ids.add(child)
        if (parent, child) in seen_edges:
            continue
        seen_edges.add((parent, child))
        parents.setdefault(child, set()).add(parent)
        children.setdefault(parent, []).append(child)

    root_candidates = sorted(v for v in edge_ids if v not in parents)
    if not root_candidates:
        bad = _oracle_find_cycle_edge(min(edge_ids), parents)
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
            parents[cand] = {root}
    else:
        root = root_candidates[0]

    # breadth-first depth over the full (pre-canonicalization) edge set
    depth: dict[SynsetId, int] = {root: 0}
    queue = deque([root])
    while queue:
        cur = queue.popleft()
        for child in sorted(children.get(cur, ())):
            if child not in depth:
                depth[child] = depth[cur] + 1
                queue.append(child)

    unreachable = sorted(edge_ids - set(depth))
    if unreachable:
        bad = _oracle_find_cycle_edge(unreachable[0], parents)
        raise StructureError(
            f"{len(unreachable)} node(s) unreachable from root {root!r}; "
            f"cycle through edge {bad[0]} -> {bad[1]}"
        )

    kept_parent: dict[SynsetId, SynsetId] = {}
    dropped: list[tuple[SynsetId, SynsetId]] = []
    for child_id, parent_set in parents.items():
        best = min(parent_set, key=lambda p: (depth[p], p))
        kept_parent[child_id] = best
        dropped.extend(
            (child_id, p) for p in sorted(parent_set) if p != best
        )
    dropped.sort()

    all_ids = set(depth)
    orphans = sorted(set(counts) - all_ids)
    for orphan in orphans:
        kept_parent[orphan] = root
        all_ids.add(orphan)

    nodes: dict[SynsetId, TaxonomyNode] = {
        node_id: TaxonomyNode(
            id=node_id,
            direct_count=counts.get(node_id, 0),
            name=names.get(node_id),
            parent=kept_parent.get(node_id),
        )
        for node_id in all_ids
    }
    for node_id, node in nodes.items():
        if node.direct_count < 0:
            raise ContractViolation(
                f"negative image count for {node_id!r}"
            )
        if node.parent is not None:
            nodes[node.parent].children.append(node_id)
    for node in nodes.values():
        node.children.sort()

    return Taxonomy(
        nodes=nodes,
        root=root,
        dropped_edges=dropped,
        synthetic_root=synthetic,
        orphans=orphans,
    )


def oracle_selected_indices(
    seed: int, class_id: int, population: int, target: int
) -> list[int]:
    """Deterministic choice of ``target`` image indices out of ``population``.

    The rule (``shuffle-v1``) is a full pseudo-random permutation seeded by
    (seed, class_id); the first ``target`` slots win and are reported in
    ascending order. The library's original version, kept verbatim.
    """
    if target > population:
        raise ContractViolation(
            f"target {target} exceeds population {population}"
        )
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, class_id]))
    )
    return sorted(int(i) for i in rng.permutation(population)[:target])


def _oracle_records(text: str, sep: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, raw, line.split(sep)


def oracle_export_trainlist(label_map, plan, images_text: str, prov: str) -> str:
    """The text ``export-trainlist`` writes; the CLI's original loop, kept
    verbatim: ``setdefault`` per line, one f-string per output line."""
    class_of = label_map.class_of_synset()
    per_class: dict[int, list[str]] = {}
    for lineno, raw, fields in _oracle_records(images_text, "\t"):
        if len(fields) != 2:
            raise ParseError(
                f"expected 'image_id<TAB>synset_id', got {raw!r}", line=lineno
            )
        image_id, synset = fields
        class_id = class_of.get(synset)
        if class_id is not None:
            per_class.setdefault(class_id, []).append(image_id)

    targets = (
        {entry.class_id: entry.target_count for entry in plan.entries}
        if plan
        else None
    )
    lines = [f"# {prov}"]
    for class_id in sorted(per_class):
        images = per_class[class_id]
        if targets is None:
            keep = range(len(images))
        else:
            target = min(targets.get(class_id, len(images)), len(images))
            keep = oracle_selected_indices(
                plan.seed, class_id, len(images), target
            )
        lines.extend(f"{images[i]}\t{class_id}" for i in keep)
    return "\n".join(lines) + "\n"


# -- text readers -------------------------------------------------------------
# The library's original per-reader line loops, kept verbatim: each one
# strips, skips blank and ``#`` lines, splits and parses token by token.

def _oracle_parse_float(token: str, lineno: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"non-numeric value {token!r}", line=lineno) from None


def oracle_read_frames_csv(text: str) -> np.ndarray:
    rows = []
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        values = [_oracle_parse_float(tok, lineno) for tok in line.split(",")]
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise ParseError(
                f"row has {len(values)} values, expected {width}", line=lineno
            )
        rows.append(values)
    if not rows:
        raise ParseError("no frame rows found")
    return np.asarray(rows, dtype=np.float64)


def oracle_read_vectors_csv(text: str) -> tuple[list[str], np.ndarray]:
    ids: list[str] = []
    rows: list[list[float]] = []
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split(",")
        if len(tokens) < 2:
            raise ParseError(
                f"expected 'item_id,v1,...', got {raw!r}", line=lineno
            )
        values = [_oracle_parse_float(tok, lineno) for tok in tokens[1:]]
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise ParseError(
                f"row has {len(values)} values, expected {width}", line=lineno
            )
        ids.append(tokens[0])
        rows.append(values)
    if not rows:
        raise ParseError("no vector rows found")
    if len(set(ids)) != len(ids):
        raise ParseError("duplicate item ids in vector file")
    return ids, np.asarray(rows, dtype=np.float64)


def oracle_read_gram_csv(text: str) -> tuple[list[str], list[str], np.ndarray]:
    row_ids: list[str] = []
    col_ids: list[str] | None = None
    rows: list[list[float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split(",")
        if col_ids is None:
            if tokens[0] != "cols" or len(tokens) < 2:
                raise ParseError(
                    "first data line must be 'cols,<id>,...'", line=lineno
                )
            col_ids = tokens[1:]
            continue
        if len(tokens) != len(col_ids) + 1:
            raise ParseError(
                f"row has {len(tokens) - 1} values, expected {len(col_ids)}",
                line=lineno,
            )
        row_ids.append(tokens[0])
        rows.append([_oracle_parse_float(tok, lineno) for tok in tokens[1:]])
    if col_ids is None or not rows:
        raise ParseError("no gram rows found")
    if len(set(row_ids)) != len(row_ids):
        raise ParseError("duplicate row ids in gram file")
    if len(set(col_ids)) != len(col_ids):
        raise ParseError("duplicate column ids in gram file")
    return row_ids, col_ids, np.asarray(rows, dtype=np.float64)


def oracle_read_scores_csv(text: str) -> list[tuple[str, float]]:
    out: list[tuple[str, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split(",")
        if len(tokens) != 2:
            raise ParseError(
                f"expected 'item_id,score', got {raw!r}", line=lineno
            )
        out.append((tokens[0], _oracle_parse_float(tokens[1], lineno)))
    if not out:
        raise ParseError("no score rows found")
    return out


def oracle_read_labels_csv(text: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split(",")
        if len(tokens) != 2 or tokens[1] not in ("0", "1"):
            raise ParseError(
                f"expected 'item_id,label' with label 0 or 1, got {raw!r}",
                line=lineno,
            )
        if tokens[0] in out:
            raise ParseError(f"duplicate item id {tokens[0]!r}", line=lineno)
        out[tokens[0]] = int(tokens[1])
    if not out:
        raise ParseError("no label rows found")
    return out


# The line loops of the taxonomy, label-map and plan readers from before
# they moved onto ``io._records``. The negative-count, rule and t_s checks
# the readers gained at that move are added here, so a reader and its
# oracle differ only in the line grammar: these treat ``#`` lines in the
# taxonomy files as records, and padding around a label-map or plan record
# as part of its first and last field.

def oracle_parse_isa_edges(text: str):
    edges = []
    seen = set()
    duplicates = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
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


def oracle_parse_counts(text: str) -> dict[SynsetId, int]:
    counts: dict[SynsetId, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
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


def oracle_parse_names(text: str) -> dict[SynsetId, str]:
    names: dict[SynsetId, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        synset, sep, name = line.partition("\t")
        if not sep or not synset.strip() or not name.strip():
            raise ParseError(
                f"expected 'synset<TAB>name', got {raw!r}", line=lineno
            )
        names[synset.strip()] = name.strip()
    return names


def oracle_read_label_map(text: str) -> LabelMap:
    prefix = "# hierkit-labelmap v1"
    lines = text.splitlines()
    if not lines or not lines[0].startswith(prefix):
        raise ParseError("missing label-map header", line=1)
    provenance = lines[0][len(prefix):].strip()
    classes: list[LabelClass] = []
    unassigned: list[tuple[SynsetId, int]] = []
    class_ids: set[int] = set()
    class_of: dict[SynsetId, int] = {}
    in_unassigned = False
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        if line == "#UNASSIGNED":
            in_unassigned = True
            continue
        if line.startswith("#"):
            continue
        fields = line.split("\t")
        if in_unassigned:
            if len(fields) != 2:
                raise ParseError(
                    f"expected 'synset<TAB>count', got {raw!r}", line=lineno
                )
            try:
                count = int(fields[1])
            except ValueError:
                raise ParseError(
                    f"non-numeric count {fields[1]!r}", line=lineno
                ) from None
            if count < 0:
                raise ParseError(f"negative count {count}", line=lineno)
            unassigned.append((fields[0], count))
        else:
            if len(fields) != 4:
                raise ParseError(
                    "expected 'class_id<TAB>representative<TAB>count<TAB>"
                    f"members', got {raw!r}",
                    line=lineno,
                )
            try:
                class_id = int(fields[0])
                count = int(fields[2])
            except ValueError:
                raise ParseError(
                    f"non-numeric field in {raw!r}", line=lineno
                ) from None
            if class_id < 0:
                raise ParseError(f"negative class id {class_id}", line=lineno)
            if count < 0:
                raise ParseError(f"negative count {count}", line=lineno)
            if class_id in class_ids:
                raise ParseError(f"duplicate class id {class_id}", line=lineno)
            class_ids.add(class_id)
            members = tuple(m for m in fields[3].split(",") if m)
            for member in members:
                if class_of.setdefault(member, class_id) != class_id:
                    raise ParseError(
                        f"synset {member!r} is in classes {class_of[member]} "
                        f"and {class_id}",
                        line=lineno,
                    )
            classes.append(
                LabelClass(
                    class_id=class_id,
                    representative=fields[1],
                    members=members,
                    assigned_count=count,
                )
            )
    return LabelMap(classes=classes, unassigned=unassigned, provenance=provenance)


def oracle_read_plan(text: str) -> SubsamplePlan:
    """The original loop, plus the checks that each target lies in
    [0, t_s] and each class id appears once (a scan of the entries so far)."""
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
    if rule != "shuffle-v1":
        raise ParseError(f"unknown selection rule {rule!r}", line=1)
    if t_s < 1:
        raise ParseError(f"plan t_s must be >= 1, got {t_s}", line=1)
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
        if not 0 <= target <= t_s:
            raise ParseError(
                f"target {target} is outside [0, t_s={t_s}]", line=lineno
            )
        if line_seed != seed:
            raise ParseError("per-line seed differs from header", line=lineno)
        if any(entry.class_id == class_id for entry in entries):
            raise ParseError(f"duplicate class id {class_id}", line=lineno)
        entries.append(PlanEntry(class_id=class_id, target_count=target))
    return SubsamplePlan(entries=entries, t_s=t_s, seed=seed)


# The library's original CSV writers, kept verbatim: one ``fmt`` call per
# numpy scalar.

def _oracle_fmt(value: float) -> str:
    return repr(float(value))


def oracle_write_frames_csv(frames: np.ndarray) -> str:
    arr = np.asarray(frames, dtype=np.float64)
    return "\n".join(
        ",".join(_oracle_fmt(v) for v in row) for row in arr
    ) + "\n"


def oracle_write_vectors_csv(ids: list[str], vectors: np.ndarray,
                             header: str | None = None) -> str:
    arr = np.asarray(vectors, dtype=np.float64)
    lines = [f"# {header}"] if header else []
    lines.extend(
        item_id + "," + ",".join(_oracle_fmt(v) for v in row)
        for item_id, row in zip(ids, arr)
    )
    return "\n".join(lines) + "\n"


def oracle_write_gram_csv(row_ids: list[str], col_ids: list[str],
                          values: np.ndarray, header: str | None = None) -> str:
    arr = np.asarray(values, dtype=np.float64)
    lines = [f"# {header}"] if header else []
    lines.append("cols," + ",".join(col_ids))
    lines.extend(
        row_id + "," + ",".join(_oracle_fmt(v) for v in row)
        for row_id, row in zip(row_ids, arr)
    )
    return "\n".join(lines) + "\n"
