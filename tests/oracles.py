"""Deliberately naive reference implementations.

Everything here trades efficiency for obviousness: full rescans instead of
memoization, one merge per pass, recursion over explicit traversal state.
The library must agree with these on random inputs; none of the library's
traversal helpers are reused.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from hierkit.labelmap import LabelMap, from_members
from hierkit.taxonomy import Taxonomy


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
    tree: SimpleTree,
    original_counts: dict[str, int],
    t_p: int,
    provenance: str,
) -> LabelMap:
    unassigned = []
    members = {}
    counts = {}
    for node_id in tree.ids():
        if node_id == tree.root and tree.count[node_id] < t_p:
            unassigned = [
                (m, original_counts[m])
                for m in sorted(tree.members[node_id])
                if original_counts[m] > 0
            ]
            continue
        members[node_id] = tree.members[node_id]
        counts[node_id] = tree.count[node_id]
    return from_members(members, counts, unassigned, provenance)


def oracle_bottom_up(
    taxonomy: Taxonomy, t_b: int, t_p: int, provenance: str
) -> LabelMap:
    tree = SimpleTree(taxonomy)
    original = dict(tree.count)
    oracle_roll(tree)
    oracle_bind(tree, t_b)
    oracle_promote(tree, t_p)
    return oracle_label_map(tree, original, t_p, provenance)


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
