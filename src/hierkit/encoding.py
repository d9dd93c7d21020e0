"""Video-level representations from per-frame feature vectors.

Two encoders are provided: average pooling with l1 normalization, and VLAD
over a seeded k-means codebook. Both treat the frame set as a multiset:
rows are canonicalized (lexicographically sorted) before any floating-point
reduction, so results are bitwise invariant under frame permutation and
independent of the degree of parallelism upstream.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation

KMEANS_MAX_ITER = 100
KMEANS_TOL = 1e-6
# Lloyd's objective never rises; a rise beyond this fraction of it is more
# than the rounding of a sum of n float64 costs, and is reported.
KMEANS_RISE_TOL = 1e-9
# Elements in one row block's difference tensor in _pairwise_sq_dists
# (512 KiB of float64). Measured on a 2-vCPU Xeon over n x k x d from
# 400x64x128 to 4800x64x128 and 2000x64x1000: 2**15 and 2**16 were
# fastest and within noise of each other; 2**12 and 2**20 were slower.
KMEANS_BLOCK = 1 << 16


@dataclass
class Codebook:
    centroids: np.ndarray  # (k, d)
    seed: int

    @property
    def k(self) -> int:
        return int(self.centroids.shape[0])

    @property
    def dim(self) -> int:
        return int(self.centroids.shape[1])


def as_frame_matrix(frames) -> np.ndarray:
    """Validate and convert a frame stack to a float64 (n, d) array.

    Values must be finite and small enough that squared distances between
    rows, summed over all rows, stay finite: 4 * n * d * max|x|^2 must not
    overflow.
    """
    arr = np.asarray(frames, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ContractViolation(
            f"frame matrix must be non-empty 2-D, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ContractViolation("frame matrix contains non-finite values")
    peak = float(np.abs(arr).max())
    if 4.0 * arr.size * peak * peak == math.inf:
        raise ContractViolation(
            f"frame value {peak!r} overflows squared distances"
        )
    return arr


def _canonical_rows(arr: np.ndarray) -> np.ndarray:
    """Sort rows lexicographically so reductions ignore frame order."""
    order = np.lexsort(arr.T[::-1])
    return arr[order]


def l1_normalize(vector) -> np.ndarray:
    """Scale so absolute components sum to one; zero vectors pass through."""
    v = np.asarray(vector, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ContractViolation("vector contains non-finite values")
    norm = np.sum(np.abs(v))
    if norm == 0.0:
        warnings.warn("l1_normalize: zero vector left unchanged", RuntimeWarning)
        return v.copy()
    return v / norm


def average_pool(frames) -> np.ndarray:
    """Componentwise mean over frames followed by l1 normalization."""
    arr = _canonical_rows(as_frame_matrix(frames))
    return l1_normalize(arr.mean(axis=0))


def kmeans_fit(vectors, k: int, seed: int) -> Codebook:
    """Lloyd's algorithm from a seeded, distance-weighted initialization.

    Iterations stop when no centroid moves more than 1e-6, or after 100
    rounds with a RuntimeWarning. A cluster that empties is repaired by
    seizing the point currently farthest from its own centroid, among the
    points whose cluster keeps another member; so a repair never takes a
    point seized in the same round, and always finds one when n >= k.
    The objective (summed squared distances) never rises in Lloyd's
    algorithm; a rise beyond KMEANS_RISE_TOL of it warns with a
    RuntimeWarning. Deterministic in (vectors, k, seed).
    """
    data = as_frame_matrix(vectors)
    n = data.shape[0]
    if k < 1:
        raise ContractViolation(f"k must be >= 1, got {k}")
    if n < k:
        raise ContractViolation(f"need at least k={k} vectors, got {n}")
    if not 0 <= seed < 2**64:
        raise ContractViolation("seed must fit in 64 unsigned bits")

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    centroids = _plus_plus_init(data, k, rng)

    prev_objective = np.inf
    for _ in range(KMEANS_MAX_ITER):
        dist = _pairwise_sq_dists(data, centroids)
        assign = np.argmin(dist, axis=1)
        point_cost = dist[np.arange(n), assign]

        sizes = np.bincount(assign, minlength=k)
        for cluster in np.flatnonzero(sizes == 0):
            donors = np.flatnonzero(sizes[assign] > 1)
            victim = int(donors[np.argmax(point_cost[donors])])
            sizes[assign[victim]] -= 1
            sizes[cluster] = 1
            assign[victim] = cluster
            point_cost[victim] = 0.0

        objective = float(point_cost.sum())
        if objective > prev_objective * (1.0 + KMEANS_RISE_TOL):
            warnings.warn(
                f"kmeans_fit: objective rose from {prev_objective!r} to "
                f"{objective!r}, beyond rounding",
                RuntimeWarning,
            )
        prev_objective = objective

        new_centroids = np.empty_like(centroids)
        for cluster in range(k):
            new_centroids[cluster] = data[assign == cluster].mean(axis=0)
        movement = float(np.max(np.abs(new_centroids - centroids)))
        centroids = new_centroids
        if movement < KMEANS_TOL:
            break
    else:
        warnings.warn(
            f"kmeans_fit: not converged after {KMEANS_MAX_ITER} rounds "
            f"(last centroid movement {movement:.3g})",
            RuntimeWarning,
        )
    return Codebook(centroids=centroids, seed=seed)


def _plus_plus_init(
    data: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    n = data.shape[0]
    chosen = [int(rng.integers(n))]
    closest = _pairwise_sq_dists(data, data[chosen[-1]][None, :])[:, 0]
    while len(chosen) < k:
        total = float(closest.sum())
        if total > 0.0:
            probs = closest / total
            pick = int(rng.choice(n, p=probs))
        else:
            # all remaining points coincide with a centroid
            taken = set(chosen)
            pick = next(i for i in range(n) if i not in taken)
        chosen.append(pick)
        closest = np.minimum(
            closest, _pairwise_sq_dists(data, data[pick][None, :])[:, 0]
        )
    return data[chosen].copy()


def _pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, (len(a), len(b)), in row blocks.

    Each block's (rows, len(b), d) difference tensor holds at most
    KMEANS_BLOCK elements, or one row of a, so scratch memory does not grow
    with len(a). Every element is summed exactly as over the whole tensor.
    """
    out = np.empty((a.shape[0], b.shape[0]), dtype=np.float64)
    step = max(1, KMEANS_BLOCK // (b.shape[0] * b.shape[1]))
    for i in range(0, a.shape[0], step):
        diff = a[i:i + step, None, :] - b[None, :, :]
        np.einsum("ijk,ijk->ij", diff, diff, out=out[i:i + step])
    return out


def vlad_encode(frames, codebook: Codebook) -> np.ndarray:
    """Aggregate per-centroid residuals into one k*d vector.

    Each frame contributes (frame - centroid) to its nearest centroid's
    block (ties go to the lowest centroid index). Blocks are concatenated,
    passed through a signed square root, and l2-normalized globally. An
    all-zero aggregate (every frame sitting exactly on a centroid) comes
    back as zeros with a warning.
    """
    arr = _canonical_rows(as_frame_matrix(frames))
    as_frame_matrix(codebook.centroids)  # a codebook file obeys the same bounds
    if arr.shape[1] != codebook.dim:
        raise ContractViolation(
            f"frame dimension {arr.shape[1]} != codebook dimension "
            f"{codebook.dim}"
        )
    k, d = codebook.k, codebook.dim
    assign = np.argmin(_pairwise_sq_dists(arr, codebook.centroids), axis=1)
    blocks = np.zeros((k, d), dtype=np.float64)
    for cluster in range(k):
        mask = assign == cluster
        if np.any(mask):
            blocks[cluster] = (
                arr[mask] - codebook.centroids[cluster]
            ).sum(axis=0)
    flat = blocks.reshape(k * d)
    flat = np.sign(flat) * np.sqrt(np.abs(flat))
    norm = float(np.sqrt(np.dot(flat, flat)))
    if norm == 0.0:
        warnings.warn("vlad_encode: zero aggregate", RuntimeWarning)
        return flat
    return flat / norm
