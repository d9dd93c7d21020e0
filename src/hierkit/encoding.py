"""Video-level representations from per-frame feature vectors.

Two encoders are provided: average pooling with l1 normalization, and VLAD
over a seeded k-means codebook. Both treat the frame set as a multiset:
rows are canonicalized (lexicographically sorted) before any floating-point
reduction, so results are bitwise invariant under frame permutation and
independent of the degree of parallelism upstream.

Nearest centroids come from a matrix product per row block,
|a|^2 + |b|^2 - 2 a.b, and are confirmed by the exact blocked distances
wherever rounding could decide them (see _screen); every distance an
output reads is the exact one, so neither the BLAS nor its thread count
changes an output bit. Every exact distance comes from one blocked kernel
(_pairwise_sq_dists), and every per-cluster sum from one stable grouping
(_clusters) that keeps row order, and so the summation bits. One check,
as_matrix, admits every matrix here and in svm.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, HierkitWarning

KMEANS_MAX_ITER = 100
KMEANS_TOL = 1e-6
# Lloyd's objective never rises; a rise beyond this fraction of it is more
# than the rounding of a sum of n float64 costs, and is reported.
KMEANS_RISE_TOL = 1e-9
# Elements in the one scratch block each _pairwise_sq_dists call reuses
# for its row blocks (512 KiB of float64), and in each screen _nearest
# computes for a block of rows.
# Measured on a 2-vCPU Xeon over n x k x d from 400x64x128 to 4800x64x128
# and 2000x64x1000: 2**15 and 2**16 were fastest and within noise of each
# other; 2**12 and 2**20 slower.
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


def as_matrix(x, name: str) -> tuple[np.ndarray, float, float]:
    """``x`` as a non-empty, finite 2-D float64 array with its least and
    greatest value: the matrix check of encoding and svm. min and max meet
    any NaN or infinity and, unlike np.isfinite, make no (n, d) temporary."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ContractViolation(
            f"{name} must be non-empty 2-D, got shape {arr.shape}"
        )
    low, high = float(arr.min()), float(arr.max())
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ContractViolation(f"{name} contains non-finite values")
    return arr, low, high


def as_frame_matrix(frames) -> np.ndarray:
    """Validate and convert a frame stack to a float64 (n, d) array.

    Values must be finite and small enough that squared distances between
    rows, summed over all rows, stay finite: 4 * n * d * max|x|^2 must not
    overflow.
    """
    arr, low, high = as_matrix(frames, "frame matrix")
    peak = max(high, -low)
    if 4.0 * arr.size * peak * peak == math.inf:
        raise ContractViolation(
            f"frame value {peak!r} overflows squared distances"
        )
    return arr


def _canonical_rows(arr: np.ndarray) -> np.ndarray:
    """Sort rows lexicographically so reductions ignore frame order.

    Without a tie in column 0 its one stable sort fixes the lexicographic
    order; a tie (0.0 and -0.0 tie too) sorts on every column.
    """
    out = arr[np.argsort(arr[:, 0], kind="stable")]
    if np.any(out[1:, 0] == out[:-1, 0]):
        out = arr[np.lexsort(arr.T[::-1])]
    return out


def l1_normalize(vector) -> np.ndarray:
    """Scale so absolute components sum to one; zero vectors pass through."""
    v = np.asarray(vector, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ContractViolation("vector contains non-finite values")
    norm = np.sum(np.abs(v))
    if norm == 0.0:
        warnings.warn("l1_normalize: zero vector left unchanged", HierkitWarning)
        return v.copy()
    return v / norm


def average_pool(frames) -> np.ndarray:
    """Componentwise mean over frames followed by l1 normalization."""
    arr = _canonical_rows(as_frame_matrix(frames))
    return l1_normalize(arr.mean(axis=0))


def kmeans_fit(vectors, k: int, seed: int) -> Codebook:
    """Lloyd's algorithm from a seeded, distance-weighted initialization.

    Iterations stop when no centroid moves more than 1e-6, or after 100
    rounds with a HierkitWarning. A cluster that empties is repaired by
    seizing the point currently farthest from its own centroid, among the
    points whose cluster keeps another member; so a repair never takes a
    point seized in the same round, and always finds one when n >= k.
    The objective (summed squared distances) never rises in Lloyd's
    algorithm; a rise beyond KMEANS_RISE_TOL of it warns with a
    HierkitWarning. Deterministic in (vectors, k, seed).
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
        assign = _nearest(data, centroids)
        point_cost = _point_costs(data, centroids, assign)

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
                HierkitWarning,
            )
        prev_objective = objective

        new_centroids = np.array(
            [data[rows].mean(axis=0) for rows in _clusters(assign, k)]
        )
        movement = float(np.max(np.abs(new_centroids - centroids)))
        centroids = new_centroids
        if movement < KMEANS_TOL:
            break
    else:
        warnings.warn(
            f"kmeans_fit: not converged after {KMEANS_MAX_ITER} rounds "
            f"(last centroid movement {movement:.3g})",
            HierkitWarning,
        )
    return Codebook(centroids=centroids, seed=seed)


def _plus_plus_init(
    data: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    n = data.shape[0]
    data_sq = _sq_norms(data)
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
        # only a row whose screened distance may be below closest can lower it
        centre = data[pick][None, :]
        low, tau = _screen(data, data_sq, centre)
        low = low[:, 0]
        low -= tau
        rows = np.flatnonzero(low <= closest)
        closest[rows] = np.minimum(
            closest[rows], _pairwise_sq_dists(data, centre, rows)[:, 0]
        )
    return data[chosen].copy()


def _sq_norms(a: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, a)


def _screen(
    a: np.ndarray, a_sq: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Squared distances from one matrix product, and a bound on their error.

    Returns g, (len(a), len(b)), g = |a_i|^2 + |b_j|^2 - 2 a_i.b_j with
    a_sq = _sq_norms(a), and tau, (len(a),), such that every g[i, j] is
    within tau[i] of e[i, j], the exact kernel's _pairwise_sq_dists(a, b),
    even after one more rounded addition or subtraction of tau.

    The bound, with u = 2**-53 and gamma_n = n*u / (1 - n*u) (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.1):
    a float64 sum of d products, in any order and with or without fused
    multiply-adds, is within gamma_d of the same sum of |products|, and
    each product that underflows adds at most 2**-1075 (IEEE gradual
    underflow). Write A = |a_i|^2, B = |b_j|^2 and D = |a_i - b_j|^2,
    exactly, so |a_i.b_j| <= (A + B) / 2 and D <= 2 (A + B).

    * g: the norms are within gamma_d A and gamma_d B, the product within
      gamma_d (A + B) / 2, doubling is exact, and the two additions round by
      u of values at most 2 (A + B)(1 + gamma_d); so |g - D| <= 2
      gamma_{d+2} (A + B).
    * e rounds d differences, d squares and a d-term sum:
      |e - D| <= gamma_{d+2} D <= 2 gamma_{d+2} (A + B).
    * Underflow: 2**-1075 at most for each of the d products of each norm
      and of e, twice that for those of 2 a_i.b_j: under 3d * 2**-1074.

    So |g - e| <= 4 gamma_{d+2} (A + B) + 3d * 2**-1074. tau takes
    4 gamma_{d+4} (A + max_j B) + (d + 4) * 2**-1072: the margin, at least
    8u (A + B) and (d + 16) * 2**-1074, covers tau's own rounding from the
    computed norms and the one rounding of g - tau or min g + 2 tau in the
    callers' comparisons. Callers use g only to rule out what the exact
    distances could not give; every value they keep is an exact e.
    """
    d = a.shape[1]
    b_sq = _sq_norms(b)
    g = a @ b.T
    g *= -2.0
    g += a_sq[:, None]
    g += b_sq
    u = 2.0**-53
    gamma = (d + 4) * u / (1.0 - (d + 4) * u)
    tau = a_sq + b_sq.max()
    tau *= 4.0 * gamma
    tau += (d + 4) * 2.0**-1072
    return g, tau


def _nearest(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.argmin(_pairwise_sq_dists(a, b), axis=1), exact distances only
    for the rows the screen leaves open.

    A row's nearest column e_j* has g_j* - tau <= e_j* <= e_l <= g_l + tau
    for every l, so g_j* <= min g + 2 tau. A row with one such column is
    settled by it; any other gets its exact row, ties to the lowest index.
    The screen runs on blocks of KMEANS_BLOCK // len(b) rows of a, so each
    g holds at most KMEANS_BLOCK elements, or one row.
    """
    a_sq = _sq_norms(a)
    assign = np.empty(a.shape[0], dtype=np.intp)
    step = max(1, KMEANS_BLOCK // b.shape[0])
    for lo in range(0, a.shape[0], step):
        g, tau = _screen(a[lo:lo + step], a_sq[lo:lo + step], b)
        assign[lo:lo + step] = np.argmin(g, axis=1)
        tau *= 2.0
        tau += g.min(axis=1)
        open_rows = lo + np.flatnonzero(
            np.count_nonzero(g <= tau[:, None], axis=1) > 1
        )
        if open_rows.size:
            assign[open_rows] = np.argmin(
                _pairwise_sq_dists(a, b, open_rows), axis=1
            )
    return assign


def _clusters(assign: np.ndarray, k: int) -> list[np.ndarray]:
    """Each of the k clusters' row indices, ascending, from one stable sort:
    the rows, and so the bits of their sums, of a mask assign == cluster."""
    edges = np.cumsum(np.bincount(assign, minlength=k))[:-1]
    return np.split(np.argsort(assign, kind="stable"), edges)


def _point_costs(
    a: np.ndarray, b: np.ndarray, assign: np.ndarray
) -> np.ndarray:
    """_pairwise_sq_dists(a, b)[i, assign[i]] for every row i, bit for bit."""
    cost = np.empty(a.shape[0], dtype=np.float64)
    for c, rows in enumerate(_clusters(assign, b.shape[0])):
        cost[rows] = _pairwise_sq_dists(a, b[c:c + 1], rows)[:, 0]
    return cost


def _pairwise_sq_dists(
    a: np.ndarray, b: np.ndarray, rows: np.ndarray | None = None
) -> np.ndarray:
    """Squared Euclidean distances, (len(rows), len(b)), in row blocks.

    rows indexes a (all of it by default). Each block's (rows, len(b), d)
    difference tensor holds at most KMEANS_BLOCK elements, or one row of a,
    in one scratch block the call reuses, so scratch memory grows with
    neither len(a) nor len(rows). Every distance is one einsum sum over its
    whole row (see _sum_squares), whatever block it falls in.
    """
    if rows is None:
        rows = np.arange(a.shape[0])
    n, k, d = rows.shape[0], b.shape[0], b.shape[1]
    out = np.empty((n, k), dtype=np.float64)
    step = max(1, KMEANS_BLOCK // (k * d))
    scratch = np.empty((min(step, n), k, d), dtype=np.float64)
    for i in range(0, n, step):
        diff = scratch[:min(step, n - i)]
        np.subtract(a[rows[i:i + step], None, :], b[None, :, :], out=diff)
        _sum_squares(diff, out[i:i + step])
    return out


def _sum_squares(diff: np.ndarray, out: np.ndarray) -> None:
    """out[...] = the sums of diff**2 over its last axis.

    einsum sums each row of a block in one pass over the row, but a block
    of one row (one pair of points) in buffered chunks of 8192 elements; a
    lone row is summed beside a zero row, so that its bits do not depend on
    the block it fell in.
    """
    if diff.size == diff.shape[-1]:
        pair = np.zeros((2, diff.shape[-1]), dtype=np.float64)
        pair[0] = diff.reshape(-1)
        out[...] = np.einsum("ij,ij->i", pair, pair)[0]
    else:
        np.einsum("...k,...k->...", diff, diff, out=out)


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
    assign = _nearest(arr, codebook.centroids)
    blocks = np.zeros((k, d), dtype=np.float64)
    for cluster, rows in enumerate(_clusters(assign, k)):
        blocks[cluster] = (arr[rows] - codebook.centroids[cluster]).sum(axis=0)
    flat = blocks.reshape(k * d)
    flat = np.sign(flat) * np.sqrt(np.abs(flat))
    norm = float(np.sqrt(np.dot(flat, flat)))
    if norm == 0.0:
        warnings.warn("vlad_encode: zero aggregate", HierkitWarning)
        return flat
    return flat / norm
