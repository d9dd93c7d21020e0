"""Exponential chi-squared kernel and a dual soft-margin SVM solver.

The solver works on a precomputed Gram matrix and runs pairwise updates on
the most violating pair of dual variables until the maximal KKT violation
drops under a tolerance. It is written to be checkable against a generic
convex-QP solution of the same dual.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ContractViolation
from .parallel import map_chunks

DEFAULT_EPSILON = 1e-10
KKT_TOL = 1e-3
MAX_PAIR_UPDATES = 100_000
# Elements per chi-squared scratch buffer (256 KiB of float64): a block
# holds CHI2_BLOCK // d columns. Measured fastest from d=64 to d=13000;
# smaller blocks pay numpy call overhead, larger ones spill the cache.
CHI2_BLOCK = 32768


@dataclass
class SvmModel:
    alpha: np.ndarray      # dual coefficients, 0 <= alpha_i <= C
    labels: np.ndarray     # +-1 per training item
    bias: float
    C: float
    train_ids: list[str] | None = None

    @property
    def coef(self) -> np.ndarray:
        """Support coefficients alpha_i * y_i, full training length."""
        return self.alpha * self.labels


def _as_matrix(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ContractViolation(f"{name} must be non-empty 2-D")
    if not np.all(np.isfinite(arr)):
        raise ContractViolation(f"{name} contains non-finite values")
    return arr


def chi2_distances(x, y=None, epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """Pairwise chi-squared distances sum_m (x_m-y_m)^2 / (x_m+y_m+eps).

    Components must be non-negative (l1-normalized histograms expected) and
    small enough that their squares stay finite, so no sum or square
    overflows. Terms with a zero denominator are treated as zero, so
    epsilon=0 is usable on inputs without coincident zero bins. Large
    inputs are computed in row chunks on several CPUs
    (``parallel.map_chunks``) with the same bits.
    """
    a = _as_matrix(x, "X")
    b = a if y is None else _as_matrix(y, "Y")
    if a.shape[1] != b.shape[1]:
        raise ContractViolation(
            f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    if np.any(a < 0) or np.any(b < 0):
        raise ContractViolation("chi-squared inputs must be non-negative")
    peak = float(max(a.max(), b.max()))
    if peak * peak == math.inf:
        raise ContractViolation(
            f"chi-squared input {peak!r} overflows when squared"
        )
    if not epsilon >= 0:
        raise ContractViolation(f"epsilon must be >= 0, got {epsilon}")
    n, m = a.shape[0], b.shape[0]
    symmetric = y is None
    # columns computed per row: the upper triangle only when symmetric
    row_cost = np.arange(n, 0, -1) if symmetric else np.full(n, m)
    blocks = map_chunks(
        partial(_chi2_rows, a, b, symmetric, epsilon),
        int(row_cost.sum()) * a.shape[1],
        partial(_balanced_edges, row_cost),
    )
    out = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    if symmetric:
        # (a-b)^2 and a+b are exact under swapping, so the upper triangle
        # is mirrored bit for bit
        for i in range(n - 1):
            out[i + 1:, i] = out[i, i + 1:]
    return out


def _balanced_edges(cost: np.ndarray, parts: int) -> list[int]:
    """Row edges cutting rows of the given cost into ``parts`` runs of
    near-equal total cost."""
    total = np.cumsum(cost)
    cuts = np.searchsorted(total, total[-1] * np.arange(1, parts) / parts) + 1
    return [0, *cuts.tolist(), len(cost)]


def _chi2_rows(a: np.ndarray, b: np.ndarray, symmetric: bool,
               epsilon: float, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of the distance matrix; when symmetric, only the
    columns from the diagonal on are filled."""
    m = b.shape[0]
    out = np.empty((hi - lo, m), dtype=np.float64)
    width = min(max(1, CHI2_BLOCK // a.shape[1]), m)
    terms = np.empty((width, a.shape[1]), dtype=np.float64)
    denom = np.empty_like(terms)
    for i in range(lo, hi):
        row = out[i - lo]
        for j0 in range(i if symmetric else 0, m, width):
            j1 = min(j0 + width, m)
            t, d = terms[: j1 - j0], denom[: j1 - j0]
            np.subtract(a[i], b[j0:j1], out=t)
            np.square(t, out=t)
            np.add(a[i], b[j0:j1], out=d)
            if epsilon > 0:
                d += epsilon
                t /= d
            else:  # a zero denominator means a coincident zero bin: term 0
                np.divide(t, d, out=t, where=d > 0.0)
            t.sum(axis=1, out=row[j0:j1])
    return out


def chi2_kernel(x, y=None, *, gamma: float,
                epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """K[i][j] = exp(-gamma * chi2(x_i, y_j)); 1.0 exactly on the diagonal."""
    if not (math.isfinite(gamma) and gamma > 0):
        raise ContractViolation(f"gamma must be finite and > 0, got {gamma}")
    return np.exp(-gamma * chi2_distances(x, y, epsilon=epsilon))


def mean_chi2_gamma(x, epsilon: float = DEFAULT_EPSILON) -> float:
    """Bandwidth heuristic: 1 / mean pairwise chi-squared distance.

    Falls back to 1.0 when all vectors coincide.
    """
    a = _as_matrix(x, "X")
    if a.shape[0] < 2:
        return 1.0
    return gamma_from_distances(chi2_distances(a, epsilon=epsilon))


def gamma_from_distances(dists: np.ndarray) -> float:
    """1 / mean of the strict upper triangle of a square distance matrix.

    Falls back to 1.0 for fewer than two items or an all-zero mean.
    """
    n = dists.shape[0]
    if n < 2:
        return 1.0
    total = float(np.triu(dists, k=1).sum())
    mean = total / (n * (n - 1) / 2)
    return 1.0 / mean if mean > 0 else 1.0


def train_kernel_svm(gram, labels, C: float,
                     tol: float = KKT_TOL,
                     max_updates: int = MAX_PAIR_UPDATES,
                     train_ids: list[str] | None = None) -> SvmModel:
    """Solve the dual soft-margin problem on a precomputed Gram matrix.

    Repeatedly picks the maximally violating pair of dual variables and
    solves the two-variable subproblem analytically, stopping when the
    violation gap falls under ``tol``. A fit that stops with the gap still
    at or above ``tol`` (``max_updates`` pair updates ran out, or the pair's
    feasible step vanished) warns with a ``RuntimeWarning``. The box
    constraint 0 <= alpha <= C holds by construction and sum(alpha_i y_i)
    stays at zero exactly.
    """
    K = _as_matrix(gram, "gram")
    n = K.shape[0]
    if K.shape[1] != n:
        raise ContractViolation(f"gram must be square, got {K.shape}")
    if not np.allclose(K, K.T, atol=1e-10):
        raise ContractViolation("gram matrix is not symmetric")
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != (n,):
        raise ContractViolation(
            f"labels length {y.shape} does not match gram size {n}"
        )
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ContractViolation("labels must be -1 or +1")
    if np.all(y == y[0]):
        raise ContractViolation("need at least one item of each label")
    if not (math.isfinite(C) and C > 0):
        raise ContractViolation(f"C must be finite and > 0, got {C}")

    alpha = np.zeros(n)
    # f0_i = sum_j alpha_j y_j K_ij, the bias-free decision value
    f0 = np.zeros(n)

    def up_mask():
        return ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))

    def down_mask():
        return ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < C))

    for _ in range(max_updates):
        neg_e = y - f0  # -E0_t = y_t - f0_t
        up = up_mask()
        down = down_mask()
        m_val = np.max(neg_e[up])
        big_m = np.min(neg_e[down])
        if m_val - big_m < tol:
            break
        i = int(np.flatnonzero(up)[np.argmax(neg_e[up])])
        j = int(np.flatnonzero(down)[np.argmin(neg_e[down])])

        # analytic two-variable step (Platt), biasless errors E0 = f0 - y
        if y[i] != y[j]:
            low = max(0.0, alpha[j] - alpha[i])
            high = min(C, C + alpha[j] - alpha[i])
        else:
            low = max(0.0, alpha[i] + alpha[j] - C)
            high = min(C, alpha[i] + alpha[j])
        if low >= high:
            break
        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        eta = max(eta, 1e-12)
        aj_old, ai_old = alpha[j], alpha[i]
        aj = aj_old + y[j] * ((f0[i] - y[i]) - (f0[j] - y[j])) / eta
        aj = min(high, max(low, aj))
        ai = ai_old + y[i] * y[j] * (aj_old - aj)
        alpha[i], alpha[j] = ai, aj
        f0 += (ai - ai_old) * y[i] * K[i] + (aj - aj_old) * y[j] * K[j]

    neg_e = y - f0
    up = up_mask()
    down = down_mask()
    gap = float(np.max(neg_e[up]) - np.min(neg_e[down]))
    if not gap < tol:
        warnings.warn(
            f"train_kernel_svm: not converged, KKT gap {gap:.3g} >= tol "
            f"{tol:g} (max_updates={max_updates})",
            RuntimeWarning,
        )
    free = (alpha > 1e-8) & (alpha < C - 1e-8)
    if np.any(free):
        bias = float(np.mean(neg_e[free]))
    else:
        bias = float((np.max(neg_e[up]) + np.min(neg_e[down])) / 2.0)
    return SvmModel(alpha=alpha, labels=y, bias=bias, C=C, train_ids=train_ids)


def kkt_violation(model: SvmModel, gram) -> float:
    """Maximal violating-pair gap m - M; at most ``tol`` after training."""
    K = _as_matrix(gram, "gram")
    y = model.labels
    alpha = model.alpha
    f0 = K @ model.coef
    neg_e = y - f0
    up = ((y > 0) & (alpha < model.C)) | ((y < 0) & (alpha > 0))
    down = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < model.C))
    return float(np.max(neg_e[up]) - np.min(neg_e[down]))


def svm_score(model: SvmModel, gram_rows) -> np.ndarray:
    """Decision values: score_j = sum_i alpha_i y_i K(test_j, train_i) + b."""
    rows = _as_matrix(gram_rows, "gram_rows")
    if rows.shape[1] != model.alpha.shape[0]:
        raise ContractViolation(
            f"gram_rows has {rows.shape[1]} columns, model expects "
            f"{model.alpha.shape[0]}"
        )
    return rows @ model.coef + model.bias
