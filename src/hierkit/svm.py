"""Exponential chi-squared kernel and a dual soft-margin SVM solver.

The solver works on a precomputed Gram matrix and runs pairwise updates on
the most violating pair of dual variables until the maximal KKT violation
drops under a tolerance. It is written to be checkable against a generic
convex-QP solution of the same dual. Matrix inputs pass encoding.as_matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .encoding import as_matrix
from .errors import ContractViolation, HierkitWarning
from .parallel import map_chunks

# added to every chi-squared denominator, so coincident zero bins give 0
CHI2_EPSILON = 1e-10
KKT_TOL = 1e-3
MAX_PAIR_UPDATES = 100_000
# Elements per chi-squared scratch buffer (256 KiB of float64): a block
# holds CHI2_BLOCK // d columns. Measured fastest from d=64 to d=13000;
# smaller blocks pay numpy call overhead, larger ones spill the cache.
CHI2_BLOCK = 32768


@dataclass
class SvmModel:
    alpha: np.ndarray      # dual coefficients, 0 <= alpha_i <= C up to
                           # rounding (see io.ALPHA_SLACK)
    labels: np.ndarray     # +-1 per training item
    bias: float
    C: float
    train_ids: list[str] | None = None

    @property
    def coef(self) -> np.ndarray:
        """Support coefficients alpha_i * y_i, full training length."""
        return self.alpha * self.labels


def chi2_distances(x, y=None) -> np.ndarray:
    """Pairwise chi-squared distances sum_m (x_m-y_m)^2 / (x_m+y_m+eps),
    eps = ``CHI2_EPSILON``.

    Components must be non-negative (l1-normalized histograms expected) and
    small enough that their squares stay finite, so no sum or square
    overflows. Large inputs are computed in row chunks on several CPUs
    (``parallel.map_chunks``) with the same bits.
    """
    a, a_low, a_high = as_matrix(x, "X")
    b, b_low, b_high = (a, a_low, a_high) if y is None else as_matrix(y, "Y")
    if a.shape[1] != b.shape[1]:
        raise ContractViolation(
            f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    if min(a_low, b_low) < 0:
        raise ContractViolation("chi-squared inputs must be non-negative")
    peak = max(a_high, b_high)
    if peak * peak == math.inf:
        raise ContractViolation(
            f"chi-squared input {peak!r} overflows when squared"
        )
    n, m = a.shape[0], b.shape[0]
    symmetric = y is None
    # columns computed per row: the upper triangle only when symmetric
    row_cost = np.arange(n, 0, -1) if symmetric else np.full(n, m)
    blocks = map_chunks(
        partial(_chi2_rows, a, b, symmetric),
        int(row_cost.sum()) * a.shape[1],
        partial(_balanced_edges, row_cost),
    )
    out = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    if symmetric:
        # (a-b)^2 and a+b are exact under swapping, so the upper triangle
        # is mirrored bit for bit
        _mirror_upper(out)
    return out


def _mirror_upper(square: np.ndarray) -> None:
    """Copy the strict upper triangle onto the lower one, in place."""
    for i in range(square.shape[0] - 1):
        square[i + 1:, i] = square[i, i + 1:]


def _balanced_edges(cost: np.ndarray, parts: int) -> list[int]:
    """Row edges cutting rows of the given cost into ``parts`` runs of
    near-equal total cost."""
    total = np.cumsum(cost)
    cuts = np.searchsorted(total, total[-1] * np.arange(1, parts) / parts) + 1
    return [0, *cuts.tolist(), len(cost)]


def _chi2_rows(a: np.ndarray, b: np.ndarray, symmetric: bool,
               lo: int, hi: int) -> np.ndarray:
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
            d += CHI2_EPSILON
            t /= d
            t.sum(axis=1, out=row[j0:j1])
    return out


def chi2_kernel(x, y=None, *,
                gamma: float | None = None) -> tuple[np.ndarray, float]:
    """K[i][j] = exp(-gamma * chi2(x_i, y_j)) and the gamma used; 1.0
    exactly on a square Gram's diagonal.

    Without ``gamma`` the Gram must be square (no ``y``) and gamma is the
    bandwidth heuristic 1 / mean chi-squared distance over distinct pairs,
    taken from the same distance pass; it falls back to 1.0 for one item
    or coincident vectors. Rows against a training set (``y`` given) must
    reuse the training Gram's gamma.
    """
    if gamma is None:
        if y is not None:
            raise ContractViolation(
                "gamma is required for kernel rows against another set"
            )
    elif not (math.isfinite(gamma) and gamma > 0):
        raise ContractViolation(f"gamma must be finite and > 0, got {gamma}")
    dists = chi2_distances(x, y)
    if gamma is None:
        n = dists.shape[0]
        # sum the strict upper triangle without a copy: zero the rest in
        # place (the diagonal is exactly 0 already), then mirror it back
        for i in range(n):
            dists[i, :i + 1] = 0.0
        mean = float(dists.sum()) / (n * (n - 1) / 2) if n > 1 else 0.0
        _mirror_upper(dists)
        gamma = 1.0 / mean if mean > 0 else 1.0
    dists *= -gamma
    return np.exp(dists, out=dists), gamma


def _violating_pair(y: np.ndarray, f0: np.ndarray, alpha: np.ndarray,
                    C: float) -> tuple[int, int, float]:
    """The maximal violating pair and its gap m - M: i maximizes y - f0
    where alpha_i y_i can still grow, j minimizes it where alpha_j y_j can
    still shrink (first index on ties)."""
    neg_e = y - f0
    up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
    down = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < C))
    i = int(np.flatnonzero(up)[np.argmax(neg_e[up])])
    j = int(np.flatnonzero(down)[np.argmin(neg_e[down])])
    return i, j, float(neg_e[i] - neg_e[j])


def _symmetric(K: np.ndarray) -> bool:
    """``np.allclose(K, K.T, atol=1e-10)``, one block of rows against the
    matching block of columns at a time: temporaries hold about
    ``CHI2_BLOCK`` elements, never a Gram."""
    step = max(1, CHI2_BLOCK // K.shape[0])
    for r0 in range(0, K.shape[0], step):
        rows, cols = K[r0:r0 + step], K[:, r0:r0 + step].T
        if not np.all(np.abs(rows - cols) <= 1e-10 + 1e-5 * np.abs(cols)):
            return False
    return True


def train_kernel_svm(gram, labels, C: float,
                     train_ids: list[str] | None = None) -> SvmModel:
    """Solve the dual soft-margin problem on a precomputed Gram matrix.

    Repeatedly picks the maximally violating pair of dual variables and
    solves the two-variable subproblem analytically, stopping when the
    violation gap falls under ``KKT_TOL``. A fit that stops with the gap
    still at or above ``KKT_TOL`` (``MAX_PAIR_UPDATES`` pair updates ran out,
    the pair's feasible interval is empty, or an update changed neither
    alpha) warns with a ``HierkitWarning``. When alpha_j is clipped to a
    bound that comes from alpha_i's box, alpha_i is set exactly to 0 or C.
    The box constraint 0 <= alpha <= C holds up to rounding: a pair update
    can overshoot it by about 1e-14, which ``io.ALPHA_SLACK`` tolerates when
    a model is read back.
    """
    K = as_matrix(gram, "gram")[0]
    n = K.shape[0]
    if K.shape[1] != n:
        raise ContractViolation(f"gram must be square, got {K.shape}")
    if not _symmetric(K):
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

    for _ in range(MAX_PAIR_UPDATES):
        i, j, gap = _violating_pair(y, f0, alpha, C)
        if gap < KKT_TOL:
            break

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
        # a bound inside (0, C) is where alpha_i reaches 0 or C; put it
        # there exactly, or its rounding residue keeps i violating and the
        # same pair is picked again with a step below one ulp
        if aj == low and low > 0.0:
            ai = 0.0 if y[i] != y[j] else C
        elif aj == high and high < C:
            ai = C if y[i] != y[j] else 0.0
        else:
            ai = ai_old + y[i] * y[j] * (aj_old - aj)
        if ai == ai_old and aj == aj_old:
            break
        alpha[i], alpha[j] = ai, aj
        f0 += (ai - ai_old) * y[i] * K[i] + (aj - aj_old) * y[j] * K[j]

    i, j, gap = _violating_pair(y, f0, alpha, C)
    if not gap < KKT_TOL:
        warnings.warn(
            f"train_kernel_svm: not converged, KKT gap {gap:.3g} >= tol "
            f"{KKT_TOL:g} (max_updates={MAX_PAIR_UPDATES})",
            HierkitWarning,
        )
    neg_e = y - f0
    free = (alpha > 1e-8) & (alpha < C - 1e-8)
    if np.any(free):
        bias = float(np.mean(neg_e[free]))
    else:
        bias = float((neg_e[i] + neg_e[j]) / 2.0)
    return SvmModel(alpha=alpha, labels=y, bias=bias, C=C, train_ids=train_ids)


def kkt_violation(model: SvmModel, gram) -> float:
    """Maximal violating-pair gap m - M; at most ``KKT_TOL`` after training."""
    K = as_matrix(gram, "gram")[0]
    f0 = K @ model.coef
    return _violating_pair(model.labels, f0, model.alpha, model.C)[2]


def svm_score(model: SvmModel, gram_rows) -> np.ndarray:
    """Decision values: score_j = sum_i alpha_i y_i K(test_j, train_i) + b,
    one product per row: a batched ``rows @ coef`` may round differently."""
    rows = as_matrix(gram_rows, "gram_rows")[0]
    if rows.shape[1] != model.alpha.shape[0]:
        raise ContractViolation(
            f"gram_rows has {rows.shape[1]} columns, model expects "
            f"{model.alpha.shape[0]}"
        )
    coef = model.coef
    return np.array([row @ coef for row in rows]) + model.bias
