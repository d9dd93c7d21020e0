"""Chi-squared kernel and dual SVM training against a QP oracle."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hierkit.svm as svm
from hierkit.encoding import Codebook, average_pool, kmeans_fit, vlad_encode
from hierkit.errors import ContractViolation
from hierkit.svm import (
    CHI2_BLOCK,
    CHI2_EPSILON,
    SvmModel,
    chi2_distances,
    chi2_kernel,
    kkt_violation,
    svm_score,
    train_kernel_svm,
)

from oracles import (
    oracle_chi2_distances,
    oracle_chi2_gamma,
    oracle_duality_gap,
    oracle_svm_dual,
)


def stall_set(n, seed):
    """Chi2 Gram and labels of n sparse 100-bin histograms, the first 20
    positive with 5% of their mass added over the first 20 bins."""
    rng = np.random.default_rng(seed)
    x = rng.gamma(0.3, size=(n, 100))
    x[:20, :20] += 0.05 * x[:20].sum(axis=1, keepdims=True) / 20
    x /= x.sum(axis=1, keepdims=True)
    y = -np.ones(n)
    y[:20] = 1.0
    return chi2_kernel(x)[0], y


def small_problem(seed):
    """Chi2 Gram of 4 to 15 random histograms of 2 to 9 bins, gamma by the
    bandwidth heuristic, and random labels."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(4, 16)), int(rng.integers(2, 10))
    x = rng.dirichlet(np.ones(d), size=n)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    assert 0 < np.sum(y > 0) < n
    return chi2_kernel(x)[0], y


def toy_set(seed=0, n_per=10):
    """Two tight histogram clusters on the 2-simplex, linearly separated."""
    rng = np.random.default_rng(seed)
    pos = rng.dirichlet([80.0, 20.0], size=n_per)
    neg = rng.dirichlet([20.0, 80.0], size=n_per)
    x = np.vstack([pos, neg])
    y = np.array([1.0] * n_per + [-1.0] * n_per)
    return x, y


class TestChi2Kernel:
    def test_self_similarity_is_exactly_one(self):
        rng = np.random.default_rng(1)
        x = rng.dirichlet(np.ones(6), size=10)
        gram, _ = chi2_kernel(x, gamma=0.7)
        np.testing.assert_array_equal(np.diag(gram), np.ones(10))

    def test_hand_computed_value(self):
        gram, gamma = chi2_kernel(
            np.array([[1.0, 0.0]]),
            np.array([[0.0, 1.0]]),
            gamma=0.5,
        )
        assert gamma == 0.5
        chi2 = 2.0 / (1.0 + CHI2_EPSILON)
        np.testing.assert_allclose(gram[0, 0], np.exp(-0.5 * chi2), rtol=1e-12)

    def test_symmetric_on_same_inputs(self):
        rng = np.random.default_rng(2)
        x = rng.dirichlet(np.ones(5), size=12)
        gram, _ = chi2_kernel(x, gamma=1.3)
        np.testing.assert_array_equal(gram, gram.T)

    def test_positive_semidefinite_on_normalized_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.dirichlet(np.ones(4), size=rng.integers(2, 15))
            gram, _ = chi2_kernel(x, gamma=float(rng.uniform(0.1, 3.0)))
            eigenvalues = np.linalg.eigvalsh(gram)
            assert eigenvalues.min() >= -1e-8

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(4)
        x = rng.dirichlet(np.ones(5), size=8)
        y = rng.dirichlet(np.ones(5), size=6)
        gram, _ = chi2_kernel(x, y, gamma=0.9)
        assert np.all(gram > 0.0)
        assert np.all(gram <= 1.0)

    def test_negative_components_rejected(self):
        """The sign check reads the least value of X and of Y."""
        good, bad = np.array([[0.5, 0.5]]), np.array([[0.5, -0.5]])
        for x, y in ((bad, None), (bad, good), (good, bad)):
            with pytest.raises(ContractViolation, match="non-negative"):
                chi2_kernel(x, y, gamma=1.0)

    def test_negative_zero_accepted(self):
        x = np.array([[-0.0, 1.0], [0.0, 1.0]])
        gram, _ = chi2_kernel(x, gamma=1.0)
        np.testing.assert_array_equal(gram, np.ones((2, 2)))
        rows, _ = chi2_kernel(x, np.array([[0.0, 1.0]]), gamma=1.0)
        np.testing.assert_array_equal(rows, np.ones((2, 1)))

    def test_dimension_mismatch_rejected(self):
        x, y = np.full((2, 3), 0.5), np.full((2, 4), 0.5)
        with pytest.raises(ContractViolation, match="dimension mismatch"):
            chi2_kernel(x, y, gamma=1.0)

    def test_gamma_required(self, monkeypatch):
        """Rows against another set need the training gamma; a bad gamma is
        rejected before any distance is computed."""
        def no_distances(*args):
            raise AssertionError("distances computed before checking gamma")

        monkeypatch.setattr(svm, "chi2_distances", no_distances)
        x = np.array([[1.0, 0.0]])
        with pytest.raises(ContractViolation, match="gamma is required"):
            chi2_kernel(x, x)
        with pytest.raises(TypeError):  # keyword only
            chi2_kernel(x, None, 0.5)
        for gamma in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ContractViolation, match="finite and > 0"):
                chi2_kernel(x, gamma=gamma)

    def test_bandwidth_heuristic_positive_and_deterministic(self):
        x, _ = toy_set()
        gram, first = chi2_kernel(x)
        assert first > 0
        assert chi2_kernel(x)[1] == first
        assert chi2_kernel(x, gamma=first)[0].tobytes() == gram.tobytes()
        # identical vectors and a single item fall back to 1.0
        assert chi2_kernel(np.ones((3, 2)))[1] == 1.0
        assert chi2_kernel(x[:1])[1] == 1.0

    @pytest.mark.parametrize("n", [1, 2, 9, 40])
    def test_matches_old_composition_bit_for_bit(self, n):
        """Gram and gamma equal oracle distances, the original gamma
        formula and np.exp, for the square Gram and for rows against it."""
        x = histograms(n, n, 30, zero_share=0.3)
        test = histograms(n + 100, 7, 30, zero_share=0.3)
        dists = oracle_chi2_distances(x)
        expected_gamma = oracle_chi2_gamma(dists)
        gram, gamma = chi2_kernel(x)
        assert gamma == expected_gamma
        assert gram.tobytes() == np.exp(-expected_gamma * dists).tobytes()
        rows, same = chi2_kernel(test, x, gamma=gamma)
        assert same == gamma
        assert rows.tobytes() == np.exp(
            -gamma * oracle_chi2_distances(test, x)).tobytes()


def histograms(seed, n, d, zero_share=0.0):
    rng = np.random.default_rng(seed)
    x = rng.dirichlet(np.ones(d), size=n)
    x[rng.random((n, d)) < zero_share] = 0.0
    return x


class TestChi2Distances:
    """The blocked loop must reproduce the per-row oracle bit for bit."""

    def check(self, x, y=None):
        got = chi2_distances(x, y)
        assert np.array_equal(got, oracle_chi2_distances(x, y))

    def test_symmetric(self):
        self.check(histograms(0, 40, 30))

    def test_rectangular(self):
        x, y = histograms(1, 25, 30), histograms(2, 40, 30)
        self.check(x, y)
        self.check(y, x)

    def test_single_row(self):
        x, y = histograms(3, 1, 9), histograms(4, 6, 9)
        self.check(x)
        self.check(x, y)
        self.check(y, x)

    @pytest.mark.parametrize("extra", [-1, 0, 1, None])
    def test_block_edges(self, extra):
        width = 4
        d = CHI2_BLOCK // width
        n = 2 * width + 1 if extra is None else width + extra
        x = histograms(5, n, d, zero_share=0.3)
        self.check(x)
        self.check(x, histograms(6, n + 2, d))
        self.check(histograms(7, 3, d), x)

    def test_coincident_zero_bins_add_nothing(self):
        x = histograms(8, 12, 10, zero_share=0.5)
        x[:, 0] = 0.0  # a bin that is zero everywhere
        np.testing.assert_allclose(chi2_distances(x),
                                   chi2_distances(x[:, 1:]), rtol=1e-14)
        self.check(x)
        self.check(x, histograms(9, 5, 10, zero_share=0.5))

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 9).flatmap(lambda d: st.tuples(
            arrays(np.float64, st.tuples(st.integers(1, 12), st.just(d)),
                   elements=st.floats(0.0, 1e100)),
            arrays(np.float64, st.tuples(st.integers(1, 12), st.just(d)),
                   elements=st.floats(0.0, 1e100)),
        )),
    )
    def test_matches_oracle_on_random_matrices(self, pair):
        x, y = pair
        self.check(x)
        self.check(x, y)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.integers(1, 9).flatmap(lambda d: st.tuples(
            arrays(np.float64, st.tuples(st.integers(1, 7), st.just(d)),
                   elements=st.floats(0.0, 1e100)),
            arrays(np.float64, st.tuples(st.integers(1, 7), st.just(d)),
                   elements=st.floats(0.0, 1e100)),
        )),
        st.sampled_from([1, 2, 3]),
    )
    def test_sharded_rows_match_serial_and_oracle_bytes(
            self, shard_across, pair, workers):
        """Symmetric and rectangular, and fewer rows than workers (down to
        one row)."""
        x, y = pair
        serial = [chi2_distances(x), chi2_distances(x, y)]
        shard_across(workers)
        sharded = [chi2_distances(x), chi2_distances(x, y)]
        oracle = [oracle_chi2_distances(x), oracle_chi2_distances(x, y)]
        for got, same, expected in zip(sharded, serial, oracle):
            assert got.tobytes() == same.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("parts", [1, 2, 3, 7])
    @pytest.mark.parametrize("n", [1, 2, 5, 160])
    def test_triangle_split_balances_upper_triangle(self, n, parts):
        cost = np.arange(n, 0, -1)
        edges = svm._balanced_edges(cost, parts)
        assert edges[0] == 0 and edges[-1] == n
        assert edges == sorted(edges) and len(edges) == parts + 1
        shares = [int(cost[lo:hi].sum()) for lo, hi in zip(edges, edges[1:])]
        assert max(shares) <= cost.sum() / parts + n

    @pytest.mark.parametrize("huge", [
        np.array([[1e308, 0.0], [0.0, 1e308]]),
        np.array([[1e155, 1.0]]),
    ])
    def test_overflowing_inputs_rejected_before_any_shard(
            self, monkeypatch, huge):
        def no_shards(*args):
            raise AssertionError("sharded before checking inputs")

        monkeypatch.setattr(svm, "map_chunks", no_shards)
        small = np.full((1, 2), 0.5)
        for x, y in ((huge, None), (huge, small), (small, huge)):
            with pytest.raises(ContractViolation, match="overflows"):
                chi2_distances(x, y)

    def test_largest_squarable_inputs_accepted(self):
        x = np.array([[1e154, 0.0], [0.0, 1e154], [1e154, 1e154]])
        dists = chi2_distances(x)
        assert np.all(np.isfinite(dists)) and dists[0, 1] == 2e154

    @pytest.mark.parametrize("n", [2, 3, 17, 37, 58])
    def test_gamma_is_inverse_mean_of_oracle_upper_triangle(self, n):
        x = histograms(n, n, 21)
        dists = oracle_chi2_distances(x)
        pairs = n * (n - 1) / 2
        expected = 1.0 / (float(np.triu(dists, k=1).sum()) / pairs)
        assert chi2_kernel(x)[1] == expected


class TestTrainSvm:
    def test_two_point_problem(self):
        gram = np.array([[1.0, -1.0], [-1.0, 1.0]])
        labels = np.array([1.0, -1.0])
        model = train_kernel_svm(gram, labels, C=100.0)
        assert np.all(model.alpha > 0)
        np.testing.assert_allclose(model.alpha, [0.5, 0.5], atol=1e-6)
        # midpoint of the two training points has zero kernel to both
        score = svm_score(model, np.array([[0.0, 0.0]]))
        np.testing.assert_allclose(score, [0.0], atol=1e-6)

    def test_separable_toy_set(self):
        x, y = toy_set()
        gram, _ = chi2_kernel(x, gamma=1.0)
        model = train_kernel_svm(gram, y, C=100.0)

        scores = svm_score(model, gram)
        assert np.all(np.sign(scores) == y)               # 100% training accuracy
        assert kkt_violation(model, gram) < 1e-3
        assert np.all(model.alpha >= 0.0)
        assert np.all(model.alpha <= 100.0)
        assert abs(np.sum(model.alpha * model.labels)) <= 1e-6

    def test_matches_qp_oracle_scores(self):
        x, y = toy_set()
        gram, _ = chi2_kernel(x, gamma=1.0)
        model = train_kernel_svm(gram, y, C=100.0)

        alpha_star, bias_star = oracle_svm_dual(gram, y, C=100.0)
        oracle_scores = gram @ (alpha_star * y) + bias_star
        np.testing.assert_allclose(
            svm_score(model, gram), oracle_scores, atol=1e-3
        )

    def test_free_support_vector_scores_its_label(self):
        x, y = toy_set(seed=5)
        gram, _ = chi2_kernel(x, gamma=1.0)
        model = train_kernel_svm(gram, y, C=100.0)
        free = (model.alpha > 1e-6) & (model.alpha < 100.0 - 1e-6)
        assert np.any(free)
        scores = svm_score(model, gram)
        np.testing.assert_allclose(scores[free], y[free], atol=1e-3)

    def test_duplicated_training_set_keeps_sign_pattern(self):
        x, y = toy_set(seed=7)
        grid = np.array([[i / 10.0, 1.0 - i / 10.0] for i in range(11)])

        gram, _ = chi2_kernel(x, gamma=1.0)
        model = train_kernel_svm(gram, y, C=100.0)
        base_signs = np.sign(svm_score(model, chi2_kernel(grid, x, gamma=1.0)[0]))

        x2 = np.vstack([x, x])
        y2 = np.concatenate([y, y])
        gram2, _ = chi2_kernel(x2, gamma=1.0)
        model2 = train_kernel_svm(gram2, y2, C=100.0)
        dup_signs = np.sign(
            svm_score(model2, chi2_kernel(grid, x2, gamma=1.0)[0])
        )
        np.testing.assert_array_equal(dup_signs, base_signs)

        alpha_star, bias_star = oracle_svm_dual(gram2, y2, C=100.0)
        oracle_signs = np.sign(
            chi2_kernel(grid, x2, gamma=1.0)[0] @ (alpha_star * y2) + bias_star
        )
        np.testing.assert_array_equal(dup_signs, oracle_signs)

    def test_unconverged_fit_warns(self, monkeypatch):
        x, y = toy_set()
        gram, _ = chi2_kernel(x, gamma=1.0)
        monkeypatch.setattr(svm, "MAX_PAIR_UPDATES", 1)
        with pytest.warns(RuntimeWarning, match="not converged, KKT gap"):
            model = train_kernel_svm(gram, y, C=100.0)
        assert kkt_violation(model, gram) >= 1e-3

    @pytest.mark.parametrize("n,seed", [(1000, 4), (200, 22)])
    def test_clipped_pair_converges_without_rounding_stall(self, n, seed):
        """alpha_j clipped at a bound set by alpha_i puts alpha_i exactly on
        its own bound; left a few ulps off it, i stays violating and the
        same pair comes back with steps below one ulp until the update
        budget runs out."""
        gram, y = stall_set(n, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = train_kernel_svm(gram, y, C=100.0)
        assert kkt_violation(model, gram) <= svm.KKT_TOL

    def test_stall_set_matches_qp_oracle_scores(self):
        # the QP oracle needs minutes at n=1000, about a second at n=200
        gram, y = stall_set(200, 22)
        model = train_kernel_svm(gram, y, C=100.0)
        alpha_star, bias_star = oracle_svm_dual(gram, y, C=100.0)
        oracle_scores = gram @ (alpha_star * y) + bias_star
        np.testing.assert_allclose(
            svm_score(model, gram), oracle_scores, atol=1e-3
        )

    def test_stall_set_duality_gap_within_kkt_bound(self, monkeypatch):
        """The primal-dual gap certifies the n=1000 fit, where the QP oracle
        takes minutes.

        Bound. Let g_i = y_i - f0_i, m = max g_i over the up set and
        M = min g_i over the down set (``_violating_pair``); a converged
        fit has m - M < KKT_TOL. With sum(alpha * y) = 0 the gap at bias b
        is sum_i (C - alpha_i) max(0, t_i) + alpha_i max(0, -t_i), where
        t_i = y_i (g_i - b). Take b = (m + M) / 2. A term with t_i > 0
        needs alpha_i < C, which puts i in the up set when y_i = +1
        (g_i <= m) and in the down set when y_i = -1 (g_i >= M), so
        t_i <= (m - M) / 2; alpha_i > 0 bounds -t_i the same way. Hence
        the gap at the best bias is at most
        KKT_TOL / 2 * sum_i max(alpha_i, C - alpha_i) <= n C KKT_TOL / 2,
        50 here. The converged fit sits near 0.92; a fit cut off at 200
        pair updates (violation about 0.14) exceeds the bound.
        """
        C = 100.0
        gram, y = stall_set(1000, 4)

        def bound(model):
            alpha = model.alpha
            return svm.KKT_TOL / 2 * float(np.maximum(alpha, C - alpha).sum())

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = train_kernel_svm(gram, y, C=C)
        assert abs(float(model.alpha @ y)) <= 1e-9
        gap = oracle_duality_gap(gram, y, model.alpha, C)
        assert -1e-9 <= gap <= bound(model)

        monkeypatch.setattr(svm, "MAX_PAIR_UPDATES", 200)
        with pytest.warns(RuntimeWarning, match="not converged"):
            cut = train_kernel_svm(gram, y, C=C)
        assert oracle_duality_gap(gram, y, cut.alpha, C) > bound(cut)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bias_without_free_alpha_comes_from_final_pair(self, seed):
        """With C = 1e-3 every alpha ends on a bound, so no free alpha sets
        the bias: it is the midpoint of the final violating pair."""
        C = 1e-3
        gram, y = small_problem(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = train_kernel_svm(gram, y, C=C)
        alpha = model.alpha
        assert not np.any((alpha > 1e-8) & (alpha < C - 1e-8))
        assert kkt_violation(model, gram) <= svm.KKT_TOL
        neg_e = y - gram @ model.coef
        up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
        down = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < C))
        midpoint = (neg_e[up].max() + neg_e[down].min()) / 2.0
        assert model.bias == pytest.approx(midpoint, rel=0.0, abs=1e-9)
        alpha_star, bias_star = oracle_svm_dual(gram, y, C=C)
        np.testing.assert_allclose(
            svm_score(model, gram), gram @ (alpha_star * y) + bias_star,
            atol=1e-3,
        )

    @pytest.mark.parametrize("seed", [124, 379, 398])
    def test_alpha_j_clipped_above_zero_puts_alpha_i_on_its_bound(
            self, monkeypatch, seed):
        """A lower bound above 0 for alpha_j comes from alpha_i's box; an
        update that clips alpha_j there sets alpha_i exactly to 0 (labels
        differ) or C (labels agree). On these seeds alpha_i computed from
        the step lands a few ulps off that bound, and the fit stalls."""
        C = 1.0
        gram, y = small_problem(seed)
        calls = []
        real_pair = svm._violating_pair

        def recorded(labels, f0, alpha, c):
            pair = real_pair(labels, f0, alpha, c)
            calls.append((alpha.copy(), pair[0], pair[1]))
            return pair

        monkeypatch.setattr(svm, "_violating_pair", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = train_kernel_svm(gram, y, C=C)
        clipped = 0
        for (before, i, j), (after, _, _) in zip(calls, calls[1:]):
            if np.array_equal(before, after):
                continue
            if y[i] != y[j]:
                low, on_bound = max(0.0, before[j] - before[i]), 0.0
            else:
                low, on_bound = max(0.0, before[i] + before[j] - C), C
            if after[j] == low > 0.0:
                clipped += 1
                assert after[i] == on_bound
        assert clipped > 0
        assert kkt_violation(model, gram) <= svm.KKT_TOL
        alpha_star, bias_star = oracle_svm_dual(gram, y, C=C)
        np.testing.assert_allclose(
            svm_score(model, gram), gram @ (alpha_star * y) + bias_star,
            atol=1e-3,
        )

    def test_update_that_moves_nothing_stops_with_warning(self, monkeypatch):
        """With a zero tolerance the fit reaches pairs whose step is below
        one ulp; the first update that changes neither alpha ends it."""
        x, y = toy_set()
        gram, _ = chi2_kernel(x, gamma=1.0)
        picks = []
        real_pair = svm._violating_pair

        def counted(*args):
            picks.append(1)
            return real_pair(*args)

        monkeypatch.setattr(svm, "_violating_pair", counted)
        monkeypatch.setattr(svm, "KKT_TOL", 0.0)
        with pytest.warns(RuntimeWarning, match="not converged, KKT gap"):
            train_kernel_svm(gram, y, C=100.0)
        assert len(picks) < 100

    @pytest.mark.parametrize("C", [float("inf"), float("nan"), 0.0, -1.0])
    def test_c_must_be_finite_and_positive(self, C):
        x, y = toy_set()
        with pytest.raises(ContractViolation, match="finite and > 0"):
            train_kernel_svm(chi2_kernel(x, gamma=1.0)[0], y, C=C)

    def test_one_class_rejected(self):
        with pytest.raises(ContractViolation):
            train_kernel_svm(np.eye(3), np.array([1.0, 1.0, 1.0]), C=1.0)

    def test_non_symmetric_gram_rejected(self):
        gram = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ContractViolation):
            train_kernel_svm(gram, np.array([1.0, -1.0]), C=1.0)

    def test_bad_labels_rejected(self):
        with pytest.raises(ContractViolation):
            train_kernel_svm(np.eye(2), np.array([1.0, 0.0]), C=1.0)

    @pytest.mark.parametrize("gram,labels,message", [
        (np.ones((2, 3)), [1.0, -1.0], "gram must be square"),
        (np.eye(3), [1.0, -1.0], "labels length"),
        (np.eye(2), [1.0, -1.0, 1.0], "labels length"),
    ], ids=["non_square", "short_labels", "long_labels"])
    def test_mismatched_problem_rejected(self, gram, labels, message):
        with pytest.raises(ContractViolation, match=message):
            train_kernel_svm(gram, np.array(labels), C=1.0)


@pytest.mark.parametrize("bad,message", [
    (np.array([0.5, 0.5]), "must be non-empty 2-D, got shape"),
    (np.full((1, 2, 2), 0.5), "must be non-empty 2-D, got shape"),
    (np.empty((0, 2)), "must be non-empty 2-D, got shape"),
    (np.empty((2, 0)), "must be non-empty 2-D, got shape"),
    (np.array([[0.5, np.nan], [0.5, 0.5]]), "contains non-finite values"),
    (np.array([[0.5, np.inf], [0.5, 0.5]]), "contains non-finite values"),
], ids=["1d", "3d", "no_rows", "no_columns", "nan", "inf"])
def test_every_entry_point_rejects_a_malformed_matrix(bad, message):
    """A 1-D array is no row: every matrix input of the encoders and the
    SVM must be 2-D, non-empty and finite, checked by one contract."""
    good = np.full((2, 2), 0.5)
    model = SvmModel(alpha=np.zeros(2), labels=np.array([1.0, -1.0]),
                     bias=0.0, C=1.0)
    for call in (
        lambda: chi2_distances(bad),
        lambda: chi2_distances(good, bad),
        lambda: train_kernel_svm(bad, model.labels, C=1.0),
        lambda: kkt_violation(model, bad),
        lambda: svm_score(model, bad),
        lambda: average_pool(bad),
        lambda: kmeans_fit(bad, k=1, seed=0),
        lambda: vlad_encode(bad, Codebook(centroids=good, seed=0)),
        lambda: vlad_encode(good, Codebook(centroids=bad, seed=0)),
    ):
        with pytest.raises(ContractViolation, match=message):
            call()


class TestChi2Memory:
    """Peak traced memory of the chi-squared and Gram paths, inputs
    excluded."""

    @staticmethod
    def _peak(fn):
        tracemalloc.start()
        try:
            result = fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    def test_kernel_rows_scale_and_exponentiate_in_place(self):
        # the 500 x 500 rows are 1.91 MiB; scaling and exp must reuse them
        rng = np.random.default_rng(0)
        x, y = rng.random((500, 4)), rng.random((500, 4))
        (rows, _), peak = self._peak(lambda: chi2_kernel(x, y, gamma=1.0))
        assert peak < 1.5 * rows.nbytes

    def test_range_checks_make_no_input_sized_temporary(self):
        # X is 15.3 MiB; a boolean mask of it alone would be 1.91 MiB
        x = np.random.default_rng(0).random((2000, 1000))
        _, peak = self._peak(lambda: chi2_distances(x, x[:1]))
        assert peak < 2**20

    def test_auto_gamma_copies_no_triangle(self):
        # the 1000 x 1000 Gram is 7.63 MiB; an np.triu copy would double it
        x = np.random.default_rng(0).random((1000, 2))
        dists = chi2_distances(x)
        expected = 1.0 / (float(np.triu(dists, k=1).sum()) / (1000 * 999 / 2))
        (gram, gamma), peak = self._peak(lambda: chi2_kernel(x))
        assert peak < 1.3 * gram.nbytes
        assert gamma == expected
        assert gram.tobytes() == np.exp(-gamma * dists).tobytes()

    def test_symmetry_check_makes_no_gram_sized_temporary(self):
        # np.allclose(K, K.T) peaks at 2.13 Grams
        gram = np.eye(1000)
        labels = np.where(np.arange(1000) % 2, 1.0, -1.0)
        _, peak = self._peak(lambda: train_kernel_svm(gram, labels, C=1.0))
        assert peak < 1.3 * gram.nbytes

    @settings(max_examples=200, deadline=None)
    @given(n=st.sampled_from([1, 2, 7, 300]), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-12, 1e-6, 1.0, 1e6]),
           factor=st.one_of(st.just(1.0), st.floats(0.5, 1.5)))
    def test_symmetry_check_accepts_what_allclose_accepts(
            self, n, seed, scale, factor):
        """Row blocks (300 rows span three) give np.allclose's verdict on
        a symmetric Gram with one entry moved about one tolerance."""
        rng = np.random.default_rng(seed)
        half = scale * rng.random((n, n))
        gram = half + half.T
        i, j = rng.integers(n, size=2)
        gram[i, j] += factor * (1e-10 + 1e-5 * abs(gram[j, i]))
        assert svm._symmetric(gram) == np.allclose(gram, gram.T, atol=1e-10)


class TestScore:
    def test_zero_alpha_model_scores_bias(self):
        model = SvmModel(
            alpha=np.zeros(4),
            labels=np.array([1.0, 1.0, -1.0, -1.0]),
            bias=0.25,
            C=1.0,
        )
        scores = svm_score(model, np.full((3, 4), 0.7))
        np.testing.assert_array_equal(scores, [0.25, 0.25, 0.25])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 400), st.integers(0, 2**32 - 1))
    def test_batch_gives_the_bits_of_one_product_per_row(self, m, n, seed):
        rng = np.random.default_rng(seed)
        rows = rng.random((m, n))
        model = SvmModel(
            alpha=rng.random(n),
            labels=np.where(rng.random(n) < 0.5, 1.0, -1.0),
            bias=float(rng.normal()),
            C=1.0,
        )
        per_row = np.array([row @ model.coef + model.bias for row in rows])
        assert svm_score(model, rows).tobytes() == per_row.tobytes()

    def test_column_mismatch_rejected(self):
        model = SvmModel(
            alpha=np.zeros(4),
            labels=np.array([1.0, 1.0, -1.0, -1.0]),
            bias=0.0,
            C=1.0,
        )
        with pytest.raises(ContractViolation):
            svm_score(model, np.zeros((2, 5)))
