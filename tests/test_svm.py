"""Chi-squared kernel and dual SVM training against a QP oracle."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hierkit.svm as svm
from hierkit.errors import ContractViolation
from hierkit.svm import (
    CHI2_BLOCK,
    SvmModel,
    chi2_distances,
    chi2_kernel,
    kkt_violation,
    mean_chi2_gamma,
    svm_score,
    train_kernel_svm,
)

from oracles import oracle_chi2_distances, oracle_svm_dual


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
        gram = chi2_kernel(x, gamma=0.7)
        np.testing.assert_array_equal(np.diag(gram), np.ones(10))

    def test_hand_computed_value(self):
        gram = chi2_kernel(
            np.array([[1.0, 0.0]]),
            np.array([[0.0, 1.0]]),
            gamma=0.5,
            epsilon=0.0,
        )
        np.testing.assert_allclose(gram[0, 0], np.exp(-1.0), rtol=1e-12)

    def test_symmetric_on_same_inputs(self):
        rng = np.random.default_rng(2)
        x = rng.dirichlet(np.ones(5), size=12)
        gram = chi2_kernel(x, gamma=1.3)
        np.testing.assert_array_equal(gram, gram.T)

    def test_positive_semidefinite_on_normalized_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.dirichlet(np.ones(4), size=rng.integers(2, 15))
            gram = chi2_kernel(x, gamma=float(rng.uniform(0.1, 3.0)))
            eigenvalues = np.linalg.eigvalsh(gram)
            assert eigenvalues.min() >= -1e-8

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(4)
        x = rng.dirichlet(np.ones(5), size=8)
        y = rng.dirichlet(np.ones(5), size=6)
        gram = chi2_kernel(x, y, gamma=0.9)
        assert np.all(gram > 0.0)
        assert np.all(gram <= 1.0)

    def test_negative_components_rejected(self):
        with pytest.raises(ContractViolation):
            chi2_kernel(np.array([[0.5, -0.5]]), gamma=1.0)

    def test_gamma_required(self):
        x = np.array([[1.0, 0.0]])
        with pytest.raises(TypeError):
            chi2_kernel(x)
        with pytest.raises(TypeError):  # keyword only
            chi2_kernel(x, None, 0.5)
        for gamma in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ContractViolation):
                chi2_kernel(x, gamma=gamma)

    def test_bandwidth_heuristic_positive_and_deterministic(self):
        x, _ = toy_set()
        first = mean_chi2_gamma(x)
        assert first > 0
        assert mean_chi2_gamma(x) == first
        # identical vectors fall back to 1.0
        assert mean_chi2_gamma(np.ones((3, 2))) == 1.0


def histograms(seed, n, d, zero_share=0.0):
    rng = np.random.default_rng(seed)
    x = rng.dirichlet(np.ones(d), size=n)
    x[rng.random((n, d)) < zero_share] = 0.0
    return x


class TestChi2Distances:
    """The blocked loop must reproduce the per-row oracle bit for bit."""

    def check(self, x, y=None, epsilon=1e-10):
        got = chi2_distances(x, y, epsilon=epsilon)
        assert np.array_equal(got, oracle_chi2_distances(x, y, epsilon))

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

    def test_epsilon_zero_with_coincident_zero_bins(self):
        x = histograms(8, 12, 10, zero_share=0.5)
        x[:, 0] = 0.0  # a bin that is zero everywhere
        got = chi2_distances(x, epsilon=0.0)
        assert np.all(np.isfinite(got))
        self.check(x, epsilon=0.0)
        self.check(x, histograms(9, 5, 10, zero_share=0.5), epsilon=0.0)

    @pytest.mark.parametrize("epsilon", [-1.0, float("nan")])
    def test_bad_epsilon_rejected(self, epsilon):
        with pytest.raises(ContractViolation):
            chi2_distances(histograms(11, 3, 4), epsilon=epsilon)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 9).flatmap(lambda d: st.tuples(
            arrays(np.float64, st.tuples(st.integers(1, 12), st.just(d)),
                   elements=st.floats(0.0, 1e100)),
            arrays(np.float64, st.tuples(st.integers(1, 12), st.just(d)),
                   elements=st.floats(0.0, 1e100)),
        )),
        st.sampled_from([0.0, 1e-10, 0.5]),
    )
    def test_matches_oracle_on_random_matrices(self, pair, epsilon):
        x, y = pair
        self.check(x, epsilon=epsilon)
        self.check(x, y, epsilon=epsilon)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.integers(1, 9).flatmap(lambda d: st.tuples(
            arrays(np.float64, st.tuples(st.integers(1, 7), st.just(d)),
                   elements=st.floats(0.0, 1e100)),
            arrays(np.float64, st.tuples(st.integers(1, 7), st.just(d)),
                   elements=st.floats(0.0, 1e100)),
        )),
        st.sampled_from([0.0, 1e-10, 0.5]),
        st.sampled_from([1, 2, 3]),
    )
    def test_sharded_rows_match_serial_and_oracle_bytes(
            self, shard_across, pair, epsilon, workers):
        """Symmetric and rectangular, epsilon 0, and fewer rows than
        workers (down to one row)."""
        x, y = pair
        serial = [chi2_distances(x, epsilon=epsilon),
                  chi2_distances(x, y, epsilon=epsilon)]
        shard_across(workers)
        sharded = [chi2_distances(x, epsilon=epsilon),
                   chi2_distances(x, y, epsilon=epsilon)]
        oracle = [oracle_chi2_distances(x, None, epsilon),
                  oracle_chi2_distances(x, y, epsilon)]
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
        assert mean_chi2_gamma(x) == expected


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
        gram = chi2_kernel(x, gamma=1.0)
        model = train_kernel_svm(gram, y, C=100.0)

        scores = svm_score(model, gram)
        assert np.all(np.sign(scores) == y)               # 100% training accuracy
        assert kkt_violation(model, gram) < 1e-3
        assert np.all(model.alpha >= 0.0)
        assert np.all(model.alpha <= 100.0)
        assert abs(np.sum(model.alpha * model.labels)) <= 1e-6

    def test_matches_qp_oracle_scores(self):
        x, y = toy_set()
        gram = chi2_kernel(x, gamma=1.0)
        model = train_kernel_svm(gram, y, C=100.0)

        alpha_star, bias_star = oracle_svm_dual(gram, y, C=100.0)
        oracle_scores = gram @ (alpha_star * y) + bias_star
        np.testing.assert_allclose(
            svm_score(model, gram), oracle_scores, atol=1e-3
        )

    def test_free_support_vector_scores_its_label(self):
        x, y = toy_set(seed=5)
        gram = chi2_kernel(x, gamma=1.0)
        model = train_kernel_svm(gram, y, C=100.0)
        free = (model.alpha > 1e-6) & (model.alpha < 100.0 - 1e-6)
        assert np.any(free)
        scores = svm_score(model, gram)
        np.testing.assert_allclose(scores[free], y[free], atol=1e-3)

    def test_duplicated_training_set_keeps_sign_pattern(self):
        x, y = toy_set(seed=7)
        grid = np.array([[i / 10.0, 1.0 - i / 10.0] for i in range(11)])

        gram = chi2_kernel(x, gamma=1.0)
        model = train_kernel_svm(gram, y, C=100.0)
        base_signs = np.sign(svm_score(model, chi2_kernel(grid, x, gamma=1.0)))

        x2 = np.vstack([x, x])
        y2 = np.concatenate([y, y])
        gram2 = chi2_kernel(x2, gamma=1.0)
        model2 = train_kernel_svm(gram2, y2, C=100.0)
        dup_signs = np.sign(
            svm_score(model2, chi2_kernel(grid, x2, gamma=1.0))
        )
        np.testing.assert_array_equal(dup_signs, base_signs)

        alpha_star, bias_star = oracle_svm_dual(gram2, y2, C=100.0)
        oracle_signs = np.sign(
            chi2_kernel(grid, x2, gamma=1.0) @ (alpha_star * y2) + bias_star
        )
        np.testing.assert_array_equal(dup_signs, oracle_signs)

    def test_unconverged_fit_warns(self):
        x, y = toy_set()
        gram = chi2_kernel(x, gamma=1.0)
        with pytest.warns(RuntimeWarning, match="not converged, KKT gap"):
            model = train_kernel_svm(gram, y, C=100.0, max_updates=1)
        assert kkt_violation(model, gram) >= 1e-3

    @pytest.mark.parametrize("C", [float("inf"), float("nan"), 0.0, -1.0])
    def test_c_must_be_finite_and_positive(self, C):
        x, y = toy_set()
        with pytest.raises(ContractViolation, match="finite and > 0"):
            train_kernel_svm(chi2_kernel(x, gamma=1.0), y, C=C)

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

    def test_column_mismatch_rejected(self):
        model = SvmModel(
            alpha=np.zeros(4),
            labels=np.array([1.0, 1.0, -1.0, -1.0]),
            bias=0.0,
            C=1.0,
        )
        with pytest.raises(ContractViolation):
            svm_score(model, np.zeros((2, 5)))
