"""Pooling, codebook training, and VLAD encoding."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hierkit import encoding
from hierkit.encoding import (
    KMEANS_BLOCK,
    Codebook,
    _canonical_rows,
    _pairwise_sq_dists,
    average_pool,
    kmeans_fit,
    l1_normalize,
    vlad_encode,
)
from hierkit.errors import ContractViolation
from hierkit.io import read_codebook, write_codebook

from oracles import (
    oracle_canonical_rows,
    oracle_pairwise_sq_dists,
    oracle_two_means,
)

FINITE = st.floats(allow_nan=False, allow_infinity=False)
# few values: first columns tie, rows repeat, 0.0 and -0.0 both appear
FEW_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0])


@st.composite
def tie_free_matrices(draw):
    """Finite matrices whose first column has no tie (0.0 ties -0.0)."""
    first = draw(st.lists(FINITE, min_size=1, max_size=50, unique=True))
    cols = draw(st.integers(1, 8))
    rest = draw(arrays(np.float64, (len(first), cols - 1), elements=FINITE))
    return np.column_stack([np.array(first), rest])


class LexsortCalled(Exception):
    pass


def refuse_lexsort(*args, **kwargs):
    raise LexsortCalled


def frame_pair():
    """Frames without a tie in the first column, and the same frames with
    ties in it, 0.0 against -0.0 among them."""
    frames = np.random.default_rng(12).normal(size=(40, 6))
    tied = frames.copy()
    tied[:, 0] = np.round(tied[:, 0])
    tied[:2, 0] = [0.0, -0.0]
    return frames, tied


class TestL1Normalize:
    def test_positive_vector(self):
        np.testing.assert_array_equal(l1_normalize([1.0, 3.0]), [0.25, 0.75])

    def test_zero_vector_passes_through_with_warning(self):
        with pytest.warns(RuntimeWarning):
            out = l1_normalize([0.0, 0.0])
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_signed_vector_uses_absolute_mass(self):
        np.testing.assert_array_equal(l1_normalize([-1.0, 1.0]), [-0.5, 0.5])

    def test_non_finite_rejected(self):
        with pytest.raises(ContractViolation):
            l1_normalize([1.0, float("nan")])

    @settings(max_examples=200)
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=20,
        )
    )
    def test_absolute_sum_is_one(self, values):
        if sum(abs(v) for v in values) == 0.0:
            return
        out = l1_normalize(values)
        assert abs(np.sum(np.abs(out)) - 1.0) <= 1e-12


class TestAveragePool:
    def test_single_frame_is_normalized_frame(self):
        frame = np.array([2.0, 6.0])
        np.testing.assert_array_equal(
            average_pool(frame[None, :]), l1_normalize(frame)
        )

    def test_two_complementary_frames(self):
        out = average_pool(np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_array_equal(out, [0.5, 0.5])

    def test_permutation_invariant_bitwise(self):
        rng = np.random.default_rng(5)
        frames = rng.normal(size=(20, 7))
        base = average_pool(frames)
        for _ in range(100):
            shuffled = frames[rng.permutation(20)]
            np.testing.assert_array_equal(average_pool(shuffled), base)

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            average_pool(np.zeros((0, 4)))


class TestCanonicalRows:
    @settings(max_examples=300)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 50), st.integers(1, 8)),
            elements=FEW_VALUES,
        )
    )
    # the only tie is 0.0 against -0.0: column 1 orders the rows
    @example(np.array([[0.0, 1.0], [-0.0, 0.0]]))
    def test_matches_lexsort_oracle_with_ties(self, frames):
        assert (
            _canonical_rows(frames).tobytes()
            == oracle_canonical_rows(frames).tobytes()
        )

    @settings(max_examples=300)
    @given(tie_free_matrices())
    def test_matches_lexsort_oracle_without_ties(self, frames):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np, "lexsort", refuse_lexsort)
            got = _canonical_rows(frames)
        assert got.tobytes() == oracle_canonical_rows(frames).tobytes()

    def test_tie_free_frames_never_reach_lexsort(self, monkeypatch):
        frames, tied = frame_pair()
        codebook = kmeans_fit(frames, k=4, seed=1)
        monkeypatch.setattr(np, "lexsort", refuse_lexsort)
        average_pool(frames)
        vlad_encode(frames, codebook)
        for encode in (average_pool, lambda f: vlad_encode(f, codebook)):
            with pytest.raises(LexsortCalled):
                encode(tied)

    def test_oracle_order_gives_same_pool_and_vlad(self, monkeypatch):
        frames, tied = frame_pair()
        codebook = kmeans_fit(frames, k=4, seed=1)
        both = [(average_pool(f), vlad_encode(f, codebook))
                for f in (frames, tied)]
        monkeypatch.setattr(encoding, "_canonical_rows", oracle_canonical_rows)
        for f, (pooled, encoded) in zip((frames, tied), both):
            assert average_pool(f).tobytes() == pooled.tobytes()
            assert vlad_encode(f, codebook).tobytes() == encoded.tobytes()


class TestPairwiseSqDists:
    @staticmethod
    def check(n, k, d, seed=0):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, d))
        b = rng.normal(size=(k, d))
        got = _pairwise_sq_dists(a, b)
        assert got.shape == (n, k)
        np.testing.assert_array_equal(got, oracle_pairwise_sq_dists(a, b))

    @pytest.mark.parametrize("k,d", [(64, 128), (5, 3), (7, 1)])
    def test_rows_around_block_edges(self, k, d):
        step = KMEANS_BLOCK // (k * d)
        for n in (step - 1, step, step + 1, 2 * step + 1):
            self.check(n, k, d)

    def test_wide_rows_fall_back_to_one_row_per_block(self):
        k, d = 40, KMEANS_BLOCK // 40 + 1
        assert k * d > KMEANS_BLOCK
        self.check(3, k, d)

    def test_single_row(self):
        self.check(1, 64, 128)
        self.check(1, 1, 1)

    def test_oracle_gives_same_codebook_and_vlad(self, monkeypatch):
        rng = np.random.default_rng(4)
        frames = rng.normal(size=(700, 16))
        codebook = kmeans_fit(frames, k=9, seed=2)
        encoded = vlad_encode(frames[:300], codebook)
        monkeypatch.setattr(
            encoding, "_pairwise_sq_dists", oracle_pairwise_sq_dists
        )
        oracle_codebook = kmeans_fit(frames, k=9, seed=2)
        assert (
            oracle_codebook.centroids.tobytes() == codebook.centroids.tobytes()
        )
        assert (
            vlad_encode(frames[:300], oracle_codebook).tobytes()
            == encoded.tobytes()
        )

    def test_kmeans_peak_memory_does_not_grow_with_frames(self):
        # the one-shot (n, k, d) tensor alone would be 2000*64*128*8 = 131 MB
        data = np.random.default_rng(0).normal(size=(2000, 128))
        tracemalloc.start()
        try:
            kmeans_fit(data, k=64, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestKmeans:
    def test_k_equals_distinct_vectors(self):
        vectors = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        codebook = kmeans_fit(vectors, k=4, seed=3)
        got = sorted(map(tuple, np.round(codebook.centroids, 9)))
        want = sorted(map(tuple, vectors))
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_two_blobs_reach_analytic_optimum(self):
        points = np.array([[0.0], [0.1], [10.0], [10.1]])
        codebook = kmeans_fit(points, k=2, seed=0)
        got = sorted(float(c[0]) for c in codebook.centroids)
        np.testing.assert_allclose(got, [0.05, 10.05], atol=1e-9)
        expected = sorted(float(c[0]) for c in oracle_two_means(points))
        np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(60, 5))
        first = kmeans_fit(data, k=7, seed=11)
        second = kmeans_fit(data, k=7, seed=11)
        np.testing.assert_array_equal(first.centroids, second.centroids)

    def test_too_few_vectors_rejected(self):
        with pytest.raises(ContractViolation):
            kmeans_fit(np.zeros((2, 3)), k=5, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_u64_rejected(self, seed):
        with pytest.raises(ContractViolation, match="64 unsigned bits"):
            kmeans_fit(np.eye(3), k=2, seed=seed)

    def test_largest_seed_fits_the_codebook_format(self):
        codebook = kmeans_fit(np.eye(3), k=2, seed=2**64 - 1)
        parsed, _ = read_codebook(write_codebook(codebook))
        assert parsed.seed == 2**64 - 1

    def test_duplicate_points_tolerated(self):
        data = np.array([[0.0, 0.0]] * 5 + [[1.0, 1.0]] * 5)
        codebook = kmeans_fit(data, k=2, seed=4)
        assert codebook.centroids.shape == (2, 2)

    @pytest.mark.parametrize(
        "data",
        [np.ones((6, 3)), np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])],
    )
    def test_coincident_points_repair_without_nan(self, data):
        for seed in range(5):
            first = kmeans_fit(data, k=3, seed=seed)
            assert np.all(np.isfinite(first.centroids))
            second = kmeans_fit(data, k=3, seed=seed)
            np.testing.assert_array_equal(first.centroids, second.centroids)
        # every distinct point is a centroid
        got = {tuple(c) for c in first.centroids}
        assert got == {tuple(p) for p in data}

    def test_non_convergence_warns(self, monkeypatch):
        monkeypatch.setattr(encoding, "KMEANS_MAX_ITER", 1)
        data = np.random.default_rng(6).normal(size=(50, 3))
        with pytest.warns(RuntimeWarning, match="not converged after 1"):
            codebook = kmeans_fit(data, k=4, seed=0)
        assert np.all(np.isfinite(codebook.centroids))

    @pytest.mark.parametrize("rise,warns", [(1e-11, False), (1e-6, True)])
    def test_objective_rise_warns_beyond_rounding(self, monkeypatch, rise,
                                                   warns):
        # each Lloyd round's distances are scaled so that its objective is
        # the last one's times (1 + rise); assignments do not change
        real = encoding._pairwise_sq_dists
        reported = []

        def creeping(a, b):
            dist = real(a, b)
            if b.shape[0] == 1:  # k-means++ seeding
                return dist
            true = float(dist.min(axis=1).sum())
            reported.append(reported[-1] * (1.0 + rise) if reported else true)
            return dist * (reported[-1] / true)

        monkeypatch.setattr(encoding, "_pairwise_sq_dists", creeping)
        # objective ~1e12: a rise of 1e-11 of it is far above an absolute
        # 1e-9, yet only rounding
        data = np.random.default_rng(7).random((40, 3)) * 1e6
        if warns:
            with pytest.warns(RuntimeWarning, match="objective rose"):
                kmeans_fit(data, k=3, seed=0)
        else:
            kmeans_fit(data, k=3, seed=0)  # a RuntimeWarning fails the test
        assert len(reported) >= 2

    def test_rising_objective_check_survives_optimize_flag(self):
        script = (
            "import warnings, numpy as np\n"
            "import hierkit.encoding as enc\n"
            "real, calls = enc._pairwise_sq_dists, []\n"
            "def rising(a, b):\n"
            "    calls.append(None)\n"
            "    return real(a, b) * 10.0 ** len(calls)\n"
            "enc._pairwise_sq_dists = rising\n"
            "with warnings.catch_warnings(record=True) as seen:\n"
            "    warnings.simplefilter('always')\n"
            "    enc.kmeans_fit(np.random.default_rng(7).random((40, 3)), 3, 0)\n"
            "print(__debug__, any('objective rose' in str(w.message)"
            " for w in seen))\n"
        )
        src = os.path.dirname(os.path.dirname(encoding.__file__))
        done = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
            timeout=60,
        )
        assert done.stdout.split() == ["False", "True"]


class TestFrameBounds:
    """Values whose squared distances overflow are a contract violation,
    not an overflow warning or a NaN further on."""

    HUGE = np.array([[1e308, 0.0], [0.0, 1e308]])

    def test_every_encoder_rejects_overflowing_frames(self):
        codebook = Codebook(centroids=np.eye(2), seed=0)
        for call in (lambda: average_pool(self.HUGE),
                     lambda: kmeans_fit(self.HUGE, 2, 0),
                     lambda: vlad_encode(self.HUGE, codebook)):
            with pytest.raises(ContractViolation, match="overflows"):
                call()

    def test_codebook_centroids_obey_the_same_bound(self):
        codebook = Codebook(centroids=self.HUGE, seed=0)
        with pytest.raises(ContractViolation, match="overflows"):
            vlad_encode(np.eye(2), codebook)
        codebook = Codebook(centroids=np.array([[np.nan, 0.0]]), seed=0)
        with pytest.raises(ContractViolation, match="non-finite"):
            vlad_encode(np.eye(2), codebook)

    def test_bound_scales_with_the_matrix_size(self):
        # 4 * n * d * peak^2 just below the float64 maximum passes
        peak = float(np.sqrt(np.finfo(np.float64).max / (4 * 2 * 2))) * 0.999
        frames = np.array([[peak, 0.0], [0.0, peak]])
        codebook = kmeans_fit(frames, 2, 0)
        assert np.all(np.isfinite(codebook.centroids))
        with pytest.raises(ContractViolation, match="overflows"):
            kmeans_fit(np.vstack([frames, frames]), 2, 0)


class TestVlad:
    def test_output_dimension_is_k_times_d(self):
        rng = np.random.default_rng(0)
        frames = rng.normal(size=(30, 1024))
        codebook = kmeans_fit(frames, k=10, seed=1)
        out = vlad_encode(frames, codebook)
        assert out.shape == (10_240,)

    def test_frames_on_centroids_give_zero_plus_warning(self):
        centroids = np.array([[0.0, 0.0], [1.0, 1.0]])
        codebook = Codebook(centroids=centroids, seed=0)
        frames = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        with pytest.warns(RuntimeWarning):
            out = vlad_encode(frames, codebook)
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_permutation_invariant_bitwise(self):
        rng = np.random.default_rng(2)
        frames = rng.normal(size=(25, 6))
        codebook = kmeans_fit(frames, k=3, seed=9)
        base = vlad_encode(frames, codebook)
        for _ in range(100):
            shuffled = frames[rng.permutation(len(frames))]
            np.testing.assert_array_equal(
                vlad_encode(shuffled, codebook), base
            )

    def test_dimension_mismatch_rejected(self):
        codebook = Codebook(centroids=np.zeros((2, 3)), seed=0)
        with pytest.raises(ContractViolation):
            vlad_encode(np.zeros((4, 5)), codebook)

    def test_unit_l2_norm_when_nonzero(self):
        rng = np.random.default_rng(3)
        frames = rng.normal(size=(12, 4))
        codebook = kmeans_fit(frames, k=2, seed=5)
        out = vlad_encode(frames, codebook)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12

    def test_tie_goes_to_lowest_centroid_index(self):
        codebook = Codebook(
            centroids=np.array([[1.0, 0.0], [-1.0, 0.0]]), seed=0
        )
        # the frame sits exactly between both centroids
        out = vlad_encode(np.array([[0.0, 0.0]]), codebook)
        # residual lands in block 0: (0,0)-(1,0) = (-1,0), sqrt+l2 -> (-1,0)
        np.testing.assert_allclose(out, [-1.0, 0.0, 0.0, 0.0], atol=1e-12)
