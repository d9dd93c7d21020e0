"""Pooling, codebook training, and VLAD encoding."""

import math
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
    _nearest,
    _pairwise_sq_dists,
    _plus_plus_init,
    _point_costs,
    as_frame_matrix,
    average_pool,
    kmeans_fit,
    l1_normalize,
    vlad_encode,
)
from hierkit.errors import ContractViolation
from hierkit.io import read_codebook, write_codebook

from oracles import (
    oracle_canonical_rows,
    oracle_nearest,
    oracle_pairwise_sq_dists,
    oracle_plus_plus_init,
    oracle_two_means,
)

FINITE = st.floats(allow_nan=False, allow_infinity=False)
# few values: first columns tie, rows repeat, 0.0 and -0.0 both appear
FEW_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0])
# magnitudes from the subnormals (2**-1074) up to 2**480
DECADES = st.builds(
    lambda sign, mantissa, exponent: sign * math.ldexp(mantissa, exponent),
    st.sampled_from([1.0, -1.0]),
    st.floats(0.5, 1.0, exclude_max=True),
    st.integers(-1074, 480),
)
MAX_ROWS, MAX_COLS = 50, 8


def overflow_limit(size):
    """Just below the largest |value| as_frame_matrix accepts in a matrix
    of this many elements."""
    return float(np.sqrt(np.finfo(np.float64).max / (4 * size))) * 0.999


NEAR_LIMIT = st.floats(-1.0, 1.0).map(
    lambda x: x * overflow_limit(MAX_ROWS * MAX_COLS)
)
# points close together far from the origin: the product's rounding is many
# times the distances it ranks
OFFSET = FEW_VALUES.map(lambda x: x + 2.0**27)
POINT_VALUES = [FEW_VALUES, DECADES, NEAR_LIMIT, OFFSET]


@st.composite
def point_sets(draw):
    """Frames and centroids of one dimension, both valid frame matrices."""
    elements = draw(st.sampled_from(POINT_VALUES))
    d = draw(st.integers(1, MAX_COLS))
    a = draw(arrays(np.float64, (draw(st.integers(1, MAX_ROWS)), d),
                    elements=elements))
    b = draw(arrays(np.float64, (draw(st.integers(1, 12)), d),
                    elements=elements))
    return as_frame_matrix(a), as_frame_matrix(b)


class RecordingRng:
    """A seeded generator that records every probability vector passed to
    choice, so two seedings can be compared bit for bit."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.probs = []

    def integers(self, *args, **kwargs):
        return self.rng.integers(*args, **kwargs)

    def choice(self, n, p):
        self.probs.append(p.tobytes())
        return self.rng.choice(n, p=p)


def same_seeding(data, k, seed):
    got_rng, want_rng = RecordingRng(seed), RecordingRng(seed)
    got = _plus_plus_init(data, k, got_rng)
    want = oracle_plus_plus_init(data, k, want_rng)
    return got.tobytes() == want.tobytes() and got_rng.probs == want_rng.probs


def separated_frames(n, k, d, seed=0):
    """Noisy copies of k well-separated words."""
    rng = np.random.default_rng(seed)
    words = rng.random((k, d))
    return words[rng.integers(k, size=n)] + 0.01 * rng.random((n, d)), words


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
        want = oracle_pairwise_sq_dists(a, b)
        got = _pairwise_sq_dists(a, b)
        assert got.shape == (n, k)
        np.testing.assert_array_equal(got, want)
        rows = rng.permutation(n)[:n // 2 + 1]
        assert _pairwise_sq_dists(a, b, rows).tobytes() == want[rows].tobytes()
        assign = rng.integers(k, size=n)
        assert (_point_costs(a, b, assign).tobytes()
                == want[np.arange(n), assign].tobytes())

    @pytest.mark.parametrize("k,d", [(64, 128), (5, 3), (7, 1)])
    def test_rows_around_block_edges(self, k, d):
        for step in (KMEANS_BLOCK // (k * d), KMEANS_BLOCK // d):
            for n in (step - 1, step, step + 1, 2 * step + 1):
                self.check(n, k, d)

    def test_wide_rows_fall_back_to_one_row_per_block(self):
        k, d = 40, KMEANS_BLOCK // 40 + 1
        assert k * d > KMEANS_BLOCK
        self.check(3, k, d)
        self.check(3, 2, KMEANS_BLOCK + 1)  # one row per point-cost block

    def test_single_row(self):
        self.check(1, 64, 128)
        self.check(1, 1, 1)
        self.check(1, 1, 9000)  # a lone pair wider than einsum's 8192 buffer

    def test_a_row_does_not_depend_on_its_block(self):
        # einsum sums a lone pair of points in chunks of 8192 elements, a
        # block of pairs whole: rows wider than that show any difference
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(3, 9000)), rng.normal(size=(1, 9000))
        whole = _pairwise_sq_dists(a, b)
        for i in range(3):
            alone = a[i:i + 1]
            assert (_pairwise_sq_dists(alone, b).tobytes()
                    == whole[i].tobytes()
                    == _point_costs(alone, b, np.zeros(1, int)).tobytes())

    def test_oracle_gives_same_codebook_and_vlad(self, monkeypatch):
        rng = np.random.default_rng(4)
        frames = rng.normal(size=(700, 16))
        codebook = kmeans_fit(frames, k=9, seed=2)
        encoded = vlad_encode(frames[:300], codebook)
        monkeypatch.setattr(encoding, "_nearest", oracle_nearest)
        monkeypatch.setattr(encoding, "_plus_plus_init", oracle_plus_plus_init)
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

    def test_kmeans_makes_no_frame_sized_temporary(self):
        # the frames alone are 4.9 MB; the (n, k) screen 2.5 MB
        data, _ = separated_frames(4800, 64, 128)
        tracemalloc.start()
        try:
            kmeans_fit(data, k=64, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_kmeans_screens_in_row_blocks(self):
        # the frames are 1.2 MiB; one (n, k) screen alone would be 9.8 MiB
        data, _ = separated_frames(20000, 64, 8)
        tracemalloc.start()
        try:
            kmeans_fit(data, k=64, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("k", [64, 3])
    def test_nearest_across_screen_blocks(self, k):
        step = KMEANS_BLOCK // k
        rng = np.random.default_rng(k)
        b = rng.choice([0.0, 1.0, 0.5], (k, 4))  # ties open rows in every block
        for n in (step - 1, step, step + 1, 2 * step + 1):
            a = rng.choice([0.0, 1.0, 0.5], (n, 4))
            assert _nearest(a, b).tobytes() == oracle_nearest(a, b).tobytes()


class TestNearestScreen:
    """The screened nearest centroid and k-means++ seeding against the
    exact-distance oracles, bit for bit."""

    @settings(max_examples=300)
    @given(point_sets())
    @example((np.array([[0.0, 0.0]]), np.array([[1.0, 0.0], [-1.0, 0.0]])))
    @example((np.array([[5e-324], [-0.0]]), np.array([[0.0], [1e-323]])))
    # both distances underflow to a tie at 0.0; only tau's underflow term
    # keeps both columns open
    @example((np.ldexp([[-3.0]], -539), np.ldexp([[-2.0], [-3.0]], -539)))
    def test_nearest_matches_oracle(self, points):
        a, b = points
        np.testing.assert_array_equal(_nearest(a, b), oracle_nearest(a, b))

    @settings(max_examples=200)
    @given(point_sets(), st.integers(0, 2**64 - 1), st.data())
    def test_seeding_matches_oracle(self, points, seed, data):
        frames = points[0]
        k = data.draw(st.integers(1, len(frames)))
        assert same_seeding(frames, k, seed)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["few", "offset", "decades", "near_limit"]),
           st.integers(0, 2**32 - 1))
    def test_any_product_within_the_bound_gives_the_same_bytes(self, kind,
                                                               seed):
        # The screen's g is replaced by the exact distances moved by up to
        # 0.99 tau, half of them by the full 0.99 tau, as a BLAS with
        # another reduction order or thread count might. At d = 128 the
        # margin in tau covers the rounding of that move.
        rng = np.random.default_rng(seed)
        n, k, d = 60, 9, 128
        if kind in ("few", "offset"):
            frames = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5, 2.0], (n, d))
            if kind == "offset":
                frames += 2.0**27
        elif kind == "decades":
            frames = np.ldexp(rng.choice([-1.0, 1.0], (n, d)) * rng.random(
                (n, d)), rng.integers(-1074, 480, (n, d)))
        else:
            frames = rng.uniform(-1.0, 1.0, (n, d)) * overflow_limit(n * d)
        frames = as_frame_matrix(frames)
        real = encoding._screen

        def moved(a, a_sq, b):
            g, tau = real(a, a_sq, b)
            shift = np.where(rng.random(g.shape) < 0.5,
                             rng.choice([-1.0, 1.0], g.shape),
                             rng.uniform(-1.0, 1.0, g.shape))
            return (oracle_pairwise_sq_dists(a, b)
                    + 0.99 * shift * tau[:, None]), tau

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(encoding, "_screen", moved)
            centroids = frames[rng.choice(n, k, replace=False)]
            np.testing.assert_array_equal(
                _nearest(frames, centroids), oracle_nearest(frames, centroids)
            )
            assert same_seeding(frames, k, seed)

    def test_exact_fallback_only_where_rounding_could_decide(self,
                                                             monkeypatch):
        exact_rows = []

        def spy(a, b, rows):
            exact_rows.append(len(rows))
            return oracle_pairwise_sq_dists(a[rows], b)

        monkeypatch.setattr(encoding, "_pairwise_sq_dists", spy)
        frames, words = separated_frames(400, 16, 32)
        np.testing.assert_array_equal(
            _nearest(frames, words), oracle_nearest(frames, words))
        vlad_encode(frames, Codebook(centroids=words, seed=0))
        assert exact_rows == []
        # 0/1 frames against 0/1 words: most frames tie between words
        rng = np.random.default_rng(1)
        frames = rng.integers(0, 2, (400, 6)).astype(np.float64)
        words = np.unique(frames, axis=0)[::3]
        np.testing.assert_array_equal(
            _nearest(frames, words), oracle_nearest(frames, words))
        assert sum(exact_rows) > 0


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

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ContractViolation, match="k must be >= 1"):
            kmeans_fit(np.eye(3), k=k, seed=0)

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
        # each Lloyd round's point costs are scaled so that its objective
        # is the last one's times (1 + rise); assignments do not change
        real = encoding._point_costs
        reported = []

        def creeping(a, b, assign):
            cost = real(a, b, assign)
            true = float(cost.sum())
            reported.append(reported[-1] * (1.0 + rise) if reported else true)
            return cost * (reported[-1] / true)

        monkeypatch.setattr(encoding, "_point_costs", creeping)
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
            "real, calls = enc._point_costs, []\n"
            "def rising(a, b, assign):\n"
            "    calls.append(None)\n"
            "    return real(a, b, assign) * 10.0 ** len(calls)\n"
            "enc._point_costs = rising\n"
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
