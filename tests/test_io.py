"""File formats: frames, vectors, grams, scores, binary containers."""

import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierkit.encoding import Codebook
from hierkit.errors import ParseError
from hierkit.io import (
    atomic_write_text,
    read_codebook,
    read_frames_bin,
    read_frames_csv,
    read_gram_csv,
    read_labels_csv,
    read_model,
    read_scores_csv,
    read_vectors_csv,
    write_codebook,
    write_frames_bin,
    write_frames_csv,
    write_gram_csv,
    write_model,
    write_scores_csv,
    write_vectors_csv,
)
from hierkit.svm import SvmModel


class TestFrames:
    def test_csv_roundtrip(self):
        frames = np.array([[1.5, -2.25], [0.0, 3.125]])
        np.testing.assert_array_equal(
            read_frames_csv(write_frames_csv(frames)), frames
        )

    def test_csv_ragged_rejected(self):
        with pytest.raises(ParseError, match="line 2"):
            read_frames_csv("1.0,2.0\n3.0\n")

    def test_csv_empty_rejected(self):
        with pytest.raises(ParseError):
            read_frames_csv("# only comments\n")

    def test_bin_roundtrip(self):
        frames = np.array([[1.5, -2.25, 7.0], [0.0, 3.125, -1.0]])
        np.testing.assert_array_equal(
            read_frames_bin(write_frames_bin(frames)), frames
        )

    def test_bin_layout_is_header_plus_f32(self):
        frames = np.array([[1.0, 2.0]])
        blob = write_frames_bin(frames)
        assert blob[:8] == (1).to_bytes(4, "little") + (2).to_bytes(4, "little")
        assert len(blob) == 8 + 4 * 2

    def test_bin_size_mismatch_rejected(self):
        blob = write_frames_bin(np.ones((2, 2)))
        with pytest.raises(ParseError):
            read_frames_bin(blob[:-1])


class TestVectors:
    def test_roundtrip_with_header(self):
        ids = ["vidA", "vidB"]
        vectors = np.array([[0.25, 0.75], [1.0, 0.0]])
        text = write_vectors_csv(ids, vectors, header="prov line")
        assert text.startswith("# prov line\n")
        got_ids, got = read_vectors_csv(text)
        assert got_ids == ids
        np.testing.assert_array_equal(got, vectors)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ParseError):
            read_vectors_csv("a,1.0\na,2.0\n")


class TestGram:
    def test_roundtrip(self):
        values = np.array([[1.0, 0.5], [0.5, 1.0]])
        text = write_gram_csv(["r1", "r2"], ["c1", "c2"], values, header="h")
        rows, cols, got = read_gram_csv(text)
        assert rows == ["r1", "r2"]
        assert cols == ["c1", "c2"]
        np.testing.assert_array_equal(got, values)

    def test_missing_cols_line_rejected(self):
        with pytest.raises(ParseError):
            read_gram_csv("r1,1.0,0.5\n")

    def test_width_mismatch_rejected(self):
        with pytest.raises(ParseError, match="line 3"):
            read_gram_csv("cols,c1,c2\nr1,1.0,0.5\nr2,1.0\n")

    def test_duplicate_row_ids_rejected(self):
        with pytest.raises(ParseError, match="duplicate row ids"):
            read_gram_csv("cols,c1,c2\nr1,1.0,0.5\nr1,0.5,1.0\n")

    def test_duplicate_col_ids_rejected(self):
        with pytest.raises(ParseError, match="duplicate column ids"):
            read_gram_csv("cols,c1,c1\nr1,1.0,0.5\nr2,0.5,1.0\n")


class TestScoresAndLabels:
    def test_scores_roundtrip(self):
        scores = [("a", 0.125), ("b", -3.5)]
        assert read_scores_csv(write_scores_csv(scores, header="p")) == scores

    def test_labels_parse(self):
        assert read_labels_csv("a,1\nb,0\n") == {"a": 1, "b": 0}

    def test_labels_reject_other_values(self):
        with pytest.raises(ParseError):
            read_labels_csv("a,2\n")


class TestContainers:
    def test_codebook_roundtrip(self):
        codebook = Codebook(
            centroids=np.array([[1.0, 2.0], [3.0, 4.0]]), seed=42
        )
        blob = write_codebook(codebook, provenance="fitted on toy")
        parsed, provenance = read_codebook(blob)
        np.testing.assert_array_equal(parsed.centroids, codebook.centroids)
        assert parsed.seed == 42
        assert provenance == "fitted on toy"

    def test_codebook_bad_magic_rejected(self):
        with pytest.raises(ParseError):
            read_codebook(b"NOPE" + bytes(40))

    @pytest.mark.parametrize("k,d", [(0, 3), (2, 0)])
    def test_empty_codebook_rejected(self, k, d):
        blob = b"HKCB\x01" + struct.pack("<IIIQ", 0, k, d, 0)
        with pytest.raises(ParseError):
            read_codebook(blob)

    def test_model_roundtrip(self):
        model = SvmModel(
            alpha=np.array([0.0, 1.5, 100.0]),
            labels=np.array([1.0, -1.0, 1.0]),
            bias=-0.75,
            C=100.0,
            train_ids=["t1", "t2", "t3"],
        )
        parsed, provenance = read_model(write_model(model, provenance="m"))
        np.testing.assert_array_equal(parsed.alpha, model.alpha)
        np.testing.assert_array_equal(parsed.labels, model.labels)
        assert parsed.bias == model.bias
        assert parsed.C == model.C
        assert parsed.train_ids == model.train_ids
        assert provenance == "m"

    def test_model_without_ids(self):
        model = SvmModel(
            alpha=np.zeros(2),
            labels=np.array([1.0, -1.0]),
            bias=0.0,
            C=1.0,
        )
        parsed, _ = read_model(write_model(model))
        assert parsed.train_ids is None

    def test_truncated_container_rejected(self):
        model = SvmModel(
            alpha=np.zeros(2),
            labels=np.array([1.0, -1.0]),
            bias=0.0,
            C=1.0,
        )
        blob = write_model(model)
        with pytest.raises(ParseError):
            read_model(blob + b"extra")


def _codebook_bytes(k, d, text):
    centroids = np.arange(k * d, dtype=np.float64).reshape(k, d) / 7.0
    return write_codebook(Codebook(centroids=centroids, seed=k), text)


def _model_bytes(n, text):
    model = SvmModel(
        alpha=np.linspace(0.0, 1.0, n),
        labels=np.where(np.arange(n) % 2 == 0, 1.0, -1.0),
        bias=0.25,
        C=1.0,
        train_ids=[f"{text}{i}" for i in range(n)] or None,
    )
    return write_model(model, text)


def _parsed_or_rejected(reader, data):
    """Run a container reader; anything but a result or ParseError fails."""
    try:
        obj, provenance = reader(data)
    except ParseError:
        return None
    assert isinstance(provenance, str)
    return obj


_texts = st.text(max_size=6)
_codebooks = st.builds(
    _codebook_bytes, st.integers(1, 4), st.integers(1, 4), _texts
)
_models = st.builds(_model_bytes, st.integers(0, 5), _texts)


class TestContainerFuzz:
    @settings(max_examples=60)
    @given(_codebooks, st.data())
    def test_codebook_prefix_is_rejected(self, blob, data):
        cut = data.draw(st.integers(0, len(blob) - 1))
        assert _parsed_or_rejected(read_codebook, blob[:cut]) is None

    @settings(max_examples=60)
    @given(_models, st.data())
    def test_model_prefix_is_rejected(self, blob, data):
        cut = data.draw(st.integers(0, len(blob) - 1))
        assert _parsed_or_rejected(read_model, blob[:cut]) is None

    @settings(max_examples=200)
    @given(
        st.sampled_from([b"", b"HKCB\x01", b"HKSV\x01"]),
        st.binary(max_size=64),
    )
    def test_arbitrary_bytes_parse_or_raise_parse_error(self, head, tail):
        book = _parsed_or_rejected(read_codebook, head + tail)
        if book is not None:
            assert book.centroids.shape == (book.k, book.dim)
            assert book.k >= 1 and book.dim >= 1
        model = _parsed_or_rejected(read_model, head + tail)
        if model is not None:
            assert model.alpha.shape == model.labels.shape

    @settings(max_examples=200)
    @given(st.one_of(_codebooks, _models), st.data())
    def test_corrupted_byte_parses_or_raises_parse_error(self, blob, data):
        at = data.draw(st.integers(0, len(blob) - 1))
        value = data.draw(st.integers(0, 255))
        bad = blob[:at] + bytes([value]) + blob[at + 1:]
        _parsed_or_rejected(read_codebook, bad)
        _parsed_or_rejected(read_model, bad)

    @pytest.mark.parametrize("reader", [read_codebook, read_model])
    @pytest.mark.parametrize("size", [4, 5, 10, 30])
    def test_short_container_is_parse_error(self, reader, size):
        blob = _codebook_bytes(2, 3, "p") if reader is read_codebook else (
            _model_bytes(3, "p")
        )
        with pytest.raises(ParseError):
            reader(blob[:size])


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(str(target), "one\n")
        atomic_write_text(str(target), "two\n")
        assert target.read_text() == "two\n"
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".hierkit")]
        assert leftovers == []
