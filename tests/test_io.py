"""File formats: frames, vectors, grams, scores, binary containers."""

import os

import numpy as np
import pytest

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


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(str(target), "one\n")
        atomic_write_text(str(target), "two\n")
        assert target.read_text() == "two\n"
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".hierkit")]
        assert leftovers == []
