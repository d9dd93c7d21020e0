"""File formats: frames, vectors, grams, scores, binary containers."""

import math
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierkit.bottomup import read_plan
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
from hierkit.labelmap import read_label_map
from hierkit.svm import SvmModel
from hierkit.taxonomy import parse_counts, parse_isa_edges, parse_names

from oracles import (
    oracle_read_frames_csv,
    oracle_read_gram_csv,
    oracle_read_labels_csv,
    oracle_read_scores_csv,
    oracle_read_vectors_csv,
)


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


_MODEL = SvmModel(
    alpha=np.array([0.0, 0.5, 1.0]),
    labels=np.array([1.0, -1.0, 1.0]),
    bias=0.25,
    C=1.0,
)
# write_model with empty provenance: magic, version, u32 0, u32 n, f64 C,
# f64 bias, f64 alpha[n], i8 labels[n], ids blob
_C_AT, _BIAS_AT, _ALPHA_AT = 13, 21, 29
_LABELS_AT = _ALPHA_AT + 8 * 3


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

    def test_model_field_offsets(self):
        blob = write_model(_MODEL)
        assert struct.unpack_from("<dd", blob, _C_AT) == (1.0, 0.25)
        assert struct.unpack_from("<3d", blob, _ALPHA_AT) == (0.0, 0.5, 1.0)
        assert struct.unpack_from("<3b", blob, _LABELS_AT) == (1, -1, 1)

    @pytest.mark.parametrize("at,fmt_code,value", [
        (_LABELS_AT, "<b", 5),
        (_LABELS_AT + 1, "<b", 0),
        (_C_AT, "<d", -3.0),
        (_C_AT, "<d", 0.0),
        (_C_AT, "<d", math.inf),
        (_C_AT, "<d", math.nan),
        (_BIAS_AT, "<d", math.nan),
        (_BIAS_AT, "<d", -math.inf),
        (_ALPHA_AT, "<d", -0.5),
        (_ALPHA_AT + 8, "<d", 1.5),
        (_ALPHA_AT + 16, "<d", math.nan),
        (_ALPHA_AT + 16, "<d", math.inf),
    ])
    def test_invalid_model_field_rejected(self, at, fmt_code, value):
        blob = write_model(_MODEL)
        size = struct.calcsize(fmt_code)
        bad = blob[:at] + struct.pack(fmt_code, value) + blob[at + size:]
        with pytest.raises(ParseError):
            read_model(bad)

    def test_alpha_rounded_past_its_box_loads(self):
        # the solver's pair updates can land a few ulps outside [0, C]
        model = SvmModel(
            alpha=np.array([-5e-17, 0.5, np.nextafter(1.0, 2.0)]),
            labels=np.array([1.0, -1.0, 1.0]),
            bias=0.25,
            C=1.0,
        )
        parsed, _ = read_model(write_model(model))
        np.testing.assert_array_equal(parsed.alpha, model.alpha)


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


# -- text readers against the original loops, and under fuzzing -------------

def _assert_same(got, expected):
    if isinstance(expected, np.ndarray):
        assert got.dtype == expected.dtype and got.shape == expected.shape
        np.testing.assert_array_equal(got, expected)
    elif isinstance(expected, (list, tuple)):
        assert type(got) is type(expected) and len(got) == len(expected)
        for g, e in zip(got, expected):
            _assert_same(g, e)
    elif isinstance(expected, dict):
        assert list(got) == list(expected)
        for key in expected:
            _assert_same(got[key], expected[key])
    elif isinstance(expected, float):
        assert got == expected or (math.isnan(got) and math.isnan(expected))
    else:
        assert got == expected


def _same_outcome(reader, oracle, text):
    """The reader returns what the oracle returns, or the same ParseError."""
    try:
        expected = oracle(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            reader(text)
        assert str(got.value) == str(exc)
        return
    _assert_same(reader(text), expected)


_ids = st.text(alphabet="abv01 _-", min_size=1, max_size=3)
_values = st.floats(width=64)


@st.composite
def _csv_text(draw, kind):
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 3))
    matrix = np.array(draw(st.lists(
        st.lists(_values, min_size=d, max_size=d), min_size=n, max_size=n
    )))
    ids = draw(st.lists(_ids, min_size=n, max_size=n))
    header = draw(st.one_of(st.none(), st.just("hierkit 0.1.0 test")))
    if kind == "frames":
        return write_frames_csv(matrix)
    if kind == "vectors":
        return write_vectors_csv(ids, matrix, header=header)
    if kind == "gram":
        cols = draw(st.lists(_ids, min_size=d, max_size=d))
        return write_gram_csv(ids, cols, matrix, header=header)
    if kind == "scores":
        return write_scores_csv(list(zip(ids, matrix[:, 0])), header=header)
    labels = draw(st.lists(st.sampled_from("01"), min_size=n, max_size=n))
    return "".join(f"{i},{v}\n" for i, v in zip(ids, labels))


_BAD_TOKENS = ("x", "", " ", "1..2", "--1", "0x1", "2")


@st.composite
def _mutated(draw, text):
    """Blank, comment and padded lines, bad or missing or extra tokens,
    dropped lines, and CRLF endings."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from((
            "blank", "comment", "pad", "bad", "drop_token", "extra_token",
            "drop_line",
        )))
        if kind == "blank":
            lines.insert(at, draw(st.sampled_from(("", "  ", "\t"))))
        elif kind == "comment":
            lines.insert(at, draw(st.sampled_from(("# note", "  #a,1", "#"))))
        elif at == len(lines):
            continue
        elif kind == "pad":
            lines[at] = " " + lines[at] + "\t"
        elif kind == "drop_line":
            del lines[at]
        else:
            tokens = lines[at].split(",")
            slot = draw(st.integers(0, len(tokens) - 1))
            if kind == "bad":
                tokens[slot] = draw(st.sampled_from(_BAD_TOKENS))
            elif kind == "drop_token":
                del tokens[slot]
            else:
                tokens.insert(slot, draw(st.sampled_from(("0.5", "a"))))
            lines[at] = ",".join(tokens)
    newline = draw(st.sampled_from(("\n", "\r\n")))
    return newline.join(lines) + draw(st.sampled_from(("", newline)))


_ORACLES = {
    "frames": (read_frames_csv, oracle_read_frames_csv),
    "vectors": (read_vectors_csv, oracle_read_vectors_csv),
    "gram": (read_gram_csv, oracle_read_gram_csv),
    "scores": (read_scores_csv, oracle_read_scores_csv),
    "labels": (read_labels_csv, oracle_read_labels_csv),
}

# (reader, header its input needs, field separator)
_LINE_READERS = (
    (read_frames_csv, "", ","),
    (read_vectors_csv, "", ","),
    (read_gram_csv, "cols,a,b\n", ","),
    (read_scores_csv, "", ","),
    (read_labels_csv, "", ","),
    (parse_isa_edges, "", " "),
    (parse_counts, "", " "),
    (parse_names, "", "\t"),
    (read_label_map, "# hierkit-labelmap v1 p\n", "\t"),
    (read_plan, "# hierkit-subsample-plan v1 rule=shuffle-v1 t_s=5 seed=3\n",
     "\t"),
)


def _line_soup(sep):
    """Lines of few fields from a small token set: reaches the per-field
    checks that arbitrary text rarely gets past."""
    tokens = st.sampled_from(("0", "1", "-1", "3", "x", "", "#UNASSIGNED"))
    line = st.lists(tokens, max_size=4).map(sep.join)
    return st.lists(line, max_size=6).map("\n".join)


class TestTextReaders:
    @pytest.mark.parametrize("kind", sorted(_ORACLES))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_written_text_matches_oracle(self, kind, data):
        reader, oracle = _ORACLES[kind]
        text = data.draw(_csv_text(kind))
        _same_outcome(reader, oracle, text)
        _same_outcome(reader, oracle, data.draw(_mutated(text)))

    @pytest.mark.parametrize("kind", sorted(_ORACLES))
    @settings(max_examples=40, deadline=None)
    @given(text=st.one_of(st.text(max_size=40), _line_soup(",")))
    def test_arbitrary_text_matches_oracle(self, kind, text):
        reader, oracle = _ORACLES[kind]
        _same_outcome(reader, oracle, text)

    @pytest.mark.parametrize("reader,head,sep", _LINE_READERS,
                             ids=[r.__name__ for r, _, _ in _LINE_READERS])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_arbitrary_text_parses_or_raises_parse_error(self, reader, head,
                                                          sep, data):
        body = data.draw(st.one_of(st.text(max_size=40), _line_soup(sep)))
        try:
            reader(head + body)
        except ParseError:
            pass
