"""File formats and atomic output writing.

Formats handled here:

* frame features per video: CSV (one frame per line) or binary
  ``u32 frame_count, u32 dim, f32 row-major`` (little-endian)
* id-tagged vector CSV: ``item_id,v1,...,vd``
* labeled Gram CSV: a ``cols,<id>,...`` line, then ``row_id,<value>,...``
  rows
* score/label CSV: ``item_id,score`` / ``item_id,label``
* binary containers for codebooks (magic ``HKCB``) and SVM models
  (magic ``HKSV``), each with a format-version byte

``_records`` is the one line grammar of every text input, here and in
``taxonomy`` (``is_a``, counts, names), ``labelmap`` and ``bottomup``
(subsample plan): a line that is blank or starts with ``#`` once stripped
is skipped, every other line is stripped and split into fields, and line
numbers count every line. Floats are rendered with ``repr`` so output is
byte-stable and re-parses to the same double.
"""

from __future__ import annotations

import os
import struct
import tempfile
from functools import partial

import numpy as np

from .encoding import Codebook
from .errors import ContractViolation, ParseError
from .parallel import map_chunks
from .svm import SvmModel

CODEBOOK_MAGIC = b"HKCB"
MODEL_MAGIC = b"HKSV"
FORMAT_VERSION = 1
# The solver's pair updates can leave an alpha a few ulps outside [0, C];
# a model is rejected only beyond this fraction of C.
ALPHA_SLACK = 1e-9


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write via a sibling temp file and rename, so outputs never go partial."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hierkit-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def fmt(value: float) -> str:
    return repr(float(value))


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _parse_float(token: str, lineno: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"non-numeric value {token!r}", line=lineno) from None


def _floats(tokens: list[str], lineno: int) -> list[float]:
    try:
        return list(map(float, tokens))
    except ValueError:  # re-parse one by one to name the first bad token
        return [_parse_float(tok, lineno) for tok in tokens]


def _records(text: str, sep: str | None = ","):
    """``(lineno, raw, fields)`` for every line that is neither blank nor a
    ``#`` comment once stripped: the one line grammar of every text input.
    ``sep=None`` splits on runs of whitespace.

    The text is released before the first record, so a large input is not
    held twice while it is parsed.
    """
    lines = text.splitlines()
    del text
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and line[0] != "#":
            yield lineno, raw, line.split(sep)


def _row_text(row: np.ndarray) -> str:
    """One matrix row as CSV values: ``fmt`` of each, in one pass."""
    return ",".join(map(repr, row.tolist()))


def _float_rows(text: str, id_fields: int,
                kind: str) -> tuple[list[str], np.ndarray]:
    """Equal-width float rows, each after ``id_fields`` leading ids."""
    ids: list[str] = []
    rows: list[list[float]] = []
    width = None
    for lineno, raw, tokens in _records(text):
        if len(tokens) <= id_fields:
            raise ParseError(
                f"expected 'item_id,v1,...', got {raw!r}", line=lineno
            )
        values = _floats(tokens[id_fields:], lineno)
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise ParseError(
                f"row has {len(values)} values, expected {width}", line=lineno
            )
        ids.extend(tokens[:id_fields])
        rows.append(values)
    if not rows:
        raise ParseError(f"no {kind} rows found")
    return ids, np.asarray(rows, dtype=np.float64)


# -- frame matrices ---------------------------------------------------------

def read_frames_csv(text: str) -> np.ndarray:
    return _float_rows(text, 0, "frame")[1]


def read_frames_bin(data: bytes) -> np.ndarray:
    if len(data) < 8:
        raise ParseError("binary frame file shorter than its header")
    count, dim = struct.unpack("<II", data[:8])
    expected = 8 + 4 * count * dim
    if len(data) != expected:
        raise ParseError(
            f"binary frame file has {len(data)} bytes, expected {expected}"
        )
    if count == 0 or dim == 0:
        raise ParseError("binary frame file declares an empty matrix")
    flat = np.frombuffer(data, dtype="<f4", offset=8)
    return flat.reshape(count, dim).astype(np.float64)


def read_frames_file(path: str, fmt_name: str | None = None) -> np.ndarray:
    """Load one video's frames; format inferred from extension when not given."""
    if fmt_name is None:
        fmt_name = "bin" if path.endswith(".bin") else "csv"
    if fmt_name not in ("bin", "csv"):
        raise ContractViolation(f"unknown frame format {fmt_name!r}")
    if fmt_name == "bin":
        return read_frames_bin(_read_bytes(path))
    return read_frames_csv(_read_text(path))


# -- id-tagged vectors ------------------------------------------------------

def _line_edges(text: str, parts: int) -> list[int]:
    """Offsets cutting ``text`` into ``parts`` spans of whole lines: each
    inner cut follows a newline near an equal share of the characters."""
    edges = [0]
    for part in range(1, parts):
        cut = text.find("\n", max(edges[-1], len(text) * part // parts)) + 1
        if not cut:
            break
        edges.append(cut)
    return edges + [len(text)]


def _vector_rows(text: str, lo: int, hi: int) -> tuple[list[str], np.ndarray]:
    return _float_rows(text[lo:hi], 1, "vector")


def read_vectors_csv(text: str) -> tuple[list[str], np.ndarray]:
    """Ids and vectors of a vector CSV. Large texts are parsed in line
    chunks on several CPUs (``parallel.map_chunks``); if any chunk fails,
    or the chunks disagree on the width, the whole text is parsed again in
    one pass, so an error names the line and message a serial parse does.
    """
    try:
        chunks = map_chunks(partial(_vector_rows, text), len(text),
                            partial(_line_edges, text))
    except ParseError:
        chunks = []
    if len({rows.shape[1] for _, rows in chunks}) != 1:
        chunks = [_float_rows(text, 1, "vector")]
    ids = [item for chunk_ids, _ in chunks for item in chunk_ids]
    vectors = np.concatenate([rows for _, rows in chunks])
    if len(set(ids)) != len(ids):
        raise ParseError("duplicate item ids in vector file")
    return ids, vectors


def write_vectors_csv(ids: list[str], vectors: np.ndarray,
                      header: str | None = None) -> str:
    arr = np.asarray(vectors, dtype=np.float64)
    lines = [f"# {header}"] if header else []
    lines.extend(
        item_id + "," + _row_text(row) for item_id, row in zip(ids, arr)
    )
    return "\n".join(lines) + "\n"


# -- labeled Gram matrices --------------------------------------------------

def write_gram_csv(row_ids: list[str], col_ids: list[str],
                   values: np.ndarray, header: str | None = None) -> str:
    arr = np.asarray(values, dtype=np.float64)
    lines = [f"# {header}"] if header else []
    lines.append("cols," + ",".join(col_ids))
    lines.extend(
        row_id + "," + _row_text(row) for row_id, row in zip(row_ids, arr)
    )
    return "\n".join(lines) + "\n"


def read_gram_csv(text: str) -> tuple[list[str], list[str], np.ndarray]:
    row_ids: list[str] = []
    col_ids: list[str] | None = None
    rows: list[list[float]] = []
    for lineno, raw, tokens in _records(text):
        if col_ids is None:
            if tokens[0] != "cols" or len(tokens) < 2:
                raise ParseError(
                    "first data line must be 'cols,<id>,...'", line=lineno
                )
            col_ids = tokens[1:]
            continue
        if len(tokens) != len(col_ids) + 1:
            raise ParseError(
                f"row has {len(tokens) - 1} values, expected {len(col_ids)}",
                line=lineno,
            )
        row_ids.append(tokens[0])
        rows.append(_floats(tokens[1:], lineno))
    if col_ids is None or not rows:
        raise ParseError("no gram rows found")
    if len(set(row_ids)) != len(row_ids):
        raise ParseError("duplicate row ids in gram file")
    if len(set(col_ids)) != len(col_ids):
        raise ParseError("duplicate column ids in gram file")
    return row_ids, col_ids, np.asarray(rows, dtype=np.float64)


# -- scores and labels ------------------------------------------------------

def read_scores_csv(text: str) -> list[tuple[str, float]]:
    out: list[tuple[str, float]] = []
    for lineno, raw, tokens in _records(text):
        if len(tokens) != 2:
            raise ParseError(
                f"expected 'item_id,score', got {raw!r}", line=lineno
            )
        out.append((tokens[0], _parse_float(tokens[1], lineno)))
    if not out:
        raise ParseError("no score rows found")
    return out


def write_scores_csv(scores: list[tuple[str, float]],
                     header: str | None = None) -> str:
    lines = [f"# {header}"] if header else []
    lines.extend(f"{item_id},{fmt(score)}" for item_id, score in scores)
    return "\n".join(lines) + "\n"


def read_labels_csv(text: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for lineno, raw, tokens in _records(text):
        if len(tokens) != 2 or tokens[1] not in ("0", "1"):
            raise ParseError(
                f"expected 'item_id,label' with label 0 or 1, got {raw!r}",
                line=lineno,
            )
        if tokens[0] in out:
            raise ParseError(f"duplicate item id {tokens[0]!r}", line=lineno)
        out[tokens[0]] = int(tokens[1])
    if not out:
        raise ParseError("no label rows found")
    return out


# -- binary containers ------------------------------------------------------

def _pack_blob(payload: bytes) -> bytes:
    return struct.pack("<I", len(payload)) + payload


def _take(data: bytes, offset: int, size: int) -> tuple[bytes, int]:
    """The ``size`` bytes at ``offset`` and the offset after them."""
    end = offset + size
    if end > len(data):
        raise ParseError("truncated container")
    return data[offset:end], end


def _unpack_from(fmt_code: str, data: bytes, offset: int) -> tuple[tuple, int]:
    raw, offset = _take(data, offset, struct.calcsize(fmt_code))
    return struct.unpack(fmt_code, raw), offset


def _unpack_text(data: bytes, offset: int) -> tuple[str, int]:
    (size,), offset = _unpack_from("<I", data, offset)
    raw, offset = _take(data, offset, size)
    try:
        return raw.decode("utf-8"), offset
    except UnicodeDecodeError:
        raise ParseError("container text is not UTF-8") from None


def _unpack_header(data: bytes, magic: bytes, kind: str) -> int:
    """Check magic and version; return the offset after them."""
    if data[:4] != magic:
        raise ParseError(f"not a {kind} container")
    (version,), offset = _unpack_from("<B", data, 4)
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported {kind} version {version}")
    return offset


def write_codebook(codebook: Codebook, provenance: str = "") -> bytes:
    parts = [
        CODEBOOK_MAGIC,
        struct.pack("<B", FORMAT_VERSION),
        _pack_blob(provenance.encode("utf-8")),
        struct.pack("<IIQ", codebook.k, codebook.dim, codebook.seed),
        codebook.centroids.astype("<f8").tobytes(order="C"),
    ]
    return b"".join(parts)


def read_codebook(data: bytes) -> tuple[Codebook, str]:
    offset = _unpack_header(data, CODEBOOK_MAGIC, "codebook")
    provenance, offset = _unpack_text(data, offset)
    (k, d, seed), offset = _unpack_from("<IIQ", data, offset)
    if k == 0 or d == 0:
        raise ParseError("codebook declares an empty matrix")
    if len(data) != offset + 8 * k * d:
        raise ParseError("codebook payload size mismatch")
    centroids = np.frombuffer(data, dtype="<f8", offset=offset).reshape(k, d)
    return Codebook(centroids=centroids.copy(), seed=seed), provenance


def write_model(model: SvmModel, provenance: str = "") -> bytes:
    ids_blob = (
        "\n".join(model.train_ids).encode("utf-8") if model.train_ids else b""
    )
    n = model.alpha.shape[0]
    parts = [
        MODEL_MAGIC,
        struct.pack("<B", FORMAT_VERSION),
        _pack_blob(provenance.encode("utf-8")),
        struct.pack("<Idd", n, model.C, model.bias),
        model.alpha.astype("<f8").tobytes(),
        model.labels.astype("<i1").tobytes(),
        _pack_blob(ids_blob),
    ]
    return b"".join(parts)


def read_model(data: bytes) -> tuple[SvmModel, str]:
    offset = _unpack_header(data, MODEL_MAGIC, "model")
    provenance, offset = _unpack_text(data, offset)
    (n, c_value, bias), offset = _unpack_from("<Idd", data, offset)
    raw_alpha, offset = _take(data, offset, 8 * n)
    raw_labels, offset = _take(data, offset, n)
    ids_text, offset = _unpack_text(data, offset)
    if offset != len(data):
        raise ParseError("model payload size mismatch")
    alpha = np.frombuffer(raw_alpha, dtype="<f8").copy()
    labels = np.frombuffer(raw_labels, dtype="<i1")
    if not np.all((labels == -1) | (labels == 1)):
        raise ParseError("model labels must be -1 or +1")
    if not (np.isfinite(c_value) and c_value > 0):
        raise ParseError(f"model C must be finite and > 0, got {c_value}")
    slack = ALPHA_SLACK * c_value
    if not np.all((alpha >= -slack) & (alpha <= c_value + slack)):
        raise ParseError("model alpha outside [0, C]")
    if not np.isfinite(bias):
        raise ParseError(f"model bias must be finite, got {bias}")
    train_ids = ids_text.split("\n") if ids_text else None
    if train_ids is not None and len(train_ids) != n:
        raise ParseError(f"model has {len(train_ids)} training ids, not {n}")
    model = SvmModel(
        alpha=alpha,
        labels=labels.astype(np.float64),
        bias=bias,
        C=c_value,
        train_ids=train_ids,
    )
    return model, provenance
