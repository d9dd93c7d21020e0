"""File formats and atomic output writing.

Formats handled here:

* frame features per video: CSV (one frame per line) or binary
  ``u32 frame_count, u32 dim, f32 row-major`` (little-endian)
* id-tagged vector CSV: ``item_id,v1,...,vd``
* labeled Gram CSV: a ``cols,<id>,...`` line, then a vector table whose
  width that line fixes
* score/label CSV: ``item_id,score`` / ``item_id,label``
* binary containers for codebooks (magic ``HKCB``) and SVM models
  (magic ``HKSV``), each with a format-version byte

``_records`` is the one line grammar of every text input, here and in
``taxonomy`` (``is_a``, counts, names), ``labelmap`` and ``bottomup``
(subsample plan): a line that is blank or starts with ``#`` once stripped
is skipped, every other line is stripped and split into fields, and line
numbers count every line. It takes a whole text or an open text file; a
file is read ``READ_BLOCK`` characters at a time, so a large input such as
``images.tsv`` is never held as one text. On its records, ``_fields`` is
the one field-count check and ``_count_table`` the one ``synset count``
reader. Floats are rendered with ``repr`` so output is byte-stable and
re-parses to the same double.

Outputs are written to a sibling temp file and renamed into place, so they
never go partial; an output that cannot be written is a UsageError. A
text output is lines, which ``atomic_write_text`` writes one at a time.
The table writers (``write_vectors_csv``, ``write_gram_csv``,
``write_scores_csv``) yield one per row from the one row writer
``_table_lines``, taking the rows (a matrix, or rows made one at a time)
lazily, so consume the lines before changing them.
"""

from __future__ import annotations

import os
import struct
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from functools import partial
from typing import TextIO

import numpy as np

from .encoding import Codebook
from .errors import ParseError, UsageError
from .parallel import map_chunks
from .svm import SvmModel

CODEBOOK_MAGIC = b"HKCB"
MODEL_MAGIC = b"HKSV"
FORMAT_VERSION = 1
# The solver's pair updates can leave an alpha a few ulps outside [0, C];
# a model is rejected only beyond this fraction of C.
ALPHA_SLACK = 1e-9


# Characters per read when _records reads an open file. Over a 1.1M-line
# images.tsv on a 2-vCPU Xeon, blocks of 2**12 to 2**17 were fastest and
# within noise of each other; 2**20, and one whole-text block, were slower.
READ_BLOCK = 1 << 16
# The characters str.splitlines ends a line at; universal newlines have
# already read every \r\n and lone \r as \n.
_LINE_BREAKS = frozenset("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")


def _atomic_write(path: str, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` in order to a sibling temp file, then rename it to
    ``path``. The temp file is created with mode 0o666 less the umask, the
    mode ``open`` gives a new file. Failing to create, write or rename it
    (a missing directory, a directory at ``path``, a full disk) is a
    UsageError naming ``path``; the temp file is removed on any failure."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".hierkit-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as handle:
                for chunk in chunks:
                    handle.write(chunk)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write via a sibling temp file and rename, so outputs never go partial."""
    _atomic_write(path, (data,))


def atomic_write_text(path: str, pieces: Iterable[str]) -> None:
    """Write ``pieces`` (lines; a ``str`` would go a character at a time)
    atomically as UTF-8, each as it is taken: no whole text is held, and a
    piece that raises leaves ``path`` as it was."""
    _atomic_write(path, (piece.encode("utf-8") for piece in pieces))


def fmt(value: float) -> str:
    return repr(float(value))


@contextmanager
def _open_text(path: str) -> Iterator[TextIO]:
    """``path`` open for reading as UTF-8 with universal newlines. Failing
    to open or to decode it, at any read, is a ParseError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            yield handle
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _read_text(path: str) -> str:
    with _open_text(path) as handle:
        return handle.read()


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


def _floats(tokens: list[str], lineno: int) -> np.ndarray:
    """``tokens`` as one float64 array, each parsed by ``float``: 8 bytes a
    value, where a list of floats holds 32."""
    try:
        return np.fromiter(map(float, tokens), np.float64, len(tokens))
    except ValueError:  # re-parse one by one to name the first bad token
        return np.array([_parse_float(tok, lineno) for tok in tokens])


def _line_blocks(source: str | TextIO) -> Iterator[list[str]]:
    """The lines of ``source``, as ``str.splitlines`` gives them, in lists:
    one for a text, one per read for a file. A read's unterminated last
    line is carried into the next read, which takes ``READ_BLOCK``
    characters or, after a longer carry, as many as the carry holds, so a
    line of any length is copied a bounded number of times."""
    if isinstance(source, str):
        lines = source.splitlines()
        del source
        yield lines
        return
    carry = ""
    while block := source.read(max(READ_BLOCK, len(carry))):
        lines = (carry + block).splitlines()
        carry = "" if block[-1] in _LINE_BREAKS else lines.pop()
        yield lines
    if carry:
        yield [carry]


def _records(source: str | TextIO, sep: str | None = ","):
    """``(lineno, raw, fields)`` for every line that is neither blank nor a
    ``#`` comment once stripped: the one line grammar of every text input.
    ``sep=None`` splits on runs of whitespace.

    ``source`` is a whole text or a file open as ``_open_text`` opens it.
    A file is read and split ``READ_BLOCK`` characters at a time, so no
    copy of its whole text is made; universal newlines have turned every
    ``\\r\\n`` into one character, so no line break straddles two
    blocks. A text is one block, released before the first record, so a
    large input is not held twice while it is parsed. Line numbers count
    every line, across blocks.
    """
    blocks = _line_blocks(source)
    del source
    first = 1
    for lines in blocks:
        for lineno, raw in enumerate(lines, start=first):
            line = raw.strip()
            if line and line[0] != "#":
                yield lineno, raw, line.split(sep)
        first += len(lines)


def _fields(records: Iterable[tuple[int, str, list[str]]], count: int,
            shape: str) -> Iterator[tuple[int, str, list[str]]]:
    """``records`` as they come, each checked to have ``count`` fields; a
    record with another number is a ParseError showing ``shape``."""
    for record in records:
        if len(record[2]) != count:
            raise ParseError(f"expected '{shape}', got {record[1]!r}",
                             line=record[0])
        yield record


def _count_table(records: Iterable[tuple[int, str, list[str]]],
                 shape: str) -> dict[str, int]:
    """The one reader of ``synset count`` rows: a non-negative integer
    count per synset, one line per synset, in file order."""
    counts: dict[str, int] = {}
    for lineno, _, (synset, count_text) in _fields(records, 2, shape):
        try:
            count = int(count_text)
        except ValueError:
            raise ParseError(f"non-numeric count {count_text!r}",
                             line=lineno) from None
        if count < 0:
            raise ParseError(f"negative count {count}", line=lineno)
        if synset in counts:
            raise ParseError(f"duplicate synset id {synset!r}", line=lineno)
        counts[synset] = count
    return counts


def _float_rows(records: Iterable[tuple[int, str, list[str]]],
                id_fields: int, kind: str,
                width: int | None = None) -> tuple[list[str], np.ndarray]:
    """Equal-width float rows from ``_records``, each after ``id_fields``
    leading ids. A ``width`` given up front is checked before a row's
    values are parsed; otherwise the first row sets it, and each later row
    is checked once its values are parsed."""
    ids: list[str] = []
    rows: list[np.ndarray] = []
    fixed = width is not None
    for lineno, raw, tokens in records:
        count = len(tokens) - id_fields
        if fixed and count != width:
            raise ParseError(f"row has {count} values, expected {width}",
                             line=lineno)
        if count < 1:
            raise ParseError(
                f"expected 'item_id,v1,...', got {raw!r}", line=lineno
            )
        rows.append(_floats(tokens[id_fields:], lineno))
        if width is None:
            width = count
        elif count != width:
            raise ParseError(f"row has {count} values, expected {width}",
                             line=lineno)
        ids.extend(tokens[:id_fields])
    if not rows:
        raise ParseError(f"no {kind} rows found")
    return ids, np.asarray(rows, dtype=np.float64)


def _table_lines(ids: Iterable[str], rows: Iterable, header: str | None,
                 *head: str) -> Iterator[str]:
    """The one row writer, one line at a time: the ``# header`` line, the
    ``head`` lines, then an ``id,v1,...,vd`` line per row, each value
    ``fmt``-ed in one pass. Each row is read as its line is taken."""
    if header:
        yield f"# {header}\n"
    for line in head:
        yield line + "\n"
    for item_id, row in zip(ids, rows):
        values = np.asarray(row, np.float64).tolist()
        yield item_id + "," + ",".join(map(repr, values)) + "\n"


# -- frame matrices ---------------------------------------------------------

def read_frames_csv(text: str) -> np.ndarray:
    return _float_rows(_records(text), 0, "frame")[1]


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
    return _float_rows(_records(text[lo:hi]), 1, "vector")


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
        chunks = [_float_rows(_records(text), 1, "vector")]
    ids = [item for chunk_ids, _ in chunks for item in chunk_ids]
    vectors = np.concatenate([rows for _, rows in chunks])
    if len(set(ids)) != len(ids):
        raise ParseError("duplicate item ids in vector file")
    return ids, vectors


def write_vectors_csv(ids: list[str], vectors: Iterable,
                      header: str | None = None) -> Iterator[str]:
    return _table_lines(ids, vectors, header)


# -- labeled Gram matrices --------------------------------------------------

def write_gram_csv(row_ids: list[str], col_ids: list[str],
                   values: np.ndarray,
                   header: str | None = None) -> Iterator[str]:
    return _table_lines(row_ids, values, header, "cols," + ",".join(col_ids))


def read_gram_csv(text: str) -> tuple[list[str], list[str], np.ndarray]:
    """Row ids, column ids and values of a Gram CSV: a vector table whose
    width is fixed by its ``cols`` line."""
    records = _records(text)
    lineno, _, cols = next(records, (None, None, None))
    if cols is None:
        raise ParseError("no gram rows found")
    if cols[0] != "cols" or len(cols) < 2:
        raise ParseError("first data line must be 'cols,<id>,...'", line=lineno)
    col_ids = cols[1:]
    row_ids, values = _float_rows(records, 1, "gram", len(col_ids))
    if len(set(row_ids)) != len(row_ids):
        raise ParseError("duplicate row ids in gram file")
    if len(set(col_ids)) != len(col_ids):
        raise ParseError("duplicate column ids in gram file")
    return row_ids, col_ids, values


# -- scores and labels ------------------------------------------------------

def read_scores_csv(text: str) -> list[tuple[str, float]]:
    rows = _fields(_records(text), 2, "item_id,score")
    out = [(item_id, _parse_float(score, lineno))
           for lineno, _, (item_id, score) in rows]
    if not out:
        raise ParseError("no score rows found")
    return out


def write_scores_csv(scores: list[tuple[str, float]],
                     header: str | None = None) -> Iterator[str]:
    return _table_lines([i for i, _ in scores], [[s] for _, s in scores],
                        header)


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
