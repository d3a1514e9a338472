"""Canonical model-file serialization and the prediction surface both models share.

Model files are single JSON documents with sorted keys and compact separators,
so identical model state always produces identical bytes. Arrays are stored as
shape-tagged base64 blobs of little-endian float64, which round-trip bit for
bit. Every model file starts from the same header (``format``, ``version``,
``labels``, ``embedding``, ``vocabulary``: the sorted context lemmas the model
reads); each model kind adds its own fields, in the layout prediction reads
them. Files are written atomically: readers see the old file or the whole new
one, never a partial write.

Each format has one version (``VERSIONS``): the header holds the context
vocabulary, an SVM file (version 4) stores its support vectors as lemma
lists (``svm``), and a conv-LSTM file (version 5) its LSTM gates fused and
no padded width (``clstm``). Files of any other version are rejected; there
is no reader for older versions.
"""

from __future__ import annotations

import base64
import errno
import itertools
import json
import logging
import os
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import read
from .corpus import LABELS, RelationInstance, RelationLabel
from .embeddings import EmbeddingTable

log = logging.getLogger(__name__)

SVM_FORMAT, CLSTM_FORMAT = "relclass-svm", "relclass-clstm"  # each file's "format"
# the one version of each model format that is written and read
VERSIONS = {SVM_FORMAT: 4, CLSTM_FORMAT: 5}


class ModelFormatError(ValueError):
    """Raised for unreadable or incompatible model files."""


def argmax_labels(probs: np.ndarray) -> list[RelationLabel]:
    """The most probable label of each row of an (n, len(LABELS)) array."""
    # argmax takes the first maximum, i.e. ties break by label order
    return [LABELS[i] for i in np.argmax(probs, axis=1)]


class Classifier:
    """Prediction methods shared by both models, built on each model's own
    ``predict_proba_many(instances)``: one row per instance, LABELS order."""

    def predict_many(self, instances: Sequence[RelationInstance]) -> list[RelationLabel]:
        return argmax_labels(self.predict_proba_many(instances))


# bytes of each base64 slice an array is written in: a multiple of 3, so the
# slices' base64 joins up to the base64 of the whole array
B64_SLICE = 3 << 16


def decode_array(obj: Any, name: str) -> np.ndarray:
    """The read-only array of the tensor field ``name``, a view of its decoded bytes."""
    obj = read.object(obj, name)
    if obj["dtype"] != "<f8":
        raise ValueError(f"{name}: unsupported tensor dtype {obj['dtype']!r}")
    shape = [read.integer(n, f"{name} shape", 0)
             for n in read.array(obj["shape"], f"{name} shape")]
    data = read.string(obj["data"], f"{name} data", empty=True)
    try:
        return np.frombuffer(base64.b64decode(data, validate=True), dtype="<f8").reshape(shape)
    except ValueError as exc:  # binascii.Error too: not base64, or not of this shape
        raise read.FieldError(f"{name} data: {exc}") from exc


def dumps_canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def write_atomic(path: str | Path, chunks: Iterable[str]) -> None:
    """Write the text chunks to a temporary file next to ``path``, then move
    it into place. If anything raises part-way, ``path`` is left as it was
    and the temporary file is removed.

    A symlink, device or pipe (``/dev/stdout``) is written through directly:
    the rename would put a regular file in its place.
    """
    path = Path(path)
    check_output(path)
    if path.is_symlink() or (path.exists() and not path.is_file()):
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:
        if exc.filename != str(tmp):
            raise
        # name the path asked for (say, in a read-only directory), not the temporary file
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    finally:
        if tmp.exists():
            tmp.unlink()


def check_output(path: str | Path) -> None:
    """Raise the ``OSError`` that writing an output ``path`` meets first: its
    parent is missing or is not a directory, or ``path`` is a directory."""
    path = Path(path)
    try:  # with a trailing separator, stat fails (ENOTDIR) unless on a directory
        os.stat(os.path.join(path.parent, ""))
        code = errno.EISDIR if path.is_dir() else 0
    except OSError as exc:  # ENOENT where the parent is missing; any such error stops the write
        code = exc.errno
    if code:
        parent = f"its parent {str(path.parent)!r} is not a directory"
        raise OSError(code, parent if code == errno.ENOTDIR else os.strerror(code), str(path))


def _canonical_chunks(value: Any) -> Iterator[str]:
    """``dumps_canonical(value)`` in pieces, for a ``value`` that may hold
    numpy arrays. Each array is written as a tensor object, ``{"data": base64
    of its little-endian float64 bytes, "dtype": "<f8", "shape": [...]}``,
    its base64 in slices; each part that holds no array is one ``json`` call."""
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value, dtype="<f8")
        raw = arr.reshape(-1).view(np.uint8)
        yield '{"data":"'
        for start in range(0, raw.size, B64_SLICE):
            yield base64.b64encode(raw[start : start + B64_SLICE]).decode("ascii")
        yield f'","dtype":"<f8","shape":{dumps_canonical(list(arr.shape))}}}'
        return
    try:
        yield dumps_canonical(value)
        return
    except TypeError:  # it holds an array, which json cannot write: walk it
        pass
    is_object = hasattr(value, "items")
    opening, closing = "{}" if is_object else "[]"
    for n, key in enumerate(sorted(value) if is_object else range(len(value))):
        yield ("," if n else opening) + (dumps_canonical(key) + ":" if is_object else "")
        yield from _canonical_chunks(value[key])
    yield closing


def save_json(payload: dict, path: str | Path) -> None:
    """Write ``payload``, which may hold numpy arrays, as one canonical JSON line."""
    write_atomic(path, itertools.chain(_canonical_chunks(payload), ["\n"]))


def read_json(path: str | Path) -> dict:
    """The parsed JSON object of a model file, of any format."""
    with open(path, encoding="utf-8") as fh:
        try:
            return read.object(json.load(fh), "the document")
        except ValueError as exc:  # invalid JSON, too
            raise ModelFormatError(f"{path}: not a model file: {exc}") from exc


def save_model(model: Any, model_format: str, fields: dict, path: str | Path) -> None:
    """Write the shared header of ``model`` plus its own ``fields``."""
    header = {
        "format": model_format,
        "version": VERSIONS[model_format],
        "labels": [label.value for label in LABELS],
        "embedding": {"name": model.table.name, "dim": model.table.dim},
        "vocabulary": sorted(model.vocabulary),
    }
    save_json({**header, **fields}, path)


def load_model(
    path: str | Path,
    model_format: str,
    table: EmbeddingTable,
    build: Callable[..., Any],
    payload: dict | None = None,
) -> Any:
    """Read the shared header, then ``build(payload, vocabulary=...,
    table=...)`` the model from the file's own fields. ``payload``, when
    given, is the file's already parsed JSON.

    A missing field, one of the wrong kind (each ``vocabulary`` entry must be
    a nonempty string), a file of another format or version, or a value the
    model rejects raises ModelFormatError naming the file.
    """
    payload = read_json(path) if payload is None else payload
    try:
        if payload.get("format") != model_format:
            raise ValueError(f"expected format {model_format!r}, got {payload.get('format')!r}")
        if read.integer(payload.get("version"), "version") != VERSIONS[model_format]:
            raise ValueError(f"unsupported version {payload['version']} of {model_format}")
        if payload["labels"] != [label.value for label in LABELS]:
            raise ValueError("unexpected label list")
        emb = read.object(payload["embedding"], "embedding")
        if read.integer(emb["dim"], "embedding dim") != table.dim:
            raise ValueError(f"model expects {emb['dim']}-dim embeddings, table has {table.dim}")
        name = read.string(emb["name"], "embedding name", empty=True)
        if name and table.name and name != table.name:
            log.warning(
                "embedding table name mismatch: model trained with %r, predicting with %r",
                name, table.name,
            )
        vocabulary = frozenset(read.string(lemma, "vocabulary lemma")
                               for lemma in read.array(payload["vocabulary"], "vocabulary"))
        return build(payload, vocabulary=vocabulary, table=table)
    except (KeyError, TypeError, ValueError) as exc:
        problem = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise ModelFormatError(f"{path}: {problem}") from exc
