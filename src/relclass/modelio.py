"""Canonical model-file serialization and the prediction surface both models share.

Model files are single JSON documents with sorted keys and compact separators,
so identical model state always produces identical bytes. Arrays are stored as
shape-tagged base64 blobs of little-endian float64, which round-trip bit for
bit. Every model file starts from the same header (``format``, ``version``,
``labels``, ``embedding``, ``freq``, ``freq_threshold``); each model kind adds
its own fields. Files are written atomically: readers see the old file or the
whole new one, never a partial write.

Both kinds are at format version 2, in which an SVM file stores its support
vectors once (top-level ``sv_bool``/``sv_dense``) and each pair only the
indices of its rows in that block (``sv``) next to its ``coef``. Files of
any other version are rejected; there is no reader for version 1.
"""

from __future__ import annotations

import base64
import json
import logging
import os
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .corpus import LABELS, FrequencyTable, RelationInstance, RelationLabel, check_freq_threshold
from .embeddings import EmbeddingTable

log = logging.getLogger(__name__)

VERSION = 2


class ModelFormatError(ValueError):
    """Raised for unreadable or incompatible model files."""


def argmax_labels(probs: np.ndarray) -> list[RelationLabel]:
    """The most probable label of each row of an (n, len(LABELS)) array."""
    # argmax takes the first maximum, i.e. ties break by label order
    return [LABELS[i] for i in np.argmax(probs, axis=1)]


class Classifier:
    """Prediction methods shared by both models, built on each model's own
    ``predict_proba_many(instances)``: one row per instance, LABELS order."""

    def predict_proba(self, inst: RelationInstance) -> dict[RelationLabel, float]:
        return dict(zip(LABELS, self.predict_proba_many([inst])[0].tolist()))

    def predict_many(self, instances: Sequence[RelationInstance]) -> list[RelationLabel]:
        return argmax_labels(self.predict_proba_many(instances))

    def predict(self, inst: RelationInstance) -> RelationLabel:
        return self.predict_many([inst])[0]


def encode_array(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    return {
        "shape": list(arr.shape),
        "dtype": "<f8",
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def decode_array(obj: dict) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ModelFormatError(f"expected a tensor object, got {type(obj).__name__}")
    if obj.get("dtype") != "<f8":
        raise ModelFormatError(f"unsupported tensor dtype: {obj.get('dtype')!r}")
    raw = base64.b64decode(obj["data"])
    arr = np.frombuffer(raw, dtype="<f8").reshape(obj["shape"]).copy()
    arr.flags.writeable = False
    return arr


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
    if path.is_symlink() or (path.exists() and not path.is_file()):
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _canonical_fields(payload: dict) -> Iterator[str]:
    """``dumps_canonical(payload) + "\n"`` in pieces, one top-level field at
    a time, so the whole document never sits in memory as one string."""
    yield "{"
    for n, key in enumerate(sorted(payload)):
        yield ("," if n else "") + dumps_canonical(key) + ":"
        yield dumps_canonical(payload[key])
    yield "}\n"


def save_json(payload: dict, path: str | Path) -> None:
    write_atomic(path, _canonical_fields(payload))


def read_json(path: str | Path) -> Any:
    """The parsed JSON of a model file, of any format."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"{path}: not a model file: {exc}") from exc


def check_format(payload: Any, path: str | Path, expected_format: str) -> dict:
    """``payload`` itself, once it is a model file of ``expected_format`` at
    the current version."""
    found = payload.get("format") if isinstance(payload, dict) else None
    if found != expected_format:
        raise ModelFormatError(f"{path}: expected format {expected_format!r}, got {found!r}")
    if payload.get("version") != VERSION:
        raise ModelFormatError(f"{path}: unsupported version {payload.get('version')!r}")
    return payload


def save_model(model: Any, model_format: str, fields: dict, path: str | Path) -> None:
    """Write the shared header of ``model`` plus its own ``fields``."""
    header = {
        "format": model_format,
        "version": VERSION,
        "labels": [label.value for label in LABELS],
        "embedding": {"name": model.table.name, "dim": model.table.dim},
        "freq": dict(sorted(model.freq.items())),
        "freq_threshold": model.freq_threshold,
    }
    save_json({**header, **fields}, path)


def load_model(
    path: str | Path,
    model_format: str,
    table: EmbeddingTable,
    build: Callable[..., Any],
    payload: Any = None,
) -> Any:
    """Read and check the shared header, then ``build(payload, freq=...,
    freq_threshold=..., table=...)`` the model from the file's own fields.
    ``payload``, when given, is the file's already parsed JSON.

    A missing field, a header ``freq`` count that is not an integer >= 0, a
    ``freq_threshold`` that ``filter_context`` would reject or a value the
    model rejects raises ModelFormatError naming the file.
    """
    payload = check_format(read_json(path) if payload is None else payload, path, model_format)
    try:
        if payload["labels"] != [label.value for label in LABELS]:
            raise ModelFormatError("unexpected label list")
        emb = payload["embedding"]
        if emb["dim"] != table.dim:
            raise ModelFormatError(
                f"model expects {emb['dim']}-dim embeddings, table has {table.dim}"
            )
        if emb["name"] and table.name and emb["name"] != table.name:
            log.warning(
                "embedding table name mismatch: model trained with %r, predicting with %r",
                emb["name"], table.name,
            )
        freq = payload["freq"]
        if not isinstance(freq, dict) or not all(
            type(count) is int and count >= 0 for count in freq.values()
        ):
            raise ModelFormatError("freq must map lemmas to non-negative integer counts")
        return build(
            payload,
            freq=FrequencyTable(freq),
            freq_threshold=check_freq_threshold(payload["freq_threshold"]),
            table=table,
        )
    except (KeyError, TypeError, ValueError) as exc:
        problem = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise ModelFormatError(f"{path}: {problem}") from exc
