"""Word embedding tables: text-format I/O and lemma-keyed lookup.

The on-disk format is one token per line, token followed by its vector
components, whitespace separated. An optional first line ``<count> <dim>``
declares the table size. Lookup is exact and case-sensitive; tables here are
keyed by lemma. Out-of-vocabulary lemmas map to the zero vector.

The tokens and matrix of the last table loaded are cached in one entry,
``relclass/embedding-table.npz`` under ``$XDG_CACHE_HOME`` (when that is an
absolute path) or ``~/.cache``, keyed by the SHA-256 of the file's bytes. A
load whose bytes match takes the table from there instead of reading its
lines.
"""

from __future__ import annotations

import hashlib
import io
import logging
import os
import zipfile
from pathlib import Path
from typing import Sequence

import numpy as np

from . import read

log = logging.getLogger(__name__)

CACHE_VERSION = 2  # of the cache entry's layout: digest, version, tokens, matrix
HASH_CHUNK = 1 << 20  # bytes of each read that hashes a table file


class EmbeddingFormatError(ValueError):
    """Raised for malformed embedding files."""


class EmbeddingTable:
    """Immutable token -> vector map with a fixed dimensionality.

    The vectors are one read-only (V + 1, dim) float64 matrix: ``rows``, one
    per token of ``tokens``, copied once, then a zero row, which every
    out-of-vocabulary token maps to (row -1). ``name`` is a provenance label
    (``load_table`` gives the file stem).
    """

    def __init__(self, tokens: Sequence[str], rows: np.ndarray | Sequence[Sequence[float]],
                 name: str = ""):
        try:
            rows = np.asarray(rows, dtype=np.float64)
        except ValueError as exc:
            raise EmbeddingFormatError(f"vectors are not one float matrix: {exc}") from exc
        if not len(tokens) or rows.ndim != 2 or rows.shape[1] == 0 or len(rows) != len(tokens):
            raise EmbeddingFormatError(f"embedding table must be nonempty, one nonempty 1-d vector "
                                       f"per token: {len(tokens)} tokens, vectors {rows.shape}")
        self.name = name
        self.dim = rows.shape[1]
        self._matrix = np.concatenate([rows, np.zeros((1, self.dim))])
        self._matrix.flags.writeable = False
        self._rows = {token: i for i, token in enumerate(tokens)}

    def __len__(self) -> int:
        return len(self._rows)

    def tokens(self) -> list[str]:
        return list(self._rows)

    def lookup(self, token: str) -> np.ndarray:
        """Vector for ``token``; the zero vector when out of vocabulary."""
        return self._matrix[self._rows.get(token, -1)]

    def phrase_vector(self, lemmas: Sequence[str]) -> np.ndarray:
        """Mean of the vectors of ``lemmas``.

        Out-of-vocabulary lemmas contribute zero vectors but still count in
        the denominator. An empty sequence yields the zero vector.
        """
        rows = [self._rows.get(lemma, -1) for lemma in lemmas]
        return self._matrix[rows].sum(axis=0) / max(len(rows), 1)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity, defined as 0.0 when either vector has zero norm."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def _raise_for_first_bad_line(path, lines: list[tuple[int, str]], rests: list[str]) -> None:
    """Raise for the first line whose value fields (``rests``, one per line)
    numpy cannot parse on their own, or whose width differs from the first
    line's."""
    width = None
    for (lineno, _), rest in zip(lines, rests):
        try:
            n = np.loadtxt([rest], ndmin=1, comments=None).size
        except ValueError as exc:
            reason = str(exc).split(" at row ")[0]  # the row numpy names is always 0 here
            raise EmbeddingFormatError(f"{path}: line {lineno}: bad float: {reason}") from exc
        width = width or n
        if n != width:
            raise EmbeddingFormatError(f"{path}: line {lineno}: expected {width} values, got {n}")


def _cache_file() -> Path | None:
    """Where the one cache entry lives; None when no absolute place is known."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.expanduser("~/.cache")
    return Path(base, "relclass", "embedding-table.npz") if os.path.isabs(base) else None


def _declared_shape(fields: list[str]) -> tuple[int, int] | None:
    """The ``<count> <dim>`` that a first line of these fields declares, or
    None when it is not a header."""
    try:
        return (int(fields[0]), int(fields[1])) if len(fields) == 2 else None
    except ValueError:
        return None


def _body_width(head: bytes) -> int:
    """The number of values on the first vector line of a table file that
    starts with the bytes ``head``."""
    lines = (ln.split() for ln in io.TextIOWrapper(io.BytesIO(head), "utf-8", "replace")
             if ln.strip())
    first = next(lines, [])
    return len(next(lines, []) if _declared_shape(first) else first) - 1


def _cached_table(digest: str, head: bytes) -> tuple[list[str], np.ndarray] | None:
    """The tokens and matrix of the table whose bytes hash to ``digest`` and
    start with ``head``, if the entry holds them and they fit the file; None
    on any other entry or none."""
    path = _cache_file()
    if path is None:
        return None
    try:
        # opened here: np.load of a path leaves the file open when the zip is unreadable
        with open(path, "rb") as fh:
            entry = np.load(fh, allow_pickle=False)
            if not isinstance(entry, np.lib.npyio.NpzFile):  # one bare .npy array
                return None
            with entry:
                names = entry["tokens"]  # UTF-8, one "\n" after each token but the last
                if (entry["digest"].tolist() != digest or names.dtype != np.uint8
                        or entry["version"].tolist() != CACHE_VERSION):
                    return None
                tokens = names.tobytes().decode("utf-8").split("\n")
                matrix = entry["matrix"]  # the zip CRC check fails a corrupted one here
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        log.debug("embedding-table cache %s not read: %s", path, exc)
        return None
    fits = (matrix.dtype == np.float64 and matrix.shape == (len(tokens), _body_width(head))
            and len(set(tokens)) == len(tokens) and np.isfinite(matrix).all())
    return (tokens, matrix) if fits else None


def _store_table(digest: str, tokens: list[str], matrix: np.ndarray) -> None:
    """Make ``tokens`` and ``matrix`` the cache entry: written next to it,
    then renamed over it."""
    path = _cache_file()
    if path is None:
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(tmp, "wb") as fh:
                np.savez(fh, digest=np.array(digest), version=np.array(CACHE_VERSION),
                         tokens=np.frombuffer("\n".join(tokens).encode("utf-8"), np.uint8),
                         matrix=matrix)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        log.debug("embedding-table cache %s not written: %s", path, exc)


def load_table(path: str | Path) -> EmbeddingTable:
    """Load a text-format embedding table.

    A first line of exactly two integer fields is treated as a
    ``<count> <dim>`` header and checked against the body; otherwise the
    first line is already a vector line. The file's bytes are hashed first.
    When the cache holds the table of these bytes, that is the table: its
    lines passed every check when the entry was written. Otherwise every
    line is checked, the value fields of all lines are parsed by one
    ``np.loadtxt`` call, and the table becomes the entry.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(HASH_CHUNK)
        sha = hashlib.sha256(head)
        for chunk in iter(lambda: fh.read(HASH_CHUNK), b""):
            sha.update(chunk)
    digest = sha.hexdigest()
    cached = _cached_table(digest, head)
    if cached is not None:
        return EmbeddingTable(*cached, name=path.stem)
    lines = [(i, ln) for i, ln in read.text_lines(path, EmbeddingFormatError) if ln.strip()]
    if not lines:
        raise EmbeddingFormatError(f"{path}: empty embedding file")
    declared = _declared_shape(lines[0][1].split())
    if declared:
        lines = lines[1:]
    tokens: dict[str, None] = {}  # in line order, as a dict for the repeat check
    for lineno, line in lines:
        token, *rest = line.split(None, 1)
        if not rest:
            raise EmbeddingFormatError(f"{path}: line {lineno}: expected token and vector")
        if token in tokens:
            raise EmbeddingFormatError(f"{path}: line {lineno}: duplicate token {token!r}")
        tokens[token] = None
    if not tokens:
        raise EmbeddingFormatError(f"{path}: no vectors")
    rests = [line.split(None, 1)[1] for _, line in lines]  # the value fields of each line
    try:
        matrix = np.loadtxt(rests, ndmin=2, comments=None)
    except ValueError:
        _raise_for_first_bad_line(path, lines, rests)
        raise
    if not np.isfinite(matrix).all():
        i = int(np.argmin(np.isfinite(matrix).all(axis=1)))
        token = list(tokens)[i]
        raise EmbeddingFormatError(f"{path}: line {lines[i][0]}: non-finite value for {token!r}")
    if declared not in (None, matrix.shape):
        raise EmbeddingFormatError(
            f"{path}: header declares {declared[0]} x {declared[1]}, "
            f"file has {matrix.shape[0]} x {matrix.shape[1]}"
        )
    _store_table(digest, list(tokens), matrix)
    return EmbeddingTable(list(tokens), matrix, name=path.stem)


def save_table(table: EmbeddingTable, path: str | Path) -> None:
    """Write a table in the text format, with header, byte-deterministically.

    Tokens are written in sorted order and floats via ``repr``, so
    ``load_table(save_table(t))`` reproduces every vector bit for bit.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table)} {table.dim}\n")
        for token in sorted(table.tokens()):
            fh.write(" ".join([token, *map(repr, table.lookup(token).tolist())]) + "\n")
