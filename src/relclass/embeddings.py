"""Word embedding tables: text-format I/O and lemma-keyed lookup.

The on-disk format is one token per line, token followed by its vector
components, whitespace separated. An optional first line ``<count> <dim>``
declares the table size. Lookup is exact and case-sensitive; tables here are
keyed by lemma. Out-of-vocabulary lemmas map to the zero vector.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import TokenAnnotation


class EmbeddingFormatError(ValueError):
    """Raised for malformed embedding files."""


class EmbeddingTable:
    """Immutable token -> vector map with a fixed dimensionality.

    The vectors are the rows of one read-only (V + 1, dim) float64 matrix, in
    the order the mapping gives them; a dict maps each token to its row. The
    last row is zero: every out-of-vocabulary token maps to it (row -1).
    ``name`` is a provenance label (defaults to the source file stem).
    """

    def __init__(
        self,
        vectors: Mapping[str, np.ndarray] | Mapping[str, Sequence[float]],
        name: str = "",
    ):
        if not vectors:
            raise EmbeddingFormatError("embedding table must be nonempty")
        self.name = name
        try:
            rows = np.array(list(vectors.values()), dtype=np.float64)
        except ValueError as exc:
            raise EmbeddingFormatError(f"vectors are not one float matrix: {exc}") from exc
        if rows.ndim != 2 or rows.shape[1] == 0:
            raise EmbeddingFormatError(f"vectors must be nonempty and 1-d, not {rows.shape[1:]}")
        self.dim = rows.shape[1]
        self._matrix = np.concatenate([rows, np.zeros((1, self.dim))])
        self._matrix.flags.writeable = False
        self._rows = {token: i for i, token in enumerate(vectors)}

    def __len__(self) -> int:
        return len(self._rows)

    def tokens(self) -> list[str]:
        return list(self._rows)

    def lookup(self, token: str) -> np.ndarray:
        """Vector for ``token``; the zero vector when out of vocabulary."""
        return self._matrix[self._rows.get(token, -1)]

    def phrase_vector(self, tokens: Sequence[TokenAnnotation]) -> np.ndarray:
        """Mean of the lemma vectors of ``tokens``.

        Out-of-vocabulary lemmas contribute zero vectors but still count in
        the denominator. An empty token sequence yields the zero vector.
        """
        rows = [self._rows.get(tok.lemma, -1) for tok in tokens]
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


def load_table(path: str | Path) -> EmbeddingTable:
    """Load a text-format embedding table.

    A first line of exactly two integer fields is treated as a
    ``<count> <dim>`` header and checked against the body; otherwise the
    first line is already a vector line. The value fields of all lines are
    parsed by one ``np.loadtxt`` call.
    """
    path = Path(path)
    declared: tuple[int, int] | None = None
    with open(path, encoding="utf-8") as fh:
        lines = [(i, ln) for i, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines:
        raise EmbeddingFormatError(f"{path}: empty embedding file")
    first_parts = lines[0][1].split()
    if len(first_parts) == 2:
        try:
            declared = (int(first_parts[0]), int(first_parts[1]))
            lines = lines[1:]
        except ValueError:
            declared = None
    body: dict[str, str] = {}  # token -> the unparsed value fields of its line
    for lineno, line in lines:
        token, *rest = line.split(None, 1)
        if not rest:
            raise EmbeddingFormatError(f"{path}: line {lineno}: expected token and vector")
        if token in body:
            raise EmbeddingFormatError(f"{path}: line {lineno}: duplicate token {token!r}")
        body[token] = rest[0]
    if not body:
        raise EmbeddingFormatError(f"{path}: no vectors")
    rests = list(body.values())
    try:
        matrix = np.loadtxt(rests, ndmin=2, comments=None)
    except ValueError:
        _raise_for_first_bad_line(path, lines, rests)
        raise
    if not np.isfinite(matrix).all():
        i = int(np.argmin(np.isfinite(matrix).all(axis=1)))
        token = list(body)[i]
        raise EmbeddingFormatError(f"{path}: line {lines[i][0]}: non-finite value for {token!r}")
    if declared not in (None, matrix.shape):
        raise EmbeddingFormatError(
            f"{path}: header declares {declared[0]} x {declared[1]}, "
            f"file has {matrix.shape[0]} x {matrix.shape[1]}"
        )
    return EmbeddingTable(dict(zip(body, matrix)), name=path.stem)


def save_table(table: EmbeddingTable, path: str | Path) -> None:
    """Write a table in the text format, with header, byte-deterministically.

    Tokens are written in sorted order and floats via ``repr``, so
    ``load_table(save_table(t))`` reproduces every vector bit for bit.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table)} {table.dim}\n")
        for token in sorted(table.tokens()):
            fh.write(" ".join([token, *map(repr, table.lookup(token).tolist())]) + "\n")
