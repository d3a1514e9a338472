"""Word embedding tables: text-format I/O and lemma-keyed lookup.

The on-disk format is one token per line, token followed by its vector
components, whitespace separated. An optional first line ``<count> <dim>``
declares the table size. Lookup is exact and case-sensitive; tables here are
keyed by lemma. Out-of-vocabulary lemmas map to the zero vector.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import RelationInstance, TokenAnnotation, extract_context


class EmbeddingFormatError(ValueError):
    """Raised for malformed embedding files."""


class EmbeddingTable:
    """Immutable token -> vector map with a fixed dimensionality.

    The vectors are the rows of one read-only (V, dim) float64 matrix, in
    the order the mapping gives them; a dict maps each token to its row.
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
        rows = [np.asarray(vec, dtype=np.float64) for vec in vectors.values()]
        dim = rows[0].size
        for token, row in zip(vectors, rows):
            if row.ndim != 1:
                raise EmbeddingFormatError(f"vector for {token!r} is not 1-d")
            if row.size != dim:
                raise EmbeddingFormatError(
                    f"inconsistent dimension for {token!r}: {row.size} != {dim}"
                )
        if dim == 0:
            raise EmbeddingFormatError("embedding dimension must be positive")
        self._matrix = np.vstack(rows)
        self._matrix.flags.writeable = False
        self._rows = {token: i for i, token in enumerate(vectors)}
        self.dim = dim
        self._zero = np.zeros(dim, dtype=np.float64)
        self._zero.flags.writeable = False

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, token: str) -> bool:
        return token in self._rows

    def tokens(self) -> list[str]:
        return list(self._rows)

    def lookup(self, token: str) -> np.ndarray:
        """Vector for ``token``; the zero vector when out of vocabulary."""
        row = self._rows.get(token)
        return self._zero if row is None else self._matrix[row]

    def phrase_vector(self, tokens: Sequence[TokenAnnotation]) -> np.ndarray:
        """Mean of the lemma vectors of ``tokens``.

        Out-of-vocabulary lemmas contribute zero vectors but still count in
        the denominator. An empty token sequence yields the zero vector.
        """
        if not tokens:
            return self._zero.copy()
        acc = np.zeros(self.dim, dtype=np.float64)
        for tok in tokens:
            acc += self.lookup(tok.lemma)
        return acc / len(tokens)

    def context_vector(self, inst: RelationInstance) -> np.ndarray:
        """Mean lemma vector of the (unfiltered) context between the entities."""
        return self.phrase_vector(extract_context(inst))


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity, defined as 0.0 when either vector has zero norm."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def _parse_vector_line(line: str, lineno: int, path) -> tuple[str, list[float]]:
    parts = line.split()
    if len(parts) < 2:
        raise EmbeddingFormatError(f"{path}: line {lineno}: expected token and vector")
    token = parts[0]
    try:
        values = [float(p) for p in parts[1:]]
    except ValueError as exc:
        raise EmbeddingFormatError(f"{path}: line {lineno}: bad float: {exc}") from exc
    # a nan or inf makes the sum non-finite; huge finite values can too, so
    # the exact test decides (the sum alone is the cheap pass over every line)
    if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
        raise EmbeddingFormatError(f"{path}: line {lineno}: non-finite value for {token!r}")
    return token, values


def load_table(path: str | Path) -> EmbeddingTable:
    """Load a text-format embedding table.

    A first line of exactly two integer fields is treated as a
    ``<count> <dim>`` header and checked against the body; otherwise the
    first line is already a vector line.
    """
    path = Path(path)
    vectors: dict[str, list[float]] = {}
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
    width: int | None = None
    for lineno, line in lines:
        token, values = _parse_vector_line(line, lineno, path)
        if token in vectors:
            raise EmbeddingFormatError(f"{path}: line {lineno}: duplicate token {token!r}")
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise EmbeddingFormatError(
                f"{path}: line {lineno}: expected {width} values, got {len(values)}"
            )
        vectors[token] = values
    if not vectors:
        raise EmbeddingFormatError(f"{path}: no vectors")
    table = EmbeddingTable(vectors, name=path.stem)
    if declared is not None:
        count, dim = declared
        if count != len(table) or dim != table.dim:
            raise EmbeddingFormatError(
                f"{path}: header declares {count} x {dim}, "
                f"file has {len(table)} x {table.dim}"
            )
    return table


def save_table(table: EmbeddingTable, path: str | Path) -> None:
    """Write a table in the text format, with header, byte-deterministically.

    Tokens are written in sorted order and floats via ``repr``, so
    ``load_table(save_table(t))`` reproduces every vector bit for bit.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table)} {table.dim}\n")
        for token in sorted(table.tokens()):
            vec = table.lookup(token)
            fh.write(token)
            for x in vec:
                fh.write(" ")
                fh.write(repr(float(x)))
            fh.write("\n")
