"""Lexical feature extraction for the SVM.

An instance turns into a set of boolean feature keys (bag of words, POS tags,
POS path, distance, verb classes, entity strings, embedding-similarity
indicators) plus a dense block of three averaged embedding vectors
[context | start entity | end entity], MinMax-scaled to [0,1]. A key is a
plain ``(namespace, value)`` string tuple; keys sort by namespace, then value.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import read
from .corpus import RelationInstance, TokenAnnotation, extract_context, filter_context
from .embeddings import EmbeddingTable, cosine

NAMESPACES = (
    "bow",
    "pos",
    "pospath",
    "dist",
    "lc",
    "ents",
    "startEnt",
    "endEnt",
    "sim100",
    "simb",
)

HEAD_NOUN_TAGS = frozenset({"NOUN", "PROPN"})

Key = tuple[str, str]  # (namespace, value)


def load_levin_table(path: str | Path) -> dict[str, frozenset[int]]:
    """Load a TSV verb-class file, ``lemma<TAB>comma-separated class ids``,
    as verb lemma -> set of top-level class ids.

    Class ids like "45.4" are truncated to their top level (45) at load; a
    top-level id must be an integer >= 1.
    """
    classes: dict[str, set[int]] = {}
    for lineno, line in read.text_lines(path):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        try:
            lemma, raw = line.split("\t", 1)
            ids = {read.integer(int(part.strip().split(".")[0]), "class id", 1)
                   for part in raw.split(",") if part.strip()}
            if not ids:
                raise ValueError("empty class list")
            classes.setdefault(read.string(lemma, "lemma"), set()).update(ids)
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: bad verb-class entry: {exc}") from exc
    return {lemma: frozenset(ids) for lemma, ids in classes.items()}


def pos_path(context: Sequence[TokenAnnotation]) -> str:
    """First character of each context token's POS tag, concatenated."""
    return "".join(tok.pos[0] for tok in context)


def _surface(tokens: Sequence[TokenAnnotation]) -> str:
    return " ".join(tok.text for tok in tokens).lower()


def _entity_values(tokens: Sequence[TokenAnnotation]) -> set[str]:
    values = {_surface(tokens)}
    if len(tokens) > 1 and tokens[-1].pos in HEAD_NOUN_TAGS:
        values.add(tokens[-1].text.lower())
    return values


def similarity_value(c: float) -> str:
    """Cosine truncated toward zero to exactly two decimals."""
    return f"{math.trunc(c * 100.0) / 100.0:.2f}"


def similarity_bucket(c: float) -> str:
    # half-open buckets, boundary values fall in the upper bucket
    if c < 0.0:
        return "q0"
    if c < 0.25:
        return "q25"
    if c < 0.5:
        return "q50"
    if c < 0.75:
        return "q75"
    return "q100"


def dense_lemmas(instances: Sequence[RelationInstance]) -> list[tuple[list[str], ...]]:
    """Each instance's full-context, start-entity and end-entity lemma lists."""
    return [tuple([tok.lemma for tok in part]
                  for part in (extract_context(inst), inst.start_tokens, inst.end_tokens))
            for inst in instances]


def dense_block(rows: Sequence[Sequence[Sequence[str]]], table: EmbeddingTable) -> np.ndarray:
    """The (n, 3 * dim) unscaled dense block of rows given as lemma lists
    (``dense_lemmas``), row i [context mean | start entity | end entity]: the
    one builder of every dense row, of training, query and support vector."""
    dense = np.array([[table.phrase_vector(part) for part in lemmas] for lemmas in rows])
    return dense.reshape(len(rows), 3 * table.dim)


def featurize(
    instances: Sequence[RelationInstance],
    vocabulary: frozenset[str],
    table: EmbeddingTable,
    levin: dict[str, frozenset[int]],
) -> tuple[list[set[Key]], np.ndarray]:
    """The boolean key set of each instance and their (n, 3 * dim) unscaled
    dense block (``dense_block``).

    bow/pos/lc come from the context words in ``vocabulary``, pospath/dist from
    the full context (the path and its length describe the raw gap). The
    entity strings (lowercased surface, plus the head noun of multi-token
    nominals) go under ents and, by role, under startEnt/endEnt; sim100 is the
    truncated cosine of the two entity vectors and simb its bucket.
    """
    dim = table.dim
    dense = dense_block(dense_lemmas(instances), table)
    key_sets = []
    for inst, row in zip(instances, dense):
        full = extract_context(inst)
        keys = {("pospath", pos_path(full)), ("dist", str(len(full)))}
        for tok in filter_context(full, vocabulary):
            keys.add(("bow", tok.lemma))
            keys.add(("pos", tok.pos))
            keys.update(("lc", str(class_id)) for class_id in levin.get(tok.lemma, ()))
        start_vals = _entity_values(inst.start_tokens)
        end_vals = _entity_values(inst.end_tokens)
        keys.update(("ents", v) for v in start_vals | end_vals)
        keys.update(("startEnt", v) for v in start_vals)
        keys.update(("endEnt", v) for v in end_vals)
        c = cosine(row[dim:2 * dim], row[2 * dim:])
        keys.add(("sim100", similarity_value(c)))
        keys.add(("simb", similarity_bucket(c)))
        key_sets.append(keys)
    return key_sets, dense


class FeatureSpace:
    """Frozen feature-key -> column-index map: column i is the i-th of the
    strictly increasing keys it is built from."""

    def __init__(self, keys: Sequence[Key]):
        if not keys:
            raise ValueError("feature space must be nonempty")
        self._keys = tuple(keys)
        self._index = {key: i for i, key in enumerate(self._keys)}

    def __len__(self) -> int:
        return len(self._keys)

    def keys(self) -> tuple[Key, ...]:
        return self._keys

    def indices(self, keys: Iterable[Key]) -> np.ndarray:
        """Sorted column indices of the keys present in the space."""
        idx = sorted(self._index[k] for k in keys if k in self._index)
        return np.asarray(idx, dtype=np.int64)


def build_feature_space(train_keys: Iterable[Iterable[Key]]) -> FeatureSpace:
    """Index the union of training key sets, sorted by (namespace, value)."""
    all_keys: set[Key] = set()
    for keys in train_keys:
        all_keys.update(keys)
    return FeatureSpace(sorted(all_keys))


def parse_feature_space(entries: list) -> FeatureSpace:
    """The feature space a model file lists, its entries in column order.

    Each entry must be a ``[namespace, value]`` string pair with a known
    namespace and a nonempty value (the pospath of an empty context is the
    empty string), and each must sort after the one before it.
    """
    keys: list[Key] = []
    for i, entry in enumerate(read.array(entries, "space")):
        name = f"space entry {i}"
        namespace, value = read.array(entry, name, 2)
        key = (read.string(namespace, f"{name} namespace"),
               read.string(value, f"{name} value", empty=namespace == "pospath"))
        if namespace not in NAMESPACES:
            raise ValueError(f"{name}: unknown feature namespace {namespace!r}")
        if keys and key <= keys[-1]:
            raise ValueError(f"{name}: {list(key)} does not sort after "
                             f"{list(keys[-1])}; entries must be strictly increasing")
        keys.append(key)
    return FeatureSpace(keys)


class MinMaxScaler:
    """Per-column affine map of dense blocks to [0,1], fitted on training data.

    Constant columns map to 0.0; unseen values are clamped into [0,1].
    """

    def __init__(self, mins: np.ndarray, maxs: np.ndarray):
        mins = np.asarray(mins, dtype=np.float64)
        maxs = np.asarray(maxs, dtype=np.float64)
        if mins.shape != maxs.shape or mins.ndim != 1:
            raise ValueError("min/max must be 1-d arrays of equal length")
        if np.any(maxs < mins):
            raise ValueError("max < min in some column")
        self.mins = mins
        self.maxs = maxs

    def apply(self, dense: np.ndarray) -> np.ndarray:
        """The scaled block. A float64 array is scaled in place and returned
        (a block-sized copy would raise the SVM's peak memory), so a caller
        that still needs the raw values passes a copy."""
        span = self.maxs - self.mins
        nz = span > 0
        out = np.asarray(dense, dtype=np.float64)
        # clamped first, so that no quotient can overflow: a value above its
        # column's max maps to span / span = 1.0, one below its min to 0.0
        np.clip(out, self.mins, self.maxs, out=out)
        out -= self.mins
        out /= np.where(nz, span, 1.0)
        out[..., ~nz] = 0.0
        return out


def fit_minmax(train_dense: Sequence[np.ndarray] | np.ndarray) -> MinMaxScaler:
    stacked = np.asarray(train_dense, dtype=np.float64)
    if stacked.ndim != 2 or stacked.shape[0] == 0:
        raise ValueError("need a nonempty 2-d stack of dense blocks")
    return MinMaxScaler(stacked.min(axis=0), stacked.max(axis=0))
