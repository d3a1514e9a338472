"""Lexical feature extraction for the SVM.

An instance turns into a set of boolean feature keys (bag of words, POS tags,
POS path, distance, verb classes, entity strings, embedding-similarity
indicators) plus a dense block of three averaged embedding vectors
[context | start entity | end entity], MinMax-scaled to [0,1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import (
    FrequencyTable,
    RelationInstance,
    TokenAnnotation,
    extract_context,
    filter_context,
)
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

SIM_BUCKETS = ("q0", "q25", "q50", "q75", "q100")


@dataclass(frozen=True, order=True)
class FeatureKey:
    namespace: str
    value: str

    def __post_init__(self) -> None:
        if self.namespace not in NAMESPACES:
            raise ValueError(f"unknown feature namespace: {self.namespace!r}")
        # pospath of an empty context is legitimately the empty string
        if not self.value and self.namespace != "pospath":
            raise ValueError(f"empty value in namespace {self.namespace!r}")


class LevinTable:
    """Verb lemma -> set of top-level verb class ids."""

    def __init__(self, classes: Mapping[str, Iterable[int]]):
        store = {}
        for lemma, ids in classes.items():
            ids = frozenset(int(i) for i in ids)
            if any(i <= 0 for i in ids):
                raise ValueError(f"class ids must be positive: {lemma!r} -> {sorted(ids)}")
            store[lemma] = ids
        self._classes = store

    def __len__(self) -> int:
        return len(self._classes)

    def __contains__(self, lemma: str) -> bool:
        return lemma in self._classes

    def lemmas(self) -> list[str]:
        return list(self._classes)

    def lookup(self, lemma: str) -> frozenset[int]:
        return self._classes.get(lemma, frozenset())


def load_levin_table(path: str | Path) -> LevinTable:
    """Load a TSV verb-class file: ``lemma<TAB>comma-separated class ids``.

    Class ids like "45.4" are truncated to their top level (45) at load.
    """
    classes: dict[str, set[int]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            try:
                lemma, raw = line.split("\t", 1)
                ids = {int(part.strip().split(".")[0]) for part in raw.split(",") if part.strip()}
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: bad verb-class entry: {exc}") from exc
            if not lemma or not ids:
                raise ValueError(f"{path}: line {lineno}: empty lemma or class list")
            classes.setdefault(lemma, set()).update(ids)
    return LevinTable(classes)


def pos_path(context: Sequence[TokenAnnotation]) -> str:
    """First character of each context token's POS tag, concatenated."""
    return "".join(tok.pos[0] for tok in context)


def context_lexical(
    inst: RelationInstance,
    filtered_context: Sequence[TokenAnnotation],
    levin: LevinTable,
) -> set[FeatureKey]:
    """Context features: bow/pos/lc from the filtered context, pospath/dist
    from the full context (the path and its length describe the raw gap)."""
    keys: set[FeatureKey] = set()
    for tok in filtered_context:
        keys.add(FeatureKey("bow", tok.lemma))
        keys.add(FeatureKey("pos", tok.pos))
        for class_id in levin.lookup(tok.lemma):
            keys.add(FeatureKey("lc", str(class_id)))
    full = extract_context(inst)
    keys.add(FeatureKey("pospath", pos_path(full)))
    keys.add(FeatureKey("dist", str(len(full))))
    return keys


def _surface(tokens: Sequence[TokenAnnotation]) -> str:
    return " ".join(tok.text for tok in tokens).lower()


def _entity_values(tokens: Sequence[TokenAnnotation]) -> set[str]:
    values = {_surface(tokens)}
    if len(tokens) > 1 and tokens[-1].pos in HEAD_NOUN_TAGS:
        values.add(tokens[-1].text.lower())
    return values


def entity_lexical(inst: RelationInstance) -> set[FeatureKey]:
    """Entity strings (lowercased surface, plus head noun of multi-token
    nominals) under ents, and role-specific copies under startEnt/endEnt."""
    start_vals = _entity_values(inst.start_tokens)
    end_vals = _entity_values(inst.end_tokens)
    keys = {FeatureKey("ents", v) for v in start_vals | end_vals}
    keys |= {FeatureKey("startEnt", v) for v in start_vals}
    keys |= {FeatureKey("endEnt", v) for v in end_vals}
    return keys


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


def similarity_features(inst: RelationInstance, table: EmbeddingTable) -> set[FeatureKey]:
    """sim100 (truncated cosine of the entity phrase vectors) and its bucket."""
    c = cosine(
        table.phrase_vector(inst.e1_tokens),
        table.phrase_vector(inst.e2_tokens),
    )
    return {
        FeatureKey("sim100", similarity_value(c)),
        FeatureKey("simb", similarity_bucket(c)),
    }


def extract_keys(
    inst: RelationInstance,
    freq: FrequencyTable,
    table: EmbeddingTable,
    levin: LevinTable,
    threshold: int = 5,
) -> set[FeatureKey]:
    """All boolean feature keys of one instance."""
    filtered = filter_context(extract_context(inst), freq, threshold)
    return (
        context_lexical(inst, filtered, levin)
        | entity_lexical(inst)
        | similarity_features(inst, table)
    )


class FeatureSpace:
    """Frozen feature-key -> column-index map, built from training data."""

    def __init__(self, keys: Iterable[FeatureKey]):
        # the dataclass order, without its per-comparison tuple building
        ordered = sorted(set(keys), key=attrgetter("namespace", "value"))
        if not ordered:
            raise ValueError("feature space must be nonempty")
        self._index = {key: i for i, key in enumerate(ordered)}
        self._keys = tuple(ordered)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: FeatureKey) -> bool:
        return key in self._index

    def keys(self) -> tuple[FeatureKey, ...]:
        return self._keys

    def index(self, key: FeatureKey) -> int:
        return self._index[key]

    def indices(self, keys: Iterable[FeatureKey]) -> np.ndarray:
        """Sorted column indices of the keys present in the space."""
        idx = sorted(self._index[k] for k in keys if k in self._index)
        return np.asarray(idx, dtype=np.int64)


def build_feature_space(train_keys: Iterable[Iterable[FeatureKey]]) -> FeatureSpace:
    """Index the union of training key sets, sorted by (namespace, value)."""
    all_keys: set[FeatureKey] = set()
    for keys in train_keys:
        all_keys.update(keys)
    return FeatureSpace(all_keys)


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
        out -= self.mins
        out /= np.where(nz, span, 1.0)
        out[..., ~nz] = 0.0
        return np.clip(out, 0.0, 1.0, out=out)


def fit_minmax(train_dense: Sequence[np.ndarray] | np.ndarray) -> MinMaxScaler:
    stacked = np.asarray(train_dense, dtype=np.float64)
    if stacked.ndim != 2 or stacked.shape[0] == 0:
        raise ValueError("need a nonempty 2-d stack of dense blocks")
    return MinMaxScaler(stacked.min(axis=0), stacked.max(axis=0))


def dense_block(inst: RelationInstance, table: EmbeddingTable) -> np.ndarray:
    """Unscaled dense block: [context mean | start entity | end entity]."""
    return np.concatenate(
        [
            table.context_vector(inst),
            table.phrase_vector(inst.start_tokens),
            table.phrase_vector(inst.end_tokens),
        ]
    )
