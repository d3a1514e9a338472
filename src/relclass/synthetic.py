"""Synthetic keyword corpus for end-to-end checks.

Six classes, one distinctive context keyword per class, plus filler words and
entity nouns that carry no class signal. A 50-dimensional embedding table
gives every keyword its own orthogonal direction, so both classifiers should
separate the classes almost perfectly.
"""

from __future__ import annotations

import numpy as np

from .corpus import LABELS, RelationInstance, RelationLabel, TokenAnnotation
from .embeddings import EmbeddingTable

EMBED_DIM = 50

KEYWORDS: dict[RelationLabel, str] = {
    label: kw
    for label, kw in zip(LABELS, ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"])
}

FILLERS = [
    ("the", "DET"),
    ("be", "VERB"),
    ("of", "ADP"),
    ("use", "VERB"),
    ("model", "NOUN"),
    ("data", "NOUN"),
    ("method", "NOUN"),
    ("result", "NOUN"),
]

ENTITIES = ["parser", "corpus", "system", "algorithm", "grammar", "feature"]


def make_embedding_table(seed: int = 13) -> EmbeddingTable:
    """Keywords get orthogonal directions on the first axes; everything else
    lives in the remaining dimensions with small random components."""
    rng = np.random.default_rng(seed)
    tokens = [KEYWORDS[label] for label in LABELS]
    rows = [4.0 * np.eye(EMBED_DIM)[i] for i in range(len(LABELS))]
    for lemmas, scale in (([lemma for lemma, _ in FILLERS], 0.3), (ENTITIES, 0.5)):
        for lemma in lemmas:
            tokens.append(lemma)
            rows.append(np.concatenate([np.zeros(len(LABELS)),
                                        rng.normal(0.0, scale, EMBED_DIM - len(LABELS))]))
    return EmbeddingTable(tokens, rows, name="synthetic-50d")


def make_corpus(
    n_per_class: int = 100, seed: int = 7
) -> list[RelationInstance]:
    """n_per_class instances per label; the class keyword always appears in
    the context, everything else is drawn at random."""
    rng = np.random.default_rng(seed)
    instances = []
    for label in LABELS:
        keyword = KEYWORDS[label]
        for n in range(n_per_class):
            length = int(rng.integers(3, 7))
            kw_pos = int(rng.integers(0, length))
            context = []
            for pos in range(length):
                if pos == kw_pos:
                    context.append(TokenAnnotation(keyword, keyword, "NOUN"))
                else:
                    lemma, tag = FILLERS[int(rng.integers(0, len(FILLERS)))]
                    context.append(TokenAnnotation(lemma, lemma, tag))
            e1_lemma = ENTITIES[int(rng.integers(0, len(ENTITIES)))]
            e2_lemma = ENTITIES[int(rng.integers(0, len(ENTITIES)))]
            tokens = (
                [TokenAnnotation(e1_lemma.capitalize(), e1_lemma, "NOUN")]
                + context
                + [TokenAnnotation(e2_lemma, e2_lemma, "NOUN")]
            )
            instances.append(
                RelationInstance(
                    id=f"syn-{label.value}-{n}",
                    tokens=tuple(tokens),
                    e1=(0, 0),
                    e2=(len(tokens) - 1, len(tokens) - 1),
                    label=label,
                    reverse=bool(rng.random() < 0.2),
                    subtask="1.1",
                )
            )
    return instances
