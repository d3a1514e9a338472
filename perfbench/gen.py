"""Seeded paper-scale inputs for the relclass benchmark.

Everything the program under test reads is written here from one seed:
JSONL corpora, a 300-d text embedding table and a verb-class TSV. The shapes
follow SemEval-2018 Task 7 subtask 1.1: ~1.2k training instances with its
class skew, a Zipfian lemma vocabulary, contexts of up to 38 tokens,
entity spans of 1-3 tokens and ~20 % reversed relations.

Class signal is deliberately weak: an instance carries a cue lemma of its
own class only most of the time, sometimes a cue of another class, and cue
vectors lean only partly towards a class direction. The SVM then lands well
above the majority-class baseline without being perfect, so its macro-F1 is
a meaningful correctness floor rather than a constant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# SemEval-2018 Task 7 subtask 1.1 training-set class counts.
CLASS_COUNTS = {
    "USAGE": 483,
    "MODEL-FEATURE": 326,
    "PART_WHOLE": 234,
    "COMPARE": 95,
    "RESULT": 72,
    "TOPIC": 18,
}
LABELS = tuple(CLASS_COUNTS)

# POS of frequency rank r is POS_BY_RANK[r % 20]: 40 % nouns, 15 % verbs,
# 15 % adjectives, 10 % adpositions, 5 % each of the rest.
POS_BY_RANK = (
    "NOUN", "DET", "VERB", "NOUN", "ADP", "ADJ", "NOUN", "VERB", "NOUN", "ADJ",
    "NUM", "NOUN", "ADP", "VERB", "NOUN", "ADV", "ADJ", "NOUN", "PROPN", "NOUN",
)
# Verb classes in the style of Levin's top-level numbering; ids like 45.4
# exercise the loader's truncation to the top level.
N_VERB_CLASSES = 57
# Zipf exponents of context lemmas and entity nouns; 1.3 cuts the 20k-lemma
# vocabulary to ~4.2k lemmas over the training and held-out corpora.
ZIPF_EXPONENT = 1.3
NOUN_EXPONENT = 1.3
# Class signal: CUES_PER_CLASS cue lemmas per label, at frequency ranks from
# CUE_FIRST_RANK on; an instance carries one of its own with probability
# CUE_RATE and one of a random label with probability NOISE_RATE; cue vectors
# move CUE_STRENGTH towards a label direction. With five cues even TOPIC's
# lemmas clear the CLI's default frequency threshold of 5.
CUES_PER_CLASS = 5
CUE_FIRST_RANK = 40
CUE_RATE = 0.9
NOISE_RATE = 0.2
CUE_STRENGTH = 0.9
# Every LONGEST_EVERY-th instance has a context of exactly max_context tokens.
LONGEST_EVERY = 100


@dataclass(frozen=True)
class Scale:
    """Input sizes. ``PAPER`` is what the benchmark measures; ``TINY`` only
    checks that every workload runs end to end."""

    vocab: int  # lemmas the Zipfian sampler draws from
    train: int  # labelled training instances
    held_out: int  # labelled held-out instances for the read side
    dim: int
    max_context: int


PAPER = Scale(vocab=20_000, train=1_200, held_out=600, dim=300, max_context=38)
TINY = Scale(vocab=400, train=120, held_out=60, dim=16, max_context=12)


def class_sizes(n: int) -> dict[str, int]:
    """Split n instances over the labels in the SemEval proportions
    (largest remainder), at least two per class so every pair can train."""
    total = sum(CLASS_COUNTS.values())
    raw = {lab: n * c / total for lab, c in CLASS_COUNTS.items()}
    sizes = {lab: max(2, int(v)) for lab, v in raw.items()}
    by_remainder = sorted(LABELS, key=lambda lab: raw[lab] - int(raw[lab]), reverse=True)
    i = 0
    while sum(sizes.values()) < n:
        sizes[by_remainder[i % len(LABELS)]] += 1
        i += 1
    return sizes


class World:
    """The seeded vocabulary, cue lemmas, vectors and verb classes."""

    def __init__(self, seed: int, scale: Scale):
        self.scale = scale
        self.rng = np.random.default_rng(seed)
        rng = self.rng
        V = scale.vocab
        self.lemmas = [f"w{i}" for i in range(V)]
        # The seed decides which lemma takes which frequency rank; what a
        # rank is (its POS, whether it is a cue, how many verb classes it
        # has) is the same for every seed, so seeds differ in detail but
        # not in the structure that sets the program's work.
        self.order = rng.permutation(V)
        rank_of = np.empty(V, dtype=np.int64)
        rank_of[self.order] = np.arange(V)
        self.pos = np.asarray(POS_BY_RANK)[rank_of % len(POS_BY_RANK)]
        ranks = np.arange(1, V + 1, dtype=np.float64)
        weights = 1.0 / (ranks + 2.7) ** ZIPF_EXPONENT
        self.zipf_cdf = np.cumsum(weights / weights.sum())
        nouns = self.order[np.isin(self.pos[self.order], ["NOUN", "PROPN"])]
        noun_w = 1.0 / (np.arange(1, nouns.size + 1) + 5.0) ** NOUN_EXPONENT
        self.nouns = rng.permutation(nouns)
        self.noun_cdf = np.cumsum(noun_w / noun_w.sum())
        # Cue lemmas: interleaved mid-frequency ranks, disjoint between classes.
        n = len(LABELS)
        self.cues = {
            lab: self.order[CUE_FIRST_RANK + c + n * np.arange(CUES_PER_CLASS)]
            for c, lab in enumerate(LABELS)
        }
        # Vectors: noise, cue lemmas pulled towards a class direction of fixed norm.
        dim = scale.dim
        vec = rng.normal(0.0, 0.35, size=(V, dim))
        directions = rng.normal(0.0, 1.0, size=(n, dim))
        directions *= 0.35 * np.sqrt(dim) / np.linalg.norm(directions, axis=1, keepdims=True)
        for c, lab in enumerate(LABELS):
            vec[self.cues[lab]] = 0.5 * vec[self.cues[lab]] + CUE_STRENGTH * directions[c]
        self.vectors = vec
        # Verb classes: every third verb rank has two, cue verbs share one per label.
        self.verb_classes: dict[int, list[str]] = {}
        for r, v in enumerate(self.order[self.pos[self.order] == "VERB"]):
            self.verb_classes[int(v)] = [
                f"{int(rng.integers(9, 9 + N_VERB_CLASSES))}.{int(rng.integers(1, 8))}"
                for _ in range(1 + (r % 3 == 0))
            ]
        for c, lab in enumerate(LABELS):
            for v in self.cues[lab]:
                if self.pos[v] == "VERB":
                    self.verb_classes[int(v)] = [f"{70 + c}.1"]

    def _token(self, idx: int, capital: bool = False) -> dict:
        lemma = self.lemmas[idx]
        return {"text": lemma.capitalize() if capital else lemma, "lemma": lemma,
                "pos": str(self.pos[idx])}

    def _words(self, n: int) -> list[int]:
        return self.order[np.searchsorted(self.zipf_cdf, self.rng.random(n))].tolist()

    def _context_ids(self, label: str, longest: bool) -> list[int]:
        rng, scale = self.rng, self.scale
        if longest:
            # only lemmas frequent enough to survive the CLI's frequency
            # filter, so l_max is max_context + 2 on every seed
            length = scale.max_context
            ids = self.order[rng.integers(0, 20, size=length)].tolist()
        else:
            length = int(np.clip(round(rng.gamma(2.0, scale.max_context / 9.0)), 1, scale.max_context))
            ids = self._words(length)
        if rng.random() < CUE_RATE:
            ids[int(rng.integers(length))] = int(rng.choice(self.cues[label]))
        if rng.random() < NOISE_RATE:
            other = LABELS[int(rng.integers(len(LABELS)))]
            ids[int(rng.integers(length))] = int(rng.choice(self.cues[other]))
        return ids

    def _entity_ids(self) -> list[int]:
        n = 1 + int(np.searchsorted([0.5, 0.85], self.rng.random()))
        return self.nouns[np.searchsorted(self.noun_cdf, self.rng.random(n))].tolist()

    def instance(self, ident: str, label: str, longest: bool = False) -> dict:
        rng = self.rng
        prefix = self._words(int(rng.integers(0, 6)))
        e1 = self._entity_ids()
        ctx = self._context_ids(label, longest)
        e2 = self._entity_ids()
        suffix = self._words(int(rng.integers(0, 6)))
        ids = prefix + e1 + ctx + e2 + suffix
        tokens = [self._token(t, capital=(n == 0)) for n, t in enumerate(ids)]
        s1 = len(prefix)
        s2 = s1 + len(e1) + len(ctx)
        return {
            "id": ident,
            "tokens": tokens,
            "e1": [s1, s1 + len(e1) - 1],
            "e2": [s2, s2 + len(e2) - 1],
            "label": label,
            "reverse": bool(label != "COMPARE" and rng.random() < 0.2),
            "subtask": "1.1",
        }

    def corpus(self, prefix: str, n: int) -> list[dict]:
        labels = [lab for lab, k in class_sizes(n).items() for _ in range(k)]
        order = self.rng.permutation(len(labels))
        return [self.instance(f"{prefix}-{i}", labels[j], longest=i % LONGEST_EVERY == 0)
                for i, j in enumerate(order)]


def write_corpus(records: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")))
            fh.write("\n")


def write_table(lemmas: list[str], vectors: np.ndarray, path: Path) -> None:
    """GloVe-style text table with a ``<count> <dim>`` header, 5 decimals.

    Values are formatted by byte arithmetic on arrays: ``%``-formatting 6M
    floats takes seconds, and set-up time is a measured metric. Each value
    gets a 9-byte slot " -d.ddddd"; NUL bytes (unused sign, lemma padding)
    are dropped at the end.
    """
    if vectors.size and np.abs(vectors).max() >= 9.99999:
        raise ValueError("table values must lie in (-9.99999, 9.99999)")
    q = np.rint(vectors * 1e5).astype(np.int32)
    slots = np.zeros(q.shape + (9,), dtype=np.uint8)
    slots[..., 0] = ord(" ")
    slots[..., 1] = (q < 0).view(np.uint8) * np.uint8(ord("-"))
    slots[..., 3] = ord(".")
    rest = np.abs(q)
    for pos in (8, 7, 6, 5, 4, 2):  # last digit first
        rest, digit = np.divmod(rest, 10)
        slots[..., pos] = digit + ord("0")
    names = np.array([lemma.encode() for lemma in lemmas], dtype=bytes)  # NUL-padded
    lines = np.concatenate([names[:, None].view(np.uint8), slots.reshape(len(lemmas), -1),
                            np.full((len(lemmas), 1), ord("\n"), dtype=np.uint8)], axis=1)
    with open(path, "wb") as fh:
        fh.write(f"{len(lemmas)} {vectors.shape[1]}\n".encode())
        fh.write(lines[lines != 0].tobytes())


def write_verbs(world: World, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for v in sorted(world.verb_classes):
            fh.write(f"{world.lemmas[v]}\t{','.join(world.verb_classes[v])}\n")


def corpus_vocab(*corpora: list[dict]) -> list[int]:
    seen = {tok["lemma"] for records in corpora for rec in records for tok in rec["tokens"]}
    return sorted(int(lemma[1:]) for lemma in seen)


def generate(seed: int, scale: Scale, out: Path) -> dict:
    """Write train.jsonl, held_out.jsonl, verbs.tsv and vectors.txt into
    ``out``; return the realised input shapes. The table is cut to the
    lemmas of the training and held-out corpora.
    """
    out.mkdir(parents=True, exist_ok=True)
    world = World(seed, scale)
    train = world.corpus(f"tr{seed}", scale.train)
    held_out = world.corpus(f"ho{seed}", scale.held_out)
    write_corpus(train, out / "train.jsonl")
    write_corpus(held_out, out / "held_out.jsonl")
    write_verbs(world, out / "verbs.tsv")
    rows = corpus_vocab(train, held_out)
    write_table([world.lemmas[i] for i in rows], world.vectors[rows], out / "vectors.txt")
    contexts = [rec["e2"][0] - rec["e1"][1] - 1 for rec in train]
    return {
        "train_instances": len(train),
        "held_out_instances": len(held_out),
        "max_context_tokens": max(contexts),
        "mean_context_tokens": round(float(np.mean(contexts)), 3),
        "table_rows": len(rows),
        "table_dim": scale.dim,
        "verb_lemmas": len(world.verb_classes),
        "class_counts": class_sizes(scale.train),
    }
