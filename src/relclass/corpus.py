"""Annotated relation corpus: instances, context extraction, the context vocabulary.

Corpus files are JSON-lines, one instance per line:

    {"id": str, "tokens": [{"text": str, "lemma": str, "pos": str}, ...],
     "e1": [start, end], "e2": [start, end], "label": str|null,
     "reverse": bool, "subtask": "1.1"|"1.2"}

Spans are inclusive token-index pairs; the first entity always precedes the
second in surface order. Tokens arrive pre-lemmatized and POS-tagged.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from . import read


class CorpusFormatError(ValueError):
    """Raised for corpus lines that cannot be parsed into an instance record."""


class InstanceValidationError(ValueError):
    """Raised for structurally valid records that violate instance invariants."""


class RelationLabel(Enum):
    """The six relation classes. Only COMPARE is symmetric."""

    COMPARE = "COMPARE"
    MODEL_FEATURE = "MODEL-FEATURE"
    PART_WHOLE = "PART_WHOLE"
    RESULT = "RESULT"
    TOPIC = "TOPIC"
    USAGE = "USAGE"

    @property
    def symmetric(self) -> bool:
        return self is RelationLabel.COMPARE


# Fixed label order; doubles as the deterministic tie-break order (it is
# the lexicographic order of the label strings).
LABELS: tuple[RelationLabel, ...] = tuple(RelationLabel)

SUBTASKS = ("1.1", "1.2")


@dataclass(frozen=True)
class TokenAnnotation:
    text: str
    lemma: str
    pos: str

    def __post_init__(self) -> None:
        if not self.text:
            raise InstanceValidationError("token text must be nonempty")
        if not self.lemma:
            raise InstanceValidationError("token lemma must be nonempty")
        if self.lemma != self.lemma.lower():
            raise InstanceValidationError(f"token lemma must be lowercase: {self.lemma!r}")
        if not self.pos or any(ch.isspace() for ch in self.pos):
            raise InstanceValidationError(f"invalid POS tag: {self.pos!r}")


@dataclass(frozen=True)
class RelationInstance:
    """One labeled (or to-be-labeled) entity pair inside a token sequence.

    ``e1`` and ``e2`` are inclusive index spans into ``tokens``; ``e1`` comes
    first in surface order. ``reverse`` marks that the *semantic* start entity
    of the relation is the surface-second span.
    """

    id: str
    tokens: tuple[TokenAnnotation, ...]
    e1: tuple[int, int]
    e2: tuple[int, int]
    label: RelationLabel | None
    reverse: bool
    subtask: str

    def __post_init__(self) -> None:
        if not self.tokens:
            raise InstanceValidationError(f"instance {self.id!r}: empty token sequence")
        if self.subtask not in SUBTASKS:
            raise InstanceValidationError(f"instance {self.id!r}: unknown subtask {self.subtask!r}")
        s1, t1 = self.e1
        s2, t2 = self.e2
        if not (0 <= s1 <= t1 < s2 <= t2 < len(self.tokens)):
            raise InstanceValidationError(
                f"instance {self.id!r}: invalid spans e1={self.e1} e2={self.e2} "
                f"for {len(self.tokens)} tokens"
            )

    @property
    def e1_tokens(self) -> tuple[TokenAnnotation, ...]:
        return self.tokens[self.e1[0] : self.e1[1] + 1]

    @property
    def e2_tokens(self) -> tuple[TokenAnnotation, ...]:
        return self.tokens[self.e2[0] : self.e2[1] + 1]

    @property
    def start_tokens(self) -> tuple[TokenAnnotation, ...]:
        """Tokens of the semantic start entity (respects ``reverse``)."""
        return self.e2_tokens if self.reverse else self.e1_tokens

    @property
    def end_tokens(self) -> tuple[TokenAnnotation, ...]:
        """Tokens of the semantic end entity (respects ``reverse``)."""
        return self.e1_tokens if self.reverse else self.e2_tokens


def extract_context(inst: RelationInstance) -> tuple[TokenAnnotation, ...]:
    """Tokens strictly between the two entity spans, in surface order."""
    return inst.tokens[inst.e1[1] + 1 : inst.e2[0]]


def build_lemma_counts(instances: Iterable[RelationInstance]) -> Counter:
    """Lemma occurrence counts over the context tokens of all instances."""
    counts: Counter = Counter()
    for inst in instances:
        counts.update(tok.lemma for tok in extract_context(inst))
    return counts


FREQ_THRESHOLD = 5  # the lemma-frequency threshold every trainer defaults to


def context_vocabulary(instances: Iterable[RelationInstance], threshold: int) -> frozenset[str]:
    """The context vocabulary of a corpus: the lemmas whose count over its
    context tokens reaches ``threshold``. Both models read a context word
    only if its lemma is in their training corpus's vocabulary."""
    read.integer(threshold, "freq_threshold", 1)
    return frozenset(lemma for lemma, count in build_lemma_counts(instances).items()
                     if count >= threshold)


def filter_context(
    context: Sequence[TokenAnnotation], vocabulary: frozenset[str]
) -> tuple[TokenAnnotation, ...]:
    """Keep only the context tokens whose lemma is in ``vocabulary``."""
    return tuple(tok for tok in context if tok.lemma in vocabulary)


def instance_from_dict(record: dict, known: dict | None = None) -> RelationInstance:
    """The instance of one corpus record; ``label`` may be absent, which
    reads as null. ``known`` maps each ``(text, lemma, pos)`` already read to
    its token, so a repeated token is built and checked once; the valid
    tokens of this record are added to it."""
    known = {} if known is None else known
    try:
        record = read.object(record, "record")
        tokens = []
        for t in read.array(record["tokens"], "tokens"):
            t = read.object(t, "token")
            try:
                tokens.append(known[t["text"], t["lemma"], t["pos"]])
            except (KeyError, TypeError):  # new, missing or unhashable: checked here
                tok = TokenAnnotation(read.string(t["text"], "token text"),
                                      read.string(t["lemma"], "token lemma"),
                                      read.string(t["pos"], "token pos"))
                tokens.append(known.setdefault((tok.text, tok.lemma, tok.pos), tok))
        label = record.get("label")
        return RelationInstance(
            id=read.string(record["id"], "id"),
            tokens=tuple(tokens),
            e1=tuple(read.integer(i, "e1") for i in read.array(record["e1"], "e1", 2)),
            e2=tuple(read.integer(i, "e2") for i in read.array(record["e2"], "e2", 2)),
            label=None if label is None else RelationLabel(read.string(label, "label")),
            reverse=read.boolean(record["reverse"], "reverse"),
            subtask=read.string(record["subtask"], "subtask"),
        )
    except InstanceValidationError:
        raise
    except (KeyError, read.FieldError) as exc:
        raise CorpusFormatError(f"bad instance record: {exc}") from exc
    except ValueError as exc:  # unknown label string
        raise InstanceValidationError(f"instance {record.get('id')!r}: {exc}") from exc


def instance_to_dict(inst: RelationInstance) -> dict:
    return {
        "id": inst.id,
        "tokens": [{"text": t.text, "lemma": t.lemma, "pos": t.pos} for t in inst.tokens],
        "e1": list(inst.e1),
        "e2": list(inst.e2),
        "label": None if inst.label is None else inst.label.value,
        "reverse": inst.reverse,
        "subtask": inst.subtask,
    }


def parse_corpus(path: str | Path) -> list[RelationInstance]:
    """Parse a JSON-lines corpus file; raises on the first malformed line.
    Equal tokens of the file are one object."""
    instances, known = [], {}
    for lineno, line in read.text_lines(path, error=CorpusFormatError):
        if not line.strip():
            continue
        try:
            instances.append(instance_from_dict(json.loads(line), known))
        except json.JSONDecodeError as exc:
            raise CorpusFormatError(f"{path}: line {lineno}: invalid JSON: {exc}") from exc
        except (CorpusFormatError, InstanceValidationError) as exc:
            raise type(exc)(f"{path}: line {lineno}: {exc}") from exc
    return instances


def serialize_instance(inst: RelationInstance) -> str:
    return json.dumps(instance_to_dict(inst), ensure_ascii=False, separators=(",", ":"))


def write_corpus(instances: Iterable[RelationInstance], path: str | Path) -> None:
    """Write instances as JSON-lines; output is byte-deterministic."""
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            fh.write(serialize_instance(inst))
            fh.write("\n")
