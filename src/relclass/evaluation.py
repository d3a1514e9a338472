"""Held-out scoring of a model (``score``: micro/macro F1), k-fold cross-validation of a
model trainer, and the stratified folds and validation split, from one per-class shuffle."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np

from . import read
from .corpus import LABELS, RelationInstance, RelationLabel, gold_indices
from .modelio import Classifier


@dataclass(frozen=True)
class ConfusionMatrix:
    """6x6 counts, rows = gold label index, columns = predicted."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        n = len(LABELS)
        if counts.shape != (n, n):
            raise ValueError(f"confusion matrix must be {n}x{n}")
        if np.any(counts < 0):
            raise ValueError("negative count")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion(
    gold: Sequence[RelationLabel], pred: Sequence[RelationLabel]
) -> ConfusionMatrix:
    if len(gold) != len(pred):
        raise ValueError(f"length mismatch: {len(gold)} gold vs {len(pred)} predicted")
    if not gold:
        raise ValueError("nothing to score")
    counts = np.zeros((len(LABELS), len(LABELS)), dtype=np.int64)
    for g, p in zip(gold, pred):
        counts[LABELS.index(g), LABELS.index(p)] += 1
    return ConfusionMatrix(counts)


@dataclass(frozen=True)
class ScoreReport:
    precision: dict[RelationLabel, float]
    recall: dict[RelationLabel, float]
    f1: dict[RelationLabel, float]
    support: dict[RelationLabel, int]
    macro_f1: float
    micro_f1: float

    def to_dict(self) -> dict:
        return {
            "per_class": {
                label.value: {
                    "precision": self.precision[label],
                    "recall": self.recall[label],
                    "f1": self.f1[label],
                    "support": self.support[label],
                }
                for label in LABELS
            },
            "macro_f1": self.macro_f1,
            "micro_f1": self.micro_f1,
        }


def f1_scores(cm: ConfusionMatrix) -> ScoreReport:
    """Per-class P/R/F1 with the 0/0 -> 0 convention; macro averages all six
    classes regardless of support; micro-F1 equals accuracy here."""
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    counts = cm.counts
    precision, recall, f1, support = {}, {}, {}, {}
    for i, label in enumerate(LABELS):
        tp = int(counts[i, i])
        fp = int(counts[:, i].sum()) - tp
        fn = int(counts[i, :].sum()) - tp
        p = tp / (tp + fp) if tp + fp > 0 else 0.0
        r = tp / (tp + fn) if tp + fn > 0 else 0.0
        precision[label] = p
        recall[label] = r
        f1[label] = 2 * p * r / (p + r) if p + r > 0 else 0.0
        support[label] = tp + fn
    macro = sum(f1.values()) / len(LABELS)
    micro = float(np.trace(counts)) / cm.total
    return ScoreReport(precision, recall, f1, support, macro, micro)


def score(model: Classifier, instances: Sequence[RelationInstance]) -> ScoreReport:
    """The scores of ``model``'s labels for the labeled ``instances``."""
    gold = gold_indices(instances, ValueError("scoring needs labeled instances"))
    return f1_scores(confusion([LABELS[i] for i in gold], model.predict_many(instances)))


def _shuffled_classes(labels: Sequence[Hashable], seed: int | list[int]) -> list[np.ndarray]:
    """The indices of each class, classes in ``repr`` order of their label,
    each shuffled in that order by one generator seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    classes = [np.array([i for i, x in enumerate(labels) if x == label], dtype=np.int64)
               for label in sorted(set(labels), key=repr)]
    for idx in classes:
        rng.shuffle(idx)
    return classes


def stratified_fold_indices(
    labels: Sequence[Hashable], k: int, seed: int | list[int] = 0
) -> list[np.ndarray]:
    """Test-index arrays of a stratified k-fold over arbitrary labels.

    Within each class, shuffled indices are dealt round-robin; the dealing
    offset rotates between classes so fold sizes stay balanced. Per-class
    per-fold counts differ by at most 1.
    """
    read.integer(k, "k", 2)
    if k > len(labels):
        raise ValueError(f"k={k} exceeds dataset size {len(labels)}")
    folds: list[list[int]] = [[] for _ in range(k)]
    offset = 0
    for idx in _shuffled_classes(labels, seed):
        for q, i in enumerate(idx):
            folds[(offset + q) % k].append(int(i))
        offset = (offset + len(idx)) % k
    return [np.array(sorted(f), dtype=np.int64) for f in folds]


def stratified_split(
    instances: Sequence[RelationInstance], fraction: float, seed: int = 0
) -> tuple[list[RelationInstance], list[RelationInstance]]:
    """(train, validation), each in corpus order. Of each shuffled class of n
    instances, the first ``max(1, round-half-up(fraction * n))`` go to
    validation; a class of one, or ``fraction == 0``, puts none there."""
    read.integer(seed, "seed", 0)
    if not instances:
        raise ValueError("nothing to split")
    read.number(fraction, "fraction", ">= 0", "< 1")
    labels = gold_indices(instances, ValueError("stratified split needs labeled instances"))
    val: set[int] = set()
    for idx in _shuffled_classes(labels, seed):
        if fraction > 0 and len(idx) > 1:
            val.update(idx[: max(1, int(fraction * len(idx) + 0.5))].tolist())
    return ([inst for i, inst in enumerate(instances) if i not in val],
            [inst for i, inst in enumerate(instances) if i in val])


@dataclass(frozen=True)
class CrossValResult:
    fold_reports: tuple[ScoreReport, ...]
    macro_mean: float
    macro_std: float
    micro_mean: float
    micro_std: float

    def to_dict(self) -> dict:
        return {
            "folds": [r.to_dict() for r in self.fold_reports],
            "macro_f1_mean": self.macro_mean,
            "macro_f1_std": self.macro_std,
            "micro_f1_mean": self.micro_mean,
            "micro_f1_std": self.micro_std,
        }


def cross_validate(
    instances: Sequence[RelationInstance],
    train: Callable[[list[RelationInstance]], Classifier],
    k: int = 10,
    seed: int = 0,
) -> CrossValResult:
    """Train a model on k-1 folds, ``score`` it on the held-out fold, aggregate.

    ``train(train_set)`` must return a fresh model per call. Each training set
    is in corpus order, each held-out fold in ``stratified_fold_indices`` order.
    """
    read.integer(seed, "seed", 0)
    labels = gold_indices(instances, ValueError("cross-validation needs labeled instances"))
    reports = []
    for test_idx in stratified_fold_indices(labels, k, seed):
        test_set = set(test_idx.tolist())
        model = train([inst for i, inst in enumerate(instances) if i not in test_set])
        reports.append(score(model, [instances[i] for i in test_idx]))
    macros = np.array([r.macro_f1 for r in reports])
    micros = np.array([r.micro_f1 for r in reports])
    return CrossValResult(
        fold_reports=tuple(reports),
        macro_mean=float(macros.mean()),
        macro_std=float(macros.std()),
        micro_mean=float(micros.mean()),
        micro_std=float(micros.std()),
    )


def format_report(report: ScoreReport) -> str:
    """Aligned text table: per-class P/R/F1/support plus macro and micro F1."""
    rows = [f"{'class':<15} {'prec':>7} {'recall':>7} {'f1':>7} {'support':>8}"]
    for label in LABELS:
        rows.append(
            f"{label.value:<15} {report.precision[label]:>7.4f} "
            f"{report.recall[label]:>7.4f} {report.f1[label]:>7.4f} "
            f"{report.support[label]:>8d}"
        )
    rows.append(f"{'macro-F1':<15} {report.macro_f1:>7.4f}")
    rows.append(f"{'micro-F1':<15} {report.micro_f1:>7.4f}")
    return "\n".join(rows)
