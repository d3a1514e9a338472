"""Random hyperparameter search with a stratified validation split.

One fixed 10% stratified sample serves as the validation set for every trial;
each trial draws a configuration uniformly from the search space, trains a
C-LSTM on the remaining 90%, and is scored by validation macro-F1.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import modelio, read
from .clstm import Hyperparams, train
from .corpus import FREQ_THRESHOLD, RelationInstance
from .embeddings import EmbeddingTable
from .evaluation import confusion, f1_scores

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SearchSpace:
    """Inclusive sampling ranges for the searched hyperparameters."""

    num_filters: tuple[int, int] = (10, 500)
    filter_width: tuple[int, int] = (2, 5)
    rnn_units: tuple[int, int] = (16, 500)
    dropout_rate: tuple[float, float] = (0.0, 0.5)
    l2_scale: tuple[float, float] = (0.0, 3.0)

    def __post_init__(self) -> None:
        for field in fields(self):
            lo, hi = getattr(self, field.name)
            if lo > hi:
                raise ValueError(f"{field.name}: min {lo} exceeds max {hi}")


@dataclass(frozen=True)
class TrialResult:
    hyper: Hyperparams
    macro_f1: float
    micro_f1: float
    seed: int
    wall_time: float


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def stratified_split(
    instances: Sequence[RelationInstance],
    fraction: float,
    seed: int = 0,
) -> tuple[list[RelationInstance], list[RelationInstance]]:
    """Split into (train, validation) preserving class proportions.

    Per-class validation counts are round-half-up of fraction * class size,
    at least 1 for classes of size >= 2; singleton classes stay in train.
    A global adjustment nudges the total toward round(fraction * n) but never
    moves any class more than 1 instance away from its exact proportion.
    """
    if not instances:
        raise ValueError("nothing to split")
    read.number(fraction, "fraction", ">= 0", "< 1")
    if any(inst.label is None for inst in instances):
        raise ValueError("stratified split needs labeled instances")
    if fraction == 0.0:
        return list(instances), []
    rng = np.random.default_rng(seed)
    by_class: dict = {}
    for i, inst in enumerate(instances):
        by_class.setdefault(inst.label, []).append(i)
    class_order = sorted(by_class, key=lambda label: label.value)
    counts = {}
    for label in class_order:
        n_k = len(by_class[label])
        if n_k == 1:
            counts[label] = 0
            log.info("class %s has a single instance, kept in train", label.value)
        else:
            counts[label] = max(1, _round_half_up(fraction * n_k))
    target = _round_half_up(fraction * len(instances))
    delta = target - sum(counts.values())
    step = 1 if delta > 0 else -1
    for label in sorted(class_order, key=lambda l: -len(by_class[l])):
        while delta != 0:
            n_k = len(by_class[label])
            new = counts[label] + step
            floor = 1 if n_k >= 2 else 0
            if not floor <= new <= n_k or abs(new - fraction * n_k) > 1.0:
                break
            counts[label] = new
            delta -= step
        if delta == 0:
            break
    if delta != 0:
        log.info("stratified split: global total off target by %d (per-class bound wins)", delta)
    val_idx: set[int] = set()
    for label in class_order:
        idx = np.array(by_class[label], dtype=np.int64)
        rng.shuffle(idx)
        val_idx.update(idx[: counts[label]].tolist())
    train = [inst for i, inst in enumerate(instances) if i not in val_idx]
    val = [inst for i, inst in enumerate(instances) if i in val_idx]
    return train, val


def sample_config(space: SearchSpace, rng: np.random.Generator, seed: int = 0) -> Hyperparams:
    """One uniform draw from the space in field order, an integer where
    ``Hyperparams`` reads one; the other settings keep their defaults."""
    def draw(name: str) -> int | float:
        lo, hi = getattr(space, name)
        if Hyperparams.READERS[name][0] is read.integer:
            return int(rng.integers(lo, hi, endpoint=True))
        return float(rng.uniform(lo, hi))
    return Hyperparams(**{field.name: draw(field.name) for field in fields(space)}, seed=seed)


def random_search(
    instances: Sequence[RelationInstance],
    table: EmbeddingTable,
    n_trials: int,
    seed: int = 0,
    space: SearchSpace = SearchSpace(),
    fraction: float = 0.10,
    freq_threshold: int = FREQ_THRESHOLD,
    epochs: int = Hyperparams.epochs,
) -> tuple[Hyperparams, list[TrialResult]]:
    """Best configuration by validation macro-F1 over n_trials random draws,
    each trained for ``epochs`` epochs.

    Each trial derives its RNG from (seed, trial index); ties break toward
    the earlier trial.
    """
    read.integer(n_trials, "n_trials", 1)
    train_set, val_set = stratified_split(instances, fraction, seed)
    if not val_set:
        raise ValueError("validation split is empty; raise fraction or corpus size")
    gold = [inst.label for inst in val_set]
    results: list[TrialResult] = []
    for trial in range(n_trials):
        rng = np.random.default_rng([seed, trial])
        trial_seed = int(rng.integers(0, 2**31))
        hyper = replace(sample_config(space, rng, seed=trial_seed), epochs=epochs)
        start = time.perf_counter()
        model = train(train_set, table, hyper, freq_threshold)
        pred = model.predict_many(val_set)
        report = f1_scores(confusion(gold, pred))
        results.append(
            TrialResult(
                hyper=hyper,
                macro_f1=report.macro_f1,
                micro_f1=report.micro_f1,
                seed=trial_seed,
                wall_time=time.perf_counter() - start,
            )
        )
        log.info(
            "trial %d/%d: macro-F1 %.4f micro-F1 %.4f (k=%d ws=%d units=%d)",
            trial + 1, n_trials, report.macro_f1, report.micro_f1,
            hyper.num_filters, hyper.filter_width, hyper.rnn_units,
        )
    best = max(range(len(results)), key=lambda i: (results[i].macro_f1, -i))
    return results[best].hyper, results


def write_trial_log(results: Sequence[TrialResult], path: str | Path) -> None:
    """JSON-lines log, one trial per line; replaces the file atomically."""
    modelio.write_atomic(
        path,
        (json.dumps(asdict(r), sort_keys=True, ensure_ascii=False) + "\n" for r in results),
    )
