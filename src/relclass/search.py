"""Random hyperparameter search: each trial draws a configuration uniformly
from the search space, trains a C-LSTM on one fixed stratified split
(``evaluation.stratified_split``, 10% held out by default) and is scored by
the held-out part's macro-F1."""

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
from .evaluation import confusion, f1_scores, stratified_split

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
