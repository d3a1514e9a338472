#!/usr/bin/env python3
"""Held-out quality of both classifiers on the seeded paper-scale inputs.

For each seed, writes the benchmark's paper-scale inputs (``perfbench/gen.py``:
1200 training and 600 held-out instances, a 300-d table, a verb-class table)
into a temporary directory, trains the SVM with the benchmark's flags (C 100,
gamma 0.001) and the conv-LSTM at the paper's sizes (384 filters of width 3,
93 units, dropout 0.23, L2 0.79, batch 128; model seed = input seed) for
``--epochs`` epochs, and scores both on the held-out corpus. Writes one JSON
record: per seed and model the held-out macro- and micro-F1 and the training
seconds, for the conv-LSTM also its mean training loss at epochs 1, 10 and 30
(those it ran), and per model the median, minimum and maximum of each F1.

    PYTHONPATH=src python3 scripts/quality.py --seeds 1-10 --epochs 30 --out quality.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import gen  # noqa: E402
from relclass import clstm, svm  # noqa: E402
from relclass.corpus import parse_corpus  # noqa: E402
from relclass.embeddings import load_table  # noqa: E402
from relclass.evaluation import confusion, f1_scores  # noqa: E402
from relclass.features import load_levin_table  # noqa: E402

SVM_FLAGS = {"C": 100.0, "gamma": 0.001}
LOSS_EPOCHS = (1, 10, 30)


def seed_list(text: str) -> list[int]:
    """``"1-10"`` or ``"1,4,7"`` as a list of seeds."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(seed) for seed in text.split(",")]


def scores(model, held_out) -> dict:
    report = f1_scores(confusion([inst.label for inst in held_out], model.predict_many(held_out)))
    return {"macro_f1": report.macro_f1, "micro_f1": report.micro_f1}


def paper_hyper(epochs: int, seed: int = 0) -> clstm.Hyperparams:
    """The conv-LSTM at the paper's sizes, with the benchmark's flags."""
    return clstm.Hyperparams(num_filters=384, filter_width=3, rnn_units=93, dropout_rate=0.23,
                             l2_scale=0.79, batch_size=128, epochs=epochs, seed=seed)


def one_seed(seed: int, epochs: int, work: Path) -> dict:
    gen.generate(seed, gen.PAPER, work)
    train = parse_corpus(work / "train.jsonl")
    held_out = parse_corpus(work / "held_out.jsonl")
    table = load_table(work / "vectors.txt")
    levin = load_levin_table(work / "verbs.tsv")

    start = time.perf_counter()
    svm_model = svm.train_multiclass(train, table, levin, **SVM_FLAGS)
    svm_run = {**scores(svm_model, held_out), "train_s": time.perf_counter() - start}

    start = time.perf_counter()
    clstm_model = clstm.train(train, table, paper_hyper(epochs, seed))
    clstm_run = {**scores(clstm_model, held_out), "train_s": time.perf_counter() - start,
                 "loss": {str(epoch): clstm_model.loss_history[epoch - 1]
                          for epoch in LOSS_EPOCHS if epoch <= epochs}}
    return {"seed": seed, "svm": svm_run, "clstm": clstm_run}


def summary(runs: list[dict]) -> dict:
    """Per model and F1, its median, minimum and maximum over the runs."""
    out: dict = {}
    for model in ("svm", "clstm"):
        for metric in ("macro_f1", "micro_f1"):
            values = [run[model][metric] for run in runs]
            out.setdefault(model, {})[metric] = {
                "median": statistics.median(values), "min": min(values), "max": max(values)}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"),
                        help="input seeds, as 1-10 or 1,4,7 (default 1-10)")
    parser.add_argument("--epochs", type=int, default=30, help="conv-LSTM epochs (default 30)")
    parser.add_argument("--out", required=True, help="the JSON record to write")
    args = parser.parse_args(argv)
    runs = []
    for seed in args.seeds:
        with tempfile.TemporaryDirectory(prefix=f"relclass-quality-s{seed}-") as work:
            runs.append(one_seed(seed, args.epochs, Path(work)))
        print(json.dumps(runs[-1]), flush=True)
    record = {"epochs": args.epochs, "svm_flags": SVM_FLAGS,
              "clstm_hyper": {k: v for k, v in asdict(paper_hyper(args.epochs)).items()
                              if k != "seed"},
              "runs": runs, "summary": summary(runs)}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
