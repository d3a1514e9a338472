#!/usr/bin/env python3
"""End-to-end run of both classifiers on the synthetic keyword corpus.

Trains the SVM and the conv-LSTM on a stratified split, prints per-class
score tables for the held-out portion, then cross-validates the SVM. The
corpus is separable by construction, so healthy code lands near-perfect
scores; anything much below that points at a pipeline regression. The SVM's
C and gamma and the lemma-frequency threshold are the library's defaults.
"""

import argparse
import json
import logging
import sys
import time

from relclass.cli import fixture_path
from relclass.clstm import Hyperparams, train
from relclass.evaluation import (confusion, cross_validate, f1_scores, format_report,
                                 stratified_split)
from relclass.features import load_levin_table
from relclass.modelio import write_atomic
from relclass.svm import train_multiclass
from relclass.synthetic import make_corpus, make_embedding_table

log = logging.getLogger("run_synthetic_experiment")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-per-class", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0, help="corpus and split seed")
    parser.add_argument("--fraction", type=float, default=0.2, help="held-out fraction")
    parser.add_argument("--folds", type=int, default=10, help="SVM cross-validation folds")
    parser.add_argument("--epochs", type=int, default=100, help="conv-LSTM epochs")
    parser.add_argument("--out", help="also write all scores to this JSON file")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")

    corpus = make_corpus(n_per_class=args.n_per_class, seed=args.seed)
    table = make_embedding_table()
    levin = load_levin_table(fixture_path("levin_small.tsv"))
    train_set, held_out = stratified_split(corpus, fraction=args.fraction, seed=args.seed)
    gold = [inst.label for inst in held_out]
    log.info("%d instances, %d train / %d held out", len(corpus), len(train_set), len(held_out))

    start = time.perf_counter()
    svm_model = train_multiclass(train_set, table, levin)
    svm_report = f1_scores(confusion(gold, svm_model.predict_many(held_out)))
    log.info("SVM trained and scored in %.1fs", time.perf_counter() - start)
    print(f"\n== SVM (C={svm_model.C:g}, gamma={svm_model.gamma:g}), held-out scores ==")
    print(format_report(svm_report))

    hyper = Hyperparams(num_filters=64, filter_width=3, rnn_units=32, dropout_rate=0.2,
                        l2_scale=0.0, epochs=args.epochs, seed=args.seed)
    start = time.perf_counter()
    clstm_model = train(train_set, table, hyper)
    clstm_report = f1_scores(confusion(gold, clstm_model.predict_many(held_out)))
    log.info("conv-LSTM trained and scored in %.1fs (final loss %.4f)",
             time.perf_counter() - start, clstm_model.loss_history[-1])
    print(f"\n== conv-LSTM (k=64, ws=3, units=32, {args.epochs} epochs), held-out scores ==")
    print(format_report(clstm_report))

    def svm_fold(fold_train):
        return train_multiclass(fold_train, table, levin).predict_many

    cv = cross_validate(corpus, svm_fold, k=args.folds, seed=args.seed)
    print(f"\n== SVM {args.folds}-fold cross-validation ==")
    print(f"macro-F1 {cv.macro_mean:.4f} +/- {cv.macro_std:.4f}")
    print(f"micro-F1 {cv.micro_mean:.4f} +/- {cv.micro_std:.4f}")

    if args.out:
        scores = {"svm": svm_report.to_dict(), "clstm": clstm_report.to_dict(),
                  "svm_crossval": cv.to_dict()}
        write_atomic(args.out, (json.dumps(scores, indent=2), "\n"))
        log.info("wrote %s", args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
