#!/usr/bin/env python3
"""Small random hyperparameter search for the conv-LSTM on synthetic data.

Draws trial configurations from a reduced search space, trains each on a
stratified split of the synthetic keyword corpus, and reports the best by
validation macro-F1. Writes the full trial log as JSON lines so runs can be
compared offline. Defaults finish in a few seconds.
"""

import argparse
import json
import logging
import sys
from dataclasses import asdict

from relclass.search import SearchSpace, random_search, write_trial_log
from relclass.synthetic import make_corpus, make_embedding_table

log = logging.getLogger("run_search_demo")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=8)
    parser.add_argument("--n-per-class", type=int, default=60)
    parser.add_argument("--epochs", type=int, default=15,
                        help="override the fixed per-trial epoch count")
    parser.add_argument("--fraction", type=float, default=0.2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--log", default="search_log.jsonl", help="trial log path")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")

    corpus = make_corpus(n_per_class=args.n_per_class, seed=args.seed)
    table = make_embedding_table()
    space = SearchSpace(num_filters=(16, 128), filter_width=(2, 4), rnn_units=(16, 64),
                        dropout_rate=(0.0, 0.5), l2_scale=(0.0, 1.0))
    best, results = random_search(corpus, table, n_trials=args.trials, seed=args.seed,
                                  space=space, fraction=args.fraction, epochs=args.epochs)
    write_trial_log(results, args.log)
    log.info("wrote %d trials to %s", len(results), args.log)

    winner = max(results, key=lambda r: r.macro_f1)
    print(f"\nbest of {args.trials} trials: macro-F1 {winner.macro_f1:.4f} "
          f"(micro-F1 {winner.micro_f1:.4f}, {winner.wall_time:.1f}s)")
    print(json.dumps(asdict(best), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
