"""Command-line entry point.

Subcommands: train, predict, evaluate, search, features, crossval. Every value
can come from a JSON config file (--config); explicit flags win. Exit codes:
0 success, 2 usage or config error, 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from dataclasses import dataclass
from importlib.resources import files
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import clstm, search, svm
from .corpus import (
    CorpusFormatError,
    InstanceValidationError,
    LABELS,
    parse_corpus,
)
from .embeddings import EmbeddingFormatError, EmbeddingTable, load_table
from .evaluation import confusion, cross_validate, f1_scores, format_report
from .features import LevinTable, NAMESPACES, extract_keys, load_levin_table
from .corpus import build_lemma_counts
from .modelio import ModelFormatError
from .svm import SvmTrainingError

log = logging.getLogger(__name__)

USAGE_ERRORS = (
    FileNotFoundError,
    IsADirectoryError,
    CorpusFormatError,
    InstanceValidationError,
    EmbeddingFormatError,
    ModelFormatError,
    SvmTrainingError,
    ValueError,
)


def fixture_path(name: str) -> Path:
    """Path of a bundled fixture file (example corpus, toy tables)."""
    return Path(str(files("relclass") / "fixtures" / name))


@dataclass
class RunConfig:
    """Resolved settings of one command: flag > config file > default."""

    train: str | None = None
    corpus: str | None = None
    gold: str | None = None
    predictions: str | None = None
    model: str | None = None
    model_file: str | None = None
    embeddings: str | None = None
    levin: str | None = None
    out: str | None = None
    report: str | None = None
    trial_log: str | None = None
    seed: int = 0
    k: int = 10
    n_trials: int = 20
    fraction: float = 0.1
    freq_threshold: int = 5
    C: float = 100.0
    gamma: float = 0.001
    num_filters: int = 384
    filter_width: int = 3
    rnn_units: int = 93
    dropout: float = 0.23
    l2: float = 0.79
    batch_size: int = 128
    epochs: int = 100
    learning_rate: float = 0.002
    stride: int = 1


# per RunConfig annotation: what a config-file value must be, and the JSON
# value types that qualify (true/false never do, though bool is an int)
CONFIG_VALUE_TYPES = {
    int: ("an integer", (int,)),
    float: ("a number", (int, float)),
    str | None: ("a string or null", (str, type(None))),
}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge the config file (if any) and the parsed flags into a RunConfig."""
    merged = RunConfig()
    hints = get_type_hints(RunConfig)  # field name -> annotation
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            try:
                file_values = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"config file {args.config}: invalid JSON: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ValueError(f"config file {args.config}: expected a JSON object")
        for key, value in file_values.items():
            if key not in hints:
                raise ValueError(f"config file {args.config}: unknown key {key!r}")
            what, accepted = CONFIG_VALUE_TYPES[hints[key]]
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ValueError(
                    f"config file {args.config}: key {key!r} must be {what}, got {value!r}"
                )
            setattr(merged, key, value)
    for key, value in vars(args).items():
        if key in hints and value is not None:
            setattr(merged, key, value)
    return merged


def _load_common(cfg: RunConfig) -> tuple[EmbeddingTable, LevinTable]:
    if not cfg.embeddings:
        raise ValueError("an embedding table is required (--embeddings)")
    table = load_table(cfg.embeddings)
    levin = load_levin_table(cfg.levin) if cfg.levin else LevinTable({})
    return table, levin


def _hyper_from(cfg: RunConfig) -> clstm.Hyperparams:
    return clstm.Hyperparams(
        num_filters=cfg.num_filters,
        filter_width=cfg.filter_width,
        rnn_units=cfg.rnn_units,
        dropout_rate=cfg.dropout,
        l2_scale=cfg.l2,
        stride=cfg.stride,
        learning_rate=cfg.learning_rate,
        batch_size=cfg.batch_size,
        epochs=cfg.epochs,
        seed=cfg.seed,
    )


def _write_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2)
    if path:
        Path(path).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _label_counts(instances) -> dict[str, int]:
    counts = {label.value: 0 for label in LABELS}
    for inst in instances:
        if inst.label is not None:
            counts[inst.label.value] += 1
    return counts


def cmd_train(cfg: RunConfig) -> int:
    if cfg.model not in ("svm", "clstm"):
        raise ValueError("--model must be svm or clstm")
    if not cfg.train:
        raise ValueError("--train corpus is required")
    instances = parse_corpus(cfg.train)
    table, levin = _load_common(cfg)
    out = cfg.out or f"{cfg.model}-model.json"
    start = time.perf_counter()
    report: dict = {
        "model": cfg.model,
        "train_corpus": cfg.train,
        "instances": len(instances),
        "class_distribution": _label_counts(instances),
        "seed": cfg.seed,
        "model_file": out,
    }
    if cfg.model == "svm":
        model = svm.train_multiclass(
            instances, table, levin,
            C=cfg.C, gamma=cfg.gamma, freq_threshold=cfg.freq_threshold,
            seed=cfg.seed,
        )
        svm.save_svm_model(model, out)
        report["feature_space_size"] = len(model.space)
        report["binary_models"] = len(model.pair_models)
    else:
        hyper = _hyper_from(cfg)
        model = clstm.train(instances, table, hyper, freq_threshold=cfg.freq_threshold)
        clstm.save_clstm_model(model, out)
        report["hyper"] = hyper.to_dict()
        report["l_max"] = model.l_max
        report["loss_history"] = list(model.loss_history)
        report["final_epoch_loss"] = model.loss_history[-1] if model.loss_history else None
    report["timing"] = {"train_seconds": time.perf_counter() - start}
    _write_json(report, cfg.report)
    print(f"model written to {out}")
    return 0


def _load_any_model(path: str, table: EmbeddingTable):
    with open(path, encoding="utf-8") as fh:
        try:
            kind = json.load(fh).get("format")
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"{path}: not a model file: {exc}") from exc
    if kind == svm.SVM_FORMAT:
        return svm.load_svm_model(path, table)
    if kind == clstm.CLSTM_FORMAT:
        return clstm.load_clstm_model(path, table)
    raise ModelFormatError(f"{path}: unknown model format {kind!r}")


def cmd_predict(cfg: RunConfig) -> int:
    if not cfg.model_file or not cfg.corpus:
        raise ValueError("--model-file and --corpus are required")
    table, _ = _load_common(cfg)
    model = _load_any_model(cfg.model_file, table)
    instances = parse_corpus(cfg.corpus)
    out = cfg.out or "predictions.jsonl"
    probs = model.predict_proba_many(instances)
    with open(out, "w", encoding="utf-8") as fh:
        for inst, row in zip(instances, probs):
            record = {
                "id": inst.id,
                "label": LABELS[int(np.argmax(row))].value,
                "proba": {label.value: float(p) for label, p in zip(LABELS, row)},
            }
            fh.write(json.dumps(record, sort_keys=True, ensure_ascii=False))
            fh.write("\n")
    print(f"{len(instances)} predictions written to {out}")
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    if not cfg.gold or not cfg.predictions:
        raise ValueError("--gold and --predictions are required")
    instances = parse_corpus(cfg.gold)
    if any(inst.label is None for inst in instances):
        raise ValueError("gold corpus contains unlabeled instances")
    predicted: dict[str, str] = {}
    with open(cfg.predictions, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                predicted[record["id"]] = record["label"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ValueError(f"{cfg.predictions}: line {lineno}: bad prediction: {exc}") from exc
    missing = [inst.id for inst in instances if inst.id not in predicted]
    if missing:
        raise ValueError(f"predictions missing for ids: {', '.join(missing[:5])}")
    label_by_value = {label.value: label for label in LABELS}
    gold = [inst.label for inst in instances]
    pred = [label_by_value[predicted[inst.id]] for inst in instances]
    report = f1_scores(confusion(gold, pred))
    print(format_report(report))
    if cfg.out:
        _write_json(report.to_dict(), cfg.out)
    return 0


def cmd_search(cfg: RunConfig) -> int:
    if not cfg.train:
        raise ValueError("--train corpus is required")
    instances = parse_corpus(cfg.train)
    table, _ = _load_common(cfg)
    best, results = search.random_search(
        instances, table,
        n_trials=cfg.n_trials, seed=cfg.seed,
        fraction=cfg.fraction, freq_threshold=cfg.freq_threshold,
        epochs=cfg.epochs,
    )
    if cfg.trial_log:
        search.write_trial_log(results, cfg.trial_log)
        print(f"trial log written to {cfg.trial_log}")
    _write_json({"best": best.to_dict(), "n_trials": len(results)}, cfg.out)
    return 0


def cmd_features(cfg: RunConfig) -> int:
    if not cfg.corpus:
        raise ValueError("--corpus is required")
    instances = parse_corpus(cfg.corpus)
    table, levin = _load_common(cfg)
    freq = build_lemma_counts(instances)
    lines = []
    for inst in instances:
        keys = extract_keys(inst, freq, table, levin, cfg.freq_threshold)
        grouped: dict[str, list[str]] = {ns: [] for ns in NAMESPACES}
        for key in sorted(keys):
            grouped[key.namespace].append(key.value)
        lines.append(json.dumps({"id": inst.id, "features": grouped},
                                sort_keys=True, ensure_ascii=False))
    text = "\n".join(lines) + ("\n" if lines else "")
    if cfg.out:
        Path(cfg.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_crossval(cfg: RunConfig) -> int:
    if cfg.model not in ("svm", "clstm"):
        raise ValueError("--model must be svm or clstm")
    if not cfg.corpus:
        raise ValueError("--corpus is required")
    instances = parse_corpus(cfg.corpus)
    table, levin = _load_common(cfg)
    if cfg.model == "svm":
        def train_fn(train_set):
            model = svm.train_multiclass(
                train_set, table, levin,
                C=cfg.C, gamma=cfg.gamma, freq_threshold=cfg.freq_threshold,
                seed=cfg.seed,
            )
            return model.predict_many
    else:
        hyper = _hyper_from(cfg)

        def train_fn(train_set):
            model = clstm.train(train_set, table, hyper, freq_threshold=cfg.freq_threshold)
            return model.predict_many
    result = cross_validate(instances, train_fn, k=cfg.k, seed=cfg.seed)
    for n, fold in enumerate(result.fold_reports, start=1):
        print(f"fold {n:2d}: macro-F1 {fold.macro_f1:.4f}  micro-F1 {fold.micro_f1:.4f}")
    print(f"mean   : macro-F1 {result.macro_mean:.4f} +- {result.macro_std:.4f}  "
          f"micro-F1 {result.micro_mean:.4f} +- {result.micro_std:.4f}")
    if cfg.out:
        _write_json(result.to_dict(), cfg.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relclass",
        description="Relation classification: lexical+embedding SVM and a conv-LSTM classifier.",
    )
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; explicit flags win")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--embeddings", help="embedding table file")
    common.add_argument("--levin", help="verb-class TSV file")
    common.add_argument("--out", help="primary output path")

    hyper = argparse.ArgumentParser(add_help=False)
    hyper.add_argument("--freq-threshold", dest="freq_threshold", type=int, default=None)
    hyper.add_argument("--num-filters", dest="num_filters", type=int, default=None)
    hyper.add_argument("--filter-width", dest="filter_width", type=int, default=None)
    hyper.add_argument("--rnn-units", dest="rnn_units", type=int, default=None)
    hyper.add_argument("--dropout", type=float, default=None)
    hyper.add_argument("--l2", type=float, default=None)
    hyper.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    hyper.add_argument("--epochs", type=int, default=None)
    hyper.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    hyper.add_argument("--stride", type=int, default=None)
    hyper.add_argument("--C", type=float, default=None, help="SVM penalty")
    hyper.add_argument("--gamma", type=float, default=None, help="RBF width")

    p = sub.add_parser("train", parents=[common, hyper], help="train a model")
    p.add_argument("--model", choices=["svm", "clstm"])
    p.add_argument("--train", help="labeled training corpus (JSONL)")
    p.add_argument("--report", help="JSON training-report path (default: stdout)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", parents=[common], help="predict with a trained model")
    p.add_argument("--model-file", dest="model_file")
    p.add_argument("--corpus", help="corpus to label (JSONL)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", parents=[common], help="score predictions against gold")
    p.add_argument("--gold", help="labeled gold corpus")
    p.add_argument("--predictions", help="predictions JSONL from `predict`")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("search", parents=[common, hyper], help="random hyperparameter search")
    p.add_argument("--train", help="labeled training corpus (JSONL)")
    p.add_argument("--n-trials", dest="n_trials", type=int, default=None)
    p.add_argument("--fraction", type=float, default=None, help="validation fraction")
    p.add_argument("--trial-log", dest="trial_log", help="JSONL trial log path")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("features", parents=[common, hyper], help="dump boolean feature keys")
    p.add_argument("--corpus", help="corpus to analyze (JSONL)")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("crossval", parents=[common, hyper], help="stratified k-fold cross-validation")
    p.add_argument("--model", choices=["svm", "clstm"])
    p.add_argument("--corpus", help="labeled corpus (JSONL)")
    p.add_argument("-k", type=int, default=None, help="number of folds")
    p.set_defaults(func=cmd_crossval)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = resolve_config(args)
        return args.func(cfg)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failures
        log.exception("internal error")
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
