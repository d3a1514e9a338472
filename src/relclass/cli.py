"""Command-line entry point.

Subcommands: train, predict, evaluate, search, features, crossval. Each takes
only the flags it reads (``COMMANDS``). Every value can also come from a JSON
config file (--config), whose keys all commands share, each reading its own;
explicit flags win. A command imports the modules it runs when it runs, so
that none pays for another's. Exit codes: 0 success, 2 usage or config
error, 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from dataclasses import asdict
from importlib.resources import files
from pathlib import Path

from . import read
from .corpus import FREQ_THRESHOLD, LABELS, RelationLabel, context_vocabulary, parse_corpus
from .embeddings import EmbeddingTable, load_table
from .modelio import (CLSTM_FORMAT, SVM_FORMAT, ModelFormatError, argmax_labels,
                      check_output, read_json, write_atomic)

log = logging.getLogger(__name__)

# every input, config and model-file error of the package is a ValueError
USAGE_ERRORS = (FileNotFoundError, IsADirectoryError, NotADirectoryError, ValueError)


def fixture_path(name: str) -> Path:
    """Path of a bundled fixture file (example corpus, toy tables)."""
    return Path(str(files("relclass") / "fixtures" / name))


# the model kinds that train and crossval take (--model)
MODELS = ("svm", "clstm")

# every setting, defined once: option -> (kind, default, help). The option's
# name is its destination and config key (--model-file: model_file); its kind
# (int, float or str) reads the flag and the config-file value alike, and
# only a str setting may be null in the config file. A flag left off the
# command line is None, so the config file or the default applies. A model
# or search setting with no default here is passed on only when a flag or
# the config file set it (``_given``), so that the library function reading
# it applies its own default (``clstm.Hyperparams``, ``svm.train_multiclass``,
# ``evaluation.cross_validate`` or ``search.random_search``).
SETTINGS: dict[str, tuple[type, object, str | None]] = {
    "--train": (str, None, "labeled training corpus (JSONL)"),
    "--corpus": (str, None, "input corpus (JSONL)"),
    "--gold": (str, None, "labeled gold corpus"),
    "--predictions": (str, None, "predictions JSONL from `predict`"),
    "--model": (str, None, None),
    "--model-file": (str, None, "model file written by `train`"),
    "--embeddings": (str, None, "embedding table file"),
    "--levin": (str, None, "verb-class TSV file (read by SVM training and features only)"),
    "--out": (str, None, "primary output path"),
    "--report": (str, None, "JSON training-report path (default: stdout)"),
    "--trial-log": (str, None, "JSONL trial log path"),
    "--seed": (int, 0, None),
    "-k": (int, None, "number of folds"),
    "--n-trials": (int, 20, None),
    "--fraction": (float, None, "validation fraction"),
    "--freq-threshold": (int, FREQ_THRESHOLD, "minimum lemma count of a context word"),
    "--C": (float, None, "SVM penalty"),
    "--gamma": (float, None, "RBF width"),
    "--num-filters": (int, None, None),
    "--filter-width": (int, None, None),
    "--rnn-units": (int, None, None),
    "--dropout": (float, None, None),
    "--l2": (float, None, None),
    "--batch-size": (int, None, None),
    "--epochs": (int, None, None),
    "--learning-rate": (float, None, None),
    "--stride": (int, None, None),
}
# each setting by its destination
_KEYS = {flag.lstrip("-").replace("-", "_"): setting for flag, setting in SETTINGS.items()}
# the config-file reader of each kind
_READERS = {int: read.integer, float: read.number, str: read.string}


def resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """The settings of one command, each from its flag, else the config file
    (if any), else its default."""
    merged = {key: default for key, (_, default, _) in _KEYS.items()}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            try:
                for key, value in read.object(json.load(fh), "the document").items():
                    if key not in _KEYS:
                        raise ValueError(f"unknown key {key!r}")
                    kind = _KEYS[key][0]
                    if value is not None or kind is not str:
                        _READERS[kind](value, f"key {key!r}")
                    # checked where read, like a range: train and crossval take --model
                    if key == "model" and "model" in args and value not in (None, *MODELS):
                        raise ValueError(f"key 'model' must be {' or '.join(MODELS)}, "
                                         f"got {value!r}")
                    merged[key] = value
            except ValueError as exc:  # invalid JSON, too
                raise ValueError(f"config file {args.config}: {exc}") from exc
    for key, value in vars(args).items():
        if key in merged and value is not None:
            merged[key] = value
    return argparse.Namespace(**merged)


def _given(**settings) -> dict:
    """The ``settings`` that a flag or the config file set; the library
    function they are passed to applies its own default to the others."""
    return {name: value for name, value in settings.items() if value is not None}


def _load_levin(cfg: argparse.Namespace) -> dict[str, frozenset[int]]:
    """The verb table; only SVM training and ``features`` read one."""
    from .features import load_levin_table
    return load_levin_table(cfg.levin) if cfg.levin else {}


def _write_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2)
    if path:
        write_atomic(path, (text, "\n"))
    else:
        print(text)


def _trainer(cfg: argparse.Namespace, table: EmbeddingTable):
    """A function that trains the model kind ``cfg.model`` names on a corpus,
    with the configured settings."""
    if cfg.model == "svm":
        from . import svm
        levin = _load_levin(cfg)
        return lambda instances: svm.train_multiclass(
            instances, table, levin, freq_threshold=cfg.freq_threshold, seed=cfg.seed,
            **_given(C=cfg.C, gamma=cfg.gamma))
    from . import clstm
    hyper = clstm.Hyperparams(seed=cfg.seed, **_given(
        num_filters=cfg.num_filters, filter_width=cfg.filter_width, rnn_units=cfg.rnn_units,
        dropout_rate=cfg.dropout, l2_scale=cfg.l2, stride=cfg.stride,
        learning_rate=cfg.learning_rate, batch_size=cfg.batch_size, epochs=cfg.epochs))
    return lambda instances: clstm.train(instances, table, hyper,
                                         freq_threshold=cfg.freq_threshold)


def cmd_train(cfg: argparse.Namespace) -> int:
    instances = parse_corpus(cfg.train)
    train = _trainer(cfg, load_table(cfg.embeddings))
    out = cfg.out or f"{cfg.model}-model.json"
    start = time.perf_counter()
    report: dict = {
        "model": cfg.model,
        "train_corpus": cfg.train,
        "instances": len(instances),
        "class_distribution": {label.value: sum(inst.label is label for inst in instances)
                               for label in LABELS},
        "seed": cfg.seed,
        "model_file": out,
    }
    model = train(instances)
    if cfg.model == "svm":
        from .svm import save_svm_model
        save_svm_model(model, out)
        report["feature_space_size"] = len(model.space)
        report["binary_models"] = len(model.pair_models)
        report["sv_rows"] = len(model.sv)
        report["workers"] = model.fit_report["workers"]
        report["pairs"] = [
            {"first": pair.first.value, "second": pair.second.value,
             "support_vectors": len(pair.svm.sv), "A": pair.calibrator.A, "B": pair.calibrator.B,
             **model.fit_report["pairs"][key]}
            for key, pair in sorted(model.pair_models.items())
        ]
    else:
        from .clstm import save_clstm_model
        save_clstm_model(model, out)
        report["hyper"] = asdict(model.hyper)
        report["loss_history"] = list(model.loss_history)
        report["final_epoch_loss"] = model.loss_history[-1] if model.loss_history else None
        report.update(model.fit_report)
    report["timing"] = {"train_seconds": time.perf_counter() - start}
    _write_json(report, cfg.report)
    print(f"model written to {out}")
    return 0


def _load_any_model(path: str, table: EmbeddingTable):
    payload = read_json(path)
    kind = payload.get("format")
    if kind == SVM_FORMAT:
        from .svm import load_svm_model as load
    elif kind == CLSTM_FORMAT:
        from .clstm import load_clstm_model as load
    else:
        raise ModelFormatError(f"{path}: unknown model format {kind!r}")
    return load(path, table, payload)


def cmd_predict(cfg: argparse.Namespace) -> int:
    model = _load_any_model(cfg.model_file, load_table(cfg.embeddings))
    instances = parse_corpus(cfg.corpus)
    out = cfg.out or "predictions.jsonl"
    probs = model.predict_proba_many(instances)
    records = ({"id": inst.id, "label": best.value,
                "proba": {label.value: p for label, p in zip(LABELS, row.tolist())}}
               for inst, best, row in zip(instances, argmax_labels(probs), probs))
    write_atomic(out, (json.dumps(rec, sort_keys=True, ensure_ascii=False) + "\n"
                       for rec in records))
    print(f"{len(instances)} predictions written to {out}")
    return 0


def cmd_evaluate(cfg: argparse.Namespace) -> int:
    from .evaluation import confusion, f1_scores, format_report
    instances = parse_corpus(cfg.gold)
    if any(inst.label is None for inst in instances):
        raise ValueError("gold corpus contains unlabeled instances")
    gold_ids = {inst.id for inst in instances}
    predicted: dict[str, tuple[int, RelationLabel]] = {}  # id -> (line, label)
    for lineno, line in read.text_lines(cfg.predictions):
        if not line.strip():
            continue
        try:
            record = read.object(json.loads(line), "a prediction")
            pred_id = read.string(record["id"], "id")
            if pred_id in predicted:
                raise ValueError(f"id {pred_id!r} is also on line {predicted[pred_id][0]}")
            if pred_id not in gold_ids:
                raise ValueError(f"id {pred_id!r} is not in the gold corpus")
            # an unknown label raises ValueError here, like malformed JSON
            predicted[pred_id] = lineno, RelationLabel(read.string(record["label"], "label"))
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{cfg.predictions}: line {lineno}: bad prediction: {exc}") from exc
    missing = [inst.id for inst in instances if inst.id not in predicted]
    if missing:
        raise ValueError(f"{cfg.predictions}: predictions missing for ids: "
                         f"{', '.join(missing[:5])}")
    gold = [inst.label for inst in instances]
    pred = [predicted[inst.id][1] for inst in instances]
    report = f1_scores(confusion(gold, pred))
    print(format_report(report))
    if cfg.out:
        _write_json(report.to_dict(), cfg.out)
    return 0


def cmd_search(cfg: argparse.Namespace) -> int:
    from . import search
    instances = parse_corpus(cfg.train)
    best, results = search.random_search(
        instances, load_table(cfg.embeddings), n_trials=cfg.n_trials, seed=cfg.seed,
        freq_threshold=cfg.freq_threshold, **_given(fraction=cfg.fraction, epochs=cfg.epochs))
    if cfg.trial_log:
        search.write_trial_log(results, cfg.trial_log)
        print(f"trial log written to {cfg.trial_log}")
    _write_json({"best": asdict(best), "n_trials": len(results)}, cfg.out)
    return 0


def cmd_features(cfg: argparse.Namespace) -> int:
    from .features import NAMESPACES, featurize
    instances = parse_corpus(cfg.corpus)
    table, levin = load_table(cfg.embeddings), _load_levin(cfg)
    key_sets, _ = featurize(instances, context_vocabulary(instances, cfg.freq_threshold),
                            table, levin)
    lines = []
    for inst, keys in zip(instances, key_sets):
        grouped: dict[str, list[str]] = {ns: [] for ns in NAMESPACES}
        for namespace, value in sorted(keys):
            grouped[namespace].append(value)
        lines.append(json.dumps({"id": inst.id, "features": grouped},
                                sort_keys=True, ensure_ascii=False))
    text = "\n".join(lines) + ("\n" if lines else "")
    if cfg.out:
        write_atomic(cfg.out, (text,))
    else:
        sys.stdout.write(text)
    return 0


def cmd_crossval(cfg: argparse.Namespace) -> int:
    from .evaluation import cross_validate
    instances = parse_corpus(cfg.corpus)
    train = _trainer(cfg, load_table(cfg.embeddings))
    result = cross_validate(instances, train, seed=cfg.seed, **_given(k=cfg.k))
    for n, fold in enumerate(result.fold_reports, start=1):
        print(f"fold {n:2d}: macro-F1 {fold.macro_f1:.4f}  micro-F1 {fold.micro_f1:.4f}")
    print(f"mean   : macro-F1 {result.macro_mean:.4f} +- {result.macro_std:.4f}  "
          f"micro-F1 {result.micro_mean:.4f} +- {result.micro_std:.4f}")
    if cfg.out:
        _write_json(result.to_dict(), cfg.out)
    return 0


# subcommand -> (handler, help, the settings it needs from a flag or the
# config file, the settings naming the files it writes, the flags it reads
# besides --config, which every command takes). train and crossval read
# --freq-threshold, the SVM's C and gamma, and the conv-LSTM settings; predict
# accepts --levin and never reads it, as an SVM model file holds its verb classes.
MODEL_FLAGS = ("--freq-threshold --C --gamma --num-filters --filter-width --rnn-units "
               "--dropout --l2 --batch-size --epochs --learning-rate --stride")
COMMANDS = {
    "train": (cmd_train, "train a model", "--model --train --embeddings", "--out --report",
              "--out --seed --embeddings --levin --model --train --report " + MODEL_FLAGS),
    "predict": (cmd_predict, "predict with a trained model", "--model-file --corpus --embeddings",
                "--out", "--out --embeddings --levin --model-file --corpus"),
    "evaluate": (cmd_evaluate, "score predictions against gold", "--gold --predictions",
                 "--out", "--out --gold --predictions"),
    "search": (cmd_search, "random hyperparameter search", "--train --embeddings",
               "--out --trial-log", "--out --seed --embeddings --freq-threshold --epochs "
               "--train --n-trials --fraction --trial-log"),
    "features": (cmd_features, "dump boolean feature keys", "--corpus --embeddings", "--out",
                 "--out --embeddings --levin --freq-threshold --corpus"),
    "crossval": (cmd_crossval, "stratified k-fold cross-validation",
                 "--model --corpus --embeddings", "--out",
                 "--out --seed --embeddings --levin --model --corpus -k " + MODEL_FLAGS),
}


def _check_contract(cfg: argparse.Namespace, needs: str, writes: str) -> None:
    """Fail before any input is read: on an unset needed setting, and on an
    output that ``write_atomic`` would refuse (``check_output``)."""
    missing = [flag for flag in needs.split() if not getattr(cfg, flag[2:].replace("-", "_"))]
    if missing:
        raise ValueError(f"{' and '.join(missing)} {'are' if missing[1:] else 'is'} required")
    for flag in writes.split():
        path = getattr(cfg, flag[2:].replace("-", "_"))
        if path:
            check_output(path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relclass",
        description="Relation classification: lexical+embedding SVM and a conv-LSTM classifier.",
    )
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, _, _, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; explicit flags win")
        for flag in flags.split():
            kind, _, flag_help = SETTINGS[flag]
            p.add_argument(flag, type=kind, help=flag_help,
                           choices=MODELS if flag == "--model" else None)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = resolve_config(args)
        _check_contract(cfg, *COMMANDS[args.command][2:4])
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
