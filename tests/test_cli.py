import argparse
import base64
import errno
import hashlib
import inspect
import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (LIBRARY_HELD, SETTING_DEFAULTS, declared_default, failing_smo, force_cpus,
                      make_instance, tok, uneven_corpus)
from relclass import cli, clstm, corpus, evaluation, features, search, svm
from relclass.cli import build_parser, fixture_path, main
from relclass.corpus import LABELS, write_corpus
from relclass.embeddings import EmbeddingTable, load_table, save_table
from relclass.modelio import decode_array
from relclass.synthetic import make_corpus, make_embedding_table

CLSTM_SMOKE = ["--num-filters", "8", "--filter-width", "2", "--rnn-units", "8",
               "--dropout", "0.0", "--l2", "0.0", "--epochs", "2",
               "--batch-size", "16", "--freq-threshold", "1"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Corpus + embeddings on disk, plus a trained SVM model file."""
    root = tmp_path_factory.mktemp("cli")
    corpus = make_corpus(n_per_class=12)
    write_corpus(corpus, root / "train.jsonl")
    save_table(make_embedding_table(), root / "emb.txt")
    model = root / "svm-model.json"
    report = root / "train-report.json"
    rc = main([
        "train", "--model", "svm", "--train", str(root / "train.jsonl"),
        "--embeddings", str(root / "emb.txt"),
        "--levin", str(fixture_path("levin_small.tsv")),
        "--out", str(model), "--report", str(report),
    ])
    assert rc == 0
    return root


def test_train_svm_writes_model_and_report(workdir):
    report = json.loads((workdir / "train-report.json").read_text())
    assert (workdir / "svm-model.json").exists()
    assert report["model"] == "svm"
    assert report["binary_models"] == 15
    assert report["instances"] == 72
    assert sum(report["class_distribution"].values()) == 72
    assert report["feature_space_size"] > 0
    pairs = report["pairs"]
    assert [(p["first"], p["second"]) for p in pairs] == [
        (a.value, b.value) for a, b in itertools.combinations(LABELS, 2)
    ]
    assert all(p["n_iter"] > 0 and p["converged"] is True for p in pairs)
    # every stored row is a support vector of at least one pair
    counts = [p["support_vectors"] for p in pairs]
    assert max(counts) <= report["sv_rows"] <= sum(counts)
    assert report["timing"]["train_seconds"] > 0
    assert report["workers"] >= 1
    for p in pairs:
        # 12 instances a class: five calibration folds per pair
        assert p["folds"] == p["folds_converged"] == 5 and p["fold_iters"] > 0
        assert math.isfinite(p["A"]) and math.isfinite(p["B"]) and p["seconds"] > 0


def _train_svm(workdir, corpus, out, *extra):
    return main([
        "train", "--model", "svm", "--train", str(corpus),
        "--embeddings", str(workdir / "emb.txt"),
        "--levin", str(fixture_path("levin_small.tsv")),
        "--out", str(out), *extra,
    ])


def test_train_svm_model_file_does_not_depend_on_worker_count(workdir, tmp_path, monkeypatch):
    for cpus in (1, 2):
        force_cpus(monkeypatch, cpus)
        report = tmp_path / f"{cpus}.report.json"
        rc = _train_svm(workdir, workdir / "train.jsonl", tmp_path / f"{cpus}.json",
                        "--report", str(report))
        assert rc == 0
        assert json.loads(report.read_text())["workers"] == cpus
        # the fixture's model was trained with this machine's CPU count
        assert (tmp_path / f"{cpus}.json").read_bytes() == (workdir / "svm-model.json").read_bytes()


@pytest.mark.parametrize("cpus", [1, 2])
def test_train_exits_2_when_a_pair_fit_fails(workdir, tmp_path, monkeypatch, capsys, cpus):
    write_corpus(uneven_corpus(), tmp_path / "uneven.jsonl")
    force_cpus(monkeypatch, cpus)
    monkeypatch.setattr(svm, "smo_solve", failing_smo())
    out = tmp_path / "m.json"
    assert _train_svm(workdir, tmp_path / "uneven.jsonl", out) == 2
    assert "error: no solution for pair COMPARE/TOPIC" in capsys.readouterr().err
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_train_clstm_seed_reproducible(workdir, tmp_path):
    digests, histories = [], []
    instances = make_corpus(n_per_class=12)
    vocabulary = corpus.context_vocabulary(instances, 1)
    lengths = [len(clstm.build_sequence(inst, vocabulary)) for inst in instances]
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        rc = main([
            "train", "--model", "clstm", "--train", str(workdir / "train.jsonl"),
            "--embeddings", str(workdir / "emb.txt"), "--seed", "5",
            "--out", str(out), "--report", str(tmp_path / f"{name}.report"),
            *CLSTM_SMOKE,
        ])
        assert rc == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        report = json.loads((tmp_path / f"{name}.report").read_text())
        histories.append(report["loss_history"])
        assert len(report["loss_history"]) == 2  # one loss per epoch
        assert all(math.isfinite(loss) for loss in report["loss_history"])
        assert report["loss_history"][-1] == report["final_epoch_loss"]
        # stride 1: l_max windows per instance in total, l_max the width of
        # the training batch; live: those the LSTM steps, one per column of
        # each instance
        assert report["l_max"] == max(lengths)
        total = report["instances"] * report["l_max"]
        assert report["windows"]["total"] == total
        assert report["windows"]["live"] == sum(lengths)
        assert 0 < report["windows"]["live"] < total
        # one shard worker where OpenBLAS runs at one thread (blas_threads 1)
        assert report["blas_threads"] in (1, None)
        assert report["workers"] == (min(2, len(os.sched_getaffinity(0)))
                                     if report["blas_threads"] else 1)
    assert digests[0] == digests[1]
    assert histories[0] == histories[1]


def test_train_rejects_unlabeled_corpus(workdir, tmp_path):
    corpus = make_corpus(n_per_class=3)
    from relclass.corpus import RelationInstance
    stripped = [
        RelationInstance(id=i.id, tokens=i.tokens, e1=i.e1, e2=i.e2,
                         label=None, reverse=i.reverse, subtask=i.subtask)
        for i in corpus
    ]
    path = tmp_path / "unlabeled.jsonl"
    write_corpus(stripped, path)
    rc = main([
        "train", "--model", "svm", "--train", str(path),
        "--embeddings", str(workdir / "emb.txt"), "--out", str(tmp_path / "m.json"),
    ])
    assert rc == 2


@pytest.mark.parametrize("flag, value", [
    ("--C", "0"), ("--C", "-1"), ("--C", "nan"), ("--C", "inf"),
    ("--gamma", "0"), ("--gamma", "-1"),
])
def test_train_rejects_bad_svm_hyperparameter(workdir, tmp_path, capsys, flag, value):
    out = tmp_path / "m.json"
    rc = main([
        "train", "--model", "svm", "--train", str(workdir / "train.jsonl"),
        "--embeddings", str(workdir / "emb.txt"), "--out", str(out), flag, value,
    ])
    assert rc == 2
    assert f"{flag[2:]} must be a finite number > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["-5", "0"])
def test_train_rejects_a_learning_rate_that_does_not_descend(workdir, tmp_path, capsys, value):
    # -5 is gradient ascent, 0 no update at all
    out = tmp_path / "m.json"
    rc = main([
        "train", "--model", "clstm", "--train", str(workdir / "train.jsonl"),
        "--embeddings", str(workdir / "emb.txt"), "--out", str(out), *CLSTM_SMOKE,
        "--learning-rate", value,
    ])
    assert rc == 2
    assert "learning_rate must be a finite number > 0" in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_bad_model_name(workdir, tmp_path, capsys):
    out = tmp_path / "m.json"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--model", "SVM", "--train", str(workdir / "train.jsonl"),
              "--embeddings", str(workdir / "emb.txt"), "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --model: invalid choice: 'SVM'" in capsys.readouterr().err
    assert not out.exists()


def test_train_exits_2_naming_a_missing_training_corpus(workdir, tmp_path, capsys):
    missing, out = workdir / "missing.jsonl", tmp_path / "m.json"
    rc = main(["train", "--model", "svm", "--train", str(missing),
               "--embeddings", str(workdir / "emb.txt"), "--out", str(out)])
    assert rc == 2
    assert f"No such file or directory: '{missing}'" in capsys.readouterr().err
    assert not out.exists()


def test_an_input_under_a_regular_file_exits_2(tmp_path, capsys):
    gold = tmp_path / "afile" / "gold.jsonl"
    gold.parent.write_text("a regular file\n", encoding="utf-8")
    rc = main(["evaluate", "--gold", str(gold), "--predictions", str(tmp_path / "p.jsonl")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: [Errno {errno.ENOTDIR}] Not a directory: '{gold}'\n"


def test_train_prints_its_report_without_report_flag(workdir, tmp_path, capsys):
    model = tmp_path / "m.json"
    rc = main(["train", "--model", "clstm", "--train", str(workdir / "train.jsonl"),
               "--embeddings", str(workdir / "emb.txt"), "--out", str(model), *CLSTM_SMOKE])
    assert rc == 0
    out = capsys.readouterr().out
    report, end = json.JSONDecoder().raw_decode(out)
    assert report["model_file"] == str(model)
    assert out[end:] == f"\nmodel written to {model}\n"


@pytest.mark.parametrize("command, flag", [("predict", "--out"), ("train", "--out"),
                                           ("train", "--report")])
def test_output_in_a_missing_directory_exits_2_naming_it(workdir, tmp_path, capsys,
                                                         command, flag):
    outputs = {"--out": str(tmp_path / "out.json"), "--report": str(tmp_path / "report.json"),
               flag: str(tmp_path / "missing" / "out.json")}
    if command == "predict":
        argv = ["predict", "--model-file", str(workdir / "svm-model.json"),
                "--corpus", str(workdir / "train.jsonl"), "--out", outputs["--out"]]
    else:
        argv = ["train", "--model", "clstm", "--train", str(workdir / "train.jsonl"),
                "--out", outputs["--out"], "--report", outputs["--report"], *CLSTM_SMOKE]
    assert main([*argv, "--embeddings", str(workdir / "emb.txt")]) == 2
    err = capsys.readouterr().err
    assert f"No such file or directory: '{outputs[flag]}'" in err, err


def _key(flag):
    return flag[2:].replace("-", "_")


def _contract_argv(command, inputs, skip=None):
    """``command`` with each setting it needs but ``skip`` set to a file
    under the directory ``inputs``, which does not exist (--model: svm)."""
    argv = [command]
    for flag in cli.COMMANDS[command][2].split():
        if flag != skip:
            argv += [flag, "svm" if flag == "--model" else str(inputs / _key(flag))]
    return argv


NEEDED = [(command, flag) for command, entry in cli.COMMANDS.items() for flag in entry[2].split()]
WRITTEN = [(command, flag) for command, entry in cli.COMMANDS.items() for flag in entry[3].split()]


@pytest.mark.parametrize("command, flag", NEEDED, ids=[f"{c}{f}" for c, f in NEEDED])
def test_an_unset_needed_setting_exits_2_before_any_input_is_read(tmp_path, capsys,
                                                                  command, flag):
    inputs = tmp_path / "inputs"
    argv = _contract_argv(command, inputs, skip=flag)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {flag} is required\n"
    # given only as a config key, the setting passes the check, so the
    # command goes on to read its inputs, which are missing
    config = tmp_path / "config.json"
    value = "svm" if flag == "--model" else str(inputs / _key(flag))
    config.write_text(json.dumps({_key(flag): value}), encoding="utf-8")
    assert main([*argv, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"No such file or directory: '{inputs}" in err, err


def test_every_unset_needed_setting_is_named_in_one_message(capsys):
    assert main(["train"]) == 2
    assert capsys.readouterr().err == "error: --model and --train and --embeddings are required\n"


@pytest.mark.parametrize("where", ["missing-directory", "directory", "file-parent"])
@pytest.mark.parametrize("command, flag", WRITTEN, ids=[f"{c}{f}" for c, f in WRITTEN])
def test_an_output_that_cannot_be_written_exits_2_before_any_input_is_read(
        tmp_path, monkeypatch, capsys, command, flag, where):
    inputs, outputs = tmp_path / "inputs", tmp_path / "outputs"
    outputs.mkdir()
    monkeypatch.chdir(outputs)  # where train and predict write by default
    bad = outputs / "missing" / "out.json"
    code, reason = errno.ENOENT, os.strerror(errno.ENOENT)
    if where == "directory":
        bad = outputs / "a-directory"
        bad.mkdir()
        code, reason = errno.EISDIR, os.strerror(errno.EISDIR)
    if where == "file-parent":
        bad = outputs / "afile" / "out.json"
        bad.parent.write_text("a regular file\n", encoding="utf-8")
        code, reason = errno.ENOTDIR, f"its parent '{bad.parent}' is not a directory"
    argv = _contract_argv(command, inputs)
    for out in cli.COMMANDS[command][3].split():
        argv += [out, str(bad if out == flag else outputs / f"{_key(out)}.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: [Errno {code}] {reason}: '{bad}'\n"
    # nothing was written, not even into the directory or file named as a parent
    left = [path.relative_to(outputs).as_posix() for path in outputs.rglob("*")]
    assert left == {"directory": ["a-directory"], "file-parent": ["afile"]}.get(where, [])
    assert where != "file-parent" or bad.parent.read_text(encoding="utf-8") == "a regular file\n"


def test_predict_probabilities_sum_to_one(workdir, tmp_path):
    out = tmp_path / "pred.jsonl"
    rc = main([
        "predict", "--model-file", str(workdir / "svm-model.json"),
        "--corpus", str(workdir / "train.jsonl"),
        "--embeddings", str(workdir / "emb.txt"), "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 72
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"id", "label", "proba"}
        assert sum(record["proba"].values()) == pytest.approx(1.0, abs=1e-9)
        assert record["label"] == max(record["proba"], key=record["proba"].get)


def test_predict_training_corpus_matches_gold(workdir, tmp_path):
    out = tmp_path / "pred.jsonl"
    main([
        "predict", "--model-file", str(workdir / "svm-model.json"),
        "--corpus", str(workdir / "train.jsonl"),
        "--embeddings", str(workdir / "emb.txt"), "--out", str(out),
    ])
    by_id = {json.loads(l)["id"]: json.loads(l)["label"] for l in out.read_text().splitlines()}
    corpus = make_corpus(n_per_class=12)
    hits = sum(1 for inst in corpus if by_id[inst.id] == inst.label.value)
    assert hits / len(corpus) >= 0.99


def test_predict_empty_corpus(workdir, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    out = tmp_path / "pred.jsonl"
    rc = main([
        "predict", "--model-file", str(workdir / "svm-model.json"),
        "--corpus", str(empty),
        "--embeddings", str(workdir / "emb.txt"), "--out", str(out),
    ])
    assert rc == 0
    assert out.read_text() == ""


@pytest.fixture(scope="module")
def clstm_model_file(workdir):
    path = workdir / "clstm-model.json"
    rc = main([
        "train", "--model", "clstm", "--train", str(workdir / "train.jsonl"),
        "--embeddings", str(workdir / "emb.txt"), "--out", str(path),
        "--report", str(workdir / "clstm-report.json"), *CLSTM_SMOKE,
    ])
    assert rc == 0
    return path


def _drop_pair_coef(payload):
    del payload["pairs"][0]["coef"]
    return payload


def _pair_sv_past_block(payload):
    payload["pairs"][0]["sv"][-1] = len(payload["sv_bool"])
    return payload


def _drop_pair_sv_index(payload):
    del payload["pairs"][0]["sv"][-1]
    return payload


def _first_bool_row(payload):
    return next(row for row in payload["sv_bool"] if row)


def _sv_bool_column_past_space(payload):
    _first_bool_row(payload)[-1] = len(payload["space"])
    return payload


def _sv_bool_duplicate_column(payload):
    row = _first_bool_row(payload)
    row.append(row[-1])
    return payload


def _tensor_json(arr):
    """The JSON object a model file stores ``arr`` as."""
    data = base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii")
    return {"data": data, "dtype": "<f8", "shape": list(arr.shape)}


def _sv_lemmas_row_of_two_lists(payload):
    payload["sv_lemmas"][0].pop()
    return payload


def _sv_lemma_number(payload):
    next(part for row in payload["sv_lemmas"] for part in row if part)[0] = 5
    return payload


def _drop_sv_lemmas_row(payload):
    payload["sv_lemmas"].pop()
    return payload


def _swap_space_entries(payload):
    space = payload["space"]
    space[0], space[1] = space[1], space[0]
    return payload


def _repeat_space_entry(payload):
    payload["space"].insert(1, payload["space"][0])
    return payload


def _unknown_space_namespace(payload):
    payload["space"][-1][0] = "zzz"
    return payload


def _add_hyper_key(payload):
    payload["hyper"]["momentum"] = 0.9
    return payload


def _conv_w_column_short(payload):
    params = payload["params"]
    params["conv_w"] = _tensor_json(decode_array(params["conv_w"], "conv_w")[:, :-1])
    return payload


def _set_hyper(key, value):
    def damage(payload):
        payload["hyper"][key] = value
        return payload
    return damage


def _rnn_units_as_float(payload):
    payload["hyper"]["rnn_units"] = float(payload["hyper"]["rnn_units"])
    return payload


def _set_param(name, value):
    def damage(payload):
        payload["params"][name] = value
        return payload
    return damage


def _drop(key):
    return lambda payload: {k: v for k, v in payload.items() if k != key}


def _set(key, value):
    return lambda payload: {**payload, key: value}


def _set_pair(key, value):
    def damage(payload):
        payload["pairs"][0][key] = value
        return payload
    return damage


def _repeat_pair(payload):
    payload["pairs"].append(payload["pairs"][0])
    return payload


def _pair_against_itself(payload):
    payload["pairs"][0]["second"] = payload["pairs"][0]["first"]
    return payload


def _set_vocabulary_lemma(value):
    def damage(payload):
        payload["vocabulary"][0] = value
        return payload
    return damage


def _set_levin_id(value):
    # the file's levin holds the verb lemmas of its vocabulary; the fixture
    # table's are not in the synthetic corpus, but "use" is
    def damage(payload):
        payload["levin"]["use"] = [105, value]
        return payload
    return damage


def _sv_bool_column_true(payload):
    _first_bool_row(payload)[0] = True
    return payload


def _insert_in_data(char, *keys):
    """Put ``char`` into the middle of the base64 data of the tensor at ``keys``."""
    def damage(payload):
        tensor = payload
        for key in keys:
            tensor = tensor[key]
        half = len(tensor["data"]) // 2
        tensor["data"] = tensor["data"][:half] + char + tensor["data"][half:]
        return payload
    return damage


def _set_embedding_name(value):
    def damage(payload):
        payload["embedding"]["name"] = value
        return payload
    return damage


@pytest.mark.parametrize("kind, damage", [
    ("svm", _drop_pair_coef),
    ("svm", _drop("space")),
    ("svm", lambda payload: [payload]),
    ("svm", _pair_sv_past_block),
    ("svm", _drop_pair_sv_index),
    ("svm", lambda payload: {**payload, "version": 1}),
    ("svm", _sv_bool_column_past_space),
    ("svm", _sv_bool_duplicate_column),
    ("svm", _drop_sv_lemmas_row),
    ("clstm", _add_hyper_key),
    ("clstm", _drop("vocabulary")),
    ("clstm", _conv_w_column_short),
    ("clstm", _set_hyper("rnn_units", 5)),
    ("svm", _set("sv_lemmas", {})),
    ("clstm", _set_param("conv_b", None)),
    ("clstm", _rnn_units_as_float),
    ("clstm", _set_hyper("batch_size", True)),
    ("svm", _swap_space_entries),
    ("svm", _repeat_space_entry),
    ("svm", _unknown_space_namespace),
    # settings the file carries, edited to values its trainer would refuse
    ("svm", _set("C", 0)),
    ("svm", _set("gamma", "x")),
    ("svm", _set("gamma", -1)),
    ("svm", _set("gamma", True)),
    ("svm", _set_pair("b", "x")),
    ("svm", _set_pair("A", "x")),
    ("svm", _set_pair("B", math.inf)),
    ("svm", _repeat_pair),
    ("svm", _pair_against_itself),
    # a vocabulary that is not an array of nonempty strings
    ("clstm", _set("vocabulary", "be")),
    ("svm", _set_vocabulary_lemma(5)),
    ("svm", _set_vocabulary_lemma("")),
    # fields of the wrong kind or beyond int64
    ("svm", _set("levin", "x")),
    ("svm", _set_levin_id(True)),
    ("svm", _set_levin_id(22.7)),
    ("svm", _set("pairs", {})),
    ("svm", _set("pairs", [])),
    ("svm", _sv_bool_column_true),
    ("svm", _set_embedding_name(5)),
    ("clstm", _set_hyper("stride", 10**30)),
    # a learning rate its trainer would refuse
    ("clstm", _set_hyper("learning_rate", 0)),
    ("clstm", _set_hyper("learning_rate", -5)),
    # tensor data with a character outside the base64 alphabet
    ("clstm", _insert_in_data(" ", "params", "conv_b")),
    ("clstm", _insert_in_data("!", "params", "conv_b")),
    ("svm", _sv_lemma_number),
    # a row of the SV block that is not three lemma lists, or whose rebuilt
    # dense part is not the trained one
    ("svm", _sv_lemmas_row_of_two_lists),
    ("svm", _set("sv_digest", "0" * 64)),
], ids=["svm-missing-coef", "svm-missing-space", "svm-not-an-object",
        "svm-sv-index-out-of-range", "svm-sv-coef-length-mismatch", "svm-version-1",
        "svm-sv-bool-column-out-of-range", "svm-sv-bool-duplicate-column",
        "svm-sv-lemmas-row-count",
        "clstm-unknown-hyper-key", "clstm-missing-vocabulary", "clstm-conv-w-width",
        "clstm-rnn-units-mismatch", "svm-sv-lemmas-not-array", "clstm-param-null",
        "clstm-rnn-units-float",
        "clstm-batch-size-bool", "svm-space-unsorted", "svm-space-duplicate",
        "svm-space-unknown-namespace",
        "svm-C-zero", "svm-gamma-string", "svm-gamma-negative", "svm-gamma-bool",
        "svm-pair-b-string", "svm-pair-A-string", "svm-pair-B-inf", "svm-pair-repeated",
        "svm-pair-against-itself", "clstm-vocabulary-not-an-array", "svm-vocabulary-number",
        "svm-vocabulary-empty-string",
        "svm-levin-string", "svm-levin-id-bool", "svm-levin-id-float", "svm-pairs-object",
        "svm-pairs-empty", "svm-sv-bool-column-bool", "svm-embedding-name-number",
        "clstm-stride-huge", "clstm-learning-rate-zero", "clstm-learning-rate-negative",
        "clstm-conv-b-data-space",
        "clstm-conv-b-data-bang", "svm-sv-lemmas-lemma-number",
        "svm-sv-lemmas-row-two-lists", "svm-sv-digest-wrong"])
def test_predict_rejects_malformed_model_file(workdir, clstm_model_file, tmp_path, capsys,
                                              kind, damage):
    source = workdir / "svm-model.json" if kind == "svm" else clstm_model_file
    bad = tmp_path / "bad-model.json"
    bad.write_text(json.dumps(damage(json.loads(source.read_text(encoding="utf-8")))),
                   encoding="utf-8")
    rc = main([
        "predict", "--model-file", str(bad), "--corpus", str(workdir / "train.jsonl"),
        "--embeddings", str(workdir / "emb.txt"), "--out", str(tmp_path / "pred.jsonl"),
    ])
    assert rc == 2
    assert str(bad) in capsys.readouterr().err
    assert not (tmp_path / "pred.jsonl").exists()


@pytest.mark.parametrize("damage, field", [
    (_set_hyper("learning_rate", -5), "learning_rate must be a finite number > 0"),
    (_insert_in_data("!", "params", "conv_b"), "conv_b data: "),
    (_set_vocabulary_lemma(""), "vocabulary lemma must be a nonempty string"),
], ids=["learning-rate", "conv-b-data", "vocabulary-lemma"])
def test_predict_names_the_field_of_a_bad_model_file(clstm_model_file, workdir, tmp_path,
                                                     capsys, damage, field):
    bad = tmp_path / "bad-model.json"
    bad.write_text(json.dumps(damage(json.loads(clstm_model_file.read_text(encoding="utf-8")))),
                   encoding="utf-8")
    rc = main(["predict", "--model-file", str(bad), "--corpus", str(workdir / "train.jsonl"),
               "--embeddings", str(workdir / "emb.txt"), "--out", str(tmp_path / "pred.jsonl")])
    assert rc == 2
    assert f"{bad}: {field}" in capsys.readouterr().err


def _predict(model_file, workdir, out, table=None):
    return main(["predict", "--model-file", str(model_file),
                 "--corpus", str(workdir / "train.jsonl"),
                 "--embeddings", str(table or workdir / "emb.txt"), "--out", str(out)])


def test_predict_rejects_a_table_that_changes_a_support_vector(workdir, tmp_path, capsys):
    model = workdir / "svm-model.json"
    payload = json.loads(model.read_text(encoding="utf-8"))
    # the start entity of the first SV row is one lemma, so its vector is
    # that row's start-entity block; move one of its components to the
    # middle of the column's training range, where clipping cannot hide it
    (lemma,) = payload["sv_lemmas"][0][1]
    table = load_table(workdir / "emb.txt")
    tokens = table.tokens()
    rows = np.array([table.lookup(token) for token in tokens])
    component = len(LABELS)  # an entity's vector is nonzero from here on
    column = table.dim + component
    lo, hi = (decode_array(payload["scaler"][end], end)[column] for end in ("min", "max"))
    row = tokens.index(lemma)
    middle = (lo + hi) / 2
    assert lo < middle < hi and middle != rows[row, component]
    rows[row, component] = middle
    changed = tmp_path / "changed-table.txt"
    save_table(EmbeddingTable(tokens, rows), changed)
    capsys.readouterr()
    assert _predict(model, workdir, tmp_path / "pred.jsonl", changed) == 2
    err = capsys.readouterr().err
    assert f"{model}: sv_digest: " in err and "embedding table 'changed-table'" in err, err
    assert not (tmp_path / "pred.jsonl").exists()


def test_predict_rejects_a_model_file_of_unknown_format(workdir, tmp_path, capsys):
    model, out = tmp_path / "model.json", tmp_path / "pred.jsonl"
    model.write_text(json.dumps({"format": "relclass-forest", "version": 1}), encoding="utf-8")
    rc = main(["predict", "--model-file", str(model), "--corpus", str(workdir / "train.jsonl"),
               "--embeddings", str(workdir / "emb.txt"), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {model}: unknown model format 'relclass-forest'\n"
    assert not out.exists()


@pytest.mark.parametrize("kind", ["svm", "clstm"])
def test_version_2_files_are_rejected(workdir, clstm_model_file, tmp_path, capsys, kind):
    # SVM files are at version 4, whose header holds the context vocabulary,
    # conv-LSTM files at version 5, which holds no padded width (l_max);
    # older versions have no reader
    source = workdir / "svm-model.json" if kind == "svm" else clstm_model_file
    payload = json.loads(source.read_text(encoding="utf-8"))
    assert payload["version"] == {"svm": 4, "clstm": 5}[kind]
    assert "l_max" not in payload
    assert _predict(source, workdir, tmp_path / "pred.jsonl") == 0
    for version in range(2, payload["version"]):
        old = tmp_path / f"{kind}-v{version}.json"
        old.write_text(json.dumps({**payload, "version": version}), encoding="utf-8")
        capsys.readouterr()
        assert _predict(old, workdir, tmp_path / "old-pred.jsonl") == 2
        assert (f"{old}: unsupported version {version} of relclass-{kind}"
                in capsys.readouterr().err)
        assert not (tmp_path / "old-pred.jsonl").exists()


@pytest.mark.parametrize("command", ["train", "predict"])
def test_a_sequence_over_the_limit_exits_2(workdir, clstm_model_file, tmp_path, capsys,
                                           command):
    # one instance of 1025 columns: its class keyword 1023 times between the
    # two entities; a batch may hold 1024 (clstm.L_MAX_LIMIT)
    keyword = "alpha"
    long = make_instance([tok("parser"), *[tok(keyword)] * 1023, tok("corpus")],
                         e1=(0, 0), e2=(1024, 1024), id="too-long")
    instances = make_corpus(n_per_class=12)
    vocabulary = corpus.context_vocabulary(instances, 1)
    assert keyword in vocabulary and len(clstm.build_sequence(long, vocabulary)) == 1025
    path = tmp_path / "long.jsonl"
    write_corpus([*instances, long], path)
    out = tmp_path / "out.json"
    if command == "train":
        args = ["train", "--model", "clstm", "--train", str(path), *CLSTM_SMOKE]
    else:
        args = ["predict", "--model-file", str(clstm_model_file), "--corpus", str(path)]
    capsys.readouterr()
    assert main([*args, "--embeddings", str(workdir / "emb.txt"), "--out", str(out)]) == 2
    assert ("instance too-long: its sequence has 1025 columns, more than a batch may hold "
            "(1024)") in capsys.readouterr().err
    assert not out.exists()


def test_cli_import_loads_no_scipy():
    code = "import sys, relclass.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def _modules_loaded(argv):
    """Exit code of ``cli.main(argv)`` run in a new process, and the relclass
    modules it loaded."""
    code = ("import json, sys; from relclass.cli import main; rc = main(sys.argv[1:]); "
            "print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith('relclass.'))]))")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    rc, modules = json.loads(done.stdout.splitlines()[-1])
    return rc, {m.removeprefix("relclass.") for m in modules}


# command -> modules it must not load
COMMAND_IMPORTS = {
    "predict-clstm": {"svm", "features", "evaluation", "search"},
    "predict-svm": {"clstm", "search"},
    "train-svm": {"clstm", "search"},
    "evaluate": {"svm", "clstm"},
}


@pytest.mark.parametrize("case", sorted(COMMAND_IMPORTS))
def test_each_command_imports_only_the_modules_it_runs(workdir, clstm_model_file, tmp_path, case):
    inputs = ["--embeddings", workdir / "emb.txt", "--levin", fixture_path("levin_small.tsv")]
    svm_predict = ["predict", "--model-file", workdir / "svm-model.json",
                   "--corpus", workdir / "train.jsonl", "--out", tmp_path / "pred.jsonl", *inputs]
    argv = {
        "predict-clstm": ["predict", "--model-file", clstm_model_file,
                          "--corpus", workdir / "train.jsonl", "--out", tmp_path / "c.jsonl",
                          *inputs],
        "predict-svm": svm_predict,
        "train-svm": ["train", "--model", "svm", "--train", workdir / "train.jsonl",
                      "--out", tmp_path / "svm.json", "--report", tmp_path / "r.json", *inputs],
        "evaluate": ["evaluate", "--gold", workdir / "train.jsonl",
                     "--predictions", tmp_path / "pred.jsonl"],
    }[case]
    if case == "evaluate":
        assert main([str(arg) for arg in svm_predict]) == 0
    rc, loaded = _modules_loaded(argv)
    assert rc == 0
    assert "corpus" in loaded
    assert not loaded & COMMAND_IMPORTS[case]


def test_evaluate_perfect_predictions(workdir, tmp_path, capsys):
    pred = tmp_path / "pred.jsonl"
    main([
        "predict", "--model-file", str(workdir / "svm-model.json"),
        "--corpus", str(workdir / "train.jsonl"),
        "--embeddings", str(workdir / "emb.txt"), "--out", str(pred),
    ])
    report_path = tmp_path / "scores.json"
    rc = main([
        "evaluate", "--gold", str(workdir / "train.jsonl"),
        "--predictions", str(pred), "--out", str(report_path),
    ])
    assert rc == 0
    scores = json.loads(report_path.read_text())
    assert scores["macro_f1"] == 1.0
    assert scores["micro_f1"] == 1.0
    assert "macro" in capsys.readouterr().out


def test_evaluate_rejects_a_gold_corpus_with_an_unlabeled_instance(workdir, tmp_path, capsys):
    instances = corpus.parse_corpus(workdir / "train.jsonl")
    gold = tmp_path / "gold.jsonl"
    write_corpus([replace(instances[0], label=None), *instances[1:]], gold)
    pred = tmp_path / "pred.jsonl"
    pred.write_text("".join(json.dumps({"id": inst.id, "label": "USAGE"}) + "\n"
                            for inst in instances), encoding="utf-8")
    assert main(["evaluate", "--gold", str(gold), "--predictions", str(pred)]) == 2
    assert capsys.readouterr().err == "error: gold corpus contains unlabeled instances\n"


def test_evaluate_order_independent(workdir, tmp_path):
    pred = tmp_path / "pred.jsonl"
    main([
        "predict", "--model-file", str(workdir / "svm-model.json"),
        "--corpus", str(workdir / "train.jsonl"),
        "--embeddings", str(workdir / "emb.txt"), "--out", str(pred),
    ])
    shuffled = tmp_path / "shuffled.jsonl"
    lines = pred.read_text().splitlines()
    shuffled.write_text("\n".join(reversed(lines)) + "\n", encoding="utf-8")
    for path in (pred, shuffled):
        out = tmp_path / f"{path.stem}-scores.json"
        assert main(["evaluate", "--gold", str(workdir / "train.jsonl"),
                     "--predictions", str(path), "--out", str(out)]) == 0
    a = json.loads((tmp_path / "pred-scores.json").read_text())
    b = json.loads((tmp_path / "shuffled-scores.json").read_text())
    assert a == b


def test_evaluate_missing_id_errors(workdir, tmp_path, capsys):
    pred = tmp_path / "pred.jsonl"
    main([
        "predict", "--model-file", str(workdir / "svm-model.json"),
        "--corpus", str(workdir / "train.jsonl"),
        "--embeddings", str(workdir / "emb.txt"), "--out", str(pred),
    ])
    lines = pred.read_text().splitlines()
    truncated = tmp_path / "short.jsonl"
    truncated.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    rc = main(["evaluate", "--gold", str(workdir / "train.jsonl"),
               "--predictions", str(truncated)])
    assert rc == 2
    assert "missing" in capsys.readouterr().err


def test_evaluate_rejects_unknown_label(workdir, tmp_path, capsys):
    pred = tmp_path / "pred.jsonl"
    main([
        "predict", "--model-file", str(workdir / "svm-model.json"),
        "--corpus", str(workdir / "train.jsonl"),
        "--embeddings", str(workdir / "emb.txt"), "--out", str(pred),
    ])
    lines = pred.read_text().splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), "label": "USEAGE"})
    typo = tmp_path / "typo.jsonl"
    typo.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["evaluate", "--gold", str(workdir / "train.jsonl"), "--predictions", str(typo)])
    assert rc == 2
    assert f"{typo}: line 2: bad prediction" in capsys.readouterr().err


@pytest.mark.parametrize("extra, problem", [
    ({"label": "COMPARE"}, "is also on line 1"),
    ({"id": "not-in-gold"}, "'not-in-gold' is not in the gold corpus"),
], ids=["repeated-id", "unknown-id"])
def test_evaluate_rejects_a_line_that_is_not_one_gold_prediction(workdir, tmp_path, capsys,
                                                                   extra, problem):
    # a perfect predictions file plus one more line, for an id it already
    # holds or for one outside the gold corpus
    pred = tmp_path / "pred.jsonl"
    main([
        "predict", "--model-file", str(workdir / "svm-model.json"),
        "--corpus", str(workdir / "train.jsonl"),
        "--embeddings", str(workdir / "emb.txt"), "--out", str(pred),
    ])
    lines = pred.read_text().splitlines()
    lines.append(json.dumps({**json.loads(lines[0]), **extra}))
    pred.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["evaluate", "--gold", str(workdir / "train.jsonl"), "--predictions", str(pred)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{pred}: line {len(lines)}: bad prediction: id " in err and problem in err


def _span_overlap(record):
    record["e2"] = record["e1"]


def _lowercase_label(record):
    record["label"] = record["label"].lower()


def _subtask_2_1(record):
    record["subtask"] = "2.1"


def _uppercase_lemma(record):
    record["tokens"][0]["lemma"] = "Y"


def _set_token(key, value):
    return lambda record: record["tokens"][0].update({key: value})


def _set_field(key, value):
    return lambda record: record.update({key: value})


@pytest.mark.parametrize(
    "damage", [_span_overlap, _lowercase_label, _subtask_2_1, _uppercase_lemma,
               # fields of the wrong kind
               _set_token("text", 5), _set_token("lemma", True), _set_field("e1", [0.5, 0]),
               _set_field("reverse", "x"), _set_field("reverse", None), _set_field("id", 5)],
    ids=["bad-span", "unknown-label", "unknown-subtask", "uppercase-lemma", "text-number",
         "lemma-bool", "span-float", "reverse-string", "reverse-null", "id-number"],
)
def test_invalid_corpus_record_names_file_and_line(tmp_path, capsys, damage):
    good = fixture_path("example_corpus.jsonl").read_text(encoding="utf-8").splitlines()[0]
    record = {**json.loads(good), "id": "damaged"}
    damage(record)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(good + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    rc = main(["features", "--corpus", str(corpus),
               "--embeddings", str(fixture_path("toy_embeddings.txt"))])
    assert rc == 2
    assert f"error: {corpus}: line 2: " in capsys.readouterr().err


def test_search_writes_log_and_best(workdir, tmp_path):
    log_path = tmp_path / "trials.jsonl"
    best_path = tmp_path / "best.json"
    rc = main([
        "search", "--train", str(workdir / "train.jsonl"),
        "--embeddings", str(workdir / "emb.txt"),
        "--n-trials", "2", "--fraction", "0.2", "--epochs", "2",
        "--freq-threshold", "1", "--seed", "1",
        "--trial-log", str(log_path), "--out", str(best_path),
    ])
    assert rc == 0
    lines = log_path.read_text().splitlines()
    assert len(lines) == 2
    best = json.loads(best_path.read_text())
    assert best["n_trials"] == 2
    records = [json.loads(l) for l in lines]
    winner = max(records, key=lambda r: r["macro_f1"])
    assert best["best"] == winner["hyper"]


def test_search_seed_reproducible(workdir, tmp_path):
    outs = []
    for name in ("s1", "s2"):
        log_path = tmp_path / f"{name}.jsonl"
        rc = main([
            "search", "--train", str(workdir / "train.jsonl"),
            "--embeddings", str(workdir / "emb.txt"),
            "--n-trials", "2", "--fraction", "0.2", "--epochs", "2",
            "--freq-threshold", "1", "--seed", "9",
            "--trial-log", str(log_path), "--out", str(tmp_path / f"{name}.json"),
        ])
        assert rc == 0
        records = [json.loads(l) for l in log_path.read_text().splitlines()]
        for r in records:
            r.pop("wall_time")
        outs.append(records)
    assert outs[0] == outs[1]


def test_features_example_sentence_fixture(capsys):
    rc = main([
        "features", "--corpus", str(fixture_path("example_corpus.jsonl")),
        "--embeddings", str(fixture_path("toy_embeddings.txt")),
        "--levin", str(fixture_path("levin_small.tsv")),
        "--freq-threshold", "1",
    ])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert record["id"] == "fixture-1"
    assert record["features"] == {
        "bow": ["an", "be", "effective", "improve", "of", "way"],
        "pos": ["ADJ", "ADP", "DET", "NOUN", "VERB"],
        "pospath": ["VDANAV"],
        "dist": ["6"],
        "lc": ["45"],
        "ents": ["combination methods", "methods", "performance", "system performance"],
        "startEnt": ["combination methods", "methods"],
        "endEnt": ["performance", "system performance"],
        "sim100": ["0.43"],
        "simb": ["q50"],
    }


def test_features_deterministic_and_empty_context(workdir, tmp_path, capsys):
    from conftest import make_instance, tok
    inst = make_instance([tok("parser", pos="NOUN"), tok("corpus", pos="NOUN")],
                         e1=(0, 0), e2=(1, 1), id="adj")
    path = tmp_path / "two.jsonl"
    write_corpus([inst], path)
    outputs = []
    for _ in range(2):
        rc = main([
            "features", "--corpus", str(path),
            "--embeddings", str(workdir / "emb.txt"), "--freq-threshold", "1",
        ])
        assert rc == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    record = json.loads(outputs[0])
    assert record["features"]["pospath"] == [""]
    assert record["features"]["dist"] == ["0"]
    assert record["features"]["bow"] == []


def test_crossval_svm_smoke(workdir, tmp_path, capsys):
    out = tmp_path / "cv.json"
    rc = main([
        "crossval", "--model", "svm", "--corpus", str(workdir / "train.jsonl"),
        "--embeddings", str(workdir / "emb.txt"),
        "--levin", str(fixture_path("levin_small.tsv")),
        "-k", "2", "--out", str(out),
    ])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "fold  1" in printed and "fold  2" in printed and "mean" in printed
    payload = json.loads(out.read_text())
    assert len(payload["folds"]) == 2
    assert 0.0 <= payload["macro_f1_mean"] <= 1.0
    folds = [f["macro_f1"] for f in payload["folds"]]
    assert payload["macro_f1_mean"] == pytest.approx(sum(folds) / 2)


def test_crossval_seed_reproducible(workdir, tmp_path):
    payloads = []
    for name in ("c1.json", "c2.json"):
        out = tmp_path / name
        rc = main([
            "crossval", "--model", "clstm", "--corpus", str(workdir / "train.jsonl"),
            "--embeddings", str(workdir / "emb.txt"),
            "-k", "2", "--seed", "3", "--out", str(out), *CLSTM_SMOKE,
        ])
        assert rc == 0
        payloads.append(json.loads(out.read_text()))
    assert payloads[0] == payloads[1]


def test_trainers_default_to_the_one_freq_threshold():
    for trainer in (svm.train_multiclass, clstm.train, search.random_search):
        assert declared_default(trainer, "freq_threshold") == corpus.FREQ_THRESHOLD


# the outer function that calls each of these holds the setting's one default
@pytest.mark.parametrize("fn, name", [
    (evaluation.stratified_split, "fraction"),
    (evaluation.stratified_kfold, "k"),
    (clstm.adam_step, "lr"),
])
def test_inner_function_declares_no_default(fn, name):
    assert declared_default(fn, name) is inspect.Parameter.empty


class _Stop(Exception):
    """Raised by a recorded library function once it has kept its arguments."""


def _library_arguments(argv):
    """The arguments, declared defaults applied, with which the command line
    ``argv`` calls each library function that trains or searches: each is
    replaced by one that keeps them and stops the command (crossval after
    its first fold's trainer)."""
    passed = {}

    def record(mp, module, name):
        signature = inspect.signature(getattr(module, name))

        def recorder(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            passed[name] = bound.arguments
            if name == "cross_validate":
                bound.arguments["train_fn"](bound.arguments["instances"])
            raise _Stop

        mp.setattr(module, name, recorder)

    args = build_parser().parse_args(argv)
    with pytest.MonkeyPatch.context() as mp, pytest.raises(_Stop):
        for module, name in [(svm, "train_multiclass"), (clstm, "train"),
                             (evaluation, "cross_validate"), (search, "random_search")]:
            record(mp, module, name)
        args.func(cli.resolve_config(args))
    return passed


def _hyper(defaults):
    """The clstm.Hyperparams of the conv-LSTM settings in ``defaults``."""
    fields = {"dropout": "dropout_rate", "l2": "l2_scale"}
    return clstm.Hyperparams(**{fields.get(key, key): defaults[key] for key in (
        "num_filters", "filter_width", "rnn_units", "dropout", "l2", "batch_size", "epochs",
        "learning_rate", "stride", "seed")})


@pytest.mark.parametrize("command", ["train", "crossval", "search"])
def test_unset_settings_take_the_library_defaults(workdir, command):
    defaults = {key: default for key, _, default in SETTING_DEFAULTS}

    def assert_defaults(passed, *keys):
        assert {key: passed[key] for key in keys} == {key: defaults[key] for key in keys}

    argv = [command, "--corpus" if command == "crossval" else "--train",
            str(workdir / "train.jsonl"), "--embeddings", str(workdir / "emb.txt")]
    if command == "search":
        assert_defaults(_library_arguments(argv)["random_search"],
                        "n_trials", "seed", "fraction", "freq_threshold", "epochs")
        return
    for model in ("svm", "clstm"):
        passed = _library_arguments([*argv, "--model", model])
        if model == "svm":
            assert_defaults(passed["train_multiclass"], "C", "gamma", "freq_threshold", "seed")
        else:
            assert passed["train"]["hyper"] == _hyper(defaults)
            assert_defaults(passed["train"], "freq_threshold")
        if command == "crossval":
            assert_defaults(passed["cross_validate"], "k", "seed")


def test_config_settings_keep_their_keys_kinds_and_defaults(workdir, tmp_path):
    # in order: tests/test_malformed_inputs.py samples config keys by seeded position
    resolved = vars(cli.resolve_config(argparse.Namespace()))
    kinds = [kind for kind, _, _ in cli.SETTINGS.values()]
    settings = [(key, kind, default) for (key, default), kind in zip(resolved.items(), kinds)]
    # a setting the library defaults is None here, and so left to the library
    assert settings == [(key, kind, None if key in LIBRARY_HELD else default)
                        for key, kind, default in SETTING_DEFAULTS]
    assert len(settings) == 27
    # a setting of the config file is passed on; the rest take the library's default
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"C": 10.0, "epochs": 1, "train": str(workdir / "train.jsonl"),
                                  "embeddings": str(workdir / "emb.txt")}), encoding="utf-8")
    defaults = {key: default for key, _, default in SETTING_DEFAULTS}
    argv = ["train", "--config", str(config), "--model"]
    trained = _library_arguments([*argv, "svm"])["train_multiclass"]
    assert (trained["C"], trained["gamma"]) == (10.0, defaults["gamma"])
    hyper = _library_arguments([*argv, "clstm"])["train"]["hyper"]
    assert hyper == _hyper({**defaults, "epochs": 1})


def test_config_file_merging(workdir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "embeddings": str(workdir / "emb.txt"),
        "freq_threshold": 1,
        "epochs": 2,
        "num_filters": 8, "filter_width": 2, "rnn_units": 8,
        "dropout": 0.0, "l2": 0.0, "batch_size": 16,
    }), encoding="utf-8")
    out = tmp_path / "m.json"
    report = tmp_path / "r.json"
    rc = main([
        "train", "--model", "clstm", "--train", str(workdir / "train.jsonl"),
        "--config", str(config), "--epochs", "1",
        "--out", str(out), "--report", str(report),
    ])
    assert rc == 0
    payload = json.loads(report.read_text())
    # flag beats config file, config file beats default
    assert payload["hyper"]["epochs"] == 1
    assert payload["hyper"]["num_filters"] == 8


def test_config_unknown_key_rejected(workdir, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"embedings": "x"}), encoding="utf-8")
    rc = main([
        "features", "--corpus", str(workdir / "train.jsonl"), "--config", str(config),
    ])
    assert rc == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("epochs", "3"), ("epochs", 2.5), ("seed", True), ("l2", "0.1"), ("embeddings", 7),
])
def test_config_value_of_wrong_type_rejected(workdir, tmp_path, capsys, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}), encoding="utf-8")
    rc = main([
        "features", "--corpus", str(workdir / "train.jsonl"), "--config", str(config),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"key {key!r} must be" in err and str(config) in err


@pytest.mark.parametrize("command", ["train", "crossval"])
def test_config_model_of_no_kind_exits_2_naming_the_file_and_key(workdir, tmp_path, capsys,
                                                                 command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": "SVM"}), encoding="utf-8")
    rc = main([command, "--train" if command == "train" else "--corpus",
               str(workdir / "train.jsonl"), "--embeddings", str(workdir / "emb.txt"),
               "--config", str(config)])
    assert rc == 2
    assert (f"config file {config}: key 'model' must be svm or clstm, got 'SVM'"
            in capsys.readouterr().err)


# the model flags that neither search nor features reads
MODEL_ONLY = ("--C", "--gamma", "--num-filters", "--filter-width", "--rnn-units", "--dropout",
              "--l2", "--batch-size", "--learning-rate", "--stride")
UNREAD_FLAGS = (
    [("predict", "--seed")]
    + [("evaluate", flag) for flag in ("--seed", "--embeddings", "--levin")]
    + [("search", flag) for flag in ("--levin", *MODEL_ONLY)]
    + [("features", flag) for flag in ("--seed", "--epochs", *MODEL_ONLY)]
)


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS,
                         ids=[f"{command}{flag}" for command, flag in UNREAD_FLAGS])
def test_command_rejects_a_flag_it_does_not_read(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, "8"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 8" in capsys.readouterr().err


def test_each_command_accepts_exactly_its_flags():
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    accepted = {
        name: {option for action in parser._actions for option in action.option_strings}
        - {"-h", "--help"}
        for name, parser in commands.items()
    }
    model_flags = {"--freq-threshold", "--epochs", *MODEL_ONLY}
    assert accepted == {
        "train": {"--config", "--out", "--seed", "--embeddings", "--levin", "--model",
                  "--train", "--report", *model_flags},
        "predict": {"--config", "--out", "--embeddings", "--levin", "--model-file", "--corpus"},
        "evaluate": {"--config", "--out", "--gold", "--predictions"},
        "search": {"--config", "--out", "--seed", "--embeddings", "--freq-threshold",
                   "--epochs", "--train", "--n-trials", "--fraction", "--trial-log"},
        "features": {"--config", "--out", "--embeddings", "--levin", "--freq-threshold",
                     "--corpus"},
        "crossval": {"--config", "--out", "--seed", "--embeddings", "--levin", "--model",
                     "--corpus", "-k", *model_flags},
    }
    assert sum(map(len, accepted.values())) == 66
    assert len(UNREAD_FLAGS) == 27


SMOKE = " ".join(CLSTM_SMOKE)
# command lines, one format template per argument; --embeddings is appended
NO_VERB_TABLE = {
    "predict-svm": "predict --model-file {svm} --corpus {corpus} --levin {levin} "
                   "--out {tmp}/pred.jsonl",
    "predict-clstm": "predict --model-file {clstm} --corpus {corpus} --levin {levin} "
                     "--out {tmp}/pred.jsonl",
    "train-clstm": "train --model clstm --train {corpus} --levin {levin} --out {tmp}/m.json "
                   "--report {tmp}/r.json " + SMOKE,
    "crossval-clstm": "crossval --model clstm --corpus {corpus} --levin {levin} -k 2 " + SMOKE,
    # search takes no --levin flag, but a config file shared with other commands may name one
    "search": "search --train {corpus} --config {levin_config} --n-trials 1 --fraction 0.2 "
              "--epochs 1 --freq-threshold 1 --out {tmp}/best.json",
}
VERB_TABLE = {
    "train-svm": "train --model svm --train {corpus} --levin {levin} --out {tmp}/m.json",
    "crossval-svm": "crossval --model svm --corpus {corpus} --levin {levin} -k 2",
    "features": "features --corpus {corpus} --levin {levin}",
}


def _run_refusing_verb_table(workdir, clstm_model_file, tmp_path, monkeypatch, template):
    """Exit code of ``template`` with a load_levin_table that raises."""
    def refuse(path):
        raise ValueError(f"verb table {path} opened")

    monkeypatch.setattr(features, "load_levin_table", refuse)
    levin_config = tmp_path / "config.json"
    levin_config.write_text(json.dumps({"levin": str(fixture_path("levin_small.tsv"))}),
                            encoding="utf-8")
    paths = {"corpus": workdir / "train.jsonl", "levin": fixture_path("levin_small.tsv"),
             "svm": workdir / "svm-model.json", "clstm": clstm_model_file, "tmp": tmp_path,
             "levin_config": levin_config}
    return main([arg.format(**paths) for arg in template.split()]
                + ["--embeddings", str(workdir / "emb.txt")])


@pytest.mark.parametrize("case", sorted(NO_VERB_TABLE))
def test_commands_that_need_no_verb_table_never_open_it(workdir, clstm_model_file, tmp_path,
                                                        monkeypatch, case):
    rc = _run_refusing_verb_table(workdir, clstm_model_file, tmp_path, monkeypatch,
                                  NO_VERB_TABLE[case])
    assert rc == 0


@pytest.mark.parametrize("case", sorted(VERB_TABLE))
def test_svm_training_and_features_read_the_verb_table(workdir, clstm_model_file, tmp_path,
                                                       monkeypatch, capsys, case):
    rc = _run_refusing_verb_table(workdir, clstm_model_file, tmp_path, monkeypatch,
                                  VERB_TABLE[case])
    assert rc == 2
    assert f"error: verb table {fixture_path('levin_small.tsv')} opened" in capsys.readouterr().err


def test_config_key_of_another_command_is_accepted(workdir, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"C": 10, "n_trials": 3, "model_file": "unused.json",
                                  "model": "SVM"}), encoding="utf-8")
    rc = main(["features", "--corpus", str(fixture_path("example_corpus.jsonl")),
               "--embeddings", str(fixture_path("toy_embeddings.txt")), "--config", str(config)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["id"] == "fixture-1"
