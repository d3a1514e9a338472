import hashlib
import json
import math

import pytest

from relclass.cli import fixture_path, main
from relclass.corpus import write_corpus
from relclass.embeddings import save_table
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
    assert report["timing"]["train_seconds"] > 0


def test_train_clstm_seed_reproducible(workdir, tmp_path):
    digests, histories = [], []
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


def test_train_rejects_bad_model_name(workdir, tmp_path):
    rc = main([
        "train", "--model", "svm", "--train", str(workdir / "missing.jsonl"),
        "--embeddings", str(workdir / "emb.txt"), "--out", str(tmp_path / "m.json"),
    ])
    assert rc == 2


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
