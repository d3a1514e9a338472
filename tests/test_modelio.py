import base64
import errno
import json
import os
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import make_instance, tok
from relclass import clstm, svm
from relclass.corpus import LABELS, extract_context
from relclass.modelio import decode_array, save_json, write_atomic
from relclass.synthetic import make_corpus

CORPUS = make_corpus(n_per_class=5, seed=4)


@pytest.fixture(scope="module", params=["svm", "clstm"])
def model(request, syn_table, levin):
    if request.param == "svm":
        return svm.train_multiclass(CORPUS, syn_table, levin, freq_threshold=1)
    hyper = clstm.Hyperparams(num_filters=6, filter_width=2, rnn_units=5, epochs=2,
                              batch_size=8, seed=1)
    return clstm.train(CORPUS, syn_table, hyper, freq_threshold=1)


def test_shared_predict_methods_agree_with_predict_proba_many(model):
    instances = CORPUS[::3]
    probs = model.predict_proba_many(instances)
    assert probs.shape == (len(instances), len(LABELS))
    labels = [LABELS[int(np.argmax(row))] for row in probs]
    assert model.predict_many(instances) == labels
    # an instance predicted alone gets its row of the batch
    for inst, row, label in zip(instances, probs, labels):
        assert model.predict_many([inst]) == [label]
        assert np.abs(model.predict_proba_many([inst])[0] - row).max() <= 1e-12


def test_shared_predict_methods_on_empty_input(model):
    assert model.predict_many([]) == []
    assert model.predict_proba_many([]).shape == (0, len(LABELS))


@pytest.mark.parametrize("threshold", [1, 5])
@pytest.mark.parametrize("kind", ["svm", "clstm"])
def test_model_file_holds_the_training_context_vocabulary(tmp_path, syn_table, levin, kind,
                                                           threshold):
    # one instance adds a context lemma and a verb lemma that occur once
    rare = make_instance([tok("x"), tok("improved", "improve", "VERB"), tok("rare"), tok("y")],
                         e1=(0, 0), e2=(3, 3), id="rare")
    corpus = CORPUS + [rare]
    counts = Counter(t.lemma for inst in corpus for t in extract_context(inst))
    expected = sorted(lemma for lemma, n in counts.items() if n >= threshold)
    assert ("rare" in expected) == (threshold == 1)
    path = tmp_path / "model.json"
    if kind == "svm":
        verbs = {**levin, "use": frozenset({105})}  # "use" is a frequent context verb
        svm.save_svm_model(svm.train_multiclass(corpus, syn_table, verbs,
                                                freq_threshold=threshold), path)
    else:
        hyper = clstm.Hyperparams(num_filters=4, filter_width=2, rnn_units=3, epochs=1, seed=1)
        clstm.save_clstm_model(clstm.train(corpus, syn_table, hyper, freq_threshold=threshold),
                               path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["vocabulary"] == expected
    if kind == "svm":
        # the verb classes of the vocabulary's lemmas only: featurize looks up no other
        assert sorted(payload["levin"]) == sorted(set(verbs) & set(expected))
        assert "use" in payload["levin"]


def test_write_atomic_replaces_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n", encoding="utf-8")
    write_atomic(path, ["new ", "text\n"])
    assert path.read_text(encoding="utf-8") == "new text\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


@pytest.mark.parametrize("payload", [
    {},
    {"z": [1, 2.5, -0.0, 1e300], "a": {"y": None, "b": True}, "é": "ünïcode\n\"q\""},
    {"only": {"shape": [2], "dtype": "<f8", "data": "AAAA"}},
], ids=["empty", "mixed", "one-field"])
def test_save_json_writes_the_canonical_document(tmp_path, payload):
    # written one top-level field at a time, the bytes are those of one
    # canonical dump of the whole document
    path = tmp_path / "doc.json"
    save_json(payload, path)
    expected = json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    assert path.read_bytes() == (expected + "\n").encode("utf-8")


def test_save_json_streams_an_array_in_slices(tmp_path):
    # an 8 MiB array (not a multiple of the slice size) is written as one
    # tensor object without its base64 ever sitting in memory whole
    arr = np.random.default_rng(0).random(1 << 20)
    path = tmp_path / "doc.json"
    tracemalloc.start()
    try:
        save_json({"t": arr, "n": 1}, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < arr.nbytes
    tensor = {"data": base64.b64encode(arr.tobytes()).decode("ascii"), "dtype": "<f8",
              "shape": [arr.size]}
    expected = json.dumps({"n": 1, "t": tensor}, separators=(",", ":"))
    assert path.read_bytes() == (expected + "\n").encode("utf-8")
    assert np.array_equal(decode_array(json.loads(path.read_text())["t"], "t"), arr)


@pytest.mark.parametrize("data", [
    "AAAA AAAAAAA=",  # not base64
    "AAAAAAAAAAA!",
    "AAAA",  # 3 bytes: not whole float64 values
    base64.b64encode(bytes(16)).decode("ascii"),  # 2 values, not the 3 of the shape
], ids=["space", "bang", "partial-value", "shape-mismatch"])
def test_decode_array_names_the_field_of_bad_data(data):
    with pytest.raises(ValueError, match="^conv_b data: "):
        decode_array({"data": data, "dtype": "<f8", "shape": [3]}, "conv_b")


def test_failed_write_keeps_old_file_and_leaves_no_temporary(tmp_path):
    path = tmp_path / "model.json"
    save_json({"a": 1}, path)
    before = path.read_bytes()

    def chunks():
        yield '{"a": 2,'
        raise RuntimeError("disk full")

    with pytest.raises(RuntimeError):
        write_atomic(path, chunks())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


def test_write_atomic_names_the_path_whose_parent_is_a_file(tmp_path):
    afile = tmp_path / "afile"
    afile.write_text("a regular file\n", encoding="utf-8")
    path = afile / "out.json"
    message = f"[Errno {errno.ENOTDIR}] its parent '{afile}' is not a directory: '{path}'"
    with pytest.raises(NotADirectoryError) as caught:
        write_atomic(path, ["text\n"])
    assert str(caught.value) == message
    assert afile.read_text(encoding="utf-8") == "a regular file\n"
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]


def test_write_atomic_writes_through_links_and_devices(tmp_path):
    target = tmp_path / "target.txt"
    target.write_text("old\n", encoding="utf-8")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    write_atomic(link, ["new\n"])
    assert link.is_symlink()
    assert target.read_text(encoding="utf-8") == "new\n"
    write_atomic(os.devnull, ["discarded\n"])
    assert not os.path.isfile(os.devnull)
