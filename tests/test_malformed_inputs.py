"""Generated malformed inputs, one field at a time.

Each input format starts from a valid file: both model kinds saved by
``train``, a corpus record, a config file, a predictions line, an
embedding-table line and a verb-table line. Every sampled field of it is
replaced by each of nine values, and the command that reads the file is run
in-process. A run must exit 0, or exit 2 with a message naming the file (and
the line, for line formats); it must never exit 1 or print a traceback. A
value of another JSON kind than the field's, or a non-integer where an
integer stood, must exit 2, except null in a field declared nullable.

Models are read through ``predict`` on a one-instance corpus and config
files through ``predict --config``; nothing here trains on a mutated input.
Each valid file, unmutated, must run with exit 0, so that no format's runs
can all exit 2 for a reason of their own.
A byte that is not UTF-8 in a file of a line format must exit 2 too, naming
the file and the line the byte stands on.
"""

import json
import random
from dataclasses import dataclass
from typing import Callable

import pytest

from conftest import SETTING_DEFAULTS
from relclass.cli import fixture_path, main
from relclass.corpus import write_corpus
from relclass.embeddings import save_table
from relclass.synthetic import make_corpus, make_embedding_table

SUBSTITUTES = ["x", True, None, -1, 0, 0.5, [], {}, 10**30]
SUBSTITUTE_IDS = ["string", "true", "null", "minus-one", "zero", "half", "array", "object",
                  "ten-to-the-30"]
# the seeded sample of field paths each run replaces, so that the whole test
# takes about 5 s: of about 50 (SVM) and 60 (conv-LSTM) collapsed model-file
# paths and of the 27 config keys; the smaller formats run every path
MODEL_PATHS_SAMPLED = 20
CONFIG_KEYS_SAMPLED = 12
SEED = 16

FORMATS = ["svm", "clstm", "corpus", "config", "predictions", "embeddings", "verbs"]
# fields that may be null: the corpus label, and every string config setting
# (a path or the model kind)
NULLABLE = {("corpus", ("label",))} | {
    ("config", (key,)) for key, kind, _ in SETTING_DEFAULTS if kind is str
}


def kind(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return "null" if value is None else type(value).__name__


def must_fail(original, substitute) -> bool:
    """Whether replacing ``original`` by ``substitute`` breaks the field's kind."""
    if kind(original) != kind(substitute):
        return True
    return kind(original) == "number" and isinstance(original, int) and isinstance(substitute, float)


def field_paths(doc, path=()):
    """Every field path of a JSON document; list indices fold to the first item."""
    if isinstance(doc, dict):
        children = doc.items()
    else:
        children = enumerate(doc[:1]) if isinstance(doc, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from field_paths(child, path + (key,))


def dumps_replaced(doc, path, substitute) -> str:
    """The JSON text of ``doc`` with the field at ``path`` replaced."""
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    original, parent[path[-1]] = parent[path[-1]], substitute
    try:
        return json.dumps(doc)
    finally:
        parent[path[-1]] = original


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def as_text(substitute) -> str:
    """A substitute as it stands in a text-line format."""
    return substitute if isinstance(substitute, str) else json.dumps(substitute)


@dataclass
class Format:
    """One input format: its fields, how a substitute is written into the
    file, and the command that reads the file."""

    paths: list
    write: Callable  # (path, substitute, destination) -> None
    write_valid: Callable  # destination -> None: the file unmutated
    command: Callable  # destination -> argv
    must_fail: Callable  # (path, substitute) -> bool
    line: int | None = None  # the line a line format's field stands on


def json_format(name, doc, command, line=None, sample=None):
    paths = list(field_paths(doc))
    if sample is not None:
        paths = sorted(random.Random(SEED).sample(paths, sample))

    def write(path, substitute, dest):
        dest.write_text(dumps_replaced(doc, path, substitute) + "\n", encoding="utf-8")

    def write_valid(dest):
        dest.write_text(json.dumps(doc) + "\n", encoding="utf-8")

    def fails(path, substitute):
        if substitute is None and (name, path) in NULLABLE:
            return False
        original = doc
        for key in path:
            original = original[key]
        return must_fail(original, substitute)

    return Format(paths, write, write_valid, command, fails, line)


def text_line_format(lines, lineno, split, join, numeric_fields, command):
    """A format of text lines: field ``i`` of line ``lineno``, as ``split``
    cuts it, is replaced. ``numeric_fields`` maps a field that holds a
    number to its type, int or float; any other field is free text."""
    fields = split(lines[lineno - 1])

    def write(i, substitute, dest):
        changed = list(fields)
        changed[i] = as_text(substitute)
        out = list(lines)
        out[lineno - 1] = join(changed)
        dest.write_text("\n".join(out) + "\n", encoding="utf-8")

    def write_valid(dest):
        dest.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def fails(i, substitute):
        allowed = {int: int, float: (int, float)}.get(numeric_fields.get(i), object)
        return not isinstance(substitute, allowed) or (
            i in numeric_fields and isinstance(substitute, bool))

    return Format(list(range(len(fields))), write, write_valid, command, fails, lineno)


@pytest.fixture(scope="module")
def formats(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    corpus = make_corpus(n_per_class=12)
    write_corpus(corpus, root / "train.jsonl")
    write_corpus(corpus[:1], root / "one.jsonl")
    save_table(make_embedding_table(), root / "emb.txt")
    levin, toy_table = fixture_path("levin_small.tsv"), fixture_path("toy_embeddings.txt")
    example = fixture_path("example_corpus.jsonl")
    train = ["train", "--train", str(root / "train.jsonl"), "--embeddings", str(root / "emb.txt")]
    assert main([*train, "--model", "svm", "--levin", str(levin), "--out", str(root / "svm.json"),
                 "--report", str(root / "svm-report.json")]) == 0
    assert main([*train, "--model", "clstm", "--out", str(root / "clstm.json"),
                 "--report", str(root / "clstm-report.json"), "--num-filters", "8",
                 "--filter-width", "2", "--rnn-units", "8", "--epochs", "1",
                 "--batch-size", "16", "--freq-threshold", "1"]) == 0
    out = str(root / "out.txt")

    def predict(model):
        return ["predict", "--model-file", str(model), "--corpus", str(root / "one.jsonl"),
                "--embeddings", str(root / "emb.txt"), "--out", out]

    def features(corpus=example, table=toy_table, verbs=levin):
        return ["features", "--corpus", str(corpus), "--embeddings", str(table),
                "--levin", str(verbs), "--freq-threshold", "1", "--out", out]

    # each setting's default, the library's where the CLI holds none
    config = {key: "unread.txt" if kind is str else default
              for key, kind, default in SETTING_DEFAULTS}
    config["model"] = "svm"
    return {
        "svm": json_format("svm", read_json(root / "svm.json"), predict,
                           sample=MODEL_PATHS_SAMPLED),
        "clstm": json_format("clstm", read_json(root / "clstm.json"), predict,
                             sample=MODEL_PATHS_SAMPLED),
        "corpus": json_format("corpus", read_json(example), lambda dest: features(corpus=dest),
                              line=1),
        "config": json_format("config", config,
                              lambda dest: [*predict(root / "svm.json"), "--config", str(dest)],
                              sample=CONFIG_KEYS_SAMPLED),
        "predictions": json_format("predictions", {"id": "fixture-1", "label": "RESULT"},
                                   lambda dest: ["evaluate", "--gold", str(example),
                                                 "--predictions", str(dest)], line=1),
        "embeddings": text_line_format(toy_table.read_text(encoding="utf-8").splitlines(), 2,
                                       str.split, " ".join, {1: float, 2: float},
                                       lambda dest: features(table=dest)),
        "verbs": text_line_format(levin.read_text(encoding="utf-8").splitlines(), 1,
                                  lambda line: line.split("\t"), "\t".join, {1: int},
                                  lambda dest: features(verbs=dest)),
    }


@pytest.mark.parametrize("name", FORMATS)
def test_unmutated_file_exits_0(formats, tmp_path, capsys, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    dest = tmp_path / f"valid-{name}"
    formats[name].write_valid(dest)
    assert main(formats[name].command(dest)) == 0, capsys.readouterr().err


@pytest.mark.parametrize("substitute", SUBSTITUTES, ids=SUBSTITUTE_IDS)
@pytest.mark.parametrize("name", FORMATS)
def test_malformed_field_exits_0_or_2_naming_the_file(formats, tmp_path, capsys, monkeypatch,
                                                      name, substitute):
    monkeypatch.chdir(tmp_path)  # where a relative output path would land
    fmt = formats[name]
    dest = tmp_path / f"mutated-{name}"
    problems = []
    for path in fmt.paths:
        fmt.write(path, substitute, dest)
        rc = main(fmt.command(dest))
        err = capsys.readouterr().err
        where = f"{path} = {substitute!r}: exit {rc}"
        if rc not in (0, 2) or "Traceback" in err:
            problems.append(f"{where}, {err.strip()}")
        elif rc == 2 and (str(dest) not in err or fmt.line and f"line {fmt.line}:" not in err):
            problems.append(f"{where} without naming the file and line: {err.strip()}")
        elif rc == 0 and fmt.must_fail(path, substitute):
            problems.append(f"{where}, accepted a value of the wrong kind")
    assert not problems, "\n".join(problems)


def test_model_samples_cover_the_vocabulary(formats):
    # the seeded samples replace the context vocabulary of both model kinds
    assert {("vocabulary",), ("vocabulary", 0)} <= set(formats["svm"].paths)
    assert ("vocabulary",) in formats["clstm"].paths


@pytest.fixture(scope="module")
def line_files(tmp_path_factory):
    """A valid file of each line format, several lines long, with the
    command that reads it (a function of the file's path)."""
    root = tmp_path_factory.mktemp("lines")
    gold = root / "gold.jsonl"
    corpus = make_corpus(n_per_class=4)  # 10 KB, so its last line is past the first 8 KB
    write_corpus(corpus, gold)
    save_table(make_embedding_table(), root / "emb.txt")
    levin, toy_table = fixture_path("levin_small.tsv"), fixture_path("toy_embeddings.txt")
    predictions = "".join(json.dumps({"id": inst.id, "label": inst.label.value}) + "\n"
                          for inst in corpus)
    verbs = levin.read_text(encoding="utf-8") + "".join(f"verb{i}\t{i + 1}\n" for i in range(5))
    out = str(root / "out.txt")

    def features(corpus=gold, table=toy_table, verbs=levin):
        return ["features", "--corpus", str(corpus), "--embeddings", str(table),
                "--levin", str(verbs), "--freq-threshold", "1", "--out", out]

    return {
        "corpus": (gold.read_bytes(), lambda dest: features(corpus=dest)),
        "predictions": (predictions.encode("utf-8"),
                        lambda dest: ["evaluate", "--gold", str(gold), "--predictions", str(dest)]),
        "embeddings": ((root / "emb.txt").read_bytes(), lambda dest: features(table=dest)),
        "verbs": (verbs.encode("utf-8"), lambda dest: features(verbs=dest)),
    }


@pytest.mark.parametrize("name", ["corpus", "predictions", "embeddings", "verbs"])
def test_non_utf8_byte_exits_2_naming_the_file_and_line(line_files, tmp_path, capsys, name):
    data, command = line_files[name]
    valid = tmp_path / "valid"
    valid.write_bytes(data)
    assert main(command(valid)) == 0
    lines = data.splitlines(keepends=True)
    lineno = len(lines)  # the last line: in the corpus and the table, past the first 8 KB
    lines[lineno - 1] = b"\xff" + lines[lineno - 1]
    dest = tmp_path / f"non-utf8-{name}"
    dest.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert main(command(dest)) == 2
    err = capsys.readouterr().err
    assert f"{dest}: line {lineno}: byte 0xff is not UTF-8" in err, err
