import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance, tok
from relclass.corpus import (
    CorpusFormatError,
    InstanceValidationError,
    LABELS,
    RelationInstance,
    RelationLabel,
    TokenAnnotation,
    build_lemma_counts,
    context_vocabulary,
    extract_context,
    filter_context,
    instance_from_dict,
    instance_to_dict,
    parse_corpus,
    serialize_instance,
    write_corpus,
)

POS_TAGS = ("NOUN", "VERB", "ADJ", "ADP", "DET", "PROPN")


@st.composite
def instances(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    toks = tuple(
        TokenAnnotation(
            text=draw(st.text(alphabet="abcdefgXYZ", min_size=1, max_size=5)),
            lemma=draw(st.text(alphabet="abcdefg", min_size=1, max_size=5)),
            pos=draw(st.sampled_from(POS_TAGS)),
        )
        for _ in range(n)
    )
    t1 = draw(st.integers(min_value=0, max_value=n - 2))
    s1 = draw(st.integers(min_value=0, max_value=t1))
    s2 = draw(st.integers(min_value=t1 + 1, max_value=n - 1))
    t2 = draw(st.integers(min_value=s2, max_value=n - 1))
    return RelationInstance(
        id=draw(st.text(alphabet="abc123-", min_size=1, max_size=8)),
        tokens=toks,
        e1=(s1, t1),
        e2=(s2, t2),
        label=draw(st.sampled_from(LABELS + (None,))),
        reverse=draw(st.booleans()),
        subtask=draw(st.sampled_from(("1.1", "1.2"))),
    )


def test_label_inventory():
    assert [l.value for l in LABELS] == [
        "COMPARE", "MODEL-FEATURE", "PART_WHOLE", "RESULT", "TOPIC", "USAGE",
    ]


def test_parse_fixture_corpus(fixture_corpus_path, example_instance):
    instances = parse_corpus(fixture_corpus_path)
    assert len(instances) == 1
    inst = instances[0]
    assert len(inst.tokens) == 10
    assert inst == example_instance
    assert inst.label is RelationLabel.RESULT


def test_entity_token_views(example_instance):
    assert [t.text for t in example_instance.e1_tokens] == ["Combination", "methods"]
    assert [t.text for t in example_instance.e2_tokens] == ["system", "performance"]
    # reverse=False: semantic start is the surface-first span
    assert example_instance.start_tokens == example_instance.e1_tokens
    assert example_instance.end_tokens == example_instance.e2_tokens


def test_reverse_swaps_semantic_roles(example_instance):
    flipped = RelationInstance(
        id=example_instance.id, tokens=example_instance.tokens,
        e1=example_instance.e1, e2=example_instance.e2,
        label=example_instance.label, reverse=True, subtask=example_instance.subtask,
    )
    assert flipped.start_tokens == example_instance.e2_tokens
    assert flipped.end_tokens == example_instance.e1_tokens


def test_extract_context_single_middle_token():
    inst = make_instance([tok("a"), tok("b"), tok("c")], e1=(0, 0), e2=(2, 2))
    assert [t.lemma for t in extract_context(inst)] == ["b"]


def test_extract_context_example_sentence(example_instance):
    ctx = extract_context(example_instance)
    assert [t.text for t in ctx] == ["are", "an", "effective", "way", "of", "improving"]
    assert len(ctx) == 6


def test_extract_context_adjacent_entities():
    inst = make_instance([tok("a"), tok("b")], e1=(0, 0), e2=(1, 1))
    assert extract_context(inst) == ()


def test_lemma_counts_shared_lemma():
    a = make_instance([tok("x"), tok("improving", "improve", "VERB"), tok("y")],
                      e1=(0, 0), e2=(2, 2), id="a")
    b = make_instance([tok("x"), tok("improved", "improve", "VERB"), tok("y")],
                      e1=(0, 0), e2=(2, 2), id="b")
    counts = build_lemma_counts([a, b])
    assert counts["improve"] == 2


def test_lemma_counts_empty():
    assert build_lemma_counts([]) == {}


def test_lemma_counts_example_sentence(example_instance):
    counts = build_lemma_counts([example_instance])
    assert counts == {"be": 1, "an": 1, "effective": 1, "way": 1, "of": 1, "improve": 1}


def test_filter_threshold_one_is_identity(example_instance):
    ctx = extract_context(example_instance)
    assert filter_context(ctx, context_vocabulary([example_instance], 1)) == ctx


def test_filter_drops_rare_lemmas():
    ctx = [tok("are", "be", "VERB")] * 10 + [tok("foo", "foo", "NOUN")] * 2
    inst = make_instance([tok("x"), *ctx, tok("y")], e1=(0, 0), e2=(13, 13))
    vocabulary = context_vocabulary([inst], 5)
    assert vocabulary == {"be"}
    kept = filter_context((tok("are", "be", "VERB"), tok("foo", "foo", "NOUN")), vocabulary)
    assert [t.lemma for t in kept] == ["be"]


def test_filter_counts_are_corpus_wide():
    # "improve" appears 7 times across the corpus, so a threshold of 5 keeps
    # the token even though each sentence contains it once
    base = [tok("x"), tok("improving", "improve", "VERB"), tok("y")]
    corpus = [make_instance(base, e1=(0, 0), e2=(2, 2), id=f"i{k}") for k in range(7)]
    assert build_lemma_counts(corpus)["improve"] == 7
    kept = filter_context(extract_context(corpus[0]), context_vocabulary(corpus, 5))
    assert [t.lemma for t in kept] == ["improve"]
    assert context_vocabulary(corpus, 8) == frozenset()


def test_filter_rejects_bad_threshold(example_instance):
    for threshold in (0, 1.0, True):
        with pytest.raises(ValueError, match="freq_threshold"):
            context_vocabulary([example_instance], threshold)


@pytest.mark.parametrize("e1,e2", [
    ((0, 2), (2, 3)),   # overlapping spans
    ((2, 2), (0, 0)),   # wrong order
    ((0, 0), (1, 9)),   # t2 out of range
    ((1, 0), (2, 2)),   # s1 > t1
])
def test_invalid_spans_rejected(e1, e2):
    toks = [tok(f"w{i}") for i in range(4)]
    with pytest.raises(InstanceValidationError):
        make_instance(toks, e1=e1, e2=e2)


def test_invalid_tokens_rejected():
    with pytest.raises(InstanceValidationError):
        TokenAnnotation("", "x", "NOUN")
    with pytest.raises(InstanceValidationError):
        TokenAnnotation("X", "", "NOUN")
    with pytest.raises(InstanceValidationError):
        TokenAnnotation("X", "Upper", "NOUN")
    with pytest.raises(InstanceValidationError):
        TokenAnnotation("X", "x", "NO UN")


def test_unknown_label_and_subtask_rejected(example_instance):
    record = instance_to_dict(example_instance)
    record["label"] = "CAUSES"
    with pytest.raises(InstanceValidationError):
        instance_from_dict(record)
    record = instance_to_dict(example_instance)
    record["subtask"] = "2.1"
    with pytest.raises(InstanceValidationError):
        instance_from_dict(record)


def test_unlabeled_instance_roundtrip(example_instance):
    record = instance_to_dict(example_instance)
    record["label"] = None
    inst = instance_from_dict(record)
    assert inst.label is None
    assert instance_to_dict(inst)["label"] is None
    # prediction input may leave the label out; it reads as null
    del record["label"]
    assert instance_from_dict(record) == inst


def test_parse_reports_line_numbers(tmp_path, example_instance):
    path = tmp_path / "bad.jsonl"
    path.write_text(serialize_instance(example_instance) + "\n{not json\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="line 2"):
        parse_corpus(path)


def test_parse_rejects_missing_field(tmp_path, example_instance):
    record = instance_to_dict(example_instance)
    del record["e2"]
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="line 1"):
        parse_corpus(path)


def test_equal_tokens_of_a_file_are_one_object(tmp_path, example_instance):
    record = instance_to_dict(example_instance)
    record["tokens"].append(dict(record["tokens"][0]))
    record["e2"] = [8, 9]
    path = tmp_path / "twice.jsonl"
    path.write_text("".join(json.dumps({**record, "id": f"i{n}"}) + "\n" for n in range(2)),
                    encoding="utf-8")
    first, second = parse_corpus(path)
    assert first.tokens == second.tokens == instance_from_dict(record).tokens
    assert all(a is b for a, b in zip(first.tokens, second.tokens))
    assert first.tokens[-1] is first.tokens[0]
    assert len({id(t) for t in first.tokens}) == len(set(first.tokens))


def _bad_token_line(tmp_path, example_instance, bad_token):
    """A corpus whose line 2 repeats line 1's first token, then has ``bad_token``."""
    record = instance_to_dict(example_instance)
    bad = instance_to_dict(example_instance)
    bad["tokens"][1] = bad_token
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(record) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("bad_token, message", [
    ({"text": "Tok", "lemma": "Tok", "pos": "NOUN"}, "token lemma must be lowercase: 'Tok'"),
    ({"text": ["a"], "lemma": "a", "pos": "NOUN"},
     "bad instance record: token text must be a nonempty string, got ['a']"),
    ({"text": "a", "lemma": {"a": 1}, "pos": "NOUN"},
     "bad instance record: token lemma must be a nonempty string, got {'a': 1}"),
    ({"text": 5, "pos": "NOUN"},
     "bad instance record: token text must be a nonempty string, got 5"),
    ({"text": "a", "lemma": "a"}, "bad instance record: 'pos'"),
], ids=["invalid", "list-text", "dict-lemma", "number-text-first", "missing-pos"])
def test_bad_token_after_a_repeated_one_exits_2_naming_file_and_line(
        tmp_path, example_instance, capsys, bad_token, message):
    from relclass.cli import fixture_path, main

    path = _bad_token_line(tmp_path, example_instance, bad_token)
    rc = main(["features", "--corpus", str(path),
               "--embeddings", str(fixture_path("toy_embeddings.txt"))])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {path}: line 2: {message}\n"


def test_invalid_token_is_never_kept(example_instance):
    known = {}
    record = instance_to_dict(example_instance)
    record["tokens"][0] = {"text": "Tok", "lemma": "Tok", "pos": "NOUN"}
    for _ in range(2):
        with pytest.raises(InstanceValidationError, match="lowercase"):
            instance_from_dict(record, known)
    assert ("Tok", "Tok", "NOUN") not in known


def test_serialize_key_order(example_instance):
    line = serialize_instance(example_instance)
    assert list(json.loads(line).keys()) == [
        "id", "tokens", "e1", "e2", "label", "reverse", "subtask",
    ]
    assert "\n" not in line


def test_fixture_file_byte_stable(fixture_corpus_path, tmp_path):
    instances = parse_corpus(fixture_corpus_path)
    out = tmp_path / "copy.jsonl"
    write_corpus(instances, out)
    assert out.read_bytes() == fixture_corpus_path.read_bytes()


@settings(max_examples=60, deadline=None)
@given(instances())
def test_instance_roundtrip(inst):
    assert instance_from_dict(instance_to_dict(inst)) == inst
    assert instance_from_dict(json.loads(serialize_instance(inst))) == inst


@settings(max_examples=20, deadline=None)
@given(st.lists(instances(), max_size=5))
def test_corpus_file_roundtrip(tmp_path_factory, insts):
    path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
    write_corpus(insts, path)
    parsed = parse_corpus(path)
    assert parsed == insts
    # re-serialization is byte-stable
    again = tmp_path_factory.mktemp("corpus") / "c2.jsonl"
    write_corpus(parsed, again)
    assert again.read_bytes() == path.read_bytes()
