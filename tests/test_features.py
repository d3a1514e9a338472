import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance, tok
from relclass.corpus import RelationInstance, context_vocabulary, extract_context
from relclass.embeddings import EmbeddingTable, load_table
from relclass.features import (
    NAMESPACES,
    MinMaxScaler,
    build_feature_space,
    featurize,
    fit_minmax,
    load_levin_table,
    parse_feature_space,
    pos_path,
    similarity_bucket,
    similarity_value,
)
from relclass.svm import pack_rows

# full boolean key set of the bundled example sentence, threshold 1
EXAMPLE_KEYS = {
    ("bow", "an"), ("bow", "be"), ("bow", "effective"),
    ("bow", "improve"), ("bow", "of"), ("bow", "way"),
    ("pos", "ADJ"), ("pos", "ADP"), ("pos", "DET"), ("pos", "NOUN"), ("pos", "VERB"),
    ("pospath", "VDANAV"),
    ("dist", "6"),
    ("lc", "45"),
    ("ents", "combination methods"), ("ents", "methods"),
    ("ents", "system performance"), ("ents", "performance"),
    ("startEnt", "combination methods"), ("startEnt", "methods"),
    ("endEnt", "system performance"), ("endEnt", "performance"),
    ("sim100", "0.43"),
    ("simb", "q50"),
}

# a and b orthogonal: two one-token entities on them have cosine 0
AB_TABLE = EmbeddingTable(["a", "b", "c"], [[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])


def keys_of(inst, levin, table=AB_TABLE, threshold=1):
    """featurize's key set of one instance, its vocabulary from the instance itself."""
    key_sets, _ = featurize([inst], context_vocabulary([inst], threshold), table, levin)
    return key_sets[0]


def only(keys, *namespaces):
    return {key for key in keys if key[0] in namespaces}


def reversed_copy(inst):
    return RelationInstance(id=inst.id + "-r", tokens=inst.tokens, e1=inst.e1, e2=inst.e2,
                            label=inst.label, reverse=True, subtask=inst.subtask)


def test_namespace_inventory():
    assert NAMESPACES == ("bow", "pos", "pospath", "dist", "lc",
                          "ents", "startEnt", "endEnt", "sim100", "simb")


def test_feature_key_validation():
    # keys are checked where they enter from a model file
    with pytest.raises(ValueError, match="entry 1: unknown feature namespace 'nope'"):
        parse_feature_space([["bow", "a"], ["nope", "x"]])
    with pytest.raises(ValueError, match="entry 0 value must be a nonempty string, got ''"):
        parse_feature_space([["bow", ""]])
    for entry in (["bow"], ["bow", "a", "b"], "bow", None):
        with pytest.raises(ValueError, match="entry 0 must be an array of 2 items"):
            parse_feature_space([entry])
    for entry, part in ((["bow", 1], "value"), ([1, "a"], "namespace")):
        with pytest.raises(ValueError, match=f"entry 0 {part} must be a"):
            parse_feature_space([entry])
    with pytest.raises(ValueError, match="nonempty"):
        parse_feature_space([])
    # the POS path of an empty context is the empty string
    assert parse_feature_space([["pospath", ""]]).keys() == (("pospath", ""),)


def test_feature_key_ordering():
    assert ("bow", "a") < ("bow", "b") < ("pos", "A")
    entries = [["bow", "a"], ["bow", "b"], ["pos", "A"]]
    space = parse_feature_space(entries)
    assert space.keys() == (("bow", "a"), ("bow", "b"), ("pos", "A"))
    assert space.indices({("pos", "A"), ("bow", "a")}).tolist() == [0, 2]
    for bad in ([entries[1], entries[0], entries[2]], [entries[0], entries[0], entries[2]]):
        with pytest.raises(ValueError, match="entry 1: .* strictly increasing"):
            parse_feature_space(bad)


def test_pos_path_empty():
    assert pos_path([]) == ""


def test_pos_path_two_nouns():
    assert pos_path([tok("a", pos="NOUN"), tok("b", pos="NOUN")]) == "NN"


def test_pos_path_example_sentence(example_instance):
    assert pos_path(extract_context(example_instance)) == "VDANAV"


def test_levin_table_fixture(levin):
    assert levin["improve"] == {45}
    assert levin["combine"] == {22}
    assert "zzz" not in levin


def test_levin_loader_truncates_subclasses(tmp_path):
    path = tmp_path / "l.tsv"
    path.write_text("run\t51.3.2\nrun\t26\n", encoding="utf-8")
    table = load_levin_table(path)
    assert table["run"] == {51, 26}


def test_levin_loader_rejects_bad_rows(tmp_path):
    path = tmp_path / "l.tsv"
    for row in ("0", "-1", "0.5", "x", "1e3", ""):
        path.write_text(f"run\t26\nimprove\t{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"l\.tsv: line 2: bad verb-class entry"):
            load_levin_table(path)


@pytest.mark.parametrize("namespaces", [
    ("bow", "pos", "pospath", "dist", "lc"),
    ("ents", "startEnt", "endEnt"),
    ("sim100", "simb"),
    NAMESPACES,
], ids=["context", "entity", "similarity", "all"])
def test_featurize_example_sentence(example_instance, fixture_embeddings_path, levin,
                                    namespaces):
    keys = keys_of(example_instance, levin, load_table(fixture_embeddings_path))
    assert only(keys, *namespaces) == only(EXAMPLE_KEYS, *namespaces)


def test_context_lexical_single_noun(levin):
    inst = make_instance([tok("x"), tok("system", pos="NOUN"), tok("y")],
                         e1=(0, 0), e2=(2, 2))
    assert only(keys_of(inst, levin), "bow", "pos", "pospath", "dist", "lc") == {
        ("bow", "system"), ("pos", "NOUN"), ("pospath", "N"), ("dist", "1"),
    }


def test_context_lexical_empty_context(levin):
    inst = make_instance([tok("a"), tok("b")], e1=(0, 0), e2=(1, 1))
    assert keys_of(inst, levin) == {
        ("pospath", ""), ("dist", "0"),
        ("ents", "a"), ("ents", "b"), ("startEnt", "a"), ("endEnt", "b"),
        ("sim100", "0.00"), ("simb", "q25"),
    }


def test_dist_uses_unfiltered_context(levin):
    # aggressive filtering drops bow/pos tokens but dist and pospath still
    # describe the full surface context
    inst = make_instance([tok("x"), tok("rare", pos="ADJ"), tok("y")],
                         e1=(0, 0), e2=(2, 2))
    keys = keys_of(inst, levin, threshold=2)
    assert ("dist", "1") in keys
    assert ("pospath", "A") in keys
    assert not only(keys, "bow", "pos")


def test_entity_lexical_single_token(levin):
    inst = make_instance([tok("parser", pos="NOUN"), tok("x"), tok("tool", pos="NOUN")],
                         e1=(0, 0), e2=(2, 2))
    assert only(keys_of(inst, levin), "ents", "startEnt", "endEnt") == {
        ("ents", "parser"), ("ents", "tool"), ("startEnt", "parser"), ("endEnt", "tool"),
    }


def test_entity_head_noun_requires_noun_tag(levin):
    inst = make_instance(
        [tok("deeply", pos="ADV"), tok("parsed", pos="VERB"), tok("x"),
         tok("tool", pos="NOUN")],
        e1=(0, 1), e2=(3, 3),
    )
    keys = keys_of(inst, levin)
    # "deeply parsed" ends in a VERB, so no separate head-noun feature
    assert ("ents", "parsed") not in keys
    assert ("ents", "deeply parsed") in keys


def test_entity_roles_respect_reverse(example_instance, fixture_embeddings_path, levin):
    table = load_table(fixture_embeddings_path)
    keys = keys_of(reversed_copy(example_instance), levin, table)
    assert ("startEnt", "system performance") in keys
    assert ("endEnt", "combination methods") in keys
    # only the roles move: the cosine of e1 and e2 is symmetric
    assert keys - only(keys, "startEnt", "endEnt") == \
        EXAMPLE_KEYS - only(EXAMPLE_KEYS, "startEnt", "endEnt")


def test_similarity_value_truncates():
    assert similarity_value(0.43516866) == "0.43"
    assert similarity_value(0.4399) == "0.43"
    assert similarity_value(-0.126) == "-0.12"
    assert similarity_value(1.0) == "1.00"


def test_similarity_bucket_boundaries():
    assert similarity_bucket(-0.3) == "q0"
    assert similarity_bucket(0.0) == "q25"
    assert similarity_bucket(0.25) == "q50"
    assert similarity_bucket(0.43516866) == "q50"
    assert similarity_bucket(0.5) == "q75"
    assert similarity_bucket(0.75) == "q100"
    assert similarity_bucket(1.0) == "q100"


def test_feature_space_basics():
    keys = [{("bow", "a"), ("bow", "b")},
            {("bow", "b"), ("pos", "N"), ("dist", "1"), ("simb", "q0")}]
    space = build_feature_space(keys)
    assert len(space) == 5
    assert space.keys() == (("bow", "a"), ("bow", "b"), ("dist", "1"), ("pos", "N"),
                            ("simb", "q0"))
    assert space.indices(space.keys()).tolist() == list(range(5))


def test_feature_space_indices_drop_unknown():
    space = build_feature_space([[("bow", "a")]])
    idx = space.indices({("bow", "a"), ("bow", "zzz")})
    assert idx.tolist() == [0]


def test_training_keys_all_indexed(example_instance, fixture_embeddings_path, levin):
    keys = keys_of(example_instance, levin, load_table(fixture_embeddings_path))
    space = build_feature_space([keys])
    assert len(space.indices(keys)) == len(keys)


def test_minmax_known_case():
    scaler = fit_minmax(np.array([[0.0], [10.0]]))
    assert scaler.apply(np.array([2.5]))[0] == 0.25


def test_minmax_constant_column_and_clamping():
    scaler = fit_minmax(np.array([[1.0, 0.0], [1.0, 4.0]]))
    out = scaler.apply(np.array([7.0, -2.0]))
    assert out[0] == 0.0        # constant training column
    assert out[1] == 0.0        # clamped below
    assert scaler.apply(np.array([1.0, 99.0]))[1] == 1.0


def test_minmax_far_outside_a_tiny_span_does_not_overflow():
    # (1.7e308 - 0) / 1e-300 overflows unless the value is clamped first
    scaler = MinMaxScaler(np.array([0.0, 0.0, 2.0]), np.array([1e-300, 1e-300, 2.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = scaler.apply(np.array([[1.7e308, -1.7e308, 1.7e308], [1e-300, 0.0, 2.0]]))
    assert out.tolist() == [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.lists(st.floats(-100, 100), min_size=2, max_size=2),
             min_size=1, max_size=8),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2),
)
def test_minmax_output_in_unit_interval(train, query):
    scaler = fit_minmax(np.array(train))
    out = scaler.apply(np.array(query))
    assert np.all(out >= 0.0) and np.all(out <= 1.0)


def test_dense_block_layout():
    inst = make_instance([tok("A", "a"), tok("C", "c"), tok("B", "b")],
                         e1=(0, 0), e2=(2, 2))
    vocabulary = context_vocabulary([inst], 1)
    _, dense = featurize([inst, reversed_copy(inst)], vocabulary, AB_TABLE, {})
    # [context mean | start entity | end entity]; reverse swaps the roles
    assert np.array_equal(dense, [[2.0, 2.0, 1.0, 0.0, 0.0, 1.0],
                                  [2.0, 2.0, 0.0, 1.0, 1.0, 0.0]])


def test_dense_block_hand_scaled():
    first = make_instance([tok("A", "a"), tok("C", "c"), tok("B", "b")],
                          e1=(0, 0), e2=(2, 2), id="x")
    second = make_instance([tok("B", "b"), tok("A", "a"), tok("C", "c")],
                           e1=(0, 0), e2=(2, 2), id="y")
    vocabulary = context_vocabulary([first, second], 1)
    _, dense = featurize([first, second], vocabulary, AB_TABLE, {})
    scaler = fit_minmax(dense)
    scaled = scaler.apply(dense[0])
    # col 0: train {2,1} -> 2 maps to 1; col 2: train {1,0} -> 1 maps to 1, etc.
    assert np.array_equal(scaled, [1.0, 1.0, 1.0, 0.0, 0.0, 0.0])


def test_featurize_batch_equals_single_instances(example_instance, fixture_embeddings_path,
                                                 levin):
    table = load_table(fixture_embeddings_path)
    tokens = example_instance.tokens
    batch = [
        example_instance,
        make_instance(tokens[:2], e1=(0, 0), e2=(1, 1), id="empty-context"),
        reversed_copy(example_instance),
        make_instance(tokens[2:8], e1=(0, 1), e2=(4, 5), id="short"),
        make_instance([tok("x"), tok("Zzz"), *tokens[8:]], e1=(0, 0), e2=(2, 3), id="oov"),
    ]
    vocabulary = context_vocabulary(batch, 2)
    key_sets, dense = featurize(batch, vocabulary, table, levin)
    alone = [featurize([inst], vocabulary, table, levin) for inst in batch]
    assert key_sets == [keys[0] for keys, _ in alone]
    assert dense.shape == (len(batch), 3 * table.dim)
    assert dense.tobytes() == np.vstack([block for _, block in alone]).tobytes()
    assert featurize([], vocabulary, table, levin)[1].shape == (0, 3 * table.dim)


def test_assemble_end_to_end(example_instance, fixture_embeddings_path, levin):
    table = load_table(fixture_embeddings_path)
    key_sets, dense = featurize([example_instance], context_vocabulary([example_instance], 1),
                                table, levin)
    space = build_feature_space(key_sets)
    scaler = fit_minmax(dense)
    packed = pack_rows(key_sets, dense, space, scaler)
    assert len(space) == 24
    assert packed.bool_index_lists() == [list(range(24))]
    assert packed.dense.shape == (1, 6)
