import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance, tok
from relclass.corpus import build_lemma_counts, extract_context, filter_context
from relclass.embeddings import EmbeddingTable, load_table
from relclass.features import (
    NAMESPACES,
    FeatureKey,
    build_feature_space,
    context_lexical,
    dense_block,
    entity_lexical,
    extract_keys,
    fit_minmax,
    load_levin_table,
    pos_path,
    similarity_bucket,
    similarity_features,
    similarity_value,
)
from relclass.svm import pack_rows

# full boolean key set of the bundled example sentence, threshold 1
EXAMPLE_KEYS = {
    FeatureKey("bow", "an"), FeatureKey("bow", "be"), FeatureKey("bow", "effective"),
    FeatureKey("bow", "improve"), FeatureKey("bow", "of"), FeatureKey("bow", "way"),
    FeatureKey("pos", "ADJ"), FeatureKey("pos", "ADP"), FeatureKey("pos", "DET"),
    FeatureKey("pos", "NOUN"), FeatureKey("pos", "VERB"),
    FeatureKey("pospath", "VDANAV"),
    FeatureKey("dist", "6"),
    FeatureKey("lc", "45"),
    FeatureKey("ents", "combination methods"), FeatureKey("ents", "methods"),
    FeatureKey("ents", "system performance"), FeatureKey("ents", "performance"),
    FeatureKey("startEnt", "combination methods"), FeatureKey("startEnt", "methods"),
    FeatureKey("endEnt", "system performance"), FeatureKey("endEnt", "performance"),
    FeatureKey("sim100", "0.43"),
    FeatureKey("simb", "q50"),
}


def filtered(inst, threshold=1):
    return filter_context(extract_context(inst), build_lemma_counts([inst]), threshold)


def test_namespace_inventory():
    assert NAMESPACES == ("bow", "pos", "pospath", "dist", "lc",
                          "ents", "startEnt", "endEnt", "sim100", "simb")


def test_feature_key_validation():
    with pytest.raises(ValueError):
        FeatureKey("nope", "x")
    with pytest.raises(ValueError):
        FeatureKey("bow", "")
    # the POS path of an empty context is the empty string
    assert FeatureKey("pospath", "").value == ""


def test_feature_key_ordering():
    assert FeatureKey("bow", "a") < FeatureKey("bow", "b") < FeatureKey("pos", "A")


def test_pos_path_empty():
    assert pos_path([]) == ""


def test_pos_path_two_nouns():
    assert pos_path([tok("a", pos="NOUN"), tok("b", pos="NOUN")]) == "NN"


def test_pos_path_example_sentence(example_instance):
    assert pos_path(extract_context(example_instance)) == "VDANAV"


def test_levin_table_fixture(levin):
    assert levin.lookup("improve") == {45}
    assert levin.lookup("combine") == {22}
    assert levin.lookup("zzz") == frozenset()


def test_levin_loader_truncates_subclasses(tmp_path):
    path = tmp_path / "l.tsv"
    path.write_text("run\t51.3.2\nrun\t26\n", encoding="utf-8")
    table = load_levin_table(path)
    assert table.lookup("run") == {51, 26}


def test_levin_loader_rejects_bad_rows(tmp_path):
    path = tmp_path / "l.tsv"
    path.write_text("improve\t0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_levin_table(path)


def test_context_lexical_example_sentence(example_instance, levin):
    keys = context_lexical(example_instance, filtered(example_instance), levin)
    assert keys == {k for k in EXAMPLE_KEYS
                    if k.namespace in ("bow", "pos", "pospath", "dist", "lc")}


def test_context_lexical_single_noun(levin):
    inst = make_instance([tok("x"), tok("system", pos="NOUN"), tok("y")],
                         e1=(0, 0), e2=(2, 2))
    keys = context_lexical(inst, filtered(inst), levin)
    assert keys == {
        FeatureKey("bow", "system"), FeatureKey("pos", "NOUN"),
        FeatureKey("pospath", "N"), FeatureKey("dist", "1"),
    }


def test_context_lexical_empty_context(levin):
    inst = make_instance([tok("a"), tok("b")], e1=(0, 0), e2=(1, 1))
    keys = context_lexical(inst, (), levin)
    assert keys == {FeatureKey("pospath", ""), FeatureKey("dist", "0")}


def test_dist_uses_unfiltered_context(levin):
    # aggressive filtering drops bow/pos tokens but dist and pospath still
    # describe the full surface context
    inst = make_instance([tok("x"), tok("rare", pos="ADJ"), tok("y")],
                         e1=(0, 0), e2=(2, 2))
    keys = context_lexical(inst, (), levin)
    assert FeatureKey("dist", "1") in keys
    assert FeatureKey("pospath", "A") in keys
    assert not any(k.namespace in ("bow", "pos") for k in keys)


def test_entity_lexical_example_sentence(example_instance):
    assert entity_lexical(example_instance) == {
        k for k in EXAMPLE_KEYS if k.namespace in ("ents", "startEnt", "endEnt")
    }


def test_entity_lexical_single_token():
    inst = make_instance([tok("parser", pos="NOUN"), tok("x"), tok("tool", pos="NOUN")],
                         e1=(0, 0), e2=(2, 2))
    keys = entity_lexical(inst)
    assert keys == {
        FeatureKey("ents", "parser"), FeatureKey("ents", "tool"),
        FeatureKey("startEnt", "parser"), FeatureKey("endEnt", "tool"),
    }


def test_entity_head_noun_requires_noun_tag():
    inst = make_instance(
        [tok("deeply", pos="ADV"), tok("parsed", pos="VERB"), tok("x"),
         tok("tool", pos="NOUN")],
        e1=(0, 1), e2=(3, 3),
    )
    keys = entity_lexical(inst)
    # "deeply parsed" ends in a VERB, so no separate head-noun feature
    assert FeatureKey("ents", "parsed") not in keys
    assert FeatureKey("ents", "deeply parsed") in keys


def test_entity_roles_respect_reverse(example_instance):
    from relclass.corpus import RelationInstance
    flipped = RelationInstance(
        id="r", tokens=example_instance.tokens, e1=example_instance.e1,
        e2=example_instance.e2, label=example_instance.label, reverse=True,
        subtask=example_instance.subtask,
    )
    keys = entity_lexical(flipped)
    assert FeatureKey("startEnt", "system performance") in keys
    assert FeatureKey("endEnt", "combination methods") in keys


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


def test_similarity_features_example_sentence(example_instance, fixture_embeddings_path):
    table = load_table(fixture_embeddings_path)
    assert similarity_features(example_instance, table) == {
        FeatureKey("sim100", "0.43"), FeatureKey("simb", "q50"),
    }


def test_extract_keys_example_sentence(example_instance, fixture_embeddings_path, levin):
    table = load_table(fixture_embeddings_path)
    freq = build_lemma_counts([example_instance])
    keys = extract_keys(example_instance, freq, table, levin, threshold=1)
    assert keys == EXAMPLE_KEYS
    assert len(keys) == 24


def test_feature_space_basics():
    keys = [{FeatureKey("bow", "a"), FeatureKey("bow", "b")},
            {FeatureKey("bow", "b"), FeatureKey("pos", "N"), FeatureKey("dist", "1"),
             FeatureKey("simb", "q0")}]
    space = build_feature_space(keys)
    assert len(space) == 5
    assert [space.index(k) for k in space.keys()] == list(range(5))
    assert space.keys() == tuple(sorted(space.keys()))


def test_feature_space_indices_drop_unknown():
    space = build_feature_space([[FeatureKey("bow", "a")]])
    idx = space.indices({FeatureKey("bow", "a"), FeatureKey("bow", "zzz")})
    assert idx.tolist() == [0]


def test_training_keys_all_indexed(example_instance, fixture_embeddings_path, levin):
    table = load_table(fixture_embeddings_path)
    freq = build_lemma_counts([example_instance])
    keys = extract_keys(example_instance, freq, table, levin, threshold=1)
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
    table = EmbeddingTable({"a": [1.0, 0.0], "b": [0.0, 1.0], "c": [2.0, 2.0]})
    inst = make_instance([tok("A", "a"), tok("C", "c"), tok("B", "b")],
                         e1=(0, 0), e2=(2, 2))
    block = dense_block(inst, table)
    # [context mean | start entity | end entity]
    assert np.array_equal(block, [2.0, 2.0, 1.0, 0.0, 0.0, 1.0])


def test_dense_block_hand_scaled():
    table = EmbeddingTable({"a": [1.0, 0.0], "b": [0.0, 1.0], "c": [2.0, 2.0]})
    first = make_instance([tok("A", "a"), tok("C", "c"), tok("B", "b")],
                          e1=(0, 0), e2=(2, 2), id="x")
    second = make_instance([tok("B", "b"), tok("A", "a"), tok("C", "c")],
                           e1=(0, 0), e2=(2, 2), id="y")
    blocks = [dense_block(i, table) for i in (first, second)]
    scaler = fit_minmax(blocks)
    scaled = scaler.apply(blocks[0])
    # col 0: train {2,1} -> 2 maps to 1; col 2: train {1,0} -> 1 maps to 1, etc.
    assert np.array_equal(scaled, [1.0, 1.0, 1.0, 0.0, 0.0, 0.0])


def test_assemble_end_to_end(example_instance, fixture_embeddings_path, levin):
    table = load_table(fixture_embeddings_path)
    freq = build_lemma_counts([example_instance])
    keys = extract_keys(example_instance, freq, table, levin, threshold=1)
    space = build_feature_space([keys])
    scaler = fit_minmax([dense_block(example_instance, table)])
    packed = pack_rows([keys], dense_block(example_instance, table)[None], space, scaler)
    assert len(space) == 24
    assert packed.bool_index_lists() == [list(range(24))]
    assert packed.dense.shape == (1, 6)
