import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tok
from relclass.embeddings import (
    EmbeddingFormatError,
    EmbeddingTable,
    cosine,
    load_table,
    save_table,
)


def test_load_two_rows(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("a 1.0 0.0\nb 0.0 1.0\n", encoding="utf-8")
    table = load_table(path)
    assert len(table) == 2
    assert table.dim == 2
    assert table.name == "v"


def test_load_with_count_header(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("2 3\na 1.0 2.0 3.0\nb 4.0 5.0 6.0\n", encoding="utf-8")
    table = load_table(path)
    assert len(table) == 2 and table.dim == 3


def test_load_ragged_row_reports_line(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("a 1.0 0.0\nb 1.0 2.0 3.0\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError, match="line 2"):
        load_table(path)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_load_non_finite_value_reports_line(tmp_path, bad):
    path = tmp_path / "v.txt"
    path.write_text(f"a 1.0 0.0\nb 0.5 {bad}\nc 0.0 1.0\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError, match=r"v\.txt: line 2: non-finite"):
        load_table(path)


def test_load_duplicate_token(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("a 1.0\na 2.0\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError, match="duplicate"):
        load_table(path)


def test_load_empty_file(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError):
        load_table(path)


def test_lookup_known(toy_table):
    assert np.array_equal(toy_table.lookup("a"), [1.0, 0.0])


def test_lookup_oov_is_zero(toy_table):
    assert np.array_equal(toy_table.lookup("zzz"), [0.0, 0.0])


def test_lookup_is_case_sensitive(toy_table):
    assert np.array_equal(toy_table.lookup("A"), [0.0, 0.0])


def test_lookup_read_only(toy_table):
    with pytest.raises(ValueError):
        toy_table.lookup("a")[0] = 9.0


def test_dim_mismatch_rejected():
    with pytest.raises(EmbeddingFormatError):
        EmbeddingTable({"a": [1.0, 0.0], "b": [1.0]})


def test_phrase_vector_mean(toy_table):
    assert np.array_equal(toy_table.phrase_vector([tok("a"), tok("b")]), [0.5, 0.5])


def test_phrase_vector_oov_counts_in_mean(toy_table):
    # the zero OOV vector stays in the denominator: ((1,0) + (0,0)) / 2
    assert np.array_equal(toy_table.phrase_vector([tok("a"), tok("zzz")]), [0.5, 0.0])


def test_phrase_vector_empty(toy_table):
    assert np.array_equal(toy_table.phrase_vector([]), [0.0, 0.0])


def test_phrase_vector_uses_lemma(toy_table):
    assert np.array_equal(toy_table.phrase_vector([tok("XYZ", "a")]), [1.0, 0.0])


def test_context_vector(toy_table):
    from conftest import make_instance
    inst = make_instance([tok("x"), tok("A", "a"), tok("B", "b"), tok("y")],
                         e1=(0, 0), e2=(3, 3))
    assert np.array_equal(toy_table.context_vector(inst), [0.5, 0.5])


def test_cosine_basics():
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    assert cosine(np.array([2.0, 0.0]), np.array([5.0, 0.0])) == pytest.approx(1.0)
    assert cosine(np.array([1.0, 0.0]), np.array([-3.0, 0.0])) == pytest.approx(-1.0)


def test_cosine_zero_vector_convention():
    assert cosine(np.zeros(2), np.array([1.0, 1.0])) == 0.0


def test_fixture_table_cosine(fixture_embeddings_path):
    table = load_table(fixture_embeddings_path)
    c = cosine(table.lookup("combination"), table.lookup("performance"))
    assert 0.43 <= c < 0.44


def test_save_load_fixture_byte_stable(fixture_embeddings_path, tmp_path):
    table = load_table(fixture_embeddings_path)
    out = tmp_path / "copy.txt"
    save_table(table, out)
    assert out.read_bytes() == fixture_embeddings_path.read_bytes()


@settings(max_examples=30, deadline=None)
@given(
    st.dictionaries(
        st.text(alphabet="abcdefgh", min_size=1, max_size=6),
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False, width=64),
            min_size=3, max_size=3,
        ),
        min_size=1, max_size=6,
    )
)
def test_table_file_roundtrip(tmp_path_factory, vectors):
    table = EmbeddingTable(vectors, name="t")
    path = tmp_path_factory.mktemp("emb") / "t.txt"
    save_table(table, path)
    loaded = load_table(path)
    assert loaded.tokens() == sorted(vectors)
    for token in vectors:
        assert np.array_equal(loaded.lookup(token), table.lookup(token))
    again = tmp_path_factory.mktemp("emb") / "t2.txt"
    save_table(loaded, again)
    assert again.read_bytes() == path.read_bytes()
