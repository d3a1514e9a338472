import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance, tok
from oracles import save_table_reference
from relclass.embeddings import (
    EmbeddingFormatError,
    EmbeddingTable,
    cosine,
    load_table,
    save_table,
)
from relclass.features import dense_block, dense_lemmas


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


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_load_non_finite_value_reports_line(tmp_path, bad):
    path = tmp_path / "v.txt"
    path.write_text(f"a 1.0 0.0\nb 0.5 {bad}\nc 0.0 1.0\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError, match=r"v\.txt: line 2: non-finite"):
        load_table(path)


def test_load_bad_float_reports_line(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("a 1.0 0.0\nb 1.0 x\nc 0.0 1.0\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError, match=r"v\.txt: line 2: bad float"):
        load_table(path)


@pytest.mark.parametrize("row, got", [("1.0", 1), ("1.0 2.0 3.0", 3)], ids=["shorter", "longer"])
def test_load_row_width_differs_from_first(tmp_path, row, got):
    path = tmp_path / "v.txt"
    path.write_text(f"a 1.0 0.0\nb 0.0 1.0\nc {row}\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError, match=rf"v\.txt: line 3: expected 2 values, got {got}$"):
        load_table(path)


@pytest.mark.parametrize("line", ["b", "b   "], ids=["bare", "trailing-space"])
def test_load_token_without_vector(tmp_path, line):
    path = tmp_path / "v.txt"
    path.write_text(f"a 1.0 0.0\n{line}\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError, match=r"v\.txt: line 2: expected token and vector"):
        load_table(path)


@pytest.mark.parametrize("text, match", [
    ("3 2\na 1.0 0.0\nb 0.0 1.0\n", "header declares 3 x 2, file has 2 x 2"),
    ("2 3\na 1.0 0.0\nb 0.0 1.0\n", "header declares 2 x 3, file has 2 x 2"),
    ("2 2\n", "no vectors"),
], ids=["count", "dim", "header-only"])
def test_load_header_mismatch(tmp_path, text, match):
    path = tmp_path / "v.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(EmbeddingFormatError, match=match):
        load_table(path)


def test_load_one_dim_table(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("a 1.5\nb -2.0\n", encoding="utf-8")
    table = load_table(path)
    assert len(table) == 2 and table.dim == 1
    assert np.array_equal(table.lookup("b"), [-2.0])


def test_load_header_after_blank_lines(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("\n  \n2 2\na 1.0 0.0\n\nb 0.0 1.0\n", encoding="utf-8")
    table = load_table(path)
    assert table.tokens() == ["a", "b"] and table.dim == 2


def test_load_value_spellings_match_python_float(tmp_path):
    spellings = ["1e-3", "-0.0", "+1.5", ".5", "5.", "1E+2", "0.1", "-123.456e-7"]
    path = tmp_path / "v.txt"
    path.write_text("a " + " ".join(spellings) + "\n", encoding="utf-8")
    expected = np.array([float(s) for s in spellings])
    assert load_table(path).lookup("a").tobytes() == expected.tobytes()


def test_load_rejects_underscore_in_number(tmp_path):
    # Python's float() accepts "1_0"; the table format does not
    path = tmp_path / "v.txt"
    path.write_text("a 1.0 0.0\nb 1_0 0.0\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError, match=r"v\.txt: line 2: bad float"):
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
        EmbeddingTable(["a", "b"], [[1.0, 0.0], [1.0]])


@pytest.mark.parametrize("vectors", [{"a": 1.0}, {"a": [[1.0, 2.0]]}, {"a": []}],
                         ids=["scalar", "2-d", "empty"])
def test_non_vector_values_rejected(vectors):
    with pytest.raises(EmbeddingFormatError):
        EmbeddingTable(list(vectors), list(vectors.values()))


@pytest.mark.parametrize("tokens, rows",
                         [([], []), (["a"], [[1.0], [2.0]]), (["a", "b"], [[1.0]])],
                         ids=["empty", "more-rows", "more-tokens"])
def test_one_row_per_token_required(tokens, rows):
    with pytest.raises(EmbeddingFormatError):
        EmbeddingTable(tokens, rows)


def test_phrase_vector_is_the_sequential_mean():
    rng = np.random.default_rng(0)
    table = EmbeddingTable([f"w{i}" for i in range(40)], rng.normal(size=(40, 50)))
    lemmas = [f"w{i}" for i in rng.integers(0, 45, size=25)]  # some OOV
    acc = np.zeros(50)
    for lemma in lemmas:
        acc += table.lookup(lemma)
    assert table.phrase_vector(lemmas).tobytes() == (acc / len(lemmas)).tobytes()


def test_phrase_vector_mean(toy_table):
    assert np.array_equal(toy_table.phrase_vector(["a", "b"]), [0.5, 0.5])


def test_phrase_vector_oov_counts_in_mean(toy_table):
    # the zero OOV vector stays in the denominator: ((1,0) + (0,0)) / 2
    assert np.array_equal(toy_table.phrase_vector(["a", "zzz"]), [0.5, 0.0])


def test_phrase_vector_empty(toy_table):
    assert np.array_equal(toy_table.phrase_vector([]), [0.0, 0.0])


def test_phrase_vector_uses_lemma(toy_table):
    # a dense row averages the vectors of the tokens' lemmas, not of their text
    inst = make_instance([tok("XYZ", "a"), tok("Q", "b")], e1=(0, 0), e2=(1, 1))
    assert dense_lemmas([inst]) == [([], ["a"], ["b"])]
    assert np.array_equal(dense_block(dense_lemmas([inst]), toy_table),
                          [[0.0, 0.0, 1.0, 0.0, 0.0, 1.0]])


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
    table = EmbeddingTable(list(vectors), list(vectors.values()), name="t")
    path = tmp_path_factory.mktemp("emb") / "t.txt"
    save_table(table, path)
    loaded = load_table(path)
    assert loaded.tokens() == sorted(vectors)
    for token in vectors:
        assert np.array_equal(loaded.lookup(token), table.lookup(token))
    again = tmp_path_factory.mktemp("emb") / "t2.txt"
    save_table(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_save_table_writes_the_reference_bytes(tmp_path):
    # signed zero, the smallest subnormal, a repr-sensitive sum and a huge value
    table = EmbeddingTable(["b", "a"], [[-0.0, 5e-324, 0.1 + 0.2], [1e300, -1.5, 0.0]], name="t")
    ours, reference = tmp_path / "ours.txt", tmp_path / "reference.txt"
    save_table(table, ours)
    save_table_reference(table, reference)
    assert ours.read_bytes() == reference.read_bytes()
    loaded = load_table(ours)
    for token in ("a", "b"):
        assert loaded.lookup(token).tobytes() == table.lookup(token).tobytes()
