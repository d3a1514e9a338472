"""The embedding-table cache: one entry under $XDG_CACHE_HOME (conftest gives
every test its own, empty one), keyed by the SHA-256 of the table file.

A load that hits must give the table a parse gives without reading the
file's lines; any entry that does not hold this file's tokens and matrix
must be parsed over and replaced, silently; and the cache must never change
whether a load fails or what it says.
"""

import hashlib
import io
import os

import numpy as np
import pytest

from relclass import embeddings, read
from relclass.embeddings import CACHE_VERSION, EmbeddingFormatError, load_table, save_table
from relclass.synthetic import make_embedding_table


@pytest.fixture
def table_file(tmp_path):
    path = tmp_path / "vectors.txt"
    save_table(make_embedding_table(), path)
    return path


def entry_path():
    return embeddings._cache_file()


def entry_digest():
    with np.load(entry_path(), allow_pickle=False) as entry:
        return entry["digest"].tolist()


def entry_tokens():
    with np.load(entry_path(), allow_pickle=False) as entry:
        return entry["tokens"].tobytes().decode("utf-8").split("\n")


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def assert_same_table(a, b):
    assert a.tokens() == b.tokens()
    assert a._matrix.tobytes() == b._matrix.tobytes()
    assert (a.name, a.dim) == (b.name, b.dim)


def forbid_parsing(monkeypatch):
    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called on a cache hit")
        return call

    monkeypatch.setattr(np, "loadtxt", forbidden("np.loadtxt"))
    monkeypatch.setattr(read, "text_lines", forbidden("read.text_lines"))


def load_table_uncached(path):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(embeddings, "_cached_table", lambda digest, head: None)
        mp.setattr(embeddings, "_store_table", lambda digest, tokens, matrix: None)
        return load_table(path)


def test_entry_lives_under_xdg_cache_home(tmp_path, monkeypatch, table_file):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    load_table(table_file)
    assert (tmp_path / "xdg" / "relclass" / "embedding-table.npz").is_file()


@pytest.mark.parametrize("xdg", [None, "", "relative/cache"], ids=["unset", "empty", "relative"])
def test_entry_falls_back_to_home_cache(tmp_path, monkeypatch, table_file, xdg):
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    if xdg is None:
        monkeypatch.delenv("XDG_CACHE_HOME")
    else:
        monkeypatch.setenv("XDG_CACHE_HOME", xdg)
    monkeypatch.chdir(tmp_path)
    load_table(table_file)
    assert (tmp_path / "home" / ".cache" / "relclass" / "embedding-table.npz").is_file()
    assert not (tmp_path / "relative").exists()


def test_hit_equals_miss_and_never_parses(table_file, monkeypatch):
    miss = load_table(table_file)
    assert entry_digest() == sha256(table_file)
    assert entry_tokens() == miss.tokens()
    forbid_parsing(monkeypatch)
    hit = load_table(table_file)
    assert_same_table(hit, miss)
    assert not hit._matrix.flags.writeable


def test_hit_on_a_copy_under_another_name(table_file, tmp_path, monkeypatch):
    load_table(table_file)
    copy = tmp_path / "other.txt"
    copy.write_bytes(table_file.read_bytes())
    forbid_parsing(monkeypatch)
    assert load_table(copy).name == "other"


def test_one_changed_byte_misses_and_replaces_the_entry(table_file):
    load_table(table_file)
    data = bytearray(table_file.read_bytes())
    at = data.index(b"\n") + 1  # the first body line: "<token> <first value> ..."
    at = data.index(b" ", at) + 1
    data[at : at + 1] = b"7" if data[at : at + 1] != b"7" else b"6"
    table_file.write_bytes(bytes(data))
    changed = load_table(table_file)
    assert entry_digest() == sha256(table_file)
    fresh_cache = load_table_uncached(table_file)
    assert_same_table(changed, fresh_cache)


def write_npz(path, **arrays):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def write_entry(path, digest, tokens, matrix, /, **arrays):
    """An entry of the current layout, with ``arrays`` in place of its own
    (None drops one)."""
    fields = {"digest": np.array(digest), "version": np.array(CACHE_VERSION),
              "tokens": np.frombuffer("\n".join(tokens).encode("utf-8"), dtype=np.uint8),
              "matrix": matrix, **arrays}
    write_npz(path, **{name: a for name, a in fields.items() if a is not None})


def other_table_entry(path, digest, tokens, matrix):
    write_entry(path, "0" * 64, tokens, matrix)


def wrong_shape_entry(path, digest, tokens, matrix):
    write_entry(path, digest, tokens, matrix[:, :-1])


def wrong_dtype_entry(path, digest, tokens, matrix):
    write_entry(path, digest, tokens, matrix.astype(np.float32))


def non_finite_entry(path, digest, tokens, matrix):
    spoiled = matrix.copy()
    spoiled[-1, 0] = np.inf
    write_entry(path, digest, tokens, spoiled)


def wrong_version_entry(path, digest, tokens, matrix):
    write_entry(path, digest, tokens, matrix, version=np.array(CACHE_VERSION + 1))


def version_1_entry(path, digest, tokens, matrix):
    write_entry(path, digest, tokens, matrix, version=np.array(1), tokens=None)


def pickled_entry(path, digest, tokens, matrix):
    write_entry(path, digest, tokens, matrix, digest=np.array([digest], dtype=object))


def missing_array_entry(path, digest, tokens, matrix):
    write_entry(path, digest, tokens, matrix, matrix=None)


def fewer_tokens_entry(path, digest, tokens, matrix):
    write_entry(path, digest, tokens[:-1], matrix)


def repeated_token_entry(path, digest, tokens, matrix):
    write_entry(path, digest, [tokens[0], *tokens[:-1]], matrix)


def text_tokens_entry(path, digest, tokens, matrix):  # UCS-4 text, not UTF-8 bytes
    write_entry(path, digest, tokens, matrix, tokens=np.array("\n".join(tokens)))


def truncated_entry(path, digest, tokens, matrix):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def flipped_byte_entry(path, digest, tokens, matrix):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF  # inside the matrix: only the zip CRC notices
    path.write_bytes(bytes(data))


def text_entry(path, digest, tokens, matrix):
    path.write_text("not an npz file\n", encoding="utf-8")


def empty_entry(path, digest, tokens, matrix):
    path.write_bytes(b"")


def npy_entry(path, digest, tokens, matrix):
    with open(path, "wb") as fh:
        np.save(fh, matrix)


def directory_entry(path, digest, tokens, matrix):
    path.unlink()
    path.mkdir()


BAD_ENTRIES = [other_table_entry, wrong_shape_entry, wrong_dtype_entry, non_finite_entry,
               wrong_version_entry, version_1_entry, pickled_entry, missing_array_entry,
               fewer_tokens_entry, repeated_token_entry, text_tokens_entry, truncated_entry,
               flipped_byte_entry, text_entry, empty_entry, npy_entry]


@pytest.mark.parametrize("spoil", BAD_ENTRIES, ids=lambda f: f.__name__.removesuffix("_entry"))
def test_bad_entry_is_parsed_over_and_replaced(table_file, spoil):
    expected = load_table(table_file)
    digest = sha256(table_file)
    spoil(entry_path(), digest, expected.tokens(), expected._matrix[:-1])
    assert_same_table(load_table(table_file), expected)
    assert entry_digest() == digest
    assert entry_tokens() == expected.tokens()
    with np.load(entry_path(), allow_pickle=False) as entry:
        assert entry["matrix"].tobytes() == expected._matrix[:-1].tobytes()


def test_directory_in_place_of_the_entry_still_loads(table_file):
    expected = load_table(table_file)
    directory_entry(entry_path(), None, None, None)
    assert_same_table(load_table(table_file), expected)
    assert entry_path().is_dir()


@pytest.mark.parametrize("where", ["file-as-cache-home", "file-as-relclass-dir"])
def test_unwritable_cache_still_loads(table_file, tmp_path, monkeypatch, where):
    expected = load_table_uncached(table_file)
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n", encoding="utf-8")
    if where == "file-as-cache-home":
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    else:
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        os.replace(blocker, tmp_path / "relclass")
    for _ in range(2):
        assert_same_table(load_table(table_file), expected)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["vectors.txt", "blocker" if where == "file-as-cache-home" else "relclass"])


@pytest.mark.parametrize("text, match", [
    ("a 1.0 0.0\nb 0.5 nan\n", r"line 2: non-finite value for 'b'"),
    ("a 1.0 0.0\nb 1.0 x\n", r"line 2: bad float"),
    ("a 1.0 0.0\nb 1.0\n", r"line 2: expected 2 values, got 1"),
    ("3 2\na 1.0 0.0\nb 0.0 1.0\n", r"header declares 3 x 2, file has 2 x 2"),
    ("a 1.0 0.0\na 0.0 1.0\n", r"line 2: duplicate token 'a'"),
], ids=["non-finite", "bad-float", "ragged", "header", "duplicate"])
def test_failed_table_writes_no_entry_and_fails_again(tmp_path, text, match):
    path = tmp_path / "v.txt"
    path.write_text(text, encoding="utf-8")
    messages = []
    for _ in range(2):
        with pytest.raises(EmbeddingFormatError, match=match) as info:
            load_table(path)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert not entry_path().exists()


def test_failed_table_does_not_touch_another_tables_entry(table_file, tmp_path):
    load_table(table_file)
    before = entry_path().read_bytes()
    bad = tmp_path / "bad.txt"
    bad.write_text("a 1.0 0.0\nb inf 0.0\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError, match="line 2: non-finite"):
        load_table(bad)
    assert entry_path().read_bytes() == before


# U+0085, U+2028, \x0b and \x0c end a line for str.splitlines(), not for
# text-mode iteration; str.split() reads them as whitespace inside a line
SEPARATORS_IN_LINES = "a 1.0 0.0\nb\x85 0.0 1.0\nc\u2028 1.0 1.0\x0c\nd\x0b 2.0 2.0\n"


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_line_endings_split_as_text_mode_does(tmp_path, monkeypatch, ending):
    path = tmp_path / "v.txt"
    path.write_bytes(SEPARATORS_IN_LINES.replace("\n", ending).encode("utf-8"))
    for hit in (False, True):
        if hit:
            forbid_parsing(monkeypatch)
        table = load_table(path)
        assert table.tokens() == ["a", "b", "c", "d"]
        assert [table.lookup(t).tolist() for t in "abcd"] == [[1.0, 0.0], [0.0, 1.0],
                                                             [1.0, 1.0], [2.0, 2.0]]


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("text, match", [
    ("a 1.0\x0c0.0\n\nb\u2028 0.0 1.0\nc 1.0 x\n", r"v\.txt: line 4: bad float"),
    ("a 1.0 0.0\n\n\nb\x85\n", r"v\.txt: line 4: expected token and vector"),
    ("a 1.0 0.0\nb\x0b 0.0 1.0\n\na\x85 1.0 1.0\n", r"v\.txt: line 4: duplicate token 'a'"),
], ids=["bad-float", "no-vector", "duplicate"])
def test_error_line_numbers_count_text_mode_lines(tmp_path, ending, text, match):
    path = tmp_path / "v.txt"
    path.write_bytes(text.replace("\n", ending).encode("utf-8"))
    with pytest.raises(EmbeddingFormatError, match=match):
        load_table(path)


def test_non_utf8_table_names_the_file_and_line(tmp_path):
    path = tmp_path / "v.txt"
    path.write_bytes(b"a 1.0 0.0\r\nb 0.0 1.0\rc\xff 1.0 1.0\n")
    with pytest.raises(EmbeddingFormatError, match=r"v\.txt: line 3: byte 0xff is not UTF-8"):
        load_table(path)
    assert not entry_path().exists()


def test_digest_covers_every_byte_of_a_long_file(tmp_path):
    # longer than one read of the hashing reader, so the digest spans reads
    path = tmp_path / "long.txt"
    rows = io.StringIO()
    for i in range(60_000):
        rows.write(f"w{i} {i}.5 -{i}.25\n")
    path.write_text(rows.getvalue(), encoding="utf-8")
    assert path.stat().st_size > 1 << 20
    load_table(path)
    assert entry_digest() == sha256(path)
