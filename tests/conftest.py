"""Shared fixtures and small builders for the test suite."""

import dataclasses
import inspect
import os

import numpy as np
import pytest

from relclass import evaluation, search, svm
from relclass.cli import fixture_path
from relclass.clstm import Batch, Hyperparams, forward_batch, init_params
from relclass.corpus import (FREQ_THRESHOLD, LABELS, RelationInstance, RelationLabel,
                             TokenAnnotation)
from relclass.embeddings import EmbeddingTable
from relclass.features import load_levin_table
from relclass.synthetic import make_corpus, make_embedding_table

from oracles import relative_error


@pytest.fixture(autouse=True, scope="session")
def _session_cache_home(tmp_path_factory):
    """Point the embedding-table cache at a directory of this test session
    before any fixture of a wider scope loads a table."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache-home")))
        yield


@pytest.fixture(autouse=True)
def _cache_home(tmp_path_factory, monkeypatch):
    """Give every test its own, empty embedding-table cache (through
    XDG_CACHE_HOME, which subprocesses inherit): no test reads or writes the
    user's cache, and each starts cold."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache-home")))


def tok(text, lemma=None, pos="NOUN"):
    return TokenAnnotation(text=text, lemma=lemma if lemma is not None else text.lower(), pos=pos)


def make_instance(tokens, e1, e2, label=RelationLabel.USAGE, reverse=False,
                  id="t-0", subtask="1.1"):
    return RelationInstance(id=id, tokens=tuple(tokens), e1=e1, e2=e2,
                            label=label, reverse=reverse, subtask=subtask)


def per_gate(tensors):
    """The package's parameters (or gradients) with its fused LSTM tensors
    split into the oracles' twelve per-gate arrays: block n of u rows of
    w_x, w_h and b is gate ``"ifog"[n]``'s w_, u_ and b_ array."""
    u = len(tensors["b"]) // 4
    split = {name: tensors[name] for name in ("conv_w", "conv_b", "soft_w", "soft_b")}
    for n, gate in enumerate("ifog"):
        rows = slice(n * u, (n + 1) * u)
        split.update({"w_" + gate: tensors["w_x"][rows], "u_" + gate: tensors["w_h"][rows],
                      "b_" + gate: tensors["b"][rows]})
    return split


def as_batch(dense, lengths=None):
    """The clstm.Batch that stands for the (B, v, l_max) padded batch
    ``dense`` whose row b holds ``lengths[b]`` columns (all l_max without
    ``lengths``): its distinct nonzero columns in the bank, then the zero
    row."""
    B, v, l_max = dense.shape
    lengths = np.full(B, l_max) if lengths is None else np.asarray(lengths)
    assert not any(dense[b, :, n:].any() for b, n in enumerate(lengths))
    cols = dense.transpose(0, 2, 1).reshape(B * l_max, v)
    nonzero = cols.any(axis=1)
    distinct, inv = np.unique(cols[nonzero], axis=0, return_inverse=True)
    ids = np.full(B * l_max, len(distinct))
    ids[nonzero] = inv.ravel()
    batch = Batch(ids.reshape(B, l_max), np.concatenate([distinct, np.zeros((1, v))]), lengths)
    assert np.array_equal(batch.bank[batch.ids].transpose(0, 2, 1), dense)
    return batch


def stepped(cache):
    """(step, batch row) of each packed row of a forward_batch cache, to
    index the time-major (m, B, .) arrays of the dense reference with."""
    steps = np.repeat(np.arange(len(cache.active)), cache.active)
    ranks = np.arange(len(steps)) - np.repeat(np.cumsum(cache.active) - cache.active, cache.active)
    return steps, cache.order[ranks]


def assert_matches_reference(cache, ref, name=""):
    """A forward_batch cache against the dense reference's of the same
    batch, within 1e-12: the probabilities, and the conv maps and states of
    every step a row takes; a row takes the steps the reference marks
    active, and the states before the first step are zero."""
    t, b = stepped(cache)
    B = len(cache.order)
    assert len(t) == ref.active.sum() and ref.active[t, b].all(), name
    assert not cache.cells[:B].any() and not cache.hiddens[:B].any(), name
    assert relative_error(cache.probs, ref.probs) <= 1e-12, name
    assert relative_error(cache.xs, ref.xs[t, b]) <= 1e-12, name
    assert relative_error(cache.cells[B:], ref.cells[t + 1, b]) <= 1e-12, name
    assert relative_error(cache.hiddens[B:], ref.hiddens[t + 1, b]) <= 1e-12, name


def conv_maps(I_pad, filters, bias, stride):
    """The k x ceil(l / stride) conv feature maps of one instance that fills
    its width l, read from the forward_batch cache of a batch of one (a
    training call without dropout), which steps every window that starts
    inside it; a window that runs past the width reads zero columns there."""
    v = I_pad.shape[0]
    k, flat = filters.shape
    hyper = Hyperparams(num_filters=k, filter_width=flat // v, rnn_units=1, stride=stride)
    params = init_params(v, hyper, np.random.default_rng(0))
    params.update(conv_w=filters, conv_b=bias)
    cache = forward_batch(as_batch(I_pad[None]), params, hyper, np.ones((1, 1)))
    return cache.xs.T


def force_cpus(monkeypatch, n):
    """Make this process look as if it may run on n CPUs, so that both
    trainers run ``parallel.forked`` with n workers: SVM training fits its
    class pairs in n forked workers, conv-LSTM training its batch shards in
    min(n, 2) where the BLAS thread count can be set (1: in this process)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def in_space(space, hyper) -> bool:
    """Whether each searched hyperparameter of ``hyper`` lies in its
    inclusive range of ``space``."""
    return all(lo <= getattr(hyper, name) <= hi
               for name, (lo, hi) in dataclasses.asdict(space).items())


def declared_default(fn, name):
    """The default that ``fn`` declares for its parameter ``name``."""
    return inspect.signature(fn).parameters[name].default


# every CLI setting in order (tests/test_malformed_inputs.py samples config
# keys by position), its kind, and the value a command runs with when
# neither a flag nor the config file sets it: the CLI's default, or the
# library's for a setting in LIBRARY_HELD, which the CLI passes on only when set
SETTING_DEFAULTS = [
    *((key, str, None) for key in ("train", "corpus", "gold", "predictions", "model",
                                   "model_file", "embeddings", "levin", "out", "report",
                                   "trial_log")),
    ("seed", int, 0),
    ("k", int, declared_default(evaluation.cross_validate, "k")),
    ("n_trials", int, 20),
    ("fraction", float, declared_default(search.random_search, "fraction")),
    ("freq_threshold", int, FREQ_THRESHOLD),
    ("C", float, declared_default(svm.train_multiclass, "C")),
    ("gamma", float, declared_default(svm.train_multiclass, "gamma")),
    ("num_filters", int, Hyperparams.num_filters),
    ("filter_width", int, Hyperparams.filter_width),
    ("rnn_units", int, Hyperparams.rnn_units),
    ("dropout", float, Hyperparams.dropout_rate),
    ("l2", float, Hyperparams.l2_scale),
    ("batch_size", int, Hyperparams.batch_size),
    ("epochs", int, Hyperparams.epochs),
    ("learning_rate", float, Hyperparams.learning_rate),
    ("stride", int, Hyperparams.stride),
]
LIBRARY_HELD = {"k", "fraction", "C", "gamma", "num_filters", "filter_width", "rnn_units",
                "dropout", "l2", "batch_size", "epochs", "learning_rate", "stride"}


def uneven_corpus():
    """The synthetic corpus with 12, 11, ..., 7 instances of the classes in
    LABELS order: the sizes of a full pair fit name its pair."""
    kept = {label: 12 - k for k, label in enumerate(LABELS)}
    corpus = []
    for inst in make_corpus(n_per_class=12):
        if kept[inst.label]:
            kept[inst.label] -= 1
            corpus.append(inst)
    return corpus


def failing_smo():
    """An svm.smo_solve that raises SvmTrainingError on the full fit of the
    uneven_corpus pair COMPARE/TOPIC (12 against 8 instances; a calibration
    fold has fewer than 12 positives) and solves every other problem."""
    solve = svm.smo_solve

    def smo_solve(K, y, C, *rest):
        if (int((y > 0).sum()), int((y < 0).sum())) == (12, 8):
            raise svm.SvmTrainingError("no solution for pair COMPARE/TOPIC")
        return solve(K, y, C, *rest)

    return smo_solve


# the bundled example sentence: "Combination methods are an effective way of
# improving system performance", e1 = "combination methods", e2 = "system
# performance", label RESULT
EXAMPLE_TOKENS = (
    TokenAnnotation("Combination", "combination", "NOUN"),
    TokenAnnotation("methods", "method", "NOUN"),
    TokenAnnotation("are", "be", "VERB"),
    TokenAnnotation("an", "an", "DET"),
    TokenAnnotation("effective", "effective", "ADJ"),
    TokenAnnotation("way", "way", "NOUN"),
    TokenAnnotation("of", "of", "ADP"),
    TokenAnnotation("improving", "improve", "VERB"),
    TokenAnnotation("system", "system", "NOUN"),
    TokenAnnotation("performance", "performance", "NOUN"),
)


@pytest.fixture
def example_instance():
    return RelationInstance(id="fixture-1", tokens=EXAMPLE_TOKENS, e1=(0, 1), e2=(8, 9),
                            label=RelationLabel.RESULT, reverse=False, subtask="1.1")


@pytest.fixture
def toy_table():
    return EmbeddingTable(["a", "b"], [[1.0, 0.0], [0.0, 1.0]], name="toy")


@pytest.fixture(scope="session")
def fixture_corpus_path():
    return fixture_path("example_corpus.jsonl")


@pytest.fixture(scope="session")
def fixture_embeddings_path():
    return fixture_path("toy_embeddings.txt")


@pytest.fixture(scope="session")
def fixture_levin_path():
    return fixture_path("levin_small.tsv")


@pytest.fixture(scope="session")
def levin(fixture_levin_path):
    return load_levin_table(fixture_levin_path)


@pytest.fixture(scope="session")
def syn_corpus():
    return make_corpus()


@pytest.fixture(scope="session")
def syn_table():
    return make_embedding_table()
