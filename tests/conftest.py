"""Shared fixtures and small builders for the test suite."""

import os

import numpy as np
import pytest

from relclass import svm
from relclass.cli import fixture_path
from relclass.clstm import Hyperparams, forward_batch, init_params
from relclass.corpus import LABELS, RelationInstance, RelationLabel, TokenAnnotation
from relclass.embeddings import EmbeddingTable
from relclass.features import load_levin_table
from relclass.synthetic import make_corpus, make_embedding_table


def tok(text, lemma=None, pos="NOUN"):
    return TokenAnnotation(text=text, lemma=lemma if lemma is not None else text.lower(), pos=pos)


def make_instance(tokens, e1, e2, label=RelationLabel.USAGE, reverse=False,
                  id="t-0", subtask="1.1"):
    return RelationInstance(id=id, tokens=tuple(tokens), e1=e1, e2=e2,
                            label=label, reverse=reverse, subtask=subtask)


def feature_maps(cache):
    """The (m, B, k) conv feature maps of a forward_batch cache: the stored
    maps at the live windows, relu(conv_b) at every dead one."""
    m, B = cache.live.shape
    xs = np.broadcast_to(cache.x_dead, (m, B, cache.x_dead.size)).copy()
    xs[cache.live] = cache.x_live
    return xs


def conv_maps(I_pad, filters, bias, stride):
    """The k x m conv feature maps of one padded instance, read from the
    forward_batch cache of a batch of one."""
    v = I_pad.shape[0]
    k, flat = filters.shape
    hyper = Hyperparams(num_filters=k, filter_width=flat // v, rnn_units=1, stride=stride)
    params = init_params(v, hyper, np.random.default_rng(0))
    params.update(conv_w=filters, conv_b=bias)
    return feature_maps(forward_batch(I_pad[None], params, hyper))[:, 0].T


def force_cpus(monkeypatch, n):
    """Make this process look as if it may run on n CPUs, so that both
    trainers run ``parallel.forked`` with n workers: SVM training fits its
    class pairs in n forked workers, conv-LSTM training its batch shards in
    min(n, 2) where the BLAS thread count can be set (1: in this process)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


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
    return EmbeddingTable({"a": [1.0, 0.0], "b": [0.0, 1.0]}, name="toy")


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
