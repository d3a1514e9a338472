"""Shared fixtures and small builders for the test suite."""

import numpy as np
import pytest

from relclass.cli import fixture_path
from relclass.clstm import Hyperparams, forward_batch, init_params
from relclass.corpus import RelationInstance, RelationLabel, TokenAnnotation
from relclass.embeddings import EmbeddingTable
from relclass.features import load_levin_table
from relclass.synthetic import make_corpus, make_embedding_table


def tok(text, lemma=None, pos="NOUN"):
    return TokenAnnotation(text=text, lemma=lemma if lemma is not None else text.lower(), pos=pos)


def make_instance(tokens, e1, e2, label=RelationLabel.USAGE, reverse=False,
                  id="t-0", subtask="1.1"):
    return RelationInstance(id=id, tokens=tuple(tokens), e1=e1, e2=e2,
                            label=label, reverse=reverse, subtask=subtask)


def conv_maps(I_pad, filters, bias, stride):
    """The k x m conv feature maps of one padded instance, read from the
    forward_batch cache of a batch of one."""
    v = I_pad.shape[0]
    k, flat = filters.shape
    hyper = Hyperparams(num_filters=k, filter_width=flat // v, rnn_units=1, stride=stride)
    params = init_params(v, hyper, np.random.default_rng(0))
    params.update(conv_w=filters, conv_b=bias)
    return forward_batch(I_pad[None], params, hyper).xs[:, 0].T


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
