import json
from dataclasses import asdict

import numpy as np
import pytest

from conftest import in_space
from relclass.clstm import Hyperparams
from relclass.search import SearchSpace, random_search, sample_config, write_trial_log
from relclass.synthetic import make_corpus, make_embedding_table


def test_space_defaults_and_validation():
    space = SearchSpace()
    assert space.num_filters == (10, 500)
    assert space.filter_width == (2, 5)
    assert space.rnn_units == (16, 500)
    assert space.dropout_rate == (0.0, 0.5)
    assert space.l2_scale == (0.0, 3.0)
    with pytest.raises(ValueError):
        SearchSpace(num_filters=(50, 10))


def test_selected_config_is_in_default_space():
    selected = Hyperparams(num_filters=384, filter_width=3, rnn_units=93,
                           dropout_rate=0.23, l2_scale=0.79)
    assert in_space(SearchSpace(), selected)


def test_space_rejects_out_of_range_config():
    assert not in_space(SearchSpace(), Hyperparams(num_filters=501))
    assert not in_space(SearchSpace(), Hyperparams(filter_width=6))
    assert not in_space(SearchSpace(), Hyperparams(rnn_units=8))


def test_sample_config_deterministic():
    space = SearchSpace()
    a = sample_config(space, np.random.default_rng(3), seed=7)
    b = sample_config(space, np.random.default_rng(3), seed=7)
    assert a == b
    assert a.seed == 7
    assert a.learning_rate == 0.002 and a.batch_size == 128 and a.epochs == 100


def test_sample_config_covers_space():
    space = SearchSpace()
    rng = np.random.default_rng(99)
    widths = set()
    for t in range(1000):
        hyper = sample_config(space, rng, seed=t)
        assert in_space(space, hyper)
        widths.add(hyper.filter_width)
    assert widths == {2, 3, 4, 5}


@pytest.fixture(scope="module")
def small_search():
    corpus = make_corpus(n_per_class=10)
    table = make_embedding_table()
    space = SearchSpace(num_filters=(4, 8), filter_width=(2, 3), rnn_units=(16, 24))
    best, results = random_search(corpus, table, n_trials=3, seed=0, space=space,
                                  fraction=0.2, freq_threshold=1, epochs=3)
    return corpus, table, space, best, results


def test_random_search_result_shape(small_search):
    _, _, space, best, results = small_search
    assert len(results) == 3
    assert all(in_space(space, r.hyper) for r in results)
    assert all(r.hyper.epochs == 3 for r in results)
    assert all(r.wall_time > 0 for r in results)
    best_macro = max(r.macro_f1 for r in results)
    winners = [r.hyper for r in results if r.macro_f1 == best_macro]
    assert best == winners[0]  # ties break toward the earlier trial


def test_random_search_reproducible(small_search):
    corpus, table, space, best, results = small_search
    best2, results2 = random_search(corpus, table, n_trials=3, seed=0, space=space,
                                    fraction=0.2, freq_threshold=1, epochs=3)
    assert best2 == best
    # everything but the wall clock must be identical
    for a, b in zip(results, results2):
        assert (a.hyper, a.macro_f1, a.micro_f1) == (b.hyper, b.macro_f1, b.micro_f1)


def test_random_search_single_trial(small_search):
    corpus, table, space, _, _ = small_search
    best, results = random_search(corpus, table, n_trials=1, seed=4, space=space,
                                  fraction=0.2, freq_threshold=1, epochs=2)
    assert len(results) == 1
    assert best == results[0].hyper


def test_random_search_rejects_bad_args(small_search):
    corpus, table, space, _, _ = small_search
    with pytest.raises(ValueError):
        random_search(corpus, table, n_trials=0, space=space)
    with pytest.raises(ValueError):
        random_search(corpus, table, n_trials=1, space=space, fraction=0.0)


def test_trial_log_roundtrip(small_search, tmp_path):
    _, _, _, _, results = small_search
    path = tmp_path / "trials.jsonl"
    write_trial_log(results, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(results)
    for line, result in zip(lines, results):
        record = json.loads(line)
        assert record == asdict(result)
        assert record["hyper"]["num_filters"] == result.hyper.num_filters
