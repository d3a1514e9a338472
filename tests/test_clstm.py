import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import conv_maps, make_instance, tok
from oracles import conv1d_oracle, finite_diff_grads, lstm_oracle, relative_error
from relclass.clstm import (
    PARAM_NAMES,
    AdamState,
    Hyperparams,
    adam_step,
    backward_batch,
    batch_loss,
    build_sequence,
    forward_batch,
    init_params,
    load_clstm_model,
    n_windows,
    pad,
    save_clstm_model,
    softmax,
    train,
)
from relclass.corpus import RelationLabel, build_lemma_counts
from relclass.embeddings import EmbeddingTable
from relclass.synthetic import make_corpus, make_embedding_table

TINY = Hyperparams(num_filters=4, filter_width=2, rnn_units=5, dropout_rate=0.0,
                   l2_scale=0.37, stride=1, batch_size=2, epochs=1, seed=123)

# 20 instances, 2 classes; lr raised so 100 full-batch steps actually
# overfit (the default 0.002 stalls on the two-class prior plateau)
OVERFIT = Hyperparams(num_filters=16, filter_width=2, rnn_units=16, dropout_rate=0.0,
                      l2_scale=0.0, epochs=100, seed=3, batch_size=128,
                      learning_rate=0.02)


def overfit_corpus():
    keep = (RelationLabel.COMPARE, RelationLabel.RESULT)
    return [i for i in make_corpus(n_per_class=10, seed=21) if i.label in keep]


def tiny_params(seed=5):
    return init_params(3, TINY, np.random.default_rng(seed))


@pytest.fixture(scope="module")
def overfit_model():
    return train(overfit_corpus(), make_embedding_table(), OVERFIT, freq_threshold=1)


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        Hyperparams(num_filters=0)
    with pytest.raises(ValueError):
        Hyperparams(dropout_rate=1.0)
    with pytest.raises(ValueError):
        Hyperparams(l2_scale=-0.1)
    with pytest.raises(ValueError):
        Hyperparams(stride=0)


def test_build_sequence_entity_only():
    table = EmbeddingTable({"a": [1.0, 0.0], "b": [0.0, 1.0]})
    inst = make_instance([tok("A", "a"), tok("B", "b")], e1=(0, 0), e2=(1, 1))
    I = build_sequence(inst, table, build_lemma_counts([inst]), threshold=1)
    assert I.shape == (2, 2)
    assert np.array_equal(I[:, 0], [1.0, 0.0])
    assert np.array_equal(I[:, 1], [0.0, 1.0])


def test_build_sequence_example_sentence(example_instance, fixture_embeddings_path):
    from relclass.embeddings import load_table
    table = load_table(fixture_embeddings_path)
    freq = build_lemma_counts([example_instance])
    I = build_sequence(example_instance, table, freq, threshold=1)
    # 2 entity columns + 6 context columns
    assert I.shape == (2, 8)


def test_build_sequence_respects_reverse():
    table = EmbeddingTable({"a": [1.0, 0.0], "b": [0.0, 1.0]})
    from relclass.corpus import RelationInstance
    toks = (tok("A", "a"), tok("x"), tok("B", "b"))
    fwd = RelationInstance(id="f", tokens=toks, e1=(0, 0), e2=(2, 2),
                           label=None, reverse=False, subtask="1.1")
    rev = RelationInstance(id="r", tokens=toks, e1=(0, 0), e2=(2, 2),
                           label=None, reverse=True, subtask="1.1")
    freq = build_lemma_counts([fwd])
    assert np.array_equal(build_sequence(fwd, table, freq, 1)[:, 0], [1.0, 0.0])
    assert np.array_equal(build_sequence(rev, table, freq, 1)[:, 0], [0.0, 1.0])


def test_pad_appends_zero_columns():
    I = np.ones((3, 5))
    out = pad(I, 8)
    assert out.shape == (3, 8)
    assert np.array_equal(out[:, :5], I)
    assert np.all(out[:, 5:] == 0.0)


def test_pad_identity_at_l_max():
    I = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(pad(I, 3), I)


def test_pad_rejects_overlong():
    with pytest.raises(ValueError):
        pad(np.ones((2, 5)), 4)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 4))
def test_pad_preserves_column_sums(v, l_s, extra):
    rng = np.random.default_rng(v * 100 + l_s * 10 + extra)
    I = rng.normal(size=(v, l_s))
    out = pad(I, l_s + extra)
    assert np.allclose(out.sum(axis=0)[:l_s], I.sum(axis=0))
    assert np.all(out.sum(axis=0)[l_s:] == 0.0)


def test_n_windows():
    assert n_windows(8, 3, 1) == 6
    assert n_windows(8, 8, 1) == 1
    assert n_windows(9, 3, 2) == 4
    with pytest.raises(ValueError):
        n_windows(2, 3, 1)


def test_conv_zero_input_zero_bias():
    filters = np.random.default_rng(0).normal(size=(4, 6))
    out = conv_maps(np.zeros((2, 5)), filters, np.zeros(4), 1)
    assert out.shape == (4, 3)
    assert np.all(out == 0.0)


def test_conv_matches_oracle_on_random_shapes():
    rng = np.random.default_rng(8)
    for _ in range(20):
        v = int(rng.integers(1, 5))
        l_max = int(rng.integers(2, 9))
        ws = int(rng.integers(1, l_max + 1))
        k = int(rng.integers(1, 6))
        stride = int(rng.integers(1, 3))
        I_pad = rng.normal(size=(v, l_max))
        filters = rng.normal(size=(k, v * ws))
        bias = rng.normal(size=k)
        ours = conv_maps(I_pad, filters, bias, stride)
        ref = conv1d_oracle(I_pad, filters, bias, stride)
        assert relative_error(ours, ref) <= 1e-12


def test_lstm_matches_unrolled_oracle():
    rng = np.random.default_rng(11)
    hyper = Hyperparams(num_filters=2, filter_width=2, rnn_units=3)
    params = init_params(2, hyper, rng)
    batch = rng.normal(size=(1, 2, 6))
    cache = forward_batch(batch, params, hyper)
    xs = conv1d_oracle(batch[0], params["conv_w"], params["conv_b"], 1).T
    assert len(xs) == 5 and np.any(xs > 0)
    ref = lstm_oracle(xs, params)
    assert relative_error(cache.hiddens[-1, 0], ref) <= 1e-12


def test_lstm_zero_parameters_give_zero_state():
    hyper = Hyperparams(num_filters=2, filter_width=2, rnn_units=3)
    params = {name: np.zeros_like(p) if name[:2] in ("w_", "u_", "b_") else p
              for name, p in init_params(2, hyper, np.random.default_rng(0)).items()}
    params["conv_b"] = np.ones(2)
    cache = forward_batch(np.ones((1, 2, 5)), params, hyper)
    assert np.all(cache.xs > 0)
    assert np.array_equal(cache.hiddens, np.zeros((5, 1, 3)))


def test_softmax_uniform_and_normalized():
    assert softmax(np.zeros(6)) == pytest.approx(np.full(6, 1 / 6))
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = softmax(rng.normal(size=6) * 10)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(p > 0)


def test_classify_zero_weights_uniform():
    params = tiny_params()
    params["soft_w"] = np.zeros((6, 5))
    params["soft_b"] = np.zeros(6)
    batch = np.random.default_rng(0).normal(size=(1, 3, 6))
    probs = forward_batch(batch, params, TINY).probs[0]
    assert probs == pytest.approx(np.full(6, 1 / 6))


def test_classify_dropout_zero_equals_inference():
    params = tiny_params()
    batch = np.random.default_rng(1).normal(size=(1, 3, 6))
    assert TINY.dropout_rate == 0.0
    trained = forward_batch(batch, params, TINY, training=True,
                            rng=np.random.default_rng(99)).probs
    assert np.array_equal(trained, forward_batch(batch, params, TINY).probs)


def test_init_params_shapes_and_forget_bias():
    params = tiny_params()
    assert set(params) == set(PARAM_NAMES)
    assert params["conv_w"].shape == (4, 3 * 2)
    assert params["w_i"].shape == (5, 4)
    assert params["u_g"].shape == (5, 5)
    assert params["soft_w"].shape == (6, 5)
    assert np.all(params["b_f"] == 1.0)
    assert np.all(params["b_i"] == 0.0)
    assert np.abs(params["conv_w"]).max() <= 0.1


def test_batch_loss_uniform_is_log6():
    hyper = Hyperparams(num_filters=2, filter_width=2, rnn_units=3, l2_scale=0.0)
    params = {name: np.zeros_like(p)
              for name, p in init_params(2, hyper, np.random.default_rng(0)).items()}
    batch = np.random.default_rng(1).normal(size=(3, 2, 4))
    cache = forward_batch(batch, params, hyper)
    loss = batch_loss(cache, np.array([0, 3, 5]), params, l2_scale=0.0)
    assert abs(loss - math.log(6)) <= 1e-6


def test_batch_loss_l2_term_scales_linearly():
    params = tiny_params()
    batch = np.random.default_rng(1).normal(size=(2, 3, 6))
    cache = forward_batch(batch, params, TINY)
    gold = np.array([2, 5])
    base = batch_loss(cache, gold, params, l2_scale=0.0)
    reg1 = batch_loss(cache, gold, params, l2_scale=0.37) - base
    reg2 = batch_loss(cache, gold, params, l2_scale=0.74) - base
    assert reg2 == pytest.approx(2.0 * reg1, abs=1e-12)
    assert reg1 == pytest.approx(0.37 * 0.5 * np.sum(params["soft_w"] ** 2), abs=1e-12)


def test_perfect_prediction_loss_is_regularizer_only():
    # drive one logit to dominance via a huge softmax weight
    hyper = Hyperparams(num_filters=2, filter_width=2, rnn_units=3, l2_scale=0.0)
    params = init_params(2, hyper, np.random.default_rng(0))
    params["soft_w"] = np.zeros((6, 3))
    params["soft_b"] = np.array([50.0, 0, 0, 0, 0, 0])
    batch = np.random.default_rng(1).normal(size=(2, 2, 4))
    cache = forward_batch(batch, params, hyper)
    assert batch_loss(cache, np.array([0, 0]), params, l2_scale=0.0) <= 1e-12


def test_gradients_match_finite_differences():
    params = tiny_params(seed=5)
    hyper = TINY
    batch = np.random.default_rng(99).normal(0, 1, (2, 3, 6))
    gold = np.array([2, 5])

    cache = forward_batch(batch, params, hyper)
    grads = backward_batch(cache, gold, params, hyper)

    def loss_fn():
        return batch_loss(forward_batch(batch, params, hyper), gold, params, hyper.l2_scale)

    numeric = finite_diff_grads(loss_fn, params)
    for name in PARAM_NAMES:
        assert relative_error(grads[name], numeric[name]) < 1e-4, name


def test_gradient_deterministic_under_fixed_dropout_seed():
    hyper = Hyperparams(num_filters=4, filter_width=2, rnn_units=5,
                        dropout_rate=0.4, l2_scale=0.0, batch_size=2)
    params = tiny_params()
    batch = np.random.default_rng(7).normal(size=(2, 3, 6))
    gold = np.array([1, 4])
    runs = []
    for _ in range(2):
        cache = forward_batch(batch, params, hyper, training=True,
                              rng=np.random.default_rng(55))
        runs.append(backward_batch(cache, gold, params, hyper))
    for name in PARAM_NAMES:
        assert np.array_equal(runs[0][name], runs[1][name])


def test_adam_zero_gradient_is_identity():
    params = tiny_params()
    before = {n: p.copy() for n, p in params.items()}
    state = AdamState.zeros_like(params)
    adam_step(params, {n: np.zeros_like(p) for n, p in params.items()}, state)
    assert state.t == 1
    for name in PARAM_NAMES:
        assert np.array_equal(params[name], before[name])


def test_adam_first_step_magnitude_is_lr():
    params = {"x": np.array([0.0, 0.0])}
    state = AdamState.zeros_like(params)
    adam_step(params, {"x": np.array([3.0, -0.2])}, state, lr=0.002)
    # bias-corrected first step moves every coordinate by ~lr * sign(g)
    assert np.abs(np.abs(params["x"]) - 0.002).max() <= 1e-6


def test_adam_descends_quadratic():
    params = {"x": np.array([1.0])}
    state = AdamState.zeros_like(params)
    for _ in range(50):
        adam_step(params, {"x": 2.0 * params["x"]}, state, lr=0.1)
    assert abs(params["x"][0]) < 1.0


def test_training_overfits_tiny_set(overfit_model):
    assert overfit_model.loss_history[-1] < 0.05
    drops = sum(1 for a, b in zip(overfit_model.loss_history,
                                  overfit_model.loss_history[1:]) if b <= a + 1e-12)
    assert drops >= 90


def test_overfit_model_predicts_training_labels(overfit_model):
    corpus = overfit_corpus()
    pred = overfit_model.predict_many(corpus)
    assert all(p == inst.label for p, inst in zip(pred, corpus))
    probs = overfit_model.predict_proba_many(corpus)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_training_is_seed_reproducible():
    corpus = overfit_corpus()
    table = make_embedding_table()
    hyper = Hyperparams(num_filters=8, filter_width=2, rnn_units=8, epochs=3,
                        dropout_rate=0.3, seed=42, batch_size=8)
    a = train(corpus, table, hyper, freq_threshold=1)
    b = train(corpus, table, hyper, freq_threshold=1)
    assert a.loss_history == b.loss_history
    for name in PARAM_NAMES:
        assert np.array_equal(a.params[name], b.params[name])


def test_embeddings_stay_frozen():
    corpus = overfit_corpus()
    table = make_embedding_table()
    before = {t: table.lookup(t).copy() for t in table.tokens()}
    hyper = Hyperparams(num_filters=4, filter_width=2, rnn_units=4, epochs=2,
                        seed=0, batch_size=8)
    train(corpus, table, hyper, freq_threshold=1)
    for t, vec in before.items():
        assert np.array_equal(table.lookup(t), vec)


def test_train_rejects_unlabeled_and_overlong_filters():
    corpus = overfit_corpus()
    table = make_embedding_table()
    from relclass.corpus import RelationInstance
    unlabeled = RelationInstance(id="u", tokens=corpus[0].tokens, e1=corpus[0].e1,
                                 e2=corpus[0].e2, label=None, reverse=False,
                                 subtask="1.1")
    with pytest.raises(ValueError):
        train(corpus + [unlabeled], table, OVERFIT, freq_threshold=1)
    wide = Hyperparams(num_filters=4, filter_width=100, rnn_units=4, epochs=1)
    with pytest.raises(ValueError):
        train(corpus, table, wide, freq_threshold=1)


def test_clstm_model_file_roundtrip(overfit_model, tmp_path):
    corpus = overfit_corpus()
    table = make_embedding_table()
    path = tmp_path / "clstm.json"
    save_clstm_model(overfit_model, path)
    loaded = load_clstm_model(path, table)
    assert loaded.l_max == overfit_model.l_max
    assert np.array_equal(loaded.predict_proba_many(corpus),
                          overfit_model.predict_proba_many(corpus))
    again = tmp_path / "clstm2.json"
    save_clstm_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_model_truncates_overlong_inputs_with_warning(overfit_model, caplog):
    # context lemmas must survive the training-corpus frequency filter,
    # otherwise the sequence collapses to the two entity columns
    middle = [tok("model", pos="NOUN")] * 28
    long_inst = make_instance(
        [tok("parser", pos="NOUN"), *middle, tok("corpus", pos="NOUN")],
        e1=(0, 0), e2=(29, 29), label=RelationLabel.USAGE, id="long",
    )
    import logging
    with caplog.at_level(logging.WARNING, logger="relclass.clstm"):
        probs = overfit_model.predict_proba(long_inst)
    assert abs(sum(probs.values()) - 1.0) <= 1e-9
    assert any("truncat" in r.getMessage() for r in caplog.records)
