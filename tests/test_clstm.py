import math
import multiprocessing
import os
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import conv_maps, feature_maps, force_cpus, make_instance, tok
from oracles import (
    adam_step_reference,
    clstm_dense_reference,
    conv1d_oracle,
    finite_diff_grads,
    lstm_oracle,
    relative_error,
)
from relclass import clstm, parallel
from relclass.clstm import (
    PARAM_NAMES,
    AdamState,
    Hyperparams,
    adam_step,
    backward_batch,
    batch_loss,
    build_sequence,
    dropout_mask,
    forward_batch,
    init_params,
    load_clstm_model,
    n_windows,
    pad,
    save_clstm_model,
    softmax,
    train,
)
from relclass.corpus import LABELS, RelationLabel, build_lemma_counts
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


@pytest.mark.parametrize("field, value", [
    ("rnn_units", 93.0), ("batch_size", True), ("epochs", "2"), ("seed", None),
    ("dropout_rate", False), ("l2_scale", "0.5"), ("learning_rate", None),
])
def test_hyperparams_reject_wrong_types(field, value):
    with pytest.raises(ValueError, match=field):
        Hyperparams(**{field: value})


def test_hyperparams_accept_ints_for_floats():
    hyper = Hyperparams(dropout_rate=0, l2_scale=1, learning_rate=1)
    assert hyper.dropout_rate == 0 and hyper.l2_scale == 1


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
    I, J = np.ones((3, 5)), np.full((3, 2), 2.0)
    out = pad([I, J], 8)
    assert out.shape == (2, 3, 8)
    assert np.array_equal(out[0, :, :5], I)
    assert np.array_equal(out[1, :, :2], J)
    assert np.all(out[0, :, 5:] == 0.0)
    assert np.all(out[1, :, 2:] == 0.0)


def test_pad_identity_at_l_max():
    I = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(pad([I, -I], 3), np.stack([I, -I]))


def test_pad_rejects_overlong():
    with pytest.raises(ValueError):
        pad([np.ones((2, 3)), np.ones((2, 5))], 4)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 4))
def test_pad_preserves_column_sums(v, l_s, extra):
    rng = np.random.default_rng(v * 100 + l_s * 10 + extra)
    I = rng.normal(size=(v, l_s))
    out = pad([I], l_s + extra)[0]
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
    assert np.all(feature_maps(cache) > 0)
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
    rng = np.random.default_rng(99)
    mask = dropout_mask(TINY, 1, rng)
    # no draw: the RNG order of training does not depend on the mask
    assert rng.random() == np.random.default_rng(99).random()
    trained = forward_batch(batch, params, TINY, mask).probs
    assert np.array_equal(trained, forward_batch(batch, params, TINY).probs)


def test_dropout_mask_keeps_with_inverted_scaling():
    hyper = Hyperparams(num_filters=4, filter_width=2, rnn_units=5, dropout_rate=0.25)
    mask = dropout_mask(hyper, 400, np.random.default_rng(3))
    assert mask.shape == (400, 5)
    assert set(np.unique(mask)) == {0.0, 1.0 / 0.75}
    assert abs((mask > 0).mean() - 0.75) < 0.05


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


def batch_gradient(cache, gold, params, hyper):
    """The gradient of batch_loss as training composes it for a batch of one
    shard: backward_batch's cross-entropy term plus the L2 term."""
    grads = backward_batch(cache, gold, params, hyper, len(gold))
    grads["soft_w"] += hyper.l2_scale * params["soft_w"]
    return grads


def assert_gradients_match_finite_differences(batch, gold, params, hyper):
    grads = batch_gradient(forward_batch(batch, params, hyper), gold, params, hyper)

    def loss_fn():
        return batch_loss(forward_batch(batch, params, hyper), gold, params, hyper.l2_scale)

    numeric = finite_diff_grads(loss_fn, params)
    for name in PARAM_NAMES:
        assert relative_error(grads[name], numeric[name]) < 1e-4, name


def test_gradients_match_finite_differences():
    batch = np.random.default_rng(99).normal(0, 1, (2, 3, 6))
    assert_gradients_match_finite_differences(batch, np.array([2, 5]), tiny_params(seed=5), TINY)


def test_gradients_match_finite_differences_on_padded_batch():
    # right padding, one zero column mid-sequence and one all-zero instance,
    # so the dead-window terms of the gradient are exercised; conv_b away
    # from 0, so relu(conv_b) has no kink within the difference step
    params = tiny_params(seed=5)
    params["conv_b"] = np.array([0.3, -0.2, 0.1, -0.4])
    batch = np.random.default_rng(99).normal(0, 1, (3, 3, 6))
    batch[0, :, 4:] = 0.0
    batch[1, :, 2] = 0.0
    batch[2] = 0.0
    live = forward_batch(batch, params, TINY).live
    assert live.any() and not live.all()
    assert_gradients_match_finite_differences(batch, np.array([2, 5, 0]), params, TINY)


def _dense_reference_cases():
    """(name, batch, hyper) triples: seeded batches with and without dead
    windows, over filter widths 1-5 and strides 1-3."""
    rng = np.random.default_rng(17)
    v, B = 3, 4
    for ws in range(1, 6):
        for st in range(1, 4):
            l_max = ws + int(rng.integers(2, 9))
            hyper = Hyperparams(num_filters=5, filter_width=ws, rnn_units=4, stride=st,
                                dropout_rate=0.3 if (ws + st) % 2 else 0.0, l2_scale=0.2)
            ragged = rng.normal(size=(B, v, l_max))
            for b, length in enumerate(rng.integers(1, l_max, size=B)):
                ragged[b, :, length:] = 0.0
            # instance 0 unpadded, but its window 1 (columns st to st + ws) dead
            ragged[0] = rng.normal(size=(v, l_max))
            ragged[0, :, st : st + ws] = 0.0
            ragged[-1] = 0.0
            yield f"ragged ws={ws} st={st}", ragged, hyper
    hyper = Hyperparams(num_filters=5, filter_width=3, rnn_units=4, dropout_rate=0.3)
    yield "no padding", rng.normal(size=(B, v, 9)), hyper
    yield "all zero", np.zeros((B, v, 9)), hyper


def test_live_windows_match_dense_reference():
    rng = np.random.default_rng(23)
    seen = set()
    for name, batch, hyper in _dense_reference_cases():
        params = init_params(batch.shape[1], hyper, rng)
        # mixed signs, so relu(conv_b) has zero and positive entries
        params["conv_b"] = rng.normal(size=hyper.num_filters)
        params["conv_b"][:2] = [-0.5, 0.5]
        gold = rng.integers(0, 6, size=batch.shape[0])
        training = hyper.dropout_rate > 0.0
        # the mask the reference draws from the same seed
        mask = dropout_mask(hyper, batch.shape[0], np.random.default_rng(1)) if training else None
        cache = forward_batch(batch, params, hyper, mask)
        grads = batch_gradient(cache, gold, params, hyper)
        ref, ref_grads = clstm_dense_reference(batch, gold, params, hyper, training,
                                               np.random.default_rng(1))
        seen.add("all live" if cache.live.all() else "none live" if not cache.live.any()
                 else "mixed")
        assert relative_error(cache.probs, ref.probs) <= 1e-12, name
        assert relative_error(cache.hiddens, ref.hiddens) <= 1e-12, name
        assert relative_error(cache.cells, ref.cells) <= 1e-12, name
        assert relative_error(feature_maps(cache), ref.xs) <= 1e-12, name
        for param in PARAM_NAMES:
            assert relative_error(grads[param], ref_grads[param]) <= 1e-12, (name, param)
    assert seen == {"all live", "none live", "mixed"}


def test_gradient_deterministic_under_fixed_dropout_seed():
    hyper = Hyperparams(num_filters=4, filter_width=2, rnn_units=5,
                        dropout_rate=0.4, l2_scale=0.0, batch_size=2)
    params = tiny_params()
    batch = np.random.default_rng(7).normal(size=(2, 3, 6))
    gold = np.array([1, 4])
    runs = []
    for _ in range(2):
        mask = dropout_mask(hyper, 2, np.random.default_rng(55))
        cache = forward_batch(batch, params, hyper, mask)
        runs.append(backward_batch(cache, gold, params, hyper, 2))
    for name in PARAM_NAMES:
        assert np.array_equal(runs[0][name], runs[1][name])


def test_backward_pass_peak_stays_below_the_gates():
    # B=64, v=20, l_max=30, k=16, u=50, sequences of 3 to 29 columns: the
    # gates are 28 x 64 x 4 x 50 floats (2.9 MB). The pass writes its gate
    # gradients over them, so everything else it allocates stays smaller.
    hyper = Hyperparams(num_filters=16, filter_width=3, rnn_units=50, dropout_rate=0.23,
                        batch_size=64)
    rng = np.random.default_rng(4)
    params = init_params(20, hyper, rng)
    batch = rng.normal(size=(64, 20, 30))
    for b, length in enumerate(rng.integers(3, 30, size=64)):
        batch[b, :, length:] = 0.0
    cache = forward_batch(batch, params, hyper, dropout_mask(hyper, 64, rng))
    gates_bytes = cache.gates.nbytes
    gold = rng.integers(0, 6, size=64)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        backward_batch(cache, gold, params, hyper, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < gates_bytes


def test_adam_zero_gradient_is_identity():
    params = tiny_params()
    before = {n: p.copy() for n, p in params.items()}
    state = AdamState.zeros_like(params)
    adam_step(params, {n: np.zeros_like(p) for n, p in params.items()}, state, lr=0.002)
    assert state.t == 1
    for name in PARAM_NAMES:
        assert np.array_equal(params[name], before[name])


def test_adam_first_step_magnitude_is_lr():
    params = {"x": np.array([0.0, 0.0])}
    state = AdamState.zeros_like(params)
    adam_step(params, {"x": np.array([3.0, -0.2])}, state, lr=0.002)
    # bias-corrected first step moves every coordinate by ~lr * sign(g)
    assert np.abs(np.abs(params["x"]) - 0.002).max() <= 1e-6


def test_adam_step_matches_reference_bitwise():
    rng = np.random.default_rng(4)
    params = tiny_params()
    ref_params = {n: p.copy() for n, p in params.items()}
    state = AdamState.zeros_like(params)
    ref_state = AdamState.zeros_like(params)
    for _ in range(20):
        grads = {n: rng.normal(size=p.shape) for n, p in params.items()}
        adam_step(params, grads, state, lr=0.01)
        adam_step_reference(ref_params, grads, ref_state, lr=0.01)
    for name in PARAM_NAMES:
        assert np.array_equal(params[name], ref_params[name]), name
        assert np.array_equal(state.m[name], ref_state.m[name]), name
        assert np.array_equal(state.v[name], ref_state.v[name]), name


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


@pytest.mark.parametrize("epochs", [0, 2])
def test_train_windows_count_the_padded_corpus(epochs):
    corpus = make_corpus(n_per_class=4, seed=0)  # sequences of 5 to 8 columns
    table = make_embedding_table()
    hyper = Hyperparams(num_filters=4, filter_width=2, rnn_units=5, stride=2,
                        batch_size=5, epochs=epochs, seed=1)
    model = train(corpus, table, hyper, freq_threshold=1)
    freq = build_lemma_counts(corpus)
    padded = pad([build_sequence(inst, table, freq, 1) for inst in corpus], model.l_max)
    m = n_windows(model.l_max, 2, 2)
    live = sum(padded[b, :, 2 * j : 2 * j + 2].any() for b in range(len(corpus)) for j in range(m))
    assert model.windows == (live, len(corpus) * m)
    assert 0 < live < len(corpus) * m


def test_training_holds_one_batch_working_set(monkeypatch):
    # both shards in this process: no earlier shard's batch or cache is alive
    # when a forward pass starts, and the padded shard is freed before its
    # own backward pass starts
    force_cpus(monkeypatch, 1)
    batches, caches, backward_calls = [], [], []

    def alive(refs):
        return sum(ref() is not None for ref in refs)

    def watched_forward(batch, *args, **kwargs):
        assert alive(batches + caches) == 0
        batches.append(weakref.ref(batch))
        cache = forward_batch(batch, *args, **kwargs)
        caches.append(weakref.ref(cache))
        return cache

    def watched_backward(cache, *args, **kwargs):
        assert alive(batches[-1:]) == 0
        backward_calls.append(len(batches))
        return backward_batch(cache, *args, **kwargs)

    monkeypatch.setattr(clstm, "forward_batch", watched_forward)
    monkeypatch.setattr(clstm, "backward_batch", watched_backward)
    hyper = Hyperparams(num_filters=4, filter_width=2, rnn_units=5, batch_size=10, epochs=2,
                        seed=1)
    model = train(make_corpus(n_per_class=4, seed=0), make_embedding_table(), hyper,
                  freq_threshold=1)
    assert model.fit_report["workers"] == 1
    # 24 instances: 3 batches of two shards per epoch
    assert backward_calls == list(range(1, 13))


def test_train_refuses_sequences_over_the_format_limit(monkeypatch, tmp_path):
    corpus = make_corpus(n_per_class=4, seed=0)  # sequences of 5 to 8 columns
    table = make_embedding_table()
    hyper = Hyperparams(num_filters=4, filter_width=2, rnn_units=5, batch_size=10, epochs=1)
    monkeypatch.setattr(clstm, "L_MAX_LIMIT", 7)
    with pytest.raises(ValueError, match="more than a model may pad to"):
        train(corpus, table, hyper, freq_threshold=1)
    # a model at the limit is written and read back
    monkeypatch.setattr(clstm, "L_MAX_LIMIT", 8)
    model = train(corpus, table, hyper, freq_threshold=1)
    assert model.l_max == 8
    save_clstm_model(model, tmp_path / "clstm.json")
    assert load_clstm_model(tmp_path / "clstm.json", table).l_max == 8


def test_prediction_runs_in_batches_of_batch_size(monkeypatch):
    corpus = overfit_corpus()[:5]
    model = train(corpus, make_embedding_table(), TINY, freq_threshold=1)  # batch_size 2
    alone = np.vstack([model.predict_proba_many([inst]) for inst in corpus])
    sizes = []

    def counting_forward(batch, *args, **kwargs):
        sizes.append(batch.shape[0])
        return forward_batch(batch, *args, **kwargs)

    monkeypatch.setattr(clstm, "forward_batch", counting_forward)
    chunked = model.predict_proba_many(corpus)
    assert sizes == [2, 2, 1]
    assert np.abs(chunked - alone).max() <= 1e-12


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


# ---------------------------------------------------------------------------
# training in two shards per batch

# whether this process's BLAS thread count can be set; without that, both
# shards always run in this process
OPENBLAS = parallel._openblas_thread_calls() is not None
SHARDED = Hyperparams(num_filters=4, filter_width=2, rnn_units=5, dropout_rate=0.3,
                      l2_scale=0.37, batch_size=7, epochs=2, seed=4)


def _shard_state(rows, hyper):
    """A _TrainState over ``rows`` random sequences of 2 to 6 columns of 3-d
    vectors, padded to 6, with random labels and parameters, and its RNG."""
    rng = np.random.default_rng(rows)
    sequences = [rng.normal(size=(3, int(n))) for n in rng.integers(2, 7, size=rows)]
    gold = rng.integers(0, 6, size=rows)
    state = clstm._TrainState(sequences, gold, 6, hyper, clstm.param_shapes(3, hyper))
    for name, value in init_params(3, hyper, rng).items():
        state.params[name][...] = value
    # away from 0, so relu(conv_b) has no kink within a difference step
    state.params["conv_b"][...] = [0.3, -0.2, 0.1, -0.4]
    return state, rng


@pytest.mark.parametrize("rows", [1, 3, 5, 6])
def test_sharded_batch_gradient_matches_one_shard(rows):
    # shard 0 is the first ceil(rows / 2) rows; with one row, shard 1 is empty
    state, rng = _shard_state(rows, SHARDED)
    before = {name: p.copy() for name, p in state.params.items()}
    idx, mask, half = np.arange(rows), dropout_mask(SHARDED, rows, rng), (rows + 1) // 2
    ce = clstm._shard_gradient(state, 0, idx[:half], mask[:half], rows)
    ce += clstm._shard_gradient(state, 1, idx[half:], mask[half:], rows)
    clstm._update(state, 0, 1)
    clstm._update(state, 1, 1)
    # the two halves of the update leave the batch gradient in shard 0's buffer
    sharded = state.shard_grads[0]

    batch = pad(state.sequences, 6)
    cache = forward_batch(batch, before, SHARDED, mask)
    loss = batch_loss(cache, state.gold, before, SHARDED.l2_scale)
    assert abs(ce / rows + clstm._l2_penalty(before, SHARDED.l2_scale) - loss) <= 1e-12 * loss
    whole = batch_gradient(cache, state.gold, before, SHARDED)
    for name in PARAM_NAMES:
        assert relative_error(sharded[name], whole[name]) <= 1e-12, name

    # the update is one Adam step of that gradient, bit for bit
    adam_state = AdamState.zeros_like(before)
    stepped = {name: p.copy() for name, p in before.items()}
    adam_step(stepped, {name: sharded[name] for name in PARAM_NAMES}, adam_state,
              lr=SHARDED.learning_rate)
    for name in PARAM_NAMES:
        assert np.array_equal(state.params[name], stepped[name]), name

    numeric = finite_diff_grads(
        lambda: batch_loss(forward_batch(batch, before, SHARDED, mask), state.gold, before,
                           SHARDED.l2_scale),
        before,
    )
    for name in PARAM_NAMES:
        assert relative_error(sharded[name], numeric[name]) < 1e-4, name


@pytest.mark.parametrize("batch_size", [1, 7])
@pytest.mark.parametrize("cpus", [1, 2])
def test_sharded_training_matches_the_one_shard_loop(monkeypatch, batch_size, cpus):
    # the loop the shards replace: each batch's forward and backward pass at
    # once, its L2 term added, Adam per tensor
    force_cpus(monkeypatch, cpus)
    corpus, table = make_corpus(n_per_class=4, seed=0), make_embedding_table()
    hyper = replace(SHARDED, batch_size=batch_size)
    model = train(corpus, table, hyper, freq_threshold=1)

    freq = build_lemma_counts(corpus)
    sequences = [build_sequence(inst, table, freq, 1) for inst in corpus]
    gold = np.array([LABELS.index(inst.label) for inst in corpus])
    rng = np.random.default_rng(hyper.seed)
    params = init_params(table.dim, hyper, rng)
    state = AdamState.zeros_like(params)
    history = []
    for _ in range(hyper.epochs):
        order, losses = rng.permutation(len(corpus)), []
        for start in range(0, len(corpus), batch_size):
            idx = order[start : start + batch_size]
            mask = dropout_mask(hyper, len(idx), rng)
            cache = forward_batch(pad([sequences[i] for i in idx], model.l_max), params, hyper,
                                  mask)
            losses.append(batch_loss(cache, gold[idx], params, hyper.l2_scale))
            adam_step(params, batch_gradient(cache, gold[idx], params, hyper), state,
                      lr=hyper.learning_rate)
        history.append(float(np.mean(losses)))
    assert np.allclose(model.loss_history, history, rtol=1e-12, atol=0.0)
    for name in PARAM_NAMES:
        assert relative_error(model.params[name], params[name]) <= 1e-12, name


def test_model_file_does_not_depend_on_worker_count(monkeypatch, tmp_path):
    corpus, table = make_corpus(n_per_class=4, seed=0), make_embedding_table()
    written = []
    for cpus in (1, 2):
        force_cpus(monkeypatch, cpus)
        model = train(corpus, table, SHARDED, freq_threshold=1)
        assert model.fit_report == {"workers": cpus if OPENBLAS else 1,
                                    "blas_threads": 1 if OPENBLAS else None}
        save_clstm_model(model, tmp_path / f"{cpus}.json")
        written.append((tmp_path / f"{cpus}.json").read_bytes())
    assert written[0] == written[1]


def _fail_in(monkeypatch, name, exc, in_worker):
    """Make clstm.<name> raise ``exc`` in the shard workers, or, when not
    ``in_worker``, in this process from its third call on; it runs as
    before elsewhere."""
    real, parent, calls = getattr(clstm, name), os.getpid(), []

    def failing(*args, **kwargs):
        if os.getpid() != parent:
            if in_worker:
                raise exc
        else:
            calls.append(1)
            if not in_worker and len(calls) >= 3:
                raise exc
        return real(*args, **kwargs)

    monkeypatch.setattr(clstm, name, failing)


@pytest.mark.skipif(not OPENBLAS, reason="shards run in this process without OpenBLAS")
@pytest.mark.parametrize("name", ["backward_batch", "adam_step"])
def test_shard_worker_exception_is_raised_here(monkeypatch, name):
    force_cpus(monkeypatch, 2)
    _fail_in(monkeypatch, name, ValueError(f"{name} failed in the worker"), in_worker=True)
    with pytest.raises(ValueError) as failed:
        train(make_corpus(n_per_class=4, seed=0), make_embedding_table(), SHARDED,
              freq_threshold=1)
    # the worker's exception, re-raised here with its type and message
    assert failed.type is ValueError
    assert str(failed.value) == f"{name} failed in the worker"
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("exc", [KeyboardInterrupt, RuntimeError])
@pytest.mark.parametrize("cpus", [1, 2])
def test_no_shard_worker_outlives_a_failed_train(monkeypatch, exc, cpus):
    force_cpus(monkeypatch, cpus)
    _fail_in(monkeypatch, "dropout_mask", exc(), in_worker=False)
    with pytest.raises(exc):
        train(make_corpus(n_per_class=4, seed=0), make_embedding_table(), SHARDED,
              freq_threshold=1)
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not OPENBLAS, reason="the BLAS thread count cannot be set")
@pytest.mark.parametrize("cpus", [1, 2])
def test_training_runs_at_one_blas_thread_and_restores_the_count(monkeypatch, cpus):
    force_cpus(monkeypatch, cpus)
    get, set_ = parallel._openblas_thread_calls()
    before = get()
    real = clstm.forward_batch

    def checked(*args, **kwargs):
        # in a worker, the exception comes back to train's caller
        if get() != 1:
            raise RuntimeError(f"a shard ran at {get()} BLAS threads")
        return real(*args, **kwargs)

    monkeypatch.setattr(clstm, "forward_batch", checked)
    corpus, table = make_corpus(n_per_class=4, seed=0), make_embedding_table()
    set_(2)
    try:
        outside = get()
        assert train(corpus, table, SHARDED, freq_threshold=1).fit_report["workers"] == cpus
        assert get() == outside
        _fail_in(monkeypatch, "dropout_mask", RuntimeError("step failed"), in_worker=False)
        with pytest.raises(RuntimeError, match="step failed"):
            train(corpus, table, SHARDED, freq_threshold=1)
        assert get() == outside
    finally:
        set_(before)
