import json
import math
import multiprocessing
import os
import tracemalloc
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    as_batch,
    assert_matches_reference,
    conv_maps,
    force_cpus,
    make_instance,
    per_gate,
    stepped,
    tok,
)
from oracles import (
    PARAM_NAMES as GATE_PARAM_NAMES,
    adam_step_reference,
    clstm_dense_reference,
    conv1d_oracle,
    dense_forward_batch,
    finite_diff_grads,
    lstm_oracle,
    n_windows,
    relative_error,
)
from relclass import clstm, parallel
from relclass.clstm import (
    PARAM_NAMES,
    Hyperparams,
    adam_step,
    backward_batch,
    batch_loss,
    build_batch,
    build_sequence,
    dropout_mask,
    forward_batch,
    init_params,
    load_clstm_model,
    save_clstm_model,
    softmax,
    train,
)
from relclass.corpus import LABELS, RelationLabel, context_vocabulary
from relclass.embeddings import EmbeddingTable
from relclass.evaluation import confusion, f1_scores
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
    # gradient ascent, or no step at all
    for learning_rate in (-5, 0, 0.0):
        with pytest.raises(ValueError, match="learning_rate must be a finite number > 0"):
            Hyperparams(learning_rate=learning_rate)


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


def dense(batch):
    """The (B, v, width) padded batch that ``batch`` stands for."""
    return batch.bank[batch.ids].transpose(0, 2, 1)


def test_build_sequence_entity_only():
    table = EmbeddingTable(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
    inst = make_instance([tok("A", "a"), tok("B", "b")], e1=(0, 0), e2=(1, 1))
    vocabulary = context_vocabulary([inst], 1)
    assert build_sequence(inst, vocabulary) == [inst.start_tokens, inst.end_tokens]
    I = dense(build_batch([inst], table, vocabulary))[0]
    assert I.shape == (2, 2)
    assert np.array_equal(I[:, 0], [1.0, 0.0])
    assert np.array_equal(I[:, 1], [0.0, 1.0])


def test_build_sequence_example_sentence(example_instance, fixture_embeddings_path):
    from relclass.embeddings import load_table
    table = load_table(fixture_embeddings_path)
    vocabulary = context_vocabulary([example_instance], 1)
    I = dense(build_batch([example_instance], table, vocabulary))[0]
    # 2 entity columns + 6 context columns
    assert I.shape == (2, 8)


def test_build_sequence_respects_reverse():
    table = EmbeddingTable(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
    from relclass.corpus import RelationInstance
    toks = (tok("A", "a"), tok("x"), tok("B", "b"))
    fwd = RelationInstance(id="f", tokens=toks, e1=(0, 0), e2=(2, 2),
                           label=None, reverse=False, subtask="1.1")
    rev = RelationInstance(id="r", tokens=toks, e1=(0, 0), e2=(2, 2),
                           label=None, reverse=True, subtask="1.1")
    vocabulary = context_vocabulary([fwd], 1)
    assert np.array_equal(dense(build_batch([fwd], table, vocabulary))[0, :, 0], [1.0, 0.0])
    assert np.array_equal(dense(build_batch([rev], table, vocabulary))[0, :, 0], [0.0, 1.0])


# a table of 2-d vectors and instances over it: "z" is a zero vector in the
# table, "q" and "r" are out of vocabulary
ID_TABLE = EmbeddingTable(["a", "b", "c", "z"], [[1.0, 0.0], [0.0, 1.0], [0.5, -2.0], [0.0, 0.0]],
                          name="ids")


def id_instance(lemmas, i=0, e1=1, e2=1):
    """An instance whose first ``e1`` lemmas are the start entity, last
    ``e2`` the end entity and the rest its context."""
    return make_instance([tok(f"{lemma}{n}", lemma) for n, lemma in enumerate(lemmas)],
                         e1=(0, e1 - 1), e2=(len(lemmas) - e2, len(lemmas) - 1), id=f"i-{i}")


def test_build_batch_points_padding_and_zero_columns_at_the_zero_row():
    insts = [id_instance("a b q c a".split(), 0), id_instance("c b z b a".split(), 1),
             id_instance("q r".split(), 2), id_instance("c a".split(), 3)]
    batch = build_batch(insts, ID_TABLE, context_vocabulary(insts, 1))
    zero = len(batch.bank) - 1
    assert batch.shape == (4, 2, 5)
    assert np.array_equal(batch.bank[zero], [0.0, 0.0])
    assert batch.bank[:zero].any(axis=1).all()
    # each nonzero column key once: the start entities "a0" and "c0", the end
    # entities "a4" (in two instances) and "a1", the context lemmas "b" and "c"
    assert len(batch.bank) == 7
    ids = batch.ids
    assert ids[0, 2] == zero  # "q" is out of vocabulary
    assert ids[0, 1] == ids[1, 1] == ids[1, 3]  # "b"
    assert ids[0, 4] == ids[1, 4]
    assert ids[1, 2] == zero  # "z" is zero in the table
    assert list(ids[3, 2:]) == [zero] * 3  # padding
    assert list(ids[2]) == [zero] * 5  # both entities out of vocabulary
    # a zero column counts in its row's length, padding does not
    assert list(batch.lengths) == [5, 5, 2, 2]
    assert np.array_equal(dense(batch)[0], np.array([[1, 0], [0, 1], [0, 0], [0.5, -2], [1, 0]]).T)


def test_build_batch_entity_columns_are_token_averages():
    insts = [id_instance("a c b a".split(), e1=2, e2=2), id_instance("a c q".split(), 1, e1=2)]
    batch = build_batch(insts, ID_TABLE, context_vocabulary(insts, 1))
    I = dense(batch)
    for column, entity in ((0, insts[0].start_tokens), (1, insts[0].end_tokens)):
        assert np.array_equal(I[0, :, column],
                              ID_TABLE.phrase_vector([t.lemma for t in entity]))
    # the same tokens, once in the bank
    assert batch.ids[0, 0] == batch.ids[1, 0]
    # "q" alone is an all-OOV entity
    assert batch.ids[1, 1] == len(batch.bank) - 1


def test_build_batch_refuses_a_sequence_over_the_limit_in_training(monkeypatch):
    insts = [id_instance("a b c a b".split()), id_instance("a b".split(), 1)]
    monkeypatch.setattr(clstm, "L_MAX_LIMIT", 4)
    with pytest.raises(ValueError, match=r"^instance i-0: its sequence has 5 columns, "
                                         r"more than a batch may hold \(4\)$"):
        build_batch(insts, ID_TABLE, context_vocabulary(insts, 1))
    monkeypatch.setattr(clstm, "L_MAX_LIMIT", 5)
    assert build_batch(insts, ID_TABLE, context_vocabulary(insts, 1)).shape == (2, 2, 5)


def test_prediction_refuses_a_sequence_over_the_limit(overfit_model, monkeypatch):
    # prediction checks the limit as training does: nothing is cut
    corpus = overfit_corpus()
    lengths = [len(build_sequence(inst, overfit_model.vocabulary)) for inst in corpus]
    longest = corpus[int(np.argmax(lengths))]
    monkeypatch.setattr(clstm, "L_MAX_LIMIT", max(lengths) - 1)
    with pytest.raises(ValueError, match=f"instance {longest.id}: its sequence has "
                                         f"{max(lengths)} columns"):
        overfit_model.predict_proba_many(corpus)
    monkeypatch.setattr(clstm, "L_MAX_LIMIT", max(lengths))
    assert overfit_model.predict_proba_many(corpus).shape == (len(corpus), len(LABELS))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.sampled_from("abczqr"), min_size=2, max_size=7), min_size=1,
                max_size=4))
def test_build_batch_stands_for_the_padded_sequences(lemma_lists):
    insts = [id_instance(lemmas, i) for i, lemmas in enumerate(lemma_lists)]
    batch = build_batch(insts, ID_TABLE, context_vocabulary(insts, 1))
    l_max = max(map(len, lemma_lists))
    out = dense(batch)
    assert out.shape == (len(insts), 2, l_max)
    assert list(batch.lengths) == list(map(len, lemma_lists))
    for b, lemmas in enumerate(lemma_lists):
        expected = np.column_stack([ID_TABLE.lookup(lemma) for lemma in lemmas])
        assert np.array_equal(out[b, :, : len(lemmas)], expected)
        assert np.all(out[b, :, len(lemmas) :] == 0.0)


def test_n_windows():
    # the dense reference's windows over a width padded by ws - 1 zero
    # columns are the steps the package gives a row that fills the width,
    # ceil(width / stride), whatever the filter width
    assert n_windows(8, 3, 1) == 6
    assert n_windows(9, 3, 2) == 4
    with pytest.raises(ValueError):
        n_windows(2, 3, 1)
    for width in range(1, 9):
        for ws in range(1, 11):
            for stride in range(1, 4):
                batch = as_batch(np.ones((1, 1, width)))
                assert clstm.row_steps(batch, stride) == [-(-width // stride)]
                assert n_windows(width + ws - 1, ws, stride) == -(-width // stride)


def test_conv_zero_input_zero_bias():
    filters = np.random.default_rng(0).normal(size=(4, 6))
    out = conv_maps(np.zeros((2, 5)), filters, np.zeros(4), 1)
    assert out.shape == (4, 5)
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
        # the oracle's windows over the width padded by ws - 1 zero columns
        ref = conv1d_oracle(np.pad(I_pad, ((0, 0), (0, ws - 1))), filters, bias, stride)
        assert relative_error(ours, ref) <= 1e-12


def test_lstm_matches_unrolled_oracle():
    rng = np.random.default_rng(11)
    hyper = Hyperparams(num_filters=2, filter_width=2, rnn_units=3)
    params = init_params(2, hyper, rng)
    batch = rng.normal(size=(1, 2, 6))
    cache = forward_batch(as_batch(batch), params, hyper, np.ones((1, 3)))
    # the last window runs past the width into one zero column
    xs = conv1d_oracle(np.pad(batch[0], ((0, 0), (0, 1))), params["conv_w"], params["conv_b"],
                       1).T
    assert len(xs) == 6 and np.any(xs > 0)
    ref = lstm_oracle(xs, per_gate(params))
    # with a mask of ones, the dropped final state is the final state
    assert relative_error(cache.h_drop[0], ref) <= 1e-12


def test_lstm_zero_parameters_give_zero_state():
    hyper = Hyperparams(num_filters=2, filter_width=2, rnn_units=3)
    params = {name: np.zeros_like(p) if name in ("w_x", "w_h", "b") else p
              for name, p in init_params(2, hyper, np.random.default_rng(0)).items()}
    params["conv_b"] = np.ones(2)
    cache = forward_batch(as_batch(np.ones((1, 2, 5))), params, hyper, np.ones((1, 3)))
    assert np.all(cache.xs > 0)
    # h_0 and the 5 windows' states
    assert np.array_equal(cache.hiddens, np.zeros((6, 3)))


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
    batch = as_batch(np.random.default_rng(0).normal(size=(1, 3, 6)))
    probs = forward_batch(batch, params, TINY)[0]
    assert probs == pytest.approx(np.full(6, 1 / 6))


def test_classify_dropout_zero_equals_inference():
    params = tiny_params()
    batch = as_batch(np.random.default_rng(1).normal(size=(1, 3, 6)))
    assert TINY.dropout_rate == 0.0
    rng = np.random.default_rng(99)
    mask = dropout_mask(TINY, 1, rng)
    # no draw: the RNG order of training does not depend on the mask
    assert rng.random() == np.random.default_rng(99).random()
    trained = forward_batch(batch, params, TINY, mask).probs
    assert np.array_equal(trained, forward_batch(batch, params, TINY))


def test_dropout_mask_keeps_with_inverted_scaling():
    hyper = Hyperparams(num_filters=4, filter_width=2, rnn_units=5, dropout_rate=0.25)
    mask = dropout_mask(hyper, 400, np.random.default_rng(3))
    assert mask.shape == (400, 5)
    assert set(np.unique(mask)) == {0.0, 1.0 / 0.75}
    assert abs((mask > 0).mean() - 0.75) < 0.05


def test_init_params_shapes_and_forget_bias():
    params = tiny_params()
    assert list(params) == list(PARAM_NAMES)
    assert params["conv_w"].shape == (4, 3 * 2)
    assert params["w_x"].shape == (20, 4)
    assert params["w_h"].shape == (20, 5)
    assert params["soft_w"].shape == (6, 5)
    gates = per_gate(params)
    assert gates["w_i"].shape == (5, 4) and gates["u_g"].shape == (5, 5)
    assert np.all(gates["b_f"] == 1.0)
    assert not (gates["b_i"].any() or gates["b_o"].any() or gates["b_g"].any())
    assert np.abs(params["conv_w"]).max() <= 0.1


@pytest.mark.parametrize("v, hyper", [(3, TINY), (7, replace(TINY, num_filters=9, rnn_units=2,
                                                                 filter_width=3))])
def test_init_params_draw_order(v, hyper):
    # seeded models depend on it: conv_w, then per gate in i, f, o, g order
    # its (u, k) input block and (u, u) recurrent block, then soft_w, all from
    # one generator
    rng = np.random.default_rng(11)
    k, u = hyper.num_filters, hyper.rnn_units
    conv_w = rng.uniform(-0.1, 0.1, size=(k, v * hyper.filter_width))
    blocks = {}
    for gate in "ifog":
        blocks["w_" + gate] = rng.uniform(-0.1, 0.1, size=(u, k))
        blocks["u_" + gate] = rng.uniform(-0.1, 0.1, size=(u, u))
    soft_w = rng.uniform(-0.1, 0.1, size=(len(LABELS), u))
    params = init_params(v, hyper, np.random.default_rng(11))
    gates = per_gate(params)
    assert params["conv_w"].tobytes() == conv_w.tobytes()
    for name, block in blocks.items():
        assert gates[name].tobytes() == block.tobytes(), name
    assert params["soft_w"].tobytes() == soft_w.tobytes()
    assert not params["conv_b"].any() and not params["soft_b"].any()


def test_batch_loss_uniform_is_log6():
    hyper = Hyperparams(num_filters=2, filter_width=2, rnn_units=3, l2_scale=0.0)
    params = {name: np.zeros_like(p)
              for name, p in init_params(2, hyper, np.random.default_rng(0)).items()}
    batch = as_batch(np.random.default_rng(1).normal(size=(3, 2, 4)))
    cache = forward_batch(batch, params, hyper, np.ones((3, 3)))
    loss = batch_loss(cache, np.array([0, 3, 5]), params, l2_scale=0.0)
    assert abs(loss - math.log(6)) <= 1e-6


def test_batch_loss_l2_term_scales_linearly():
    params = tiny_params()
    batch = as_batch(np.random.default_rng(1).normal(size=(2, 3, 6)))
    cache = forward_batch(batch, params, TINY, np.ones((2, 5)))
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
    batch = as_batch(np.random.default_rng(1).normal(size=(2, 2, 4)))
    cache = forward_batch(batch, params, hyper, np.ones((2, 3)))
    assert batch_loss(cache, np.array([0, 0]), params, l2_scale=0.0) <= 1e-12


def batch_gradient(cache, gold, params, hyper):
    """The gradient of batch_loss as training composes it for a batch of one
    shard: backward_batch's cross-entropy term plus the L2 term."""
    grads = backward_batch(cache, gold, params, hyper, len(gold))
    grads["soft_w"] += hyper.l2_scale * params["soft_w"]
    return grads


def assert_gradients_match_finite_differences(batch, gold, params, hyper, lengths=None):
    batch, ones = as_batch(batch, lengths), np.ones((len(gold), hyper.rnn_units))
    grads = batch_gradient(forward_batch(batch, params, hyper, ones), gold, params, hyper)

    def loss_fn():
        return batch_loss(forward_batch(batch, params, hyper, ones), gold, params, hyper.l2_scale)

    grads, numeric = per_gate(grads), per_gate(finite_diff_grads(loss_fn, params))
    for name in GATE_PARAM_NAMES:
        assert relative_error(grads[name], numeric[name]) < 1e-4, name


def test_gradients_match_finite_differences():
    batch = np.random.default_rng(99).normal(0, 1, (2, 3, 6))
    assert_gradients_match_finite_differences(batch, np.array([2, 5]), tiny_params(seed=5), TINY)


def test_gradients_match_finite_differences_on_padded_batch():
    # rows of 4, 6, 3 and 1 columns at strides 1 and 2: right padding, a
    # zero column mid-sequence, a row of zero columns only (its windows give
    # relu(conv_b)), a row shorter than the filter and a row whose last
    # window runs past the width; conv_b away from 0, so relu(conv_b) has no
    # kink within the difference step
    params = tiny_params(seed=5)
    params["conv_b"] = np.array([0.3, -0.2, 0.1, -0.4])
    lengths = np.array([4, 6, 3, 1])
    batch = np.random.default_rng(99).normal(0, 1, (4, 3, 6))
    for b, n in enumerate(lengths):
        batch[b, :, n:] = 0.0
    batch[1, :, 2] = 0.0
    batch[2] = 0.0
    for stride in (1, 2):
        hyper = replace(TINY, stride=stride)
        steps = clstm.row_steps(as_batch(batch, lengths), stride)
        assert list(steps) == [[4, 6, 3, 1], [2, 3, 2, 1]][stride - 1]
        assert_gradients_match_finite_differences(batch, np.array([2, 5, 0, 3]), params, hyper,
                                                  lengths)


def _dense_reference_cases():
    """(name, batch, lengths, hyper) tuples: seeded batches of rows of
    different lengths, some shorter than the filter, over filter widths 1-5
    and strides 1-3, and batches whose rows fill the width."""
    rng = np.random.default_rng(17)
    v, B = 3, 4
    for ws in range(1, 6):
        for st in range(1, 4):
            l_max = ws + int(rng.integers(2, 9))
            hyper = Hyperparams(num_filters=5, filter_width=ws, rnn_units=4, stride=st,
                                dropout_rate=0.3 if (ws + st) % 2 else 0.0, l2_scale=0.2)
            ragged = rng.normal(size=(B, v, l_max))
            lengths = rng.integers(1, l_max, size=B)
            # instance 0 fills the width, but its window 1 (columns st to
            # st + ws) reads zero columns only; the last has only zero columns
            lengths[0] = l_max
            ragged[0, :, st : st + ws] = 0.0
            ragged[-1] = 0.0
            for b, length in enumerate(lengths):
                ragged[b, :, length:] = 0.0
            yield f"ragged ws={ws} st={st}", ragged, lengths, hyper
    hyper = Hyperparams(num_filters=5, filter_width=3, rnn_units=4, dropout_rate=0.3)
    yield "no padding", rng.normal(size=(B, v, 9)), np.full(B, 9), hyper
    yield "all zero", np.zeros((B, v, 9)), np.full(B, 9), hyper


def test_live_windows_match_dense_reference():
    # the windows the LSTM steps, each row's own, against the masked
    # reference that steps every window of every row
    rng = np.random.default_rng(23)
    seen = set()
    for name, batch, lengths, hyper in _dense_reference_cases():
        params = init_params(batch.shape[1], hyper, rng)
        # mixed signs, so relu(conv_b) has zero and positive entries
        params["conv_b"] = rng.normal(size=hyper.num_filters)
        params["conv_b"][:2] = [-0.5, 0.5]
        gold = rng.integers(0, 6, size=batch.shape[0])
        training = hyper.dropout_rate > 0.0
        # the mask the reference draws from the same seed; all ones without dropout
        mask = dropout_mask(hyper, batch.shape[0], np.random.default_rng(1))
        cache = forward_batch(as_batch(batch, lengths), params, hyper, mask)
        grads = batch_gradient(cache, gold, params, hyper)
        ref, ref_grads = clstm_dense_reference(batch, lengths, gold, per_gate(params), hyper,
                                               training, np.random.default_rng(1))
        seen.add("all rows step every window" if ref.active.all() else "ragged")
        assert_matches_reference(cache, ref, name)
        grads = per_gate(grads)
        for param in GATE_PARAM_NAMES:
            assert relative_error(grads[param], ref_grads[param]) <= 1e-12, (name, param)
    assert seen == {"all rows step every window", "ragged"}


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_forward_matches_the_lstm_oracle_over_each_rows_own_windows(stride):
    # each row's final state is the unrolled LSTM over the conv maps of the
    # windows that start inside it, those that run past the width reading
    # zero columns, and padding to a wider batch changes nothing
    rng = np.random.default_rng(40 + stride)
    hyper = Hyperparams(num_filters=3, filter_width=3, rnn_units=4, stride=stride)
    params = init_params(2, hyper, rng)
    lengths = np.array([2, 9, 5, 1, 7, 9, 3, 8])
    batch = rng.normal(size=(len(lengths), 2, 9))
    for b, n in enumerate(lengths):
        batch[b, :, n:] = 0.0
    ones = np.ones((len(lengths), 4))
    cache = forward_batch(as_batch(batch, lengths), params, hyper, ones)
    for b, n in enumerate(lengths):
        xs = conv1d_oracle(np.pad(batch[b], ((0, 0), (0, 2))), params["conv_w"],
                           params["conv_b"], stride).T
        h = lstm_oracle(xs[: -(-n // stride)], per_gate(params))
        assert relative_error(cache.h_drop[b], h) <= 1e-12, b
    wide = np.concatenate([batch, np.zeros((len(lengths), 2, 5))], axis=2)
    assert np.array_equal(forward_batch(as_batch(wide, lengths), params, hyper),
                          forward_batch(as_batch(batch, lengths), params, hyper))


@pytest.mark.parametrize("stride", [1, 2])
def test_a_row_as_long_as_its_batch_does_not_depend_on_a_longer_row(stride):
    # rows of 9 columns in a batch 9 wide, then in one that a row of 14
    # columns widens: a window of a 9-column row that runs past column 9
    # reads zero columns either way
    rng = np.random.default_rng(50 + stride)
    hyper = Hyperparams(num_filters=3, filter_width=3, rnn_units=4, stride=stride)
    params = init_params(2, hyper, rng)
    params["conv_b"] = rng.normal(size=3)
    lengths = np.array([9, 4, 9, 8])
    batch = rng.normal(size=(len(lengths), 2, 9))
    for b, n in enumerate(lengths):
        batch[b, :, n:] = 0.0
    alone = forward_batch(as_batch(batch, lengths), params, hyper)
    longer = rng.normal(size=(1, 2, 14))
    wide = np.concatenate([np.pad(batch, ((0, 0), (0, 0), (0, 5))), longer])
    together = forward_batch(as_batch(wide, [*lengths, 14]), params, hyper)
    assert np.abs(together[: len(lengths)] - alone).max() <= 1e-12


# a 4-d table for the id path: "z" is zero in it, "q" and "r" are out of
# vocabulary
ID_PATH_TABLE = EmbeddingTable(
    list("abcdz"), np.random.default_rng(31).normal(size=(5, 4)) * [[1], [1], [1], [1], [0]],
    name="id-path",
)
ID_PATH_INSTANCES = [
    id_instance("a b q c d a".split(), 0),  # an OOV column inside the sequence
    id_instance("b z c a".split(), 1),  # a zero column inside the sequence
    id_instance("q a b r".split(), 2),  # both entities out of vocabulary
    id_instance("c b b b d".split(), 3),  # the same column twice in one window
    id_instance("d a".split(), 4),  # entity columns only, then padding
    id_instance("q r".split(), 5),  # nothing but zero columns
    id_instance("a b c".split(), 6, e1=2, e2=1),  # a two-token entity
]


@pytest.mark.parametrize("ws, st", [(1, 1), (1, 2), (2, 1), (3, 1), (2, 2), (3, 3)])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_id_batches_match_the_dense_reference(ws, st, dropout):
    insts = ID_PATH_INSTANCES
    batch = build_batch(insts, ID_PATH_TABLE, context_vocabulary(insts, 1))
    hyper = Hyperparams(num_filters=5, filter_width=ws, rnn_units=4, stride=st,
                        dropout_rate=dropout, l2_scale=0.2)
    rng = np.random.default_rng(ws * 10 + st)
    params = init_params(4, hyper, rng)
    params["conv_b"] = rng.normal(size=5)
    params["conv_b"][:2] = [-0.5, 0.5]
    gold = rng.integers(0, 6, size=len(insts))
    mask = dropout_mask(hyper, len(insts), np.random.default_rng(1))
    cache = forward_batch(batch, params, hyper, mask)
    grads = batch_gradient(cache, gold, params, hyper)
    ref, ref_grads = clstm_dense_reference(dense(batch), batch.lengths, gold, per_gate(params),
                                           hyper, dropout > 0, np.random.default_rng(1))
    assert len(set(clstm.row_steps(batch, st))) > 1
    # the row of zero columns is stepped; each of its maps is relu(conv_b)
    row5 = stepped(cache)[1] == 5
    assert row5.any()
    assert np.array_equal(cache.xs[row5], np.broadcast_to(np.maximum(params["conv_b"], 0.0),
                                                          (row5.sum(), 5)))
    assert_matches_reference(cache, ref)
    grads = per_gate(grads)
    for param in GATE_PARAM_NAMES:
        assert relative_error(grads[param], ref_grads[param]) <= 1e-12, param
    # inference keeps no history and returns the probabilities of no dropout
    probs = forward_batch(batch, params, hyper)
    no_drop = clstm_dense_reference(dense(batch), batch.lengths, gold, per_gate(params),
                                    hyper)[0].probs
    assert relative_error(probs, no_drop) <= 1e-12


def test_id_batch_gradients_match_finite_differences():
    # rows of 2 to 6 columns, one of zero columns only, at strides 1 and 2
    insts = ID_PATH_INSTANCES
    batch = build_batch(insts, ID_PATH_TABLE, context_vocabulary(insts, 1))
    gold = np.arange(len(insts)) % 6
    ones = np.ones((len(insts), TINY.rnn_units))
    for stride in (1, 2):
        hyper = replace(TINY, filter_width=2, stride=stride)
        params = init_params(4, hyper, np.random.default_rng(6))
        params["conv_b"] = np.array([0.3, -0.2, 0.1, -0.4])
        grads = batch_gradient(forward_batch(batch, params, hyper, ones), gold, params, hyper)
        numeric = per_gate(finite_diff_grads(
            lambda: batch_loss(forward_batch(batch, params, hyper, ones), gold, params,
                               hyper.l2_scale),
            params,
        ))
        grads = per_gate(grads)
        for name in GATE_PARAM_NAMES:
            assert relative_error(grads[name], numeric[name]) < 1e-4, (stride, name)


def test_predict_proba_many_matches_the_dense_reference():
    corpus, table = make_corpus(n_per_class=4, seed=0), make_embedding_table()
    hyper = Hyperparams(num_filters=6, filter_width=3, rnn_units=5, batch_size=5, epochs=2,
                        seed=2)
    model = train(corpus[::2], table, hyper, freq_threshold=1)
    batch = build_batch(corpus, table, model.vocabulary)
    ref = dense_forward_batch(dense(batch), batch.lengths, per_gate(model.params), hyper).probs
    assert np.abs(model.predict_proba_many(corpus) - ref).max() <= 1e-12


def test_gradient_deterministic_under_fixed_dropout_seed():
    hyper = Hyperparams(num_filters=4, filter_width=2, rnn_units=5,
                        dropout_rate=0.4, l2_scale=0.0, batch_size=2)
    params = tiny_params()
    batch = as_batch(np.random.default_rng(7).normal(size=(2, 3, 6)))
    gold = np.array([1, 4])
    runs = []
    for _ in range(2):
        mask = dropout_mask(hyper, 2, np.random.default_rng(55))
        cache = forward_batch(batch, params, hyper, mask)
        runs.append(backward_batch(cache, gold, params, hyper, 2))
    for name in PARAM_NAMES:
        assert np.array_equal(runs[0][name], runs[1][name])


def test_backward_pass_peak_stays_below_the_gates():
    # B=64, v=20, width 30, k=16, u=50, sequences of 3 to 29 columns: the
    # gates are 4 x 50 floats per step of a row, about 64 x 16 steps (1.6 MB).
    # The pass writes its gate gradients over them, so everything else it
    # allocates stays smaller.
    hyper = Hyperparams(num_filters=16, filter_width=3, rnn_units=50, dropout_rate=0.23,
                        batch_size=64)
    rng = np.random.default_rng(4)
    params = init_params(20, hyper, rng)
    batch = rng.normal(size=(64, 20, 30))
    lengths = rng.integers(3, 30, size=64)
    for b, length in enumerate(lengths):
        batch[b, :, length:] = 0.0
    cache = forward_batch(as_batch(batch, lengths), params, hyper, dropout_mask(hyper, 64, rng))
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


def zero_moments(params):
    """Adam's first and second moments of ``params`` before the first step."""
    return ({name: np.zeros_like(p) for name, p in params.items()},
            {name: np.zeros_like(p) for name, p in params.items()})


def adam_all(params, grads, m, v, t, lr):
    """Adam step ``t`` on every tensor of ``params``."""
    for name, grad in grads.items():
        adam_step(params[name], grad, m[name], v[name], t, lr=lr)


def test_adam_zero_gradient_is_identity():
    params = tiny_params()
    before = {n: p.copy() for n, p in params.items()}
    m, v = zero_moments(params)
    adam_all(params, {n: np.zeros_like(p) for n, p in params.items()}, m, v, 1, lr=0.002)
    for name in PARAM_NAMES:
        assert not m[name].any() and not v[name].any()
        assert np.array_equal(params[name], before[name])


def test_adam_first_step_magnitude_is_lr():
    params = {"x": np.array([0.0, 0.0])}
    adam_all(params, {"x": np.array([3.0, -0.2])}, *zero_moments(params), 1, lr=0.002)
    # bias-corrected first step moves every coordinate by ~lr * sign(g)
    assert np.abs(np.abs(params["x"]) - 0.002).max() <= 1e-6


def test_adam_step_matches_reference_bitwise():
    rng = np.random.default_rng(4)
    params = tiny_params()
    ref_params = {n: p.copy() for n, p in params.items()}
    m, v = zero_moments(params)
    ref_state = SimpleNamespace(m=zero_moments(params)[0], v=zero_moments(params)[1], t=0)
    for t in range(1, 21):
        grads = {n: rng.normal(size=p.shape) for n, p in params.items()}
        adam_all(params, grads, m, v, t, lr=0.01)
        adam_step_reference(ref_params, grads, ref_state, lr=0.01)
    for name in PARAM_NAMES:
        assert np.array_equal(params[name], ref_params[name]), name
        assert np.array_equal(m[name], ref_state.m[name]), name
        assert np.array_equal(v[name], ref_state.v[name]), name


def test_adam_descends_quadratic():
    params = {"x": np.array([1.0])}
    m, v = zero_moments(params)
    for t in range(1, 51):
        adam_all(params, {"x": 2.0 * params["x"]}, m, v, t, lr=0.1)
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


def test_train_rejects_unlabeled_instances_and_takes_any_filter_width():
    corpus = overfit_corpus()
    table = make_embedding_table()
    from relclass.corpus import RelationInstance
    unlabeled = RelationInstance(id="u", tokens=corpus[0].tokens, e1=corpus[0].e1,
                                 e2=corpus[0].e2, label=None, reverse=False,
                                 subtask="1.1")
    with pytest.raises(ValueError, match="unlabeled"):
        train(corpus + [unlabeled], table, OVERFIT, freq_threshold=1)
    # a filter wider than every sequence: each window reads zero columns
    # past its row's end
    wide = Hyperparams(num_filters=4, filter_width=100, rnn_units=4, epochs=1)
    model = train(corpus, table, wide, freq_threshold=1)
    assert model.fit_report["l_max"] < 100
    assert np.allclose(model.predict_proba_many(corpus).sum(axis=1), 1.0, atol=1e-12)


def test_train_rejects_an_empty_corpus():
    with pytest.raises(ValueError, match="^no labeled instances$"):
        train([], make_embedding_table(), OVERFIT, freq_threshold=1)


@pytest.mark.parametrize("epochs", [0, 2])
def test_train_windows_count_the_padded_corpus(epochs):
    corpus = make_corpus(n_per_class=4, seed=0)  # sequences of 5 to 8 columns
    table = make_embedding_table()
    hyper = Hyperparams(num_filters=4, filter_width=2, rnn_units=5, stride=2,
                        batch_size=5, epochs=epochs, seed=1)
    model = train(corpus, table, hyper, freq_threshold=1)
    vocabulary = context_vocabulary(corpus, 1)
    lengths = [len(build_sequence(inst, vocabulary)) for inst in corpus]
    width = model.fit_report["l_max"]
    assert max(lengths) == width
    # live: the windows that start inside their sequence, those the LSTM
    # steps; total: those of a row as wide as the corpus's batch, for every row
    live = sum(len(range(0, n, 2)) for n in lengths)
    total = len(corpus) * len(range(0, width, 2))
    assert model.fit_report["windows"] == {"live": live, "total": total}
    assert 0 < live < total


def test_training_holds_one_batch_working_set(monkeypatch):
    # both shards in this process: no earlier shard's batch or cache is alive
    # when a forward pass starts, and the shard's batch is freed before its
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
    with pytest.raises(ValueError, match="has 8 columns, more than a batch may hold"):
        train(corpus, table, hyper, freq_threshold=1)
    # a model trained at the limit is written, read back and predicts
    monkeypatch.setattr(clstm, "L_MAX_LIMIT", 8)
    model = train(corpus, table, hyper, freq_threshold=1)
    assert model.fit_report["l_max"] == 8
    save_clstm_model(model, tmp_path / "clstm.json")
    loaded = load_clstm_model(tmp_path / "clstm.json", table)
    assert np.array_equal(loaded.predict_proba_many(corpus), model.predict_proba_many(corpus))


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
    # the file keeps no padded width
    assert "l_max" not in json.loads(path.read_text(encoding="utf-8"))
    assert np.array_equal(loaded.predict_proba_many(corpus),
                          overfit_model.predict_proba_many(corpus))
    again = tmp_path / "clstm2.json"
    save_clstm_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def long_instance(n_context):
    """An instance of ``n_context`` context columns between two entities:
    "model" survives the training-corpus frequency filter of every model
    here, so the sequence does not collapse to the two entity columns."""
    middle = [tok("model", pos="NOUN")] * n_context
    return make_instance([tok("parser", pos="NOUN"), *middle, tok("corpus", pos="NOUN")],
                         e1=(0, 0), e2=(n_context + 1, n_context + 1),
                         label=RelationLabel.USAGE, id="long")


def test_model_predicts_inputs_longer_than_its_training_sequences(overfit_model):
    # no column of an instance longer than every training sequence is cut:
    # its prediction differs from that of the same instance with only as
    # many columns as the longest training sequence
    width = overfit_model.fit_report["l_max"]
    probs = overfit_model.predict_proba_many([long_instance(28)])
    assert len(build_sequence(long_instance(28), overfit_model.vocabulary)) == 30 > width
    assert abs(probs.sum() - 1.0) <= 1e-12
    cut = overfit_model.predict_proba_many([long_instance(width - 2)])
    assert np.abs(probs - cut).max() > 1e-6


def test_prediction_does_not_depend_on_the_padded_width(overfit_model):
    # a row reads only its own windows: an instance of 30 columns, longer
    # than every training sequence, widens the prediction batch and changes
    # no probability of the others (right padding changed them all)
    corpus = make_corpus(n_per_class=4, seed=5)
    alone = overfit_model.predict_proba_many(corpus)
    widened = overfit_model.predict_proba_many([*corpus, long_instance(28)])
    assert np.abs(widened[: len(corpus)] - alone).max() <= 1e-12


def test_small_model_leaves_the_majority_baseline():
    # one training instance of 40 columns pads every batch to 40, and the
    # others have 5 to 8: the state each instance ends in must carry its
    # class keyword. Over seeds 0-9 this held-out macro-F1 read 0.934-1.0;
    # stepping the padding it read 0.048-0.222 (0.048 is the majority class)
    long = make_instance([tok("Parser", "parser"), *[tok("model")] * 38, tok("corpus")],
                         e1=(0, 0), e2=(39, 39), id="long")
    table = make_embedding_table()
    hyper = Hyperparams(num_filters=16, filter_width=3, rnn_units=16, dropout_rate=0.0,
                        l2_scale=0.0, epochs=8, batch_size=16, learning_rate=0.01, seed=0)
    model = train(make_corpus(n_per_class=20, seed=0) + [long], table, hyper, freq_threshold=1)
    assert model.fit_report["l_max"] == 40
    held_out = make_corpus(n_per_class=10, seed=100)
    predicted = model.predict_many(held_out)
    macro = f1_scores(confusion([inst.label for inst in held_out], predicted)).macro_f1
    assert macro >= 0.8, macro


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
    padded = np.zeros((rows, 3, 6))
    lengths = rng.integers(2, 7, size=rows)
    for b, n in enumerate(lengths):
        padded[b, :, :n] = rng.normal(size=(3, n))
    gold = rng.integers(0, 6, size=rows)
    state = clstm._TrainState(as_batch(padded, lengths), gold, hyper,
                              clstm.param_shapes(3, hyper))
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

    batch = state.corpus
    cache = forward_batch(batch, before, SHARDED, mask)
    loss = batch_loss(cache, state.gold, before, SHARDED.l2_scale)
    assert abs(ce / rows + clstm._l2_penalty(before, SHARDED.l2_scale) - loss) <= 1e-12 * loss
    whole = batch_gradient(cache, state.gold, before, SHARDED)
    for name in PARAM_NAMES:
        assert relative_error(sharded[name], whole[name]) <= 1e-12, name

    # the update is one Adam step of that gradient, bit for bit
    stepped = {name: p.copy() for name, p in before.items()}
    adam_all(stepped, {name: sharded[name] for name in PARAM_NAMES}, *zero_moments(before), 1,
             lr=SHARDED.learning_rate)
    for name in PARAM_NAMES:
        assert np.array_equal(state.params[name], stepped[name]), name

    numeric = per_gate(finite_diff_grads(
        lambda: batch_loss(forward_batch(batch, before, SHARDED, mask), state.gold, before,
                           SHARDED.l2_scale),
        before,
    ))
    sharded = per_gate(sharded)
    for name in GATE_PARAM_NAMES:
        assert relative_error(sharded[name], numeric[name]) < 1e-4, name


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=20))
def test_split_balances_live_windows_over_half_the_rows(live):
    live = np.array(live)
    shards = clstm._split(live)
    assert sorted(len(s) for s in shards) == [len(live) // 2, (len(live) + 1) // 2]
    assert sorted(np.concatenate(shards).tolist()) == list(range(len(live)))
    assert all(np.array_equal(s, np.sort(s)) for s in shards)
    assert abs(live[shards[0]].sum() - live[shards[1]].sum()) <= live.max()


def test_split_of_a_skewed_batch():
    # the first ceil(B/2) rows hold 31 live windows against 3; by descending
    # count (ties in batch order), shard 0 takes the 1st, 4th and 5th rows
    live = np.array([10, 10, 10, 1, 1, 1, 1])
    shards = clstm._split(live)
    assert [s.tolist() for s in shards] == [[0, 3, 4], [1, 2, 5, 6]]
    assert [live[s].sum() for s in shards] == [12, 22]


@pytest.mark.parametrize("batch_size", [1, 7])
@pytest.mark.parametrize("cpus", [1, 2])
def test_sharded_training_matches_the_one_shard_loop(monkeypatch, batch_size, cpus):
    # the loop the shards replace: each batch's forward and backward pass at
    # once, its L2 term added, Adam per tensor
    force_cpus(monkeypatch, cpus)
    corpus, table = make_corpus(n_per_class=4, seed=0), make_embedding_table()
    hyper = replace(SHARDED, batch_size=batch_size)
    model = train(corpus, table, hyper, freq_threshold=1)

    whole = build_batch(corpus, table, context_vocabulary(corpus, 1))
    gold = np.array([LABELS.index(inst.label) for inst in corpus])
    rng = np.random.default_rng(hyper.seed)
    params = init_params(table.dim, hyper, rng)
    m, v = zero_moments(params)
    history, t = [], 0
    for _ in range(hyper.epochs):
        order, losses = rng.permutation(len(corpus)), []
        for start in range(0, len(corpus), batch_size):
            idx = order[start : start + batch_size]
            mask = dropout_mask(hyper, len(idx), rng)
            cache = forward_batch(whole.rows(idx), params, hyper, mask)
            losses.append(batch_loss(cache, gold[idx], params, hyper.l2_scale))
            t += 1
            adam_all(params, batch_gradient(cache, gold[idx], params, hyper), m, v, t,
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
        assert model.fit_report["workers"] == (cpus if OPENBLAS else 1)
        assert model.fit_report["blas_threads"] == (1 if OPENBLAS else None)
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
