"""Release acceptance checks, one test per criterion.

`pytest -v tests/test_acceptance.py` prints one pass/fail line per criterion.
Tolerances and wall-clock budgets are asserted inside the tests themselves;
headline corpus scores are not reproducible at desk scale, so the end-to-end
bars run on the bundled synthetic keyword corpus instead.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from conftest import as_batch, conv_maps, in_space, make_instance, per_gate, tok
from oracles import (
    PARAM_NAMES as GATE_PARAM_NAMES,
    conv1d_oracle,
    f1_oracle,
    finite_diff_grads,
    kkt_violation,
    lstm_oracle,
    qp_objective,
    qp_oracle,
    relative_error,
)
from relclass.clstm import (
    PARAM_NAMES,
    Hyperparams,
    adam_step,
    backward_batch,
    batch_loss,
    forward_batch,
    init_params,
    load_clstm_model,
    save_clstm_model,
    train,
)
from relclass.cli import fixture_path, main
from relclass.corpus import LABELS, RelationLabel, parse_corpus, write_corpus
from relclass.embeddings import load_table, save_table
from relclass.evaluation import (ConfusionMatrix, confusion, f1_scores, stratified_fold_indices,
                                 stratified_split)
from relclass.features import load_levin_table
from relclass.search import SearchSpace, sample_config
from relclass.svm import (
    kernel_matrix,
    load_svm_model,
    packed_from_bool_lists,
    pairwise_coupling,
    save_svm_model,
    smo_solve,
    train_multiclass,
)
from relclass.synthetic import make_corpus, make_embedding_table

EXAMPLE_FEATURES = {
    "bow": ["an", "be", "effective", "improve", "of", "way"],
    "pos": ["ADJ", "ADP", "DET", "NOUN", "VERB"],
    "pospath": ["VDANAV"],
    "dist": ["6"],
    "lc": ["45"],
    "ents": ["combination methods", "methods", "performance", "system performance"],
    "startEnt": ["combination methods", "methods"],
    "endEnt": ["performance", "system performance"],
    "sim100": ["0.43"],
    "simb": ["q50"],
}


def test_c01_example_sentence_features_bit_exact(capsys):
    start = time.perf_counter()
    rc = main([
        "features", "--corpus", str(fixture_path("example_corpus.jsonl")),
        "--embeddings", str(fixture_path("toy_embeddings.txt")),
        "--levin", str(fixture_path("levin_small.tsv")),
        "--freq-threshold", "1",
    ])
    elapsed = time.perf_counter() - start
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert record["features"] == EXAMPLE_FEATURES
    assert elapsed < 1.0


def test_c02_smo_matches_qp_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_rel, worst_kkt = 0.0, 0.0
    for _ in range(25):
        n = int(rng.integers(4, 21))
        d = int(rng.integers(1, 6))
        X = rng.normal(0.0, 1.0, (n, d))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        if np.all(y == y[0]):
            y[0] = -y[0]
        gamma = float(rng.uniform(0.05, 1.0))
        C = float(rng.choice([1.0, 100.0]))
        packed = packed_from_bool_lists([[]] * n, X, 0)
        K = kernel_matrix(packed, packed, gamma)
        alpha, b, _, converged = smo_solve(K, y, C)
        assert converged
        ours = qp_objective(K, y, alpha)
        ref = qp_objective(K, y, qp_oracle(K, y, C, max_iter=20_000))
        worst_rel = max(worst_rel, abs(ours - ref) / max(abs(ref), 1e-12))
        worst_kkt = max(worst_kkt, kkt_violation(K, y, alpha, b, C))
    elapsed = time.perf_counter() - start
    assert worst_rel <= 1e-4
    assert worst_kkt <= 1e-3
    assert elapsed < 30.0


def test_c03_pairwise_coupling_recovery():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        p = rng.dirichlet(np.ones(6)) + 1e-3
        p /= p.sum()
        r = np.zeros((6, 6))
        for i, j in itertools.combinations(range(6), 2):
            r[i, j] = p[i] / (p[i] + p[j])
            r[j, i] = 1.0 - r[i, j]
        q = pairwise_coupling(r[None])[0]
        worst = max(worst, float(np.abs(q - p).max()))
        assert abs(q.sum() - 1.0) <= 1e-9
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6
    assert elapsed < 5.0


def test_c04_gradient_check():
    start = time.perf_counter()
    hyper = Hyperparams(num_filters=4, filter_width=2, rnn_units=5, dropout_rate=0.0,
                        l2_scale=0.37, stride=1, batch_size=2, epochs=1, seed=123)
    params = init_params(3, hyper, np.random.default_rng(5))
    batch = as_batch(np.random.default_rng(99).normal(0.0, 1.0, (2, 3, 6)))
    gold = np.array([2, 5])
    ones = np.ones((2, 5))
    cache = forward_batch(batch, params, hyper, ones)
    # backward_batch gives the cross-entropy term; training adds the L2 term
    grads = backward_batch(cache, gold, params, hyper, len(gold))
    grads["soft_w"] += hyper.l2_scale * params["soft_w"]

    def loss_fn():
        return batch_loss(forward_batch(batch, params, hyper, ones), gold, params, hyper.l2_scale)

    numeric = per_gate(finite_diff_grads(loss_fn, params))
    elapsed = time.perf_counter() - start
    grads = per_gate(grads)
    for name in GATE_PARAM_NAMES:
        assert relative_error(grads[name], numeric[name]) < 1e-4, name
    assert elapsed < 10.0


def test_c05_conv_and_lstm_oracles():
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
        # the oracle's windows over the width padded by ws - 1 zero columns
        assert relative_error(conv_maps(I_pad, filters, bias, stride),
                              conv1d_oracle(np.pad(I_pad, ((0, 0), (0, ws - 1))), filters, bias,
                                            stride)) <= 1e-12

    # conv-LSTM final state of one instance against oracle conv -> oracle LSTM
    hyper = Hyperparams(num_filters=2, filter_width=2, rnn_units=3)
    params = init_params(2, hyper, rng)
    batch = rng.normal(size=(1, 2, 7))
    xs = conv1d_oracle(np.pad(batch[0], ((0, 0), (0, 1))), params["conv_w"], params["conv_b"],
                       1).T
    ones = np.ones((1, 3))
    # with a mask of ones, the dropped final state is the final state
    h = forward_batch(as_batch(batch), params, hyper, ones).h_drop[0]
    assert relative_error(h, lstm_oracle(xs, per_gate(params))) <= 1e-12

    zero = {name: np.zeros_like(p) for name, p in params.items()}
    assert np.array_equal(forward_batch(as_batch(batch), zero, hyper, ones).h_drop[0],
                          np.zeros(3))


def test_c06_loss_and_optimizer_analytics():
    # uniform softmax cross-entropy
    hyper = Hyperparams(num_filters=2, filter_width=2, rnn_units=3, l2_scale=0.0)
    zero = {name: np.zeros_like(p)
            for name, p in init_params(2, hyper, np.random.default_rng(0)).items()}
    batch = as_batch(np.random.default_rng(1).normal(size=(4, 2, 5)))
    cache = forward_batch(batch, zero, hyper, np.ones((4, 3)))
    loss = batch_loss(cache, np.array([0, 1, 3, 5]), zero, l2_scale=0.0)
    assert abs(loss - math.log(6)) <= 1e-6

    # Adam first-step magnitude for a constant gradient
    x = np.zeros(3)
    adam_step(x, np.array([4.0, -1.0, 0.5]), np.zeros(3), np.zeros(3), 1, lr=0.002)
    assert np.abs(np.abs(x) - 0.002).max() <= 1e-6

    # bitwise-identical seeded training
    corpus = [i for i in make_corpus(n_per_class=10, seed=21)
              if i.label in (RelationLabel.COMPARE, RelationLabel.RESULT)]
    table = make_embedding_table()
    config = Hyperparams(num_filters=8, filter_width=2, rnn_units=8, dropout_rate=0.3,
                         l2_scale=0.1, epochs=3, seed=42, batch_size=8)
    a = train(corpus, table, config, freq_threshold=1)
    b = train(corpus, table, config, freq_threshold=1)
    assert a.loss_history == b.loss_history
    for name in PARAM_NAMES:
        assert np.array_equal(a.params[name], b.params[name])


def test_c07_synthetic_end_to_end():
    start = time.perf_counter()
    corpus = make_corpus()
    assert len(corpus) == 600
    table = make_embedding_table()
    levin = load_levin_table(fixture_path("levin_small.tsv"))
    train_set, held_out = stratified_split(corpus, fraction=0.2, seed=3)
    gold = [inst.label for inst in held_out]

    svm_model = train_multiclass(train_set, table, levin, C=100.0, gamma=0.001,
                                 freq_threshold=5)
    svm_macro = f1_scores(confusion(gold, svm_model.predict_many(held_out))).macro_f1

    hyper = Hyperparams(num_filters=64, filter_width=3, rnn_units=32, dropout_rate=0.2,
                        l2_scale=0.0, epochs=100, seed=11)
    clstm_model = train(train_set, table, hyper, freq_threshold=5)
    clstm_macro = f1_scores(confusion(gold, clstm_model.predict_many(held_out))).macro_f1

    elapsed = time.perf_counter() - start
    assert svm_macro >= 0.95, f"svm macro-F1 {svm_macro:.4f}"
    assert clstm_macro >= 0.90, f"clstm macro-F1 {clstm_macro:.4f}"
    assert elapsed < 300.0


def test_c08_metrics_against_oracle():
    rng = np.random.default_rng(12)
    for _ in range(100):
        cm = ConfusionMatrix(rng.integers(0, 30, size=(6, 6)))
        report = f1_scores(cm)
        per_class, macro, micro = f1_oracle(cm.counts)
        assert abs(report.macro_f1 - macro) <= 1e-12
        assert abs(report.micro_f1 - micro) <= 1e-12
        for label, ref in zip(LABELS, per_class):
            assert abs(report.f1[label] - ref) <= 1e-12
        # micro-F1 is accuracy in single-label multiclass scoring
        assert abs(report.micro_f1 - np.trace(cm.counts) / cm.total) <= 1e-12

    # macro-F1 sensitivity: correcting one prediction of a 3-instance class
    # moves the macro score by that class's F1 delta / 6
    before = np.array([
        [18, 1, 0, 0, 0, 1],
        [1, 12, 0, 0, 1, 1],
        [0, 2, 0, 0, 0, 2],
        [0, 1, 0, 8, 0, 1],
        [0, 1, 1, 0, 0, 1],
        [1, 0, 0, 0, 1, 23],
    ])
    after = before.copy()
    after[4, 2] -= 1
    after[4, 4] += 1
    rep_b, rep_a = f1_scores(ConfusionMatrix(before)), f1_scores(ConfusionMatrix(after))
    topic = RelationLabel.TOPIC
    delta = rep_a.macro_f1 - rep_b.macro_f1
    assert abs(delta - (rep_a.f1[topic] - rep_b.f1[topic]) / 6.0) <= 1e-12
    assert delta == pytest.approx(1.0 / 18.0)


def test_c09_protocol_fidelity():
    rng = np.random.default_rng(77)
    for _ in range(50):
        sizes = rng.integers(0, 40, size=6)
        while sizes.sum() < 12:
            sizes = rng.integers(0, 40, size=6)
        labels = [LABELS[i] for i, n in enumerate(sizes) for _ in range(n)]
        corpus = [make_instance([tok("a"), tok("b"), tok("c")], e1=(0, 0), e2=(2, 2),
                                label=lab, id=f"i{k}") for k, lab in enumerate(labels)]
        train_set, val = stratified_split(corpus, fraction=0.10, seed=int(rng.integers(0, 100)))
        assert len(train_set) + len(val) == len(corpus)
        for i, n_k in enumerate(sizes):
            got = sum(1 for inst in val if inst.label is LABELS[i])
            if n_k <= 1:
                assert got == 0
            else:
                assert abs(got - 0.10 * n_k) <= 1.0

        k = int(rng.integers(2, 11))
        if k <= len(labels):
            folds = stratified_fold_indices(labels, k, seed=3)
            assert sorted(np.concatenate(folds).tolist()) == list(range(len(labels)))
            for cls in set(labels):
                per_fold = [sum(1 for i in f if labels[i] is cls) for f in folds]
                assert max(per_fold) - min(per_fold) <= 1

    space = SearchSpace()
    draw = np.random.default_rng(99)
    for t in range(1000):
        assert in_space(space, sample_config(space, draw, seed=t))
    selected = Hyperparams(num_filters=384, filter_width=3, rnn_units=93,
                           dropout_rate=0.23, l2_scale=0.79)
    assert in_space(space, selected)


def test_c10_round_trips_byte_stable(tmp_path):
    # corpus
    src = fixture_path("example_corpus.jsonl")
    out = tmp_path / "corpus.jsonl"
    write_corpus(parse_corpus(src), out)
    assert out.read_bytes() == src.read_bytes()

    # embedding table
    emb_src = fixture_path("toy_embeddings.txt")
    emb_out = tmp_path / "emb.txt"
    save_table(load_table(emb_src), emb_out)
    assert emb_out.read_bytes() == emb_src.read_bytes()

    table = make_embedding_table()
    levin = load_levin_table(fixture_path("levin_small.tsv"))
    corpus = make_corpus(n_per_class=8)

    # SVM model file
    svm_model = train_multiclass(corpus, table, levin, freq_threshold=1)
    p1, p2 = tmp_path / "svm1.json", tmp_path / "svm2.json"
    save_svm_model(svm_model, p1)
    save_svm_model(load_svm_model(p1, table), p2)
    assert p1.read_bytes() == p2.read_bytes()

    # C-LSTM model file
    hyper = Hyperparams(num_filters=8, filter_width=2, rnn_units=8, epochs=2,
                        seed=1, batch_size=16)
    clstm_model = train(corpus, table, hyper, freq_threshold=1)
    q1, q2 = tmp_path / "clstm1.json", tmp_path / "clstm2.json"
    save_clstm_model(clstm_model, q1)
    save_clstm_model(load_clstm_model(q1, table), q2)
    assert q1.read_bytes() == q2.read_bytes()
