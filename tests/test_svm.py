import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import qp_objective, qp_oracle
from relclass.corpus import RelationLabel
from relclass.embeddings import cosine
from relclass.features import FeatureVector
from relclass.svm import (
    SvmTrainingError,
    dual_objective,
    fit_sigmoid,
    kernel_matrix,
    kkt_violation,
    load_svm_model,
    pack_features,
    packed_from_bool_lists,
    pairwise_coupling,
    rbf_kernel,
    save_svm_model,
    smo_solve,
    train_multiclass,
)
from relclass.synthetic import make_corpus


def dense_problem(X, y, gamma):
    packed = packed_from_bool_lists([[]] * len(X), np.asarray(X, dtype=np.float64), 0)
    return kernel_matrix(packed, packed, gamma), np.asarray(y, dtype=np.float64)


def random_problem(rng):
    n = int(rng.integers(4, 21))
    d = int(rng.integers(1, 6))
    X = rng.normal(0.0, 1.0, (n, d))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    if np.all(y == y[0]):
        y[0] = -y[0]
    gamma = float(rng.uniform(0.05, 1.0))
    C = float(rng.choice([1.0, 100.0]))
    K, y = dense_problem(X, y, gamma)
    return K, y, C


def test_kernel_combines_boolean_and_dense():
    a = packed_from_bool_lists([[0, 2], [1]], np.array([[0.5], [0.0]]), 3)
    K = kernel_matrix(a, a, gamma=0.1)
    # d^2(0,1) = |{0,2} xor {1}| + (0.5)^2 = 3.25
    assert K[0, 1] == pytest.approx(np.exp(-0.1 * 3.25))
    assert np.array_equal(np.diag(K), [1.0, 1.0])
    assert np.array_equal(K, K.T)


def test_rbf_kernel_gamma_zero_limit():
    u = FeatureVector(np.array([0, 1]), np.array([0.3, 0.9]), 4)
    v = FeatureVector(np.array([2]), np.array([0.0, 0.0]), 4)
    assert rbf_kernel(u, v, gamma=0.0) == 1.0
    assert rbf_kernel(u, v, gamma=1e-12) == pytest.approx(1.0, abs=1e-9)


def test_smo_eight_point_separable_matches_oracle():
    X = [[0.0, 1.0], [1.0, 2.0], [0.5, 1.5], [-1.0, 1.0],
         [0.0, -1.0], [1.0, -2.0], [0.5, -1.5], [-1.0, -1.0]]
    y = [1, 1, 1, 1, -1, -1, -1, -1]
    K, yv = dense_problem(X, y, gamma=0.5)
    alpha, b, _, converged = smo_solve(K, yv, C=1.0)
    assert converged
    ours = dual_objective(K, yv, alpha)
    ref = qp_objective(K, yv, qp_oracle(K, yv, 1.0))
    assert abs(ours - ref) / max(abs(ref), 1e-12) <= 1e-4
    assert kkt_violation(K, yv, alpha, b, 1.0) <= 1e-3


def test_smo_random_problems_match_oracle():
    rng = np.random.default_rng(7)
    for _ in range(8):
        K, y, C = random_problem(rng)
        alpha, b, _, converged = smo_solve(K, y, C)
        assert converged
        ours = dual_objective(K, y, alpha)
        ref = qp_objective(K, y, qp_oracle(K, y, C))
        assert abs(ours - ref) / max(abs(ref), 1e-12) <= 1e-4
        assert kkt_violation(K, y, alpha, b, C) <= 1e-3


def test_smo_solution_feasible():
    rng = np.random.default_rng(21)
    for _ in range(10):
        K, y, C = random_problem(rng)
        alpha, _, _, _ = smo_solve(K, y, C)
        assert np.all(alpha >= 0.0) and np.all(alpha <= C)
        assert abs(float(alpha @ y)) <= 1e-9


def test_smo_xor_all_support_vectors():
    X = [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]
    y = [1, 1, -1, -1]
    K, yv = dense_problem(X, y, gamma=1.0)
    alpha, b, _, converged = smo_solve(K, yv, C=100.0)
    assert converged
    assert np.all(alpha > 1e-8)
    dec = K @ (alpha * yv) + b
    assert np.all(np.sign(dec) == yv)


def test_sigmoid_separated_scores():
    scores = np.concatenate([np.full(20, 2.0), np.full(20, -2.0)])
    labels = np.concatenate([np.ones(20), -np.ones(20)])
    cal = fit_sigmoid(scores, labels)
    assert cal.predict(2.0) > 0.9
    assert cal.predict(-2.0) < 0.1
    # smoothed targets keep the fit strictly inside (0, 1)
    assert 0.0 < cal.predict(10.0) < 1.0


def test_sigmoid_random_labels_predicts_prior():
    rng = np.random.default_rng(1)
    scores = rng.normal(0.0, 1.0, 1000)
    labels = np.where(rng.random(1000) < 0.3, 1.0, -1.0)
    cal = fit_sigmoid(scores, labels)
    prior = float((labels > 0).mean())
    assert np.abs(cal.predict(scores) - prior).max() <= 0.05
    assert abs(cal.A) < 0.05


def test_sigmoid_requires_both_labels():
    with pytest.raises(ValueError):
        fit_sigmoid(np.array([1.0, 2.0]), np.array([1.0, 1.0]))


def test_coupling_recovers_named_distribution():
    p = np.array([0.6, 0.3, 0.1])
    r = np.zeros((3, 3))
    for i, j in itertools.permutations(range(3), 2):
        r[i, j] = p[i] / (p[i] + p[j])
    q = pairwise_coupling(r)
    assert np.abs(q - p).max() <= 1e-6


def test_coupling_uniform_r_gives_uniform_p():
    r = np.full((6, 6), 0.5)
    np.fill_diagonal(r, 0.0)
    assert pairwise_coupling(r) == pytest.approx(np.full(6, 1 / 6), abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=6), st.integers(0, 99))
def test_coupling_output_is_distribution(raw, seed):
    p = np.array(raw) / np.sum(raw)
    rng = np.random.default_rng(seed)
    n = len(p)
    # noisy pairwise matrix, not necessarily consistent with any p
    r = np.zeros((n, n))
    for i, j in itertools.combinations(range(n), 2):
        r[i, j] = float(np.clip(p[i] / (p[i] + p[j]) + rng.normal(0, 0.05), 0.01, 0.99))
        r[j, i] = 1.0 - r[i, j]
    q = pairwise_coupling(r)
    assert abs(q.sum() - 1.0) <= 1e-9
    assert np.all(q >= -1e-12)


def test_coupling_rejects_degenerate_r():
    r = np.full((3, 3), 0.5)
    np.fill_diagonal(r, 0.0)
    r[0, 1] = 0.0
    r[1, 0] = 1.0
    with pytest.raises(ValueError):
        pairwise_coupling(r)


@pytest.fixture(scope="module")
def svm_model(syn_table, levin):
    corpus = make_corpus()
    return corpus, train_multiclass(corpus, syn_table, levin, freq_threshold=5)


def test_multiclass_training_accuracy(svm_model):
    corpus, model = svm_model
    pred = model.predict_many(corpus)
    acc = sum(p == inst.label for p, inst in zip(pred, corpus)) / len(corpus)
    assert acc >= 0.99
    assert len(model.pair_models) == 15


def test_multiclass_probabilities_sum_to_one(svm_model):
    corpus, model = svm_model
    proba = model.predict_proba_many(corpus[:25])
    assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(proba >= 0.0)


def test_deep_training_instance_gets_its_class(svm_model):
    corpus, model = svm_model
    inst = corpus[0]
    assert model.predict(inst) == inst.label
    dist = model.predict_proba(inst)
    assert max(dist, key=dist.get) == inst.label


def test_multiclass_rejects_bad_corpora(syn_table, levin):
    corpus = make_corpus(n_per_class=5)
    from relclass.corpus import RelationInstance
    unlabeled = RelationInstance(
        id="u", tokens=corpus[0].tokens, e1=corpus[0].e1, e2=corpus[0].e2,
        label=None, reverse=False, subtask="1.1",
    )
    with pytest.raises(SvmTrainingError):
        train_multiclass(corpus + [unlabeled], syn_table, levin)
    single = [i for i in corpus if i.label is RelationLabel.USAGE]
    with pytest.raises(SvmTrainingError):
        train_multiclass(single, syn_table, levin)


def test_svm_model_file_roundtrip(svm_model, syn_table, tmp_path):
    corpus, model = svm_model
    path = tmp_path / "svm.json"
    save_svm_model(model, path)
    loaded = load_svm_model(path, syn_table)
    assert np.array_equal(model.predict_proba_many(corpus[:30]),
                          loaded.predict_proba_many(corpus[:30]))
    again = tmp_path / "svm2.json"
    save_svm_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_svm_model_rejects_wrong_dimension(svm_model, tmp_path):
    from relclass.embeddings import EmbeddingTable
    from relclass.modelio import ModelFormatError
    corpus, model = svm_model
    path = tmp_path / "svm.json"
    save_svm_model(model, path)
    with pytest.raises(ModelFormatError):
        load_svm_model(path, EmbeddingTable({"a": [1.0, 2.0]}))


def test_packed_roundtrip_through_index_lists(svm_model):
    corpus, model = svm_model
    packed = model._pack(corpus[:10])
    rebuilt = packed_from_bool_lists(packed.bool_index_lists(), packed.dense, len(model.space))
    assert np.array_equal(kernel_matrix(packed, packed, 0.1),
                          kernel_matrix(rebuilt, rebuilt, 0.1))


def test_pack_features_consistency(svm_model, syn_table):
    corpus, model = svm_model
    from relclass.features import assemble
    fvs = [
        assemble(inst, model.space, model.scaler, syn_table, model.levin,
                 model.freq, model.freq_threshold)
        for inst in corpus[:4]
    ]
    packed = pack_features(fvs)
    assert packed.bool_index_lists() == [fv.bool_indices.tolist() for fv in fvs]
    # pairwise kernel agrees with the single-pair path
    K = kernel_matrix(packed, packed, gamma=0.2)
    for i, j in itertools.combinations(range(4), 2):
        assert K[i, j] == pytest.approx(rbf_kernel(fvs[i], fvs[j], 0.2), abs=1e-12)


def test_synthetic_keywords_are_separable(syn_table):
    # sanity on the synthetic generator itself: keyword embeddings are
    # mutually near-orthogonal, so the class signal is real
    from relclass.synthetic import KEYWORDS
    vecs = [syn_table.lookup(w) for w in KEYWORDS.values()]
    for u, v in itertools.combinations(vecs, 2):
        assert abs(cosine(u, v)) < 0.2
