import itertools
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import failing_smo, force_cpus, uneven_corpus
from oracles import (
    DenseRows,
    coupling_oracle,
    kkt_violation,
    qp_objective,
    qp_oracle,
    rbf_kernel,
    smo_reference,
    squared_distances_dense_reference,
)
from relclass import svm
from relclass.corpus import LABELS, RelationLabel
from relclass.embeddings import cosine
from relclass.features import featurize
from relclass.svm import (
    SvmTrainingError,
    fit_sigmoid,
    kernel_matrix,
    load_svm_model,
    pack_rows,
    packed_from_bool_lists,
    pairwise_coupling,
    save_svm_model,
    smo_solve,
    squared_distances,
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
    u_bool, u_dense = np.array([0, 1]), np.array([0.3, 0.9])
    v_bool, v_dense = np.array([2]), np.array([0.0, 0.0])
    assert rbf_kernel(u_bool, u_dense, v_bool, v_dense, gamma=0.0) == 1.0
    assert rbf_kernel(u_bool, u_dense, v_bool, v_dense,
                      gamma=1e-12) == pytest.approx(1.0, abs=1e-9)


def test_smo_eight_point_separable_matches_oracle():
    X = [[0.0, 1.0], [1.0, 2.0], [0.5, 1.5], [-1.0, 1.0],
         [0.0, -1.0], [1.0, -2.0], [0.5, -1.5], [-1.0, -1.0]]
    y = [1, 1, 1, 1, -1, -1, -1, -1]
    K, yv = dense_problem(X, y, gamma=0.5)
    alpha, b, _, converged = smo_solve(K, yv, C=1.0)
    assert converged
    ours = qp_objective(K, yv, alpha)
    ref = qp_objective(K, yv, qp_oracle(K, yv, 1.0))
    assert abs(ours - ref) / max(abs(ref), 1e-12) <= 1e-4
    assert kkt_violation(K, yv, alpha, b, 1.0) <= 1e-3


def test_smo_random_problems_match_oracle():
    rng = np.random.default_rng(7)
    for _ in range(8):
        K, y, C = random_problem(rng)
        alpha, b, _, converged = smo_solve(K, y, C)
        assert converged
        ours = qp_objective(K, y, alpha)
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


def reference_problem(rng):
    """A random dual with n in [2, 40]; about a third of them repeat rows, so
    gradients tie, and about a quarter perturb K off symmetry."""
    n = int(rng.integers(2, 41))
    X = rng.normal(0.0, 1.0, (n, int(rng.integers(1, 6))))
    if n >= 4 and rng.random() < 0.35:
        X[rng.choice(n, n // 2, replace=False)] = X[rng.integers(0, n, n // 2)]
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    y[:2] = [1.0, -1.0]
    K, y = dense_problem(X, y, float(rng.uniform(0.05, 1.0)))
    if rng.random() < 0.25:
        K = K + rng.uniform(0.0, 0.05, K.shape)
    return K, y, float(rng.choice([0.1, 1.0, 100.0])), int(rng.choice([1, 3, 50, 100_000]))


def test_smo_matches_reference_bitwise():
    rng = np.random.default_rng(2011)
    for _ in range(200):
        K, y, C, max_iter = reference_problem(rng)
        alpha, b, n_iter, converged = smo_solve(K, y, C, max_iter=max_iter)
        ref_alpha, ref_b, ref_iter, ref_converged = smo_reference(K, y, C, max_iter=max_iter)
        assert np.array_equal(alpha, ref_alpha)
        assert (b, n_iter, converged) == (ref_b, ref_iter, ref_converged)


def test_smo_iteration_cap(caplog):
    K, y, C = random_problem(np.random.default_rng(5))
    with caplog.at_level("WARNING", logger="relclass.svm"):
        alpha, _, n_iter, converged = smo_solve(K, y, C, max_iter=1)
    assert not converged and n_iter == 1
    assert any("iteration cap" in rec.getMessage() for rec in caplog.records
               if rec.name == "relclass.svm")
    assert np.all(alpha >= 0.0) and np.all(alpha <= C)
    assert abs(float(alpha @ y)) <= 1e-9


@pytest.mark.parametrize("C", [0.0, -1.0, np.nan, np.inf])
def test_smo_rejects_bad_C(C):
    K, y, _ = random_problem(np.random.default_rng(3))
    with pytest.raises(ValueError, match="C must be a finite number > 0"):
        smo_solve(K, y, C)


def test_sigmoid_separated_scores():
    scores = np.concatenate([np.full(20, 2.0), np.full(20, -2.0)])
    labels = np.concatenate([np.ones(20), -np.ones(20)])
    cal = fit_sigmoid(scores, labels)
    high, low, far = cal.predict(np.array([2.0, -2.0, 10.0]))
    assert high > 0.9
    assert low < 0.1
    # smoothed targets keep the fit strictly inside (0, 1)
    assert 0.0 < far < 1.0


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


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def test_logistic_matches_the_two_branch_forms_it_replaced_bitwise():
    # ~400k arguments A*s + B: the edges, a dense sweep, typical scores, and
    # both signs of every magnitude from 1e-300 to 1e300
    edges = [0.0, -0.0, 1e-300, -1e-300, 700.0, -700.0, 800.0, -800.0, np.inf, -np.inf]
    tiny_to_huge = np.logspace(-300, 300, 50_000)
    f = np.concatenate([edges, np.linspace(-800.0, 800.0, 200_001),
                        np.random.default_rng(0).normal(0.0, 20.0, 100_000),
                        tiny_to_huge, -tiny_to_huge])
    # the calibrator's former np.where over two clipped branches
    clipped = np.where(
        f >= 0,
        np.exp(-np.clip(f, 0, None)) / (1.0 + np.exp(-np.clip(f, 0, None))),
        1.0 / (1.0 + np.exp(np.clip(f, None, 0))),
    )
    # the Newton fit's former masked p and q
    pos, ep = f >= 0, np.exp(-np.abs(f))
    p, q = np.empty_like(f), np.empty_like(f)
    p[pos], q[pos] = ep[pos] / (1.0 + ep[pos]), 1.0 / (1.0 + ep[pos])
    p[~pos], q[~pos] = 1.0 / (1.0 + ep[~pos]), ep[~pos] / (1.0 + ep[~pos])
    assert np.array_equal(_bits(clipped), _bits(p))
    assert np.array_equal(_bits(svm._logistic(f)), _bits(p))
    assert np.array_equal(_bits(svm._logistic(-f)), _bits(q))
    calibrator = svm.SigmoidCalibrator(A=1.0, B=0.0)
    assert np.array_equal(_bits(calibrator.predict(f)), _bits(p))
    assert calibrator.predict(np.array([-800.0, 0.0])).tolist() == [1.0, 0.5]


def test_coupling_recovers_named_distribution():
    p = np.array([0.6, 0.3, 0.1])
    r = np.zeros((3, 3))
    for i, j in itertools.permutations(range(3), 2):
        r[i, j] = p[i] / (p[i] + p[j])
    q = pairwise_coupling(r[None])[0]
    assert np.abs(q - p).max() <= 1e-6


def test_coupling_uniform_r_gives_uniform_p():
    r = np.full((6, 6), 0.5)
    np.fill_diagonal(r, 0.0)
    assert pairwise_coupling(r[None])[0] == pytest.approx(np.full(6, 1 / 6), abs=1e-9)


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
    q = pairwise_coupling(r[None])[0]
    assert abs(q.sum() - 1.0) <= 1e-9
    assert np.all(q >= -1e-12)


def random_pairwise_stack(rng, n, k):
    """n noisy complementary (k, k) matrices, not consistent with any p."""
    r = np.zeros((n, k, k))
    for i, j in itertools.combinations(range(k), 2):
        r[:, i, j] = rng.uniform(0.02, 0.98, n)
        r[:, j, i] = 1.0 - r[:, i, j]
    return r


def test_coupling_batch_matches_each_instance_alone():
    r = random_pairwise_stack(np.random.default_rng(11), 40, 6)
    q = pairwise_coupling(r)
    assert q.shape == (40, 6)
    for row, r_one in zip(q, r):
        assert np.abs(row - pairwise_coupling(r_one[None])[0]).max() <= 1e-12
        assert np.abs(row - coupling_oracle(r_one)).max() <= 1e-12


def test_coupling_rejects_degenerate_r():
    r = np.full((3, 3), 0.5)
    np.fill_diagonal(r, 0.0)
    r[0, 1] = 0.0
    r[1, 0] = 1.0
    with pytest.raises(ValueError):
        pairwise_coupling(r[None])


def _not_complementary():
    r = np.full((1, 3, 3), 0.5)
    r[0, 0, 2] = 0.6
    return r


@pytest.mark.parametrize("r", [
    _not_complementary(),
    np.full((1, 1, 1), 0.5),  # a single class
    np.full((3, 3), 0.5),  # one matrix, not a stack
    np.full((1, 3, 4), 0.5),
], ids=["not-complementary", "k1", "2d", "not-square"])
def test_coupling_rejects_bad_stacks(r):
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


def test_sv_block_stores_each_support_vector_row_once(svm_model):
    corpus, model = svm_model
    referenced = np.concatenate([pair.svm.sv for pair in model.pair_models.values()])
    assert np.array_equal(np.unique(referenced), np.arange(len(model.sv)))
    for pair in model.pair_models.values():
        assert np.all(np.diff(pair.svm.sv) > 0)
    # match every stored row to the training row at distance 0: the matches
    # strictly increase, so the block is in training-row order and holds no
    # training row twice (the synthetic rows are pairwise distinct)
    d2 = squared_distances(model.sv, model._pack(corpus))
    match = np.argmin(d2, axis=1)
    assert np.all(d2[np.arange(len(match)), match] < 1e-9)
    assert np.all(np.diff(match) > 0)


def test_pair_decisions_through_shared_block_match_own_rows(svm_model):
    corpus, model = svm_model
    x = model._pack(corpus[:60])
    K = kernel_matrix(x, model.sv, model.gamma)
    sv_rows = model.sv.bool_index_lists()
    for pair in model.pair_models.values():
        own_rows = packed_from_bool_lists([sv_rows[i] for i in pair.svm.sv],
                                          model.sv.dense[pair.svm.sv], len(model.space))
        own = kernel_matrix(x, own_rows, model.gamma)
        np.testing.assert_allclose(
            K[:, pair.svm.sv] @ pair.svm.coef + pair.svm.b,
            own @ pair.svm.coef + pair.svm.b,
            rtol=0, atol=1e-12,
        )


def test_multiclass_probabilities_sum_to_one(svm_model):
    corpus, model = svm_model
    proba = model.predict_proba_many(corpus[:25])
    assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(proba >= 0.0)


def test_deep_training_instance_gets_its_class(svm_model):
    corpus, model = svm_model
    inst = corpus[0]
    assert model.predict_many([inst]) == [inst.label]


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
        load_svm_model(path, EmbeddingTable(["a"], [[1.0, 2.0]]))


def test_packed_roundtrip_through_index_lists(svm_model):
    corpus, model = svm_model
    packed = model._pack(corpus[:10])
    rebuilt = packed_from_bool_lists(packed.bool_index_lists(), packed.dense, len(model.space))
    assert np.array_equal(kernel_matrix(packed, packed, 0.1),
                          kernel_matrix(rebuilt, rebuilt, 0.1))


@pytest.mark.parametrize("row", [[2, 1], [1, 1], [-1, 2], [0, 3], [0.0], [True], [[1]], ["a"]],
                         ids=["unsorted", "duplicate", "negative", "space-size",
                              "float", "bool", "nested", "string"])
def test_packed_rows_reject_bad_columns(row):
    with pytest.raises(ValueError, match="boolean row 1: columns must be strictly increasing"):
        packed_from_bool_lists([[0, 2], row], np.zeros((2, 1)), 3)


def test_pack_features_consistency(svm_model, syn_table):
    corpus, model = svm_model
    key_sets, dense = featurize(corpus[:4], model.vocabulary, syn_table, model.levin)
    # per-instance reference rows: columns looked up key by key, dense scaled row by row
    column = {key: i for i, key in enumerate(model.space.keys())}
    cols = [sorted(column[k] for k in keys if k in column) for keys in key_sets]
    rows = [model.scaler.apply(row.copy()) for row in dense]
    packed = pack_rows(key_sets, dense, model.space, model.scaler)
    assert packed.bool_index_lists() == cols
    assert np.array_equal(packed.dense, np.vstack(rows))
    # pairwise kernel agrees with the single-pair path
    K = kernel_matrix(packed, packed, gamma=0.2)
    for i, j in itertools.combinations(range(4), 2):
        ref = rbf_kernel(np.array(cols[i]), rows[i], np.array(cols[j]), rows[j], 0.2)
        assert K[i, j] == pytest.approx(ref, abs=1e-12)


def _dense_rows(packed, space_size):
    """The oracle's layout of a packed block: one float32 0/1 row per instance."""
    bools = np.zeros((len(packed), space_size), dtype=np.float32)
    for i, cols in enumerate(packed.bool_index_lists()):
        bools[i, cols] = 1.0
    return DenseRows(bools, packed.dense)


def _kernel_case(seed):
    """Two seeded blocks over one space, with crafted rows: empty in both,
    identical across the blocks, disjoint across them, and the space's last
    column in the first block only."""
    rng = np.random.default_rng(seed)
    space_size = int(rng.integers(2, 80))
    width = 0 if seed % 3 == 0 else int(rng.integers(1, 6))

    def block(n):
        sizes = rng.integers(0, min(space_size - 1, 15) + 1, size=n)
        rows = [np.sort(rng.choice(space_size - 1, size=k, replace=False)) for k in sizes]
        return rows, rng.random((n, width))

    a_rows, a_dense = block(int(rng.integers(5, 12)))
    b_rows, b_dense = block(int(rng.integers(5, 12)))
    a_rows[0] = b_rows[0] = np.array([], dtype=np.int64)
    b_rows[1], b_dense[1] = a_rows[1].copy(), a_dense[1]
    b_rows[2] = np.setdiff1d(np.arange(space_size - 1), a_rows[2])[:4]
    a_rows[3] = np.append(a_rows[3], space_size - 1)
    a = packed_from_bool_lists(a_rows, a_dense, space_size)
    b = packed_from_bool_lists(b_rows, b_dense, space_size)
    return a, b, space_size


@pytest.mark.parametrize("seed", range(9))
def test_kernel_matches_dense_reference(seed):
    a, b, space_size = _kernel_case(seed)
    dense_a, dense_b = _dense_rows(a, space_size), _dense_rows(b, space_size)
    gamma = 0.3
    # a with itself (training), then the two blocks both ways (prediction)
    for x, z, ref_x, ref_z in ((a, a, dense_a, dense_a), (a, b, dense_a, dense_b),
                               (b, a, dense_b, dense_a)):
        d2 = squared_distances_dense_reference(ref_x, ref_z)
        assert np.array_equal(squared_distances(x, z), d2)
        assert np.array_equal(kernel_matrix(x, z, gamma), np.exp(-gamma * d2))


def test_kernel_matches_dense_reference_on_model_rows(svm_model):
    corpus, model = svm_model
    x = model._pack(corpus)
    dense_x, dense_sv = _dense_rows(x, len(model.space)), _dense_rows(model.sv, len(model.space))
    for z, dense_z in ((x, dense_x), (model.sv, dense_sv)):
        d2 = squared_distances_dense_reference(dense_x, dense_z)
        assert np.array_equal(kernel_matrix(x, z, model.gamma), np.exp(-model.gamma * d2))


def test_packed_rows_layout():
    rows = [[2], [0, 1], [], [1, 4]]
    packed = packed_from_bool_lists(rows, np.arange(4.0)[:, None], 5)
    assert packed.cols.dtype == np.int64 and packed.cols.tolist() == [2, 0, 1, 1, 4]
    assert packed.ptr.tolist() == [0, 1, 3, 3, 5]
    empty = packed_from_bool_lists([[], []], np.zeros((2, 0)), 0)
    assert empty.cols.dtype == np.int64 and empty.ptr.tolist() == [0, 0, 0]


@pytest.mark.parametrize("rows, bad", [
    ([[0, 2], [], [2, 1], [5]], 2),
    ([[2], [1], [0, 3]], 2),
], ids=["first-of-two", "after-row-starts-below-the-last-row"])
def test_packed_rows_name_the_first_bad_row(rows, bad):
    with pytest.raises(ValueError, match=f"boolean row {bad}: "):
        packed_from_bool_lists(rows, np.zeros((len(rows), 1)), 3)


def test_training_and_prediction_build_the_same_rows(monkeypatch, syn_table, levin):
    corpus = make_corpus(n_per_class=5, seed=4)
    built = []

    def recording_pack_rows(*args):
        built.append(pack_rows(*args))
        return built[-1]

    monkeypatch.setattr(svm, "pack_rows", recording_pack_rows)
    model = train_multiclass(corpus, syn_table, levin, freq_threshold=1)
    (trained,) = built
    predicted = model._pack(corpus)
    assert len(built) == 2
    assert np.array_equal(trained.cols, predicted.cols)
    assert np.array_equal(trained.ptr, predicted.ptr)
    assert np.array_equal(trained.dense, predicted.dense)


def _corpus_with_topic(n_topic):
    """The 12-per-class synthetic corpus with only n_topic TOPIC instances."""
    corpus = make_corpus(n_per_class=12)
    topic = [inst for inst in corpus if inst.label is RelationLabel.TOPIC]
    return [inst for inst in corpus if inst.label is not RelationLabel.TOPIC] + topic[:n_topic]


# TOPIC missing: its five pairs are skipped, and their None crosses the pool.
# One TOPIC instance: its pairs are too small for calibration folds.
@pytest.mark.parametrize("n_topic, pairs", [(12, 15), (0, 10), (1, 15)],
                         ids=["all-classes", "one-class-missing", "one-instance-class"])
def test_model_file_does_not_depend_on_worker_count(
    monkeypatch, tmp_path, syn_table, levin, n_topic, pairs
):
    corpus = _corpus_with_topic(n_topic)
    written = []
    for cpus in (1, 2):
        force_cpus(monkeypatch, cpus)
        model = train_multiclass(corpus, syn_table, levin, freq_threshold=1)
        assert model.fit_report["workers"] == cpus
        assert len(model.pair_models) == pairs
        # each fit lands on its own pair, whatever order the workers ran them in
        for (i, j), pair in model.pair_models.items():
            assert (pair.first, pair.second) == (LABELS[i], LABELS[j])
        save_svm_model(model, tmp_path / f"{cpus}.json")
        written.append((tmp_path / f"{cpus}.json").read_bytes())
    assert written[0] == written[1]


def test_one_instance_class_calibrates_on_training_scores(monkeypatch, syn_table, levin):
    force_cpus(monkeypatch, 1)
    model = train_multiclass(_corpus_with_topic(1), syn_table, levin, freq_threshold=1)
    topic = LABELS.index(RelationLabel.TOPIC)
    for pair, fit in model.fit_report["pairs"].items():
        assert fit["folds"] == (0 if topic in pair else 5)


def test_fit_report_counts_every_smo_fit(monkeypatch, syn_table, levin):
    force_cpus(monkeypatch, 1)
    fits = []

    def recording_smo_solve(*args):
        fits.append(smo_solve(*args))
        return fits[-1]

    monkeypatch.setattr(svm, "smo_solve", recording_smo_solve)
    model = train_multiclass(uneven_corpus(), syn_table, levin, freq_threshold=1)
    report = model.fit_report
    assert report["workers"] == 1 and set(report["pairs"]) == set(model.pair_models)
    assert sum(d["n_iter"] + d["fold_iters"] for d in report["pairs"].values()) == sum(
        n_iter for _, _, n_iter, _ in fits
    )
    assert len(fits) == 15 + sum(d["folds"] for d in report["pairs"].values())
    for d in report["pairs"].values():
        assert d["folds"] == d["folds_converged"] == 5 and d["seconds"] > 0


@pytest.mark.parametrize("cpus", [1, 2])
def test_no_worker_outlives_training(monkeypatch, syn_table, levin, cpus):
    force_cpus(monkeypatch, cpus)
    train_multiclass(uneven_corpus(), syn_table, levin, freq_threshold=1)
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(svm, "smo_solve", failing_smo())
    with pytest.raises(SvmTrainingError) as failed:
        train_multiclass(uneven_corpus(), syn_table, levin, freq_threshold=1)
    # the worker's exception, re-raised here with its type and message
    assert failed.type is SvmTrainingError
    assert str(failed.value) == "no solution for pair COMPARE/TOPIC"
    assert multiprocessing.active_children() == []


def test_synthetic_keywords_are_separable(syn_table):
    # sanity on the synthetic generator itself: keyword embeddings are
    # mutually near-orthogonal, so the class signal is real
    from relclass.synthetic import KEYWORDS
    vecs = [syn_table.lookup(w) for w in KEYWORDS.values()]
    for u, v in itertools.combinations(vecs, 2):
        assert abs(cosine(u, v)) < 0.2
