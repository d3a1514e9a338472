import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance, tok
from oracles import f1_oracle
from relclass.corpus import LABELS, RelationLabel
from relclass.evaluation import (
    ConfusionMatrix,
    confusion,
    cross_validate,
    f1_scores,
    format_report,
    stratified_fold_indices,
    stratified_split,
)

TOPIC = RelationLabel.TOPIC
PART_WHOLE = RelationLabel.PART_WHOLE


def random_matrix(rng, low=0, high=30):
    return ConfusionMatrix(rng.integers(low, high, size=(6, 6)))


def test_confusion_diagonal_when_perfect():
    gold = [LABELS[i % 6] for i in range(30)]
    cm = confusion(gold, gold)
    assert np.array_equal(cm.counts, np.diag([5] * 6))


def test_confusion_single_error():
    cm = confusion([RelationLabel.COMPARE], [RelationLabel.USAGE])
    expected = np.zeros((6, 6), dtype=np.int64)
    expected[0, 5] = 1
    assert np.array_equal(cm.counts, expected)


def test_confusion_order_invariant():
    rng = np.random.default_rng(3)
    gold = [LABELS[i] for i in rng.integers(0, 6, 40)]
    pred = [LABELS[i] for i in rng.integers(0, 6, 40)]
    cm = confusion(gold, pred)
    perm = rng.permutation(40)
    cm2 = confusion([gold[i] for i in perm], [pred[i] for i in perm])
    assert np.array_equal(cm.counts, cm2.counts)


def test_confusion_rejects_mismatch_and_empty():
    with pytest.raises(ValueError):
        confusion([RelationLabel.USAGE], [])
    with pytest.raises(ValueError):
        confusion([], [])


def test_perfect_scores():
    gold = [LABELS[i % 6] for i in range(60)]
    report = f1_scores(confusion(gold, gold))
    assert report.macro_f1 == 1.0
    assert report.micro_f1 == 1.0
    assert all(v == 1.0 for v in report.f1.values())
    assert all(report.support[l] == 10 for l in LABELS)


def test_zero_denominator_convention():
    # a class with no gold and no predicted instances scores P = R = F1 = 0
    counts = np.zeros((6, 6), dtype=np.int64)
    counts[0, 0] = 5
    report = f1_scores(ConfusionMatrix(counts))
    assert report.f1[RelationLabel.USAGE] == 0.0
    assert report.precision[RelationLabel.USAGE] == 0.0
    assert report.macro_f1 == pytest.approx(1.0 / 6.0)


def test_f1_matches_oracle_on_random_matrices():
    rng = np.random.default_rng(12)
    for _ in range(100):
        cm = random_matrix(rng)
        report = f1_scores(cm)
        per_class, macro, micro = f1_oracle(cm.counts)
        assert abs(report.macro_f1 - macro) <= 1e-12
        assert abs(report.micro_f1 - micro) <= 1e-12
        for label, ref in zip(LABELS, per_class):
            assert abs(report.f1[label] - ref) <= 1e-12


def test_micro_f1_equals_accuracy():
    rng = np.random.default_rng(4)
    for _ in range(20):
        cm = random_matrix(rng, low=0, high=9)
        if cm.total == 0:
            continue
        report = f1_scores(cm)
        assert report.micro_f1 == pytest.approx(np.trace(cm.counts) / cm.total, abs=1e-15)


def test_macro_sensitivity_to_one_small_class_flip():
    # Skewed distribution with a 3-instance TOPIC class, none predicted
    # correctly; one of them is predicted as a class that has no true
    # positives of its own. Flipping that single prediction to the gold
    # label moves macro-F1 by exactly the TOPIC F1 delta / 6 (about 5.6
    # points here), while every other class's F1 is unchanged.
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
    rep_before = f1_scores(ConfusionMatrix(before))
    rep_after = f1_scores(ConfusionMatrix(after))
    assert rep_before.f1[TOPIC] == 0.0
    assert rep_after.f1[TOPIC] == pytest.approx(1.0 / 3.0)
    assert rep_before.f1[PART_WHOLE] == rep_after.f1[PART_WHOLE] == 0.0
    delta = rep_after.macro_f1 - rep_before.macro_f1
    assert delta == pytest.approx((rep_after.f1[TOPIC] - rep_before.f1[TOPIC]) / 6.0, abs=1e-12)
    assert delta == pytest.approx(1.0 / 18.0)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 5), min_size=10, max_size=60),
    st.integers(2, 10),
    st.integers(0, 3),
)
def test_fold_partition_properties(label_ids, k, seed):
    folds = stratified_fold_indices(label_ids, min(k, len(label_ids)), seed=seed)
    flat = np.concatenate(folds)
    # disjoint union covering every index
    assert sorted(flat.tolist()) == list(range(len(label_ids)))
    # per-class per-fold counts differ by at most one
    for cls in set(label_ids):
        per_fold = [sum(1 for i in f if label_ids[i] == cls) for f in folds]
        assert max(per_fold) - min(per_fold) <= 1


def test_folds_reproducible():
    labels = [LABELS[i % 6] for i in range(37)]
    a = stratified_fold_indices(labels, 5, seed=9)
    b = stratified_fold_indices(labels, 5, seed=9)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = stratified_fold_indices(labels, 5, seed=10)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_fold_argument_validation():
    labels = [0, 1] * 5
    with pytest.raises(ValueError):
        stratified_fold_indices(labels, 1)
    with pytest.raises(ValueError):
        stratified_fold_indices(labels, 11)


class RecordingModel:
    """A trainer's model that keeps the set it was trained on and each batch
    it is asked to label, and labels every instance with its gold label."""

    def __init__(self, train_set, models):
        self.train_set, self.batches = train_set, []
        models.append(self)

    def predict_many(self, instances):
        self.batches.append(list(instances))
        return [inst.label for inst in instances]


def test_kfold_train_test_disjoint(syn_corpus):
    for k in (2, 10):
        models = []
        cross_validate(syn_corpus, lambda train_set: RecordingModel(train_set, models),
                       k=k, seed=0)
        for model in models:
            train, (test,) = model.train_set, model.batches
            ids = {i.id for i in train}
            assert not ids & {i.id for i in test}
            assert len(train) + len(test) == len(syn_corpus)


def test_kfold_rejects_unlabeled_instances():
    instances = [make_instance([tok("a"), tok("b")], e1=(0, 0), e2=(1, 1), id=f"t-{i}",
                               label=None if i == 3 else TOPIC) for i in range(4)]
    models = []
    with pytest.raises(ValueError, match="^cross-validation needs labeled instances$"):
        cross_validate(instances, lambda train_set: RecordingModel(train_set, models), k=2)
    assert models == []


def test_cross_validate_trains_on_the_complement_and_scores_the_fold(syn_corpus):
    folds = stratified_fold_indices([inst.label for inst in syn_corpus], 4, seed=3)
    models = []
    result = cross_validate(syn_corpus, lambda train_set: RecordingModel(train_set, models),
                            k=4, seed=3)
    assert len(models) == len(result.fold_reports) == 4
    for model, fold in zip(models, folds):
        held_out = set(fold.tolist())
        # the complement of the fold in corpus order, then the fold in the order
        # stratified_fold_indices gives it, labeled once
        assert model.train_set == [inst for i, inst in enumerate(syn_corpus)
                                   if i not in held_out]
        assert model.batches == [[syn_corpus[i] for i in fold]]
    assert result.micro_mean == 1.0


def test_fold_indices_pinned():
    # integer labels whose repr order (1, 10, 2, 3) is not their numeric
    # order; the indices are those the folds gave before the validation split
    # came to share their per-class shuffle, and the SVM's calibration reads them
    labels = [3, 10, 2, 10, 1, 3, 2, 10, 10, 1, 3, 2, 10, 3, 1, 2, 10, 3]
    folds = stratified_fold_indices(labels, 4, seed=5)
    assert [f.tolist() for f in folds] == [
        [6, 9, 10, 12, 16], [0, 2, 7, 14, 17], [4, 5, 8, 15], [1, 3, 11, 13]]


def labeled_instances(class_sizes):
    out = []
    for label, n in zip(LABELS, class_sizes):
        for i in range(n):
            out.append(make_instance([tok("a"), tok("b"), tok("c")], e1=(0, 0),
                                     e2=(2, 2), label=label, id=f"{label.value}-{i}"))
    return out


def test_split_fraction_zero_keeps_everything():
    insts = labeled_instances([4, 4, 4, 4, 4, 4])
    train, val = stratified_split(insts, fraction=0.0)
    assert val == []
    assert train == insts


def test_split_rejects_bad_input():
    insts = labeled_instances([2, 2, 2, 2, 2, 2])
    with pytest.raises(ValueError):
        stratified_split([], fraction=0.1)
    with pytest.raises(ValueError):
        stratified_split(insts, fraction=1.0)
    unlabeled = make_instance([tok("a"), tok("b")], e1=(0, 0), e2=(1, 1), label=None)
    with pytest.raises(ValueError):
        stratified_split(insts + [unlabeled], fraction=0.1)


def test_split_balanced_corpus_proportions():
    insts = labeled_instances([20, 20, 20, 20, 20, 20])
    train, val = stratified_split(insts, fraction=0.10, seed=0)
    assert len(val) == 12
    per_class = Counter(i.label for i in val)
    assert all(per_class[l] == 2 for l in LABELS)
    assert {i.id for i in train} | {i.id for i in val} == {i.id for i in insts}
    assert not {i.id for i in train} & {i.id for i in val}


def test_split_small_classes_get_one_instance():
    insts = labeled_instances([40, 3, 2, 0, 0, 0])
    _, val = stratified_split(insts, fraction=0.10, seed=1)
    per_class = Counter(i.label for i in val)
    assert per_class[LABELS[1]] == 1
    assert per_class[LABELS[2]] == 1


def test_split_singleton_class_stays_in_train():
    insts = labeled_instances([30, 1, 0, 0, 0, 0])
    train, val = stratified_split(insts, fraction=0.10, seed=2)
    assert all(i.label is LABELS[0] for i in val)
    assert sum(1 for i in train if i.label is LABELS[1]) == 1


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(0, 40), min_size=6, max_size=6).filter(lambda s: sum(s) >= 10),
    st.integers(0, 5),
)
def test_split_per_class_deviation_bounded(class_sizes, seed):
    insts = labeled_instances(class_sizes)
    train, val = stratified_split(insts, fraction=0.10, seed=seed)
    assert len(train) + len(val) == len(insts)
    per_class = Counter(i.label for i in val)
    for label, n_k in zip(LABELS, class_sizes):
        got = per_class.get(label, 0)
        # round half up, at least one of a class of two or more; no global adjustment
        assert got == (0 if n_k <= 1 else max(1, math.floor(0.10 * n_k + 0.5)))


def test_split_seed_reproducible():
    insts = labeled_instances([15, 15, 15, 15, 15, 15])
    a = stratified_split(insts, fraction=0.2, seed=5)
    b = stratified_split(insts, fraction=0.2, seed=5)
    assert [i.id for i in a[1]] == [i.id for i in b[1]]
    c = stratified_split(insts, fraction=0.2, seed=6)
    assert [i.id for i in a[1]] != [i.id for i in c[1]]


def test_constant_classifier_balanced_two_class():
    insts = []
    for i in range(20):
        label = RelationLabel.USAGE if i % 2 else RelationLabel.COMPARE
        insts.append(make_instance([tok("a"), tok("b"), tok("c")], e1=(0, 0), e2=(2, 2),
                                   label=label, id=f"i{i}"))

    class ConstantModel:
        def predict_many(self, batch):
            return [RelationLabel.USAGE] * len(batch)

    def train(train_set):
        return ConstantModel()

    result = cross_validate(insts, train, k=5, seed=0)
    for report in result.fold_reports:
        assert report.micro_f1 == pytest.approx(0.5)
    assert result.micro_mean == pytest.approx(0.5)
    assert result.micro_std == pytest.approx(0.0)


def test_cross_validate_svm_synthetic(syn_table, levin):
    from relclass.svm import train_multiclass
    from relclass.synthetic import make_corpus

    corpus = make_corpus(n_per_class=20)

    def train(train_set):
        return train_multiclass(train_set, syn_table, levin, freq_threshold=5)

    result = cross_validate(corpus, train, k=10, seed=0)
    assert result.macro_mean >= 0.95


def test_format_report_mentions_every_label():
    gold = [LABELS[i % 6] for i in range(12)]
    text = format_report(f1_scores(confusion(gold, gold)))
    for label in LABELS:
        assert label.value in text
    assert "macro" in text and "micro" in text
