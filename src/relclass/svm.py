"""Multiclass RBF-kernel SVM with probability outputs.

One binary SVM per unordered class pair, trained from scratch by sequential
minimal optimization on the dual. Each pair gets a sigmoid calibrator fitted
on cross-validated decision scores; at prediction time the 15 calibrated
pairwise probabilities are coupled into a single distribution over the six
classes (quadratic pairwise-coupling objective, fixed-point solve) and the
argmax wins.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy import sparse

from . import modelio
from .corpus import LABELS, FrequencyTable, RelationInstance, RelationLabel, build_lemma_counts
from .embeddings import EmbeddingTable
from .evaluation import stratified_fold_indices
from .features import (
    FeatureKey,
    FeatureSpace,
    FeatureVector,
    LevinTable,
    MinMaxScaler,
    assemble,
    build_feature_space,
    dense_block,
    extract_keys,
    fit_minmax,
)

log = logging.getLogger(__name__)

SVM_FORMAT = "relclass-svm"


class SvmTrainingError(ValueError):
    pass


# ---------------------------------------------------------------------------
# kernel machinery

@dataclass(frozen=True)
class PackedFeatures:
    """Column-compressed boolean block plus the dense block, row per instance."""

    bool_csr: sparse.csr_matrix
    bool_counts: np.ndarray
    dense: np.ndarray

    def __len__(self) -> int:
        return self.dense.shape[0]

    def subset(self, idx: np.ndarray) -> "PackedFeatures":
        return PackedFeatures(
            bool_csr=self.bool_csr[idx],
            bool_counts=self.bool_counts[idx],
            dense=self.dense[idx],
        )

    def bool_index_lists(self) -> list[list[int]]:
        csr = self.bool_csr
        return [
            sorted(csr.indices[csr.indptr[i] : csr.indptr[i + 1]].tolist())
            for i in range(csr.shape[0])
        ]


def pack_features(fvs: Sequence[FeatureVector], space_size: int | None = None) -> PackedFeatures:
    if not fvs:
        raise ValueError("nothing to pack")
    if space_size is None:
        space_size = fvs[0].space_size
    indptr = [0]
    indices: list[int] = []
    for fv in fvs:
        if fv.space_size != space_size:
            raise ValueError("feature vectors come from different spaces")
        indices.extend(fv.bool_indices.tolist())
        indptr.append(len(indices))
    data = np.ones(len(indices), dtype=np.float64)
    csr = sparse.csr_matrix(
        (data, np.asarray(indices, dtype=np.int32), np.asarray(indptr, dtype=np.int32)),
        shape=(len(fvs), space_size),
    )
    return PackedFeatures(
        bool_csr=csr,
        bool_counts=np.asarray(csr.sum(axis=1)).ravel(),
        dense=np.vstack([fv.dense for fv in fvs]).astype(np.float64),
    )


def packed_from_bool_lists(
    bool_lists: Sequence[Sequence[int]], dense: np.ndarray, space_size: int
) -> PackedFeatures:
    indptr = [0]
    indices: list[int] = []
    for row in bool_lists:
        indices.extend(int(i) for i in row)
        indptr.append(len(indices))
    csr = sparse.csr_matrix(
        (
            np.ones(len(indices), dtype=np.float64),
            np.asarray(indices, dtype=np.int32),
            np.asarray(indptr, dtype=np.int32),
        ),
        shape=(len(bool_lists), space_size),
    )
    return PackedFeatures(
        bool_csr=csr,
        bool_counts=np.asarray(csr.sum(axis=1)).ravel(),
        dense=np.asarray(dense, dtype=np.float64),
    )


def squared_distances(a: PackedFeatures, b: PackedFeatures) -> np.ndarray:
    """Pairwise squared Euclidean distances over the concatenated boolean+dense
    representation. Boolean part = symmetric-difference size."""
    inner = (a.bool_csr @ b.bool_csr.T).toarray()
    d2 = a.bool_counts[:, None] + b.bool_counts[None, :] - 2.0 * inner
    da = np.einsum("ij,ij->i", a.dense, a.dense)
    db = np.einsum("ij,ij->i", b.dense, b.dense)
    d2 += da[:, None] + db[None, :] - 2.0 * (a.dense @ b.dense.T)
    return np.maximum(d2, 0.0)


def kernel_matrix(a: PackedFeatures, b: PackedFeatures, gamma: float) -> np.ndarray:
    return np.exp(-gamma * squared_distances(a, b))


def rbf_kernel(x: FeatureVector, z: FeatureVector, gamma: float) -> float:
    """exp(-gamma * ||x - z||^2) for a single feature-vector pair."""
    if x.space_size != z.space_size or x.dense.shape != z.dense.shape:
        raise ValueError("feature vectors come from different spaces")
    shared = np.intersect1d(x.bool_indices, z.bool_indices, assume_unique=True).size
    d2 = (x.bool_indices.size - shared) + (z.bool_indices.size - shared)
    diff = x.dense - z.dense
    d2 += float(diff @ diff)
    return float(np.exp(-gamma * max(d2, 0.0)))


# ---------------------------------------------------------------------------
# SMO dual solver

def smo_solve(
    K: np.ndarray,
    y: np.ndarray,
    C: float,
    tol: float = 1e-3,
    max_iter: int = 100_000,
) -> tuple[np.ndarray, float, int, bool]:
    """Maximal-violating-pair SMO on the SVM dual.

    Maximizes sum(a) - 1/2 (a*y)' K (a*y) subject to 0 <= a <= C and
    y'a = 0, stopping when the maximal KKT violation m - M drops to tol.
    Returns (alpha, bias, iterations, converged).
    """
    n = K.shape[0]
    y = np.asarray(y, dtype=np.float64)
    if K.shape != (n, n) or y.shape != (n,):
        raise ValueError("kernel/label shape mismatch")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise SvmTrainingError("both classes must be present")
    alpha = np.zeros(n)
    G = y.copy()  # y - f with f = K (alpha*y) = 0 at the start
    pos = y > 0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        up = np.where(pos, alpha < C, alpha > 0)
        low = np.where(pos, alpha > 0, alpha < C)
        if not up.any() or not low.any():
            converged = True
            break
        i = int(np.argmax(np.where(up, G, -np.inf)))
        j = int(np.argmin(np.where(low, G, np.inf)))
        m, M = G[i], G[j]
        if m - M <= tol:
            converged = True
            break
        eta = max(K[i, i] + K[j, j] - 2.0 * K[i, j], 1e-12)
        hi_i = C - alpha[i] if y[i] > 0 else alpha[i]
        hi_j = alpha[j] if y[j] > 0 else C - alpha[j]
        t = min((m - M) / eta, hi_i, hi_j)
        # snap exactly onto the box when the step is bound-limited
        if t == hi_i:
            alpha[i] = C if y[i] > 0 else 0.0
        else:
            alpha[i] += y[i] * t
        if t == hi_j:
            alpha[j] = 0.0 if y[j] > 0 else C
        else:
            alpha[j] -= y[j] * t
        G -= t * (K[:, i] - K[:, j])
    else:
        it = max_iter
    if not converged:
        log.warning("SMO hit the iteration cap (%d) before reaching tol=%g", max_iter, tol)
    _rebalance(alpha, y, C)
    b = _bias(alpha, y, G, C)
    return alpha, b, it, converged


def _rebalance(alpha: np.ndarray, y: np.ndarray, C: float) -> None:
    """Fold the float drift of sum(alpha*y) into interior variables."""
    s = float(np.dot(alpha, y))
    if s == 0.0:
        return
    margin = np.minimum(alpha, C - alpha)
    for idx in np.argsort(-margin):
        if s == 0.0 or margin[idx] <= 0.0:
            break
        delta = float(np.clip(y[idx] * s, -margin[idx], margin[idx]))
        alpha[idx] -= delta
        s -= y[idx] * delta


def _bias(alpha: np.ndarray, y: np.ndarray, G: np.ndarray, C: float) -> float:
    free = (alpha > 0) & (alpha < C)
    if free.any():
        return float(G[free].mean())
    pos = y > 0
    up = np.where(pos, alpha < C, alpha > 0)
    low = np.where(pos, alpha > 0, alpha < C)
    m = G[up].max() if up.any() else 0.0
    M = G[low].min() if low.any() else 0.0
    return float((m + M) / 2.0)


def dual_objective(K: np.ndarray, y: np.ndarray, alpha: np.ndarray) -> float:
    ay = alpha * y
    return float(alpha.sum() - 0.5 * ay @ K @ ay)


def kkt_violation(K: np.ndarray, y: np.ndarray, alpha: np.ndarray, b: float, C: float) -> float:
    """Largest per-point KKT violation of a candidate dual solution."""
    yf = y * (K @ (alpha * y) + b)
    at_zero = alpha <= 0
    at_c = alpha >= C
    interior = ~at_zero & ~at_c
    v = np.zeros_like(alpha)
    v[at_zero] = np.maximum(0.0, 1.0 - yf[at_zero])
    v[at_c] = np.maximum(0.0, yf[at_c] - 1.0)
    v[interior] = np.abs(yf[interior] - 1.0)
    return float(v.max())


@dataclass(frozen=True)
class BinarySvmModel:
    """One trained binary SVM: support vectors, dual coefficients a_i*y_i, bias."""

    sv: PackedFeatures
    coef: np.ndarray  # alpha_i * y_i, only rows with alpha > 0
    b: float
    C: float
    gamma: float
    n_iter: int
    converged: bool

    def decision_packed(self, x: PackedFeatures) -> np.ndarray:
        return kernel_matrix(x, self.sv, self.gamma) @ self.coef + self.b

    def decision(self, fv: FeatureVector) -> float:
        return float(self.decision_packed(pack_features([fv]))[0])


# ---------------------------------------------------------------------------
# sigmoid calibration

@dataclass(frozen=True)
class SigmoidCalibrator:
    """P(y=+1 | score) = 1 / (1 + exp(A*score + B))."""

    A: float
    B: float

    def predict(self, scores: np.ndarray | float) -> np.ndarray | float:
        s = np.asarray(scores, dtype=np.float64)
        fapb = self.A * s + self.B
        out = np.where(
            fapb >= 0,
            np.exp(-np.clip(fapb, 0, None)) / (1.0 + np.exp(-np.clip(fapb, 0, None))),
            1.0 / (1.0 + np.exp(np.clip(fapb, None, 0))),
        )
        return float(out) if np.isscalar(scores) else out


def _platt_objective(scores: np.ndarray, targets: np.ndarray, A: float, B: float) -> float:
    fapb = A * scores + B
    pos = fapb >= 0
    val = np.empty_like(fapb)
    val[pos] = targets[pos] * fapb[pos] + np.log1p(np.exp(-fapb[pos]))
    val[~pos] = (targets[~pos] - 1.0) * fapb[~pos] + np.log1p(np.exp(fapb[~pos]))
    return float(val.sum())


def fit_sigmoid(scores: Sequence[float], labels: Sequence[int]) -> SigmoidCalibrator:
    """Newton fit of the calibration sigmoid with smoothed targets.

    Targets are (N+ + 1)/(N+ + 2) for positives and 1/(N- + 2) for negatives,
    which keeps the fit finite even on perfectly separated scores. Newton steps
    use a backtracking line search; stops when the gradient norm drops below
    1e-10 or after 100 iterations.
    """
    s = np.asarray(scores, dtype=np.float64)
    lab = np.asarray(labels, dtype=np.float64)
    if s.shape != lab.shape or s.ndim != 1 or s.size == 0:
        raise ValueError("scores and labels must be equal-length 1-d sequences")
    n_pos = int((lab > 0).sum())
    n_neg = int((lab < 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both labels must be present")
    hi = (n_pos + 1.0) / (n_pos + 2.0)
    lo = 1.0 / (n_neg + 2.0)
    t = np.where(lab > 0, hi, lo)
    A = 0.0
    B = math.log((n_neg + 1.0) / (n_pos + 1.0))
    fval = _platt_objective(s, t, A, B)
    sigma = 1e-12  # Hessian ridge
    for _ in range(100):
        fapb = A * s + B
        pos = fapb >= 0
        p = np.empty_like(fapb)
        q = np.empty_like(fapb)
        ep = np.exp(-np.abs(fapb))
        p[pos] = ep[pos] / (1.0 + ep[pos])
        q[pos] = 1.0 / (1.0 + ep[pos])
        p[~pos] = 1.0 / (1.0 + ep[~pos])
        q[~pos] = ep[~pos] / (1.0 + ep[~pos])
        d2 = p * q
        h11 = float(s @ (s * d2)) + sigma
        h22 = float(d2.sum()) + sigma
        h21 = float(s @ d2)
        d1 = t - p
        g1 = float(s @ d1)
        g2 = float(d1.sum())
        if math.hypot(g1, g2) < 1e-10:
            break
        det = h11 * h22 - h21 * h21
        dA = -(h22 * g1 - h21 * g2) / det
        dB = -(-h21 * g1 + h11 * g2) / det
        gd = g1 * dA + g2 * dB
        step = 1.0
        while step >= 1e-10:
            new_a, new_b = A + step * dA, B + step * dB
            new_f = _platt_objective(s, t, new_a, new_b)
            if new_f < fval + 1e-4 * step * gd:
                A, B, fval = new_a, new_b, new_f
                break
            step /= 2.0
        else:
            # no float64-representable improvement left, we are at the optimum
            log.debug("sigmoid fit: line search exhausted at |g|=%.3g", math.hypot(g1, g2))
            break
    return SigmoidCalibrator(A=A, B=B)


# ---------------------------------------------------------------------------
# pairwise coupling

def pairwise_coupling(
    r: np.ndarray, tol: float = 1e-10, max_sweeps: int = 1000
) -> np.ndarray:
    """Couple pairwise probabilities r_ij = P(i | i or j) into one distribution.

    Minimizes sum_i sum_{j!=i} (r_ji p_i - r_ij p_j)^2 over the probability
    simplex via the normalized fixed-point iteration on Q p = (p'Qp) e, with
    Q_ii = sum_{j!=i} r_ji^2 and Q_ij = -r_ji r_ij.
    """
    r = np.asarray(r, dtype=np.float64)
    k = r.shape[0]
    if r.shape != (k, k) or k < 2:
        raise ValueError("r must be a square matrix of size >= 2")
    off = ~np.eye(k, dtype=bool)
    if np.any((r[off] <= 0) | (r[off] >= 1)):
        raise ValueError("off-diagonal pairwise probabilities must lie in (0,1)")
    if np.max(np.abs(r + r.T - 1.0)[off]) > 1e-9:
        raise ValueError("pairwise probabilities are not complementary")
    Q = -r.T * r
    np.fill_diagonal(Q, (r.T**2 * off).sum(axis=1))
    p = np.full(k, 1.0 / k)
    for _ in range(max_sweeps):
        for t_idx in range(k):
            qp = Q @ p
            pqp = float(p @ qp)
            p[t_idx] += (pqp - qp[t_idx]) / Q[t_idx, t_idx]
            p /= p.sum()
        qp = Q @ p
        if float(np.max(np.abs(qp - p @ qp))) < tol:
            break
    else:
        log.warning("pairwise coupling did not reach tol=%g in %d sweeps", tol, max_sweeps)
    return p


# ---------------------------------------------------------------------------
# one-vs-one multiclass model

@dataclass(frozen=True)
class PairModel:
    first: RelationLabel  # mapped to +1
    second: RelationLabel  # mapped to -1
    svm: BinarySvmModel
    calibrator: SigmoidCalibrator


@dataclass(frozen=True)
class SvmModel:
    """Trained one-vs-one SVM plus everything prediction needs."""

    pair_models: dict[tuple[int, int], PairModel]
    space: FeatureSpace
    scaler: MinMaxScaler
    freq: FrequencyTable
    freq_threshold: int
    levin: LevinTable
    table: EmbeddingTable
    C: float
    gamma: float

    @property
    def labels(self) -> tuple[RelationLabel, ...]:
        return LABELS

    def _pack(self, instances: Sequence[RelationInstance]) -> PackedFeatures:
        fvs = [
            assemble(
                inst, self.space, self.scaler, self.table, self.levin,
                self.freq, self.freq_threshold,
            )
            for inst in instances
        ]
        return pack_features(fvs, len(self.space))

    def predict_proba_many(self, instances: Sequence[RelationInstance]) -> np.ndarray:
        """Coupled class distributions, one row per instance, LABELS order."""
        if not instances:
            return np.zeros((0, len(LABELS)))
        packed = self._pack(instances)
        n, k = len(instances), len(LABELS)
        r = np.full((n, k, k), 0.5)
        for (i, j), pair in self.pair_models.items():
            rij = np.asarray(pair.calibrator.predict(pair.svm.decision_packed(packed)))
            rij = np.clip(rij, 1e-12, 1.0 - 1e-12)
            r[:, i, j] = rij
            r[:, j, i] = 1.0 - rij
        return np.vstack([pairwise_coupling(r[t]) for t in range(n)])

    def predict_proba(self, inst: RelationInstance) -> dict[RelationLabel, float]:
        row = self.predict_proba_many([inst])[0]
        return {label: float(p) for label, p in zip(LABELS, row)}

    def predict_many(self, instances: Sequence[RelationInstance]) -> list[RelationLabel]:
        probs = self.predict_proba_many(instances)
        # argmax takes the first maximum, i.e. ties break by label order
        return [LABELS[int(np.argmax(row))] for row in probs]

    def predict(self, inst: RelationInstance) -> RelationLabel:
        return self.predict_many([inst])[0]


def _calibration_scores(
    K: np.ndarray,
    y: np.ndarray,
    C: float,
    tol: float,
    seed_key: list[int],
) -> np.ndarray:
    """Decision scores for calibration, cross-validated when class counts allow."""
    n_pos = int((y > 0).sum())
    n_neg = int((y < 0).sum())
    n_folds = min(5, n_pos, n_neg)
    if n_folds < 2:
        log.info("calibration: too few per-class points for folds, using training scores")
        alpha, b, _, _ = smo_solve(K, y, C, tol)
        return K @ (alpha * y) + b
    scores = np.zeros_like(y)
    folds = stratified_fold_indices(y.tolist(), n_folds, seed=seed_key)
    all_idx = np.arange(len(y))
    for test_idx in folds:
        train_idx = np.setdiff1d(all_idx, test_idx, assume_unique=True)
        alpha, b, _, _ = smo_solve(K[np.ix_(train_idx, train_idx)], y[train_idx], C, tol)
        scores[test_idx] = K[np.ix_(test_idx, train_idx)] @ (alpha * y[train_idx]) + b
    return scores


def train_multiclass(
    train: Sequence[RelationInstance],
    table: EmbeddingTable,
    levin: LevinTable,
    C: float = 100.0,
    gamma: float = 0.001,
    freq_threshold: int = 5,
    tol: float = 1e-3,
    seed: int = 0,
) -> SvmModel:
    """Train all class-pair SVMs plus calibrators on a labeled corpus.

    Pairs with a missing class are skipped; their pairwise probability
    defaults to 0.5 at prediction time.
    """
    labeled = [inst for inst in train if inst.label is not None]
    if len(labeled) != len(train):
        raise SvmTrainingError("training corpus contains unlabeled instances")
    present = {inst.label for inst in labeled}
    if len(present) < 2:
        raise SvmTrainingError("need at least two classes to train")
    freq = build_lemma_counts(labeled)
    key_sets = [
        extract_keys(inst, freq, table, levin, freq_threshold) for inst in labeled
    ]
    space = build_feature_space(key_sets)
    dense = np.vstack([dense_block(inst, table) for inst in labeled])
    scaler = fit_minmax(dense)
    fvs = [
        FeatureVector(space.indices(keys), scaler.apply(row), len(space))
        for keys, row in zip(key_sets, dense)
    ]
    packed = pack_features(fvs, len(space))
    K = kernel_matrix(packed, packed, gamma)
    label_idx = {label: i for i, label in enumerate(LABELS)}
    members = {i: [] for i in range(len(LABELS))}
    for row, inst in enumerate(labeled):
        members[label_idx[inst.label]].append(row)

    def train_pair(pair_no: int, i: int, j: int) -> PairModel | None:
        rows_i, rows_j = members[i], members[j]
        if not rows_i or not rows_j:
            log.info("pair (%s, %s) skipped: missing class", LABELS[i].value, LABELS[j].value)
            return None
        sub = np.asarray(rows_i + rows_j, dtype=np.int64)
        y = np.concatenate([np.ones(len(rows_i)), -np.ones(len(rows_j))])
        K_sub = K[np.ix_(sub, sub)]
        alpha, b, n_iter, converged = smo_solve(K_sub, y, C, tol)
        sv_local = np.flatnonzero(alpha > 0)
        binary = BinarySvmModel(
            sv=packed.subset(sub[sv_local]),
            coef=(alpha * y)[sv_local],
            b=b,
            C=C,
            gamma=gamma,
            n_iter=n_iter,
            converged=converged,
        )
        scores = _calibration_scores(K_sub, y, C, tol, seed_key=[seed, pair_no])
        calibrator = fit_sigmoid(scores, y.astype(int))
        return PairModel(LABELS[i], LABELS[j], binary, calibrator)

    pairs = itertools.combinations(range(len(LABELS)), 2)
    results = {(i, j): train_pair(no, i, j) for no, (i, j) in enumerate(pairs)}
    pair_models = {pair: model for pair, model in results.items() if model is not None}
    return SvmModel(
        pair_models=pair_models,
        space=space,
        scaler=scaler,
        freq=freq,
        freq_threshold=freq_threshold,
        levin=levin,
        table=table,
        C=C,
        gamma=gamma,
    )


# spec-level convenience wrappers

def predict_proba(model: SvmModel, inst: RelationInstance) -> dict[RelationLabel, float]:
    return model.predict_proba(inst)


def predict(model: SvmModel, inst: RelationInstance) -> RelationLabel:
    return model.predict(inst)


# ---------------------------------------------------------------------------
# model file

def save_svm_model(model: SvmModel, path: str | Path) -> None:
    pairs = []
    for (i, j), pair in sorted(model.pair_models.items()):
        pairs.append(
            {
                "first": pair.first.value,
                "second": pair.second.value,
                "b": pair.svm.b,
                "A": pair.calibrator.A,
                "B": pair.calibrator.B,
                "coef": modelio.encode_array(pair.svm.coef),
                "sv_dense": modelio.encode_array(pair.svm.sv.dense),
                "sv_bool": pair.svm.sv.bool_index_lists(),
                "n_iter": pair.svm.n_iter,
                "converged": pair.svm.converged,
            }
        )
    payload = {
        "format": SVM_FORMAT,
        "version": 1,
        "labels": [label.value for label in LABELS],
        "C": model.C,
        "gamma": model.gamma,
        "freq_threshold": model.freq_threshold,
        "freq": dict(sorted(model.freq.items())),
        "levin": {lemma: sorted(model.levin.lookup(lemma)) for lemma in sorted(model.levin.lemmas())},
        "embedding": {"name": model.table.name, "dim": model.table.dim},
        "space": [[key.namespace, key.value] for key in model.space.keys()],
        "scaler": {
            "min": modelio.encode_array(model.scaler.mins),
            "max": modelio.encode_array(model.scaler.maxs),
        },
        "pairs": pairs,
    }
    modelio.save_json(payload, path)


def load_svm_model(path: str | Path, table: EmbeddingTable) -> SvmModel:
    payload = modelio.load_json(path, SVM_FORMAT)
    if payload["labels"] != [label.value for label in LABELS]:
        raise modelio.ModelFormatError(f"{path}: unexpected label list")
    emb = payload["embedding"]
    if emb["dim"] != table.dim:
        raise modelio.ModelFormatError(
            f"{path}: model expects {emb['dim']}-dim embeddings, table has {table.dim}"
        )
    if emb["name"] and table.name and emb["name"] != table.name:
        log.warning(
            "embedding table name mismatch: model trained with %r, predicting with %r",
            emb["name"], table.name,
        )
    space = FeatureSpace(FeatureKey(ns, value) for ns, value in payload["space"])
    scaler = MinMaxScaler(
        modelio.decode_array(payload["scaler"]["min"]),
        modelio.decode_array(payload["scaler"]["max"]),
    )
    label_idx = {label.value: i for i, label in enumerate(LABELS)}
    pair_models = {}
    for entry in payload["pairs"]:
        sv = packed_from_bool_lists(
            entry["sv_bool"], modelio.decode_array(entry["sv_dense"]), len(space)
        )
        binary = BinarySvmModel(
            sv=sv,
            coef=modelio.decode_array(entry["coef"]),
            b=entry["b"],
            C=payload["C"],
            gamma=payload["gamma"],
            n_iter=entry["n_iter"],
            converged=entry["converged"],
        )
        pair = PairModel(
            first=RelationLabel(entry["first"]),
            second=RelationLabel(entry["second"]),
            svm=binary,
            calibrator=SigmoidCalibrator(A=entry["A"], B=entry["B"]),
        )
        pair_models[(label_idx[entry["first"]], label_idx[entry["second"]])] = pair
    return SvmModel(
        pair_models=pair_models,
        space=space,
        scaler=scaler,
        freq=FrequencyTable(payload["freq"]),
        freq_threshold=payload["freq_threshold"],
        levin=LevinTable({lemma: ids for lemma, ids in payload["levin"].items()}),
        table=table,
        C=payload["C"],
        gamma=payload["gamma"],
    )
