"""Multiclass RBF-kernel SVM with probability outputs.

One binary SVM per unordered class pair, trained from scratch by sequential
minimal optimization on the dual. Each pair gets a sigmoid calibrator fitted
on cross-validated decision scores; at prediction time the 15 calibrated
pairwise probabilities are coupled into a single distribution over the six
classes (quadratic pairwise-coupling objective, fixed-point solve) and the
argmax wins.

As in LIBSVM, the model stores each support-vector row once, in one block
shared by all pairs (``sv_bool``/``sv_dense`` in the version-2 model file);
a pair keeps only the sorted indices of its rows in that block, with one
dual coefficient per index. Prediction computes one kernel block against it.

Written on numpy alone. As in LIBSVM, a row keeps its boolean features as a
sorted list of feature-space columns (all rows of a block in one CSR-style
pair of arrays), so the kernel's boolean inner products are exact gathers
over a row's few columns instead of a product of mostly-zero matrices.

Once the training kernel exists the pair fits are independent; they run
through ``parallel.forked``, in one forked worker process per CPU in this
process's affinity mask, each taking the next pair when it is idle. The
workers inherit the kernel instead of receiving a copy. Each fit is
deterministic, so the model is the same whatever the number of workers.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import modelio, parallel, read
from .corpus import (FREQ_THRESHOLD, LABELS, FrequencyTable, RelationInstance, RelationLabel,
                     build_lemma_counts)
from .embeddings import EmbeddingTable
from .evaluation import stratified_fold_indices
from .features import (
    FeatureSpace,
    Key,
    LevinTable,
    MinMaxScaler,
    build_feature_space,
    featurize,
    fit_minmax,
    parse_feature_space,
)

log = logging.getLogger(__name__)

SVM_FORMAT = "relclass-svm"


class SvmTrainingError(ValueError):
    pass


# ---------------------------------------------------------------------------
# kernel machinery

@dataclass(frozen=True)
class PackedFeatures:
    """A block of rows, one per instance. Row i's boolean features are the
    strictly increasing feature-space columns ``cols[ptr[i]:ptr[i + 1]]``
    (int64, CSR layout); ``dense`` is the (n, 3 * dim) scaled dense block."""

    cols: np.ndarray
    ptr: np.ndarray
    dense: np.ndarray

    def __len__(self) -> int:
        return self.dense.shape[0]

    def subset(self, idx: np.ndarray) -> "PackedFeatures":
        """The rows at the integer indices ``idx``, in that order."""
        lengths = np.diff(self.ptr)[idx]
        ptr = _row_offsets(lengths)
        # new entry k sits at old position k + (old start - new start) of its row
        shift = np.repeat(self.ptr[idx] - ptr[:-1], lengths)
        return PackedFeatures(self.cols[shift + np.arange(ptr[-1])], ptr, self.dense[idx])

    def bool_index_lists(self) -> list[list[int]]:
        cols, bounds = self.cols.tolist(), self.ptr.tolist()
        return [cols[start:end] for start, end in zip(bounds[:-1], bounds[1:])]


def _row_offsets(lengths: Sequence[int]) -> np.ndarray:
    """CSR row pointer of rows with the given lengths: 0, then running sums."""
    ptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=ptr[1:])
    return ptr


def packed_from_bool_lists(
    bool_lists: Sequence[Sequence[int]], dense: np.ndarray, space_size: int
) -> PackedFeatures:
    """Rows given as strictly increasing boolean column indices in
    ``[0, space_size)`` plus their dense blocks.

    All rows are checked together; the error names the first row whose
    entries are not integers, else the first row with a column out of range
    or out of order.
    """
    dense = np.asarray(dense, dtype=np.float64)
    if dense.ndim != 2 or len(dense) != len(bool_lists):
        raise ValueError(f"{len(bool_lists)} boolean rows but a dense block of shape {dense.shape}")
    rows = [np.asarray(row) for row in bool_lists]
    for i, row in enumerate(rows):
        if row.ndim != 1 or (row.size and row.dtype.kind != "i"):
            raise _bad_row(i, space_size)
    lengths = [row.size for row in rows]
    # the int64 empty row fixes the dtype, also when every row is empty
    cols = np.concatenate([np.empty(0, dtype=np.int64), *(row for row in rows if row.size)])
    row_of = np.repeat(np.arange(len(rows)), lengths)
    bad = (cols < 0) | (cols >= space_size)
    bad[1:] |= (cols[1:] <= cols[:-1]) & (row_of[1:] == row_of[:-1])
    if bad.any():
        raise _bad_row(int(row_of[bad.argmax()]), space_size)
    return PackedFeatures(cols=cols, ptr=_row_offsets(lengths), dense=dense)


def _bad_row(i: int, space_size: int) -> ValueError:
    return ValueError(
        f"boolean row {i}: columns must be strictly increasing within [0, {space_size})"
    )


def pack_rows(
    key_sets: Sequence[set[Key]],
    dense: np.ndarray,
    space: FeatureSpace,
    scaler: MinMaxScaler,
) -> PackedFeatures:
    """The rows of a batch of instances, for training and prediction alike:
    each key set's columns in ``space`` (keys unseen in training are
    dropped) and the (n, 3 * dim) unscaled dense block, scaled in place."""
    bool_lists = [space.indices(keys) for keys in key_sets]
    return packed_from_bool_lists(bool_lists, scaler.apply(dense), len(space))


def squared_distances(a: PackedFeatures, b: PackedFeatures) -> np.ndarray:
    """Pairwise squared Euclidean distances over the concatenated boolean+dense
    representation. Boolean part = symmetric-difference size."""
    # b's rows as a 0/1 (columns x len(b)) matrix; the boolean inner products
    # of a's row i are the sum of its rows at row i's columns. Every entry is
    # a small integer, so the float32 sums are exact in any order.
    width = 1 + max(a.cols.max(initial=-1), b.cols.max(initial=-1))
    b_onehot = np.zeros((width, len(b)), dtype=np.float32)
    b_onehot[b.cols, np.repeat(np.arange(len(b)), np.diff(b.ptr))] = 1.0
    inner = np.empty((len(a), len(b)), dtype=np.float32)
    bounds = a.ptr.tolist()
    for i, (start, end) in enumerate(zip(bounds[:-1], bounds[1:])):
        b_onehot.take(a.cols[start:end], axis=0).sum(axis=0, out=inner[i])
    del b_onehot  # the largest buffer here (columns x len(b)); free it before the n x m ones
    counts_a = np.diff(a.ptr).astype(np.float64)
    counts_b = np.diff(b.ptr).astype(np.float64)
    d2 = counts_a[:, None] + counts_b[None, :] - 2.0 * inner
    da = np.einsum("ij,ij->i", a.dense, a.dense)
    db = np.einsum("ij,ij->i", b.dense, b.dense)
    d2 += da[:, None] + db[None, :] - 2.0 * (a.dense @ b.dense.T)
    return np.maximum(d2, 0.0)


def kernel_matrix(a: PackedFeatures, b: PackedFeatures, gamma: float) -> np.ndarray:
    return np.exp(-gamma * squared_distances(a, b))


# ---------------------------------------------------------------------------
# SMO dual solver

def smo_solve(
    K: np.ndarray,
    y: np.ndarray,
    C: float,
    max_iter: int = 100_000,
) -> tuple[np.ndarray, float, int, bool]:
    """Maximal-violating-pair SMO on the SVM dual.

    Maximizes sum(a) - 1/2 (a*y)' K (a*y) subject to 0 <= a <= C and
    y'a = 0, stopping when the maximal KKT violation m - M drops to
    LIBSVM's default tolerance, 1e-3. Returns (alpha, bias, iterations,
    converged).

    Working-set selection is the first-order maximal violating pair
    (Keerthi et al., Neural Computation 2001). LIBSVM has used second-order
    selection (Fan, Chen & Lin, JMLR 2005) since version 2.8; it was
    prototyped here and parked: on the benchmark's class pairs it cut SMO
    iterations by 10 %, but each step, unoptimized, was 3.6x slower. The
    stopping rule and the gradient bookkeeping are those of LIBSVM's
    ``Solver`` (Chang & Lin, ACM TIST 2011): besides G = y - f the loop
    keeps two masked copies,
    ``g_up = where(up, G, -inf)`` and ``g_low = where(low, G, inf)``, where
    up = {k : y_k = +1, a_k < C or y_k = -1, a_k > 0} and low is its mirror.
    Each step subtracts one update vector from all three in place, and only
    i and j can change set membership, so only they are re-masked. i and j
    are the first argmax of g_up and the first argmin of g_low; a set is
    empty when its extreme is -inf (up) or +inf (low).
    """
    n = K.shape[0]
    y = np.asarray(y, dtype=np.float64)
    if K.shape != (n, n) or y.shape != (n,):
        raise ValueError("kernel/label shape mismatch")
    read.number(C, "C", "> 0")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise SvmTrainingError("both classes must be present")
    C, tol = float(C), 1e-3
    pos = (y > 0).tolist()
    sign = y.tolist()
    alpha = [0.0] * n  # Python floats: scalar steps skip numpy's per-call cost
    # rows G = y - f, g_up, g_low; f = K (alpha*y) = 0 at the start, where up
    # holds the positives and low the negatives
    W = np.empty((3, n))
    G, g_up, g_low = W
    G[:] = y
    g_up[:] = np.where(y > 0, y, -np.inf)
    g_low[:] = np.where(y > 0, np.inf, y)
    # row i of K.T is K[:, i] whether or not K is symmetric; one copy per call
    # makes every column read in the loop contiguous
    Kc = np.ascontiguousarray(K.T)
    diff = np.empty(n)
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        i = int(g_up.argmax())
        j = int(g_low.argmin())
        m, M = g_up.item(i), g_low.item(j)
        if m == -math.inf or M == math.inf or m - M <= tol:
            converged = True
            break
        eta = max(K.item(i, i) + K.item(j, j) - 2.0 * K.item(i, j), 1e-12)
        hi_i = C - alpha[i] if pos[i] else alpha[i]
        hi_j = alpha[j] if pos[j] else C - alpha[j]
        t = min((m - M) / eta, hi_i, hi_j)
        # snap exactly onto the box when the step is bound-limited
        if t == hi_i:
            alpha[i] = C if pos[i] else 0.0
        else:
            alpha[i] += sign[i] * t
        if t == hi_j:
            alpha[j] = 0.0 if pos[j] else C
        else:
            alpha[j] -= sign[j] * t
        np.subtract(Kc[i], Kc[j], out=diff)
        diff *= t
        W -= diff
        for k in (i, j):
            a, g = alpha[k], G.item(k)
            g_up[k] = g if (a < C if pos[k] else a > 0.0) else -math.inf
            g_low[k] = g if (a > 0.0 if pos[k] else a < C) else math.inf
    else:
        it = max_iter
    if not converged:
        log.warning("SMO hit the iteration cap (%d) before reaching tol=%g", max_iter, tol)
    alpha = np.array(alpha)
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


@dataclass(frozen=True)
class BinarySvmModel:
    """One trained binary SVM: its support vectors as sorted row indices into
    the model's shared SV block, dual coefficients a_i*y_i over them, bias."""

    sv: np.ndarray
    coef: np.ndarray  # alpha_i * y_i, aligned with sv
    b: float
    n_iter: int
    converged: bool


# ---------------------------------------------------------------------------
# sigmoid calibration

@dataclass(frozen=True)
class SigmoidCalibrator:
    """P(y=+1 | score) = 1 / (1 + exp(A*score + B))."""

    A: float
    B: float

    def predict(self, scores: np.ndarray | float) -> np.ndarray | float:
        out = _logistic(self.A * np.asarray(scores, dtype=np.float64) + self.B)
        return float(out) if np.isscalar(scores) else out


def _logistic(fapb: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(fapb)), from exp(-|fapb|) alone so that nothing
    overflows; ``_logistic(-fapb)`` is its complement."""
    e = np.exp(-np.abs(fapb))
    return np.where(fapb >= 0, e / (1.0 + e), 1.0 / (1.0 + e))


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
        p, q = _logistic(fapb), _logistic(-fapb)
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

def pairwise_coupling(r: np.ndarray) -> np.ndarray:
    """Couple pairwise probabilities r[n, i, j] = P(i | i or j) of each of the
    n instances of an (n, k, k) stack into one distribution per instance.

    Minimizes sum_i sum_{j!=i} (r_ji p_i - r_ij p_j)^2 over the probability
    simplex via the normalized fixed-point iteration on Q p = (p'Qp) e, with
    Q_ii = sum_{j!=i} r_ji^2 and Q_ij = -r_ji r_ij (Wu, Lin & Weng, JMLR 2004,
    method 2). All rows sweep together; a row stops updating once it has
    converged (residual below 1e-10), after at most 1000 sweeps. Returns the
    (n, k) distributions.
    """
    tol, max_sweeps = 1e-10, 1000
    r = np.asarray(r, dtype=np.float64)
    if r.ndim != 3 or r.shape[1] != r.shape[2] or r.shape[1] < 2:
        raise ValueError("r must be an (n, k, k) stack of square matrices with k >= 2")
    n, k, _ = r.shape
    off = ~np.eye(k, dtype=bool)
    r_t = r.transpose(0, 2, 1)
    if np.any((r[:, off] <= 0) | (r[:, off] >= 1)):
        raise ValueError("off-diagonal pairwise probabilities must lie in (0,1)")
    if np.any(np.abs(r + r_t - 1.0)[:, off] > 1e-9):
        raise ValueError("pairwise probabilities are not complementary")
    Q = -r_t * r
    Q[:, ~off] = (r_t**2 * off).sum(axis=2)
    p = np.full((n, k), 1.0 / k)
    active = np.arange(n)  # rows still iterating
    for _ in range(max_sweeps):
        if not active.size:
            break
        Qa, pa = Q[active], p[active]
        for t_idx in range(k):
            qp = (Qa @ pa[:, :, None])[:, :, 0]
            pqp = np.einsum("ij,ij->i", pa, qp)
            pa[:, t_idx] += (pqp - qp[:, t_idx]) / Qa[:, t_idx, t_idx]
            pa /= pa.sum(axis=1, keepdims=True)
        qp = (Qa @ pa[:, :, None])[:, :, 0]
        pqp = np.einsum("ij,ij->i", pa, qp)
        p[active] = pa
        active = active[np.max(np.abs(qp - pqp[:, None]), axis=1) >= tol]
    if active.size:
        log.warning(
            "pairwise coupling: %d of %d instances did not reach tol=%g in %d sweeps",
            active.size, n, tol, max_sweeps,
        )
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
class SvmModel(modelio.Classifier):
    """Trained one-vs-one SVM plus everything prediction needs. ``sv`` holds
    each pair's support vectors once, in training-row order."""

    pair_models: dict[tuple[int, int], PairModel]
    sv: PackedFeatures
    space: FeatureSpace
    scaler: MinMaxScaler
    freq: FrequencyTable
    freq_threshold: int
    levin: LevinTable
    table: EmbeddingTable
    C: float
    gamma: float
    # how training went, for the train report only: ``workers`` and, per
    # trained pair, the calibration folds' diagnostics and the fit's wall
    # time. Not saved, so a loaded model has none.
    fit_report: dict = field(default_factory=dict, compare=False)

    def _pack(self, instances: Sequence[RelationInstance]) -> PackedFeatures:
        key_sets, dense = featurize(
            instances, self.freq, self.table, self.levin, self.freq_threshold
        )
        return pack_rows(key_sets, dense, self.space, self.scaler)

    def predict_proba_many(self, instances: Sequence[RelationInstance]) -> np.ndarray:
        """Coupled class distributions, one row per instance, LABELS order."""
        if not instances:
            return np.zeros((0, len(LABELS)))
        K = kernel_matrix(self._pack(instances), self.sv, self.gamma)
        n, k = len(instances), len(LABELS)
        r = np.full((n, k, k), 0.5)
        for (i, j), pair in self.pair_models.items():
            rij = pair.calibrator.predict(K[:, pair.svm.sv] @ pair.svm.coef + pair.svm.b)
            rij = np.clip(rij, 1e-12, 1.0 - 1e-12)
            r[:, i, j] = rij
            r[:, j, i] = 1.0 - rij
        return pairwise_coupling(r)


def _calibration_scores(
    K: np.ndarray,
    y: np.ndarray,
    C: float,
    seed_key: list[int],
) -> tuple[np.ndarray, list[tuple[int, bool]]] | None:
    """Cross-validated decision scores for calibration, plus each fold fit's
    (SMO iterations, converged); None when a class has fewer than two
    points, so that no split into folds holds both classes in every fit."""
    n_pos = int((y > 0).sum())
    n_neg = int((y < 0).sum())
    n_folds = min(5, n_pos, n_neg)
    if n_folds < 2:
        return None
    scores = np.zeros_like(y)
    fits = []
    folds = stratified_fold_indices(y.tolist(), n_folds, seed=seed_key)
    all_idx = np.arange(len(y))
    # a fold's block of K.T is contiguous and its transpose is the fold's K, so
    # smo_solve's own contiguous copy of K.T costs nothing
    K_t = np.ascontiguousarray(K.T)
    for test_idx in folds:
        train_idx = np.setdiff1d(all_idx, test_idx, assume_unique=True)
        alpha, b, n_iter, converged = smo_solve(
            K_t[np.ix_(train_idx, train_idx)].T, y[train_idx], C
        )
        scores[test_idx] = K[np.ix_(test_idx, train_idx)] @ (alpha * y[train_idx]) + b
        fits.append((n_iter, converged))
    return scores, fits


@dataclass(frozen=True)
class PairInputs:
    """What every class-pair fit of one training run reads: the training
    kernel, each class's training rows (LABELS order) and the solver
    settings. ``parallel.forked`` workers inherit it through fork; it is
    never pickled."""

    K: np.ndarray
    members: list[list[int]]
    C: float
    seed: int


def fit_pair(inputs: PairInputs, pair_no: int, i: int, j: int) -> tuple[PairModel | None, dict]:
    """Fit the SVM and calibrator of class pair ``(i, j)``, number ``pair_no``
    in pair order. Returns the pair model (None when a class has no rows;
    its ``sv`` are still training rows) and the fit's diagnostics for the
    train report."""
    start = time.perf_counter()
    rows_i, rows_j = inputs.members[i], inputs.members[j]
    if not rows_i or not rows_j:
        log.info("pair (%s, %s) skipped: missing class", LABELS[i].value, LABELS[j].value)
        return None, {}
    sub = np.asarray(rows_i + rows_j, dtype=np.int64)
    y = np.concatenate([np.ones(len(rows_i)), -np.ones(len(rows_j))])
    K_sub = inputs.K[np.ix_(sub, sub)]
    alpha, b, n_iter, converged = smo_solve(K_sub, y, inputs.C)
    sv_local = np.flatnonzero(alpha > 0)
    sv_local = sv_local[np.argsort(sub[sv_local])]
    binary = BinarySvmModel(sub[sv_local], (alpha * y)[sv_local], b, n_iter, converged)
    calibration = _calibration_scores(K_sub, y, inputs.C, seed_key=[inputs.seed, pair_no])
    if calibration is None:
        log.info("calibration: too few per-class points for folds, using training scores")
        scores, fits = K_sub @ (alpha * y) + b, []
    else:
        scores, fits = calibration
    calibrator = fit_sigmoid(scores, y.astype(int))
    diagnostics = {
        "folds": len(fits),
        "fold_iters": sum(n for n, _ in fits),
        "folds_converged": sum(ok for _, ok in fits),
        "seconds": time.perf_counter() - start,
    }
    return PairModel(LABELS[i], LABELS[j], binary, calibrator), diagnostics


def train_multiclass(
    train: Sequence[RelationInstance],
    table: EmbeddingTable,
    levin: LevinTable,
    C: float = 100.0,
    gamma: float = 0.001,
    freq_threshold: int = FREQ_THRESHOLD,
    seed: int = 0,
) -> SvmModel:
    """Train all class-pair SVMs plus calibrators on a labeled corpus.

    Pairs with a missing class are skipped; their pairwise probability
    defaults to 0.5 at prediction time. The pairs are fitted in
    ``parallel.worker_count`` processes through ``parallel.forked``, largest
    first; the model does not depend on how many.
    """
    read.number(C, "C", "> 0")
    read.number(gamma, "gamma", "> 0")
    labeled = [inst for inst in train if inst.label is not None]
    if len(labeled) != len(train):
        raise SvmTrainingError("training corpus contains unlabeled instances")
    present = {inst.label for inst in labeled}
    if len(present) < 2:
        raise SvmTrainingError("need at least two classes to train")
    freq = build_lemma_counts(labeled)
    key_sets, dense = featurize(labeled, freq, table, levin, freq_threshold)
    space = build_feature_space(key_sets)
    scaler = fit_minmax(dense)
    packed = pack_rows(key_sets, dense, space, scaler)
    K = kernel_matrix(packed, packed, gamma)
    label_idx = {label: i for i, label in enumerate(LABELS)}
    members: list[list[int]] = [[] for _ in LABELS]
    for row, inst in enumerate(labeled):
        members[label_idx[inst.label]].append(row)

    pairs = list(itertools.combinations(range(len(LABELS)), 2))
    # largest pair first, so that no big fit starts last while the other
    # workers sit idle
    tasks = sorted(
        ((no, i, j) for no, (i, j) in enumerate(pairs)),
        key=lambda task: -(len(members[task[1]]) + len(members[task[2]])),
    )
    workers = parallel.worker_count(len(tasks))
    with parallel.forked(workers, PairInputs(K, members, C, seed)) as run:
        fits = run(fit_pair, tasks)
    results = {(i, j): fit for (_, i, j), fit in zip(tasks, fits)}
    pair_models = {pair: results[pair][0] for pair in pairs if results[pair][0] is not None}
    union = np.unique(np.concatenate([pair.svm.sv for pair in pair_models.values()]))
    pair_models = {
        key: replace(pair, svm=replace(pair.svm, sv=np.searchsorted(union, pair.svm.sv)))
        for key, pair in pair_models.items()
    }
    return SvmModel(
        pair_models=pair_models,
        sv=packed.subset(union),
        space=space,
        scaler=scaler,
        freq=freq,
        freq_threshold=freq_threshold,
        levin=levin,
        table=table,
        C=C,
        gamma=gamma,
        fit_report={
            "workers": workers,
            "pairs": {pair: results[pair][1] for pair in pair_models},
        },
    )


# ---------------------------------------------------------------------------
# model file

def save_svm_model(model: SvmModel, path: str | Path) -> None:
    pairs = [
        {
            "first": pair.first.value,
            "second": pair.second.value,
            "b": pair.svm.b,
            "A": pair.calibrator.A,
            "B": pair.calibrator.B,
            "coef": pair.svm.coef,
            "sv": pair.svm.sv.tolist(),
            "n_iter": pair.svm.n_iter,
            "converged": pair.svm.converged,
        }
        for _, pair in sorted(model.pair_models.items())
    ]
    fields = {
        "C": model.C,
        "gamma": model.gamma,
        "levin": {lemma: sorted(model.levin.lookup(lemma)) for lemma in sorted(model.levin.lemmas())},
        "space": [list(key) for key in model.space.keys()],
        "scaler": {
            "min": model.scaler.mins,
            "max": model.scaler.maxs,
        },
        "sv_bool": model.sv.bool_index_lists(),
        "sv_dense": model.sv.dense,
        "pairs": pairs,
    }
    modelio.save_model(model, SVM_FORMAT, fields, path)


def _build_svm_model(payload: dict, **common) -> SvmModel:
    space = parse_feature_space(payload["space"])
    scaler = read.object(payload["scaler"], "scaler")
    scaler = MinMaxScaler(modelio.decode_array(scaler["min"], "scaler min"),
                          modelio.decode_array(scaler["max"], "scaler max"))
    bool_rows = [[read.integer(col, "sv_bool column") for col in read.array(row, "sv_bool row")]
                 for row in read.array(payload["sv_bool"], "sv_bool")]
    sv = packed_from_bool_lists(
        bool_rows, modelio.decode_array(payload["sv_dense"], "sv_dense"), len(space)
    )
    width = 3 * common["table"].dim
    if sv.dense.shape[1] != width or scaler.mins.shape != (width,):
        raise ValueError(f"sv_dense and the scaler min/max must be {width} wide (3 x embedding dim)")
    levin = {lemma: [read.integer(i, f"levin class of {lemma!r}", 1)
                     for i in read.array(ids, f"levin classes of {lemma!r}")]
             for lemma, ids in read.object(payload["levin"], "levin").items()}
    pairs = read.array(payload["pairs"], "pairs")
    if not pairs:
        raise ValueError("pairs must be a nonempty array")
    pair_models = {}
    for entry in pairs:
        entry = read.object(entry, "pairs entry")
        first, second = (RelationLabel(read.string(entry[end], f"pair {end}"))
                         for end in ("first", "second"))
        name = f"pair {first.value}/{second.value}"
        key = (LABELS.index(first), LABELS.index(second))
        if first == second or key in pair_models or key[::-1] in pair_models:
            raise ValueError(f"{name}: a pair must name two distinct labels and appear once")
        b, A, B = (read.number(entry[field], f"{name} {field}") for field in ("b", "A", "B"))
        rows = np.array([read.integer(row, f"{name} sv", 0)
                         for row in read.array(entry["sv"], f"{name} sv")], dtype=np.int64)
        coef = modelio.decode_array(entry["coef"], f"{name} coef")
        if rows.shape != coef.shape:
            raise ValueError(f"{name}: sv must be row indices, one per coef")
        if np.any(rows >= len(sv)) or np.any(np.diff(rows) <= 0):
            raise ValueError(f"{name}: sv must be increasing rows of the {len(sv)}-row SV block")
        n_iter = read.integer(entry["n_iter"], f"{name} n_iter", 0)
        binary = BinarySvmModel(rows, coef, b, n_iter,
                                read.boolean(entry["converged"], f"{name} converged"))
        pair_models[key] = PairModel(first, second, binary, SigmoidCalibrator(A=A, B=B))
    return SvmModel(
        pair_models=pair_models,
        sv=sv,
        space=space,
        scaler=scaler,
        levin=LevinTable(levin),
        C=read.number(payload["C"], "C", "> 0"),
        gamma=read.number(payload["gamma"], "gamma", "> 0"),
        **common,
    )


def load_svm_model(
    path: str | Path, table: EmbeddingTable, payload: dict | None = None
) -> SvmModel:
    """The SVM model in ``path``; ``payload``, when given, is that file's
    parsed JSON, so it is not read again."""
    return modelio.load_model(path, SVM_FORMAT, table, _build_svm_model, payload)
