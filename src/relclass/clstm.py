"""Convolutional-LSTM relation classifier, written out by hand.

Pipeline per instance: embedding columns [start entity | filtered context |
end entity] -> 1-D convolution (ReLU) over the windows that start inside
them -> LSTM over those feature maps, read at its last step -> dropout ->
softmax over the six classes, with a batch's columns held as right-padded
ids into one bank of their vectors (``Batch``). A context word is a column
only if its lemma is in the training corpus's context vocabulary. The LSTM's
four gates are one projection: their weights and biases are held, trained
and saved as three fused tensors. Trained with mini-batch cross-entropy and
Adam; the embedding table is read-only throughout. All arithmetic is float64
and every forward/backward step is an explicit numpy expression, so
gradients can be checked against finite differences.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import modelio, parallel, read
from .corpus import (
    FREQ_THRESHOLD,
    LABELS,
    RelationInstance,
    context_vocabulary,
    extract_context,
    filter_context,
    gold_indices,
)
from .embeddings import EmbeddingTable

# The most columns a sequence may have: a batch's ids are as wide as its
# longest sequence, and the paper's inputs are single sentences.
L_MAX_LIMIT = 1024

# parameter tensors in a fixed order (serialization, Adam state, grad checks)
PARAM_NAMES = ("conv_w", "conv_b", "w_x", "w_h", "b", "soft_w", "soft_b")

# the order of the gates' blocks of u rows in w_x, w_h and b
GATES = "ifog"


@dataclass(frozen=True)
class Hyperparams:
    """Architecture and training settings.

    Each value, from a caller or a model file, is read through its entry in
    READERS. Search-space ranges are enforced by the search space, not here:
    tiny out-of-range models are legitimate in tests.
    """

    num_filters: int = 384
    filter_width: int = 3
    rnn_units: int = 93
    dropout_rate: float = 0.23
    l2_scale: float = 0.79
    stride: int = 1
    learning_rate: float = 0.002
    batch_size: int = 128
    epochs: int = 100
    seed: int = 0

    # the reader and range of every field
    READERS = {
        "num_filters": (read.integer, 1),
        "filter_width": (read.integer, 1),
        "rnn_units": (read.integer, 1),
        "dropout_rate": (read.number, ">= 0", "< 1"),
        "l2_scale": (read.number, ">= 0"),
        "stride": (read.integer, 1),
        "learning_rate": (read.number, "> 0"),
        "batch_size": (read.integer, 1),
        "epochs": (read.integer, 0),
        "seed": (read.integer, 0),
    }

    def __post_init__(self) -> None:
        for name, (reader, *bounds) in self.READERS.items():
            reader(getattr(self, name), name, *bounds)


def build_sequence(inst: RelationInstance, vocabulary: frozenset[str]) -> list:
    """The columns of the embedding matrix I of ``inst``, each as the key of
    its vector: the start entity's tokens (a tuple, whose vector is the
    token average), the lemma of each context word in ``vocabulary`` in
    order, the end entity's tokens."""
    context = filter_context(extract_context(inst), vocabulary)
    return [inst.start_tokens, *(tok.lemma for tok in context), inst.end_tokens]


@dataclass(frozen=True, eq=False)
class Batch:
    """B right-padded input sequences as column ids into one bank of vectors.

    ``bank`` is an (n_cols + 1, v) matrix whose last row is zero and whose
    other rows are not; ``ids`` is (B, width), row b the bank rows of
    instance b's ``lengths[b]`` columns in order, then the zero row's id as
    padding. It stands for the (B, v, width) batch ``bank[ids].transpose(0, 2, 1)``.
    """

    ids: np.ndarray
    bank: np.ndarray
    lengths: np.ndarray

    @property
    def shape(self) -> tuple[int, int, int]:
        """(B, v, width), the shape of the padded batch this stands for."""
        return self.ids.shape[0], self.bank.shape[1], self.ids.shape[1]

    def rows(self, idx) -> Batch:
        """The Batch of rows ``idx`` of this one, on the same bank."""
        return Batch(self.ids[idx], self.bank, self.lengths[idx])


def build_batch(
    instances: Sequence[RelationInstance],
    table: EmbeddingTable,
    vocabulary: frozenset[str],
) -> Batch:
    """The Batch of the sequences of ``instances`` (see build_sequence), as
    wide as the longest of them.

    The bank holds each distinct column vector once. A column whose vector
    is zero (an out-of-vocabulary lemma, an entity of them) gets the zero
    row's id, as padding does, but counts in its row's length. A sequence
    of more than L_MAX_LIMIT columns raises ValueError naming its instance.
    """
    sequences = [build_sequence(inst, vocabulary) for inst in instances]
    for inst, seq in zip(instances, sequences):
        if len(seq) > L_MAX_LIMIT:
            raise ValueError(f"instance {inst.id}: its sequence has {len(seq)} columns, "
                             f"more than a batch may hold ({L_MAX_LIMIT})")
    keys: dict = {}  # column key -> its row in ``vectors``
    raw = np.full((len(sequences), max(map(len, sequences))), -1)  # -1: padding
    for b, seq in enumerate(sequences):
        raw[b, : len(seq)] = [keys.setdefault(key, len(keys)) for key in seq]
    vectors = np.array([table.lookup(key) if isinstance(key, str)
                        else table.phrase_vector([tok.lemma for tok in key]) for key in keys])
    nonzero = vectors.any(axis=1)
    n_cols = int(nonzero.sum())
    # the bank row of each key, the zero row for a zero vector, and (last) of padding
    row = np.full(len(keys) + 1, n_cols)
    row[:-1][nonzero] = np.arange(n_cols)
    return Batch(row[raw], np.concatenate([vectors[nonzero], np.zeros((1, table.dim))]),
                 (raw >= 0).sum(axis=1))


def row_steps(batch: Batch, st: int) -> np.ndarray:
    """Each row's LSTM steps: its windows that start inside its sequence,
    ``ceil(length / st)``, whatever the batch's width."""
    return -(-batch.lengths // st)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def param_shapes(v: int, hyper: Hyperparams) -> dict[str, tuple[int, ...]]:
    """The shape of every parameter tensor for v-dim embeddings, in
    PARAM_NAMES order: matrices are weights, vectors are biases. The LSTM's
    input weights w_x (4u, k), recurrent weights w_h (4u, u) and biases b
    (4u,) hold one block of u rows per gate, in GATES order."""
    k, u, n = hyper.num_filters, hyper.rnn_units, len(LABELS)
    return {
        "conv_w": (k, v * hyper.filter_width), "conv_b": (k,),
        "w_x": (4 * u, k), "w_h": (4 * u, u), "b": (4 * u,),
        "soft_w": (n, u), "soft_b": (n,),
    }


def init_params(
    v: int, hyper: Hyperparams, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """Uniform [-0.1, 0.1] weights, zero biases, forget-gate bias 1.0.
    The weights are drawn one after another: conv_w, then per gate in GATES
    order its (u, k) block of w_x and its (u, u) block of w_h, then soft_w."""
    shapes, u, k = param_shapes(v, hyper), hyper.rnn_units, hyper.num_filters
    conv_w = rng.uniform(-0.1, 0.1, size=shapes["conv_w"])
    blocks = [(rng.uniform(-0.1, 0.1, size=(u, k)), rng.uniform(-0.1, 0.1, size=(u, u)))
              for _ in GATES]
    return {
        "conv_w": conv_w, "conv_b": np.zeros(shapes["conv_b"]),
        "w_x": np.concatenate([w for w, _ in blocks]),
        "w_h": np.concatenate([w for _, w in blocks]),
        "b": np.repeat([1.0 if gate == "f" else 0.0 for gate in GATES], u),
        "soft_w": rng.uniform(-0.1, 0.1, size=shapes["soft_w"]),
        "soft_b": np.zeros(shapes["soft_b"]),
    }


# ---------------------------------------------------------------------------
# batched forward/backward
#
# A batch's rows run by descending length, so the rows still inside their
# sequence at step t are a prefix of them, and a row past its last step
# keeps its state. Activations are packed: block t of an (N, .) array holds
# that prefix at step t. The four gates are fused in the order of GATES
# (Appleyard et al., arXiv:1604.01946): one (4u, k) input projection over
# the windows of all steps at once, one (4u, u) recurrent matmul per step.


@dataclass
class ForwardCache:
    """Everything the backward pass needs, for one batch. One backward_batch
    consumes it: that pass overwrites ``gates`` with the gate gradients.

    Batch row ``order[r]`` ran r-th, and the first ``active[t]`` rows took
    step t; the per-step arrays are packed (see above).
    """

    order: np.ndarray  # (B,) the batch rows by descending length
    active: np.ndarray  # (T,) the rows that took step t, non-increasing
    cols: np.ndarray  # (n_cols, v) the distinct column vectors of the windows stepped
    inv: np.ndarray  # (N, ws) each stepped window's columns, as rows of ``cols``
    xs: np.ndarray  # (N, k) conv feature maps of the stepped windows, post-ReLU
    gates: np.ndarray  # (N, 4u) gate activations, in the order of GATES
    cells: np.ndarray  # (B + N, u) c_t after each step, after B rows of c_0 = 0
    hiddens: np.ndarray  # (B + N, u) h_t after each step, after B rows of h_0 = 0
    mask: np.ndarray  # dropout mask incl. inverted scaling, (B, u)
    h_drop: np.ndarray  # (B, u)
    probs: np.ndarray  # (B, n_classes)


def dropout_mask(hyper: Hyperparams, rows: int, rng: np.random.Generator) -> np.ndarray:
    """The (rows, u) inverted-scaling dropout mask of one training batch;
    all ones, without drawing from ``rng``, when ``hyper.dropout_rate`` is 0."""
    if hyper.dropout_rate == 0.0:
        return np.ones((rows, hyper.rnn_units))
    keep = 1.0 - hyper.dropout_rate
    return (rng.random((rows, hyper.rnn_units)) < keep) / keep


def forward_batch(
    batch: Batch,
    params: dict[str, np.ndarray],
    hyper: Hyperparams,
    mask: np.ndarray | None = None,
) -> ForwardCache | np.ndarray:
    """Class distributions for a Batch of B padded inputs, in its row order.

    At training time ``mask``, a (B, u) dropout mask from ``dropout_mask``,
    is applied to the final hidden state, and the ForwardCache of the batch
    is returned. Inference (None) never drops and returns only the
    (B, n_classes) probabilities: the LSTM keeps no state but its last.
    """
    B, v, _ = batch.shape
    u, k = hyper.rnn_units, hyper.num_filters
    ws, st = hyper.filter_width, hyper.stride
    steps = row_steps(batch, st)
    order = np.argsort(-batch.lengths, kind="stable")
    # active[t] rows take step t; packed row p is row r of step t's block
    active = B - np.cumsum(np.bincount(steps, minlength=steps.max(initial=0) + 1))[:-1]
    t_of = np.repeat(np.arange(len(active)), active)
    r_of = np.arange(len(t_of)) - np.repeat(np.cumsum(active) - active, active)

    # conv on the stepped windows: one matmul over their distinct columns
    # gives proj[c, f, w], filter f's weights for window column w times
    # column c, and a window's feature map sums its ws columns' terms; a
    # window that runs past the width reads the zero row there
    ids = np.pad(batch.ids, ((0, 0), (0, ws - 1)), constant_values=len(batch.bank) - 1)
    uniq, inv = np.unique(ids[order[r_of, None], t_of[:, None] * st + np.arange(ws)],
                          return_inverse=True)
    inv = inv.reshape(-1, ws)
    cols = batch.bank[uniq]
    proj = (cols @ params["conv_w"].reshape(k * ws, v).T).reshape(-1, k, ws)
    xs = proj[inv[:, 0], :, 0]
    for w in range(1, ws):
        xs += proj[inv[:, w], :, w]
    xs += params["conv_b"]
    np.maximum(xs, 0.0, out=xs)

    w_h = params["w_h"]
    gates = xs @ params["w_x"].T
    gates += params["b"]
    # the state of every row, by descending length; training also keeps
    # every step's, packed after B zero rows (the state before step 0)
    cell, hidden = np.zeros((B, u)), np.zeros((B, u))
    if mask is not None:
        cells, hiddens = np.zeros((B + len(t_of), u)), np.zeros((B + len(t_of), u))
    lo = 0
    for n in active:
        a = gates[lo : lo + n].reshape(n, 4, u)
        a += (hidden[:n] @ w_h.T).reshape(n, 4, u)
        # sigmoid as 0.5 * (1 + tanh(x / 2)): no overflow, no mask
        sig = a[:, :3]
        sig *= 0.5
        np.tanh(a, out=a)
        sig += 1.0
        sig *= 0.5
        i, f, o, g = a[:, 0], a[:, 1], a[:, 2], a[:, 3]
        c, h = cell[:n], hidden[:n]
        np.add(f * c, i * g, out=c)
        np.multiply(o, np.tanh(c), out=h)
        if mask is not None:
            cells[B + lo : B + lo + n], hiddens[B + lo : B + lo + n] = c, h
        lo += n
    # back to the batch's row order
    hidden[order] = hidden.copy()
    if mask is None:
        return softmax(hidden @ params["soft_w"].T + params["soft_b"])

    h_drop = hidden * mask
    probs = softmax(h_drop @ params["soft_w"].T + params["soft_b"])
    return ForwardCache(order, active, cols, inv, xs, gates, cells, hiddens, mask, h_drop, probs)


def _cross_entropy_sum(probs: np.ndarray, gold: np.ndarray) -> float:
    return float(-np.log(probs[np.arange(gold.shape[0]), gold]).sum())


def _l2_penalty(params: dict[str, np.ndarray], l2_scale: float) -> float:
    return l2_scale * 0.5 * float(np.sum(params["soft_w"] ** 2))


def batch_loss(cache: ForwardCache, gold: np.ndarray, params: dict[str, np.ndarray], l2_scale: float) -> float:
    """Mean cross-entropy plus the softmax-weight L2 penalty."""
    return _cross_entropy_sum(cache.probs, gold) / gold.shape[0] + _l2_penalty(params, l2_scale)


def backward_batch(
    cache: ForwardCache,
    gold: np.ndarray,
    params: dict[str, np.ndarray],
    hyper: Hyperparams,
    batch_rows: int,
) -> dict[str, np.ndarray]:
    """Analytic gradients of the cross-entropy term of batch_loss for every
    trainable tensor, from the rows of ``cache``, which may be one shard of
    a batch of ``batch_rows`` rows. The shards' gradients sum to the
    batch's; the L2 term's, ``l2_scale * soft_w``, is left to the caller.

    Consumes ``cache``: step t writes its gate gradients over its block of
    ``cache.gates`` once it has copied those gates to a buffer, so the pass
    holds no second (N, 4u) array. A row past its last step passes its
    ``dh`` and ``dc`` through unchanged.
    """
    B = len(cache.order)
    u = hyper.rnn_units

    dlogits = cache.probs.copy()
    dlogits[np.arange(B), gold] -= 1.0
    dlogits /= batch_rows

    grads = {
        "soft_w": dlogits.T @ cache.h_drop,
        "soft_b": dlogits.sum(axis=0),
    }

    w_h = params["w_h"]
    # pre-activation gradients of all steps, packed, in place of the gates
    da, cells, active = cache.gates, cache.cells, cache.active
    # the rows of the block before each step's, in ``cells`` and ``hiddens``
    before = np.concatenate([[B], active[:-1]])
    buf = np.empty((B, 4, u))
    dh = ((dlogits @ params["soft_w"]) * cache.mask)[cache.order]
    dc = np.zeros((B, u))
    hi = len(da)
    for t in range(len(active) - 1, -1, -1):
        n = active[t]
        lo = hi - n
        a = buf[:n]
        a[...] = da[lo:hi].reshape(n, 4, u)
        i, f, o, g = a[:, 0], a[:, 1], a[:, 2], a[:, 3]
        tanh_c = np.tanh(cells[B + lo : B + hi])
        dc[:n] += dh[:n] * o * (1.0 - tanh_c * tanh_c)
        d = da[lo:hi].reshape(n, 4, u)
        # activation derivatives: s(1 - s) for the sigmoid gates, 1 - g^2 for g
        np.subtract(1.0, a, out=d)
        d *= a
        np.subtract(1.0, g * g, out=d[:, 3])
        d[:, 0] *= dc[:n] * g
        d[:, 1] *= dc[:n] * cells[B + lo - before[t] : B + hi - before[t]]  # c_{t-1}
        d[:, 2] *= dh[:n] * tanh_c
        d[:, 3] *= dc[:n] * i
        dc[:n] *= f
        dh[:n] = da[lo:hi] @ w_h
        hi = lo

    grads["w_x"] = da.T @ cache.xs
    h_prev = cache.hiddens[B + np.arange(len(da)) - np.repeat(before, active)]  # h_{t-1}
    grads["w_h"] = da.T @ h_prev
    grads["b"] = da.sum(axis=0)

    # block w of the conv_w gradient sums dz times column w over the stepped
    # windows: dz summed per distinct column (sorted by it, one sum per run
    # of equal ids), then one matmul with those columns
    dz = da @ params["w_x"]
    dz *= cache.xs > 0
    v = cache.cols.shape[1]
    d_conv = grads["conv_w"] = np.empty_like(params["conv_w"])
    for w in range(cache.inv.shape[1]):
        order = np.argsort(cache.inv[:, w], kind="stable")
        col = cache.inv[order, w]
        runs = np.flatnonzero(np.diff(col, prepend=-1))
        d_conv[:, w * v : (w + 1) * v] = np.add.reduceat(dz[order], runs).T @ cache.cols[col[runs]]
    grads["conv_b"] = dz.sum(axis=0)
    return {name: grads[name] for name in PARAM_NAMES}


# ---------------------------------------------------------------------------
# Adam

def adam_step(
    param: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    t: int,
    lr: float,
) -> None:
    """Adam's step ``t`` (from 1) with bias correction, in place on ``param``
    and its moments ``m`` and ``v``, with Kingma & Ba's moment decays and
    epsilon (arXiv:1412.6980)."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad**2
    step = m / (1.0 - beta1**t)
    step *= lr
    denom = v / (1.0 - beta2**t)
    np.sqrt(denom, out=denom)
    denom += eps
    step /= denom
    param -= step


# ---------------------------------------------------------------------------
# model + training loop

@dataclass(frozen=True)
class ClstmModel(modelio.Classifier):
    params: dict[str, np.ndarray]
    hyper: Hyperparams
    vocabulary: frozenset[str]
    table: EmbeddingTable
    loss_history: tuple[float, ...] = field(default=(), compare=False)
    # how training ran, for the train report only: ``l_max``, the width of
    # the training corpus's batch; ``windows``, the conv windows over it
    # (``live``: those the LSTM stepped, each instance's own; ``total``: the
    # ``ceil(l_max / stride)`` of every row); ``workers``, the processes
    # that ran the batch shards; and ``blas_threads``, the OpenBLAS thread
    # count of the loop (None: the count could not be set); never saved
    fit_report: dict = field(default_factory=dict, compare=False)

    def predict_proba_many(self, instances: Sequence[RelationInstance]) -> np.ndarray:
        """Class distributions, one row per instance, LABELS order. One bank
        serves all instances; the network runs in batches of
        ``hyper.batch_size`` of them, so its memory does not grow with the corpus."""
        if not instances:
            return np.zeros((0, len(LABELS)))
        batch = build_batch(instances, self.table, self.vocabulary)
        step = self.hyper.batch_size
        return np.vstack([
            forward_batch(batch.rows(slice(start, start + step)), self.params, self.hyper)
            for start in range(0, len(instances), step)
        ])


def _flat_views(flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """One view of ``flat`` per tensor, laid out one after another in
    ``shapes`` order."""
    views, start = {}, 0
    for name, shape in shapes.items():
        views[name] = flat[start : start + math.prod(shape)].reshape(shape)
        start += math.prod(shape)
    return views


class _TrainState:
    """What the processes of one training run share: the training corpus as
    one Batch (``corpus``), its labels and the settings, which the forked
    workers inherit and only read. The parameters
    (``flat``, viewed per tensor by ``params``), the two shards' gradients
    (``grads``, laid out like ``flat``) and Adam's moments (``m`` and ``v``,
    laid out like ``flat``) live in one anonymous shared mapping, so the
    workers forked after this is made see every write without a copy. Each
    half of the flat elements gets its own Adam pass, so a batch's update is
    two tasks, whichever process runs them."""

    def __init__(self, corpus: Batch, gold: np.ndarray, hyper: Hyperparams,
                 shapes: dict[str, tuple[int, ...]]):
        self.corpus, self.gold, self.hyper = corpus, gold, hyper
        size = sum(map(math.prod, shapes.values()))
        shared = np.frombuffer(mmap.mmap(-1, 5 * size * 8), dtype=np.float64).reshape(5, size)
        self.flat, self.grads, self.m, self.v = shared[0], shared[1:3], shared[3], shared[4]
        self.params = _flat_views(self.flat, shapes)
        self.shard_grads = [_flat_views(grad, shapes) for grad in self.grads]
        self.halves = [slice(0, size // 2), slice(size // 2, size)]
        # per half, the elements of soft_w in it (they carry the L2 term),
        # counted from the half's start
        end = sum(math.prod(shapes[name]) for name in PARAM_NAMES[: PARAM_NAMES.index("soft_w") + 1])
        start = end - math.prod(shapes["soft_w"])
        self.soft_w = [slice(min(max(start, half.start), half.stop) - half.start,
                             min(max(end, half.start), half.stop) - half.start)
                       for half in self.halves]


def _shard_gradient(state: _TrainState, shard: int, idx: np.ndarray, mask: np.ndarray,
                    batch_rows: int) -> float:
    """The forward and backward pass of shard ``shard``, the batch rows
    ``idx`` with their dropout mask rows: writes the shard's share of the
    batch gradient, L2 term left out, over ``state.grads[shard]`` and returns
    the shard's summed cross-entropy."""
    if not len(idx):  # the second shard of a one-row batch
        state.grads[shard].fill(0.0)
        return 0.0
    gold = state.gold[idx]
    # the shard's ids live only as long as forward_batch's call, and the
    # cache only until this returns: one shard's working set at a time
    cache = forward_batch(state.corpus.rows(idx), state.params, state.hyper, mask)
    ce = _cross_entropy_sum(cache.probs, gold)
    grads = backward_batch(cache, gold, state.params, state.hyper, batch_rows)
    for name, out in state.shard_grads[shard].items():
        out[...] = grads[name]
    return ce


def _update(state: _TrainState, half: int, t: int) -> None:
    """Half ``half`` of a batch's update, Adam step ``t`` (from 1), over its
    elements of the flat buffers: the batch gradient is shard 0's plus
    shard 1's, plus the L2 term on soft_w, and one Adam step applies it to
    the parameters."""
    cols, soft_w = state.halves[half], state.soft_w[half]
    grad = state.grads[0, cols]
    grad += state.grads[1, cols]
    grad[soft_w] += state.hyper.l2_scale * state.flat[cols][soft_w]
    adam_step(state.flat[cols], grad, state.m[cols], state.v[cols], t, state.hyper.learning_rate)


def _split(steps: np.ndarray) -> list[np.ndarray]:
    """The positions of a batch's rows in its two shards, from each row's
    LSTM step count ``steps``: over the rows by descending count, shard 0
    takes the 1st, 4th, 5th, 8th, 9th, ... and shard 1 the others, so each
    has half the rows (ceil or floor) and nearly half the steps. Each shard
    keeps its rows in batch order."""
    order = np.argsort(-steps, kind="stable")
    first = np.arange(len(steps)) % 4 % 3 == 0
    return [np.sort(order[first]), np.sort(order[~first])]


def train(
    instances: Sequence[RelationInstance],
    table: EmbeddingTable,
    hyper: Hyperparams,
    freq_threshold: int = FREQ_THRESHOLD,
) -> ClstmModel:
    """Train on a labeled corpus; bitwise deterministic for a fixed seed.

    RNG order is fixed: parameter init, then per epoch one shuffle, then one
    dropout mask per batch.

    Each batch is split into two shards of half its rows (ceil or floor)
    with nearly equal LSTM steps (``_split``), which depend only on the
    batch's rows. Its gradient is shard 0's plus shard 1's, in that order,
    plus the L2 term once. The parameters are one flat buffer, and Adam
    updates each half of it in one pass. The loop runs with OpenBLAS at one
    thread; with two or more CPUs, two ``parallel.forked`` workers then run
    the two shards, and after them the two halves of the update, and
    otherwise this process runs all four in turn. The model does not depend
    on which.
    """
    if not instances:
        raise ValueError("no labeled instances")
    unlabeled = ValueError("training corpus contains unlabeled instances")
    gold = np.array(gold_indices(instances, unlabeled), dtype=np.int64)
    vocabulary = context_vocabulary(instances, freq_threshold)
    corpus = build_batch(instances, table, vocabulary)
    n, bs, width = len(instances), hyper.batch_size, corpus.shape[2]
    steps = row_steps(corpus, hyper.stride)

    rng = np.random.default_rng(hyper.seed)
    state = _TrainState(corpus, gold, hyper, param_shapes(table.dim, hyper))
    for name, value in init_params(table.dim, hyper, rng).items():
        state.params[name][...] = value
    history = []
    with parallel.one_blas_thread() as blas_threads:
        workers = parallel.worker_count(min(2, n, bs)) if blas_threads and hyper.epochs else 1
        with parallel.forked(workers, state) as run:
            t = 0
            for _ in range(hyper.epochs):
                order = rng.permutation(n)
                epoch_losses = []
                for start in range(0, n, bs):
                    idx = order[start : start + bs]
                    rows = len(idx)
                    mask = dropout_mask(hyper, rows, rng)
                    ce = run(_shard_gradient, [(shard, idx[pos], mask[pos], rows) for shard, pos
                                               in enumerate(_split(steps[idx]))])
                    epoch_losses.append((ce[0] + ce[1]) / rows
                                        + _l2_penalty(state.params, hyper.l2_scale))
                    t += 1
                    run(_update, [(0, t), (1, t)])
                history.append(float(np.mean(epoch_losses)))
    return ClstmModel(
        params={name: p.copy() for name, p in state.params.items()},
        hyper=hyper,
        vocabulary=vocabulary,
        table=table,
        loss_history=tuple(history),
        fit_report={"l_max": width,
                    "windows": {"live": int(steps.sum()), "total": n * -(-width // hyper.stride)},
                    "workers": workers, "blas_threads": blas_threads},
    )


# ---------------------------------------------------------------------------
# model file

def save_clstm_model(model: ClstmModel, path: str | Path) -> None:
    fields = {
        "hyper": asdict(model.hyper),
        "params": {name: model.params[name] for name in PARAM_NAMES},
    }
    modelio.save_model(model, modelio.CLSTM_FORMAT, fields, path)


def _build_clstm_model(payload: dict, **common) -> ClstmModel:
    hyper = read.object(payload["hyper"], "hyper")
    if hyper.keys() != Hyperparams.READERS.keys():
        raise ValueError(f"hyper must hold exactly the fields {', '.join(Hyperparams.READERS)}")
    hyper = Hyperparams(**hyper)
    stored = read.object(payload["params"], "params")
    params = {}
    for name, shape in param_shapes(common["table"].dim, hyper).items():
        params[name] = modelio.decode_array(stored[name], name).copy()
        if params[name].shape != shape:
            raise ValueError(
                f"{name} has shape {params[name].shape}, hyper and the table dim imply {shape}"
            )
    return ClstmModel(params=params, hyper=hyper, **common)


def load_clstm_model(
    path: str | Path, table: EmbeddingTable, payload: dict | None = None
) -> ClstmModel:
    """The conv-LSTM model in ``path``; ``payload``, when given, is that
    file's parsed JSON, so it is not read again."""
    return modelio.load_model(path, modelio.CLSTM_FORMAT, table, _build_clstm_model, payload)
