"""Convolutional-LSTM relation classifier, written out by hand.

Pipeline per instance: embedding columns [start entity | filtered context |
end entity] -> right zero-padding to the corpus maximum length -> 1-D
convolution (ReLU) -> the column sequence of feature maps -> LSTM -> dropout
-> softmax over the six classes. Trained with mini-batch cross-entropy and
Adam; the embedding table is read-only throughout. All arithmetic is float64
and every forward/backward step is an explicit numpy expression, so gradients
can be checked against finite differences.
"""

from __future__ import annotations

import logging
import math
import mmap
import signal
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import modelio, parallel, read
from .corpus import (
    FREQ_THRESHOLD,
    LABELS,
    FrequencyTable,
    RelationInstance,
    build_lemma_counts,
    extract_context,
    filter_context,
)
from .embeddings import EmbeddingTable

log = logging.getLogger(__name__)

CLSTM_FORMAT = "relclass-clstm"
# The most columns a model may pad its inputs to (its l_max): every prediction
# batch is (batch_size, v, l_max), and the paper's inputs are single sentences.
L_MAX_LIMIT = 1024

# parameter tensors in a fixed order (serialization, Adam state, grad checks)
PARAM_NAMES = (
    "conv_w", "conv_b",
    "w_i", "u_i", "b_i",
    "w_f", "u_f", "b_f",
    "w_o", "u_o", "b_o",
    "w_g", "u_g", "b_g",
    "soft_w", "soft_b",
)


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
        "learning_rate": (read.number,),
        "batch_size": (read.integer, 1),
        "epochs": (read.integer, 0),
        "seed": (read.integer, 0),
    }

    def __post_init__(self) -> None:
        for name, (reader, *bounds) in self.READERS.items():
            reader(getattr(self, name), name, *bounds)


def build_sequence(
    inst: RelationInstance,
    table: EmbeddingTable,
    freq: FrequencyTable,
    threshold: int,
) -> np.ndarray:
    """Embedding matrix I of shape (v, l_s): start entity, filtered context
    words in order, end entity. Entity columns are token-average vectors."""
    cols = [table.phrase_vector(inst.start_tokens)]
    for tok in filter_context(extract_context(inst), freq, threshold):
        cols.append(table.lookup(tok.lemma))
    cols.append(table.phrase_vector(inst.end_tokens))
    return np.column_stack(cols)


def pad(sequences: Sequence[np.ndarray], l_max: int) -> np.ndarray:
    """One (B, v, l_max) batch of the (v, l_s) sequences, each right-padded
    with zero columns up to l_max."""
    out = np.zeros((len(sequences), sequences[0].shape[0], l_max))
    for b, I in enumerate(sequences):
        if I.shape[1] > l_max:
            raise ValueError(f"sequence {b}: length {I.shape[1]} exceeds l_max {l_max}")
        out[b, :, : I.shape[1]] = I
    return out


def n_windows(l_max: int, ws: int, st: int) -> int:
    if ws > l_max:
        raise ValueError(f"filter width {ws} exceeds padded length {l_max}")
    return (l_max - ws) // st + 1


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def param_shapes(v: int, hyper: Hyperparams) -> dict[str, tuple[int, ...]]:
    """The shape of every parameter tensor for v-dim embeddings, in
    PARAM_NAMES order: matrices are weights, vectors are biases."""
    k, u, n = hyper.num_filters, hyper.rnn_units, len(LABELS)
    return {
        "conv_w": (k, v * hyper.filter_width), "conv_b": (k,),
        "w_i": (u, k), "u_i": (u, u), "b_i": (u,),
        "w_f": (u, k), "u_f": (u, u), "b_f": (u,),
        "w_o": (u, k), "u_o": (u, u), "b_o": (u,),
        "w_g": (u, k), "u_g": (u, u), "b_g": (u,),
        "soft_w": (n, u), "soft_b": (n,),
    }


def init_params(
    v: int, hyper: Hyperparams, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """Uniform [-0.1, 0.1] weights, zero biases, forget-gate bias 1.0.
    The weights are drawn one after another in PARAM_NAMES order."""
    return {
        name: rng.uniform(-0.1, 0.1, size=shape) if len(shape) == 2
        else np.full(shape, 1.0 if name == "b_f" else 0.0)
        for name, shape in param_shapes(v, hyper).items()
    }


# ---------------------------------------------------------------------------
# batched forward/backward
#
# Activations are time-major: row t of an (m, B, .) array is window/step t
# of every instance in the batch. The four gates are fused in the order
# i, f, o, g (Appleyard et al., arXiv:1604.01946): one (4u, k) input
# projection over the live windows of all steps at once, one (4u, u)
# recurrent matmul per step.

GATES = "ifog"


def _fused(params: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Input weights (4u, k), recurrent weights (4u, u) and biases (4u,)."""
    return (
        np.concatenate([params["w_" + g] for g in GATES]),
        np.concatenate([params["u_" + g] for g in GATES]),
        np.concatenate([params["b_" + g] for g in GATES]),
    )


def _window_slices(m: int, ws: int, st: int) -> list[slice]:
    """Per filter column w, the time steps that feed column w of the m windows."""
    return [slice(w, w + (m - 1) * st + 1, st) for w in range(ws)]


def _live_windows(nonzero: np.ndarray, ws: int, st: int) -> np.ndarray:
    """(m, B) mask of the windows that read at least one nonzero input column,
    from the (l_max, B) mask of the nonzero columns of a padded batch. The
    other windows are dead: all their inputs are 0."""
    l_max, B = nonzero.shape
    m = n_windows(l_max, ws, st)
    live = np.zeros((m, B), dtype=bool)
    for cols in _window_slices(m, ws, st):
        live |= nonzero[cols]
    return live


@dataclass
class ForwardCache:
    """Everything the backward pass needs, for one batch. One backward_batch
    consumes it: that pass overwrites ``gates`` with the gate gradients.

    A window whose input columns are all zero is dead: its conv feature map
    is exactly relu(conv_b), so only the live windows are stored.
    """

    live: np.ndarray  # (m, B) live-window mask, time-major
    windows: np.ndarray  # (n_live, ws * v) live input windows, columns as in conv_w
    x_live: np.ndarray  # (n_live, k) conv feature maps of the live windows, post-ReLU
    x_dead: np.ndarray  # (k,) the feature map of every dead window, relu(conv_b)
    gates: np.ndarray  # (m, B, 4, u) gate activations, in the order of GATES
    cells: np.ndarray  # (m + 1, B, u) c_t, with c_0 = 0 first
    hiddens: np.ndarray  # (m + 1, B, u) h_t, with h_0 = 0 first
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
    batch: np.ndarray,
    params: dict[str, np.ndarray],
    hyper: Hyperparams,
    mask: np.ndarray | None = None,
) -> ForwardCache:
    """Class distributions for a (B, v, l_max) batch of padded inputs.

    At training time ``mask``, a (B, u) dropout mask from ``dropout_mask``,
    is applied to the final hidden state; inference (None) never drops.
    """
    B, v, l_max = batch.shape
    u = hyper.rnn_units
    ws, st = hyper.filter_width, hyper.stride
    live = _live_windows(batch.any(axis=1).T, ws, st)
    m = live.shape[0]

    # conv on the live windows only: gather each one's ws input columns into
    # a row (im2col), so the conv is one matmul; a dead window gives relu(conv_b)
    steps, rows = np.divmod(np.flatnonzero(live), B)
    windows = batch[rows[:, None], :, steps[:, None] * st + np.arange(ws)].reshape(-1, ws * v)
    x_live = windows @ params["conv_w"].T
    x_live += params["conv_b"]
    np.maximum(x_live, 0.0, out=x_live)
    x_dead = np.maximum(params["conv_b"], 0.0)

    # the (4u, k) input projection on the live rows; every dead row gets the
    # same constant pre-activation
    w_x, w_h, bias = _fused(params)
    gates = np.empty((m * B, 4 * u))
    flat_live = live.ravel()
    gates[~flat_live] = x_dead @ w_x.T + bias
    gates[flat_live] = x_live @ w_x.T + bias
    gates = gates.reshape(m, B, 4, u)
    cells = np.zeros((m + 1, B, u))
    hiddens = np.zeros((m + 1, B, u))
    for t in range(m):
        a = gates[t]
        a += (hiddens[t] @ w_h.T).reshape(B, 4, u)
        # sigmoid as 0.5 * (1 + tanh(x / 2)): no overflow, no mask
        sig = a[:, :3]
        sig *= 0.5
        np.tanh(a, out=a)
        sig += 1.0
        sig *= 0.5
        i, f, o, g = a[:, 0], a[:, 1], a[:, 2], a[:, 3]
        np.add(f * cells[t], i * g, out=cells[t + 1])
        np.multiply(o, np.tanh(cells[t + 1]), out=hiddens[t + 1])

    if mask is None:
        mask = np.ones((B, u))
    h_drop = hiddens[m] * mask
    probs = softmax(h_drop @ params["soft_w"].T + params["soft_b"])
    return ForwardCache(live, windows, x_live, x_dead, gates, cells, hiddens, mask, h_drop, probs)


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

    Consumes ``cache``: step t writes its gate gradients over
    ``cache.gates[t]`` once it has copied those gates to a (B, 4u) buffer, so
    the pass holds no second (m, B, 4, u) array.
    """
    m, B = cache.live.shape
    u = hyper.rnn_units

    dlogits = cache.probs.copy()
    dlogits[np.arange(B), gold] -= 1.0
    dlogits /= batch_rows

    grads = {
        "soft_w": dlogits.T @ cache.h_drop,
        "soft_b": dlogits.sum(axis=0),
    }

    w_x, w_h, _ = _fused(params)
    # pre-activation gradients of all steps, (m, B, 4, u), in place of the gates
    da, cells = cache.gates, cache.cells
    a = np.empty((B, 4, u))
    i, f, o, g = a[:, 0], a[:, 1], a[:, 2], a[:, 3]
    dh = (dlogits @ params["soft_w"]) * cache.mask
    dc = np.zeros((B, u))
    for t in range(m - 1, -1, -1):
        a[...] = da[t]
        tanh_c = np.tanh(cells[t + 1])
        dc += dh * o * (1.0 - tanh_c * tanh_c)
        d = da[t]
        # activation derivatives: s(1 - s) for the sigmoid gates, 1 - g^2 for g
        np.subtract(1.0, a, out=d)
        d *= a
        np.subtract(1.0, g * g, out=d[:, 3])
        d[:, 0] *= dc * g
        d[:, 1] *= dc * cells[t]
        d[:, 2] *= dh * tanh_c
        d[:, 3] *= dc * i
        dc *= f
        dh = d.reshape(B, 4 * u) @ w_h

    da = da.reshape(m * B, 4 * u)
    flat_live = cache.live.ravel()
    da_live = da[flat_live]
    # every dead row has the same input x_dead, so their share of the input
    # weights and of conv_b is one rank-1 term in the sum of their da
    da_dead = np.add.reduce(da, axis=0, where=~flat_live[:, None])
    d_wx = da_live.T @ cache.x_live
    d_wx += np.outer(da_dead, cache.x_dead)
    d_wh = da.T @ cache.hiddens[:-1].reshape(m * B, u)
    d_b = da.sum(axis=0)
    for n, gate in enumerate(GATES):
        rows = slice(n * u, (n + 1) * u)
        grads["w_" + gate] = d_wx[rows]
        grads["u_" + gate] = d_wh[rows]
        grads["b_" + gate] = d_b[rows]

    # a dead window's inputs are zero, so it adds nothing to the conv_w gradient
    dz = da_live @ w_x
    dz *= cache.x_live > 0
    grads["conv_w"] = dz.T @ cache.windows
    grads["conv_b"] = dz.sum(axis=0) + (da_dead @ w_x) * (cache.x_dead > 0)
    return {name: grads[name] for name in PARAM_NAMES}


# ---------------------------------------------------------------------------
# Adam

@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def zeros_like(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={name: np.zeros_like(p) for name, p in params.items()},
            v={name: np.zeros_like(p) for name, p in params.items()},
            t=0,
        )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> None:
    """One Adam update with bias correction, in place on params and state,
    with Kingma & Ba's moment decays and epsilon (arXiv:1412.6980)."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    for name, g in grads.items():
        m, v = state.m[name], state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g**2
        step = m / bc1
        step *= lr
        denom = v / bc2
        np.sqrt(denom, out=denom)
        denom += eps
        step /= denom
        params[name] -= step


# ---------------------------------------------------------------------------
# model + training loop

@dataclass(frozen=True)
class ClstmModel(modelio.Classifier):
    params: dict[str, np.ndarray]
    hyper: Hyperparams
    l_max: int
    freq: FrequencyTable
    freq_threshold: int
    table: EmbeddingTable
    loss_history: tuple[float, ...] = field(default=(), compare=False)
    # (live, total) conv windows over the padded training corpus
    windows: tuple[int, int] = field(default=(0, 0), compare=False)
    # how training ran, for the train report only: ``workers``, the processes
    # that ran the batch shards, and ``blas_threads``, the OpenBLAS thread
    # count of the loop (None: the count could not be set); never saved
    fit_report: dict = field(default_factory=dict, compare=False)

    def _sequence(self, inst: RelationInstance) -> np.ndarray:
        """build_sequence, cut to l_max columns if it is longer."""
        I = build_sequence(inst, self.table, self.freq, self.freq_threshold)
        if I.shape[1] > self.l_max:
            log.warning(
                "instance %s: sequence length %d exceeds training maximum %d, truncating",
                inst.id, I.shape[1], self.l_max,
            )
            I = I[:, : self.l_max]
        return I

    def predict_proba_many(self, instances: Sequence[RelationInstance]) -> np.ndarray:
        """Class distributions, one row per instance, LABELS order. Runs in
        batches of ``hyper.batch_size``, so memory does not grow with the corpus."""
        if not instances:
            return np.zeros((0, len(LABELS)))
        step = self.hyper.batch_size
        return np.vstack([
            forward_batch(
                pad([self._sequence(inst) for inst in instances[start : start + step]], self.l_max),
                self.params, self.hyper,
            ).probs
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
    """What the processes of one training run share. The parameters
    (``flat``, viewed per tensor by ``params``) and the two shards' gradients
    (``grads``, laid out like ``flat``) live in one anonymous shared mapping,
    so the workers forked after this is made see every write without a copy.
    Each half of the flat elements has its own Adam moments (``adam``),
    which only the process that updates that half touches."""

    def __init__(self, sequences: list[np.ndarray], gold: np.ndarray, l_max: int,
                 hyper: Hyperparams, shapes: dict[str, tuple[int, ...]]):
        self.sequences, self.gold, self.l_max, self.hyper = sequences, gold, l_max, hyper
        size = sum(map(math.prod, shapes.values()))
        shared = np.frombuffer(mmap.mmap(-1, 3 * size * 8), dtype=np.float64).reshape(3, size)
        self.flat, self.grads = shared[0], shared[1:]
        self.params = _flat_views(self.flat, shapes)
        self.shard_grads = [_flat_views(grad, shapes) for grad in self.grads]
        self.halves = [slice(0, size // 2), slice(size // 2, size)]
        self.adam = [AdamState.zeros_like({"params": self.flat[half]}) for half in self.halves]
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
    # the padded shard lives only as long as forward_batch's call, and the
    # cache only until this returns: one shard's working set at a time
    cache = forward_batch(pad([state.sequences[i] for i in idx], state.l_max),
                          state.params, state.hyper, mask)
    ce = _cross_entropy_sum(cache.probs, gold)
    grads = backward_batch(cache, gold, state.params, state.hyper, batch_rows)
    for name, out in state.shard_grads[shard].items():
        out[...] = grads[name]
    return ce


def _update(state: _TrainState, half: int) -> None:
    """Half ``half`` of a batch's update, over its elements of the flat
    buffers: the batch gradient is shard 0's plus shard 1's, plus the L2
    term on soft_w, and one Adam step applies it to the parameters."""
    cols, soft_w = state.halves[half], state.soft_w[half]
    grad = state.grads[0, cols]
    grad += state.grads[1, cols]
    grad[soft_w] += state.hyper.l2_scale * state.flat[cols][soft_w]
    adam_step({"params": state.flat[cols]}, {"params": grad}, state.adam[half],
              lr=state.hyper.learning_rate)


class _InProcessShard:
    """Shard ``shard`` and update half ``shard`` of each batch, run in this
    process when their results are asked for."""

    def __init__(self, state: _TrainState, shard: int):
        self.state, self.shard = state, shard

    def submit(self, idx: np.ndarray, mask: np.ndarray, batch_rows: int) -> None:
        self.task = (idx, mask, batch_rows)

    def gradient(self) -> float:
        return _shard_gradient(self.state, self.shard, *self.task)

    def start_update(self) -> None:
        pass

    def finish_update(self) -> None:
        _update(self.state, self.shard)

    def close(self) -> None:
        pass


class _ShardWorker:
    """Shard ``shard`` and update half ``shard`` of each batch, run in one
    forked process that lives until ``close``. A task message carries only
    the shard's row indices and mask rows; the gradient and the parameters
    are exchanged through the shared state, and a worker's exception is
    re-raised here. ``parent_ends`` collects the parent's pipe ends of every
    worker started so far: each new worker closes the copies it inherits,
    so that a worker reads end-of-file once this process closes its end."""

    def __init__(self, state: _TrainState, shard: int, parent_ends: list):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self.conn, child_conn = ctx.Pipe()
        parent_ends.append(self.conn)
        self.proc = ctx.Process(target=_serve_shard, args=(state, shard, child_conn, parent_ends),
                                daemon=True)
        self.proc.start()
        child_conn.close()

    def submit(self, idx: np.ndarray, mask: np.ndarray, batch_rows: int) -> None:
        self.conn.send((idx, mask, batch_rows))

    def _reply(self):
        try:
            reply = self.conn.recv()
        except EOFError:
            self.proc.join()
            raise RuntimeError(
                f"a conv-LSTM shard worker exited with code {self.proc.exitcode}"
            ) from None
        if isinstance(reply, BaseException):
            raise reply
        return reply

    def gradient(self) -> float:
        return self._reply()

    def start_update(self) -> None:
        self.conn.send(None)

    def finish_update(self) -> None:
        self._reply()

    def close(self) -> None:
        """End the worker: it reads end-of-file, or fails to send its reply,
        and is gone when this returns."""
        self.conn.close()
        self.proc.join()


def _serve_shard(state: _TrainState, shard: int, conn, parent_ends: list) -> None:
    """A shard worker: per batch, the shard's gradient once its task
    arrives, then its half of the update once the parent says both shards
    are done; each answered with its result or its exception, until the
    parent closes the pipe. The process then exits by ``os._exit``, as every
    multiprocessing fork worker does, so no ``finally`` of its callers runs
    in it."""
    for end in parent_ends:
        end.close()
    # an interrupt is the parent's to handle: it ends the worker by closing the pipe
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parallel.keep_freed_memory()

    def reply(fn, *args) -> None:
        try:
            result = fn(state, shard, *args)
        except Exception as exc:
            result = exc
        conn.send(result)

    try:
        while True:
            reply(_shard_gradient, *conn.recv())
            conn.recv()
            reply(_update)
    except (EOFError, OSError):  # the parent closed its end: training is over
        pass


def train(
    instances: Sequence[RelationInstance],
    table: EmbeddingTable,
    hyper: Hyperparams,
    freq_threshold: int = FREQ_THRESHOLD,
) -> ClstmModel:
    """Train on a labeled corpus; bitwise deterministic for a fixed seed.

    RNG order is fixed: parameter init, then per epoch one shuffle, then one
    dropout mask per batch.

    Each batch is split into two fixed shards, its first ceil(B/2) rows and
    the rest. Its gradient is shard 0's plus shard 1's, in that order, plus
    the L2 term once. The parameters are one flat buffer, and Adam updates
    each half of it in one pass. The loop runs with OpenBLAS at one thread;
    with two or more CPUs, two forked workers then run the shards, each
    with its half of the update, and otherwise this process runs all four
    in turn. The model does not depend on which.
    """
    labeled = [inst for inst in instances if inst.label is not None]
    if not labeled:
        raise ValueError("no labeled instances")
    if len(labeled) != len(instances):
        raise ValueError("training corpus contains unlabeled instances")
    freq = build_lemma_counts(labeled)
    sequences = [build_sequence(inst, table, freq, freq_threshold) for inst in labeled]
    l_max = max(seq.shape[1] for seq in sequences)
    if hyper.filter_width > l_max:
        raise ValueError(
            f"filter width {hyper.filter_width} exceeds the longest sequence ({l_max})"
        )
    if l_max > L_MAX_LIMIT:
        raise ValueError(
            f"the longest sequence has {l_max} columns, more than a model may pad to ({L_MAX_LIMIT})"
        )
    n, bs = len(labeled), hyper.batch_size
    ws, st = hyper.filter_width, hyper.stride
    # the live windows, counted from each sequence's nonzero columns: padding is zero
    nonzero = np.zeros((l_max, n), dtype=bool)
    for b, I in enumerate(sequences):
        nonzero[: I.shape[1], b] = I.any(axis=0)
    live = int(_live_windows(nonzero, ws, st).sum())
    label_idx = {label: i for i, label in enumerate(LABELS)}
    gold = np.array([label_idx[inst.label] for inst in labeled], dtype=np.int64)

    rng = np.random.default_rng(hyper.seed)
    state = _TrainState(sequences, gold, l_max, hyper, param_shapes(table.dim, hyper))
    for name, value in init_params(table.dim, hyper, rng).items():
        state.params[name][...] = value
    history = []
    with parallel.one_blas_thread() as blas_threads:
        workers = parallel.worker_count(min(2, n, bs)) if blas_threads and hyper.epochs else 1
        runners, parent_ends = [], []
        try:
            for shard in (0, 1):
                runners.append(_ShardWorker(state, shard, parent_ends) if workers > 1
                               else _InProcessShard(state, shard))
            for _ in range(hyper.epochs):
                order = rng.permutation(n)
                epoch_losses = []
                for start in range(0, n, bs):
                    idx = order[start : start + bs]
                    rows = len(idx)
                    half = (rows + 1) // 2
                    mask = dropout_mask(hyper, rows, rng)
                    runners[0].submit(idx[:half], mask[:half], rows)
                    runners[1].submit(idx[half:], mask[half:], rows)
                    ce = runners[0].gradient()
                    ce += runners[1].gradient()
                    epoch_losses.append(ce / rows + _l2_penalty(state.params, hyper.l2_scale))
                    for runner in runners:
                        runner.start_update()
                    for runner in runners:
                        runner.finish_update()
                history.append(float(np.mean(epoch_losses)))
        finally:
            for runner in runners:
                runner.close()
    return ClstmModel(
        params={name: p.copy() for name, p in state.params.items()},
        hyper=hyper,
        l_max=l_max,
        freq=freq,
        freq_threshold=freq_threshold,
        table=table,
        loss_history=tuple(history),
        windows=(live, n * n_windows(l_max, ws, st)),
        fit_report={"workers": workers, "blas_threads": blas_threads},
    )


# ---------------------------------------------------------------------------
# model file

def save_clstm_model(model: ClstmModel, path: str | Path) -> None:
    fields = {
        "hyper": asdict(model.hyper),
        "l_max": model.l_max,
        "params": {name: model.params[name] for name in PARAM_NAMES},
    }
    modelio.save_model(model, CLSTM_FORMAT, fields, path)


def _build_clstm_model(payload: dict, **common) -> ClstmModel:
    hyper = read.object(payload["hyper"], "hyper")
    if hyper.keys() != Hyperparams.READERS.keys():
        raise ValueError(f"hyper must hold exactly the fields {', '.join(Hyperparams.READERS)}")
    hyper = Hyperparams(**hyper)
    l_max = read.integer(payload["l_max"], "l_max", hyper.filter_width, L_MAX_LIMIT)
    stored = read.object(payload["params"], "params")
    params = {}
    for name, shape in param_shapes(common["table"].dim, hyper).items():
        params[name] = modelio.decode_array(stored[name], name).copy()
        if params[name].shape != shape:
            raise ValueError(
                f"{name} has shape {params[name].shape}, hyper and the table dim imply {shape}"
            )
    return ClstmModel(params=params, hyper=hyper, l_max=l_max, **common)


def load_clstm_model(
    path: str | Path, table: EmbeddingTable, payload: dict | None = None
) -> ClstmModel:
    """The conv-LSTM model in ``path``; ``payload``, when given, is that
    file's parsed JSON, so it is not read again."""
    return modelio.load_model(path, CLSTM_FORMAT, table, _build_clstm_model, payload)
