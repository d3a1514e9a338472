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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import modelio
from .corpus import (
    LABELS,
    FrequencyTable,
    RelationInstance,
    RelationLabel,
    build_lemma_counts,
    extract_context,
    filter_context,
)
from .embeddings import EmbeddingTable

log = logging.getLogger(__name__)

CLSTM_FORMAT = "relclass-clstm"

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

    Ranges are enforced by the search space, not here: tiny
    out-of-range models are legitimate in tests.
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

    def __post_init__(self) -> None:
        if self.num_filters < 1 or self.rnn_units < 1:
            raise ValueError("num_filters and rnn_units must be positive")
        if self.filter_width < 1 or self.stride < 1:
            raise ValueError("filter_width and stride must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.l2_scale < 0.0:
            raise ValueError("l2_scale must be nonnegative")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")

    def to_dict(self) -> dict:
        return {
            "num_filters": self.num_filters,
            "filter_width": self.filter_width,
            "rnn_units": self.rnn_units,
            "dropout_rate": self.dropout_rate,
            "l2_scale": self.l2_scale,
            "stride": self.stride,
            "learning_rate": self.learning_rate,
            "batch_size": self.batch_size,
            "epochs": self.epochs,
            "seed": self.seed,
        }


def build_sequence(
    inst: RelationInstance,
    table: EmbeddingTable,
    freq: FrequencyTable,
    threshold: int = 5,
) -> np.ndarray:
    """Embedding matrix I of shape (v, l_s): start entity, filtered context
    words in order, end entity. Entity columns are token-average vectors."""
    cols = [table.phrase_vector(inst.start_tokens)]
    for tok in filter_context(extract_context(inst), freq, threshold):
        cols.append(table.lookup(tok.lemma))
    cols.append(table.phrase_vector(inst.end_tokens))
    return np.column_stack(cols)


def pad(I: np.ndarray, l_max: int) -> np.ndarray:
    """Right-pad with zero columns up to l_max."""
    v, l_s = I.shape
    if l_s > l_max:
        raise ValueError(f"sequence length {l_s} exceeds l_max {l_max}")
    out = np.zeros((v, l_max), dtype=np.float64)
    out[:, :l_s] = I
    return out


def n_windows(l_max: int, ws: int, st: int) -> int:
    if ws > l_max:
        raise ValueError(f"filter width {ws} exceeds padded length {l_max}")
    return (l_max - ws) // st + 1


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def init_params(
    v: int, hyper: Hyperparams, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """Uniform [-0.1, 0.1] weights, zero biases, forget-gate bias 1.0."""
    k, u = hyper.num_filters, hyper.rnn_units
    ws = hyper.filter_width
    n_classes = len(LABELS)

    def w(*shape: int) -> np.ndarray:
        return rng.uniform(-0.1, 0.1, size=shape)

    params = {
        "conv_w": w(k, v * ws),
        "conv_b": np.zeros(k),
        "w_i": w(u, k), "u_i": w(u, u), "b_i": np.zeros(u),
        "w_f": w(u, k), "u_f": w(u, u), "b_f": np.ones(u),
        "w_o": w(u, k), "u_o": w(u, u), "b_o": np.zeros(u),
        "w_g": w(u, k), "u_g": w(u, u), "b_g": np.zeros(u),
        "soft_w": w(n_classes, u),
        "soft_b": np.zeros(n_classes),
    }
    return params


# ---------------------------------------------------------------------------
# batched forward/backward
#
# Activations are time-major: row t of an (m, B, .) array is window/step t
# of every instance in the batch. The four gates are fused in the order
# i, f, o, g (Appleyard et al., arXiv:1604.01946): one (4u, k) input
# projection over all steps at once, one (4u, u) recurrent matmul per step.

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


@dataclass
class ForwardCache:
    """Everything the backward pass needs, for one batch."""

    inputs: np.ndarray  # (l_max, B, v) padded inputs, time-major
    xs: np.ndarray  # (m, B, k) conv feature maps, post-ReLU
    gates: np.ndarray  # (m, B, 4, u) gate activations, in the order of GATES
    cells: np.ndarray  # (m + 1, B, u) c_t, with c_0 = 0 first
    hiddens: np.ndarray  # (m + 1, B, u) h_t, with h_0 = 0 first
    mask: np.ndarray  # dropout mask incl. inverted scaling, (B, u)
    h_drop: np.ndarray  # (B, u)
    probs: np.ndarray  # (B, n_classes)


def forward_batch(
    batch: np.ndarray,
    params: dict[str, np.ndarray],
    hyper: Hyperparams,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> ForwardCache:
    """Class distributions for a (B, v, l_max) batch of padded inputs.

    At training time an inverted-scaling dropout mask is applied to the final
    hidden state; inference never drops.
    """
    B, v, l_max = batch.shape
    u = hyper.rnn_units
    m = n_windows(l_max, hyper.filter_width, hyper.stride)
    inputs = np.ascontiguousarray(batch.transpose(2, 0, 1))

    # conv: window j sums, over the filter's columns w, block w of conv_w
    # times input column j*st + w; one matmul per w covers every window
    conv_w = params["conv_w"]
    xs = np.zeros((m * B, conv_w.shape[0]))
    for w, cols in enumerate(_window_slices(m, hyper.filter_width, hyper.stride)):
        xs += inputs[cols].reshape(m * B, v) @ conv_w[:, w * v : (w + 1) * v].T
    xs += params["conv_b"]
    np.maximum(xs, 0.0, out=xs)

    w_x, w_h, bias = _fused(params)
    gates = xs @ w_x.T
    gates += bias
    gates = gates.reshape(m, B, 4, u)
    xs = xs.reshape(m, B, -1)
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

    if training and hyper.dropout_rate > 0.0:
        if rng is None:
            raise ValueError("training-time dropout needs an RNG")
        keep = 1.0 - hyper.dropout_rate
        mask = (rng.random((B, u)) < keep) / keep
    else:
        mask = np.ones((B, u))
    h_drop = hiddens[m] * mask
    probs = softmax(h_drop @ params["soft_w"].T + params["soft_b"])
    return ForwardCache(inputs, xs, gates, cells, hiddens, mask, h_drop, probs)


def batch_loss(cache: ForwardCache, gold: np.ndarray, params: dict[str, np.ndarray], l2_scale: float) -> float:
    """Mean cross-entropy plus the softmax-weight L2 penalty."""
    B = gold.shape[0]
    ce = -np.log(cache.probs[np.arange(B), gold]).mean()
    return float(ce + l2_scale * 0.5 * float(np.sum(params["soft_w"] ** 2)))


def backward_batch(
    cache: ForwardCache,
    gold: np.ndarray,
    params: dict[str, np.ndarray],
    hyper: Hyperparams,
) -> dict[str, np.ndarray]:
    """Analytic gradients of batch_loss for every trainable tensor."""
    _, B, v = cache.inputs.shape
    m, _, k = cache.xs.shape
    u = hyper.rnn_units

    dlogits = cache.probs.copy()
    dlogits[np.arange(B), gold] -= 1.0
    dlogits /= B

    grads = {
        "soft_w": dlogits.T @ cache.h_drop + hyper.l2_scale * params["soft_w"],
        "soft_b": dlogits.sum(axis=0),
    }

    w_x, w_h, _ = _fused(params)
    gates, cells = cache.gates, cache.cells
    # pre-activation gradients of all steps, (m, B, 4, u) like the gates
    da = np.empty((m, B, 4, u))
    dh = (dlogits @ params["soft_w"]) * cache.mask
    dc = np.zeros((B, u))
    for t in range(m - 1, -1, -1):
        a = gates[t]
        i, f, o, g = a[:, 0], a[:, 1], a[:, 2], a[:, 3]
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
    xs = cache.xs.reshape(m * B, k)
    d_wx = da.T @ xs
    d_wh = da.T @ cache.hiddens[:-1].reshape(m * B, u)
    d_b = da.sum(axis=0)
    for n, gate in enumerate(GATES):
        rows = slice(n * u, (n + 1) * u)
        grads["w_" + gate] = d_wx[rows]
        grads["u_" + gate] = d_wh[rows]
        grads["b_" + gate] = d_b[rows]

    dz = da @ w_x
    dz *= xs > 0
    slices = _window_slices(m, hyper.filter_width, hyper.stride)
    grads["conv_w"] = np.concatenate(
        [dz.T @ cache.inputs[cols].reshape(m * B, v) for cols in slices], axis=1
    )
    grads["conv_b"] = dz.sum(axis=0)
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
    lr: float = 0.002,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One in-place Adam update with bias correction."""
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    for name, g in grads.items():
        state.m[name] = beta1 * state.m[name] + (1.0 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1.0 - beta2) * g**2
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        params[name] -= lr * m_hat / (np.sqrt(v_hat) + eps)


# ---------------------------------------------------------------------------
# model + training loop

@dataclass(frozen=True)
class ClstmModel:
    params: dict[str, np.ndarray]
    hyper: Hyperparams
    l_max: int
    freq: FrequencyTable
    freq_threshold: int
    table: EmbeddingTable
    loss_history: tuple[float, ...] = field(default=(), compare=False)

    def _padded(self, inst: RelationInstance) -> np.ndarray:
        I = build_sequence(inst, self.table, self.freq, self.freq_threshold)
        if I.shape[1] > self.l_max:
            log.warning(
                "instance %s: sequence length %d exceeds training maximum %d, truncating",
                inst.id, I.shape[1], self.l_max,
            )
            I = I[:, : self.l_max]
        return pad(I, self.l_max)

    def predict_proba_many(self, instances: Sequence[RelationInstance]) -> np.ndarray:
        if not instances:
            return np.zeros((0, len(LABELS)))
        batch = np.stack([self._padded(inst) for inst in instances])
        cache = forward_batch(batch, self.params, self.hyper, training=False)
        return cache.probs

    def predict_proba(self, inst: RelationInstance) -> dict[RelationLabel, float]:
        row = self.predict_proba_many([inst])[0]
        return {label: float(p) for label, p in zip(LABELS, row)}

    def predict_many(self, instances: Sequence[RelationInstance]) -> list[RelationLabel]:
        probs = self.predict_proba_many(instances)
        return [LABELS[int(np.argmax(row))] for row in probs]

    def predict(self, inst: RelationInstance) -> RelationLabel:
        return self.predict_many([inst])[0]


def train(
    instances: Sequence[RelationInstance],
    table: EmbeddingTable,
    hyper: Hyperparams,
    freq_threshold: int = 5,
) -> ClstmModel:
    """Train on a labeled corpus; bitwise deterministic for a fixed seed.

    RNG order is fixed: parameter init, then per epoch one shuffle, then one
    dropout mask per batch.
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
    padded = np.stack([pad(seq, l_max) for seq in sequences])
    label_idx = {label: i for i, label in enumerate(LABELS)}
    gold = np.array([label_idx[inst.label] for inst in labeled], dtype=np.int64)

    rng = np.random.default_rng(hyper.seed)
    params = init_params(table.dim, hyper, rng)
    state = AdamState.zeros_like(params)
    history = []
    n = len(labeled)
    for _ in range(hyper.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, hyper.batch_size):
            idx = order[start : start + hyper.batch_size]
            cache = forward_batch(padded[idx], params, hyper, training=True, rng=rng)
            epoch_losses.append(batch_loss(cache, gold[idx], params, hyper.l2_scale))
            grads = backward_batch(cache, gold[idx], params, hyper)
            adam_step(params, grads, state, lr=hyper.learning_rate)
        history.append(float(np.mean(epoch_losses)))
    return ClstmModel(
        params=params,
        hyper=hyper,
        l_max=l_max,
        freq=freq,
        freq_threshold=freq_threshold,
        table=table,
        loss_history=tuple(history),
    )


# ---------------------------------------------------------------------------
# model file

def save_clstm_model(model: ClstmModel, path: str | Path) -> None:
    payload = {
        "format": CLSTM_FORMAT,
        "version": 1,
        "labels": [label.value for label in LABELS],
        "hyper": model.hyper.to_dict(),
        "l_max": model.l_max,
        "freq_threshold": model.freq_threshold,
        "freq": dict(sorted(model.freq.items())),
        "embedding": {"name": model.table.name, "dim": model.table.dim},
        "params": {name: modelio.encode_array(model.params[name]) for name in PARAM_NAMES},
    }
    modelio.save_json(payload, path)


def load_clstm_model(path: str | Path, table: EmbeddingTable) -> ClstmModel:
    payload = modelio.load_json(path, CLSTM_FORMAT)
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
    params = {
        name: modelio.decode_array(payload["params"][name]).copy() for name in PARAM_NAMES
    }
    return ClstmModel(
        params=params,
        hyper=Hyperparams(**payload["hyper"]),
        l_max=payload["l_max"],
        freq=FrequencyTable(payload["freq"]),
        freq_threshold=payload["freq_threshold"],
        table=table,
    )
