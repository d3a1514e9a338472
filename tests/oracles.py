"""Independent reference implementations used only to check the package.

Everything here is written directly from the mathematical definitions with
naive loops or generic solvers, deliberately sharing no code with the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# QP oracle for the SVM dual

def project_box_hyperplane(z: np.ndarray, y: np.ndarray, C: float) -> np.ndarray:
    """Euclidean projection of z onto {a : 0 <= a <= C, y @ a = 0}, y in {-1,+1}.

    The projection is a_i = clip(z_i - lam * y_i, 0, C) for the multiplier lam
    solving y @ a(lam) = 0; g(lam) is piecewise linear and nonincreasing, so
    the root sits between two breakpoints and is solved exactly.
    """
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)

    def g(lam: float) -> float:
        return float(y @ np.clip(z - lam * y, 0.0, C))

    bps = np.unique(np.concatenate([(z - C) * y, z * y]))
    lo, hi = bps[0], bps[-1]
    g_lo, g_hi = g(lo), g(hi)
    if g_lo <= 0.0:
        lam = lo
    elif g_hi >= 0.0:
        lam = hi
    else:
        lam = lo
        for nxt in bps[1:]:
            g_nxt = g(nxt)
            if g_nxt <= 0.0:
                g_cur = g(lam)
                if g_cur == g_nxt:
                    lam = nxt
                else:
                    lam = lam + (nxt - lam) * g_cur / (g_cur - g_nxt)
                break
            lam = nxt
    return np.clip(z - lam * y, 0.0, C)


def qp_objective(K: np.ndarray, y: np.ndarray, a: np.ndarray) -> float:
    """SVM dual objective (to be maximized): sum a - 1/2 (a*y)' K (a*y)."""
    ay = a * y
    return float(a.sum() - 0.5 * ay @ K @ ay)


def kkt_violation(K: np.ndarray, y: np.ndarray, a: np.ndarray, b: float, C: float) -> float:
    """Largest per-point KKT violation of a dual solution with bias b, where
    f_i = sum_j a_j y_j K_ij + b: y_i f_i >= 1 at a_i = 0, y_i f_i <= 1 at
    a_i = C and y_i f_i = 1 in between."""
    worst = 0.0
    for i in range(len(y)):
        yf = y[i] * (sum(a[j] * y[j] * K[i, j] for j in range(len(y))) + b)
        if a[i] <= 0.0:
            v = max(0.0, 1.0 - yf)
        elif a[i] >= C:
            v = max(0.0, yf - 1.0)
        else:
            v = abs(yf - 1.0)
        worst = max(worst, float(v))
    return worst


def _kkt_polish(K: np.ndarray, y: np.ndarray, a: np.ndarray, C: float) -> np.ndarray:
    """Refine by solving the equality-constrained QP on the free variables."""
    Q = K * np.outer(y, y)
    best = a.copy()
    for _ in range(8):
        eps = 1e-7 * max(1.0, C)
        free = (best > eps) & (best < C - eps)
        if not free.any():
            break
        f = np.flatnonzero(free)
        b = np.flatnonzero(~free)
        rhs_top = 1.0 - Q[np.ix_(f, b)] @ best[b]
        rhs_bot = -float(y[b] @ best[b])
        kkt = np.zeros((len(f) + 1, len(f) + 1))
        kkt[: len(f), : len(f)] = Q[np.ix_(f, f)]
        kkt[: len(f), -1] = y[f]
        kkt[-1, : len(f)] = y[f]
        rhs = np.concatenate([rhs_top, [rhs_bot]])
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        x = sol[: len(f)]
        if np.any(x < -1e-9) or np.any(x > C + 1e-9):
            break
        cand = best.copy()
        cand[f] = np.clip(x, 0.0, C)
        cand = project_box_hyperplane(cand, y, C)
        if qp_objective(K, y, cand) < qp_objective(K, y, best) - 1e-12:
            break
        if np.allclose(cand, best, atol=1e-14):
            best = cand
            break
        best = cand
    return best


def qp_oracle(K: np.ndarray, y: np.ndarray, C: float, max_iter: int = 200_000) -> np.ndarray:
    """Solve the SVM dual by projected gradient with an exact projection,
    then polish the free variables through the KKT system."""
    y = np.asarray(y, dtype=np.float64)
    Q = K * np.outer(y, y)
    n = len(y)
    eigs = np.linalg.eigvalsh(Q)
    step = 1.0 / max(float(eigs[-1]), 1e-12)
    a = project_box_hyperplane(np.zeros(n), y, C)
    stall = 0
    for _ in range(max_iter):
        grad = Q @ a - 1.0
        a_new = project_box_hyperplane(a - step * grad, y, C)
        if float(np.max(np.abs(a_new - a))) < 1e-14:
            stall += 1
            if stall >= 3:
                a = a_new
                break
        else:
            stall = 0
        a = a_new
    return _kkt_polish(K, y, a, C)


def smo_reference(
    K: np.ndarray, y: np.ndarray, C: float, tol: float = 1e-3, max_iter: int = 100_000
) -> tuple[np.ndarray, float, int, bool]:
    """Maximal-violating-pair SMO that rebuilds the up/low masks and both
    masked gradients from scratch every iteration: the package's solver
    before it kept them up to date in place. The package's ``smo_solve``
    must return exactly the same (alpha, bias, iterations, converged)."""
    n = K.shape[0]
    y = np.asarray(y, dtype=np.float64)
    alpha = np.zeros(n)
    G = y.copy()
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
    _reference_rebalance(alpha, y, C)
    return alpha, _reference_bias(alpha, y, G, C), it, converged


def _reference_rebalance(alpha: np.ndarray, y: np.ndarray, C: float) -> None:
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


def _reference_bias(alpha: np.ndarray, y: np.ndarray, G: np.ndarray, C: float) -> float:
    free = (alpha > 0) & (alpha < C)
    if free.any():
        return float(G[free].mean())
    pos = y > 0
    up = np.where(pos, alpha < C, alpha > 0)
    low = np.where(pos, alpha > 0, alpha < C)
    m = G[up].max() if up.any() else 0.0
    M = G[low].min() if low.any() else 0.0
    return float((m + M) / 2.0)


# ---------------------------------------------------------------------------
# RBF kernel over boolean + dense features

def rbf_kernel(x_bools, x_dense, z_bools, z_dense, gamma: float) -> float:
    """exp(-gamma * ||x - z||^2) for one pair of instances, each given as the
    column indices of its boolean features and its dense vector. On 0/1
    columns the squared distance is the size of the symmetric difference."""
    d2 = len(set(int(c) for c in x_bools) ^ set(int(c) for c in z_bools))
    d2 += sum((float(p) - float(q)) ** 2 for p, q in zip(x_dense, z_dense, strict=True))
    return float(np.exp(-gamma * d2))


# ---------------------------------------------------------------------------
# dense boolean-block kernel reference
#
# The package's pairwise squared distances as they were when a row block kept
# its boolean features as one dense float32 0/1 matrix, ``bools`` (rows x
# feature-space size), beside the scaled ``dense`` block: the boolean inner
# products are one matrix product. Copied verbatim; ``a`` and ``b`` are any
# objects with those two attributes, such as ``DenseRows``.

@dataclass(frozen=True)
class DenseRows:
    bools: np.ndarray
    dense: np.ndarray


def squared_distances_dense_reference(a, b) -> np.ndarray:
    """Pairwise squared Euclidean distances over the concatenated boolean+dense
    representation. Boolean part = symmetric-difference size."""
    # exact in float32: each entry is a sum of 0/1 products, far below 2**24
    inner = a.bools @ b.bools.T
    counts_a = a.bools.sum(axis=1, dtype=np.float64)
    counts_b = b.bools.sum(axis=1, dtype=np.float64)
    d2 = counts_a[:, None] + counts_b[None, :] - 2.0 * inner
    da = np.einsum("ij,ij->i", a.dense, a.dense)
    db = np.einsum("ij,ij->i", b.dense, b.dense)
    d2 += da[:, None] + db[None, :] - 2.0 * (a.dense @ b.dense.T)
    return np.maximum(d2, 0.0)


# ---------------------------------------------------------------------------
# embedding-table writer reference
#
# The package's text-format writer as it was when it wrote each value with
# its own two calls. Copied verbatim; ``table`` is any object with the
# package's EmbeddingTable ``__len__``, ``dim``, ``tokens`` and ``lookup``.

def save_table_reference(table, path) -> None:
    """Write a table in the text format, with header, byte-deterministically.

    Tokens are written in sorted order and floats via ``repr``, so
    ``load_table(save_table(t))`` reproduces every vector bit for bit.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table)} {table.dim}\n")
        for token in sorted(table.tokens()):
            vec = table.lookup(token)
            fh.write(token)
            for x in vec:
                fh.write(" ")
                fh.write(repr(float(x)))
            fh.write("\n")


# ---------------------------------------------------------------------------
# neural-network oracles

def conv1d_oracle(I_pad: np.ndarray, filters: np.ndarray, bias: np.ndarray, st: int) -> np.ndarray:
    """Sliding-window dot products with explicit loops; ReLU at the end."""
    v, l = I_pad.shape
    k, flat = filters.shape
    ws = flat // v
    m = (l - ws) // st + 1
    out = np.zeros((k, m))
    for fi in range(k):
        for j in range(m):
            acc = bias[fi]
            for w in range(ws):
                for r in range(v):
                    acc += filters[fi, w * v + r] * I_pad[r, j * st + w]
            out[fi, j] = acc if acc > 0.0 else 0.0
    return out


def lstm_oracle(xs, params) -> np.ndarray:
    """Hand-unrolled LSTM recurrence, one gate at a time."""
    u = params["b_i"].shape[0]
    h = np.zeros(u)
    c = np.zeros(u)
    for x in xs:
        i_gate = 1.0 / (1.0 + np.exp(-(params["w_i"] @ x + params["u_i"] @ h + params["b_i"])))
        f_gate = 1.0 / (1.0 + np.exp(-(params["w_f"] @ x + params["u_f"] @ h + params["b_f"])))
        o_gate = 1.0 / (1.0 + np.exp(-(params["w_o"] @ x + params["u_o"] @ h + params["b_o"])))
        g_cand = np.tanh(params["w_g"] @ x + params["u_g"] @ h + params["b_g"])
        c = f_gate * c + i_gate * g_cand
        h = o_gate * np.tanh(c)
    return h


def finite_diff_grads(loss_fn, params: dict[str, np.ndarray], h: float = 1e-5) -> dict[str, np.ndarray]:
    """Central finite differences of loss_fn() w.r.t. every tensor in params.

    loss_fn must read the (mutated in place) params dict on each call.
    """
    grads = {}
    for name, p in params.items():
        g = np.zeros_like(p)
        flat_p = p.ravel()
        flat_g = g.ravel()
        for idx in range(flat_p.size):
            orig = flat_p[idx]
            flat_p[idx] = orig + h
            f_plus = loss_fn()
            flat_p[idx] = orig - h
            f_minus = loss_fn()
            flat_p[idx] = orig
            flat_g[idx] = (f_plus - f_minus) / (2.0 * h)
        grads[name] = g
    return grads


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    return float(np.linalg.norm(a - b)) / max(na + nb, 1e-12)


# ---------------------------------------------------------------------------
# dense conv-LSTM reference
#
# The package's batched forward/backward pass as it was before it skipped
# any conv window: every window of the padded input is convolved and
# projected, and the LSTM steps every row over every window. Copied from it,
# with its own copies of the helpers it calls, and masked: a row stays at its
# state from the step whose window starts at or past its length on (a
# ``where`` over the full step), and in the backward pass such a step gives
# zero gate gradients and passes the row's dh and dc through. A window that
# runs past the batch's width reads zero columns: the batch gets
# ``filter_width - 1`` of them on the right before anything else, so every
# row steps ``ceil(length / stride)`` windows. ``hyper`` is any object with
# the package's Hyperparams attributes.

PARAM_NAMES = (
    "conv_w", "conv_b",
    "w_i", "u_i", "b_i",
    "w_f", "u_f", "b_f",
    "w_o", "u_o", "b_o",
    "w_g", "u_g", "b_g",
    "soft_w", "soft_b",
)

GATES = "ifog"


def n_windows(l_max: int, ws: int, st: int) -> int:
    if ws > l_max:
        raise ValueError(f"filter width {ws} exceeds padded length {l_max}")
    return (l_max - ws) // st + 1


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


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

    inputs: np.ndarray  # (l_max + ws - 1, B, v) padded inputs, time-major
    active: np.ndarray  # (m, B) whether row b takes step t
    xs: np.ndarray  # (m, B, k) conv feature maps, post-ReLU
    gates: np.ndarray  # (m, B, 4, u) gate activations, in the order of GATES
    cells: np.ndarray  # (m + 1, B, u) c_t, with c_0 = 0 first
    hiddens: np.ndarray  # (m + 1, B, u) h_t, with h_0 = 0 first
    mask: np.ndarray  # dropout mask incl. inverted scaling, (B, u)
    h_drop: np.ndarray  # (B, u)
    probs: np.ndarray  # (B, n_classes)


def dense_forward_batch(
    batch: np.ndarray,
    lengths,
    params: dict[str, np.ndarray],
    hyper,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> ForwardCache:
    """Class distributions for a (B, v, l_max) batch of padded inputs whose
    row b holds ``lengths[b]`` columns, with ``filter_width - 1`` more zero
    columns appended.

    At training time an inverted-scaling dropout mask is applied to the final
    hidden state; inference never drops.
    """
    batch = np.pad(batch, ((0, 0), (0, 0), (0, hyper.filter_width - 1)))
    B, v, l_max = batch.shape
    u = hyper.rnn_units
    m = n_windows(l_max, hyper.filter_width, hyper.stride)
    inputs = np.ascontiguousarray(batch.transpose(2, 0, 1))
    active = np.arange(m)[:, None] * hyper.stride < np.asarray(lengths)[None, :]

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
        step = active[t][:, None]
        cells[t + 1] = np.where(step, f * cells[t] + i * g, cells[t])
        hiddens[t + 1] = np.where(step, o * np.tanh(cells[t + 1]), hiddens[t])

    if training and hyper.dropout_rate > 0.0:
        if rng is None:
            raise ValueError("training-time dropout needs an RNG")
        keep = 1.0 - hyper.dropout_rate
        mask = (rng.random((B, u)) < keep) / keep
    else:
        mask = np.ones((B, u))
    h_drop = hiddens[m] * mask
    probs = softmax(h_drop @ params["soft_w"].T + params["soft_b"])
    return ForwardCache(inputs, active, xs, gates, cells, hiddens, mask, h_drop, probs)


def dense_backward_batch(
    cache: ForwardCache,
    gold: np.ndarray,
    params: dict[str, np.ndarray],
    hyper,
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
        step = cache.active[t][:, None]
        tanh_c = np.tanh(cells[t + 1])
        dc_in = dc
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        d = da[t]
        # activation derivatives: s(1 - s) for the sigmoid gates, 1 - g^2 for g
        np.subtract(1.0, a, out=d)
        d *= a
        np.subtract(1.0, g * g, out=d[:, 3])
        d[:, 0] *= dc * g
        d[:, 1] *= dc * cells[t]
        d[:, 2] *= dh * tanh_c
        d[:, 3] *= dc * i
        d *= step[:, :, None]
        dc = np.where(step, dc * f, dc_in)
        dh = np.where(step, d.reshape(B, 4 * u) @ w_h, dh)

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


def clstm_dense_reference(batch, lengths, gold, params, hyper, training=False, rng=None):
    """(ForwardCache, gradients) of one batch from the dense reference."""
    cache = dense_forward_batch(batch, lengths, params, hyper, training, rng)
    return cache, dense_backward_batch(cache, gold, params, hyper)


# ---------------------------------------------------------------------------
# Adam reference: the package's update before it worked in place

def adam_step_reference(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state,
    lr: float = 0.002,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One Adam update with bias correction, allocating new moment arrays;
    ``state`` is any object with ``m``, ``v`` (dicts of arrays) and ``t``."""
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
# metrics oracle

def f1_oracle(cm: np.ndarray) -> tuple[list[float], float, float]:
    """(per-class F1, macro-F1, micro-F1) straight from the definitions."""
    n = cm.shape[0]
    f1s = []
    tp_total = 0
    fp_total = 0
    fn_total = 0
    for i in range(n):
        tp = int(cm[i][i])
        fp = sum(int(cm[j][i]) for j in range(n) if j != i)
        fn = sum(int(cm[i][j]) for j in range(n) if j != i)
        tp_total += tp
        fp_total += fp
        fn_total += fn
        p = tp / (tp + fp) if tp + fp > 0 else 0.0
        r = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1s.append(2 * p * r / (p + r) if p + r > 0 else 0.0)
    macro = sum(f1s) / n
    micro_p = tp_total / (tp_total + fp_total) if tp_total + fp_total > 0 else 0.0
    micro_r = tp_total / (tp_total + fn_total) if tp_total + fn_total > 0 else 0.0
    micro = (
        2 * micro_p * micro_r / (micro_p + micro_r) if micro_p + micro_r > 0 else 0.0
    )
    return f1s, macro, micro


# ---------------------------------------------------------------------------
# pairwise-coupling oracle

def coupling_oracle(r: np.ndarray, tol: float = 1e-10, max_sweeps: int = 1000) -> np.ndarray:
    """One (k, k) pairwise matrix coupled by the fixed point of Wu, Lin & Weng
    (JMLR 2004, method 2), with Q built and applied entry by entry."""
    k = r.shape[0]
    Q = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            if i != j:
                Q[i, i] += r[j, i] ** 2
                Q[i, j] = -r[j, i] * r[i, j]

    def apply_q(p):
        qp = [sum(Q[i, j] * p[j] for j in range(k)) for i in range(k)]
        return qp, sum(p[i] * qp[i] for i in range(k))

    p = np.full(k, 1.0 / k)
    for _ in range(max_sweeps):
        for t in range(k):
            qp, pqp = apply_q(p)
            p[t] += (pqp - qp[t]) / Q[t, t]
            p /= p.sum()
        qp, pqp = apply_q(p)
        if max(abs(q - pqp) for q in qp) < tol:
            break
    return p
