"""Reference implementations the tests check the library's fast paths against.

The library runs one graph layer (the ragged closed-form Chebyshev layer in
`speedcast.graph`) and one LSTM (the fused-gate `speedcast.model.lstm_forward`).
Here the same model is written the slow, textbook way: one dense normalized
Laplacian and Chebyshev recurrence per graph (Defferrard et al., NeurIPS 2016),
its eigendecomposition twin, a masked max pool, and a per-gate LSTM cell run one
step at a time. Inputs are trusted; nothing here validates shapes. The model
is rectified; the dense layer oracles can also run linear, for spectral checks.
"""
from dataclasses import dataclass

import numpy as np

from speedcast.graph import ChebLayerParams
from speedcast.model import LstmLayerParams, ModelParams

ACTIVATIONS = {"relu": lambda z: np.maximum(z, 0.0), "identity": lambda z: z}


def adjacency_from_mask(mask: np.ndarray) -> np.ndarray:
    """All-ones block over real nodes (self-loops included); padded nodes isolated."""
    m = np.asarray(mask, dtype=np.float64)
    return np.outer(m, m) + np.diag(1.0 - m)


def normalized_laplacian(a: np.ndarray) -> np.ndarray:
    """L = I - D^{-1/2} A D^{-1/2} with row-sum degrees."""
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    return np.eye(a.shape[0]) - inv_sqrt[:, None] * a * inv_sqrt[None, :]


@dataclass
class GraphOperator:
    """One graph's rescaled Laplacian L_tilde = L - I."""

    l_tilde: np.ndarray

    @classmethod
    def from_adjacency(cls, a: np.ndarray) -> "GraphOperator":
        return cls(normalized_laplacian(a) - np.eye(a.shape[0]))


def chebyshev_basis(l_tilde: np.ndarray, order: int) -> list[np.ndarray]:
    """T_0..T_order of the rescaled Laplacian via the three-term recurrence."""
    basis = [np.eye(l_tilde.shape[0])]
    if order >= 1:
        basis.append(l_tilde.copy())
    for _ in range(2, order + 1):
        basis.append(2.0 * l_tilde @ basis[-1] - basis[-2])
    return basis


def cheb_conv(
    x: np.ndarray, graph: GraphOperator, params: ChebLayerParams, activation: str = "relu"
) -> np.ndarray:
    """Dense convolution: act( sum_k T_k(L_tilde) X W_k + b )."""
    basis = chebyshev_basis(graph.l_tilde, params.order)
    z = sum(t_k @ x @ w_k for t_k, w_k in zip(basis, params.weights))
    return ACTIVATIONS[activation](z + params.bias)


def cheb_conv_spectral(
    x: np.ndarray, graph: GraphOperator, params: ChebLayerParams, activation: str = "relu"
) -> np.ndarray:
    """Eigendecomposition form of cheb_conv: T_k applied to eigenvalues."""
    lam, u = np.linalg.eigh(graph.l_tilde)
    z = np.zeros((x.shape[0], params.bias.size))
    for k in range(params.order + 1):
        tk_scalar = np.cos(k * np.arccos(np.clip(lam, -1.0, 1.0)))
        tk = (u * tk_scalar) @ u.T
        z += tk @ x @ params.weights[k]
    return ACTIVATIONS[activation](z + params.bias)


def masked_max_pool(y: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Coordinate-wise max over mask-true rows; all-false gives the zero vector."""
    return y[mask].max(axis=0) if mask.any() else np.zeros(y.shape[1])


def dense_encode(x: np.ndarray, mask: np.ndarray, layers: list[ChebLayerParams]) -> np.ndarray:
    """Per-graph encoder: rectified cheb_conv stack, then masked_max_pool, for each frame of (..., n, f)."""
    out = np.zeros(mask.shape[:-1] + (layers[-1].bias.size,))
    for idx in np.ndindex(*mask.shape[:-1]):
        g = GraphOperator.from_adjacency(adjacency_from_mask(mask[idx]))
        h = x[idx]
        for layer in layers:
            h = cheb_conv(h, g, layer)
        out[idx] = masked_max_pool(h, mask[idx])
    return out


def lstm_cell_step(
    x: np.ndarray, h: np.ndarray, c: np.ndarray, layer: LstmLayerParams
) -> tuple[np.ndarray, np.ndarray]:
    """One standard LSTM cell update with per-gate matmuls; accepts vectors or batches."""
    z = np.concatenate([x, h], axis=-1)
    blocks = [slice(k * layer.hidden, (k + 1) * layer.hidden) for k in range(4)]
    i, f, g, o = (z @ layer.weights[:, s] + layer.bias[s] for s in blocks)
    i, f, o = (0.5 * (1.0 + np.tanh(0.5 * a)) for a in (i, f, o))
    c_new = f * c + i * np.tanh(g)
    return o * np.tanh(c_new), c_new


def cell_step_loop(seq: np.ndarray, layers: list[LstmLayerParams]) -> np.ndarray:
    """The top layer's last hidden state for (B, T, d) `seq`, one `lstm_cell_step` at a time."""
    x = seq
    for layer in layers:
        h = np.zeros((seq.shape[0], layer.hidden))
        c = np.zeros_like(h)
        outs = []
        for t in range(seq.shape[1]):
            h, c = lstm_cell_step(x[:, t, :], h, c, layer)
            outs.append(h)
        x = np.stack(outs, axis=1)
    return x[:, -1, :]


def reference_forward(features: np.ndarray, mask: np.ndarray, params: ModelParams) -> np.ndarray:
    """Class probabilities (B, 4) for (B, T, N, 4) clips, composed from the oracles above."""
    cfg = params.config
    relu = ACTIVATIONS["relu"]
    parts = []
    for view, block in cfg.views():
        pooled = dense_encode(features[:, :, block], mask[:, :, block], params.graph[view])
        if cfg.temporal:
            parts.append(cell_step_loop(pooled, params.lstm[view]))
        else:
            parts.append(pooled.reshape(len(pooled), -1))
    mlp = params.classifier
    hidden = relu(relu(np.concatenate(parts, axis=1) @ mlp.w1 + mlp.b1) @ mlp.w2 + mlp.b2)
    logits = hidden @ mlp.w_out + mlp.b_out
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)
