"""Complete-graph operators and K-hop Chebyshev spectral convolution.

Two equivalent code paths exist on purpose:

* a dense reference path (`GraphOperator` + `cheb_conv`) that materializes the
  rescaled Laplacian and its Chebyshev basis, checkable against an
  eigendecomposition oracle, and
* a batched masked path (`cheb_layer_forward` / `spatial_encode_forward`) that
  exploits the structure of the padded complete graph - the rescaled Laplacian
  acts on real rows as minus their mean and on padded rows as negation - so
  clips can be processed as (batch, frame, node) tensors without building any
  n x n matrix.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateGraphError, InvalidConfigError, ShapeError


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_grad(pre: np.ndarray) -> np.ndarray:
    return (pre > 0.0).astype(pre.dtype)


def identity(x: np.ndarray) -> np.ndarray:
    return x


ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "relu": (relu, relu_grad),
    "identity": (identity, lambda pre: np.ones_like(pre)),
}


def build_adjacency(n_real: int, n_total: int) -> np.ndarray:
    """All-ones block over real nodes (self-loops included); padded nodes isolated."""
    if n_total <= 0:
        raise InvalidConfigError(f"n_total must be positive, got {n_total}")
    if not 0 <= n_real <= n_total:
        raise InvalidConfigError(f"n_real {n_real} outside [0, {n_total}]")
    a = np.eye(n_total, dtype=np.float64)
    a[:n_real, :n_real] = 1.0
    return a


def adjacency_from_mask(mask: np.ndarray) -> np.ndarray:
    """Mask-general form of build_adjacency: real nodes form the ones block."""
    m = np.asarray(mask, dtype=np.float64)
    return np.outer(m, m) + np.diag(1.0 - m)


def normalized_laplacian(a: np.ndarray) -> np.ndarray:
    """L = I - D^{-1/2} A D^{-1/2} with row-sum degrees."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"adjacency must be square, got {a.shape}")
    deg = a.sum(axis=1)
    if np.any(deg <= 0):
        raise DegenerateGraphError("zero row-sum in adjacency; Laplacian undefined")
    inv_sqrt = 1.0 / np.sqrt(deg)
    return np.eye(a.shape[0]) - inv_sqrt[:, None] * a * inv_sqrt[None, :]


@dataclass
class GraphOperator:
    """Dense operator bundle for one graph: A, degrees, L, and L_tilde = L - I."""

    adjacency: np.ndarray
    degree: np.ndarray
    laplacian: np.ndarray
    l_tilde: np.ndarray

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @classmethod
    def from_adjacency(cls, a: np.ndarray) -> "GraphOperator":
        a = np.asarray(a, dtype=np.float64)
        lap = normalized_laplacian(a)
        return cls(
            adjacency=a,
            degree=np.diag(a.sum(axis=1)),
            laplacian=lap,
            l_tilde=lap - np.eye(a.shape[0]),
        )

    @classmethod
    def for_padded_complete(cls, n_real: int, n_total: int) -> "GraphOperator":
        return cls.from_adjacency(build_adjacency(n_real, n_total))


@dataclass
class ChebLayerParams:
    """One Chebyshev filter layer: hop weights (K+1, in, out) plus bias (out,)."""

    weights: np.ndarray
    bias: np.ndarray

    @property
    def order(self) -> int:
        return self.weights.shape[0] - 1

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[2]


def chebyshev_basis(l_tilde: np.ndarray, order: int) -> list[np.ndarray]:
    """T_0..T_order of the rescaled Laplacian via the three-term recurrence."""
    n = l_tilde.shape[0]
    basis = [np.eye(n)]
    if order >= 1:
        basis.append(l_tilde.copy())
    for _ in range(2, order + 1):
        basis.append(2.0 * l_tilde @ basis[-1] - basis[-2])
    return basis


def cheb_conv(
    x: np.ndarray,
    graph: GraphOperator,
    params: ChebLayerParams,
    activation: str = "relu",
) -> np.ndarray:
    """Dense reference convolution: act( sum_k T_k(L_tilde) X W_k + b )."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != graph.n:
        raise ShapeError(f"features {x.shape} do not match graph with {graph.n} nodes")
    if x.shape[1] != params.in_dim:
        raise ShapeError(f"features width {x.shape[1]} != layer in_dim {params.in_dim}")
    act, _ = ACTIVATIONS[activation]
    basis = chebyshev_basis(graph.l_tilde, params.order)
    z = np.zeros((graph.n, params.out_dim))
    for t_k, w_k in zip(basis, params.weights):
        z += t_k @ x @ w_k
    return act(z + params.bias)


def cheb_conv_spectral(
    x: np.ndarray, graph: GraphOperator, params: ChebLayerParams, activation: str = "relu"
) -> np.ndarray:
    """Eigendecomposition oracle for cheb_conv: T_k applied to eigenvalues."""
    act, _ = ACTIVATIONS[activation]
    lam, u = np.linalg.eigh(graph.l_tilde)
    z = np.zeros((graph.n, params.out_dim))
    for k in range(params.order + 1):
        tk_scalar = np.cos(k * np.arccos(np.clip(lam, -1.0, 1.0)))
        tk = (u * tk_scalar) @ u.T
        z += tk @ x @ params.weights[k]
    return act(z + params.bias)


def masked_max_pool(y: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Coordinate-wise max over mask-true rows; all-false gives the zero vector."""
    y = np.asarray(y, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (y.shape[0],):
        raise ShapeError(f"mask shape {mask.shape} does not match {y.shape[0]} rows")
    if not mask.any():
        return np.zeros(y.shape[1])
    return y[mask].max(axis=0)


# ---------------------------------------------------------------------------
# Batched masked fast path
# ---------------------------------------------------------------------------


def apply_rescaled_laplacian(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """L_tilde @ x for the padded complete graph, batched over leading dims.

    Real rows receive minus the mean over real rows; padded rows are negated.
    Shapes: x (..., n, f), mask (..., n). Self-adjoint, so backward reuses it.
    """
    m = mask.astype(x.dtype)[..., None]
    count = m.sum(axis=-2, keepdims=True)
    mean_real = (x * m).sum(axis=-2, keepdims=True) / np.maximum(count, 1.0)
    return np.where(mask[..., None], -mean_real, -x)


def cheb_layer_forward(
    x: np.ndarray,
    mask: np.ndarray,
    params: ChebLayerParams,
    activation: str = "relu",
) -> tuple[np.ndarray, dict]:
    """Batched Chebyshev layer on padded complete graphs.

    x: (..., n, in_dim); mask: (..., n). Returns (..., n, out_dim) and a cache
    holding the Chebyshev basis images S_k = T_k(L_tilde) x for the backward pass.
    """
    if x.shape[-1] != params.in_dim:
        raise ShapeError(f"features width {x.shape[-1]} != layer in_dim {params.in_dim}")
    act, _ = ACTIVATIONS[activation]
    s = [x]
    if params.order >= 1:
        s.append(apply_rescaled_laplacian(x, mask))
    for _ in range(2, params.order + 1):
        s.append(2.0 * apply_rescaled_laplacian(s[-1], mask) - s[-2])
    z = sum(sk @ wk for sk, wk in zip(s, params.weights)) + params.bias
    return act(z), {"s": s, "z": z, "mask": mask, "activation": activation}


def cheb_layer_backward(
    dy: np.ndarray, cache: dict, params: ChebLayerParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reverse-mode through one batched Chebyshev layer.

    Returns (dx, dweights, dbias). The recurrence is reversed term by term;
    L_tilde is symmetric so its adjoint is itself.
    """
    _, grad = ACTIVATIONS[cache["activation"]]
    dz = dy * grad(cache["z"])
    s = cache["s"]
    mask = cache["mask"]
    dweights = np.empty_like(params.weights)
    for k in range(params.order + 1):
        sk = s[k].reshape(-1, params.in_dim)
        dweights[k] = sk.T @ dz.reshape(-1, params.out_dim)
    dbias = dz.reshape(-1, params.out_dim).sum(axis=0)
    ds = [dz @ params.weights[k].T for k in range(params.order + 1)]
    for k in range(params.order, 1, -1):
        ds[k - 1] += 2.0 * apply_rescaled_laplacian(ds[k], mask)
        ds[k - 2] -= ds[k]
    dx = ds[0]
    if params.order >= 1:
        dx = dx + apply_rescaled_laplacian(ds[1], mask)
    return dx, dweights, dbias


def pooled_forward(y: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, dict]:
    """Masked max over the node axis, batched: (..., n, d) -> (..., d).

    Ties resolve to the lowest node index (argmax of the masked tensor).
    """
    neg = np.where(mask[..., None], y, -np.inf)
    arg = neg.argmax(axis=-2)
    pooled = np.take_along_axis(y, arg[..., None, :], axis=-2).squeeze(-2)
    any_real = mask.any(axis=-1)
    pooled = np.where(any_real[..., None], pooled, 0.0)
    return pooled, {"arg": arg, "any_real": any_real, "n": y.shape[-2]}


def pooled_backward(dpooled: np.ndarray, cache: dict) -> np.ndarray:
    """Route the pooled gradient to each coordinate's achieving row."""
    arg = cache["arg"]
    dp = np.where(cache["any_real"][..., None], dpooled, 0.0)
    dy = np.zeros(dp.shape[:-1] + (cache["n"], dp.shape[-1]))
    np.put_along_axis(dy, arg[..., None, :], dp[..., None, :], axis=-2)
    return dy


def spatial_encode_forward(
    x: np.ndarray,
    mask: np.ndarray,
    layers: list[ChebLayerParams],
    activation: str = "relu",
) -> tuple[np.ndarray, dict]:
    """Chebyshev stack then masked max pool for one view.

    x: (B, T, n, 4); mask: (B, T, n). Output H: (B, T, d_out).
    """
    caches = []
    h = x
    for layer in layers:
        h, cache = cheb_layer_forward(h, mask, layer, activation)
        caches.append(cache)
    pooled, pool_cache = pooled_forward(h, mask)
    return pooled, {"layers": caches, "pool": pool_cache}


def spatial_encode_backward(
    dpooled: np.ndarray, cache: dict, layers: list[ChebLayerParams]
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Backward of spatial_encode_forward.

    Returns (dx, [(dweights, dbias) per layer, same order as forward]).
    """
    dy = pooled_backward(dpooled, cache["pool"])
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(layers)  # type: ignore[list-item]
    for i in range(len(layers) - 1, -1, -1):
        dy, dw, db = cheb_layer_backward(dy, cache["layers"][i], layers[i])
        grads[i] = (dw, db)
    return dy, grads

