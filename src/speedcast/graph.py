"""Complete-graph Chebyshev convolution: one ragged closed-form path and a dense oracle.

Each frame of a view is a complete graph over its real detections, self-loops
included; padded slots are isolated. On the real rows the rescaled Laplacian
is L_tilde = -P, where P replaces each row by its graph's mean, so
T_k(L_tilde) = c_k (I - P) + (-1)^k P with c_k = cos(k pi / 2). A K-hop
Chebyshev layer is therefore the DeepSets equivariant layer
act(x A + mean(x) B + b), with A and B fixed sums of the hop weights W_k.

* The production path (`spatial_encode_forward` / `spatial_encode_backward`)
  gathers the real rows of a (B, T, n, f) batch into one flat ragged array,
  one segment per non-empty graph, runs the closed-form layers on it and
  max-pools each segment. Padded slots cost nothing.
* The dense path (`GraphOperator`, `cheb_conv`, `cheb_conv_spectral`,
  `masked_max_pool`) materializes one graph's Laplacian and Chebyshev basis;
  it is the oracle the tests check the production path against.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

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
# Ragged closed-form path
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Segments:
    """The real rows of a (..., n) mask as one flat ragged batch.

    Rows are taken in C order (`x[mask]`), so each graph's real rows are
    contiguous and in node order. Only graphs with at least one real row get a
    segment, because `ufunc.reduceat` is not an identity on empty ranges.
    """

    starts: np.ndarray  # (S,) first row of each segment
    sizes: np.ndarray  # (S,) real rows per segment, all >= 1
    ids: np.ndarray  # (R,) segment of each row
    nonempty: np.ndarray  # (G,) bool over the flattened graphs: has a segment

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "Segments":
        counts = mask.reshape(-1, mask.shape[-1]).sum(axis=1)
        nonempty = counts > 0
        sizes = counts[nonempty]
        starts = np.cumsum(sizes) - sizes
        return cls(starts, sizes, np.repeat(np.arange(sizes.size), sizes), nonempty)

    def sum(self, h: np.ndarray) -> np.ndarray:
        return np.add.reduceat(h, self.starts, axis=0)

    def mean(self, h: np.ndarray) -> np.ndarray:
        return self.sum(h) / self.sizes[:, None]


def hop_coefficients(order: int) -> tuple[np.ndarray, np.ndarray]:
    """(c, e) with T_k(L_tilde) = c_k I + e_k P on the real rows of a complete graph.

    There L_tilde = -P, and P (the per-graph mean) is a projection, so T_k acts
    as T_k(0) = cos(k pi / 2) off the mean direction and T_k(-1) = (-1)^k on it.
    """
    k = np.arange(order + 1)
    c = np.array([1.0, 0.0, -1.0, 0.0])[k % 4]
    return c, np.where(k % 2 == 0, 1.0, -1.0) - c


def cheb_layer_forward(
    h: np.ndarray,
    segments: Segments,
    params: ChebLayerParams,
    activation: str = "relu",
) -> tuple[np.ndarray, dict]:
    """One Chebyshev layer on flat real rows: act(h A + mean(h) B + b).

    h: (R, in_dim) rows grouped by `segments`. A = sum_k c_k W_k and
    B = sum_k e_k W_k (see `hop_coefficients`); K = 0 gives B = 0.
    """
    if h.shape[-1] != params.in_dim:
        raise ShapeError(f"features width {h.shape[-1]} != layer in_dim {params.in_dim}")
    act, _ = ACTIVATIONS[activation]
    c, e = hop_coefficients(params.order)
    a = np.tensordot(c, params.weights, axes=1)
    b = np.tensordot(e, params.weights, axes=1)
    mean = segments.mean(h)
    z = h @ a + (mean @ b)[segments.ids] + params.bias
    cache = {"h": h, "mean": mean, "z": z, "a": a, "b": b, "segments": segments, "activation": activation}
    return act(z), cache


def cheb_layer_backward(
    dy: np.ndarray, cache: dict, params: ChebLayerParams, want_dh: bool = True
) -> tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
    """Reverse mode through `cheb_layer_forward`: (dh, dweights, dbias).

    dW_k = c_k dA + e_k dB; P is symmetric, so dh = dz A^T + P dz B^T. dh is
    None when `want_dh` is False.
    """
    _, grad = ACTIVATIONS[cache["activation"]]
    segments = cache["segments"]
    dz = dy * grad(cache["z"])
    dz_sum = segments.sum(dz)
    c, e = hop_coefficients(params.order)
    da = cache["h"].T @ dz
    db = cache["mean"].T @ dz_sum
    dweights = c[:, None, None] * da + e[:, None, None] * db
    if not want_dh:
        return None, dweights, dz.sum(axis=0)
    dh = dz @ cache["a"].T + ((dz_sum / segments.sizes[:, None]) @ cache["b"].T)[segments.ids]
    return dh, dweights, dz.sum(axis=0)


def spatial_encode_forward(
    x: np.ndarray,
    mask: np.ndarray,
    layers: list[ChebLayerParams],
    activation: str = "relu",
) -> tuple[np.ndarray, dict]:
    """Chebyshev stack then max pool over each graph's real nodes, for one view.

    x: (B, T, n, f); mask: (B, T, n) bool. Output H: (B, T, d_out). Only real
    rows are computed; a frame with no real node pools to the zero vector.
    """
    segments = Segments.from_mask(mask)
    h = x[mask]
    caches = []
    for layer in layers:
        h, cache = cheb_layer_forward(h, segments, layer, activation)
        caches.append(cache)
    maxima = np.maximum.reduceat(h, segments.starts, axis=0)
    pooled = np.zeros((segments.nonempty.size, h.shape[-1]))
    pooled[segments.nonempty] = maxima
    cache = {"layers": caches, "segments": segments, "out": h, "maxima": maxima, "mask": mask}
    return pooled.reshape(mask.shape[:-1] + (h.shape[-1],)), cache


def spatial_encode_backward(
    dpooled: np.ndarray,
    cache: dict,
    layers: list[ChebLayerParams],
    want_input_grad: bool = True,
) -> tuple[Optional[np.ndarray], list[tuple[np.ndarray, np.ndarray]]]:
    """Backward of spatial_encode_forward.

    Each pooled coordinate's gradient goes to the lowest real node achieving
    the max; a frame with no real node gets none. Returns (dx, [(dweights,
    dbias) per layer, same order as forward]); dx is zero on padded slots,
    and None when `want_input_grad` is False.
    """
    segments = cache["segments"]
    out = cache["out"]
    n_rows, width = out.shape
    # `~(out < max)` is `out == max` for finite values and also marks NaN, so a
    # non-finite column still routes to a row and the caller sees the fault.
    rows = np.where(~(out < cache["maxima"][segments.ids]), np.arange(n_rows)[:, None], n_rows)
    first = np.minimum.reduceat(rows, segments.starts, axis=0)
    dy = np.zeros_like(out)
    dy[first, np.arange(width)] = dpooled.reshape(-1, width)[segments.nonempty]
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(layers)  # type: ignore[list-item]
    for i in range(len(layers) - 1, -1, -1):
        dy, dw, db = cheb_layer_backward(
            dy, cache["layers"][i], layers[i], want_dh=i > 0 or want_input_grad
        )
        grads[i] = (dw, db)
    if not want_input_grad:
        return None, grads
    mask = cache["mask"]
    dx = np.zeros(mask.shape + (dy.shape[-1],))
    dx[mask] = dy
    return dx, grads
