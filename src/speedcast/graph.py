"""Complete-graph Chebyshev convolution on a flat ragged batch of real nodes.

Each frame of a view is a complete graph over its real detections, self-loops
included; padded slots are isolated. On the real rows the rescaled Laplacian
is L_tilde = -P, where P replaces each row by its graph's mean, so
T_k(L_tilde) = c_k (I - P) + (-1)^k P with c_k = cos(k pi / 2). A K-hop
Chebyshev layer is therefore the DeepSets equivariant layer
relu(x A + mean(x) B + b), with A and B fixed sums of the hop weights W_k.
ReLU is the only nonlinearity, so a layer caches its output y and not the
pre-activation: relu'(z) is 1 exactly where y > 0.

`spatial_encode_forward` / `spatial_encode_backward` gather the real rows of a
(B, T, n, f) batch into one flat ragged array, one segment per non-empty graph,
run the closed-form layers on it and max-pool each segment. Padded slots cost
nothing. The dense per-graph Laplacian and Chebyshev recurrence this is checked
against lives in the test suite (`tests/oracles.py`).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ShapeError


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
        return self.divide_by_sizes(self.sum(h))

    def divide_by_sizes(self, totals: np.ndarray) -> np.ndarray:
        """Divide each segment's row of `totals` by its size, in place, keeping the dtype."""
        totals /= self.sizes[:, None]
        return totals


def hop_coefficients(order: int, dtype: np.dtype = np.float64) -> tuple[np.ndarray, np.ndarray]:
    """(c, e) with T_k(L_tilde) = c_k I + e_k P on the real rows of a complete graph.

    There L_tilde = -P, and P (the per-graph mean) is a projection, so T_k acts
    as T_k(0) = cos(k pi / 2) off the mean direction and T_k(-1) = (-1)^k on it.
    """
    k = np.arange(order + 1)
    c = np.array([1.0, 0.0, -1.0, 0.0], dtype=dtype)[k % 4]
    return c, np.where(k % 2 == 0, 1.0, -1.0).astype(dtype) - c


def cheb_layer_forward(
    h: np.ndarray, segments: Segments, params: ChebLayerParams
) -> tuple[np.ndarray, dict]:
    """One Chebyshev layer on flat real rows: relu(h A + mean(h) B + b).

    h: (R, in_dim) rows grouped by `segments`. A = sum_k c_k W_k and
    B = sum_k e_k W_k (see `hop_coefficients`); K = 0 gives B = 0.
    """
    if h.shape[-1] != params.in_dim:
        raise ShapeError(f"features width {h.shape[-1]} != layer in_dim {params.in_dim}")
    c, e = hop_coefficients(params.order, params.weights.dtype)
    a = np.tensordot(c, params.weights, axes=1)
    b = np.tensordot(e, params.weights, axes=1)
    mean = segments.mean(h)
    y = h @ a + (mean @ b)[segments.ids] + params.bias
    np.maximum(y, 0.0, out=y)
    return y, {"h": h, "mean": mean, "y": y, "a": a, "b": b, "segments": segments}


def cheb_layer_backward(
    dy: np.ndarray, cache: dict, params: ChebLayerParams, want_dh: bool = True
) -> tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
    """Reverse mode through `cheb_layer_forward`: (dh, dweights, dbias).

    dW_k = c_k dA + e_k dB; P is symmetric, so dh = dz A^T + P dz B^T. dh is
    None when `want_dh` is False. y = max(z, 0) is positive exactly where z is,
    so `y > 0` is the ReLU derivative, 0 where y is NaN.
    """
    segments = cache["segments"]
    y = cache["y"]
    dz = dy * (y > 0.0).astype(y.dtype)
    dz_sum = segments.sum(dz)
    c, e = hop_coefficients(params.order, params.weights.dtype)
    da = cache["h"].T @ dz
    db = cache["mean"].T @ dz_sum
    dweights = c[:, None, None] * da + e[:, None, None] * db
    if not want_dh:
        return None, dweights, dz.sum(axis=0)
    dh = dz @ cache["a"].T + (segments.divide_by_sizes(dz_sum) @ cache["b"].T)[segments.ids]
    return dh, dweights, dz.sum(axis=0)


def spatial_encode_forward(
    x: np.ndarray,
    mask: np.ndarray,
    layers: list[ChebLayerParams],
) -> tuple[np.ndarray, dict]:
    """Chebyshev stack then max pool over each graph's real nodes, for one view.

    x: (B, T, n, f); mask: (B, T, n) bool. Output H: (B, T, d_out). Only real
    rows are computed; a frame with no real node pools to the zero vector.
    """
    segments = Segments.from_mask(mask)
    h = x[mask]
    caches = []
    for layer in layers:
        h, cache = cheb_layer_forward(h, segments, layer)
        caches.append(cache)
    maxima = np.maximum.reduceat(h, segments.starts, axis=0)
    pooled = np.zeros((segments.nonempty.size, h.shape[-1]), dtype=h.dtype)
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
    dx = np.zeros(mask.shape + (dy.shape[-1],), dtype=dy.dtype)
    dx[mask] = dy
    return dx, grads
