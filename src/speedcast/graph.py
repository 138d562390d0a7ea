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
(..., n, f) batch into one flat ragged array, one segment per non-empty graph,
run the closed-form layers on it and max-pool each segment. The rows are stored
rank-major (`Segments`): block r holds the r-th real node of every graph that
has one, so each per-graph sum, mean, max and broadcast is a few contiguous
slice operations, one per rank, and padded slots cost nothing. The dense
per-graph Laplacian and Chebyshev recurrence this is checked against lives in
the test suite (`tests/oracles.py`).
"""
from __future__ import annotations

import functools
import math
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
    """Items grouped by graph, as one flat ragged batch in rank-major order.

    The items are a mask's real rows (`from_mask`) or an index array's
    positions, grouped by the index they hold (`from_groups`). Each graph with
    at least one item is a segment; segments are ordered by size, largest
    first (stable, so equal sizes keep graph order). Row block r holds the
    r-th item, in item order, of each segment with more than r items, in
    segment order, so it covers a prefix of the segments. A per-segment
    reduction is then one vectorised operation per block, at most the largest
    graph's size of them, on contiguous rows: the jagged-diagonal layout of
    sparse matrix-vector products (Saad, SIAM J. Sci. Stat. Comput. 10(6), 1989).
    """

    rows: np.ndarray  # (R,) each row's item: its index in mask.reshape(-1), or in `group`
    graphs: np.ndarray  # (S,) flat graph index of each segment
    sizes: np.ndarray  # (S,) items per segment, non-increasing, all >= 1
    blocks: tuple[tuple[int, int], ...]  # (start, stop) rows of rank 0, 1, ...; at least one
    n_graphs: int  # graphs, empty ones included

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "Segments":
        """The real rows of `mask`, one graph per index of its leading axes."""
        real = np.flatnonzero(mask.reshape(-1))  # C order: by graph, then node
        return cls._from_sorted(real, real // mask.shape[-1], math.prod(mask.shape[:-1]))

    @classmethod
    def from_groups(cls, group: np.ndarray, n_graphs: int) -> "Segments":
        """The positions of 1-d `group`, position i in graph `group[i]` of [0, n_graphs)."""
        # numpy's stable sort is a radix sort on 16-bit or narrower integers,
        # several times faster on a batch's indices than on int64 ones.
        order = np.argsort(group.astype(np.min_scalar_type(n_graphs)), kind="stable")
        return cls._from_sorted(order, group[order], n_graphs)

    @classmethod
    def _from_sorted(cls, items: np.ndarray, graph: np.ndarray, n_graphs: int) -> "Segments":
        """Segments of `items`, whose graphs `graph` are non-decreasing, item order kept within a graph."""
        counts = np.bincount(graph, minlength=n_graphs)
        graphs = np.argsort(-counts, kind="stable")
        sizes = counts[graphs]
        n_segments = np.count_nonzero(sizes)
        graphs, sizes = graphs[:n_segments], sizes[:n_segments]
        # per_rank[r]: segments with more than r rows (sizes are >= 1)
        per_rank = np.cumsum(np.bincount(sizes, minlength=2)[:0:-1])[::-1]
        bounds = np.zeros(per_rank.size + 1, dtype=np.intp)
        np.cumsum(per_rank, out=bounds[1:])
        rank = np.arange(items.size) - (np.cumsum(counts) - counts)[graph]  # within its graph
        segment = np.empty(n_graphs, dtype=np.intp)
        segment[graphs] = np.arange(n_segments)
        rows = np.empty_like(items)
        rows[bounds[rank] + segment[graph]] = items
        blocks = tuple(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
        return cls(rows, graphs, sizes, blocks, n_graphs)

    def sum(self, h: np.ndarray) -> np.ndarray:
        """Per-segment sums, (S, f), added as block 0 + (block 1 + block 2 + ...)."""
        total = h[slice(*self.blocks[0])].copy()
        if len(self.blocks) > 1:
            tail = h[slice(*self.blocks[1])].copy()
            for lo, hi in self.blocks[2:]:
                tail[: hi - lo] += h[lo:hi]
            total[: len(tail)] += tail
        return total

    def max(self, h: np.ndarray) -> np.ndarray:
        """Per-segment maxima, (S, f); NaN propagates as in `np.maximum`."""
        top = h[slice(*self.blocks[0])].copy()
        for lo, hi in self.blocks[1:]:
            np.maximum(top[: hi - lo], h[lo:hi], out=top[: hi - lo])
        return top

    def broadcast_add(self, h: np.ndarray, per_segment: np.ndarray) -> np.ndarray:
        """Add each segment's row of `per_segment` to every row of that segment in `h`, in place."""
        for lo, hi in self.blocks:
            h[lo:hi] += per_segment[: hi - lo]
        return h

    def scatter(self, per_segment: np.ndarray) -> np.ndarray:
        """(n_graphs, f): each segment's row of `per_segment` at its graph, zeros for empty graphs."""
        out = np.zeros((self.n_graphs, per_segment.shape[-1]), dtype=per_segment.dtype)
        out[self.graphs] = per_segment
        return out

    def mean(self, h: np.ndarray) -> np.ndarray:
        return self.divide_by_sizes(self.sum(h))

    def divide_by_sizes(self, totals: np.ndarray) -> np.ndarray:
        """Divide each segment's row of `totals` by its size, in place, keeping the dtype."""
        # The same bits as dividing by the int64 sizes, whose float64 quotient
        # rounds once more for float32, without the mixed-type loop.
        totals /= self.sizes[:, None].astype(totals.dtype)
        return totals


@functools.lru_cache(maxsize=32)
def hop_coefficients(order: int, dtype: np.dtype = np.float64) -> np.ndarray:
    """Read-only (2, order + 1) table (c, e), built once per key.

    T_k(L_tilde) = c_k I + e_k P on the real rows of a complete graph. There
    L_tilde = -P, and P (the per-graph mean) is a projection, so T_k acts as
    T_k(0) = cos(k pi / 2) off the mean direction and T_k(-1) = (-1)^k on it.
    """
    k = np.arange(order + 1)
    c = np.array([1.0, 0.0, -1.0, 0.0], dtype=dtype)[k % 4]
    table = np.stack([c, np.where(k % 2 == 0, 1.0, -1.0).astype(dtype) - c])
    table.setflags(write=False)
    return table


def cheb_layer_forward(
    h: np.ndarray, segments: Segments, params: ChebLayerParams
) -> tuple[np.ndarray, dict]:
    """One Chebyshev layer on flat real rows: relu(h A + mean(h) B + b).

    h: (R, in_dim) rows grouped by `segments`. A = sum_k c_k W_k and
    B = sum_k e_k W_k (see `hop_coefficients`); K = 0 gives B = 0.
    """
    if h.shape[-1] != params.in_dim:
        raise ShapeError(f"features width {h.shape[-1]} != layer in_dim {params.in_dim}")
    w = params.weights
    a, b = (hop_coefficients(params.order, w.dtype) @ w.reshape(w.shape[0], -1)).reshape((2,) + w.shape[1:])
    mean = segments.mean(h)
    y = segments.broadcast_add(h @ a, mean @ b)
    y += params.bias
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
    dab = np.stack([cache["h"].T @ dz, cache["mean"].T @ dz_sum])
    w = params.weights
    dweights = (hop_coefficients(params.order, w.dtype).T @ dab.reshape(2, -1)).reshape(w.shape)
    if not want_dh:
        return None, dweights, dz.sum(axis=0)
    dh = segments.broadcast_add(dz @ cache["a"].T, segments.divide_by_sizes(dz_sum) @ cache["b"].T)
    return dh, dweights, dz.sum(axis=0)


def _select(values: np.ndarray, keep: np.ndarray, out: np.ndarray) -> None:
    """out = values where `keep`, else +0.0, bit for bit (inf and NaN included).

    `values` and `out` share a dtype. An AND with an all-ones or all-zeros
    word per element: `np.where` and `np.copyto(where=)` run several times
    slower on the scattered masks of max-pool routing.
    """
    word = np.dtype(f"i{out.dtype.itemsize}")
    np.bitwise_and(values.view(word), -keep.astype(word), out=out.view(word))


def spatial_encode_forward(
    x: np.ndarray,
    mask: np.ndarray,
    layers: list[ChebLayerParams],
) -> tuple[np.ndarray, dict]:
    """Chebyshev stack then max pool over each graph's real nodes, for one view.

    x: (..., n, f); mask: (..., n) bool. Output H: (..., d_out). Only real
    rows are computed; a frame with no real node pools to the zero vector.
    """
    segments = Segments.from_mask(mask)
    h = x.reshape(-1, x.shape[-1])[segments.rows]
    caches = []
    for layer in layers:
        h, cache = cheb_layer_forward(h, segments, layer)
        caches.append(cache)
    maxima = segments.max(h)
    pooled = segments.scatter(maxima)
    cache = {"layers": caches, "segments": segments, "out": h, "maxima": maxima}
    return pooled.reshape(mask.shape[:-1] + (h.shape[-1],)), cache


def spatial_encode_backward(
    dpooled: np.ndarray, cache: dict, layers: list[ChebLayerParams]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Backward of spatial_encode_forward: [(dweights, dbias) per layer, same order as forward].

    Each pooled coordinate's gradient goes to the lowest real node achieving
    the max; a frame with no real node gets none. No gradient reaches the
    input boxes: training and the gradient check read parameter gradients only.
    """
    segments = cache["segments"]
    out, maxima = cache["out"], cache["maxima"]
    dmax = dpooled.reshape(-1, out.shape[-1])[segments.graphs].astype(out.dtype, copy=False)
    dy = np.empty_like(out)
    # A row takes a column's gradient where it is not below the max and no
    # lower rank took it first; ranks run in node order, so that is the lowest
    # such node. "Not below" is `out == max` for finite values and also marks
    # NaN, so a non-finite column still routes to a row and the caller sees
    # the fault.
    free = np.ones(maxima.shape, dtype=bool)
    for lo, hi in segments.blocks:
        below = out[lo:hi] < maxima[: hi - lo]
        _select(dmax[: hi - lo], free[: hi - lo] & ~below, out=dy[lo:hi])
        free[: hi - lo] &= below
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(layers)  # type: ignore[list-item]
    for i in range(len(layers) - 1, -1, -1):
        dy, dw, db = cheb_layer_backward(dy, cache["layers"][i], layers[i], want_dh=i > 0)
        grads[i] = (dw, db)
    return grads
