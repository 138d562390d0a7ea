"""Graph operators: Laplacians, Chebyshev filtering, masked pooling."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speedcast.graph import (
    ChebLayerParams,
    Segments,
    cheb_layer_backward,
    cheb_layer_forward,
    hop_coefficients,
    spatial_encode_backward,
    spatial_encode_forward,
)

from conftest import central_difference_errors
from oracles import (
    GraphOperator,
    adjacency_from_mask,
    cheb_conv,
    cheb_conv_spectral,
    chebyshev_basis,
    dense_encode,
    masked_max_pool,
    normalized_laplacian,
)


def random_layer(rng, order, fin, fout):
    return ChebLayerParams(
        weights=rng.normal(size=(order + 1, fin, fout)),
        bias=rng.normal(size=fout),
    )


def pool_only(width):
    """A layer that passes a nonnegative input through exactly, so the encoder is just the pool."""
    return [ChebLayerParams(weights=np.eye(width)[None], bias=np.zeros(width))]


class TestAdjacency:
    def test_real_block_is_all_ones_with_isolated_padding(self):
        a = adjacency_from_mask(np.arange(4) < 2)
        assert np.all(a[:2, :2] == 1.0)
        assert np.all(a[2:, 2:] == np.eye(2))
        assert np.all(a[:2, 2:] == 0.0)

    def test_mask_form_matches(self):
        mask = np.array([True, False, True, False])
        expected = np.array(
            [[1, 0, 1, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]], dtype=float
        )
        np.testing.assert_array_equal(adjacency_from_mask(mask), expected)


class TestLaplacian:
    def test_normalized_laplacian_spectrum(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(size=(6, 6))
        a = ((a + a.T) > 0.9).astype(float) + np.eye(6)
        lam = np.linalg.eigvalsh(normalized_laplacian(a))
        assert lam.min() >= -1e-12 and lam.max() <= 2.0 + 1e-12

    def test_rescaled_spectrum_in_unit_interval(self):
        g = GraphOperator.from_adjacency(adjacency_from_mask(np.arange(5) < 3))
        lam = np.linalg.eigvalsh(g.l_tilde)
        assert lam.min() >= -1.0 - 1e-12 and lam.max() <= 1.0 + 1e-12


class TestChebyshevBasis:
    def test_first_terms(self):
        g = GraphOperator.from_adjacency(adjacency_from_mask(np.arange(4) < 3))
        basis = chebyshev_basis(g.l_tilde, 3)
        np.testing.assert_array_equal(basis[0], np.eye(4))
        np.testing.assert_array_equal(basis[1], g.l_tilde)
        np.testing.assert_allclose(
            basis[2], 2.0 * g.l_tilde @ g.l_tilde - np.eye(4), atol=1e-14
        )

    def test_matches_spectral_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            order = int(rng.integers(0, 6))
            a = rng.uniform(size=(n, n))
            a = ((a + a.T) > 1.0).astype(float) + np.eye(n)
            g = GraphOperator.from_adjacency(a)
            x = rng.normal(size=(n, 3))
            layer = random_layer(rng, order, 3, 2)
            dense = cheb_conv(x, g, layer, activation="identity")
            spectral = cheb_conv_spectral(x, g, layer, activation="identity")
            np.testing.assert_allclose(dense, spectral, atol=1e-10)


class TestFastPath:
    def test_operator_matches_dense_l_tilde(self):
        """On real rows, T_k(L_tilde) = c_k I + e_k P; padded rows never mix in."""
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(1, 8))
            mask = rng.uniform(size=n) < 0.6
            x = rng.normal(size=(n, 3))
            g = GraphOperator.from_adjacency(adjacency_from_mask(mask))
            order = 6
            c, e = hop_coefficients(order)
            real = x[mask]
            mean = real.mean(axis=0) if mask.any() else np.zeros(3)
            for k, t_k in enumerate(chebyshev_basis(g.l_tilde, order)):
                np.testing.assert_allclose(
                    (t_k @ x)[mask], c[k] * real + e[k] * mean, atol=1e-12
                )

    def test_segments_skip_empty_graphs(self):
        mask = np.array(
            [[True, False, True], [False, False, False], [False, True, False], [True, True, True]]
        )
        seg = Segments.from_mask(mask)
        np.testing.assert_array_equal(seg.graphs, [3, 0, 2])  # largest first, empty graph 1 left out
        np.testing.assert_array_equal(seg.sizes, [3, 2, 1])
        assert seg.blocks == ((0, 3), (3, 5), (5, 6))
        np.testing.assert_array_equal(seg.rows, [9, 0, 7, 10, 2, 11])  # rank 0, then 1, then 2
        assert seg.n_graphs == 4

    def test_segments_from_groups(self):
        # Graph 0 named three times, 1 never, 2 once, 3 twice, 4 three times; unsorted.
        group = np.array([3, 0, 4, 0, 2, 4, 3, 0, 4])
        seg = Segments.from_groups(group, 5)
        np.testing.assert_array_equal(seg.graphs, [0, 4, 3, 2])  # largest first, ties in graph order
        np.testing.assert_array_equal(seg.sizes, [3, 3, 2, 1])
        assert seg.blocks == ((0, 4), (4, 7), (7, 9))
        assert seg.n_graphs == 5
        for s, graph in enumerate(seg.graphs):
            # A segment's rows are its positions of `group`, in order, one per rank.
            rows = [seg.rows[lo + s] for lo, hi in seg.blocks if lo + s < hi]
            np.testing.assert_array_equal(rows, np.flatnonzero(group == graph))
        h = np.random.default_rng(5).normal(size=(len(group), 3))
        expected = np.zeros((5, 3))
        np.add.at(expected, group, h)
        summed = seg.scatter(seg.sum(h[seg.rows]))
        assert not summed[1].any()
        np.testing.assert_allclose(summed, expected, rtol=1e-12)

    def test_layer_matches_dense_reference(self):
        rng = np.random.default_rng(2)
        layer = random_layer(rng, 3, 4, 5)
        b, t, n = 2, 3, 6
        mask = rng.uniform(size=(b, t, n)) < 0.7
        x = rng.normal(size=(b, t, n, 4))
        x[~mask] = 0.0
        seg = Segments.from_mask(mask)
        y, _ = cheb_layer_forward(x.reshape(-1, 4)[seg.rows], seg, layer)
        ref = np.zeros((b, t, n, 5))
        for i in range(b):
            for j in range(t):
                g = GraphOperator.from_adjacency(adjacency_from_mask(mask[i, j]))
                ref[i, j] = cheb_conv(x[i, j], g, layer)
        np.testing.assert_allclose(y, ref.reshape(-1, 5)[seg.rows], atol=1e-12)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        layer = random_layer(rng, 2, 3, 2)
        mask = np.array([[True, True, False, True], [False, True, False, False]])
        segments = Segments.from_mask(mask)
        h = rng.normal(size=(int(mask.sum()), 3))
        dy = rng.normal(size=(len(h), 2))

        def objective():
            y, _ = cheb_layer_forward(h, segments, layer)
            return float((y * dy).sum())

        _, cache = cheb_layer_forward(h, segments, layer)
        dh, dw, db = cheb_layer_backward(dy, cache, layer)
        errors = central_difference_errors(objective, ((layer.weights, dw), (layer.bias, db), (h, dh)))
        assert max(errors) < 1e-6


class TestMaskedPooling:
    def test_max_over_real_rows_only(self):
        y = np.array([[1.0, 5.0], [9.0, 0.0], [2.0, 2.0]])
        mask = np.array([True, False, True])
        np.testing.assert_array_equal(masked_max_pool(y, mask), [2.0, 5.0])

    def test_all_padded_pools_to_zero(self):
        y = np.ones((3, 4))
        assert np.all(masked_max_pool(y, np.zeros(3, dtype=bool)) == 0.0)
        pooled, _ = spatial_encode_forward(y[None, None], np.zeros((1, 1, 3), dtype=bool), pool_only(4))
        assert np.all(pooled == 0.0)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(4)
        y = rng.uniform(size=(2, 3, 5, 4))
        mask = rng.uniform(size=(2, 3, 5)) < 0.6
        mask[0, 0] = False
        pooled, _ = spatial_encode_forward(y, mask, pool_only(4))
        for i in range(2):
            for j in range(3):
                np.testing.assert_array_equal(
                    pooled[i, j], masked_max_pool(y[i, j], mask[i, j])
                )

    def test_backward_routes_to_lowest_achieving_row(self):
        """Rows 0 and 1 tie in column 0 and differ in column 1, where dW = x^T dy shows which took it."""
        y = np.array([[[[3.0, 1.0], [3.0, 2.0], [1.0, 0.5]]]])
        mask = np.ones((1, 1, 3), dtype=bool)
        layers = pool_only(2)
        _, cache = spatial_encode_forward(y, mask, layers)
        [(dw, db)] = spatial_encode_backward(np.array([[[2.0, 0.0]]]), cache, layers)
        np.testing.assert_array_equal(dw[0], [[6.0, 0.0], [2.0, 0.0]])  # 2 * row 0, not 2 * row 1
        np.testing.assert_array_equal(db, [2.0, 0.0])

    def test_backward_zero_for_all_padded(self):
        y = np.ones((1, 1, 3, 2))
        mask = np.zeros((1, 1, 3), dtype=bool)
        layers = pool_only(2)
        _, cache = spatial_encode_forward(y, mask, layers)
        grads = spatial_encode_backward(np.ones((1, 1, 2)), cache, layers)
        assert all(np.all(dw == 0.0) and np.all(db == 0.0) for dw, db in grads)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("K", [1, 5])
    def test_backward_never_reads_frames_without_a_real_node(self, K, dtype):
        """NaN in the pooled gradient of a frame with no real node changes no bit of any gradient.

        The model's backward leaves whatever its clips' steps sum to in such rows.
        """
        rng = np.random.default_rng(K)
        mask = rng.uniform(size=(12, 5)) < 0.6
        mask[[0, 4, 5, 11]] = False
        empty = ~mask.any(axis=1)
        x = rng.normal(size=mask.shape + (4,)).astype(dtype)
        x[~mask] = 0.0
        layers = [
            ChebLayerParams(weights=layer.weights.astype(dtype), bias=layer.bias.astype(dtype))
            for layer in (random_layer(rng, K, 4, 6), random_layer(rng, K, 6, 8))
        ]
        dpooled = rng.normal(size=(12, 8)).astype(dtype)
        results = []
        for fill in (0.0, np.nan):
            dpooled[empty] = fill
            _, cache = spatial_encode_forward(x, mask, layers)
            results.append(spatial_encode_backward(dpooled, cache, layers))
        for (dw, db), (dw_nan, db_nan) in zip(*results):
            for grad, grad_nan in ((dw, dw_nan), (db, db_nan)):
                assert grad.dtype == dtype and np.isfinite(grad_nan).all()
                assert grad_nan.tobytes() == grad.tobytes()


@st.composite
def encoder_cases(draw):
    """A small view batch whose frames are empty, full or partly real, plus a layer stack."""
    seed = draw(st.integers(min_value=0, max_value=2**16))
    order = draw(st.integers(min_value=0, max_value=6))
    widths = [3] + draw(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=2))
    n = draw(st.integers(min_value=1, max_value=4))
    kinds = draw(st.lists(st.sampled_from(["empty", "full", "partial"]), min_size=1, max_size=4))
    rng = np.random.default_rng(seed)
    share = np.array([{"empty": 0.0, "partial": 0.5, "full": 1.0}[k] for k in kinds])
    mask = (rng.uniform(size=(len(kinds), n)) < share[:, None])[None]  # uniform draws are < 1
    x = rng.normal(size=mask.shape + (3,))
    x[~mask] = 0.0
    scale = 1.0 / np.sqrt(order + 1)
    layers = [
        ChebLayerParams(weights=rng.normal(scale=scale, size=(order + 1, a, b)), bias=rng.normal(size=b))
        for a, b in zip(widths[:-1], widths[1:])
    ]
    return x, mask, layers, rng.normal(size=mask.shape[:-1] + (widths[-1],))


@settings(max_examples=40, deadline=None)
@given(encoder_cases())
def test_ragged_encoder_matches_dense_oracle_and_finite_differences(case):
    x, mask, layers, dpooled = case
    pooled, cache = spatial_encode_forward(x, mask, layers)
    np.testing.assert_allclose(pooled, dense_encode(x, mask, layers), rtol=0, atol=1e-12)

    def objective():
        return float((spatial_encode_forward(x, mask, layers)[0] * dpooled).sum())

    grads = spatial_encode_backward(dpooled, cache, layers)
    pairs = [pair for layer, (dw, db) in zip(layers, grads) for pair in ((layer.weights, dw), (layer.bias, db))]
    assert max(central_difference_errors(objective, pairs)) < 1e-6


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=200))
def test_pooled_permutation_invariance(n_real, seed):
    """Shuffling real nodes leaves the encoded sequence unchanged."""
    rng = np.random.default_rng(seed)
    n = n_real + 2
    layers = [random_layer(rng, 2, 4, 3)]
    mask = np.zeros((1, 1, n), dtype=bool)
    mask[:, :, :n_real] = True
    x = np.zeros((1, 1, n, 4))
    x[0, 0, :n_real] = rng.normal(size=(n_real, 4))
    base, _ = spatial_encode_forward(x, mask, layers)
    perm = rng.permutation(n_real)
    xp = x.copy()
    xp[0, 0, :n_real] = x[0, 0, perm]
    permuted, _ = spatial_encode_forward(xp, mask, layers)
    np.testing.assert_allclose(base, permuted, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=200))
def test_pooled_padding_invariance(extra, seed):
    """Adding empty padded slots does not change the encoded sequence."""
    rng = np.random.default_rng(seed)
    n_real = 3
    layers = [random_layer(rng, 2, 4, 3)]
    x = rng.normal(size=(1, 2, n_real, 4))
    mask = np.ones((1, 2, n_real), dtype=bool)
    small, _ = spatial_encode_forward(x, mask, layers)
    xp = np.concatenate([x, np.zeros((1, 2, extra, 4))], axis=2)
    mp = np.concatenate([mask, np.zeros((1, 2, extra), dtype=bool)], axis=2)
    large, _ = spatial_encode_forward(xp, mp, layers)
    np.testing.assert_allclose(small, large, atol=1e-12)


@st.composite
def rank_major_masks(draw):
    """(1, F, n) masks, n <= 24: frames of unequal size, some empty, real nodes scattered over the row."""
    n = draw(st.integers(min_value=1, max_value=24))
    sizes = draw(st.lists(st.integers(min_value=0, max_value=n), min_size=2, max_size=8))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**16)))
    mask = np.zeros((1, len(sizes), n), dtype=bool)
    for frame, size in enumerate(sizes):
        mask[0, frame, rng.choice(n, size=size, replace=False)] = True
    return mask


@settings(max_examples=40, deadline=None)
@given(rank_major_masks(), st.integers(min_value=0, max_value=2**16))
def test_rank_major_encoder_matches_dense_oracle(mask, seed):
    """Graphs of up to 24 real nodes, so up to 24 rank blocks, each covering a prefix of the segments."""
    rng = np.random.default_rng(seed)
    order = int(rng.integers(0, 7))
    scale = 1.0 / np.sqrt(order + 1)
    layers = [
        ChebLayerParams(weights=rng.normal(scale=scale, size=(order + 1, a, b)), bias=rng.normal(size=b))
        for a, b in ((3, 4), (4, 2))
    ]
    x = rng.normal(size=mask.shape + (3,))
    x[~mask] = 0.0
    pooled, _ = spatial_encode_forward(x, mask, layers)
    np.testing.assert_allclose(pooled, dense_encode(x, mask, layers), rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(rank_major_masks(), st.integers(min_value=0, max_value=2**16))
def test_rank_major_pool_routes_to_lowest_tied_node(mask, seed):
    """Each pooled gradient reaches the lowest real node holding the max, ties at any rank included.

    The routing shows in dW = x^T dy of a pool-only layer: a tied node that
    differs in another column adds another row. All values are small
    multiples of 1/2, so every sum is exact in any order.
    """
    rng = np.random.default_rng(seed)
    width = 3
    x = rng.integers(1, 4, size=mask.shape + (width,)) / 2.0  # three positive levels: ties everywhere
    for idx in np.ndindex(*mask.shape[:-1]):
        nodes = np.flatnonzero(mask[idx])
        x[idx][nodes[1:3], 0] = 2.0  # the max of column 0 tied at ranks 1 and 2
        x[idx][nodes[2:3], 1] = x[idx][nodes[1:2], 1] + 0.5  # and the tied nodes differ in column 1
    x[~mask] = 0.0
    layers = pool_only(width)
    pooled, cache = spatial_encode_forward(x, mask, layers)
    np.testing.assert_array_equal(pooled, dense_encode(x, mask, layers))
    dpooled = rng.integers(1, 8, size=mask.shape[:-1] + (width,)).astype(float)
    [(dw, db)] = spatial_encode_backward(dpooled, cache, layers)
    routed = np.zeros_like(x)
    for idx in np.ndindex(*mask.shape[:-1]):
        nodes = np.flatnonzero(mask[idx])
        if nodes.size:
            first = nodes[np.argmax(x[idx][nodes], axis=0)]  # argmax takes the first of equal values
            routed[idx][first, np.arange(width)] = dpooled[idx]
    np.testing.assert_array_equal(dw[0], x.reshape(-1, width).T @ routed.reshape(-1, width))
    np.testing.assert_array_equal(db, routed.reshape(-1, width).sum(axis=0))
