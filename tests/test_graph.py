"""Graph operators: Laplacians, Chebyshev filtering, masked pooling."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speedcast.errors import DegenerateGraphError, InvalidConfigError, ShapeError
from speedcast.graph import (
    ChebLayerParams,
    GraphOperator,
    Segments,
    adjacency_from_mask,
    build_adjacency,
    cheb_conv,
    cheb_conv_spectral,
    cheb_layer_backward,
    cheb_layer_forward,
    chebyshev_basis,
    hop_coefficients,
    masked_max_pool,
    normalized_laplacian,
    spatial_encode_backward,
    spatial_encode_forward,
)

from conftest import central_difference_errors


def random_layer(rng, order, fin, fout):
    return ChebLayerParams(
        weights=rng.normal(size=(order + 1, fin, fout)),
        bias=rng.normal(size=fout),
    )


def pool_only(width):
    """A layer that passes its input through exactly, so the encoder is just the pool."""
    return [ChebLayerParams(weights=np.eye(width)[None], bias=np.zeros(width))]


def dense_encode(x, mask, layers, activation):
    """Per-graph oracle: dense cheb_conv stack, then masked_max_pool."""
    out = np.zeros(mask.shape[:-1] + (layers[-1].out_dim,))
    for idx in np.ndindex(*mask.shape[:-1]):
        g = GraphOperator.from_adjacency(adjacency_from_mask(mask[idx]))
        h = x[idx]
        for layer in layers:
            h = cheb_conv(h, g, layer, activation)
        out[idx] = masked_max_pool(h, mask[idx])
    return out


class TestAdjacency:
    def test_real_block_is_all_ones_with_isolated_padding(self):
        a = build_adjacency(2, 4)
        assert np.all(a[:2, :2] == 1.0)
        assert np.all(a[2:, 2:] == np.eye(2))
        assert np.all(a[:2, 2:] == 0.0)

    def test_mask_form_matches(self):
        mask = np.array([True, False, True, False])
        expected = np.array(
            [[1, 0, 1, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]], dtype=float
        )
        np.testing.assert_array_equal(adjacency_from_mask(mask), expected)

    def test_bounds_checked(self):
        with pytest.raises(InvalidConfigError):
            build_adjacency(5, 4)
        with pytest.raises(InvalidConfigError):
            build_adjacency(1, 0)


class TestLaplacian:
    def test_normalized_laplacian_spectrum(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(size=(6, 6))
        a = ((a + a.T) > 0.9).astype(float) + np.eye(6)
        lam = np.linalg.eigvalsh(normalized_laplacian(a))
        assert lam.min() >= -1e-12 and lam.max() <= 2.0 + 1e-12

    def test_rescaled_spectrum_in_unit_interval(self):
        g = GraphOperator.for_padded_complete(3, 5)
        lam = np.linalg.eigvalsh(g.l_tilde)
        assert lam.min() >= -1.0 - 1e-12 and lam.max() <= 1.0 + 1e-12

    def test_zero_degree_rejected(self):
        with pytest.raises(DegenerateGraphError):
            normalized_laplacian(np.zeros((3, 3)))

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            normalized_laplacian(np.zeros((2, 3)))


class TestChebyshevBasis:
    def test_first_terms(self):
        g = GraphOperator.for_padded_complete(3, 4)
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
        mask = np.array([[True, False, True], [False, False, False], [False, True, False]])
        seg = Segments.from_mask(mask)
        np.testing.assert_array_equal(seg.starts, [0, 2])
        np.testing.assert_array_equal(seg.sizes, [2, 1])
        np.testing.assert_array_equal(seg.ids, [0, 0, 1])
        np.testing.assert_array_equal(seg.nonempty, [True, False, True])

    def test_layer_matches_dense_reference(self):
        rng = np.random.default_rng(2)
        layer = random_layer(rng, 3, 4, 5)
        b, t, n = 2, 3, 6
        mask = rng.uniform(size=(b, t, n)) < 0.7
        x = rng.normal(size=(b, t, n, 4))
        x[~mask] = 0.0
        y, _ = cheb_layer_forward(x[mask], Segments.from_mask(mask), layer)
        ref = np.zeros((b, t, n, 5))
        for i in range(b):
            for j in range(t):
                g = GraphOperator.from_adjacency(adjacency_from_mask(mask[i, j]))
                ref[i, j] = cheb_conv(x[i, j], g, layer)
        np.testing.assert_allclose(y, ref[mask], atol=1e-12)

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
        y = rng.normal(size=(2, 3, 5, 4))
        mask = rng.uniform(size=(2, 3, 5)) < 0.6
        mask[0, 0] = False
        pooled, _ = spatial_encode_forward(y, mask, pool_only(4), "identity")
        for i in range(2):
            for j in range(3):
                np.testing.assert_array_equal(
                    pooled[i, j], masked_max_pool(y[i, j], mask[i, j])
                )

    def test_backward_routes_to_lowest_achieving_row(self):
        y = np.array([[[[3.0], [3.0], [1.0]]]])
        mask = np.ones((1, 1, 3), dtype=bool)
        layers = pool_only(1)
        _, cache = spatial_encode_forward(y, mask, layers, "identity")
        dy, _ = spatial_encode_backward(np.array([[[2.0]]]), cache, layers)
        np.testing.assert_array_equal(dy[0, 0, :, 0], [2.0, 0.0, 0.0])

    def test_backward_zero_for_all_padded(self):
        y = np.ones((1, 1, 3, 2))
        mask = np.zeros((1, 1, 3), dtype=bool)
        layers = pool_only(2)
        _, cache = spatial_encode_forward(y, mask, layers)
        dy, grads = spatial_encode_backward(np.ones((1, 1, 2)), cache, layers)
        assert np.all(dy == 0.0)
        assert all(np.all(dw == 0.0) and np.all(db == 0.0) for dw, db in grads)


@st.composite
def encoder_cases(draw):
    """A small view batch whose frames are empty, full or partly real, plus a layer stack."""
    seed = draw(st.integers(min_value=0, max_value=2**16))
    order = draw(st.integers(min_value=0, max_value=6))
    widths = [3] + draw(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=2))
    activation = draw(st.sampled_from(["relu", "identity"]))
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
    return x, mask, layers, activation, rng.normal(size=mask.shape[:-1] + (widths[-1],))


@settings(max_examples=40, deadline=None)
@given(encoder_cases())
def test_ragged_encoder_matches_dense_oracle_and_finite_differences(case):
    x, mask, layers, activation, dpooled = case
    pooled, cache = spatial_encode_forward(x, mask, layers, activation)
    np.testing.assert_allclose(pooled, dense_encode(x, mask, layers, activation), rtol=0, atol=1e-12)

    def objective():
        return float((spatial_encode_forward(x, mask, layers, activation)[0] * dpooled).sum())

    dx, grads = spatial_encode_backward(dpooled, cache, layers)
    assert np.all(dx[~mask] == 0.0)
    no_dx, same_grads = spatial_encode_backward(dpooled, cache, layers, want_input_grad=False)
    assert no_dx is None
    for (dw, db), (dw2, db2) in zip(grads, same_grads):
        np.testing.assert_array_equal(dw, dw2)
        np.testing.assert_array_equal(db, db2)
    pairs = [pair for layer, (dw, db) in zip(layers, grads) for pair in ((layer.weights, dw), (layer.bias, db))]
    assert max(central_difference_errors(objective, pairs + [(x, dx)])) < 1e-6


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
