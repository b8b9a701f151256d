import numpy as np
import pytest

from conicot import (
    Side,
    TensorMode,
    TensorPolicy,
    build_tensor,
    contract,
    make_kernel,
)
from conicot.errors import BudgetTooSmallForEitherPath, DimensionMismatch
from tests.conftest import random_hypernetwork


def _dense_reference(hx, hy, kernel):
    gaps = np.abs(hx.kernel[:, :, None, None] - hy.kernel[None, None, :, :])
    from conicot import omega_eval

    return np.asarray(omega_eval(kernel, gaps / (2 * kernel.delta)))


def test_dense_tensor_matches_loop(rng):
    hx = random_hypernetwork(rng, 3, 4)
    hy = random_hypernetwork(rng, 2, 5)
    k = make_kernel("exp", 0.5)
    t = build_tensor(hx, hy, k)
    assert t.mode is TensorMode.Dense
    ref = _dense_reference(hx, hy, k)
    assert np.allclose(t.dense, ref)


@pytest.mark.parametrize("side", [Side.SampleSide, Side.FeatureSide])
def test_dense_contract_matches_einsum(rng, side):
    hx = random_hypernetwork(rng, 4, 3)
    hy = random_hypernetwork(rng, 5, 2)
    k = make_kernel("cos", 0.7)
    t = build_tensor(hx, hy, k)
    T = _dense_reference(hx, hy, k)
    if side is Side.SampleSide:
        M = rng.uniform(size=(3, 2))
        ref = np.einsum("ijkl,jl->ik", T, M)
    else:
        M = rng.uniform(size=(4, 5))
        ref = np.einsum("ijkl,ik->jl", T, M)
    assert np.allclose(contract(t, side, M), ref, atol=1e-12)


@pytest.mark.parametrize("family", ["cos", "exp"])
def test_dense_matrix_layout_rectangular(rng, family):
    hx = random_hypernetwork(rng, 4, 3)
    hy = random_hypernetwork(rng, 5, 2)
    k = make_kernel(family, 0.7)
    t = build_tensor(hx, hy, k)
    assert t.matrix.flags.c_contiguous
    assert t.matrix.shape == (4 * 5, 3 * 2)
    assert np.shares_memory(t.dense, t.matrix)
    T = _dense_reference(hx, hy, k)
    assert np.array_equal(t.dense, T)
    M = rng.uniform(size=(3, 2))
    assert np.allclose(contract(t, Side.SampleSide, M),
                       np.einsum("ijkl,jl->ik", T, M), atol=1e-12)
    M = rng.uniform(size=(4, 5))
    assert np.allclose(contract(t, Side.FeatureSide, M),
                       np.einsum("ijkl,ik->jl", T, M), atol=1e-12)


def test_contract_shape_check(rng):
    hx = random_hypernetwork(rng, 4, 3)
    hy = random_hypernetwork(rng, 5, 2)
    t = build_tensor(hx, hy, make_kernel("exp", 0.5))
    with pytest.raises(DimensionMismatch):
        contract(t, Side.SampleSide, np.zeros((4, 5)))


def test_factored_selected_when_over_budget(rng):
    hx = random_hypernetwork(rng, 6, 6)
    hy = random_hypernetwork(rng, 6, 6)
    policy = TensorPolicy(max_dense_bytes=1024, quantize_bins=64)
    t = build_tensor(hx, hy, make_kernel("exp", 0.5), policy)
    assert t.mode is TensorMode.Factored


def test_factored_exact_for_few_distinct_values(rng):
    # binary kernels quantize exactly: zero quantization error, identical results
    a = (rng.uniform(size=(7, 7)) < 0.4).astype(float)
    b = (rng.uniform(size=(6, 6)) < 0.4).astype(float)
    hx = random_hypernetwork(rng, 7, 7)
    hy = random_hypernetwork(rng, 6, 6)
    hx = type(hx)(hx.sample_weights, hx.feature_weights, a)
    hy = type(hy)(hy.sample_weights, hy.feature_weights, b)
    k = make_kernel("exp", 0.5)
    tf = build_tensor(hx, hy, k, TensorPolicy(max_dense_bytes=2048))
    td = build_tensor(hx, hy, k)
    assert tf.mode is TensorMode.Factored
    assert tf.quantization_error == 0.0
    for side, shape in ((Side.SampleSide, (7, 6)), (Side.FeatureSide, (7, 6))):
        W = rng.uniform(size=shape)
        assert np.allclose(contract(tf, side, W), contract(td, side, W),
                           atol=1e-12)
    assert np.allclose(tf.densify(), td.densify(), atol=1e-14)


def test_factored_quantized_within_error_bound(rng):
    hx = random_hypernetwork(rng, 6, 6)
    hy = random_hypernetwork(rng, 6, 6)
    k = make_kernel("exp", 0.5)
    tf = build_tensor(hx, hy, k, TensorPolicy(max_dense_bytes=2048, quantize_bins=8))
    td = build_tensor(hx, hy, k)
    assert tf.quantization_error > 0.0
    # every entry of the quantized tensor is within the advertised bound
    gap = np.abs(tf.densify() - td.densify()).max()
    assert gap <= tf.quantization_error + 1e-12


def test_budget_too_small(rng):
    hx = random_hypernetwork(rng, 8, 8)
    hy = random_hypernetwork(rng, 8, 8)
    with pytest.raises(BudgetTooSmallForEitherPath):
        build_tensor(hx, hy, make_kernel("exp", 0.5),
                     TensorPolicy(max_dense_bytes=8))


def test_slice_sums(rng):
    hx = random_hypernetwork(rng, 3, 4)
    hy = random_hypernetwork(rng, 2, 5)
    t = build_tensor(hx, hy, make_kernel("cos", 0.9))
    samp, feat = t.slice_sums()
    T = t.densify()
    assert np.allclose(samp, T.sum(axis=(1, 3)))
    assert np.allclose(feat, T.sum(axis=(0, 2)))
