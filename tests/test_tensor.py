import sys
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

import conicot.tensor
from conicot import (
    Side,
    TensorMode,
    TensorPolicy,
    build_tensor,
    contract,
    embed_network_as_hypernetwork,
    kernel_pd_check,
    make_kernel,
    omega_eval,
    omega_of_gap,
    validate_hypernetwork,
    validate_network,
)
from conicot.errors import DimensionMismatch, NegativeArgument, NonFinite
from conicot.tensor import _omega_matrix, _quantize, _split_table
from tests.conftest import random_hypernetwork, random_network, tensor_oracle


def _as_matrix(T):
    """A 4D (i, j, k, l) tensor in the dense layout: rows (i, k), columns (j, l)."""
    n, np_, m, mp = T.shape
    return T.transpose(0, 2, 1, 3).reshape(n * m, np_ * mp)


def test_dense_tensor_matches_loop(rng):
    hx = random_hypernetwork(rng, 3, 4)
    hy = random_hypernetwork(rng, 2, 5)
    k = make_kernel("exp", 0.5)
    t = build_tensor(hx, hy, k)
    assert t.mode is TensorMode.Dense
    ref = tensor_oracle(hx, hy, k)
    assert np.allclose(t.matrix, _as_matrix(ref))


@pytest.mark.parametrize("side", [Side.SampleSide, Side.FeatureSide])
def test_dense_contract_matches_einsum(rng, side):
    hx = random_hypernetwork(rng, 4, 3)
    hy = random_hypernetwork(rng, 5, 2)
    k = make_kernel("cos", 0.7)
    t = build_tensor(hx, hy, k)
    T = tensor_oracle(hx, hy, k)
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
    T = tensor_oracle(hx, hy, k)
    assert np.array_equal(t.matrix, _as_matrix(T))
    M = rng.uniform(size=(3, 2))
    assert np.allclose(contract(t, Side.SampleSide, M),
                       np.einsum("ijkl,jl->ik", T, M), atol=1e-12)
    M = rng.uniform(size=(4, 5))
    assert np.allclose(contract(t, Side.FeatureSide, M),
                       np.einsum("ijkl,ik->jl", T, M), atol=1e-12)


def _one_buffer_omega_matrix(kernel, wx, wy):
    """The dense build as one full-size gap buffer, for comparison."""
    gaps = wx[:, None, :, None] - wy[None, :, None, :]
    np.abs(gaps, out=gaps)
    np.divide(gaps, 2.0 * kernel.delta, out=gaps)
    return omega_eval(kernel, gaps).reshape(wx.shape[0] * wy.shape[0], -1)


# 37*29 rows of 11*13 entries make three row blocks, the last one partial
BLOCK_SHAPES = [((37, 11), (29, 13)), ((3, 4), (2, 5))]


@pytest.mark.parametrize("family", ["cos", "exp"])
@pytest.mark.parametrize("sx, sy", BLOCK_SHAPES)
def test_blocked_omega_matrix_equals_one_buffer(rng, family, sx, sy):
    wx, wy = rng.uniform(0, 3, size=sx), rng.uniform(0, 3, size=sy)
    k = make_kernel(family, 0.4)
    assert np.array_equal(_omega_matrix(k, wx, wy), _one_buffer_omega_matrix(k, wx, wy))


@pytest.mark.parametrize("family", ["cos", "exp"])
@pytest.mark.parametrize("block_entries", [conicot.tensor._BLOCK_ENTRIES, 1000])
def test_blocked_omega_matrix_more_workers_than_cores(rng, monkeypatch, family,
                                                      block_entries):
    # 8 workers on any host; 1000-entry blocks give 179 blocks to deal
    monkeypatch.setattr(conicot.tensor.os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setattr(conicot.tensor, "_BLOCK_ENTRIES", block_entries)
    wx, wy = rng.uniform(0, 3, size=(37, 11)), rng.uniform(0, 3, size=(29, 13))
    k = make_kernel(family, 0.4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _omega_matrix(k, wx, wy)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got, _one_buffer_omega_matrix(k, wx, wy))


@pytest.mark.parametrize("cpu_count", [None, 8])
def test_omega_matrix_without_sched_getaffinity(rng, monkeypatch, cpu_count):
    # macOS and Windows have no os.sched_getaffinity; os.cpu_count may say None
    monkeypatch.delattr(conicot.tensor.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(conicot.tensor.os, "cpu_count", lambda: cpu_count)
    monkeypatch.setattr(conicot.tensor, "_BLOCK_ENTRIES", 1000)
    wx, wy = rng.uniform(0, 3, size=(37, 11)), rng.uniform(0, 3, size=(29, 13))
    k = make_kernel("exp", 0.4)
    assert np.array_equal(_omega_matrix(k, wx, wy), _one_buffer_omega_matrix(k, wx, wy))


def test_blocked_omega_matrix_raises_from_a_worker(rng, monkeypatch):
    monkeypatch.setattr(conicot.tensor.os, "sched_getaffinity", lambda pid: set(range(8)))
    wx, wy = rng.uniform(0, 3, size=(37, 11)), rng.uniform(0, 3, size=(29, 13))
    wx[20, 5] = np.inf  # rows (20, k) lie in the second block
    with pytest.raises(NonFinite):
        _omega_matrix(make_kernel("exp", 0.4), wx, wy)


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
    assert np.allclose(tensor_oracle(hx, hy, k, bins=64), tensor_oracle(hx, hy, k),
                       atol=1e-14)


def test_factored_quantized_within_error_bound(rng):
    hx = random_hypernetwork(rng, 6, 6)
    hy = random_hypernetwork(rng, 6, 6)
    k = make_kernel("exp", 0.5)
    tf = build_tensor(hx, hy, k, TensorPolicy(max_dense_bytes=2048, quantize_bins=8))
    assert tf.quantization_error > 0.0
    # every entry of the quantized tensor is within the advertised bound
    gap = np.abs(tensor_oracle(hx, hy, k, bins=8) - tensor_oracle(hx, hy, k)).max()
    assert gap <= tf.quantization_error + 1e-12


@pytest.mark.parametrize("bins", [0, -3, float("nan"), 2.5])
def test_policy_rejects_fewer_than_one_bin(bins):
    with pytest.raises(NegativeArgument):
        TensorPolicy(quantize_bins=bins)


def _assert_quantize_matches_sort_and_search(K, q):
    # bin ids, centres and half-widths equal the unique/searchsorted and
    # min/max equal-width reference bit for bit; the counts are the ids'
    # bincount, and the ids have the narrowest unsigned dtype of their bins
    centers, ids, counts, half = _quantize(K, q)
    distinct = np.unique(K.ravel())
    if distinct.size <= q:
        assert np.array_equal(centers, distinct)
        assert np.array_equal(ids, np.searchsorted(distinct, K))
        assert half == 0.0
    else:
        lo, hi = float(K.min()), float(K.max())
        width = (hi - lo) / q
        assert np.array_equal(ids, np.minimum(((K - lo) / width).astype(np.int64), q - 1))
        assert np.array_equal(centers, lo + (np.arange(q) + 0.5) * width)
        assert half == width / 2.0
    assert ids.dtype == np.min_scalar_type(len(centers) - 1) and ids.shape == K.shape
    assert np.array_equal(counts, np.bincount(ids.ravel(), minlength=len(centers)))
    assert centers.dtype == np.float64


@pytest.mark.parametrize("kind", ["binary", "64 values", "continuous"])
def test_quantize_matches_sort_and_search(rng, kind):
    if kind == "binary":
        K = (rng.uniform(size=(300, 300)) < 0.01).astype(float)
    elif kind == "64 values":
        K = rng.choice(rng.normal(size=64), size=(40, 30))
    else:
        K = rng.normal(size=(40, 30))
    _assert_quantize_matches_sort_and_search(K, 64)


@pytest.mark.parametrize("q", [1, 2, 64])
@pytest.mark.parametrize("values", [(-0.7, 2.5), (0.0, 1.0), (0.3,)])
def test_quantize_of_at_most_two_values_matches_sort_and_search(rng, values, q):
    # two values take the path without a sort unless one bin must hold
    # both; a constant kernel takes the sort
    _assert_quantize_matches_sort_and_search(rng.choice(values, size=(40, 30)), q)


@pytest.mark.parametrize("kind, q, dtype", [
    ("binary", 64, np.uint8), ("binary", 1000, np.uint8),
    ("64 values", 64, np.uint8), ("300 values", 1000, np.uint16),
    ("continuous", 64, np.uint8), ("continuous", 300, np.uint16),
])
def test_quantize_ids_take_the_narrowest_dtype(rng, kind, q, dtype):
    # at most 256 bins take 1-byte ids, on each of the three paths; a binary
    # kernel's ids stay 1 byte however many bins the policy allows
    if kind == "binary":
        K = (rng.uniform(size=(300, 300)) < 0.01).astype(float)
    elif kind == "continuous":
        K = rng.normal(size=(40, 30))
    else:
        K = rng.choice(rng.normal(size=int(kind.split()[0])), size=(60, 50))
    _assert_quantize_matches_sort_and_search(K, q)
    assert _quantize(K, q)[1].dtype == dtype


def _sorted_quantize(values, q):
    """_quantize's exact bins by np.unique and searchsorted alone, with int64
    ids and their bincount."""
    distinct = np.unique(values)
    assert distinct.size <= q
    ids = np.searchsorted(distinct, values).astype(np.int64)
    return distinct, ids, np.bincount(ids.ravel(), minlength=distinct.size), 0.0


def test_binary_knn_factors_equal_those_of_sorted_bins(rng, monkeypatch):
    # a factored kNN tensor is the same, array for array, whether its bins
    # come from the two-value path or from the sort
    k = make_kernel("exp", 0.5)
    policy = TensorPolicy(max_dense_bytes=1 << 20)
    for n in (120, 150, 180):
        hx, hy = (embed_network_as_hypernetwork(
            validate_network(np.full(n, 1.0 / n), _knn_adjacency(rng, n, 4)))
            for _ in range(2))
        fast = build_tensor(hx, hy, k, policy)
        with monkeypatch.context() as mp:
            mp.setattr(conicot.tensor, "_quantize", _sorted_quantize)
            ref = build_tensor(hx, hy, k, policy)
        assert fast.background == ref.background
        for name in ("x_values", "y_values", "omega_table", "quantization_error"):
            assert np.array_equal(getattr(fast, name), getattr(ref, name))
        for got, want in zip(fast.offsets + fast.factors, ref.offsets + ref.factors):
            assert sparse.issparse(got) == sparse.issparse(want)
            if sparse.issparse(got):
                got, want = got.toarray(), want.toarray()
            assert np.array_equal(got, want)


def test_slice_sums(rng):
    hx = random_hypernetwork(rng, 3, 4)
    hy = random_hypernetwork(rng, 2, 5)
    k = make_kernel("cos", 0.9)
    samp, feat = build_tensor(hx, hy, k).slice_sums()
    T = tensor_oracle(hx, hy, k)
    assert np.allclose(samp, T.sum(axis=(1, 3)))
    assert np.allclose(feat, T.sum(axis=(0, 2)))


# ------------------------------------------ factored contraction, by case

def _hyper(rng, kernel):
    n, m = kernel.shape
    return validate_hypernetwork(rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, m), kernel)


def _knn_adjacency(rng, n, k):
    pts = rng.normal(size=(n, 2))
    d2 = ((pts[:, None] - pts[None]) ** 2).sum(-1)
    np.fill_diagonal(d2, np.inf)
    adj = np.zeros((n, n))
    adj[np.repeat(np.arange(n), k), np.argsort(d2, axis=1)[:, :k].ravel()] = 1.0
    return adj


def _assert_close(got, ref):
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def _assert_contracts_match_einsum(rng, t, T):
    """Both contractions equal einsum over the 4D oracle T."""
    n, np_, m, mp = t.dims
    M = rng.uniform(size=(np_, mp))
    _assert_close(contract(t, Side.SampleSide, M), np.einsum("ijkl,jl->ik", T, M))
    M = rng.uniform(size=(n, m))
    _assert_close(contract(t, Side.FeatureSide, M), np.einsum("ijkl,ik->jl", T, M))


@pytest.mark.parametrize("ones, background", [(0.3, (0, 0)), (0.8, (1, 1))])
def test_factored_binary_adjacency(rng, ones, background):
    # 2-bin 0/1 kernels; when they are mostly ones the background is not bin 0
    hx = _hyper(rng, (rng.uniform(size=(9, 7)) < ones).astype(float))
    hy = _hyper(rng, (rng.uniform(size=(6, 8)) < ones).astype(float))
    k = make_kernel("cos", 0.4)
    t = build_tensor(hx, hy, k, TensorPolicy(max_dense_bytes=4096))
    assert t.mode is TensorMode.Factored
    assert t.background == background
    # one non-background y-bin: Ys has m' columns
    XG, Ys = t.factors
    assert XG.shape == (7, 9) and Ys.shape == (6, 8)
    _assert_contracts_match_einsum(rng, t, tensor_oracle(hx, hy, k, bins=64))


def test_factored_rectangular_quantized(rng):
    # more than 64 distinct values on both sides: 64 equal-width bins each
    hx = random_hypernetwork(rng, 20, 10)
    hy = random_hypernetwork(rng, 15, 14)
    k = make_kernel("exp", 0.5)
    t = build_tensor(hx, hy, k, TensorPolicy(max_dense_bytes=300_000, quantize_bins=64))
    assert t.mode is TensorMode.Factored
    assert t.quantization_error > 0.0
    assert t.x_values.size == t.y_values.size == 64
    XG, Ys = t.factors  # one pair over the same C y-bins
    C = Ys.shape[1] // 14
    assert XG.shape == (10, C * 20) and Ys.shape == (15, 14 * C) and C > 1
    _assert_contracts_match_einsum(rng, t, tensor_oracle(hx, hy, k, bins=64))


def test_factored_single_bin_constant_kernel(rng):
    hx = _hyper(rng, np.full((5, 4), 0.3))
    hy = _hyper(rng, np.full((6, 3), 0.7))
    k = make_kernel("exp", 0.5)
    t = build_tensor(hx, hy, k, TensorPolicy(max_dense_bytes=1024))
    assert t.mode is TensorMode.Factored
    # no non-background bin: zero-column factors
    XG, Ys = t.factors
    assert XG.shape == (4, 0) and Ys.shape == (6, 0)
    _assert_contracts_match_einsum(rng, t, tensor_oracle(hx, hy, k, bins=64))


def test_factored_sparse_storage_matches_einsum(rng):
    # sparse x kernel against 63 non-background y-bins: XG and Ys are CSR
    hx = _hyper(rng, (rng.uniform(size=(40, 30)) < 0.04).astype(float))
    hy = random_hypernetwork(rng, 40, 30)
    k = make_kernel("exp", 0.5)
    t = build_tensor(hx, hy, k, TensorPolicy(max_dense_bytes=1 << 20))
    assert t.mode is TensorMode.Factored
    XG, Ys = t.factors
    assert sparse.issparse(XG) and sparse.issparse(Ys)
    _assert_contracts_match_einsum(rng, t, tensor_oracle(hx, hy, k, bins=64))


def test_factored_sparse_knn_matches_bin_pair_sum(rng):
    # a 300-node kNN pair: every factor is CSR; the 4D oracle would need 65 GB,
    # so the reference sums table[u, v] X_u M Y_v^T over the input's bin pairs
    kx, ky = _knn_adjacency(rng, 300, 4), _knn_adjacency(rng, 300, 4)
    k = make_kernel("exp", 0.5)
    t = build_tensor(_hyper(rng, kx), _hyper(rng, ky), k,
                     TensorPolicy(max_dense_bytes=16 * 300 * 300))
    assert t.mode is TensorMode.Factored
    assert all(sparse.issparse(f) for f in (*t.offsets, *t.factors))
    (xv, xid), (yv, yid) = _quantize(kx, 64)[:2], _quantize(ky, 64)[:2]
    X = [(xid == u).astype(float) for u in range(xv.size)]
    Y = [(yid == v).astype(float) for v in range(yv.size)]
    table = omega_of_gap(k, xv[:, None], yv[None, :])
    M = rng.uniform(size=(300, 300))
    ref = sum(table[u, v] * X[u] @ M @ Y[v].T for u in range(2) for v in range(2))
    _assert_close(contract(t, Side.SampleSide, M), ref)
    ref = sum(table[u, v] * X[u].T @ M @ Y[v] for u in range(2) for v in range(2))
    _assert_close(contract(t, Side.FeatureSide, M), ref)


def _held_arrays(value):
    """Every array in value, also inside its CSR arrays, tuples and lists."""
    if isinstance(value, np.ndarray):
        yield value
    elif sparse.issparse(value):
        yield from (value.data, value.indices, value.indptr)
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from _held_arrays(v)


def test_stored_factor_tensor_holds_no_bin_ids(rng):
    # a factored tensor holds its factors, the offsets and the O(q^2) bin
    # description; no array of n n' or m m' entries
    kx, ky = _knn_adjacency(rng, 300, 4), _knn_adjacency(rng, 300, 4)
    t = build_tensor(_hyper(rng, kx), _hyper(rng, ky), make_kernel("exp", 0.5),
                     TensorPolicy(max_dense_bytes=16 * 300 * 300))
    assert t.mode is TensorMode.Factored
    sizes = [a.size for v in vars(t).values() for a in _held_arrays(v)]
    assert sizes and max(sizes) < 300 * 300


def test_factored_stores_factors_over_budget(rng):
    hx = random_hypernetwork(rng, 6, 5)
    hy = random_hypernetwork(rng, 7, 4)
    k = make_kernel("cos", 0.6)
    # 30 x-bins and 28 y-bins; each y-bin's XG and Ys take 464 bytes, so the
    # factors exceed the budget, and are stored all the same
    t = build_tensor(hx, hy, k, TensorPolicy(max_dense_bytes=2048))
    assert t.mode is TensorMode.Factored
    XG, Ys = t.factors
    assert XG.nbytes + Ys.nbytes > 2048
    assert XG.shape == (5, 6 * 27) and Ys.shape == (7, 4 * 27)
    _assert_contracts_match_einsum(rng, t, tensor_oracle(hx, hy, k, bins=64))
    # exact bins: the factored tensor is the dense one
    dense = build_tensor(hx, hy, k)
    M = rng.uniform(size=(6, 7))
    _assert_close(contract(t, Side.FeatureSide, M), contract(dense, Side.FeatureSide, M))


def test_factored_build_peak_is_bounded_by_stored_factors():
    # continuous 200-node kernels in 64 equal-width bins: XG is dense, and
    # filling it in place keeps the build within 2.5x of what it stores
    rng = np.random.default_rng(0)
    hx, hy = (embed_network_as_hypernetwork(random_network(rng, 200)) for _ in range(2))
    k = make_kernel("exp", 0.5)
    policy = TensorPolicy(max_dense_bytes=8 * 200**3)
    tracemalloc.start()
    try:
        t = build_tensor(hx, hy, k, policy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.mode is TensorMode.Factored
    XG, Ys = t.factors
    assert isinstance(XG, np.ndarray) and sparse.issparse(Ys)
    stored = XG.nbytes + Ys.data.nbytes + Ys.indices.nbytes + Ys.indptr.nbytes
    assert peak <= 2.5 * stored
    # the factors by their definition, over the y-bins that occur with a
    # nonzero gamma column
    (xv, xid), (yv, yid) = _quantize(hx.kernel, 64)[:2], _quantize(hy.kernel, 64)[:2]
    gamma = _split_table(omega_of_gap(k, xv[:, None], yv[None, :]), *t.background)[2]
    bins = np.flatnonzero(np.isin(np.arange(yv.size), yid) & gamma.any(axis=0))
    C = bins.size
    assert np.array_equal(XG, gamma[:, bins][xid].transpose(1, 2, 0).reshape(200, C * 200))
    assert np.array_equal(Ys.toarray(), (yid[:, :, None] == bins).reshape(200, 200 * C))


@pytest.mark.parametrize("name", ["cos", "exp"])
@pytest.mark.parametrize("n, m", [(5, 5), (4, 7)])
def test_kernel_pd_check_is_solver_tensor_spectrum(rng, name, n, m):
    # the PD matrix is the dense distortion tensor of the embedded networks
    nx, ny = random_network(rng, n), random_network(rng, m)
    k = make_kernel(name, 0.4)
    T = build_tensor(embed_network_as_hypernetwork(nx),
                     embed_network_as_hypernetwork(ny), k).matrix
    expected = float(np.linalg.eigvalsh(0.5 * (T + T.T))[0])
    assert kernel_pd_check(k, nx.kernel, ny.kernel) == expected


def _stack_case(rng, case):
    """A tensor of each contraction path: dense, or factored with ndarray
    factors or CSR factors."""
    if case == "dense":
        return build_tensor(random_hypernetwork(rng, 4, 3), random_hypernetwork(rng, 5, 2),
                            make_kernel("exp", 0.5))
    if case == "ndarray":
        t = build_tensor(random_hypernetwork(rng, 20, 10), random_hypernetwork(rng, 15, 14),
                         make_kernel("exp", 0.5), TensorPolicy(max_dense_bytes=300_000))
        assert not any(sparse.issparse(f) for f in t.factors)
        return t
    hx = _hyper(rng, (rng.uniform(size=(40, 30)) < 0.04).astype(float))
    t = build_tensor(hx, random_hypernetwork(rng, 40, 30), make_kernel("exp", 0.5),
                     TensorPolicy(max_dense_bytes=1 << 20))
    assert all(sparse.issparse(f) for f in t.factors)
    return t


@pytest.mark.parametrize("case", ["dense", "ndarray", "csr"])
@pytest.mark.parametrize("side", [Side.SampleSide, Side.FeatureSide])
def test_contract_stack_equals_per_slice_calls(rng, case, side):
    t = _stack_case(rng, case)
    n, np_, m, mp = t.dims
    shape = (np_, mp) if side is Side.SampleSide else (n, m)
    M = rng.uniform(size=(3,) + shape)
    got = contract(t, side, M)
    for s in range(3):
        ref = contract(t, side, M[s])
        assert got[s].shape == ref.shape
        assert np.abs(got[s] - ref).max() <= 1e-13 * np.abs(ref).max()
    # a stack of one is the 2-D call itself
    assert np.array_equal(contract(t, side, M[:1])[0], contract(t, side, M[0]))
    with pytest.raises(DimensionMismatch):
        contract(t, side, M[None])


@pytest.mark.parametrize("side", [Side.SampleSide, Side.FeatureSide])
def test_contract_with_one_matrix_per_slice(rng, side):
    # a dense matrix with a leading axis contracts each slice of M with its own
    hx, hy = random_hypernetwork(rng, 4, 3), random_hypernetwork(rng, 5, 2)
    tensors = [build_tensor(hx, hy, make_kernel("exp", d)) for d in (0.5, 2.0, 8.0)]
    stacked = conicot.tensor.DistortionTensor(
        TensorMode.Dense, tensors[0].dims, np.stack([t.matrix for t in tensors]))
    n, np_, m, mp = stacked.dims
    M = rng.uniform(size=(3,) + ((np_, mp) if side is Side.SampleSide else (n, m)))
    got = contract(stacked, side, M)
    for s, t in enumerate(tensors):
        ref = contract(t, side, M[s])
        assert np.abs(got[s] - ref).max() <= 1e-13 * np.abs(ref).max()
    with pytest.raises(DimensionMismatch):
        contract(stacked, side, M[:2])
