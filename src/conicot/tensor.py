"""The 4D distortion cost tensor and its contractions.

Index convention, fixed once across the package: i in [n] indexes X samples,
j in [n'] indexes X features, k in [m] indexes Y samples, l in [m'] indexes
Y features. A, B are n x m; A', B' are n' x m'. The tensor entry is
T[i, j, k, l] = Omega(|omega_X[i, j] - omega_Y[k, l]| / 2 delta).

Two storage modes. Dense: one C-contiguous (n*m) x (n'*m') matrix with rows
(i, k) and columns (j, l), so each contraction is a single matrix-vector
product.

Factored: kernel values are binned (exactly when a kernel has at most
`quantize_bins` distinct values, as binary adjacency does; otherwise in
equal-width bins with a reported error bound), so T[i, j, k, l] =
t[xi_ij, yi_kl] for a small Omega table t. With a and b the most frequent
x- and y-side bins (the background), the table splits as

    t[u, v] = c0 + alpha[u] + beta[v] + gamma[u, v],    c0 = t[a, b],

where alpha, beta and gamma vanish on the background bins. A contraction is
then c0 times the sum of M, two matrix-vector products through
Dx = alpha[xi] and Dy = beta[yi] broadcast as rank-one terms, and one
batched product through XG[j, (c, i)] = gamma[xi_ij, v_c] and the one-hot
Ys[k, (l, c)] = [yi_kl = v_c] over the non-background y-bins v_c. Each of
Dx, Dy, XG and Ys is a scipy.sparse CSR array when it has at least 2^16
entries of which at most 1/16 are nonzero (kNN adjacency), and a plain
ndarray otherwise (small or many-bin kernels); the same products serve both.
XG and Ys are always built once and stored, over all non-background y-bins
(with zero columns when there are none); the bin ids xi and yi are dropped
after the build. `max_dense_bytes` decides only dense or factored.
scipy.sparse is imported by the first build that stores a CSR factor, so a
dense solve never loads it.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import os

import numpy as np

from .cone import ConeKernel, omega_eval, omega_of_gap
from .core import DiscreteMeasureHypernetwork
from .errors import CapExceeded, DimensionMismatch, check_count


class TensorMode(enum.Enum):
    Dense = "dense"
    Factored = "factored"


class Side(enum.Enum):
    SampleSide = "sample"
    FeatureSide = "feature"


@dataclasses.dataclass(frozen=True)
class TensorPolicy:
    max_dense_bytes: int = 1 << 27  # 128 MiB
    quantize_bins: int = 64

    def __post_init__(self):
        check_count("quantize_bins", self.quantize_bins, 1)

    def fits_dense(self, dims) -> bool:
        """Whether a tensor of these dims is stored dense."""
        return 8 * math.prod(dims) <= self.max_dense_bytes


@dataclasses.dataclass
class DistortionTensor:
    mode: TensorMode
    dims: tuple  # (n, n', m, m')
    # (n*m) x (n'*m'), rows (i, k), columns (j, l); or a stack of such matrices,
    # one per slice of the stack that contract takes
    matrix: np.ndarray | None = None
    x_values: np.ndarray | None = None
    y_values: np.ndarray | None = None
    omega_table: np.ndarray | None = None  # |U| x |V|
    quantization_error: float = 0.0
    background: tuple | None = None  # most frequent (x bin, y bin)
    offsets: tuple | None = None  # (Dx, Dy): alpha[xi] (n x n'), beta[yi] (m x m')
    factors: tuple | None = None  # (XG, Ys) over the non-background y-bins

    def slice_sums(self):
        """(Sigma_jl T_ijkl as n x m, Sigma_ik T_ijkl as n' x m')."""
        n, np_, m, mp = self.dims
        ones_feat = np.ones((np_, mp))
        ones_samp = np.ones((n, m))
        return (
            contract(self, Side.SampleSide, ones_feat),
            contract(self, Side.FeatureSide, ones_samp),
        )


def _quantize(values: np.ndarray, q: int):
    """Equal-width binning; exact bins when there are <= q distinct values.

    Returns (bin_centers, bin_ids shaped like values, each bin's count,
    half_width). The ids have the narrowest unsigned dtype that holds every
    bin's id, np.min_scalar_type(bin_centers.size - 1).
    """
    # a kernel of two values (binary adjacency) needs no sort: its ids are
    # values == max, as searchsorted over np.unique would give them
    lo, hi = values.min(), values.max()
    top = values == hi
    if q >= 2 and lo < hi and (top | (values == lo)).all():
        high = np.count_nonzero(top)
        return np.array([lo, hi]), top.view(np.uint8), np.array([top.size - high, high]), 0.0
    # np.unique(return_inverse=True) would give the same ids from one sort, but
    # it argsorts: over 10x slower than this on a 10^6-entry binary kernel
    distinct = np.unique(values)
    if distinct.size <= q:
        centers, half = distinct, 0.0
        ids = np.searchsorted(distinct, values).astype(np.min_scalar_type(distinct.size - 1))
    else:
        lo, hi = float(distinct[0]), float(distinct[-1])
        width = (hi - lo) / q
        # the clip comes before the cast, so no id overflows its dtype
        ids = np.minimum((values - lo) / width, q - 1).astype(np.min_scalar_type(q - 1))
        centers, half = lo + (np.arange(q) + 0.5) * width, width / 2.0
    return centers, ids, np.bincount(ids.ravel(), minlength=centers.size), half


# entries of a cache-sized working block (512 KiB): the gap buffer of a dense
# build block, and the solver's restart stack (entries of its larger block)
_BLOCK_ENTRIES = 1 << 16


def _omega_matrix(kernel: ConeKernel, wx: np.ndarray, wy: np.ndarray) -> np.ndarray:
    """Omega(|wx[i, j] - wy[k, l]| / 2 delta) as an (n*m) x (n'*m') matrix.

    The output is allocated once and filled in blocks of consecutive rows
    (i, k), each holding at most _BLOCK_ENTRIES entries (or one row, if a row
    is longer). A block's gap buffer takes abs and scaling in place, so every
    entry sees the same operations as one full-size buffer would, and
    omega_eval checks each block. The blocks are dealt round-robin to one
    thread per available CPU: the ufuncs release the GIL, so the threads
    share both the arithmetic and the first-touch page faults of the output.
    """
    n, np_ = wx.shape
    m, mp = wy.shape
    out = np.empty((n * m, np_ * mp))
    rows = max(1, _BLOCK_ENTRIES // max(np_ * mp, 1))
    starts = range(0, n * m, rows)
    scale = 2.0 * kernel.delta
    # os.sched_getaffinity is missing on macOS and Windows
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = max(1, min(len(starts), cpus))

    def fill(first: int) -> None:
        for r0 in starts[first::workers]:
            r = np.arange(r0, min(r0 + rows, n * m))
            gaps = wx[r // m, :, None] - wy[r % m, None, :]
            np.abs(gaps, out=gaps)
            np.divide(gaps, scale, out=gaps)
            out[r0:r0 + r.size] = omega_eval(kernel, gaps).reshape(r.size, np_ * mp)

    if workers == 1:
        fill(0)
    else:
        from concurrent.futures import ThreadPoolExecutor  # loads logging too
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, range(workers)))
    return out


# largest n*m whose kernel PD check (a dense nm x nm eigensolve) runs
PD_CHECK_CAP = 400


def kernel_pd_check(kernel: ConeKernel, omega_X, omega_Y) -> float:
    """Smallest eigenvalue of the (nm x nm) similarity matrix between kernel entries.

    K[(i,k),(i',k')] = Omega(|omega_X(i,i') - omega_Y(k,k')| / 2 delta) is the
    dense distortion tensor of the embedded networks; its symmetric part is
    eigensolved. Diagnostic only: callers treat >= -1e-9 as positive
    definite. Dense, so the instance size n*m is capped at PD_CHECK_CAP.
    """
    wx = np.asarray(omega_X, dtype=np.float64)
    wy = np.asarray(omega_Y, dtype=np.float64)
    n, m = wx.shape[0], wy.shape[0]
    if n * m > PD_CHECK_CAP:
        raise CapExceeded(f"n*m = {n * m} exceeds cap {PD_CHECK_CAP}")
    K = _omega_matrix(kernel, wx, wy)
    return float(np.linalg.eigvalsh(0.5 * (K + K.T))[0])


def build_tensor(
    hx: DiscreteMeasureHypernetwork,
    hy: DiscreteMeasureHypernetwork,
    kernel: ConeKernel,
    policy: TensorPolicy | None = None,
) -> DistortionTensor:
    """Build the distortion tensor: dense when it fits `max_dense_bytes`, else factored."""
    policy = policy or TensorPolicy()
    n, np_ = hx.kernel.shape
    m, mp = hy.kernel.shape
    dims = (n, np_, m, mp)
    if policy.fits_dense(dims):
        matrix = _omega_matrix(kernel, hx.kernel, hy.kernel)
        return DistortionTensor(mode=TensorMode.Dense, dims=dims, matrix=matrix)
    xv, xid, x_count, wx = _quantize(hx.kernel, policy.quantize_bins)
    yv, yid, y_count, wy = _quantize(hy.kernel, policy.quantize_bins)
    table = omega_of_gap(kernel, xv[:, None], yv[None, :])
    qerr = kernel.lipschitz * (wx + wy) / (2.0 * kernel.delta)

    a, b = int(x_count.argmax()), int(y_count.argmax())
    alpha, beta, gamma = _split_table(table, a, b)
    xs, ys = _off_background(xid, a), _off_background(yid, b)
    offsets = (_store((n, np_), *xs[:2], alpha[xs[2]]),
               _store((m, mp), *ys[:2], beta[ys[2]]))
    # the y-bins that occur and whose gamma column is nonzero somewhere
    bins = np.flatnonzero((y_count > 0) & gamma.any(axis=0))
    return DistortionTensor(
        mode=TensorMode.Factored,
        dims=dims,
        x_values=xv,
        y_values=yv,
        omega_table=table,
        quantization_error=float(qerr),
        background=(a, b),
        offsets=offsets,
        factors=_factors(dims, xs, ys, gamma, bins),
    )


def _split_table(table, a, b):
    """(alpha, beta, gamma) with table = c0 + alpha[u] + beta[v] + gamma[u, v].

    c0 = table[a, b]; alpha vanishes at u = a, beta at v = b, gamma on row a
    and column b.
    """
    c0 = table[a, b]
    alpha = table[:, b] - c0
    beta = table[a, :] - c0
    gamma = table - table[:, b:b + 1] - beta
    gamma[a, :] = 0.0
    gamma[:, b] = 0.0
    return alpha, beta, gamma


_SPARSE_MIN = 1 << 16  # entries below which a factor stays a plain ndarray


def _is_sparse(rows, cols, nnz):
    return rows * cols >= _SPARSE_MIN and 16 * nnz <= rows * cols


def _store(shape, rows, cols, values):
    """The matrix with these nonzeros: CSR when large and sparse, else dense."""
    keep = values != 0
    rows, cols, values = rows[keep], cols[keep], values[keep]
    if _is_sparse(*shape, values.size):
        from scipy import sparse
        return sparse.csr_array((values, (rows, cols)), shape=shape)
    out = np.zeros(shape)
    out[rows, cols] = values
    return out


def _off_background(ids, bg):
    """(rows, cols, bin ids) of the entries whose bin is not bg."""
    rows, cols = np.nonzero(ids != bg)
    return rows, cols, ids[rows, cols]


def _factors(dims, xs, ys, gamma, bins):
    """XG[j, (c, i)] = gamma[xi_ij, bins[c]] and Ys[k, (l, c)] = [yi_kl = bins[c]].

    xs and ys are the off-background entries of the two bin-id arrays. A
    dense XG is filled in place from its values, one row per off-background
    x entry, so the build holds no full-size index arrays.
    """
    n, np_, m, mp = dims
    C = bins.size
    i, j, u = xs
    g = gamma[:, bins]
    if _is_sparse(np_, C * n, np.count_nonzero(g, axis=1)[u].sum()):
        e, c = np.nonzero(g[u])
        XG = _store((np_, C * n), j[e], c * n + i[e], g[u[e], c])
    else:
        XG = np.zeros((np_, C, n))
        XG[j, :, i] = g[u]
        XG = XG.reshape(np_, C * n)
    pos = np.full(gamma.shape[1], -1)
    pos[bins] = np.arange(C)
    k, l, v = ys
    keep = pos[v] >= 0
    k, l, c = k[keep], l[keep], pos[v[keep]]
    Ys = _store((m, mp * C), k, l * C + c, np.ones(k.size))
    return XG, Ys


def contract(tensor: DistortionTensor, side: Side, M: np.ndarray) -> np.ndarray:
    """Contract the tensor against M over the opposite index pair.

    SampleSide: M is n' x m', returns P (n x m) with P_ik = Sigma_jl T_ijkl M_jl.
    FeatureSide: M is n x m, returns Q (n' x m') with Q_jl = Sigma_ik T_ijkl M_ik.
    M may carry a leading stack axis, and the result then carries it too.
    Dense, a stack is one matrix product; factored, each slice is contracted
    on its own. A dense matrix with a leading axis contracts each slice of M
    with its own matrix, as one batched product.
    """
    n, np_, m, mp = tensor.dims
    M = np.asarray(M, dtype=np.float64)
    want, shape = ((np_, mp), (n, m)) if side is Side.SampleSide else ((n, m), (np_, mp))
    if M.shape[-2:] != want or M.ndim not in (2, 3):
        raise DimensionMismatch(f"expected {want} or a stack of it, got {M.shape}")
    flat = M.reshape(-1, want[0] * want[1])  # one row per slice

    if tensor.mode is TensorMode.Factored:
        out = [_contract_factored(tensor, side, v.reshape(want)) for v in flat]
        out = out[0] if len(out) == 1 else np.stack(out)
    elif tensor.matrix.ndim == 3:
        if len(flat) != len(tensor.matrix):
            raise DimensionMismatch(f"{len(tensor.matrix)} matrices for {len(flat)} slices")
        mats = tensor.matrix.transpose(0, 2, 1) if side is Side.SampleSide else tensor.matrix
        out = (flat[:, None] @ mats)[:, 0]
    else:
        out = flat @ (tensor.matrix.T if side is Side.SampleSide else tensor.matrix)
    return out.reshape(M.shape[:-2] + shape)


def _contract_factored(tensor: DistortionTensor, side: Side, M: np.ndarray) -> np.ndarray:
    """contract of one matrix M in factored mode.

    One batched product through the stored factors, then two rank-one terms
    and the background constant. Both sides are accumulated transposed, so
    the factor layouts make every reshape free and the sparse Ys multiplies
    from the left. Zero-column factors (no non-background y-bin) give zeros.

    scipy.sparse copies a non-contiguous dense operand only after it has
    allocated the product, so the operand, its copy and the product are
    alive at once. Where the operand is an intermediate, it is copied here
    instead and dropped before the product: the sample side's (M^T XG),
    and the feature side's (Ys^T M^T) when XG is sparse. A dense XG takes
    that operand as it is: the copy would be a strided transpose.
    """
    n, np_, m, mp = tensor.dims
    a, b = tensor.background
    XG, Ys = tensor.factors
    Dx, Dy = tensor.offsets
    rows, cols = M.sum(axis=1), M.sum(axis=0)
    if side is Side.SampleSide:  # P^T = Ys (M^T XG), m x n
        out = Ys @ np.ascontiguousarray((M.T @ XG).reshape(-1, n))
        yterm, xterm = Dy @ cols, Dx @ rows
    elif isinstance(XG, np.ndarray):  # Q^T = (Ys^T M^T) XG^T, m' x n'
        out = (Ys.T @ M.T).reshape(mp, -1) @ XG.T
        yterm, xterm = Dy.T @ cols, Dx.T @ rows
    else:  # Q = XG (Ys^T M^T)^T, n' x m'
        out = (XG @ np.ascontiguousarray((Ys.T @ M.T).reshape(mp, -1).T)).T
        yterm, xterm = Dy.T @ cols, Dx.T @ rows
    out += yterm[:, None]
    out += xterm + tensor.omega_table[a, b] * rows.sum()
    return np.ascontiguousarray(out.T)
