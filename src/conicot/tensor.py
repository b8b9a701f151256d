"""The 4D distortion cost tensor and its contractions.

Index convention, fixed once across the package: i in [n] indexes X samples,
j in [n'] indexes X features, k in [m] indexes Y samples, l in [m'] indexes
Y features. A, B are n x m; A', B' are n' x m'. The tensor entry is
T[i, j, k, l] = Omega(|omega_X[i, j] - omega_Y[k, l]| / 2 delta).

Two storage modes. Dense: one C-contiguous (n*m) x (n'*m') matrix with rows
(i, k) and columns (j, l), so each contraction is a single matrix-vector
product. Factored: a value-quantized form (bin-indicator matrices plus a
small Omega lookup table) whose contraction cost scales with matrix products
instead of the full 4-index sum.
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

from .cone import ConeKernel, omega_eval
from .core import DiscreteMeasureHypernetwork
from .errors import BudgetTooSmallForEitherPath, DimensionMismatch


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


@dataclasses.dataclass
class DistortionTensor:
    mode: TensorMode
    dims: tuple  # (n, n', m, m')
    matrix: np.ndarray | None = None  # (n*m) x (n'*m'), rows (i, k), columns (j, l)
    x_values: np.ndarray | None = None
    y_values: np.ndarray | None = None
    x_indicator: np.ndarray | None = None  # n x n' bin ids into x_values
    y_indicator: np.ndarray | None = None  # m x m' bin ids into y_values
    omega_table: np.ndarray | None = None  # |U| x |V|
    quantization_error: float = 0.0

    @property
    def dense(self) -> np.ndarray | None:
        """The dense matrix as a no-copy 4D (i, j, k, l) view; None when factored."""
        if self.matrix is None:
            return None
        n, np_, m, mp = self.dims
        return self.matrix.reshape(n, m, np_, mp).transpose(0, 2, 1, 3)

    def densify(self) -> np.ndarray:
        """The tensor as a 4D (i, j, k, l) array.

        Dense: a no-copy view of the matrix. Factored: the quantized table
        materialized.
        """
        if self.mode is TensorMode.Dense:
            return self.dense
        return self.omega_table[
            self.x_indicator[:, :, None, None], self.y_indicator[None, None, :, :]
        ]

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

    Returns (bin_centers, bin_ids shaped like values, half_width).
    """
    flat = values.ravel()
    distinct = np.unique(flat)
    if distinct.size <= q:
        centers = distinct
        ids = np.searchsorted(distinct, values)
        return centers, ids.astype(np.int64), 0.0
    lo, hi = float(flat.min()), float(flat.max())
    width = (hi - lo) / q
    ids = np.minimum(((values - lo) / width).astype(np.int64), q - 1)
    centers = lo + (np.arange(q) + 0.5) * width
    return centers, ids, width / 2.0


def build_tensor(
    hx: DiscreteMeasureHypernetwork,
    hy: DiscreteMeasureHypernetwork,
    kernel: ConeKernel,
    policy: TensorPolicy | None = None,
) -> DistortionTensor:
    """Build the distortion tensor, choosing dense or factored storage by budget."""
    policy = policy or TensorPolicy()
    n, np_ = hx.kernel.shape
    m, mp = hy.kernel.shape
    dims = (n, np_, m, mp)
    dense_bytes = 8 * n * np_ * m * mp
    if dense_bytes <= policy.max_dense_bytes:
        # built in (i, k, j, l) order; abs and scaling reuse the one gap buffer
        gaps = hx.kernel[:, None, :, None] - hy.kernel[None, :, None, :]
        np.abs(gaps, out=gaps)
        np.divide(gaps, 2.0 * kernel.delta, out=gaps)
        matrix = omega_eval(kernel, gaps).reshape(n * m, np_ * mp)
        return DistortionTensor(mode=TensorMode.Dense, dims=dims, matrix=matrix)
    indicator_bytes = 8 * (n * np_ + m * mp)
    if indicator_bytes > policy.max_dense_bytes:
        raise BudgetTooSmallForEitherPath(
            f"indicator matrices need {indicator_bytes} bytes"
        )
    q = max(1, policy.quantize_bins)
    xv, xid, wx = _quantize(hx.kernel, q)
    yv, yid, wy = _quantize(hy.kernel, q)
    table = omega_eval(kernel, np.abs(xv[:, None] - yv[None, :]) / (2.0 * kernel.delta))
    qerr = kernel.lipschitz * (wx + wy) / (2.0 * kernel.delta)
    return DistortionTensor(
        mode=TensorMode.Factored,
        dims=dims,
        x_values=xv,
        y_values=yv,
        x_indicator=xid,
        y_indicator=yid,
        omega_table=np.asarray(table),
        quantization_error=float(qerr),
    )


def contract(tensor: DistortionTensor, side: Side, M: np.ndarray) -> np.ndarray:
    """Contract the tensor against M over the opposite index pair.

    SampleSide: M is n' x m', returns P (n x m) with P_ik = Sigma_jl T_ijkl M_jl.
    FeatureSide: M is n x m, returns Q (n' x m') with Q_jl = Sigma_ik T_ijkl M_ik.
    """
    n, np_, m, mp = tensor.dims
    M = np.asarray(M, dtype=np.float64)
    want = (np_, mp) if side is Side.SampleSide else (n, m)
    if M.shape != want:
        raise DimensionMismatch(f"expected {want}, got {M.shape}")

    if tensor.mode is TensorMode.Dense:
        if side is Side.SampleSide:
            return (tensor.matrix @ M.ravel()).reshape(n, m)
        return (M.ravel() @ tensor.matrix).reshape(np_, mp)

    # factored path: a single loop over the y-side bins; the x-side bin index
    # is folded into a per-bin lookup matrix W_v[i, j] = table[xi[i, j], v]
    table = tensor.omega_table
    xi, yi = tensor.x_indicator, tensor.y_indicator
    if side is Side.SampleSide:
        # P_ik = Sigma_v Sigma_j W_v[i, j] (M Yv^T)_jk
        out = np.zeros((n, m))
        for v in range(tensor.y_values.size):
            Yv = (yi == v).astype(np.float64)
            Z = M @ Yv.T  # n' x m
            out += table[:, v][xi] @ Z
        return out
    # Q_jl = Sigma_v Sigma_i W_v[i, j] (M Yv)_il
    out = np.zeros((np_, mp))
    for v in range(tensor.y_values.size):
        Yv = (yi == v).astype(np.float64)
        R = M @ Yv  # n x m'
        out += table[:, v][xi].T @ R
    return out
