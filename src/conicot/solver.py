"""Block coordinate ascent for conic co-optimal transport, and the conic GW
distance obtained by embedding networks as hypernetworks.

The solver maximizes

    F(A, B, A', B') = Sigma_ijkl T_ijkl sqrt(A_ik B_ik A'_jl B'_jl)

over pairs of discrete semi-couplings, cycling closed-form block updates
A -> B -> A' -> B'. The distance is recovered from the optimal objective via

    d^2 = 4 delta^2 (m_X m_X' + m_Y m_Y') - 8 delta^2 F*.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from .cone import ConeKernel, kernel_pd_check
from .core import DiscreteMeasureHypernetwork, DiscreteMeasureNetwork, embed_network_as_hypernetwork
from .errors import (
    AllMassForcedZero,
    DimensionMismatch,
    NegativeSquaredDistance,
    SizeCapExceeded,
)
from .tensor import DistortionTensor, Side, TensorPolicy, build_tensor, contract


@dataclasses.dataclass
class SemiCouplingQuadruple:
    """(A, B) couples the sample measures, (A', B') the feature measures."""

    A: np.ndarray
    B: np.ndarray
    Ap: np.ndarray
    Bp: np.ndarray

    def copy(self):
        return SemiCouplingQuadruple(
            self.A.copy(), self.B.copy(), self.Ap.copy(), self.Bp.copy()
        )

    def scaled(self, r: float):
        return SemiCouplingQuadruple(r * self.A, r * self.B, r * self.Ap, r * self.Bp)


@dataclasses.dataclass
class SolverConfig:
    kernel: ConeKernel
    max_iters: int = 1000
    rel_tol: float = 1e-9
    restarts: int = 4
    seed: int = 0
    tensor_policy: TensorPolicy = dataclasses.field(default_factory=TensorPolicy)
    negative_clamp: float = 1e-12
    extra_inits: list = dataclasses.field(default_factory=list)
    pd_check_cap: int = 400

    def echo(self) -> dict:
        return {
            "kernel": self.kernel.family.value,
            "delta": self.kernel.delta,
            "max_iters": self.max_iters,
            "rel_tol": self.rel_tol,
            "restarts": self.restarts,
            "seed": self.seed,
            "quantize_bins": self.tensor_policy.quantize_bins,
        }


@dataclasses.dataclass
class SolverReport:
    objective_trace: list
    distance: float
    iterations: int
    converged: bool
    quantization_uncertainty: float
    wall_time: float
    config: dict
    frobenius_gap_trace: list = dataclasses.field(default_factory=list)
    step_trace: list = dataclasses.field(default_factory=list)
    equality_certified: bool | None = None
    pd_min_eigenvalue: float | None = None
    best_restart: int = 0

    def to_json_dict(self) -> dict:
        d = {
            "distance": self.distance,
            "objective": self.objective_trace[-1] if self.objective_trace else 0.0,
            "iterations": self.iterations,
            "converged": self.converged,
            "quantization_uncertainty": self.quantization_uncertainty,
            "config": self.config,
        }
        if self.frobenius_gap_trace:
            d["frobenius_gap"] = self.frobenius_gap_trace[-1]
        if self.equality_certified is not None:
            d["equality_certified"] = self.equality_certified
        return d


def objective_F(quad: SemiCouplingQuadruple, tensor: DistortionTensor) -> float:
    """F = Sigma_ik sqrt(A_ik B_ik) P_ik with P the sample-side contraction."""
    n, np_, m, mp = tensor.dims
    if quad.A.shape != (n, m) or quad.Ap.shape != (np_, mp):
        raise DimensionMismatch(
            f"quad shapes {quad.A.shape}/{quad.Ap.shape} vs tensor dims {tensor.dims}"
        )
    Mp = np.sqrt(quad.Ap * quad.Bp)
    P = contract(tensor, Side.SampleSide, Mp)
    return float((np.sqrt(quad.A * quad.B) * P).sum())


def ccot_distance_from_objective(
    F_star: float, masses, delta: float, negative_clamp: float = 1e-12
) -> float:
    """sqrt of 4 delta^2 (m_X m_X' + m_Y m_Y') - 8 delta^2 F*."""
    m_x, m_xp, m_y, m_yp = masses
    d2 = 4.0 * delta**2 * (m_x * m_xp + m_y * m_yp) - 8.0 * delta**2 * F_star
    if d2 < 0:
        scale = max(1.0, abs(4.0 * delta**2 * (m_x * m_xp + m_y * m_yp)))
        if d2 < -negative_clamp * scale:
            raise NegativeSquaredDistance(f"distance^2 = {d2}")
        d2 = 0.0
    return float(np.sqrt(d2))


def _product_pair(a, b):
    """Product initialization for one semi-coupling pair."""
    sa, sb = a.sum(), b.sum()
    A = np.outer(a, b) / sb if sb > 0 else np.zeros((a.size, b.size))
    B = np.outer(a, b) / sa if sa > 0 else np.zeros((a.size, b.size))
    return A, B


def init_interior(marginals, tensor: DistortionTensor, config: SolverConfig,
                  jitter_rng=None) -> SemiCouplingQuadruple:
    """Product (or jittered product) initialization, projected to Gamma-bar."""
    a, b, ap, bp = (np.asarray(v, dtype=np.float64) for v in marginals)
    A, B = _product_pair(a, b)
    Ap, Bp = _product_pair(ap, bp)
    quad = SemiCouplingQuadruple(A, B, Ap, Bp)
    if jitter_rng is not None:
        for M in (quad.A, quad.B, quad.Ap, quad.Bp):
            M *= 1.0 + jitter_rng.uniform(-0.1, 0.1, size=M.shape)
    quad = project_to_gamma_bar(quad, tensor, (a, b, ap, bp))
    total = quad.A.sum() + quad.B.sum() + quad.Ap.sum() + quad.Bp.sum()
    mass = a.sum() + b.sum() + ap.sum() + bp.sum()
    if total == 0.0 and mass > 0.0:
        raise AllMassForcedZero("every Omega slice sum vanishes")
    return quad


def _tight(W, target, axis):
    """Rescale W so its row (axis=1) or column (axis=0) sums equal target.

    A line whose sum vanishes stays zero. This is the one closed-form step of
    the block ascent: every block update, projection and UOT step ends here.
    """
    s = W.sum(axis=axis)
    r = np.divide(target, s, out=np.zeros_like(s), where=s > 0)
    return W * (r[:, None] if axis == 1 else r)


def project_to_gamma_bar(
    quad: SemiCouplingQuadruple, tensor: DistortionTensor, marginals
) -> SemiCouplingQuadruple:
    """Zero entries on vanishing Omega slices, then rescale marginal sums tight.

    Surviving rows of A are rescaled to sum to a_i, columns of B to b_k, rows
    of A' to a'_j, columns of B' to b'_l. The objective never decreases: the
    zeroed entries contribute nothing and surviving scale factors are >= 1.
    """
    a, b, ap, bp = (np.asarray(v, dtype=np.float64) for v in marginals)
    samp_slice, feat_slice = tensor.slice_sums()
    live = samp_slice != 0.0
    livep = feat_slice != 0.0
    return SemiCouplingQuadruple(
        _tight(quad.A * live, a, 1), _tight(quad.B * live, b, 0),
        _tight(quad.Ap * livep, ap, 1), _tight(quad.Bp * livep, bp, 0),
    )


# block -> (complementary matrix, marginal index, tight axis)
_BLOCKS = {"A": ("B", 0, 1), "B": ("A", 1, 0),
           "Aprime": ("Bp", 2, 1), "Bprime": ("Ap", 3, 0)}


def update_block(block: str, quad: SemiCouplingQuadruple, tensor: DistortionTensor,
                 marginals, PQ=None) -> np.ndarray:
    """Closed-form maximizer of F over one block, the others held fixed.

    block in {"A", "B", "Aprime", "Bprime"}. The complementary matrix of the
    pair, weighted by P^2 (for A, B) or Q^2 (for Aprime, Bprime), is made
    tight to the block's marginal. PQ optionally supplies the freshly
    contracted P or Q.
    """
    partner, idx, axis = _BLOCKS[block]
    if PQ is None:
        if block in ("A", "B"):
            PQ = contract(tensor, Side.SampleSide, np.sqrt(quad.Ap * quad.Bp))
        else:
            PQ = contract(tensor, Side.FeatureSide, np.sqrt(quad.A * quad.B))
    target = np.asarray(marginals[idx], dtype=np.float64)
    return _tight(getattr(quad, partner) * PQ * PQ, target, axis)


def _run_single(tensor, marginals, quad, config):
    """Cyclic sweeps from a feasible initial quadruple. Returns best state."""
    trace = []
    frob = []
    step = []
    F_prev = objective_F(quad, tensor)
    trace.append(F_prev)
    converged = False
    it = 0
    for it in range(1, config.max_iters + 1):
        prev = quad.copy()
        P = contract(tensor, Side.SampleSide, np.sqrt(quad.Ap * quad.Bp))
        quad.A = update_block("A", quad, tensor, marginals, PQ=P)
        quad.B = update_block("B", quad, tensor, marginals, PQ=P)
        Q = contract(tensor, Side.FeatureSide, np.sqrt(quad.A * quad.B))
        quad.Ap = update_block("Aprime", quad, tensor, marginals, PQ=Q)
        quad.Bp = update_block("Bprime", quad, tensor, marginals, PQ=Q)
        F = float((np.sqrt(quad.Ap * quad.Bp) * Q).sum())
        trace.append(F)
        if quad.A.shape == quad.Ap.shape:
            frob.append(
                float(((quad.A - quad.Ap) ** 2).sum() + ((quad.B - quad.Bp) ** 2).sum())
            )
        step.append(
            float(((quad.A - prev.A) ** 2).sum() + ((quad.B - prev.B) ** 2).sum()
                  + ((quad.Ap - prev.Ap) ** 2).sum()
                  + ((quad.Bp - prev.Bp) ** 2).sum())
        )
        if abs(F - F_prev) <= config.rel_tol * max(1.0, abs(F_prev)):
            converged = True
            break
        F_prev = F
    return quad, trace, frob, step, converged, it


def bca_solve(
    hx: DiscreteMeasureHypernetwork,
    hy: DiscreteMeasureHypernetwork,
    config: SolverConfig,
    tensor: DistortionTensor | None = None,
):
    """CCOT distance between two hypernetworks by multi-restart block ascent.

    Returns (distance, best SemiCouplingQuadruple, SolverReport).
    """
    t0 = time.perf_counter()
    if tensor is None:
        tensor = build_tensor(hx, hy, config.kernel, config.tensor_policy)
    marginals = (hx.sample_weights, hy.sample_weights,
                 hx.feature_weights, hy.feature_weights)
    masses = (hx.sample_mass, hx.feature_mass, hy.sample_mass, hy.feature_mass)
    rng = np.random.default_rng(config.seed)

    inits = []
    try:
        inits.append(init_interior(marginals, tensor, config))
    except AllMassForcedZero:
        n, np_, m, mp = tensor.dims
        quad = SemiCouplingQuadruple(
            np.zeros((n, m)), np.zeros((n, m)), np.zeros((np_, mp)), np.zeros((np_, mp))
        )
        distance = ccot_distance_from_objective(0.0, masses, config.kernel.delta)
        report = SolverReport(
            objective_trace=[0.0], distance=distance, iterations=0, converged=True,
            quantization_uncertainty=0.0, wall_time=time.perf_counter() - t0,
            config=config.echo(),
        )
        return distance, quad, report
    for _ in range(max(0, config.restarts - 1)):
        inits.append(init_interior(marginals, tensor, config, jitter_rng=rng))
    for extra in config.extra_inits:
        inits.append(project_to_gamma_bar(extra.copy(), tensor, marginals))

    best = None
    for idx, quad in enumerate(inits):
        quad, trace, frob, step, converged, iters = _run_single(
            tensor, marginals, quad, config)
        F = trace[-1]
        if best is None or F > best[0]:
            best = (F, idx, quad, trace, frob, step, converged, iters)

    F_star, idx, quad, trace, frob, step, converged, iters = best
    distance = ccot_distance_from_objective(
        F_star, masses, config.kernel.delta, config.negative_clamp
    )
    M = np.sqrt(quad.A * quad.B)
    Mp = np.sqrt(quad.Ap * quad.Bp)
    qunc = tensor.quantization_error * float(M.sum()) * float(Mp.sum())
    report = SolverReport(
        objective_trace=trace,
        distance=distance,
        iterations=iters,
        converged=converged,
        quantization_uncertainty=qunc,
        wall_time=time.perf_counter() - t0,
        config=config.echo(),
        frobenius_gap_trace=frob,
        step_trace=step,
        best_restart=idx,
    )
    return distance, quad, report


def cgw_solve(
    nx: DiscreteMeasureNetwork, ny: DiscreteMeasureNetwork, config: SolverConfig
):
    """CGW distance estimate via the hypernetwork embedding.

    The returned value is always a valid CCOT value; it equals CGW when the
    final semi-coupling pairs coincide (small Frobenius gap) and the distortion
    kernel is positive definite, in which case equality_certified is set.
    """
    hx = embed_network_as_hypernetwork(nx)
    hy = embed_network_as_hypernetwork(ny)
    distance, quad, report = bca_solve(hx, hy, config)
    gap = report.frobenius_gap_trace[-1] if report.frobenius_gap_trace else 0.0
    norm = float((quad.A**2).sum() + (quad.B**2).sum())
    gap_ok = gap < 1e-10 * max(norm, 1e-300)
    pd_ok = None
    if nx.n * ny.n <= config.pd_check_cap:
        try:
            report.pd_min_eigenvalue = kernel_pd_check(
                config.kernel, nx.kernel, ny.kernel, cap=config.pd_check_cap
            )
            pd_ok = report.pd_min_eigenvalue >= -1e-9
        except SizeCapExceeded:
            pd_ok = None
    report.equality_certified = bool(gap_ok and (pd_ok is True))
    return distance, report
