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
import itertools
import math
import time

import numpy as np

from .cone import ConeKernel, _ccot_d2
from .core import (DiscreteMeasureHypernetwork, DiscreteMeasureNetwork,
                   embed_network_as_hypernetwork)
from .errors import DimensionMismatch, NegativeArgument, NegativeSquaredDistance, check_count
from .tensor import (_BLOCK_ENTRIES, PD_CHECK_CAP, DistortionTensor, Side, TensorMode,
                     TensorPolicy, build_tensor, contract, kernel_pd_check)


@dataclasses.dataclass
class SemiCouplingQuadruple:
    """(A, B) couples the sample measures, (A', B') the feature measures."""

    A: np.ndarray
    B: np.ndarray
    Ap: np.ndarray
    Bp: np.ndarray

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
    extra_inits: list = dataclasses.field(default_factory=list)

    def __post_init__(self):
        check_count("restarts", self.restarts, 1)
        check_count("max_iters", self.max_iters, 0)
        check_count("seed", self.seed, 0)
        if not self.rel_tol >= 0:  # NaN fails too
            raise NegativeArgument(f"rel_tol = {self.rel_tol} is below 0")

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
    """Every solve's result. restarts holds one {"objective", "sweeps", "stop"}
    per start, in restart order; objective_trace is the best restart's."""

    value: float
    objective_trace: list
    wall_time: float
    config: dict
    best_restart: int
    restarts: list
    quantization_uncertainty: float | None = None
    frobenius_gap: float | None = None
    equality_certified: bool | None = None
    pd_min_eigenvalue: float | None = None

    @property
    def objective(self) -> float:
        return self.objective_trace[-1]

    @property
    def iterations(self) -> int:
        return len(self.objective_trace) - 1

    @property
    def converged(self) -> bool:
        return self.restarts[self.best_restart]["stop"] == "rel_tol"

    def to_json_dict(self) -> dict:
        d = {"distance": self.value, "objective": self.objective,
             "iterations": self.iterations, "converged": self.converged,
             "wall_time": self.wall_time, "config": self.config,
             "best_restart": self.best_restart, "restarts": self.restarts}
        for f in dataclasses.fields(self):  # the optional fields that are set
            if f.default is None and getattr(self, f.name) is not None:
                d[f.name] = getattr(self, f.name)
        return d


def _report(runs, best, value, config, t0, **fields) -> SolverReport:
    """The report of _ascend's runs, runs[best] the best, timed from t0."""
    return SolverReport(
        value=value, objective_trace=runs[best][1], wall_time=time.perf_counter() - t0,
        config=config, best_restart=best,
        restarts=[{"objective": trace[-1], "sweeps": len(trace) - 1, "stop": stop}
                  for _, trace, stop in runs],
        **fields)


def objective_F(quad: SemiCouplingQuadruple, tensor: DistortionTensor):
    """F = Sigma_ik sqrt(A_ik B_ik) P_ik with P the sample-side contraction, a
    float; for a stack of quadruples (blocks with a leading restart axis),
    one F per slice. sqrt(A B) is multiplied into P's own array."""
    n, np_, m, mp = tensor.dims
    if quad.A.shape[-2:] != (n, m) or quad.Ap.shape[-2:] != (np_, mp):
        raise DimensionMismatch(
            f"quad shapes {quad.A.shape}/{quad.Ap.shape} vs tensor dims {tensor.dims}"
        )
    P = contract(tensor, Side.SampleSide, _root_product(quad.Ap, quad.Bp))
    P *= _root_product(quad.A, quad.B)
    return _totals(P) if P.ndim == 3 else float(P.sum())


# squared distances this far below zero, relative to the mass term, are round-off
NEGATIVE_CLAMP = 1e-12


def ccot_distance_from_objective(F_star: float, masses, delta: float) -> float:
    """sqrt of the squared distance at objective F*; round-off below zero clamps to 0."""
    d2 = _ccot_d2(F_star, masses, delta)
    if d2 < -NEGATIVE_CLAMP * max(1.0, abs(_ccot_d2(0.0, masses, delta))):
        raise NegativeSquaredDistance(f"distance^2 = {d2}")
    return float(np.sqrt(max(d2, 0.0)))


def _product_pair(a, b):
    """Product initialization for one semi-coupling pair."""
    sa, sb = a.sum(), b.sum()
    ab = np.outer(a, b)
    A = ab / sb if sb > 0 else np.zeros((a.size, b.size))
    B = ab / sa if sa > 0 else np.zeros((a.size, b.size))
    return A, B


def _tight(W, target, axis, s=None):
    """Rescale W in place so its row (axis=1) or column (axis=0) sums equal
    target, and return it.

    A line whose sum vanishes stays zero. The lines are those of W's last two
    axes, so a stack of matrices is rescaled one slice at a time; s, W's
    line sums, may be passed by a caller that has them. This is the one
    closed-form step of the block ascent: every block update, projection
    and UOT step ends here, on a product it has just formed.
    """
    # np.add.reduce and np.zeros skip the Python wrappers of ndarray.sum and
    # np.zeros_like: this step runs thousands of times on tiny blocks
    if s is None:
        s = np.add.reduce(W, axis=axis - 2)
    r = np.divide(target, s, out=np.zeros(s.shape), where=s > 0)
    W *= r[..., None] if axis == 1 else r[..., None, :]
    return W


def _project_pair(A, B, live, row_target, col_target):
    """Zero a fresh semi-coupling pair off the mask live (none of it when
    live is True: every entry is live), then make it tight: rows of A to
    row_target, columns of B to col_target. A and B are overwritten and
    may carry a leading stack axis; returns them."""
    if live is not True:
        A *= live
        B *= live
    return _tight(A, row_target, 1), _tight(B, col_target, 0)


def project_to_gamma_bar(quad: SemiCouplingQuadruple, live, marginals) -> SemiCouplingQuadruple:
    """Zero entries off live, the (n x m, n' x m') masks of nonvanishing Omega
    slice sums (a mask True: every entry is live), then rescale marginal
    sums tight, in float64 copies: quad is left as it is.

    Surviving rows of A are rescaled to sum to a_i, columns of B to b_k, rows
    of A' to a'_j, columns of B' to b'_l. The objective never decreases: the
    zeroed entries contribute nothing and surviving scale factors are >= 1.
    """
    a, b, ap, bp = marginals
    A, B, Ap, Bp = (np.array(X, dtype=np.float64) for X in (quad.A, quad.B, quad.Ap, quad.Bp))
    return SemiCouplingQuadruple(*_project_pair(A, B, live[0], a, b),
                                 *_project_pair(Ap, Bp, live[1], ap, bp))


def update_block(A, B, K2, row_target, col_target):
    """One ascent step on a semi-coupling pair (A, B), the other pair fixed;
    the new pair overwrites A and B.

    With the other pair held fixed, F = Sigma_ik K_ik sqrt(A_ik B_ik) for K its
    contraction (P for the pair (A, B), Q for (A', B')), and K2 = K^2 is
    passed. A becomes the maximizer over A given B: B weighted by K2 and
    made tight to row_target; B then becomes the maximizer given that new
    A: A weighted by K2 and made tight to col_target. The old A is never
    read. Returns F, the new pair's objective, Sigma_l sqrt(col_target_l
    s_l) for s the column sums of A K2: B = A K2 col_target / s and K >= 0,
    so sqrt(A B) K = A K2 sqrt(col_target / s), and a zero column adds 0 to
    both. A, B and K2 may carry a leading stack axis; F then has one entry
    per slice.
    """
    _tight(np.multiply(B, K2, out=A), row_target, 1)
    s = np.add.reduce(np.multiply(A, K2, out=B), axis=-2)
    _tight(B, col_target, 0, s)
    return np.add.reduce(np.sqrt(col_target * s), axis=-1)


def _totals(X):
    """The sum of each slice of a stack."""
    return np.add.reduce(X.reshape(len(X), -1), axis=1)


def _ascend(state, F, sweep, max_iters, rel_tol, blocks=None):
    """Sweep a stack of restarts until each one stops.

    state holds arrays with a leading restart axis as attributes and F the
    restarts' objectives; sweep(state) steps the attributes to the next
    iterate and returns its objectives. A restart stops at "rel_tol" once a
    sweep changes its objective by at most rel_tol * max(1, |F|), else at
    "max_iters". A restart that stops while others go on has its slices of
    the attributes named in blocks (default: every one) copied out, and
    every attribute of the stack is compacted then. Returns one (state of
    those attributes, objective trace, stop) per restart, in stack order.

    The stop rule runs on Python floats: a stack holds a few restarts, and
    for so few numbers each numpy call costs more than its arithmetic.
    """
    F = F.tolist()
    traces = [[f] for f in F]
    out = [None] * len(traces)
    live = list(range(len(traces)))

    def leave(done, stop):
        nonlocal live
        rest = [not d for d in done]
        copy = any(rest)  # restarts that leave last keep views of the stack
        for pos in np.flatnonzero(done):
            own = {k: getattr(state, k)[pos] for k in blocks or vars(state)}
            own = {k: X.copy() for k, X in own.items()} if copy else own
            out[live[pos]] = (type(state)(**own), traces[live[pos]], stop)
        for k, X in vars(state).items():
            setattr(state, k, X[np.array(rest)])
        live = [k for k, keep in zip(live, rest) if keep]

    for _ in range(max_iters):
        F_new = sweep(state).tolist()
        for k, f in zip(live, F_new):
            traces[k].append(f)
        done = [abs(f - g) <= rel_tol * max(1.0, abs(g)) for f, g in zip(F_new, F)]
        if any(done):
            leave(done, "rel_tol")
            if not live:
                return out
        F = [f for f, d in zip(F_new, done) if not d]
    leave([True] * len(live), "max_iters")
    return out


def _inits(marginals, tensor, config):
    """Yield every restart's start, projected to Gamma-bar: the product one,
    config.restarts - 1 jittered ones, then config.extra_inits. A start is
    made when it is taken, one semi-coupling pair at a time. All zero when
    every slice sum vanishes: the ascent then stops at F = 0.

    The Omega-slice masks come from one tensor.slice_sums(), except for a
    factored tensor whose Omega table has no zero: Omega >= 0, so every
    entry of that tensor is positive and every slice is live. Its masks are
    then True, and no fresh start is multiplied by them.
    """
    a, b, ap, bp = marginals = tuple(np.asarray(v, dtype=np.float64) for v in marginals)
    if tensor.mode is TensorMode.Factored and tensor.omega_table.all():
        live = (True, True)
    else:
        live = tuple(sums != 0.0 for sums in tensor.slice_sums())
    rng = np.random.default_rng(config.seed)

    def pair(row, col, mask, jitter):
        A, B = _product_pair(row, col)
        if jitter:
            for M in (A, B):
                M *= 1.0 + rng.uniform(-0.1, 0.1, size=M.shape)
        return _project_pair(A, B, mask, row, col)

    for r in range(config.restarts):
        yield SemiCouplingQuadruple(*pair(a, b, live[0], r > 0), *pair(ap, bp, live[1], r > 0))
    for extra in config.extra_inits:
        yield project_to_gamma_bar(extra, live, marginals)


def _stack(starts):
    """The starts as one quadruple whose blocks carry a leading restart axis.

    A lone start is its own stack: a copy would hold a large start twice at
    the memory peak. Stacks of more starts are cache-sized.
    """
    blocks = {name: [getattr(q, name) for q in starts] for name in ("A", "B", "Ap", "Bp")}
    return SemiCouplingQuadruple(
        **{name: np.stack(b) if len(b) > 1 else b[0][None] for name, b in blocks.items()})


def _root_product(X, Y):
    """sqrt(X Y), formed in one new array."""
    R = np.multiply(X, Y)
    return np.sqrt(R, out=R)


def _run_stack(tensors, marginals, starts, size, config):
    """Cyclic sweeps of the next `size` starts as one stack.

    starts yields (kernel index into tensors, start) pairs in kernel order,
    each made as it is taken. A stack of one kernel contracts with its
    tensor; a stack of several with one dense matrix per start, compacted
    along with the starts. A sweep is two pair steps, on P^2 then Q^2, each
    updating its pair in place, and its objective is the second step's F,
    Sigma_l sqrt(b'_l s_l) for s the column sums of A' Q^2, so no separate
    objective pass runs. Returns one (kernel index, quadruple, objective
    trace, stop) per start, in order.
    """
    a, b, ap, bp = marginals
    kernels, taken = zip(*itertools.islice(starts, size))
    s = _stack(taken)
    del taken  # a stack of several starts is a copy of them
    tensor = tensors[kernels[0]]
    mixed = kernels[0] != kernels[-1]
    if mixed:
        s.matrix = np.stack([tensors[k].matrix for k in kernels])

    def tensor_of(s):
        return DistortionTensor(TensorMode.Dense, tensor.dims, s.matrix) if mixed else tensor

    F = objective_F(s, tensor_of(s))

    def sweep(s):
        T = tensor_of(s)
        update_block(s.A, s.B, _squared_contraction(T, Side.SampleSide, s.Ap, s.Bp), a, b)
        return update_block(s.Ap, s.Bp, _squared_contraction(T, Side.FeatureSide, s.A, s.B),
                            ap, bp)

    return [(k, *run) for k, run in zip(kernels, _ascend(
        s, F, sweep, config.max_iters, config.rel_tol, ("A", "B", "Ap", "Bp")))]


def _squared_contraction(tensor, side, X, Y):
    """contract(tensor, side, sqrt(X Y))^2, formed in the contraction's own
    array. A pair step's K^2 is an argument of that step alone, so it is
    dropped before the next contraction."""
    K = contract(tensor, side, _root_product(X, Y))
    return np.square(K, out=K)


def _solve_group(hx, hy, config, kernels):
    """bca_solve for config with each of kernels, as one ascent; each report
    echoes config with its own kernel.

    Each kernel's tensor is built here. Stacks hold as many starts as fit
    _BLOCK_ENTRIES entries per block, where a start in a stack of several
    kernels carries its own dense matrix as a block. Each report's wall_time
    runs from the start of this call.
    """
    t0 = time.perf_counter()
    tensors = [build_tensor(hx, hy, k, config.tensor_policy) for k in kernels]
    marginals = (hx.sample_weights, hy.sample_weights,
                 hx.feature_weights, hy.feature_weights)
    masses = (hx.sample_mass, hx.feature_mass, hy.sample_mass, hy.feature_mass)
    n, np_, m, mp = tensors[0].dims
    block = n * np_ * m * mp if len(kernels) > 1 else max(n * m, np_ * mp, 1)
    per_stack = max(1, _BLOCK_ENTRIES // block)
    per_kernel = config.restarts + len(config.extra_inits)

    def taken(k, tensor):
        """(k, start) for each of tensor's starts, as a map: it holds no
        start once it is taken, as a generator's loop variable would. The
        kernel's _inits is closed as its last start is taken, so its masks
        go then and not with the group."""
        inits = _inits(marginals, tensor, config)

        def take(i):
            start = next(inits)
            if i == per_kernel - 1:
                inits.close()
            return k, start
        return map(take, range(per_kernel))

    starts = itertools.chain.from_iterable(taken(k, t) for k, t in enumerate(tensors))

    # a restart's quadruple is kept only while it is its kernel's best
    runs = [[] for _ in kernels]
    best = [None] * len(kernels)
    for _ in range(0, len(kernels) * per_kernel, per_stack):
        for k, quad, trace, stop in _run_stack(tensors, marginals, starts, per_stack, config):
            runs[k].append((None, trace, stop))
            if best[k] is None or trace[-1] > best[k][2]:
                best[k] = (len(runs[k]) - 1, quad, trace[-1])
        del quad  # the last restart's, which the next stack must not hold too

    out = []
    for kernel, tensor, run, (idx, quad, F) in zip(kernels, tensors, runs, best):
        distance = ccot_distance_from_objective(F, masses, kernel.delta)
        err = tensor.quantization_error  # 0.0 but for a quantized tensor
        qunc = err and (err * float(np.sqrt(quad.A * quad.B).sum())
                        * float(np.sqrt(quad.Ap * quad.Bp).sum()))
        gap = None
        if quad.A.shape == quad.Ap.shape:
            gap = float(((quad.A - quad.Ap) ** 2).sum() + ((quad.B - quad.Bp) ** 2).sum())
        echo = dataclasses.replace(config, kernel=kernel).echo()
        out.append((distance, quad, _report(run, idx, distance, echo, t0,
                                            quantization_uncertainty=qunc,
                                            frobenius_gap=gap)))
    return out


def bca_solve(hx: DiscreteMeasureHypernetwork, hy: DiscreteMeasureHypernetwork,
              config: SolverConfig):
    """CCOT distance between two hypernetworks by multi-restart block ascent.

    The restarts sweep in stacks of as many as fit _BLOCK_ENTRIES entries
    per block, so small problems share each numpy call among their restarts
    and large ones run one restart at a time. The best restart is the first
    with the largest final objective. Inputs are checked as in
    bca_solve_kernels, whose one-kernel case this is.

    Returns (distance, best SemiCouplingQuadruple, SolverReport).
    """
    return bca_solve_kernels(hx, hy, config, [config.kernel])[0]


def bca_solve_kernels(hx: DiscreteMeasureHypernetwork, hy: DiscreteMeasureHypernetwork,
                      config: SolverConfig, kernels):
    """bca_solve(hx, hy, config with each kernel of kernels in turn).

    Kernels whose dense matrices together fit _BLOCK_ENTRIES entries sweep
    their restarts as one stack; every kernel keeps its own starts, traces
    and best restart. Otherwise the kernels are solved one after
    another and each tensor is built on its turn, so no two large tensors
    are alive at once. Returns one (distance, quadruple, report) per kernel.

    Each of config.extra_inits must have the pair's shapes (DimensionMismatch).
    """
    want = ((hx.n_samples, hy.n_samples),) * 2 + ((hx.n_features, hy.n_features),) * 2
    for extra in config.extra_inits:
        got = tuple(np.shape(getattr(extra, name)) for name in ("A", "B", "Ap", "Bp"))
        if got != want:
            raise DimensionMismatch(f"extra_inits quadruple shapes {got}, expected "
                                    f"A, B {want[0]} and A', B' {want[2]}")
    dims = hx.kernel.shape + hy.kernel.shape
    size = 1
    if config.tensor_policy.fits_dense(dims):
        size = max(1, _BLOCK_ENTRIES // max(1, math.prod(dims)))
    out = []
    for g in range(0, len(kernels), size):
        out += _solve_group(hx, hy, config, kernels[g:g + size])
    return out


def cgw_solve(
    nx: DiscreteMeasureNetwork, ny: DiscreteMeasureNetwork, config: SolverConfig
):
    """CGW distance estimate via the hypernetwork embedding.

    The returned value is always a valid CCOT value; it equals CGW when the
    final semi-coupling pairs coincide (small Frobenius gap) and the distortion
    kernel is positive definite, in which case equality_certified is set.
    The report's wall_time covers the whole call: embedding, ascent and PD check.
    """
    t0 = time.perf_counter()
    distance, quad, report = bca_solve(embed_network_as_hypernetwork(nx),
                                       embed_network_as_hypernetwork(ny), config)
    report.equality_certified = False
    if nx.n * ny.n <= PD_CHECK_CAP:
        report.pd_min_eigenvalue = kernel_pd_check(config.kernel, nx.kernel, ny.kernel)
        norm = float((quad.A**2).sum() + (quad.B**2).sum())
        report.equality_certified = bool(report.frobenius_gap < 1e-10 * max(norm, 1e-300)
                                         and report.pd_min_eigenvalue >= -1e-9)
    report.wall_time = time.perf_counter() - t0
    return distance, report
