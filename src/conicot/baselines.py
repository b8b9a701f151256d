"""Balanced transport baselines: exact OT, GW2 by conditional gradient, and
co-optimal transport by alternating exact OT.

GW-type solvers are upper-bound estimators (the objective is nonconvex);
cross-metric checks elsewhere budget a solver-gap slack and use restarts.
"""

from __future__ import annotations

import dataclasses
import functools
import time
import types

import numpy as np

from .core import DiscreteMeasureHypernetwork, DiscreteMeasureNetwork
from .errors import CapExceeded, MassMismatch, NegativeArgument, check_count
from .solver import _ascend, _report

OT_EXACT_CAP = 512  # largest side of an ot_exact linear program
# most variables in one stacked ot_exact linear program. Separate small LPs
# spend most of their time in scipy's per-call work, so a block-diagonal LP
# of a few small problems is faster than as many calls; past about 2^13
# variables in all, HiGHS takes longer on the one LP than on the separate ones
OT_STACK_VARS = 1 << 12


@functools.lru_cache(maxsize=32)
def _transport_constraints(n: int, m: int, height: int):
    """Row/column-sum equality constraints (one redundant row dropped), in
    the compressed-column form that HiGHS takes; for a stack of `height`
    problems, one such block per problem on the diagonal."""
    from scipy import sparse
    if height > 1:
        return sparse.block_diag([_transport_constraints(n, m, 1)] * height, format="csc")
    rows = sparse.kron(sparse.eye(n), np.ones((1, m)))
    cols = sparse.kron(np.ones((1, n)), sparse.eye(m))
    return sparse.vstack([rows, cols]).tocsr()[:-1].tocsc()


def _check_equal_mass(a, b):
    """Balanced transport needs equal totals, to 1e-9 relative."""
    if abs(a.sum() - b.sum()) > 1e-9 * max(1.0, a.sum()):
        raise MassMismatch(f"total masses {a.sum()} vs {b.sum()}")


def ot_exact(a, b, cost):
    """Exact optimal transport by linear programming: HiGHS through
    `scipy.optimize.milp`, with no integrality.

    The coupling is a basic solution, a vertex of the transport polytope
    with at most n + m - 1 positive entries, as a Frank-Wolfe step needs.
    milp passes the problem to HiGHS with less per-call work than linprog,
    which matters for the many tiny LPs of gw2_solve. Returns (coupling,
    optimal value). A cost with a leading stack axis is a stack of problems
    with the same marginals: the coupling and the values then carry
    that axis, and the problems are solved as block-diagonal LPs of at most
    OT_STACK_VARS variables (or one problem) each. Marginals must have
    equal total mass, and neither side may exceed OT_EXACT_CAP points.
    scipy.optimize and scipy.sparse are imported on the first call, not
    with conicot.
    """
    from scipy import optimize
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    cost = np.asarray(cost, dtype=np.float64)
    n, m = cost.shape[-2:]
    _check_equal_mass(a, b)
    if n > OT_EXACT_CAP or m > OT_EXACT_CAP:
        raise CapExceeded(f"sizes ({n},{m}) exceed cap {OT_EXACT_CAP}")
    flat = cost.reshape(-1, n * m)
    per_lp = max(1, OT_STACK_VARS // (n * m))
    b_eq = np.concatenate([a, b])[:-1]
    x = []
    for s in range(0, len(flat), per_lp):
        c = flat[s:s + per_lp]
        bounds = np.tile(b_eq, len(c))
        res = optimize.milp(c.ravel(), constraints=optimize.LinearConstraint(
            _transport_constraints(n, m, len(c)), bounds, bounds))
        if not res.success:
            raise MassMismatch(f"LP failed: {res.message}")
        x.append(res.x)
    pi = np.maximum(np.concatenate(x).reshape(cost.shape), 0.0)
    value = (pi * cost).sum(axis=(-2, -1))
    return pi, float(value) if cost.ndim == 2 else value


def _round_to_polytope(pi, a, b):
    """Altschuler-style rounding of an approximate coupling onto Pi(a, b)."""
    r = pi.sum(axis=1)
    scale = np.minimum(1.0, np.divide(a, r, out=np.ones_like(a), where=r > 0))
    pi = pi * scale[:, None]
    c = pi.sum(axis=0)
    scale = np.minimum(1.0, np.divide(b, c, out=np.ones_like(b), where=c > 0))
    pi = pi * scale[None, :]
    ea = a - pi.sum(axis=1)
    eb = b - pi.sum(axis=0)
    s = ea.sum()
    if s > 0:
        pi = pi + np.outer(ea, eb) / s
    return pi


def _gw_linear_term(wx, wy, pi):
    """L(pi)_ik = Sigma_{i'k'} |wx(i,i') - wy(k,k')|^2 pi_{i'k'}."""
    r = pi.sum(axis=1)
    c = pi.sum(axis=0)
    u = (wx * wx) @ r
    v = (wy * wy) @ c
    return u[:, None] + v[None, :] - 2.0 * (wx @ pi @ wy.T)


def _gw_objective(wx, wy, pi):
    return float((_gw_linear_term(wx, wy, pi) * pi).sum())


@dataclasses.dataclass
class BaselineConfig:
    max_iters: int = 200
    tol: float = 1e-10
    restarts: int = 4
    seed: int = 0

    def __post_init__(self):
        check_count("restarts", self.restarts, 1)
        check_count("max_iters", self.max_iters, 0)
        check_count("seed", self.seed, 0)
        if not self.tol >= 0:  # NaN fails too
            raise NegativeArgument(f"tol = {self.tol} is below 0")


def gw2_solve(nx: DiscreteMeasureNetwork, ny: DiscreteMeasureNetwork,
              config: BaselineConfig | None = None):
    """GW2 upper-bound estimate by Frank-Wolfe with exact line search.

    The GW objective is quadratic in the coupling, so a step's slope is the
    gradient against the step and its new objective follows in closed form.
    Returns (value, coupling, SolverReport) of the first restart with the
    smallest objective, the quadratic distortion; value, half its root,
    includes the 1/2 prefactor of the distance definition.
    """
    t0 = time.perf_counter()
    config = config or BaselineConfig()
    a, b = nx.weights, ny.weights
    _check_equal_mass(a, b)
    wx, wy = nx.kernel, ny.kernel
    rng = np.random.default_rng(config.seed)
    pis = [np.outer(a, b) / max(b.sum(), 1e-300)]
    for _ in range(config.restarts - 1):
        noise = rng.uniform(0.5, 1.5, size=(a.size, b.size))
        pis.append(_round_to_polytope(pis[0] * noise, a, b))

    s = types.SimpleNamespace(pi=np.stack(pis),
                              obj=np.array([_gw_objective(wx, wy, pi) for pi in pis]))

    def sweep(s):
        grads = [_gw_linear_term(wx, wy, pi) + _gw_linear_term(wx.T, wy.T, pi) for pi in s.pi]
        vertices = ot_exact(a, b, np.stack(grads))[0]
        pis, objs = [], []
        for pi, obj, grad, vertex in zip(s.pi, s.obj.tolist(), grads, vertices):
            delta = vertex - pi
            # the objective along pi + t delta is obj + t lin + t^2 quad exactly
            lin = float((grad * delta).sum())
            quad = _gw_objective(wx, wy, delta)
            if quad > 0:
                t = np.clip(-lin / (2.0 * quad), 0.0, 1.0)
            else:
                t = 1.0 if lin + quad < 0 else 0.0
            pis.append(pi + t * delta)
            # a step that rounds upward counts as no decrease, so it stops
            objs.append(min(obj, obj + t * lin + t * t * quad))
        s.pi, s.obj = np.stack(pis), np.array(objs)
        return s.obj

    runs = _ascend(s, s.obj, sweep, config.max_iters, config.tol)
    best = min(range(len(runs)), key=lambda i: runs[i][1][-1])  # the first best
    value = 0.5 * float(np.sqrt(max(runs[best][1][-1], 0.0)))
    return value, runs[best][0].pi, _report(runs, best, value, dataclasses.asdict(config), t0)


def cot_solve(hx: DiscreteMeasureHypernetwork, hy: DiscreteMeasureHypernetwork,
              config: BaselineConfig | None = None):
    """Co-optimal transport by alternating exact OT on the two couplings.

    Returns (value, sample coupling, feature coupling, SolverReport); value
    includes the 1/2 prefactor. The report has one restart, and its config
    echoes the fields the solve reads, max_iters and tol.
    """
    t0 = time.perf_counter()
    config = config or BaselineConfig()
    a, b = hx.sample_weights, hy.sample_weights
    ap, bp = hx.feature_weights, hy.feature_weights
    _check_equal_mass(a, b)
    _check_equal_mass(ap, bp)
    wx, wy = hx.kernel, hy.kernel
    pi_f = np.outer(ap, bp) / max(bp.sum(), 1e-300)
    pi_s = np.outer(a, b) / max(b.sum(), 1e-300)
    cost_s = _gw_linear_term(wx, wy, pi_f)  # the sample-side cost at pi_f
    s = types.SimpleNamespace(pi_s=pi_s[None], pi_f=pi_f[None], cost_s=cost_s[None],
                              obj=np.array([float((cost_s * pi_s).sum())]))

    def sweep(s):
        pi_s = ot_exact(a, b, s.cost_s[0])[0]
        pi_f = ot_exact(ap, bp, _gw_linear_term(wx.T, wy.T, pi_s))[0]
        cost_s = _gw_linear_term(wx, wy, pi_f)
        # an alternation that raises the objective counts as no decrease, so it stops
        obj = min(float(s.obj[0]), float((cost_s * pi_s).sum()))
        s.pi_s, s.pi_f, s.cost_s, s.obj = pi_s[None], pi_f[None], cost_s[None], np.array([obj])
        return s.obj

    runs = _ascend(s, s.obj, sweep, config.max_iters, config.tol)
    [(final, trace, _)] = runs
    value = 0.5 * float(np.sqrt(max(trace[-1], 0.0)))
    return value, final.pi_s, final.pi_f, _report(
        runs, 0, value, {"max_iters": config.max_iters, "tol": config.tol}, t0)
