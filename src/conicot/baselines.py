"""Balanced transport baselines: exact OT, entropic OT, GW2 by conditional
gradient, and co-optimal transport by alternating exact OT.

GW-type solvers are upper-bound estimators (the objective is nonconvex);
cross-metric checks elsewhere budget a solver-gap slack and use restarts.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
from scipy import optimize, sparse

from .core import DiscreteMeasureHypernetwork, DiscreteMeasureNetwork
from .errors import CapExceeded, MassMismatch


@dataclasses.dataclass
class Coupling:
    matrix: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray

    def feasible(self, tol: float = 1e-9) -> bool:
        return bool(
            np.abs(self.matrix.sum(axis=1) - self.row_marginal).max() < tol
            and np.abs(self.matrix.sum(axis=0) - self.col_marginal).max() < tol
        )


@functools.lru_cache(maxsize=32)
def _transport_constraints(n: int, m: int):
    """Row/column-sum equality constraints (one redundant row dropped)."""
    rows = sparse.kron(sparse.eye(n), np.ones((1, m)))
    cols = sparse.kron(np.ones((1, n)), sparse.eye(m))
    return sparse.vstack([rows, cols]).tocsr()[:-1]


def ot_exact(a, b, cost, cap: int = 512):
    """Exact optimal transport by linear programming (HiGHS dual simplex).

    Returns (Coupling, optimal value). Marginals must have equal total mass.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    cost = np.asarray(cost, dtype=np.float64)
    n, m = cost.shape
    if abs(a.sum() - b.sum()) > 1e-9 * max(1.0, a.sum()):
        raise MassMismatch(f"total masses {a.sum()} vs {b.sum()}")
    if n > cap or m > cap:
        raise CapExceeded(f"sizes ({n},{m}) exceed cap {cap}")
    A_eq = _transport_constraints(n, m)
    b_eq = np.concatenate([a, b])[:-1]
    res = optimize.linprog(cost.ravel(), A_eq=A_eq, b_eq=b_eq,
                           bounds=(0, None), method="highs")
    if not res.success:
        raise MassMismatch(f"LP failed: {res.message}")
    pi = np.maximum(res.x.reshape(n, m), 0.0)
    return Coupling(pi, a, b), float((pi * cost).sum())


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


def sinkhorn(a, b, cost, reg: float, iters: int = 500):
    """Entropic OT with rounding to the transport polytope.

    Returns (Coupling, value, converged flag); on non-convergence the best
    iterate is rounded and returned with the flag set False.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    cost = np.asarray(cost, dtype=np.float64)
    if reg <= 0:
        raise ValueError("reg must be positive")
    # log-domain iterations for stability
    loga = np.log(np.where(a > 0, a, 1.0))
    logb = np.log(np.where(b > 0, b, 1.0))
    converged = False
    f = np.zeros_like(a)
    g = np.zeros_like(b)
    pi = np.outer(a, b)
    for _ in range(iters):
        Mf = (-cost + g[None, :]) / reg
        f = np.where(a > 0, reg * (loga - _logsumexp_rows(Mf)), 0.0)
        Mg = (-cost + f[:, None]) / reg
        g = np.where(b > 0, reg * (logb - _logsumexp_cols(Mg)), 0.0)
        pi = np.exp((f[:, None] + g[None, :] - cost) / reg) * np.outer(a > 0, b > 0)
        err = np.abs(pi.sum(axis=1) - a).sum() + np.abs(pi.sum(axis=0) - b).sum()
        if err < 1e-10:
            converged = True
            break
    pi = _round_to_polytope(pi, a, b)
    return Coupling(pi, a, b), float((pi * cost).sum()), converged


def _logsumexp_rows(M):
    mx = M.max(axis=1)
    return mx + np.log(np.exp(M - mx[:, None]).sum(axis=1))


def _logsumexp_cols(M):
    mx = M.max(axis=0)
    return mx + np.log(np.exp(M - mx[None, :]).sum(axis=0))


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
    inner: str = "exact"  # "exact" or "sinkhorn"
    sinkhorn_reg_scale: float = 1e-2
    ot_cap: int = 512


def gw2_solve(nx: DiscreteMeasureNetwork, ny: DiscreteMeasureNetwork,
              config: BaselineConfig | None = None, extra_inits=()):
    """GW2 upper-bound estimate by Frank-Wolfe with exact line search.

    Returns (value, Coupling); value includes the 1/2 prefactor of the
    distance definition.
    """
    config = config or BaselineConfig()
    a, b = nx.weights, ny.weights
    if abs(a.sum() - b.sum()) > 1e-9 * max(1.0, a.sum()):
        raise MassMismatch("networks must have equal total mass")
    wx, wy = nx.kernel, ny.kernel
    rng = np.random.default_rng(config.seed)

    def inner_ot(cost):
        if config.inner == "exact":
            return ot_exact(a, b, cost, cap=config.ot_cap)[0].matrix
        med = np.median(cost[cost > 0]) if (cost > 0).any() else 1.0
        return sinkhorn(a, b, cost, config.sinkhorn_reg_scale * med)[0].matrix

    inits = [np.outer(a, b) / max(b.sum(), 1e-300)]
    for _ in range(max(0, config.restarts - 1)):
        noise = rng.uniform(0.5, 1.5, size=(a.size, b.size))
        pi0 = _round_to_polytope(inits[0] * noise, a, b)
        inits.append(pi0)
    inits.extend(np.asarray(e, dtype=np.float64) for e in extra_inits)

    best = None
    for pi in inits:
        obj = _gw_objective(wx, wy, pi)
        for _ in range(config.max_iters):
            grad = _gw_linear_term(wx, wy, pi) + _gw_linear_term(wx.T, wy.T, pi)
            target = inner_ot(grad)
            delta = target - pi
            # objective along pi + t delta is quadratic in t
            lin = float((_gw_linear_term(wx, wy, delta) * pi).sum()
                        + (_gw_linear_term(wx, wy, pi) * delta).sum())
            quad = _gw_objective(wx, wy, delta)
            if quad > 0:
                t = np.clip(-lin / (2.0 * quad), 0.0, 1.0)
            else:
                t = 1.0 if lin + quad < 0 else 0.0
            if t > 0:
                pi = pi + t * delta
            new_obj = _gw_objective(wx, wy, pi)
            if obj - new_obj <= config.tol * max(1.0, abs(obj)):
                obj = min(obj, new_obj)
                break
            obj = new_obj
        if best is None or obj < best[0]:
            best = (obj, pi)
    obj, pi = best
    return 0.5 * float(np.sqrt(max(obj, 0.0))), Coupling(pi, a, b)


def cot_solve(hx: DiscreteMeasureHypernetwork, hy: DiscreteMeasureHypernetwork,
              config: BaselineConfig | None = None):
    """Co-optimal transport by alternating exact OT on the two couplings.

    Returns (value, sample Coupling, feature Coupling); value includes the
    1/2 prefactor.
    """
    config = config or BaselineConfig()
    a, b = hx.sample_weights, hy.sample_weights
    ap, bp = hx.feature_weights, hy.feature_weights
    if abs(a.sum() - b.sum()) > 1e-9 or abs(ap.sum() - bp.sum()) > 1e-9:
        raise MassMismatch("sample and feature masses must match across inputs")
    wx, wy = hx.kernel, hy.kernel
    pi_f = np.outer(ap, bp) / max(bp.sum(), 1e-300)
    pi_s = np.outer(a, b) / max(b.sum(), 1e-300)
    obj = float((_gw_linear_term(wx, wy, pi_f) * pi_s).sum())
    for _ in range(config.max_iters):
        pi_s = ot_exact(a, b, _gw_linear_term(wx, wy, pi_f),
                        cap=config.ot_cap)[0].matrix
        pi_f = ot_exact(ap, bp, _gw_linear_term(wx.T, wy.T, pi_s),
                        cap=config.ot_cap)[0].matrix
        new_obj = float((_gw_linear_term(wx, wy, pi_f) * pi_s).sum())
        if obj - new_obj <= config.tol * max(1.0, abs(obj)):
            obj = min(obj, new_obj)
            break
        obj = new_obj
    return (0.5 * float(np.sqrt(max(obj, 0.0))),
            Coupling(pi_s, a, b), Coupling(pi_f, ap, bp))
