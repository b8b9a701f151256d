"""Balanced transport baselines: exact OT, GW2 by conditional gradient, and
co-optimal transport by alternating exact OT.

GW-type solvers are upper-bound estimators (the objective is nonconvex);
cross-metric checks elsewhere budget a solver-gap slack and use restarts.
"""

from __future__ import annotations

import dataclasses
import time
import types

import numpy as np

from .core import (DiscreteMeasureHypernetwork, DiscreteMeasureNetwork, _check_kernel_entries,
                   _check_weights)
from .errors import CapExceeded, LengthMismatch, MassMismatch, NegativeArgument, check_count
from .solver import _ascend, _report

OT_EXACT_CAP = 512  # largest side of an ot_exact problem
# cells of reduced costs priced per block (whole rows, at least one): a block
# amortizes numpy's per-call work, and a pivot is found before a full scan
_PRICE_CELLS = 4096
# optimality: no reduced cost below -_OPT_TOL * max(1, max |cost|)
_OPT_TOL = 1e-12
# degenerate pivots in a row, per node, after which Bland's rule picks both
# cells until a pivot moves flow; it cannot cycle, so the simplex terminates
_BLAND_RUN = 1


def _check_equal_mass(a, b):
    """Balanced transport needs equal totals, to 1e-9 relative."""
    if abs(a.sum() - b.sum()) > 1e-9 * max(1.0, a.sum()):
        raise MassMismatch(f"total masses {a.sum()} vs {b.sum()}")


def _transport_simplex(a, b, cost):
    """An optimal basic flow of one transport problem, by the transportation
    (network) simplex on the bipartite graph of rows 0..n-1 and columns
    n..n+m-1.

    The basis is a spanning tree rooted at row 0; each node other than the
    root holds its parent, its depth, its children and the flow of the cell
    joining it to its parent. Zero-flow cells are basic too, so the tree
    always has n + m - 1 cells and the flow is a vertex of the transport
    polytope.
    """
    n, m = cost.shape
    parent, depth, flow = [-1] * (n + m), [0] * (n + m), [0.0] * (n + m)
    children = [set() for _ in range(n + m)]
    pot = np.zeros(n + m)  # u = pot[:n], v = pot[n:], u_i + v_j = cost_ij on the tree
    # the north-west corner rule: each cell hangs the node it reaches under
    # the node it comes from; a tie moves down. The last cell takes what is
    # left of its row, so a rounding gap between the totals ends up there
    i = j = 0
    ra, rb = a[0], b[0]
    node, up = n, 0
    for step in range(n + m - 1):
        if step:
            x = min(ra, rb)
            flow[node] = x
            ra, rb = ra - x, rb - x
            if j == m - 1 or (i < n - 1 and ra <= rb):
                i += 1
                ra, node, up = a[i], i, n + j
            else:
                j += 1
                rb, node, up = b[j], n + j, i
        parent[node], depth[node] = up, depth[up] + 1
        children[up].add(node)
        pot[node] = cost[i, j] - pot[up]
    flow[node] = ra
    u, v = pot[:n], pot[n:]
    tol = _OPT_TOL * max(1.0, float(np.abs(cost).max()))
    rows = max(1, _PRICE_CELLS // m)
    blocks = -(-n // rows)
    block = degenerate = 0
    while True:
        # pricing: the most negative reduced cost of the first block, from
        # the one after the last pivot's, that has one below -tol; under
        # Bland's rule the first such cell in row-major order
        bland = degenerate >= _BLAND_RUN * (n + m)
        if bland:
            r = (cost - u[:, None] - v).ravel()
            k = int(np.argmax(r < -tol))
            if not r[k] < -tol:
                break
            i, j, rc = k // m, k % m, r[k]
        else:
            for tried in range(blocks):
                lo = (block + tried) % blocks * rows
                r = cost[lo:lo + rows] - u[lo:lo + rows, None] - v
                k = int(r.argmin())
                if r.flat[k] < -tol:
                    i, j, rc = lo + k // m, k % m, r.flat[k]
                    block = (block + tried + 1) % blocks
                    break
            else:
                break
        # the cycle the entering cell closes: both of its ends up to their
        # common ancestor. Counting from either end, the first, third, ...
        # tree cells lose flow and the others gain it
        p, q = i, n + j
        up_p, up_q = [], []
        while depth[p] > depth[q]:
            up_p.append(p)
            p = parent[p]
        while depth[q] > depth[p]:
            up_q.append(q)
            q = parent[q]
        while p != q:
            up_p.append(p)
            up_q.append(q)
            p, q = parent[p], parent[q]
        theta = min([flow[c] for c in up_p[::2] + up_q[::2]])
        # the leaving cell among those whose flow falls to 0: under Bland's
        # rule the first in row-major order; otherwise the last met going
        # round the cycle from the apex in the entering cell's direction
        # (row to column), Cunningham's choice
        if bland:
            leave = min((c * m + parent[c] - n if c < n else parent[c] * m + c - n, c)
                        for c in up_p[::2] + up_q[::2] if flow[c] == theta)[1]
        else:
            leave = next((c for c in reversed(up_q[::2]) if flow[c] == theta), None)
            if leave is None:
                leave = next(c for c in up_p[::2] if flow[c] == theta)
        degenerate = 0 if theta else degenerate + 1
        if theta:
            for path in (up_p, up_q):
                for k, c in enumerate(path):
                    flow[c] += theta if k % 2 else -theta
        # cut the leaving cell and hang its side of the tree from the
        # entering cell: the path from that end up to the cut turns over
        end, other, path = (i, n + j, up_p) if leave in up_p else (n + j, i, up_q)
        above, carried = other, theta
        for c in path:
            children[parent[c]].discard(c)
            children[above].add(c)
            parent[c], above = above, c
            flow[c], carried = carried, flow[c]
            if c == leave:
                break
        # the re-hung subtree's potentials shift so that the entering cell's
        # reduced cost is 0: rows by rc and columns by -rc when its end is a
        # row, the other way round when it is a column
        shift = rc if end < n else -rc
        level, d, subtree = [end], depth[other] + 1, []
        while level:
            subtree += level
            for w in level:
                depth[w] = d
            level, d = [c for w in level for c in children[w]], d + 1
        subtree = np.array(subtree)
        pot[subtree] += np.where(subtree < n, shift, -shift)
    node = np.arange(1, n + m)
    above = np.array(parent[1:])
    x = np.zeros((n, m))
    x[np.where(node < n, node, above), np.where(node < n, above, node) - n] = flow[1:]
    return x


def ot_exact(a, b, cost):
    """Exact optimal transport by the transportation simplex.

    The coupling is a basic solution, a vertex of the transport polytope
    with at most n + m - 1 positive entries, as a Frank-Wolfe step needs.
    Returns (coupling, optimal value). A cost with leading stack axes is a
    stack of problems with the same marginals, solved one slice after
    another: the coupling and the values then carry those axes. Marginals
    must be finite and nonnegative (NonFiniteEntry, NegativeWeight naming
    the marginal and the index) with equal total mass, neither side may
    exceed OT_EXACT_CAP points, the cost's last two axes must match the
    marginals (LengthMismatch), and every cost must be finite
    (NonFiniteEntry at its index). Loads nothing beyond numpy.
    """
    a, b = _check_weights(a, "a"), _check_weights(b, "b")
    cost = np.asarray(cost, dtype=np.float64)
    if cost.shape[-2:] != (a.size, b.size):
        raise LengthMismatch(f"cost of shape {cost.shape} for marginals of "
                             f"sizes {a.size} and {b.size}")
    n, m = a.size, b.size
    _check_equal_mass(a, b)
    if n > OT_EXACT_CAP or m > OT_EXACT_CAP:
        raise CapExceeded(f"sizes ({n},{m}) exceed cap {OT_EXACT_CAP}")
    _check_kernel_entries(cost)
    pi = np.empty_like(cost)
    for s in np.ndindex(cost.shape[:-2]):
        pi[s] = _transport_simplex(a, b, cost[s])
    pi = np.maximum(pi, 0.0)
    value = (pi * cost).sum(axis=(-2, -1))
    return pi, float(value) if cost.ndim == 2 else value


def _round_to_polytope(pi, a, b):
    """Altschuler-style rounding of an approximate coupling onto Pi(a, b); a
    stack of couplings (a leading axis) is rounded slice by slice."""
    r = pi.sum(axis=-1)
    pi = pi * np.minimum(1.0, np.divide(a, r, out=np.ones_like(r), where=r > 0))[..., None]
    c = pi.sum(axis=-2)
    pi = pi * np.minimum(1.0, np.divide(b, c, out=np.ones_like(c), where=c > 0))[..., None, :]
    ea = a - pi.sum(axis=-1)
    eb = b - pi.sum(axis=-2)
    s = ea.sum(axis=-1)[..., None, None]
    fill = np.divide(ea[..., :, None] * eb[..., None, :], s, out=np.zeros_like(pi), where=s > 0)
    return np.where(s > 0, pi + fill, pi)


def _gw_linear_term(wx, wy, pi):
    """L(pi)_ik = Sigma_{i'k'} |wx(i,i') - wy(k,k')|^2 pi_{i'k'}, slice by
    slice for a stack of couplings. The vector products are matrix-column
    products, which sum in the same order for a stack as for one matrix."""
    u = (wx * wx) @ pi.sum(axis=-1)[..., None]
    v = (wy * wy) @ pi.sum(axis=-2)[..., None]
    return u + v.swapaxes(-2, -1) - 2.0 * (wx @ pi @ wy.T)


def _gw_objective(wx, wy, pi):
    """The GW objective <L(pi), pi>, one value per slice of a stack."""
    return (_gw_linear_term(wx, wy, pi) * pi).sum(axis=(-2, -1))


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
    pi = np.outer(a, b) / max(b.sum(), 1e-300)
    noise = np.random.default_rng(config.seed).uniform(
        0.5, 1.5, size=(config.restarts - 1, a.size, b.size))
    pis = np.concatenate((pi[None], _round_to_polytope(pi * noise, a, b)))
    s = types.SimpleNamespace(pi=pis, obj=_gw_objective(wx, wy, pis))

    def sweep(s):
        grad = _gw_linear_term(wx, wy, s.pi) + _gw_linear_term(wx.T, wy.T, s.pi)
        delta = ot_exact(a, b, grad)[0] - s.pi
        # the objective along pi + t delta is obj + t lin + t^2 quad exactly
        lin = (grad * delta).sum(axis=(-2, -1))
        quad = _gw_objective(wx, wy, delta)
        # the exact line search; a step with no curvature goes all the way or nowhere
        t = np.clip(np.divide(-lin, 2.0 * quad, out=(lin + quad < 0) * 1.0, where=quad > 0),
                    0.0, 1.0)
        s.pi = s.pi + t[:, None, None] * delta
        # a step that rounds upward counts as no decrease, so it stops
        s.obj = np.minimum(s.obj, s.obj + t * lin + t * t * quad)
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
    # a stack of one restart; cost_s is the sample-side cost at pi_f
    s = types.SimpleNamespace(pi_s=pi_s[None], pi_f=pi_f[None],
                              cost_s=_gw_linear_term(wx, wy, pi_f[None]))
    s.obj = (s.cost_s * s.pi_s).sum(axis=(-2, -1))

    def sweep(s):
        s.pi_s = ot_exact(a, b, s.cost_s)[0]
        s.pi_f = ot_exact(ap, bp, _gw_linear_term(wx.T, wy.T, s.pi_s))[0]
        s.cost_s = _gw_linear_term(wx, wy, s.pi_f)
        # an alternation that raises the objective counts as no decrease, so it stops
        s.obj = np.minimum(s.obj, (s.cost_s * s.pi_s).sum(axis=(-2, -1)))
        return s.obj

    runs = _ascend(s, s.obj, sweep, config.max_iters, config.tol)
    [(final, trace, _)] = runs
    value = 0.5 * float(np.sqrt(max(trace[-1], 0.0)))
    return value, final.pi_s, final.pi_f, _report(
        runs, 0, value, {"max_iters": config.max_iters, "tol": config.tol}, t0)
