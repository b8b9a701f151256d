"""Conic unbalanced OT between kernel-value distributions.

Pushing the product measure through the kernel map collapses each network to
a distribution of scalar kernel values; the conic semi-coupling problem
between those distributions lower-bounds the network distance and is cheap
to solve with the same two-block closed-form ascent.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .cone import ConeKernel, omega_of_gap
from .core import DiscreteMeasureNetwork, DiscreteValueMeasure
from .solver import _product_pair, _tight


def pushforward_value_distribution(net: DiscreteMeasureNetwork,
                                   coalesce_tol: float = 1e-12) -> DiscreteValueMeasure:
    """Distribution of kernel values under the product of the node measure.

    Values within coalesce_tol of each other are merged (mass added) so
    binary or heavily quantized kernels collapse to a few atoms.
    """
    vals = net.kernel.ravel()
    masses = np.outer(net.weights, net.weights).ravel()
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    masses = masses[order]
    keep_vals = [vals[0]]
    keep_mass = [masses[0]]
    for v, m in zip(vals[1:], masses[1:]):
        if v - keep_vals[-1] <= coalesce_tol:
            keep_mass[-1] += m
        else:
            keep_vals.append(v)
            keep_mass.append(m)
    return DiscreteValueMeasure(np.asarray(keep_vals), np.asarray(keep_mass))


@dataclasses.dataclass
class UotReport:
    value: float
    objective: float
    iterations: int
    converged: bool
    objective_trace: list


def uot_solve(mu: DiscreteValueMeasure, nu: DiscreteValueMeasure,
              kernel: ConeKernel, max_iters: int = 1000,
              rel_tol: float = 1e-12) -> UotReport:
    """Conic semi-coupling distance between two scalar value distributions.

    Maximizes G(A, B) = Sigma_ij Omega_ij sqrt(A_ij B_ij) over A with row
    sums <= m and B with column sums <= n, by the same closed-form
    two-block ascent as the network solver. Returns the distance value
    sqrt(max(0, 4 delta^2 (|mu| + |nu|) - 8 delta^2 G*)).
    """
    m = np.asarray(mu.masses, dtype=np.float64)
    n = np.asarray(nu.masses, dtype=np.float64)
    W = omega_of_gap(kernel, mu.values[:, None], nu.values[None, :])
    mass_term = float(m.sum() + n.sum())
    d2_degenerate = 4.0 * kernel.delta ** 2 * mass_term

    live = W > 0

    def prepare(A, B):
        return _tight(A * live, m, 1), _tight(B * live, n, 0)

    inits = [prepare(*_product_pair(m, n))]
    # monotone (northwest-corner) alignment of the sorted atoms; exact for
    # identical distributions, a strong start whenever supports overlap
    pi = _monotone_plan(m, n)
    scale = n.sum() / max(m.sum(), 1e-300)
    inits.append(prepare(pi, pi * scale))

    W2 = W * W
    best = None
    for A, B in inits:
        if A.sum() == 0 or B.sum() == 0:
            candidate = (0.0, [0.0], 0, True)
        else:
            obj = float((W * np.sqrt(A * B)).sum())
            trace = [obj]
            converged = False
            it = 0
            for it in range(1, max_iters + 1):
                A = _tight(B * W2, m, 1)
                B = _tight(A * W2, n, 0)
                new_obj = float((W * np.sqrt(A * B)).sum())
                trace.append(new_obj)
                if abs(new_obj - obj) <= rel_tol * max(1.0, abs(obj)):
                    obj = new_obj
                    converged = True
                    break
                obj = new_obj
            candidate = (obj, trace, it, converged)
        if best is None or candidate[0] > best[0]:
            best = candidate
    obj, trace, it, converged = best
    d2 = d2_degenerate - 8.0 * kernel.delta ** 2 * obj
    return UotReport(float(np.sqrt(max(d2, 0.0))), obj, it, converged, trace)


def _monotone_plan(m, n):
    """Northwest-corner plan between m and n rescaled to m's total mass."""
    total_m = m.sum()
    total_n = n.sum()
    if total_m <= 0 or total_n <= 0:
        return np.zeros((m.size, n.size))
    nn = n * (total_m / total_n)
    pi = np.zeros((m.size, n.size))
    i = j = 0
    ri, cj = m[0], nn[0]
    while i < m.size and j < n.size:
        move = min(ri, cj)
        pi[i, j] = move
        ri -= move
        cj -= move
        if ri <= 1e-15 * max(total_m, 1.0):
            i += 1
            ri = m[i] if i < m.size else 0.0
        if cj <= 1e-15 * max(total_m, 1.0):
            j += 1
            cj = nn[j] if j < n.size else 0.0
    return pi


def cgw_lower_bound(nx: DiscreteMeasureNetwork, ny: DiscreteMeasureNetwork,
                    kernel: ConeKernel, coalesce_tol: float = 1e-12,
                    max_iters: int = 1000) -> UotReport:
    """Lower bound on the conic network distance from value distributions."""
    mu = pushforward_value_distribution(nx, coalesce_tol)
    nu = pushforward_value_distribution(ny, coalesce_tol)
    return uot_solve(mu, nu, kernel, max_iters=max_iters)
