"""Conic unbalanced OT between kernel-value distributions.

Pushing the product measure through the kernel map collapses each network to
a distribution of scalar kernel values; the conic semi-coupling problem
between those distributions lower-bounds the network distance and is cheap
to solve with the solver's closed-form step and distance formula.
"""

from __future__ import annotations

import time
import types

import numpy as np

from .cone import ConeKernel, omega_of_gap
from .core import DiscreteMeasureNetwork, DiscreteValueMeasure
from .errors import check_count
from .solver import (SolverReport, _ascend, _product_pair, _project_pair, _report, _totals,
                     ccot_distance_from_objective, update_block)

COALESCE_TOL = 1e-12  # sorted kernel values this close to the previous share its atom
REL_TOL = 1e-12  # relative objective change at which uot_solve stops


def pushforward_value_distribution(net: DiscreteMeasureNetwork) -> DiscreteValueMeasure:
    """Distribution of kernel values under the product of the node measure.

    A sorted value at most COALESCE_TOL above the previous one joins its atom
    (mass added), so binary or quantized kernels collapse to a few atoms. The
    rule chains: an atom sits at its smallest value and may span more than
    COALESCE_TOL.
    """
    vals = net.kernel.ravel()
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    masses = np.outer(net.weights, net.weights).ravel()[order]
    starts = np.concatenate(([True], np.diff(vals) > COALESCE_TOL))
    atom = np.cumsum(starts) - 1
    return DiscreteValueMeasure(vals[starts], np.bincount(atom, weights=masses))


def uot_solve(mu: DiscreteValueMeasure, nu: DiscreteValueMeasure,
              kernel: ConeKernel, max_iters: int = 1000) -> SolverReport:
    """Conic semi-coupling distance between two scalar value distributions.

    Maximizes G(A, B) = Sigma_ij Omega_ij sqrt(A_ij B_ij) over A with row
    sums <= m and B with column sums <= n, by the network solver's pair
    step with the contraction fixed at Omega: Omega^2 is formed once, and
    each sweep's G is the step's F, Sigma_j sqrt(n_j s_j) for s the column
    sums of A Omega^2. Returns the distance value
    sqrt(4 delta^2 (|mu| + |nu|) - 8 delta^2 G*): the network distance with
    one feature of unit mass on each side, as the report's value; its
    restarts are the product start's and the monotone start's.

    The value is this distance, and so a lower bound, only at G = G*. Any G
    below G* gives a value that is too large, and report.converged does not
    certify G*: it says only that the best start stopped at the relative
    tolerance. The pair step is multiplicative, so a start's zero entries
    stay zero. The monotone start's run can therefore stop at rel_tol on
    the face of its support, below G*, while the product start is still
    climbing at max_iters.
    """
    t0 = time.perf_counter()
    check_count("max_iters", max_iters, 0)
    m, n = mu.masses, nu.masses
    W = omega_of_gap(kernel, mu.values[:, None], nu.values[None, :])

    # the product start, then the monotone (northwest-corner) alignment of
    # the sorted atoms: exact for identical distributions, but confined to
    # its support (the step keeps zeros), so it may stop short of G*; both
    # sweep as one stack
    A, B = _product_pair(m, n)
    pi = _monotone_plan(m, n)
    scale = n.sum() / max(m.sum(), 1e-300)
    s = types.SimpleNamespace()
    s.A, s.B = _project_pair(np.stack((A, pi)), np.stack((B, pi * scale)), W > 0, m, n)
    W2 = W * W

    def sweep(s):
        return update_block(s.A, s.B, W2, m, n)

    runs = _ascend(s, _totals(W * np.sqrt(s.A * s.B)), sweep, max_iters, REL_TOL)
    best = max(range(len(runs)), key=lambda i: runs[i][1][-1])  # the first best
    value = ccot_distance_from_objective(runs[best][1][-1], (m.sum(), 1.0, n.sum(), 1.0),
                                         kernel.delta)
    return _report(runs, best, value, {"kernel": kernel.family.value, "delta": kernel.delta,
                                       "max_iters": max_iters}, t0)


def _monotone_plan(m, n):
    """Northwest-corner plan between m and n rescaled to m's total mass: the
    overlap of the atoms' cumulative-mass intervals."""
    total_m, total_n = m.sum(), n.sum()
    if total_m <= 0 or total_n <= 0:
        return np.zeros((m.size, n.size))
    cm = np.concatenate(([0.0], np.cumsum(m)))[:, None]
    cn = np.concatenate(([0.0], np.cumsum(n * (total_m / total_n))))[None, :]
    return np.maximum(0.0, np.minimum(cm[1:], cn[:, 1:]) - np.maximum(cm[:-1], cn[:, :-1]))


def cgw_lower_bound(nx: DiscreteMeasureNetwork, ny: DiscreteMeasureNetwork,
                    kernel: ConeKernel, max_iters: int = 1000) -> SolverReport:
    """Lower bound on the conic network distance from value distributions.

    It is a bound only when the report's converged is True; see uot_solve.
    """
    mu = pushforward_value_distribution(nx)
    nu = pushforward_value_distribution(ny)
    return uot_solve(mu, nu, kernel, max_iters=max_iters)
