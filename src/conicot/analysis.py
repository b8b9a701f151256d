"""Numerical verification probes for the conic distance guarantees.

Each probe returns a plain dict with machine-checkable pass/fail flags and
numeric margins. Wherever a guarantee comes with an explicit feasible
construction (diagonal semi-couplings for scaling and robustness, the
balanced coupling for the GW comparison), that construction is injected as
an extra solver restart, so monotone ascent turns the solver output into a
certified one-sided bound rather than a heuristic estimate.

A note on conventions. gw2_solve returns g = (1/2) ||omega_X - omega_Y||
at the best coupling (L2 over the product of the coupling with itself).
The comparison statements are sharp in two related normalizations:

  - the sandwich upper bound kappa * GW uses GW_quad = sqrt(2) * g,
    i.e. the root of half the quadratic distortion (kappa = sqrt(2) for
    the truncated cosine, 2 for the Gaussian);
  - the large-delta limit constant sqrt(2C) multiplies GW_l2 = 2 * g,
    the plain L2 norm of the distortion.

Both conversions are applied explicitly below and echoed in the reports.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .baselines import BaselineConfig, gw2_solve
from .cone import ConeKernel, _ccot_d2, kernel_constants
from .core import (DiscreteMeasureNetwork, embed_network_as_hypernetwork, scale_measure,
                   tv_gap, validate_network)
from .data import perturb_measure
from .errors import NegativeScale, check_count
from .solver import (
    SemiCouplingQuadruple,
    SolverConfig,
    bca_solve,
    bca_solve_kernels,
    cgw_solve,
    objective_F,
)
from .tensor import build_tensor
from .uot import cgw_lower_bound

SLACK_REL = 0.02
SLACK_ABS = 1e-6


def slack(x: float) -> float:
    """Centralized slack budget for cross-solver assertions."""
    return SLACK_REL * abs(x) + SLACK_ABS


def _diag_quad(u, v) -> SemiCouplingQuadruple:
    """Diagonal semi-coupling quadruple with row masses u and column masses v."""
    return SemiCouplingQuadruple(np.diag(u), np.diag(v), np.diag(u), np.diag(v))


def _coupling_quad(pi) -> SemiCouplingQuadruple:
    """Balanced-coupling quadruple: all four matrices are one copy of pi."""
    pi = np.array(pi, dtype=np.float64)
    return SemiCouplingQuadruple(pi, pi, pi, pi)


def _envelope(delta: float, mass: float, eps: float) -> float:
    """Robustness envelope 2 delta mass sqrt(eps^2 + 4 eps)."""
    return 2.0 * delta * mass * float(np.sqrt(eps**2 + 4 * eps))


def _unit_mass_gw2(nx, ny, config: SolverConfig, probe: str):
    """gw2_solve's (value, coupling) between unit-mass networks: the GW reference."""
    if abs(nx.mass - 1.0) > 1e-9 or abs(ny.mass - 1.0) > 1e-9:
        raise ValueError(f"{probe} expects unit-mass networks")
    bcfg = BaselineConfig(seed=config.seed, restarts=max(config.restarts, 4),
                          max_iters=60, tol=1e-8)
    return gw2_solve(nx, ny, bcfg)[:2]


def verify_scaling(net: DiscreteMeasureNetwork, r: float, s: float,
                   config: SolverConfig) -> dict:
    """Checks the measure-scaling guarantees on a single network.

    (a) distance between the s- and r-scaled copies is at most
        2 delta |r - s| mass (diagonal seed makes this a certified bound);
    (b) scaling the optimized quadruple of (a) by t multiplies the objective
        by t^2 and the squared distance by t^2 (checked to 1e-9 relative);
    (c) combined bound: d(N^r, N^s) against the triangle bound through N,
        2 delta (|1 - r| + |1 - s|) mass, with slack.
    """
    for name, t in (("r", r), ("s", s)):
        if not 0 <= t < np.inf:  # NaN fails too
            raise NegativeScale(f"scale factor {name} = {t} is not in [0, inf)")
    delta = config.kernel.delta
    mass = net.mass
    net_s = scale_measure(net, s)
    net_r = scale_measure(net, r)
    seed = _diag_quad(s * net.weights, r * net.weights)
    # (a) and (b) share one solve; cgw_solve would return the same distance
    hx = embed_network_as_hypernetwork(net_s)
    hy = embed_network_as_hypernetwork(net_r)
    dist, quad, _ = bca_solve(hx, hy, dataclasses.replace(config, extra_inits=[seed]))
    bound_a = 2.0 * delta * abs(r - s) * mass
    check_a = {
        "name": "scale_bound",
        "distance": dist,
        "bound": bound_a,
        "margin": bound_a + 1e-6 - dist,
        "pass": bool(dist <= bound_a + 1e-6),
    }

    # (c) d(N^r, N^s) <= d(N^r, N) + d(N, N^s), each bounded as in (a)
    d_rs, _ = cgw_solve(net_r, net_s, dataclasses.replace(config, extra_inits=[
        _diag_quad(r * net.weights, s * net.weights)]))
    bound_c = 2.0 * delta * (abs(1 - r) + abs(1 - s)) * mass
    check_c = {
        "name": "combined_bound",
        "distance": d_rs,
        "bound": bound_c,
        "pass": bool(d_rs <= bound_c + slack(bound_c)),
    }

    # (b) homogeneity at the objective level, an exact algebraic identity;
    # its tensor is built after (c)'s solve, so the two are never alive at once
    t = r if r > 0 else 1.7
    tensor = build_tensor(hx, hy, config.kernel, config.tensor_policy)
    F0 = objective_F(quad, tensor)
    Ft = objective_F(quad.scaled(t), tensor)
    rel = abs(Ft - t * t * F0) / max(1.0, abs(t * t * F0))
    masses = (s * mass, s * mass, r * mass, r * mass)
    d2_0 = _ccot_d2(F0, masses, delta)
    d2_t = _ccot_d2(Ft, [t * x for x in masses], delta)
    rel_d = abs(d2_t - t * t * d2_0) / max(1.0, abs(t * t * d2_0))
    check_b = {
        "name": "homogeneity",
        "t": t,
        "objective_rel_err": rel,
        "distance_sq_rel_err": rel_d,
        "pass": bool(rel <= 1e-9 and rel_d <= 1e-9),
    }
    checks = [check_a, check_b, check_c]
    return {
        "probe": "scaling",
        "r": r,
        "s": s,
        "mass": mass,
        "delta": delta,
        "slack_rel": SLACK_REL,
        "slack_abs": SLACK_ABS,
        "checks": checks,
        "pass": bool(all(c["pass"] for c in checks)),
    }


def delta_sweep(nx: DiscreteMeasureNetwork, ny: DiscreteMeasureNetwork,
                deltas, config: SolverConfig) -> dict:
    """CGW across deltas, compared against the large-delta limit.

    The pair is embedded once and every delta is solved by one
    bca_solve_kernels call, seeded with the balanced GW coupling; each row
    gives its best restart's sweeps and stop reason. The reference is
    sqrt(2C) * GW_l2 with GW_l2 = 2 * gw2_solve value (the unhalved L2
    distortion norm); the relative gap uses GW_l2 as denominator. The
    fitted constant (CGW at the largest delta divided by GW_l2) is reported
    alongside.
    """
    deltas = [float(d) for d in deltas]
    if not deltas:
        raise ValueError("delta_sweep needs at least one delta")
    g, pi = _unit_mass_gw2(nx, ny, config, "delta_sweep")
    gw_l2 = 2.0 * g
    C = kernel_constants(config.kernel).C
    reference = float(np.sqrt(2.0 * C) * gw_l2)
    kernels = [ConeKernel(config.kernel.family, d) for d in deltas]
    solves = bca_solve_kernels(embed_network_as_hypernetwork(nx),
                               embed_network_as_hypernetwork(ny),
                               dataclasses.replace(config, extra_inits=[_coupling_quad(pi)]),
                               kernels)
    rows = []
    for d, (dist, _, rep) in zip(deltas, solves):
        rows.append({"delta": d, "cgw": dist, "reference": reference,
                     "rel_gap": abs(dist - reference) / max(gw_l2, 1e-12),
                     "sweeps": rep.iterations, "stop": rep.restarts[rep.best_restart]["stop"]})
    gaps = [row["rel_gap"] for row in rows]
    final_is_min = bool(gaps[-1] <= min(gaps) + 1e-12)
    # soft monotonicity: at most one inversion of more than 10% relative
    inversions = 0
    for u, v in zip(gaps, gaps[1:]):
        if v > u * 1.10 + 1e-12:
            inversions += 1
    fitted = rows[-1]["cgw"] / max(gw_l2, 1e-12)
    return {
        "probe": "delta_sweep",
        "gw2": g,
        "gw_l2": gw_l2,
        "sqrt_2C": float(np.sqrt(2.0 * C)),
        "reference": reference,
        "fitted_constant": fitted,
        "rows": rows,
        "final_gap_is_min": final_is_min,
        "soft_monotone": bool(inversions <= 1),
        "pass": final_is_min,
    }


def verify_bound_sandwich(nx: DiscreteMeasureNetwork, ny: DiscreteMeasureNetwork,
                          config: SolverConfig) -> dict:
    """Checks UOT lower bound <= CCOT <= CGW <= kappa * GW_quad with slack.

    For network inputs the CCOT and CGW objectives coincide (the embedding
    uses the same kernel on both axes), so a single block-ascent run, seeded
    with the balanced GW coupling, supplies both middle quantities; CCOT <=
    CGW is not checked, as both are that one solve's value.
    """
    g, pi = _unit_mass_gw2(nx, ny, config, "verify_bound_sandwich")
    gw_quad = float(np.sqrt(2.0) * g)
    kappa = np.sqrt(2.0) if config.kernel.family.value == "cos" else 2.0
    upper = float(kappa * gw_quad)

    dist, report = cgw_solve(nx, ny, dataclasses.replace(config, extra_inits=[_coupling_quad(pi)]))
    ccot = cgw = dist
    lower = cgw_lower_bound(nx, ny, config.kernel).value

    biggest = max(lower, ccot, cgw, upper)
    s = slack(biggest)
    ok = bool(lower - s <= dist <= upper + s)
    return {
        "probe": "bound_sandwich",
        "uot_lower": lower,
        "ccot": ccot,
        "cgw": cgw,
        "gw2": g,
        "gw_quad_convention": gw_quad,
        "kappa": float(kappa),
        "upper": upper,
        "slack": s,
        "pass": ok,
    }


def robustness_probe(net: DiscreteMeasureNetwork, eps: float, trials: int,
                     config: SolverConfig, ny: DiscreteMeasureNetwork | None = None) -> dict:
    """Multiplicative measure perturbations stay within the robustness bound.

    Each trial scales weights by independent (1 + eta_i), eta uniform in
    [-eps, eps], seeds the solver with the diagonal semi-coupling (original
    measure against perturbed measure on the same support), and checks
    distance <= 2 delta mass sqrt(eps^2 + 4 eps). When a second network is
    supplied, the paired two-sided corollary bound is also checked.
    """
    if not 0 <= eps < 1:
        raise ValueError("eps must lie in [0, 1)")
    check_count("trials", trials, 1)
    delta = config.kernel.delta
    bound = _envelope(delta, net.mass, eps)
    rng = np.random.default_rng(config.seed)
    results = []
    for t in range(trials):
        perturbed = perturb_measure(net, eps, rng)
        seed = _diag_quad(net.weights, perturbed.weights)
        dist, _ = cgw_solve(net, perturbed, dataclasses.replace(config, extra_inits=[seed]))
        results.append({
            "trial": t,
            "tv_gap": tv_gap(net.weights, perturbed.weights),
            "distance": dist,
            "bound": bound,
            "pass": bool(dist <= bound + 1e-9),
        })
    out = {
        "probe": "robustness",
        "eps": eps,
        "delta": delta,
        "mass": net.mass,
        "bound": bound,
        "trials": results,
        "violations": sum(not r["pass"] for r in results),
        "pass": bool(all(r["pass"] for r in results)),
    }
    if ny is not None:
        nxp = perturb_measure(net, eps, rng)
        nyp = perturb_measure(ny, eps, rng)
        d0, _ = cgw_solve(net, ny, config)
        d1, _ = cgw_solve(nxp, nyp, config)
        pair_bound = _envelope(delta, net.mass + ny.mass, eps)
        out["paired"] = {
            "gap": abs(d0 - d1),
            "bound": pair_bound,
            "pass": bool(abs(d0 - d1) <= pair_bound + 2 * slack(max(d0, d1))),
        }
        out["pass"] = bool(out["pass"] and out["paired"]["pass"])
    return out


def gw_fragility_demo(eps: float, f_eps: float) -> dict:
    """Arbitrarily large GW response to an eps-perturbation of the measure.

    Builds the two-point-vs-one-point instance whose clean GW2 distance is 0
    and whose perturbed distance is exactly f_eps; returns both solver values
    with the closed forms, plus the conic robustness bound for contrast.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    if not 0 <= f_eps < np.inf:  # NaN fails too
        raise ValueError(f"f_eps = {f_eps} must be finite and >= 0")
    d = float(np.sqrt(2.0 / ((1 - eps) * eps)) * f_eps)
    wx = np.array([[0.0, d], [d, 0.0]])
    clean = validate_network(np.array([1.0, 0.0]), wx)
    perturbed = validate_network(np.array([1.0 - eps, eps]), wx)
    point = validate_network(np.array([1.0]), np.array([[0.0]]))
    clean_value = gw2_solve(clean, point)[0]
    pert_value = gw2_solve(perturbed, point)[0]
    closed_form = float(np.sqrt((1 - eps) * eps / 2.0) * d)
    cgw_contrast = _envelope(0.5, 2.0, eps)  # delta = 1/2, m_X + m_Y = 2
    return {
        "probe": "gw_fragility",
        "eps": eps,
        "f_eps": f_eps,
        "separation": d,
        "clean_gw2": clean_value,
        "perturbed_gw2": pert_value,
        "closed_form": closed_form,
        "cgw_robustness_bound": cgw_contrast,
        "pass": bool(clean_value <= 1e-9
                     and abs(pert_value - f_eps) <= 1e-6
                     and abs(closed_form - f_eps) <= 1e-9),
    }


def _split_node(w, k, idx):
    """Node idx of the network (w, k) split into two copies of half its weight.

    Returns the split weights w @ R, the split kernel and the refinement map
    R, whose row idx sends half to each copy and whose other rows are unit.
    """
    cols = np.append(np.arange(w.size), idx)
    R = np.eye(w.size)[:, cols]
    R[idx, [idx, w.size]] = 0.5
    return w @ R, k[np.ix_(cols, cols)], R


def weak_iso_probe(net: DiscreteMeasureNetwork, config: SolverConfig) -> dict:
    """Distance to relabeled and point-split copies of a network is zero.

    The exact correspondence coupling is injected as a restart in each case,
    so the solver is guaranteed to certify the weak-isomorphism zero. The
    split and double-split couplings are diag(weights) times the refinement
    maps of the splits.
    """
    rng = np.random.default_rng(config.seed)
    a, k = net.weights, net.kernel
    perm = rng.permutation(net.n)
    # node i sits at slot argsort(perm)[i] of the relabeled copy
    cases = [("permutation", a[perm], k[np.ix_(perm, perm)], np.diag(a)[:, perm])]
    w, pi = a, np.diag(a)
    for name in ("split", "double_split"):
        w, k, R = _split_node(w, k, int(rng.integers(w.size)))
        pi = pi @ R
        cases.append((name, w, k, pi))
    checks = []
    for name, w, k, pi in cases:
        dist, _ = cgw_solve(net, validate_network(w, k),
                            dataclasses.replace(config, extra_inits=[_coupling_quad(pi)]))
        checks.append({"name": name, "distance": dist, "pass": bool(dist <= 1e-5)})
    return {
        "probe": "weak_iso",
        "checks": checks,
        "pass": bool(all(c["pass"] for c in checks)),
    }
