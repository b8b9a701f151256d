"""End-to-end acceptance checks for the conic transport stack.

Each test exercises one advertised guarantee at its stated tolerance:
monotone ascent, agreement with exhaustive grid oracles on tiny instances,
weak-isomorphism zeros, the bound sandwich, measure-scaling and robustness
envelopes, the large-delta limit, coupling-pair equality, the squares
classification pipeline, factored-path scalability, and synthetic alignment
recovery.  These are slower than the unit tests and are meant to run as a
gate, not in a tight edit loop.
"""

import dataclasses
import time

import numpy as np
import pytest

import conicot as c
from conicot import SemiCouplingQuadruple
from conicot.analysis import (
    delta_sweep,
    gw_fragility_demo,
    robustness_probe,
    verify_bound_sandwich,
    verify_scaling,
    weak_iso_probe,
)
from conicot.cone import _ccot_d2
from conicot.solver import bca_solve
from conicot.uot import cgw_lower_bound
from tests.conftest import tensor_oracle


# ---------------------------------------------------------------- helpers

def pointcloud_net(rng, n, diameter=None):
    """Metric network from a random planar point cloud, random weights."""
    pts = rng.normal(size=(n, 2))
    K = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    if diameter is not None:
        K *= diameter / K.max()
    w = rng.uniform(0.5, 1.5, n)
    return c.validate_network(w / w.sum(), K)


def knn_net(rng, n, k, symmetric=False):
    """Binary k-nearest-neighbour adjacency network with uniform weights."""
    pts = rng.normal(size=(n, 2))
    d2 = ((pts[:, None] - pts[None]) ** 2).sum(-1)
    np.fill_diagonal(d2, np.inf)
    order = np.argsort(d2, axis=1, kind="stable")
    adj = np.zeros((n, n))
    adj[np.repeat(np.arange(n), k), order[:, :k].ravel()] = 1.0
    if symmetric:
        adj = np.maximum(adj, adj.T)
    return c.validate_network(np.full(n, 1.0 / n), adj)


def grid_cgw(nx, ny, kernel, res=0.02):
    """Exhaustive grid search over 2x2 semi-coupling entries.

    A's rows and B's columns are tight, leaving four free fractions; each is
    swept on a grid of the given resolution and the bilinear objective is
    evaluated at every combination with the same coupling pair on both axes.
    """
    hx = c.embed_network_as_hypernetwork(nx)
    hy = c.embed_network_as_hypernetwork(ny)
    Td = tensor_oracle(hx, hy, kernel)
    Tq = np.einsum("ijkl->ikjl", Td).reshape(4, 4)
    a, b = nx.weights, ny.weights
    ts = np.arange(0.0, 1.0 + 1e-12, res)
    t0, t1, s0, s1 = np.meshgrid(ts, ts, ts, ts, indexing="ij")
    A = np.stack([t0 * a[0], (1 - t0) * a[0], t1 * a[1], (1 - t1) * a[1]])
    B = np.stack([s0 * b[0], s1 * b[1], (1 - s0) * b[0], (1 - s1) * b[1]])
    M = np.sqrt(A * B)
    F = np.einsum("p...,pq,q...->...", M, Tq, M)
    flat = int(np.argmax(F))
    idx = np.unravel_index(flat, F.shape)
    A_best = A[(slice(None),) + idx].reshape(2, 2)
    B_best = B[(slice(None),) + idx].reshape(2, 2)
    masses = (a.sum(), a.sum(), b.sum(), b.sum())
    # round-off below zero clamps to 0, within this oracle's own 1e-6 bound
    d2 = _ccot_d2(float(F[idx]), masses, kernel.delta)
    assert d2 >= -1e-6 * max(1.0, abs(_ccot_d2(0.0, masses, kernel.delta)))
    dist = float(np.sqrt(max(d2, 0.0)))
    quad = SemiCouplingQuadruple(A_best, B_best, A_best.copy(), B_best.copy())
    return dist, quad


def grid_gw2(nx, ny, res=0.0005):
    """GW2 value on 2-point unit-mass networks by sweeping the one free
    coupling entry; returns the halved-norm convention used by gw2_solve."""
    a, b = nx.weights, ny.weights
    lo, hi = max(0.0, a[0] + b[0] - 1.0), min(a[0], b[0])
    p = np.linspace(lo, hi, max(2, int(round((hi - lo) / res)) + 1))
    pis = np.stack([p, a[0] - p, b[0] - p, 1 - a[0] - b[0] + p], axis=1)
    D = np.abs(nx.kernel[:, None, :, None] - ny.kernel[None, :, None, :]) ** 2
    obj = np.einsum("np,pq,nq->n", pis, D.reshape(4, 4), pis)
    return 0.5 * float(np.sqrt(obj.min()))


# ------------------------------------------------------------ 1: ascent

def test_monotone_ascent_over_random_instances():
    t_start = time.perf_counter()
    rng = np.random.default_rng(11)
    for trial in range(100):
        n, np_, m, mp = rng.integers(2, 9, size=4)
        hx = c.validate_hypernetwork(rng.uniform(0.2, 1.0, n),
                                     rng.uniform(0.2, 1.0, m),
                                     rng.uniform(0.0, 1.0, (n, m)))
        hy = c.validate_hypernetwork(rng.uniform(0.2, 1.0, np_),
                                     rng.uniform(0.2, 1.0, mp),
                                     rng.uniform(0.0, 1.0, (np_, mp)))
        kern = c.make_kernel("cos" if trial % 2 else "exp", 0.5)
        cfg = c.SolverConfig(kernel=kern, restarts=2, max_iters=40,
                             seed=trial)
        _, _, report = bca_solve(hx, hy, cfg)
        trace = report.objective_trace
        for f_prev, f_next in zip(trace, trace[1:]):
            assert f_next >= f_prev - 1e-10 * max(1.0, f_prev)
    assert time.perf_counter() - t_start < 60.0


# ------------------------------------------------- 2: grid oracle, 2x2

def test_solver_matches_grid_oracle_on_2x2_networks():
    t_start = time.perf_counter()
    for trial in range(20):
        rng = np.random.default_rng(200 + trial)
        nx = pointcloud_net(rng, 2)
        ny = pointcloud_net(rng, 2)
        kern = c.make_kernel("cos" if trial % 2 else "exp", 0.5)
        oracle, oracle_quad = grid_cgw(nx, ny, kern)
        # seeding with the grid argmax certifies solver >= grid objective,
        # so the two can only differ by grid resolution and the relaxation
        cfg = c.SolverConfig(kernel=kern, restarts=4, seed=trial,
                             extra_inits=[oracle_quad])
        dist, _ = c.cgw_solve(nx, ny, cfg)
        assert abs(dist - oracle) <= 0.01 * max(oracle, 1e-9)
    assert time.perf_counter() - t_start < 300.0


# --------------------------------------------- 3: weak-isomorphism zero

def test_weak_isomorphism_probes_return_zero():
    for trial in range(10):
        rng = np.random.default_rng(500 + trial)
        net = pointcloud_net(rng, int(rng.integers(2, 7)))
        kern = c.make_kernel("cos" if trial % 2 else "exp", 0.5)
        out = weak_iso_probe(net, c.SolverConfig(kernel=kern, seed=trial))
        for check in out["checks"]:
            assert check["distance"] <= 1e-5, check


# -------------------------------------------------- 4: bound sandwich

def test_bound_sandwich_with_oracle_certified_2x2_subset():
    for trial in range(20):
        rng = np.random.default_rng(400 + trial)
        if trial < 8:
            nx, ny = pointcloud_net(rng, 2), pointcloud_net(rng, 2)
        else:
            nx = pointcloud_net(rng, int(rng.integers(3, 7)))
            ny = pointcloud_net(rng, int(rng.integers(2, 7)))
        kern = c.make_kernel("cos" if trial % 2 else "exp", 0.5)
        cfg = c.SolverConfig(kernel=kern, restarts=4, seed=trial)
        out = verify_bound_sandwich(nx, ny, cfg)
        assert out["pass"], out
        if nx.n == 2 and ny.n == 2:
            oracle_cgw, _ = grid_cgw(nx, ny, kern)
            oracle_gw = grid_gw2(nx, ny)
            upper = out["kappa"] * np.sqrt(2.0) * oracle_gw
            lower = cgw_lower_bound(nx, ny, kern).value
            s = 0.02 * max(oracle_cgw, upper) + 1e-6
            assert lower <= oracle_cgw + s
            assert oracle_cgw <= upper + s
            assert abs(out["cgw"] - oracle_cgw) <= 0.01 * max(oracle_cgw, 1e-9)


# ------------------------------------------------------- 5: scaling

def test_measure_scaling_bound_and_homogeneity():
    for trial in range(20):
        rng = np.random.default_rng(600 + trial)
        net = pointcloud_net(rng, int(rng.integers(2, 7)))
        r = 0.0 if trial == 0 else float(rng.uniform(0.1, 2.5))
        s = float(rng.uniform(0.1, 2.5))
        kern = c.make_kernel("cos" if trial % 2 else "exp", 0.5)
        out = verify_scaling(net, r, s, c.SolverConfig(kernel=kern, seed=trial))
        by_name = {ch["name"]: ch for ch in out["checks"]}
        mass = float(net.weights.sum())
        assert by_name["scale_bound"]["distance"] <= abs(r - s) * mass + 1e-6
        assert by_name["homogeneity"]["objective_rel_err"] <= 1e-9
        assert by_name["homogeneity"]["distance_sq_rel_err"] <= 1e-9


# ------------------------------------------------- 6: large-delta limit

def test_large_delta_sweep_approaches_gw_reference():
    t_start = time.perf_counter()
    deltas = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    for kern_name in ("cos", "exp"):
        for trial in range(5):
            rng = np.random.default_rng(300 + trial)
            nx = pointcloud_net(rng, 5, diameter=1.0)
            ny = pointcloud_net(rng, 5, diameter=1.0)
            cfg = c.SolverConfig(kernel=c.make_kernel(kern_name, 0.5),
                                 restarts=4, seed=trial)
            out = delta_sweep(nx, ny, deltas, cfg)
            assert out["rows"][-1]["rel_gap"] <= 0.05
            assert out["final_gap_is_min"]
    assert time.perf_counter() - t_start < 600.0


# ------------------------------------------------------ 7: robustness

def test_robustness_bound_and_gw_fragility():
    rng = np.random.default_rng(700)
    net = pointcloud_net(rng, 6)
    cfg = c.SolverConfig(kernel=c.make_kernel("exp", 0.5), seed=7)
    for eps in (0.01, 0.05, 0.1):
        out = robustness_probe(net, eps, trials=10, config=cfg)
        assert out["violations"] == 0, out

    demo = gw_fragility_demo(eps=0.1, f_eps=0.7)
    assert demo["clean_gw2"] <= 1e-9
    assert abs(demo["perturbed_gw2"] - 0.7) <= 1e-6


# ---------------------------------------- 8: coupling-pair equality

def test_coupling_pair_gap_vanishes_on_adjacency_pairs():
    gap_ok = 0
    unseeded_ok = 0
    for trial in range(20):
        rng = np.random.default_rng(trial)
        n = 10 if trial % 2 == 0 else 20
        nx = knn_net(rng, n, k=3, symmetric=True)
        adj = nx.kernel.copy()
        flips = 0
        while flips < 2:
            i, j = rng.integers(n), rng.integers(n)
            if i == j:
                continue
            adj[i, j] = adj[j, i] = 1.0 - adj[i, j]
            flips += 1
        ny = c.validate_network(nx.weights, adj)
        pi = np.diag(nx.weights)
        cfg = c.SolverConfig(
            kernel=c.make_kernel("exp", 0.25), restarts=1, max_iters=1000,
            rel_tol=1e-14, seed=trial,
            extra_inits=[SemiCouplingQuadruple(pi.copy(), pi.copy(),
                                               pi.copy(), pi.copy())])
        _, report = c.cgw_solve(nx, ny, cfg)
        if report.frobenius_gap < 1e-6:
            gap_ok += 1
        # the product start alone, without the identity seed, closes the gap too
        _, report = c.cgw_solve(nx, ny, dataclasses.replace(cfg, extra_inits=[]))
        if report.frobenius_gap < 1e-6:
            unseeded_ok += 1
    assert gap_ok == 20
    assert unseeded_ok == 20


# ------------------------------------------- 9: squares classification

def test_squares_knn_classification_error():
    t_start = time.perf_counter()
    imgs = (c.gen_squares(50, g=4, side=3, image_size=32, seed=100)
            + c.gen_squares(50, g=4, side=5, image_size=32, seed=200))
    labels = np.array([0] * 50 + [1] * 50)

    nets = [c.image_to_network(img, n_sample=60, knn=4, seed=1000 + 37 * i)
            for i, img in enumerate(imgs)]
    policy = c.TensorPolicy(max_dense_bytes=16 * 60 * 60)  # force factored
    cfg = c.SolverConfig(kernel=c.make_kernel("exp", 0.5), restarts=1,
                         max_iters=100, rel_tol=1e-8, tensor_policy=policy)
    refs = nets[:5] + nets[50:55]
    feats = np.zeros((100, len(refs)))
    for i, net in enumerate(nets):
        for j, ref in enumerate(refs):
            feats[i, j] = c.cgw_solve(net, ref, cfg)[0]

    err80, _ = c.knn_classify(feats, labels, k=15, label_rate=0.8,
                              trials=100, seed=0)
    err20, _ = c.knn_classify(feats, labels, k=15, label_rate=0.2,
                              trials=100, seed=0)
    assert err80 <= 0.30
    assert err80 <= err20
    assert time.perf_counter() - t_start < 1800.0


# --------------------------------------------------- 10: scalability

def test_factored_path_scales_and_matches_dense():
    rng = np.random.default_rng(0)
    n = 1000
    nx, ny = knn_net(rng, n, k=4), knn_net(rng, n, k=4)
    policy = c.TensorPolicy(max_dense_bytes=16 * n * n)
    cfg = c.SolverConfig(kernel=c.make_kernel("exp", 0.5), restarts=1,
                         max_iters=100, rel_tol=0.0, tensor_policy=policy)
    t_start = time.perf_counter()
    c.cgw_solve(nx, ny, cfg)
    assert time.perf_counter() - t_start <= 600.0

    rng = np.random.default_rng(1)
    sx, sy = knn_net(rng, 60, k=4), knn_net(rng, 60, k=4)
    small = c.SolverConfig(kernel=c.make_kernel("exp", 0.5), restarts=2,
                           max_iters=100, rel_tol=1e-10)
    d_dense, _ = c.cgw_solve(sx, sy, small)
    forced = c.SolverConfig(kernel=c.make_kernel("exp", 0.5), restarts=2,
                            max_iters=100, rel_tol=1e-10,
                            tensor_policy=c.TensorPolicy(
                                max_dense_bytes=16 * 60 * 60))
    d_fact, _ = c.cgw_solve(sx, sy, forced)
    assert abs(d_dense - d_fact) <= 1e-9


# --------------------------------------------- 11: synthetic alignment

def test_synthetic_alignment_recovery():
    cfg = c.SolverConfig(kernel=c.make_kernel("exp", 0.2), restarts=2,
                         max_iters=150, rel_tol=1e-9)

    hx, hy, corr = c.gen_aligned_hypernetworks(500, 10, 10, noise=0.1, seed=0)
    _, quad, _ = bca_solve(hx, hy, cfg)
    score = c.foscttm(np.sqrt(quad.A * quad.B), corr["cells"])
    assert score <= 0.15

    hx2, hy2, corr2 = c.gen_aligned_hypernetworks(500, 5, 10, noise=0.1,
                                                  seed=1)
    _, quad2, _ = bca_solve(hx2, hy2, cfg)
    feat_match = np.sqrt(quad2.Ap * quad2.Bp)
    hits = sum(int(np.argmax(feat_match[f]) == g) for f, g in corr2["features"])
    assert hits >= 0.8 * len(corr2["features"])
