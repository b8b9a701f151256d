import numpy as np
import pytest

from conicot import (
    SemiCouplingQuadruple,
    SolverConfig,
    bca_solve,
    ccot_distance_from_objective,
    cgw_solve,
    embed_network_as_hypernetwork,
    make_kernel,
    objective_F,
    validate_network,
)
from conicot.errors import DimensionMismatch, NegativeSquaredDistance
from conicot.solver import init_interior, project_to_gamma_bar, update_block
from conicot.tensor import Side, build_tensor, contract
from tests.conftest import random_hypernetwork, random_network


def _setup(rng, dims=(3, 4, 3, 4), kernel_name="exp", delta=0.5):
    n, np_, m, mp = dims
    hx = random_hypernetwork(rng, n, np_)
    hy = random_hypernetwork(rng, m, mp)
    k = make_kernel(kernel_name, delta)
    tensor = build_tensor(hx, hy, k)
    marginals = (hx.sample_weights, hy.sample_weights,
                 hx.feature_weights, hy.feature_weights)
    config = SolverConfig(kernel=k)
    quad = init_interior(marginals, tensor, config)
    return hx, hy, tensor, marginals, config, quad


@pytest.mark.parametrize("block", ["A", "B", "Aprime", "Bprime"])
def test_block_update_beats_random_candidates(rng, block):
    # the closed-form update must dominate feasible alternatives for its block
    _, _, tensor, marginals, _, quad = _setup(rng)
    new = update_block(block, quad, tensor, marginals)
    base = quad.copy()
    setattr(base, {"A": "A", "B": "B", "Aprime": "Ap", "Bprime": "Bp"}[block], new)
    best = objective_F(base, tensor)
    a, b, ap, bp = marginals
    axis_row = block in ("A", "Aprime")
    target = {"A": a, "B": b, "Aprime": ap, "Bprime": bp}[block]
    shape = new.shape
    for _ in range(40):
        cand = rng.uniform(size=shape)
        if axis_row:
            cand = cand / cand.sum(axis=1, keepdims=True) * target[:, None]
        else:
            cand = cand / cand.sum(axis=0, keepdims=True) * target[None, :]
        trial = quad.copy()
        setattr(trial, {"A": "A", "B": "B", "Aprime": "Ap", "Bprime": "Bp"}[block],
                cand)
        assert objective_F(trial, tensor) <= best + 1e-10 * max(1.0, best)


def test_block_update_grid_oracle_1d(rng):
    # a 2-column A row is a 1-parameter family; fine grid confirms the optimum
    _, _, tensor, marginals, _, quad = _setup(rng, dims=(2, 2, 2, 2))
    new = update_block("A", quad, tensor, marginals)
    base = quad.copy()
    base.A = new
    best = objective_F(base, tensor)
    a = marginals[0]
    for t0 in np.linspace(0, 1, 201):
        for t1 in np.linspace(0, 1, 21):
            trial = quad.copy()
            trial.A = np.array([[t0 * a[0], (1 - t0) * a[0]],
                                [t1 * a[1], (1 - t1) * a[1]]])
            assert objective_F(trial, tensor) <= best + 1e-9


def test_bprime_update_uses_complementary_matrix(rng):
    # regression guard: the B' numerator weights must come from A', not B'
    _, _, tensor, marginals, _, quad = _setup(rng)
    quad.Ap = quad.Ap * rng.uniform(0.2, 2.0, size=quad.Ap.shape)
    bp = marginals[3]
    from conicot.tensor import Side, contract

    Q = contract(tensor, Side.FeatureSide, np.sqrt(quad.A * quad.B))
    new = update_block("Bprime", quad, tensor, marginals)
    W = quad.Ap * Q * Q
    expected = bp[None, :] * W / W.sum(axis=0, keepdims=True)
    assert np.allclose(new, expected, atol=1e-12)
    # the variant built from B' would score strictly worse here
    Wwrong = quad.Bp * Q * Q
    wrong = bp[None, :] * Wwrong / Wwrong.sum(axis=0, keepdims=True)
    good = quad.copy()
    good.Bp = new
    bad = quad.copy()
    bad.Bp = wrong
    assert objective_F(good, tensor) > objective_F(bad, tensor)


# block -> (complementary matrix, marginal index, tight axis)
_PARTNER = {"A": ("B", 0, 1), "B": ("A", 1, 0),
            "Aprime": ("Bp", 2, 1), "Bprime": ("Ap", 3, 0)}


def _line(axis, idx):
    return (idx, slice(None)) if axis == 1 else (slice(None), idx)


def _assert_tight_with_line_1_zero(new, W, target, axis):
    # line 1 of W is zero: that line of the result is exactly zero, the
    # others are tight to target and equal target * W / sum(W)
    target = np.asarray(target)
    live = np.arange(target.size) != 1
    assert (new[_line(axis, 1)] == 0.0).all()
    assert np.allclose(new.sum(axis=axis)[live], target[live], rtol=0, atol=1e-12)
    with np.errstate(invalid="ignore"):
        expected = W / W.sum(axis=axis, keepdims=True) \
            * (target[:, None] if axis == 1 else target[None, :])
    expected[_line(axis, 1)] = 0.0
    assert np.allclose(new, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("block", ["A", "B", "Aprime", "Bprime"])
def test_block_update_vanishing_line_stays_zero(rng, block):
    _, _, tensor, marginals, _, quad = _setup(rng)
    partner, idx, axis = _PARTNER[block]
    getattr(quad, partner)[_line(axis, 1)] = 0.0
    if block in ("A", "B"):
        PQ = contract(tensor, Side.SampleSide, np.sqrt(quad.Ap * quad.Bp))
    else:
        PQ = contract(tensor, Side.FeatureSide, np.sqrt(quad.A * quad.B))
    new = update_block(block, quad, tensor, marginals)
    W = getattr(quad, partner) * PQ * PQ
    _assert_tight_with_line_1_zero(new, W, marginals[idx], axis)


def test_project_to_gamma_bar_vanishing_line_stays_zero(rng):
    _, _, tensor, marginals, _, quad = _setup(rng)
    blocks = (("A", 0, 1), ("B", 1, 0), ("Ap", 2, 1), ("Bp", 3, 0))
    for name, _, axis in blocks:
        getattr(quad, name)[_line(axis, 1)] = 0.0
    fixed = project_to_gamma_bar(quad, tensor, marginals)
    for name, idx, axis in blocks:
        _assert_tight_with_line_1_zero(getattr(fixed, name), getattr(quad, name),
                                       marginals[idx], axis)


def test_monotone_ascent_small_instances(rng):
    for trial in range(10):
        r = np.random.default_rng(trial)
        hx = random_hypernetwork(r, int(r.integers(2, 6)), int(r.integers(2, 6)))
        hy = random_hypernetwork(r, int(r.integers(2, 6)), int(r.integers(2, 6)))
        name = "cos" if trial % 2 else "exp"
        cfg = SolverConfig(kernel=make_kernel(name, 0.5), max_iters=50, restarts=2)
        _, _, report = bca_solve(hx, hy, cfg)
        tr = report.objective_trace
        for u, v in zip(tr, tr[1:]):
            assert v >= u - 1e-10 * max(1.0, u)


def test_self_distance_zero_with_identity_seed(rng):
    net = random_network(rng, 5, unit_mass=True)
    seed = SemiCouplingQuadruple(*(np.diag(net.weights),) * 4)
    cfg = SolverConfig(kernel=make_kernel("exp", 0.5), extra_inits=[seed])
    dist, report = cgw_solve(net, net, cfg)
    assert dist <= 1e-6
    assert report.frobenius_gap_trace[-1] <= 1e-12
    assert isinstance(report.equality_certified, bool)


def test_report_fields(rng):
    nx = random_network(rng, 4, unit_mass=True)
    ny = random_network(rng, 5, unit_mass=True)
    cfg = SolverConfig(kernel=make_kernel("exp", 0.5))
    dist, report = cgw_solve(nx, ny, cfg)
    assert dist >= 0
    assert report.converged
    assert report.pd_min_eigenvalue is not None
    d = report.to_json_dict()
    for key in ("distance", "objective", "iterations", "converged",
                "quantization_uncertainty", "config", "frobenius_gap"):
        assert key in d
    assert d["config"]["kernel"] == "exp"


def test_degenerate_all_mass_forced_zero():
    # constant kernels separated far beyond the cosine support: every tensor
    # entry vanishes, so the optimum is total destruction/creation of mass
    nx = validate_network([1.0, 1.0], np.zeros((2, 2)))
    ny = validate_network([1.0], np.array([[10.0]]))
    cfg = SolverConfig(kernel=make_kernel("cos", 1.0))
    dist, report = cgw_solve(nx, ny, cfg)
    expected = np.sqrt(4 * 1.0 * (2.0**2 + 1.0**2))
    assert dist == pytest.approx(expected)
    assert report.converged


def test_project_to_gamma_bar_tightens_marginals(rng):
    _, _, tensor, marginals, _, quad = _setup(rng)
    loose = quad.scaled(0.3)
    fixed = project_to_gamma_bar(loose, tensor, marginals)
    a, b, ap, bp = marginals
    assert np.allclose(fixed.A.sum(axis=1), a)
    assert np.allclose(fixed.B.sum(axis=0), b)
    assert np.allclose(fixed.Ap.sum(axis=1), ap)
    assert np.allclose(fixed.Bp.sum(axis=0), bp)


def test_objective_homogeneity(rng):
    _, _, tensor, _, _, quad = _setup(rng)
    F = objective_F(quad, tensor)
    assert objective_F(quad.scaled(2.0), tensor) == pytest.approx(4 * F, rel=1e-12)


def test_objective_shape_check(rng):
    _, _, tensor, _, _, quad = _setup(rng)
    bad = quad.copy()
    bad.A = np.zeros((7, 7))
    with pytest.raises(DimensionMismatch):
        objective_F(bad, tensor)


def test_distance_from_objective_clamp():
    masses = (1.0, 1.0, 1.0, 1.0)
    # F slightly above the mass term from round-off is clamped to zero
    d = ccot_distance_from_objective(1.0 + 1e-14, masses, 0.5)
    assert d == 0.0
    with pytest.raises(NegativeSquaredDistance):
        ccot_distance_from_objective(1.5, masses, 0.5)


def test_restarts_deterministic(rng):
    nx = random_network(np.random.default_rng(7), 5, unit_mass=True)
    ny = random_network(np.random.default_rng(8), 5, unit_mass=True)
    cfg = SolverConfig(kernel=make_kernel("cos", 0.5), restarts=3, seed=11)
    d1, _ = cgw_solve(nx, ny, cfg)
    d2, _ = cgw_solve(nx, ny, cfg)
    assert d1 == d2
