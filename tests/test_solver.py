import dataclasses
import inspect
import tracemalloc
import weakref

import numpy as np
import pytest

from conicot import (
    BaselineConfig,
    SemiCouplingQuadruple,
    SolverConfig,
    SolverReport,
    bca_solve,
    ccot_distance_from_objective,
    cgw_lower_bound,
    cgw_solve,
    cot_solve,
    embed_network_as_hypernetwork,
    gw2_solve,
    make_kernel,
    objective_F,
    pushforward_value_distribution,
    uot_solve,
    validate_network,
)
import conicot.tensor
from conicot import solver
from conicot.errors import DimensionMismatch, NegativeArgument, NegativeSquaredDistance
from conicot.solver import project_to_gamma_bar, update_block
from conicot.tensor import (DistortionTensor, Side, TensorMode, TensorPolicy, build_tensor,
                            contract)
from tests.test_tensor import _knn_adjacency
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
    quad = next(solver._inits(marginals, tensor, config))
    return hx, hy, tensor, marginals, config, quad


def _live(tensor):
    """The masks of the nonvanishing sample- and feature-side Omega slice sums."""
    return tuple(sums != 0.0 for sums in tensor.slice_sums())


# block -> (quadruple field, marginal index, tight axis); a row-tight block is
# the first output of its pair step, a column-tight block the second
_BLOCKS = {"A": ("A", 0, 1), "B": ("B", 1, 0),
           "Aprime": ("Ap", 2, 1), "Bprime": ("Bp", 3, 0)}


def _pair_step(quad, tensor, marginals, block):
    """The contraction K of the block's pair and the pair step (A, B) from
    quad, taken on a copy of the pair so quad stays as it is."""
    a, b, ap, bp = marginals
    if block in ("A", "B"):
        K = contract(tensor, Side.SampleSide, np.sqrt(quad.Ap * quad.Bp))
        pair = quad.A.copy(), quad.B.copy()
        update_block(*pair, K * K, a, b)
        return K, pair
    K = contract(tensor, Side.FeatureSide, np.sqrt(quad.A * quad.B))
    pair = quad.Ap.copy(), quad.Bp.copy()
    update_block(*pair, K * K, ap, bp)
    return K, pair


@pytest.mark.parametrize("block", ["A", "B", "Aprime", "Bprime"])
def test_block_update_beats_random_candidates(rng, block):
    # the closed-form update must dominate feasible alternatives for its block;
    # a second output is checked with the first output in place
    _, _, tensor, marginals, _, quad = _setup(rng)
    field, idx, axis = _BLOCKS[block]
    _, (first, second) = _pair_step(quad, tensor, marginals, block)
    base = dataclasses.replace(quad)
    if axis == 0:
        setattr(base, {"B": "A", "Bprime": "Ap"}[block], first)
    held = dataclasses.replace(base)
    setattr(base, field, first if axis == 1 else second)
    best = objective_F(base, tensor)
    target = marginals[idx]
    for _ in range(40):
        cand = rng.uniform(size=first.shape)
        if axis == 1:
            cand = cand / cand.sum(axis=1, keepdims=True) * target[:, None]
        else:
            cand = cand / cand.sum(axis=0, keepdims=True) * target[None, :]
        trial = dataclasses.replace(held)
        setattr(trial, field, cand)
        assert objective_F(trial, tensor) <= best + 1e-10 * max(1.0, best)


def test_block_update_grid_oracle_1d(rng):
    # a 2-column A row is a 1-parameter family; fine grid confirms the optimum
    _, _, tensor, marginals, _, quad = _setup(rng, dims=(2, 2, 2, 2))
    _, (new, _) = _pair_step(quad, tensor, marginals, "A")
    base = dataclasses.replace(quad)
    base.A = new
    best = objective_F(base, tensor)
    a = marginals[0]
    for t0 in np.linspace(0, 1, 201):
        for t1 in np.linspace(0, 1, 21):
            trial = dataclasses.replace(quad)
            trial.A = np.array([[t0 * a[0], (1 - t0) * a[0]],
                                [t1 * a[1], (1 - t1) * a[1]]])
            assert objective_F(trial, tensor) <= best + 1e-9


def test_bprime_update_uses_complementary_matrix(rng):
    # regression guard: the B' numerator weights must come from the new A',
    # not from B'
    _, _, tensor, marginals, _, quad = _setup(rng)
    quad.Bp = quad.Bp * rng.uniform(0.2, 2.0, size=quad.Bp.shape)
    bp = marginals[3]
    Q, (Ap, new) = _pair_step(quad, tensor, marginals, "Bprime")
    W = Ap * Q * Q
    expected = bp[None, :] * W / W.sum(axis=0, keepdims=True)
    assert np.allclose(new, expected, atol=1e-12)
    # the variant built from B' would score strictly worse here
    Wwrong = quad.Bp * Q * Q
    wrong = bp[None, :] * Wwrong / Wwrong.sum(axis=0, keepdims=True)
    good = dataclasses.replace(quad)
    good.Ap, good.Bp = Ap, new
    bad = dataclasses.replace(quad)
    bad.Ap, bad.Bp = Ap, wrong
    assert objective_F(good, tensor) > objective_F(bad, tensor)


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
    # zeroing line 1 of the partner zeroes line 1 of the block's weights: a
    # row for the first output, a column (through the first output) for the
    # second
    _, _, tensor, marginals, _, quad = _setup(rng)
    _, idx, axis = _BLOCKS[block]
    partner = quad.B if block in ("A", "B") else quad.Bp
    partner[_line(axis, 1)] = 0.0
    K, (first, second) = _pair_step(quad, tensor, marginals, block)
    if axis == 1:
        new, W = first, partner * K * K
    else:
        new, W = second, first * K * K
    _assert_tight_with_line_1_zero(new, W, marginals[idx], axis)


def test_project_to_gamma_bar_vanishing_line_stays_zero(rng):
    _, _, tensor, marginals, _, quad = _setup(rng)
    blocks = (("A", 0, 1), ("B", 1, 0), ("Ap", 2, 1), ("Bp", 3, 0))
    for name, _, axis in blocks:
        getattr(quad, name)[_line(axis, 1)] = 0.0
    fixed = project_to_gamma_bar(quad, _live(tensor), marginals)
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
    assert report.frobenius_gap <= 1e-12
    assert isinstance(report.equality_certified, bool)


def test_frobenius_gap_is_the_returned_quadruple_gap(rng):
    hx = random_hypernetwork(rng, 3, 3)
    hy = random_hypernetwork(rng, 4, 4)
    _, quad, report = bca_solve(hx, hy, SolverConfig(kernel=make_kernel("exp", 0.5),
                                                      max_iters=20))
    assert report.frobenius_gap == float(((quad.A - quad.Ap) ** 2).sum()
                                         + ((quad.B - quad.Bp) ** 2).sum())
    assert report.to_json_dict()["frobenius_gap"] == report.frobenius_gap
    # the sample pair (3 x 4) and the feature pair (4 x 5) cannot be compared
    hx = random_hypernetwork(rng, 3, 4)
    hy = random_hypernetwork(rng, 4, 5)
    _, _, report = bca_solve(hx, hy, SolverConfig(kernel=make_kernel("exp", 0.5),
                                                  max_iters=20))
    assert report.frobenius_gap is None
    assert "frobenius_gap" not in report.to_json_dict()


def test_no_certificate_from_an_unswept_jittered_start(rng):
    # with no sweep the winning restart is a jittered start whose pairs differ;
    # only the measured gap, not the PD check, may refuse the certificate
    nx, ny = random_network(rng, 2), random_network(rng, 2)
    cfg = SolverConfig(kernel=make_kernel("exp", 0.5), max_iters=0, restarts=4)
    _, report = cgw_solve(nx, ny, cfg)
    assert report.best_restart > 0
    assert report.pd_min_eigenvalue >= -1e-9
    assert report.equality_certified is False
    assert report.frobenius_gap > 1e-3


@pytest.mark.parametrize("n, m", [(20, 20), (21, 20)])
def test_pd_min_eigenvalue_is_printed_when_the_pd_check_ran(rng, n, m):
    # the check runs for n * m <= PD_CHECK_CAP = 400 and only then sets the field
    nx, ny = random_network(rng, n), random_network(rng, m)
    cfg = SolverConfig(kernel=make_kernel("exp", 0.5), restarts=1, max_iters=3)
    _, report = cgw_solve(nx, ny, cfg)
    d = report.to_json_dict()
    assert isinstance(d["equality_certified"], bool)
    if n * m <= 400:
        assert report.pd_min_eigenvalue is not None
        assert d["pd_min_eigenvalue"] == report.pd_min_eigenvalue
    else:
        assert report.pd_min_eigenvalue is None and "pd_min_eigenvalue" not in d


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
                "quantization_uncertainty", "wall_time", "config", "frobenius_gap",
                "best_restart"):
        assert key in d
    assert d["best_restart"] == report.best_restart
    assert 0 <= d["best_restart"] < cfg.restarts
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
    fixed = project_to_gamma_bar(loose, _live(tensor), marginals)
    a, b, ap, bp = marginals
    assert np.allclose(fixed.A.sum(axis=1), a)
    assert np.allclose(fixed.B.sum(axis=0), b)
    assert np.allclose(fixed.Ap.sum(axis=1), ap)
    assert np.allclose(fixed.Bp.sum(axis=0), bp)


def test_project_to_gamma_bar_on_a_stack_projects_each_slice(rng):
    _, _, tensor, marginals, _, quad = _setup(rng)
    live = _live(tensor)
    slices = [SemiCouplingQuadruple(*(M * rng.uniform(0.5, 1.5, M.shape)
                                      for M in (quad.A, quad.B, quad.Ap, quad.Bp)))
              for _ in range(3)]
    fixed = project_to_gamma_bar(solver._stack(slices), live, marginals)
    for s, q in enumerate(slices):
        one = project_to_gamma_bar(q, live, marginals)
        for name in ("A", "B", "Ap", "Bp"):
            assert np.array_equal(getattr(fixed, name)[s], getattr(one, name))


def test_slice_sums_once_per_solve(rng, monkeypatch):
    # the Omega-slice masks serve every start of the solve
    hx, hy, tensor, _, _, _ = _setup(rng)
    calls = []
    slice_sums = DistortionTensor.slice_sums

    def counting(self):
        calls.append(1)
        return slice_sums(self)

    monkeypatch.setattr(DistortionTensor, "slice_sums", counting)
    cfg = SolverConfig(kernel=make_kernel("exp", 0.5), restarts=5, max_iters=20)
    _, _, report = bca_solve(hx, hy, cfg)
    assert len(report.restarts) == 5
    assert len(calls) == 1


def test_objective_homogeneity(rng):
    _, _, tensor, _, _, quad = _setup(rng)
    F = objective_F(quad, tensor)
    assert objective_F(quad.scaled(2.0), tensor) == pytest.approx(4 * F, rel=1e-12)


def test_objective_shape_check(rng):
    _, _, tensor, _, _, quad = _setup(rng)
    bad = dataclasses.replace(quad)
    bad.A = np.zeros((7, 7))
    with pytest.raises(DimensionMismatch):
        objective_F(bad, tensor)


_POLICIES = [TensorPolicy(), TensorPolicy(max_dense_bytes=0, quantize_bins=8)]


@pytest.mark.parametrize("policy", _POLICIES, ids=["dense", "factored"])
@pytest.mark.parametrize("seed", range(4))
def test_objective_F_is_a_one_start_stacks_first_objective(policy, seed):
    # the ascent starts from objective_F itself, so the two are equal bit for bit
    r = np.random.default_rng([4, seed])
    hx, hy = random_hypernetwork(r, 5, 4), random_hypernetwork(r, 6, 3)
    config = SolverConfig(kernel=make_kernel("cos" if seed % 2 else "exp", 0.5),
                          restarts=3, max_iters=2, tensor_policy=policy)
    tensor = build_tensor(hx, hy, config.kernel, policy)
    marginals = (hx.sample_weights, hy.sample_weights,
                 hx.feature_weights, hy.feature_weights)
    for start in solver._inits(marginals, tensor, config):
        F = objective_F(start, tensor)  # before the sweeps step the start in place
        (_, _, trace, _), = solver._run_stack([tensor], marginals, [(0, start)], 1, config)
        assert type(F) is float and F == trace[0]


@pytest.mark.parametrize("policy", _POLICIES, ids=["dense", "factored"])
def test_objective_F_of_a_stack_matches_each_slice(rng, policy):
    # a stacked dense contraction is one product, summed in another order
    hx, hy = random_hypernetwork(rng, 5, 4), random_hypernetwork(rng, 6, 3)
    kernels = [make_kernel("exp", 0.5), make_kernel("cos", 0.3)]
    tensors = [build_tensor(hx, hy, k, policy) for k in kernels]
    marginals = (hx.sample_weights, hy.sample_weights,
                 hx.feature_weights, hy.feature_weights)
    starts = list(solver._inits(marginals, tensors[0], SolverConfig(kernel=kernels[0])))
    F = objective_F(solver._stack(starts), tensors[0])
    assert F.shape == (4,)
    for f, start in zip(F, starts):
        assert f == pytest.approx(objective_F(start, tensors[0]), rel=1e-13)
    if policy.fits_dense(tensors[0].dims):  # a mixed stack: one matrix per slice
        mixed = DistortionTensor(TensorMode.Dense, tensors[0].dims,
                                 np.stack([t.matrix for t in tensors]))
        F = objective_F(solver._stack(starts[:2]), mixed)
        for f, start, tensor in zip(F, starts, tensors):
            assert f == pytest.approx(objective_F(start, tensor), rel=1e-13)
    bad = dataclasses.replace(solver._stack(starts), A=np.zeros((4, 7, 7)))
    with pytest.raises(DimensionMismatch):
        objective_F(bad, tensors[0])


def test_run_stack_returns_quadruples(rng):
    # of a single-kernel stack and of a mixed one, whose matrices stay behind
    hx, hy = random_hypernetwork(rng, 4, 3), random_hypernetwork(rng, 5, 3)
    kernels = [make_kernel("exp", 0.5), make_kernel("cos", 0.3)]
    tensors = [build_tensor(hx, hy, k) for k in kernels]
    marginals = (hx.sample_weights, hy.sample_weights,
                 hx.feature_weights, hy.feature_weights)
    config = SolverConfig(kernel=kernels[0], restarts=2, max_iters=5)
    starts = [(k, q) for k, t in enumerate(tensors) for q in solver._inits(marginals, t, config)]
    for size in (2, 4):
        out = solver._run_stack(tensors, marginals, starts[-size:], size, config)
        assert [k for k, *_ in out] == [k for k, _ in starts[-size:]]
        for _, quad, _, _ in out:
            assert type(quad) is SemiCouplingQuadruple and not hasattr(quad, "matrix")
            assert quad.A.shape == (4, 5) and quad.Ap.shape == (3, 3)


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


def test_report_restarts_outcome(rng):
    nx, ny = random_network(rng, 4), random_network(rng, 5)
    cfg = SolverConfig(kernel=make_kernel("exp", 0.5), restarts=3, max_iters=60)
    _, report = cgw_solve(nx, ny, cfg)
    assert len(report.restarts) == cfg.restarts
    for r in report.restarts:
        assert set(r) == {"objective", "sweeps", "stop"}
        assert r["stop"] in ("rel_tol", "max_iters")
        assert r["stop"] == "rel_tol" or r["sweeps"] == cfg.max_iters
    best = report.restarts[report.best_restart]
    assert best["objective"] == report.objective_trace[-1]
    assert best["sweeps"] == report.iterations
    assert (best["stop"] == "rel_tol") == report.converged
    # the best restart is the first with the largest final objective
    objectives = [r["objective"] for r in report.restarts]
    assert report.best_restart == objectives.index(max(objectives))
    assert report.to_json_dict()["restarts"] == report.restarts


# each solve's number of starts at restarts = 3: uot_solve has its product
# and monotone starts, cot_solve its one alternation
_STARTS = {"bca_solve": 3, "cgw_solve": 3, "uot_solve": 2, "cgw_lower_bound": 2,
           "gw2_solve": 3, "cot_solve": 1}


def _solve_with_report(name, max_iters):
    """(value, report) of one solve of a seeded 5- and 6-node network pair."""
    rng = np.random.default_rng(3)
    nx = random_network(rng, 5, unit_mass=True)
    ny = random_network(rng, 6, unit_mass=True)
    hx, hy = embed_network_as_hypernetwork(nx), embed_network_as_hypernetwork(ny)
    config = SolverConfig(kernel=make_kernel("exp", 0.5), restarts=3, max_iters=max_iters)
    bconfig = BaselineConfig(restarts=3, max_iters=max_iters)
    out = {
        "bca_solve": lambda: bca_solve(hx, hy, config)[::2],
        "cgw_solve": lambda: cgw_solve(nx, ny, config),
        "uot_solve": lambda: uot_solve(pushforward_value_distribution(nx),
                                       pushforward_value_distribution(ny),
                                       config.kernel, max_iters),
        "cgw_lower_bound": lambda: cgw_lower_bound(nx, ny, config.kernel, max_iters),
        "gw2_solve": lambda: gw2_solve(nx, ny, bconfig)[::2],
        "cot_solve": lambda: cot_solve(hx, hy, bconfig)[::3],
    }[name]()
    return out if isinstance(out, tuple) else (out.value, out)


@pytest.mark.parametrize("max_iters", [2, 1000])
@pytest.mark.parametrize("name", list(_STARTS))
def test_every_solve_returns_one_report(name, max_iters):
    value, report = _solve_with_report(name, max_iters)
    assert isinstance(report, SolverReport)
    assert report.value == value
    assert len(report.restarts) == _STARTS[name]
    assert report.iterations == len(report.objective_trace) - 1
    for r in report.restarts:
        assert set(r) == {"objective", "sweeps", "stop"}
        assert r["stop"] == "rel_tol" or r["sweeps"] == max_iters
    best = report.restarts[report.best_restart]
    assert report.converged == (best["stop"] == "rel_tol")
    assert (report.objective, report.iterations) == (best["objective"], best["sweeps"])
    # the first best start: the largest conic objective, or the smallest
    # distortion for the balanced baselines
    objectives = [r["objective"] for r in report.restarts]
    first_best = (min if name in ("gw2_solve", "cot_solve") else max)(objectives)
    assert report.best_restart == objectives.index(first_best)
    d = report.to_json_dict()
    assert (d["distance"], d["converged"], d["restarts"]) == (
        value, report.converged, report.restarts)
    # two sweeps stop short of the tolerance on this pair, and a thousand reach it
    assert report.converged == (max_iters == 1000)


def test_update_block_on_a_stack_steps_each_slice(rng):
    _, _, tensor, marginals, _, quad = _setup(rng)
    a, b = marginals[:2]
    K = contract(tensor, Side.SampleSide, np.sqrt(quad.Ap * quad.Bp))
    partners = np.stack([quad.B * rng.uniform(0.5, 1.5, quad.B.shape) for _ in range(3)])
    A, B = np.empty_like(partners), partners.copy()
    update_block(A, B, K * K, a, b)
    for s in range(3):
        As, Bs = np.empty_like(partners[s]), partners[s].copy()
        update_block(As, Bs, K * K, a, b)
        assert np.array_equal(A[s], As) and np.array_equal(B[s], Bs)


def test_update_block_returns_the_objective_of_its_pair(rng):
    # F = Sigma_l sqrt(col_target_l s_l) equals Sigma K sqrt(A B) of the new
    # pair, also with a zero row and column of K and a zero column target
    K = rng.uniform(0.0, 2.0, (5, 6))
    K[1, :] = 0.0
    K[:, 2] = 0.0
    row_target, col_target = rng.uniform(0.5, 1.5, 5), rng.uniform(0.5, 1.5, 6)
    col_target[4] = 0.0
    partners = rng.uniform(0.0, 1.0, (3, 5, 6))
    K2 = K * K
    A, B = np.empty_like(partners), partners.copy()
    F = update_block(A, B, K2, row_target, col_target)
    assert F.shape == (3,)
    assert np.allclose(F, (np.sqrt(K2) * np.sqrt(A * B)).sum((-2, -1)), rtol=1e-13, atol=0)
    for s in range(3):
        As, Bs = np.empty_like(partners[s]), partners[s].copy()
        assert update_block(As, Bs, K2, row_target, col_target) == F[s]


@pytest.mark.parametrize("policy, mode", [
    (TensorPolicy(), TensorMode.Dense),
    (TensorPolicy(max_dense_bytes=1024, quantize_bins=64), TensorMode.Factored),
], ids=["dense", "factored"])
def test_reported_objective_is_objective_F_of_the_best_quadruple(rng, policy, mode):
    # the trace ends at the pair step's F, which must be the F of the quadruple
    hx, hy = random_hypernetwork(rng, 6, 5), random_hypernetwork(rng, 6, 4)
    k = make_kernel("exp", 0.5)
    cfg = SolverConfig(kernel=k, restarts=2, max_iters=30, tensor_policy=policy)
    _, quad, report = bca_solve(hx, hy, cfg)
    tensor = build_tensor(hx, hy, k, policy)
    assert tensor.mode is mode
    assert report.objective_trace[-1] == pytest.approx(objective_F(quad, tensor), rel=1e-12)


def _alone(hx, hy, tensor, config):
    """(objective, sweeps, stop) of each start of a solve swept in a stack of its own."""
    marginals = (hx.sample_weights, hy.sample_weights,
                 hx.feature_weights, hy.feature_weights)
    out = []
    for start in solver._inits(marginals, tensor, config):
        (_, _, trace, stop), = solver._run_stack([tensor], marginals, [(0, start)], 1, config)
        out.append((trace[-1], len(trace) - 1, stop))
    return out


def _assert_stack_matches_alone(nx, ny, config, monkeypatch):
    """Solve once stacked, then each start alone; returns the stack heights."""
    hx, hy = embed_network_as_hypernetwork(nx), embed_network_as_hypernetwork(ny)
    tensor = build_tensor(hx, hy, config.kernel, config.tensor_policy)
    heights = []

    def recording(t, side, M):
        if np.ndim(M) == 3 and side is Side.SampleSide:
            heights.append(len(M))
        return contract(t, side, M)

    with monkeypatch.context() as mp:
        mp.setattr(solver, "contract", recording)
        _, _, report = bca_solve(hx, hy, config)
    alone = _alone(hx, hy, tensor, config)
    assert len(report.restarts) == len(alone)
    for r, (objective, sweeps, stop) in zip(report.restarts, alone):
        assert (r["sweeps"], r["stop"]) == (sweeps, stop)
        assert abs(r["objective"] - objective) <= 1e-12 * abs(objective)
    return report, heights


def test_stacked_restarts_match_each_restart_alone(monkeypatch):
    # one dense stack of five: three starts stop after about 35 sweeps while
    # the others sweep on, one to rel_tol and one to the cap
    rng = np.random.default_rng(0)
    nx, ny = random_network(rng, 5), random_network(rng, 5)
    cfg = SolverConfig(kernel=make_kernel("exp", 0.5), restarts=5, max_iters=100)
    report, heights = _assert_stack_matches_alone(nx, ny, cfg, monkeypatch)
    assert max(heights) == 5
    sweeps = [r["sweeps"] for r in report.restarts]
    stops = [r["stop"] for r in report.restarts]
    assert min(sweeps) < 50 and "rel_tol" in stops and "max_iters" in stops


def test_restarts_span_several_stacks(monkeypatch):
    # a factored 150-node kNN pair: 22,500 entries of A, so two per stack
    rng = np.random.default_rng(1)
    nx, ny = (validate_network(rng.uniform(0.5, 1.5, 150), _knn_adjacency(rng, 150, 4))
              for _ in range(2))
    cfg = SolverConfig(kernel=make_kernel("exp", 0.5), restarts=5, max_iters=3,
                       tensor_policy=TensorPolicy(max_dense_bytes=16 * 150 * 150))
    assert solver._BLOCK_ENTRIES // (150 * 150) == 2
    _, heights = _assert_stack_matches_alone(nx, ny, cfg, monkeypatch)
    assert heights[0] == 2 and heights[-1] == 1


@pytest.mark.parametrize("field, value", [("restarts", 0), ("restarts", -2),
                                          ("max_iters", -5), ("rel_tol", -1e-9),
                                          ("rel_tol", float("nan")), ("restarts", 2.5),
                                          ("max_iters", 2.5), ("max_iters", np.float64(3)),
                                          ("seed", -1), ("seed", 2.5)])
def test_solver_config_rejects_negative_arguments(field, value):
    with pytest.raises(NegativeArgument):
        SolverConfig(kernel=make_kernel("exp", 0.5), **{field: value})


def test_solver_config_takes_numpy_integer_counts():
    cfg = SolverConfig(kernel=make_kernel("exp", 0.5), restarts=np.int64(2),
                       max_iters=np.int32(5))
    assert (cfg.restarts, cfg.max_iters) == (2, 5)


def _far_node_network(rng, n):
    """A unit-mass network whose node 0 lies 5 beyond every other entry: with
    the cosine kernel at delta 1 its Omega slices against a U(0, 1) network
    vanish, at delta 4 they do not."""
    k = rng.uniform(0.0, 1.0, (n, n))
    k[0] += 5.0
    k[:, 0] += 5.0
    w = rng.uniform(0.5, 1.5, n)
    return validate_network(w / w.sum(), k)


def _kernels_in_one_stack(nx, ny, config, deltas, monkeypatch):
    """Solve every delta with bca_solve_kernels, then each alone with
    bca_solve; returns the kernel solves and the stack heights."""
    hx, hy = embed_network_as_hypernetwork(nx), embed_network_as_hypernetwork(ny)
    kernels = [make_kernel(config.kernel.family.value, d) for d in deltas]
    heights = []

    def recording(t, side, M):
        if side is Side.SampleSide:
            heights.append(len(M))
        return contract(t, side, M)

    with monkeypatch.context() as mp:
        mp.setattr(solver, "contract", recording)
        solves = solver.bca_solve_kernels(hx, hy, config, kernels)
    for k, (dist, quad, report) in zip(kernels, solves):
        _, alone_quad, alone = bca_solve(hx, hy, dataclasses.replace(config, kernel=k))
        assert len(report.restarts) == len(alone.restarts)
        for r, a in zip(report.restarts, alone.restarts):
            assert (r["sweeps"], r["stop"]) == (a["sweeps"], a["stop"])
            assert abs(r["objective"] - a["objective"]) <= 1e-12 * abs(a["objective"])
        assert report.best_restart == alone.best_restart
        assert report.config == alone.config
        assert np.allclose(quad.A, alone_quad.A, rtol=1e-9, atol=1e-15)
    return solves, heights


def test_kernels_in_one_stack_match_each_kernel_alone(monkeypatch):
    # all 12 starts of three deltas sweep as one stack; the smallest delta's
    # restarts all stop at rel_tol within 100 sweeps while the others sweep
    # on, so the stack is compacted across kernels
    rng = np.random.default_rng(0)
    nx, ny = random_network(rng, 5), random_network(rng, 4)
    cfg = SolverConfig(kernel=make_kernel("exp", 0.5), restarts=4, max_iters=1000)
    solves, heights = _kernels_in_one_stack(nx, ny, cfg, [0.5, 2.0, 32.0], monkeypatch)
    assert heights[0] == 12
    first = solves[0][2].restarts
    assert all(r["stop"] == "rel_tol" and r["sweeps"] < 100 for r in first)
    assert solves[-1][2].restarts[0]["stop"] == "max_iters"
    assert 8 in heights


def test_kernels_in_one_stack_keep_their_own_slice_masks(monkeypatch):
    # cosine at delta 1 zeroes node 0's Omega slices, at delta 4 it does not
    rng = np.random.default_rng(4)
    nx = _far_node_network(rng, 5)
    ny = validate_network(np.full(4, 0.25), rng.uniform(0.0, 1.0, (4, 4)))
    hx, hy = embed_network_as_hypernetwork(nx), embed_network_as_hypernetwork(ny)
    live = [_live(build_tensor(hx, hy, make_kernel("cos", d)))[0] for d in (1.0, 4.0)]
    assert not live[0][0].any() and live[1].all()
    for restarts, max_iters in ((1, 3), (3, 1000)):
        cfg = SolverConfig(kernel=make_kernel("cos", 1.0), restarts=restarts,
                           max_iters=max_iters)
        solves, heights = _kernels_in_one_stack(nx, ny, cfg, [1.0, 4.0], monkeypatch)
        assert heights[0] == 2 * restarts
        assert not solves[0][1].A[0].any()


def test_large_kernels_are_solved_one_tensor_at_a_time(monkeypatch):
    # 17^4 dense entries exceed _BLOCK_ENTRIES: each delta builds its tensor
    # only after the previous one is gone, and solves as bca_solve alone
    rng = np.random.default_rng(5)
    nx, ny = random_network(rng, 17), random_network(rng, 17)
    assert 17 ** 4 > solver._BLOCK_ENTRIES
    cfg = SolverConfig(kernel=make_kernel("exp", 0.5), restarts=2, max_iters=3)
    alive = []

    def building(*args):
        assert all(ref() is None for ref in alive)
        tensor = build_tensor(*args)
        alive.append(weakref.ref(tensor))
        return tensor

    hx, hy = embed_network_as_hypernetwork(nx), embed_network_as_hypernetwork(ny)
    with monkeypatch.context() as mp:
        mp.setattr(solver, "build_tensor", building)
        solves = solver.bca_solve_kernels(hx, hy, cfg, [make_kernel("exp", d)
                                                         for d in (0.5, 2.0, 8.0)])
    assert len(alive) == 3
    for d, (dist, _, report) in zip((0.5, 2.0, 8.0), solves):
        alone, _, rep = bca_solve(hx, hy, dataclasses.replace(cfg, kernel=make_kernel("exp", d)))
        assert dist == alone and report.restarts == rep.restarts


def test_extra_init_of_the_wrong_shape_names_the_expected_shapes(rng):
    # a 3x3 quadruple for a 3x4 pair would broadcast in the pair step
    hx, hy = random_hypernetwork(rng, 3, 2), random_hypernetwork(rng, 4, 2)
    bad = SemiCouplingQuadruple(*(np.full((3, 3), 0.1) for _ in range(2)),
                                *(np.full((2, 2), 0.1) for _ in range(2)))
    cfg = SolverConfig(kernel=make_kernel("exp", 0.5), extra_inits=[bad])
    with pytest.raises(DimensionMismatch, match=r"\(3, 4\).*\(2, 2\)"):
        bca_solve(hx, hy, cfg)


def test_mixed_stack_restarts_leave_with_their_blocks_only(rng, monkeypatch):
    # four deltas sweep as one stack with one dense matrix per start; the
    # restarts that leave take A, B, A', B' and no copy of their matrix
    nx, ny = random_network(rng, 5), random_network(rng, 5)
    hx, hy = embed_network_as_hypernetwork(nx), embed_network_as_hypernetwork(ny)
    ascend, states = solver._ascend, []

    def recording(*args, **kwargs):
        out = ascend(*args, **kwargs)
        states.extend(state for state, _, _ in out)
        return out

    monkeypatch.setattr(solver, "_ascend", recording)
    cfg = SolverConfig(kernel=make_kernel("exp", 0.5), restarts=4)
    solves = solver.bca_solve_kernels(hx, hy, cfg, [make_kernel("exp", d)
                                                    for d in (0.5, 1.0, 2.0, 4.0)])
    assert len(states) == 16
    assert all(sorted(vars(s)) == ["A", "Ap", "B", "Bp"] for s in states)
    assert all(getattr(s, k).shape == (5, 5) for s in states for k in vars(s))
    # the restarts stop at different sweeps, so most leave while others sweep on
    sweeps = [r["sweeps"] for _, _, report in solves for r in report.restarts]
    assert len(set(sweeps)) > 1


def _shared_and_own_starts(rng, n, m):
    """Two extra starts: one array as all four blocks (as analysis passes a
    coupling), and four arrays of their own."""
    pi = rng.uniform(0.0, 1.0, (n, m))
    return [SemiCouplingQuadruple(pi, pi, pi, pi),
            SemiCouplingQuadruple(*(rng.uniform(0.0, 1.0, (n, m)) for _ in range(4)))]


@pytest.mark.parametrize("n", [5, 260], ids=["one-stack", "stack-per-start"])
def test_bca_solve_leaves_the_callers_extra_inits_as_they_are(rng, n):
    # the sweeps update their stack in place; every start is projected into
    # new arrays first, for small solves stacked and for large ones alone
    if n == 5:
        nx, ny = random_network(rng, n), random_network(rng, n)
        policy = TensorPolicy()
    else:
        nx, ny = (validate_network(np.full(n, 1.0 / n), _knn_adjacency(rng, n, 4))
                  for _ in range(2))
        policy = TensorPolicy(max_dense_bytes=16 * n * n)
        assert n * n > solver._BLOCK_ENTRIES
    extras = _shared_and_own_starts(rng, n, n)
    before = [getattr(q, k).copy() for q in extras for k in ("A", "B", "Ap", "Bp")]
    cfg = SolverConfig(kernel=make_kernel("exp", 0.5), restarts=2, max_iters=5,
                       tensor_policy=policy, extra_inits=extras)
    _, quad, report = bca_solve(embed_network_as_hypernetwork(nx),
                                embed_network_as_hypernetwork(ny), cfg)
    after = [getattr(q, k) for q in extras for k in ("A", "B", "Ap", "Bp")]
    assert all(np.array_equal(x, y) for x, y in zip(before, after))
    assert len(report.restarts) == 4
    assert not any(np.shares_memory(getattr(quad, k), x) for k in vars(quad) for x in after)


def test_project_to_gamma_bar_leaves_its_input_as_it_is(rng):
    _, _, tensor, marginals, _, _ = _setup(rng, dims=(4, 4, 4, 4))
    quad = _shared_and_own_starts(rng, 4, 4)[0]
    pi = quad.A.copy()
    fixed = project_to_gamma_bar(quad, _live(tensor), marginals)
    assert np.array_equal(quad.A, pi) and all(X is quad.A for X in vars(quad).values())
    assert not any(np.shares_memory(X, pi) or np.shares_memory(X, quad.A)
                   for X in vars(fixed).values())


def test_stack_returns_quadruples_that_share_no_memory(rng):
    # restarts that leave early are copied out of the stack, the last ones
    # keep views of it; none of the 16 blocks overlaps another
    _, _, tensor, marginals, config, _ = _setup(rng)
    starts = [(0, start) for start in solver._inits(marginals, tensor, config)]
    out = solver._run_stack([tensor], marginals, starts, 4, config)
    assert len(out) == 4 and len({len(trace) for _, _, trace, _ in out}) > 1
    blocks = [getattr(q, k) for _, q, _, _ in out for k in ("A", "B", "Ap", "Bp")]
    assert not any(np.shares_memory(x, y) for i, x in enumerate(blocks) for y in blocks[:i])


@pytest.mark.parametrize("restarts, bound", [(1, 8.0), (4, 12.0)])
def test_factored_knn_solve_holds_one_stack(restarts, bound):
    # the traced peak of a factored n = 400 kNN solve, in n x m arrays: the
    # stack being swept, the best restart's quadruple (once restarts > 1)
    # and a few temporaries, but no other start
    n = 400
    rng = np.random.default_rng(0)
    nx, ny = (validate_network(np.full(n, 1.0 / n), _knn_adjacency(rng, n, 4))
              for _ in range(2))
    cfg = SolverConfig(kernel=make_kernel("exp", 0.5), restarts=restarts, max_iters=5,
                       rel_tol=0.0, tensor_policy=TensorPolicy(max_dense_bytes=16 * n * n))
    from scipy import sparse  # noqa: F401 -- loaded before tracing, as a solve would
    tracemalloc.start()
    try:
        _, report = cgw_solve(nx, ny, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r["sweeps"] for r in report.restarts] == [5] * restarts
    assert peak <= bound * 8 * n * n


def _knn_pair(rng, n):
    return tuple(validate_network(np.full(n, 1.0 / n), _knn_adjacency(rng, n, 4))
                 for _ in range(2))


def _counting(monkeypatch, module, name, calls, label):
    """Count the calls of module.name in calls[label]."""
    inner = getattr(module, name)
    calls[label] = 0

    def counted(*args, **kwargs):
        calls[label] += 1
        return inner(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("family, delta, slice_sums", [("exp", 0.5, 0), ("cos", 0.3, 1)])
def test_factored_solve_takes_slice_sums_only_when_its_table_has_a_zero(
        rng, monkeypatch, family, delta, slice_sums):
    # a binary kNN pair: exp at delta 0.5 gives an all-positive 2 x 2 Omega
    # table, so every slice is live and the solve contracts only in its
    # objective and sweeps; cos at delta 0.3 gives [[1, 0], [0, 1]], and the
    # masks still come from one slice_sums
    nx, ny = _knn_pair(rng, 40)
    cfg = SolverConfig(kernel=make_kernel(family, delta), restarts=3, max_iters=4,
                       rel_tol=0.0, tensor_policy=TensorPolicy(max_dense_bytes=1024))
    table = build_tensor(embed_network_as_hypernetwork(nx), embed_network_as_hypernetwork(ny),
                         cfg.kernel, cfg.tensor_policy).omega_table
    assert table.all() == (slice_sums == 0)
    calls = {}
    _counting(monkeypatch, DistortionTensor, "slice_sums", calls, "slice_sums")
    for module in (solver, conicot.tensor):  # the solver's and slice_sums' binding
        _counting(monkeypatch, module, "contract", calls, module.__name__)
    _, report = cgw_solve(nx, ny, cfg)
    assert [r["sweeps"] for r in report.restarts] == [4] * 3
    assert calls["slice_sums"] == slice_sums
    assert calls["conicot.solver"] == 1 + 2 * cfg.max_iters  # one stack of 3 restarts
    assert calls["conicot.tensor"] == 2 * slice_sums


def _masked_starts(marginals, tensor, config):
    """Every start as _inits made it with Omega-slice masks from slice_sums
    alone: product and jittered pairs, each zeroed off its mask and made
    tight, then the extra starts."""
    live = _live(tensor)
    rng = np.random.default_rng(config.seed)
    for r in range(config.restarts):
        blocks = []
        for row, col in (marginals[:2], marginals[2:]):
            A, B = solver._product_pair(np.asarray(row), np.asarray(col))
            if r > 0:
                for M in (A, B):
                    M *= 1.0 + rng.uniform(-0.1, 0.1, size=M.shape)
            blocks += [A, B]
        yield project_to_gamma_bar(SemiCouplingQuadruple(*blocks), live, marginals)
    for extra in config.extra_inits:
        yield project_to_gamma_bar(extra, live, marginals)


@pytest.mark.parametrize("family, delta, kind", [
    ("exp", 0.5, "binary"), ("exp", 0.5, "quantized"), ("cos", 0.1, "quantized"),
    ("cos", 1.0, "vanishing")])
def test_starts_equal_those_projected_with_slice_sum_masks(rng, family, delta, kind):
    # with or without a zero in the factored Omega table, every start is bit
    # for bit the one that masks from slice_sums() != 0 give; in the last
    # case node 0's sample-side slices vanish
    if kind == "binary":
        hx, hy = (embed_network_as_hypernetwork(net) for net in _knn_pair(rng, 30))
    elif kind == "quantized":
        hx, hy = random_hypernetwork(rng, 9, 7), random_hypernetwork(rng, 8, 6)
    else:
        hx = embed_network_as_hypernetwork(_far_node_network(rng, 9))
        hy = random_hypernetwork(rng, 8, 8)
    shapes = 2 * [(hx.n_samples, hy.n_samples)] + 2 * [(hx.n_features, hy.n_features)]
    extra = SemiCouplingQuadruple(*(rng.uniform(0.0, 1.0, shape) for shape in shapes))
    cfg = SolverConfig(kernel=make_kernel(family, delta), restarts=3, extra_inits=[extra])
    tensor = build_tensor(hx, hy, cfg.kernel, TensorPolicy(max_dense_bytes=1024))
    assert tensor.mode is TensorMode.Factored
    assert tensor.omega_table.all() == (family == "exp")
    if kind == "vanishing":
        assert not _live(tensor)[0].all()
    marginals = (hx.sample_weights, hy.sample_weights, hx.feature_weights, hy.feature_weights)
    got = list(solver._inits(marginals, tensor, cfg))
    want = list(_masked_starts(marginals, tensor, cfg))
    assert len(got) == len(want) == cfg.restarts + len(cfg.extra_inits)
    for g, w in zip(got, want):
        for name in ("A", "B", "Ap", "Bp"):
            assert np.array_equal(getattr(g, name), getattr(w, name))


@pytest.mark.parametrize("family, delta", [("cos", 0.3), ("exp", 0.5)])
def test_each_kernels_inits_are_closed_once_its_starts_are_taken(rng, monkeypatch,
                                                                family, delta):
    # n m = 40000 entries: one start per stack. _inits is suspended while
    # the first stack sweeps, and closed, with the Omega-slice masks that
    # cos forms, once the second and last start is taken
    gens, states = [], []

    def recording(*args):
        gens.append(inits(*args))
        return gens[-1]

    def ascending(*args):
        states.append([inspect.getgeneratorstate(g) for g in gens])
        return ascend(*args)

    inits, ascend = solver._inits, solver._ascend
    monkeypatch.setattr(solver, "_inits", recording)
    monkeypatch.setattr(solver, "_ascend", ascending)
    nx, ny = _knn_pair(rng, 200)
    cfg = SolverConfig(kernel=make_kernel(family, delta), restarts=2, max_iters=2,
                       tensor_policy=TensorPolicy(max_dense_bytes=16 * 200 * 200))
    cgw_solve(nx, ny, cfg)
    assert states == [[inspect.GEN_SUSPENDED], [inspect.GEN_CLOSED]]
