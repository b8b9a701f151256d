import numpy as np
import pytest

from conicot import (
    DiscreteValueMeasure,
    SemiCouplingQuadruple,
    SolverConfig,
    bca_solve,
    cgw_lower_bound,
    make_kernel,
    pushforward_value_distribution,
    uot_solve,
    validate_hypernetwork,
    validate_network,
)
from conicot.cone import omega_of_gap
from conicot.errors import (LengthMismatch, NegativeArgument, NegativeWeight,
                            NonFiniteEntry, NonSquareKernel)
from conicot.solver import _product_pair, _tight, update_block
from conicot.uot import COALESCE_TOL, REL_TOL, _monotone_plan
from tests.conftest import random_network


def test_pushforward_masses_and_coalescing():
    net = validate_network([0.5, 0.5], np.array([[0.0, 1.0], [1.0, 0.0]]))
    nu = pushforward_value_distribution(net)
    # values 0 (two diagonal cells) and 1 (two off-diagonal cells)
    assert np.allclose(nu.values, [0.0, 1.0])
    assert np.allclose(nu.masses, [0.5, 0.5])
    assert nu.total_mass == pytest.approx(1.0)


def test_pushforward_tolerance_merges_near_values():
    k = np.array([[0.0, 1.0], [1.0 + 1e-13, 0.0]])
    nu = pushforward_value_distribution(validate_network([1.0, 1.0], k))
    assert nu.values.size == 2


def test_pushforward_tolerance_chains_adjacent_values():
    # 0 -> 6e-13 -> 1.2e-12: each step is within COALESCE_TOL, so all three
    # share one atom at the smallest value although the ends are further apart
    k = np.array([[0.0, 6e-13], [1.2e-12, 0.0]])
    nu = pushforward_value_distribution(validate_network([1.0, 2.0], k))
    assert nu.values.tolist() == [0.0]
    assert nu.masses.tolist() == [9.0]


def test_pushforward_matches_loop_reference(rng):
    # the merge rule written as a loop over sorted values; few distinct
    # values, some 5e-13 apart, so atoms merge, chain and stay apart
    k = rng.integers(0, 4, size=(7, 7)) * 5e-13 + rng.integers(0, 3, size=(7, 7))
    net = validate_network(rng.uniform(0.1, 1.0, 7), k)
    order = np.argsort(k.ravel(), kind="stable")
    vals, masses = k.ravel()[order], np.outer(net.weights, net.weights).ravel()[order]
    keep_vals, keep_mass = [vals[0]], [masses[0]]
    for prev, v, m in zip(vals, vals[1:], masses[1:]):
        if v - prev <= COALESCE_TOL:
            keep_mass[-1] += m
        else:
            keep_vals.append(v)
            keep_mass.append(m)
    nu = pushforward_value_distribution(net)
    assert np.array_equal(nu.values, keep_vals)
    assert np.array_equal(nu.masses, keep_mass)


def test_monotone_plan_identical_is_diagonal():
    m = np.array([0.3, 0.7])
    pi = _monotone_plan(m, m)
    assert np.allclose(pi, np.diag(m))


def test_monotone_plan_rescales_unbalanced():
    pi = _monotone_plan(np.array([1.0, 1.0]), np.array([4.0]))
    assert np.allclose(pi.sum(axis=1), [1.0, 1.0])


def _loop_monotone_plan(m, n):
    """The northwest-corner rule walked atom by atom, for comparison."""
    total_m, total_n = m.sum(), n.sum()
    pi = np.zeros((m.size, n.size))
    if total_m <= 0 or total_n <= 0:
        return pi
    nn = n * (total_m / total_n)
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


def test_monotone_plan_matches_loop_reference():
    r = np.random.default_rng(7)
    for _ in range(500):
        m, n = (r.uniform(0.0, 2.0, size=r.integers(1, 30)) for _ in range(2))
        m[r.uniform(size=m.size) < 0.2] = 0.0
        n[r.uniform(size=n.size) < 0.2] = 0.0
        got, want = _monotone_plan(m, n), _loop_monotone_plan(m, n)
        assert np.abs(got - want).max() <= 1e-14 * max(m.sum(), 1.0)


def test_uot_rejects_negative_max_iters():
    net = random_network(np.random.default_rng(0), 3)
    mu = pushforward_value_distribution(net)
    with pytest.raises(NegativeArgument):
        uot_solve(mu, mu, make_kernel("exp", 0.5), max_iters=-5)
    with pytest.raises(NegativeArgument):
        cgw_lower_bound(net, net, make_kernel("exp", 0.5), max_iters=-1)
    with pytest.raises(NegativeArgument, match="^max_iters = 2.5 is not an integer"):
        cgw_lower_bound(net, net, make_kernel("exp", 0.5), max_iters=2.5)


@pytest.mark.parametrize("name", ["cos", "exp"])
def test_uot_self_distance_zero(rng, name):
    net = random_network(rng, 6)
    nu = pushforward_value_distribution(net)
    rep = uot_solve(nu, nu, make_kernel(name, 0.5))
    assert rep.value <= 1e-6 * nu.total_mass


def test_uot_trace_monotone(rng):
    mu = DiscreteValueMeasure(np.sort(rng.uniform(size=5)), rng.uniform(0.2, 1, 5))
    nu = DiscreteValueMeasure(np.sort(rng.uniform(size=7)), rng.uniform(0.2, 1, 7))
    rep = uot_solve(mu, nu, make_kernel("exp", 0.5))
    tr = rep.objective_trace
    assert all(v >= u - 1e-10 * max(1.0, u) for u, v in zip(tr, tr[1:]))
    # easy instance for the convergence flag: identical measures stop at once
    rep2 = uot_solve(mu, mu, make_kernel("exp", 0.5))
    assert rep2.converged


def test_uot_grid_oracle_one_atom_each():
    # single atoms: G* = sqrt(m n) Omega(gap), d^2 = 4 d2 (m + n - 2 sqrt(mn) Om)
    k = make_kernel("exp", 0.5)
    mu = DiscreteValueMeasure(np.array([0.2]), np.array([0.8]))
    nu = DiscreteValueMeasure(np.array([0.9]), np.array([1.3]))
    rep = uot_solve(mu, nu, k)
    from conicot import omega_of_gap

    om = float(omega_of_gap(k, 0.2, 0.9))
    # optimum over A, B scalars in [0, m] x [0, n] of Om sqrt(AB): corner
    g_star = om * np.sqrt(0.8 * 1.3)
    d2 = 4 * k.delta**2 * (0.8 + 1.3) - 8 * k.delta**2 * g_star
    assert rep.objective == pytest.approx(g_star, rel=1e-9)
    assert rep.value == pytest.approx(np.sqrt(d2), rel=1e-9)


def test_uot_grid_oracle_two_by_one(rng):
    # 2 atoms vs 1: exhaustive grid over row splits of A and scalar B column
    k = make_kernel("cos", 0.5)
    mu = DiscreteValueMeasure(np.array([0.1, 0.6]), np.array([0.5, 0.7]))
    nu = DiscreteValueMeasure(np.array([0.3]), np.array([0.9]))
    rep = uot_solve(mu, nu, k)
    from conicot import omega_of_gap

    W = np.asarray(omega_of_gap(k, mu.values[:, None], nu.values[None, :]))
    # vectorized scan over (A row entries) x (B column split, sum tight at 0.9)
    a0, a1, bs = np.meshgrid(np.linspace(0, 0.5, 101),
                             np.linspace(0, 0.7, 141),
                             np.linspace(0, 1, 101), indexing="ij")
    vals = (W[0, 0] * np.sqrt(a0 * bs * 0.9)
            + W[1, 0] * np.sqrt(a1 * (1 - bs) * 0.9))
    best = float(vals.max())
    assert rep.objective >= best - 1e-6
    d2 = 4 * k.delta**2 * (mu.total_mass + nu.total_mass) \
        - 8 * k.delta**2 * rep.objective
    assert rep.value == pytest.approx(np.sqrt(max(d2, 0.0)), abs=1e-12)


def test_lower_bound_below_cgw(rng):
    from conicot import SolverConfig, cgw_solve

    for trial in range(5):
        r = np.random.default_rng(trial)
        nx = random_network(r, 5, unit_mass=True)
        ny = random_network(r, 6, unit_mass=True)
        for name in ("cos", "exp"):
            k = make_kernel(name, 0.5)
            lb = cgw_lower_bound(nx, ny, k)
            d, _ = cgw_solve(nx, ny, SolverConfig(kernel=k, restarts=4))
            assert lb.value <= d + 1e-8


def test_uot_disjoint_supports_full_destruction():
    # cosine kernel with a gap past the truncation: W = 0 everywhere, so the
    # optimum destroys and recreates all mass
    k = make_kernel("cos", 0.1)
    mu = DiscreteValueMeasure(np.array([0.0]), np.array([2.0]))
    nu = DiscreteValueMeasure(np.array([10.0]), np.array([3.0]))
    rep = uot_solve(mu, nu, k)
    assert rep.objective == 0.0
    assert rep.value == pytest.approx(np.sqrt(4 * k.delta**2 * 5.0))


@pytest.mark.parametrize("name", ["cos", "exp"])
def test_uot_equals_one_feature_ccot(rng, name):
    # the bound is the CCOT distance between the value distributions seen as
    # hypernetworks with one unit-mass feature each, solved from the same
    # two starts (product and monotone plan) with the same stopping rule
    k = make_kernel(name, 0.5)
    for _ in range(4):
        mu = pushforward_value_distribution(random_network(rng, 4))
        nu = pushforward_value_distribution(random_network(rng, 5))
        hx = validate_hypernetwork(mu.masses, [1.0], mu.values[:, None])
        hy = validate_hypernetwork(nu.masses, [1.0], nu.values[:, None])
        pi = _monotone_plan(mu.masses, nu.masses)
        scale = nu.total_mass / mu.total_mass
        seed = SemiCouplingQuadruple(pi, pi * scale, np.ones((1, 1)), np.ones((1, 1)))
        cfg = SolverConfig(kernel=k, restarts=1, rel_tol=REL_TOL, max_iters=1000,
                           extra_inits=[seed])
        ccot, _, _ = bca_solve(hx, hy, cfg)
        assert uot_solve(mu, nu, k).value == pytest.approx(ccot, rel=1e-12)


def _uot_per_start(mu, nu, kernel, max_iters):
    """uot_solve's objective trace with each start swept on its own."""
    m, n = mu.masses, nu.masses
    W = omega_of_gap(kernel, mu.values[:, None], nu.values[None, :])
    pi = _monotone_plan(m, n)
    best = None
    for A, B in (_product_pair(m, n), (pi, pi * (n.sum() / m.sum()))):
        A, B = _tight(A * (W > 0), m, 1), _tight(B * (W > 0), n, 0)
        trace = [float((W * np.sqrt(A * B)).sum())]
        for _ in range(max_iters):
            F = update_block(A, B, W * W, m, n)
            trace.append(float(F))
            if abs(trace[-1] - trace[-2]) <= REL_TOL * max(1.0, abs(trace[-2])):
                break
        if best is None or trace[-1] > best[-1]:
            best = trace
    return best


@pytest.mark.parametrize("max_iters", [5, 1000])
def test_uot_stack_equals_each_start_swept_alone(rng, max_iters):
    # the two starts share a stack but none of their arithmetic
    for _ in range(3):
        mu, nu = (pushforward_value_distribution(random_network(rng, 5)) for _ in range(2))
        rep = uot_solve(mu, nu, make_kernel("exp", 0.5), max_iters=max_iters)
        assert rep.objective_trace == _uot_per_start(mu, nu, make_kernel("exp", 0.5), max_iters)


@pytest.mark.parametrize("values, masses, error", [
    ([0.1, 0.2], [0.5, -0.5], NegativeWeight),
    ([], [], NonSquareKernel),
    ([0.1, np.nan], [0.5, 0.5], NonFiniteEntry),
    ([0.1, 0.2], [0.5, np.inf], NonFiniteEntry),
    ([0.1, 0.2], [1.0], LengthMismatch),
])
def test_value_measure_checks_itself(values, masses, error):
    # uot_solve would report distance 1.0 and converged on such a measure
    with pytest.raises(error):
        mu = DiscreteValueMeasure(np.array(values), np.array(masses))
        uot_solve(mu, mu, make_kernel("exp", 0.5))


def test_value_measure_freezes_its_arrays_in_place():
    values, masses = np.array([0.1, 0.4]), np.array([0.5, 0.7])
    mu = DiscreteValueMeasure(values, masses)
    assert mu.values is values and mu.masses is masses
    assert not values.flags.writeable and not masses.flags.writeable


def test_uot_solve_leaves_its_inputs_as_they_are(rng):
    # the pair steps update the stack in place; the measures, read-only and
    # here one object on both sides, are unchanged, and a second solve
    # repeats the first
    mu = pushforward_value_distribution(random_network(rng, 5))
    before = mu.values.copy(), mu.masses.copy()
    first = uot_solve(mu, mu, make_kernel("exp", 0.5), max_iters=20)
    assert np.array_equal(mu.values, before[0]) and np.array_equal(mu.masses, before[1])
    again = uot_solve(mu, mu, make_kernel("exp", 0.5), max_iters=20)
    assert first.objective_trace == again.objective_trace
