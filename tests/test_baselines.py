import itertools

import conicot.baselines

import numpy as np
import pytest
import scipy.optimize

from conicot import (
    BaselineConfig,
    cot_solve,
    embed_network_as_hypernetwork,
    gw2_solve,
    ot_exact,
    validate_network,
)
from conicot.baselines import OT_STACK_VARS, _gw_linear_term, _gw_objective, _round_to_polytope
from conicot.errors import (CapExceeded, MassMismatch, NegativeArgument, NegativeWeight,
                            NonFiniteEntry)
from tests.conftest import random_hypernetwork, random_network


def _feasible(pi, a, b, tol=1e-9):
    """Every row of pi sums to a and every column to b, to tol; a stack of
    couplings on the leading axis is checked slice by slice."""
    return bool(np.abs(pi.sum(axis=-1) - a).max() < tol
                and np.abs(pi.sum(axis=-2) - b).max() < tol)


def _ot_bruteforce_uniform(cost):
    """Exact OT for uniform marginals via permanent-style enumeration."""
    n = cost.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, sum(cost[i, perm[i]] for i in range(n)) / n)
    return best


def test_ot_exact_matches_assignment_oracle(rng):
    # with uniform marginals the LP optimum matches the best permutation
    for trial in range(5):
        r = np.random.default_rng(trial)
        n = 5
        cost = r.uniform(size=(n, n))
        a = np.full(n, 1.0 / n)
        coupling, value = ot_exact(a, a, cost)
        assert _feasible(coupling, a, a)
        assert value == pytest.approx(_ot_bruteforce_uniform(cost), abs=1e-10)


def test_ot_exact_one_dimensional_monotone():
    # sorted supports: the monotone (north-west) plan is optimal for |x-y|^2
    x = np.array([0.0, 1.0, 3.0])
    y = np.array([0.5, 1.5, 3.5])
    cost = (x[:, None] - y[None, :]) ** 2
    a = np.array([0.2, 0.5, 0.3])
    coupling, value = ot_exact(a, a, cost)
    expected = float((a * (x - y) ** 2).sum())
    assert value == pytest.approx(expected, abs=1e-12)


def test_ot_exact_errors():
    with pytest.raises(MassMismatch):
        ot_exact([1.0], [2.0], np.zeros((1, 1)))
    with pytest.raises(CapExceeded):
        ot_exact(np.ones(600) / 600, np.ones(600) / 600, np.zeros((600, 600)))


@pytest.mark.parametrize("shape", [(2, 1), (3, 7), (6, 4)])
def test_ot_exact_returns_a_feasible_optimal_vertex(shape):
    # the Frank-Wolfe step of gw2_solve relies on a vertex of the transport
    # polytope: a basic solution has at most n + m - 1 positive entries
    n, m = shape
    for trial in range(10):
        r = np.random.default_rng([n, m, trial])
        a = r.uniform(0.5, 1.5, size=n)
        b = r.uniform(0.5, 1.5, size=m)
        b *= a.sum() / b.sum()
        cost = r.uniform(size=shape)
        coupling, value = ot_exact(a, b, cost)
        assert _feasible(coupling, a, b)
        assert np.count_nonzero(coupling > 0) <= n + m - 1
        # every row and column sum, built apart from _transport_constraints
        A_eq = np.vstack([np.kron(np.eye(n), np.ones(m)), np.kron(np.ones(n), np.eye(m))])
        reference = scipy.optimize.linprog(cost.ravel(), A_eq=A_eq, b_eq=np.concatenate([a, b]),
                                           bounds=(0, None), method="highs")
        assert value == pytest.approx(reference.fun, abs=1e-10)


def _random_transport(r, n, m):
    a = r.uniform(0.5, 1.5, size=n)
    b = r.uniform(0.5, 1.5, size=m)
    return a, b * a.sum() / b.sum()


@pytest.mark.parametrize("shape, height", [((6, 5), 1), ((3, 7), 4), ((6, 4), 9),
                                           ((6, 5), OT_STACK_VARS // 30 + 1)])
def test_ot_exact_stack_equals_slice_calls(shape, height, monkeypatch):
    # random costs and marginals: each LP has one optimal vertex. The last
    # stack is past the variable cap, so it takes two LPs.
    n, m = shape
    r = np.random.default_rng([n, m, height])
    a, b = _random_transport(r, n, m)
    costs = r.uniform(size=(height, n, m))
    lps = [0]
    milp = scipy.optimize.milp

    def counting(*args, **kw):
        lps[0] += 1
        return milp(*args, **kw)
    monkeypatch.setattr(scipy.optimize, "milp", counting)
    coupling, values = ot_exact(a, b, costs)
    assert lps[0] == -(-height // (OT_STACK_VARS // (n * m)))
    assert coupling.shape == costs.shape and values.shape == (height,)
    assert _feasible(coupling, a, b)
    for cost, pi, value in zip(costs, coupling, values):
        one, one_value = ot_exact(a, b, cost)
        assert isinstance(one_value, float)
        assert np.abs(pi - one).max() <= 1e-12
        assert abs(value - one_value) <= 1e-12


@pytest.mark.parametrize("marginal, error, index", [
    ([np.nan, 1.0], NonFiniteEntry, 0), ([0.5, np.inf], NonFiniteEntry, 1),
    ([-0.5, 1.5], NegativeWeight, 0)])
def test_ot_exact_checks_its_marginals(marginal, error, index):
    # either marginal is checked before the mass check and the LP, which
    # would report a NaN or a negative entry as a mass mismatch
    cost = [[0.0, 1.0], [1.0, 0.0]]
    for a, b in ((marginal, [0.5, 0.5]), ([0.5, 0.5], marginal)):
        with pytest.raises(error) as raised:
            ot_exact(a, b, cost)
        assert raised.value.index == index


def _gw2_per_restart(nx, ny, config):
    """gw2_solve's restarts one after another, one 2-D ot_exact per step:
    the same starts and step rule as the stacked solve, without the stack.

    Returns (value, every restart's final coupling, the best restart, the
    steps of each restart).
    """
    a, b = nx.weights, ny.weights
    wx, wy = nx.kernel, ny.kernel
    rng = np.random.default_rng(config.seed)
    inits = [np.outer(a, b) / max(b.sum(), 1e-300)]
    for _ in range(config.restarts - 1):
        noise = rng.uniform(0.5, 1.5, size=(a.size, b.size))
        inits.append(_round_to_polytope(inits[0] * noise, a, b))
    objs, finals, steps = [], [], []
    for pi in inits:
        obj = _gw_objective(wx, wy, pi)
        for step in range(1, config.max_iters + 1):
            grad = _gw_linear_term(wx, wy, pi) + _gw_linear_term(wx.T, wy.T, pi)
            delta = ot_exact(a, b, grad)[0] - pi
            lin = float((grad * delta).sum())
            quad = _gw_objective(wx, wy, delta)
            if quad > 0:
                t = np.clip(-lin / (2.0 * quad), 0.0, 1.0)
            else:
                t = 1.0 if lin + quad < 0 else 0.0
            pi = pi + t * delta
            new_obj = obj + t * lin + t * t * quad
            if obj - new_obj <= config.tol * max(1.0, abs(obj)):
                obj = min(obj, new_obj)
                break
            obj = new_obj
        else:
            step = config.max_iters
        objs.append(obj)
        finals.append(pi)
        steps.append(step)
    best = int(np.argmin(objs))  # the first restart with the smallest objective
    return 0.5 * float(np.sqrt(max(objs[best], 0.0))), finals, best, steps


@pytest.mark.parametrize("restarts", [1, 4, 6])
@pytest.mark.parametrize("n, m, cap", [(5, 6, OT_STACK_VARS), (12, 10, OT_STACK_VARS),
                                       (16, 20, OT_STACK_VARS), (5, 6, 64), (9, 8, 64)])
def test_gw2_lockstep_equals_per_restart_loop(n, m, cap, restarts, monkeypatch):
    # at the default cap every stack here is one LP; at cap 64 a 5 x 6
    # problem stacks two restarts per LP and a 9 x 8 one none. At max_iters
    # 0 and 1 every restart stops at the iteration cap, with no step or
    # after one
    monkeypatch.setattr(conicot.baselines, "OT_STACK_VARS", cap)
    for seed, max_iters in itertools.product(range(3), (60, 0, 1)):
        r = np.random.default_rng([n, m, seed])
        nx = random_network(r, n, unit_mass=True)
        ny = random_network(r, m, unit_mass=True)
        config = BaselineConfig(restarts=restarts, seed=seed, max_iters=max_iters, tol=1e-8)
        value, coupling, _ = gw2_solve(nx, ny, config)
        ref_value, finals, best, _ = _gw2_per_restart(nx, ny, config)
        assert abs(value - ref_value) <= 1e-12
        assert np.abs(coupling - finals[best]).max() <= 1e-12


def _cot_alternation_loop(hx, hy, config):
    """cot_solve as a hand-written alternation loop, with its own stop test:
    (value, sample coupling, feature coupling, objective trace, stop)."""
    a, b = hx.sample_weights, hy.sample_weights
    ap, bp = hx.feature_weights, hy.feature_weights
    wx, wy = hx.kernel, hy.kernel
    pi_f = np.outer(ap, bp) / max(bp.sum(), 1e-300)
    pi_s = np.outer(a, b) / max(b.sum(), 1e-300)
    cost_s = _gw_linear_term(wx, wy, pi_f)
    trace, stop = [float((cost_s * pi_s).sum())], "max_iters"
    for _ in range(config.max_iters):
        pi_s = ot_exact(a, b, cost_s)[0]
        pi_f = ot_exact(ap, bp, _gw_linear_term(wx.T, wy.T, pi_s))[0]
        cost_s = _gw_linear_term(wx, wy, pi_f)
        obj, new_obj = trace[-1], float((cost_s * pi_s).sum())
        trace.append(min(obj, new_obj))
        if obj - new_obj <= config.tol * max(1.0, abs(obj)):
            stop = "rel_tol"
            break
    return 0.5 * float(np.sqrt(max(trace[-1], 0.0))), pi_s, pi_f, trace, stop


def test_cot_ascent_equals_the_alternation_loop():
    # cot_solve steps through the shared restart loop; its value, couplings,
    # trace and restart outcome are those of the plain loop, bit for bit
    stops = set()
    for seed, max_iters, tol in itertools.product(range(6), (0, 1, 3, 200), (0.0, 1e-10, 1e-3)):
        r = np.random.default_rng([31, seed])
        n, m, fx, fy = (int(v) for v in r.integers(2, 8, size=4))
        hx = random_hypernetwork(r, n, fx, unit_mass=True)
        hy = random_hypernetwork(r, m, fy, unit_mass=True)
        config = BaselineConfig(max_iters=max_iters, tol=tol)
        value, pi_s, pi_f, report = cot_solve(hx, hy, config)
        ref_value, ref_s, ref_f, trace, stop = _cot_alternation_loop(hx, hy, config)
        assert value == ref_value
        assert np.array_equal(pi_s, ref_s) and np.array_equal(pi_f, ref_f)
        assert report.objective_trace == trace
        assert report.restarts == [{"objective": trace[-1], "sweeps": len(trace) - 1,
                                    "stop": stop}]
        stops.add(stop)
    assert stops == {"rel_tol", "max_iters"}


def test_gw_linear_term_matches_loop(rng):
    wx = rng.uniform(size=(3, 3))
    wy = rng.uniform(size=(4, 4))
    pi = rng.uniform(size=(3, 4))
    ref = np.zeros((3, 4))
    for i in range(3):
        for k in range(4):
            for ip in range(3):
                for kp in range(4):
                    ref[i, k] += (wx[i, ip] - wy[k, kp]) ** 2 * pi[ip, kp]
    assert np.allclose(_gw_linear_term(wx, wy, pi), ref, atol=1e-12)
    # a stack gives its slices' 2-D results bit for bit; gw2 at restarts=1
    # rounds a stack of height 0. Slice 0 has a zero row, slice 1 is a
    # feasible coupling
    for n, m, height in itertools.product((2, 5, 9), (3, 8), (0, 2, 5)):
        wx, wy = rng.uniform(size=(n, n)), rng.uniform(size=(m, m))
        a, b = rng.uniform(0.5, 1.5, size=n), rng.uniform(0.5, 1.5, size=m)
        b *= a.sum() / b.sum()
        pis = rng.uniform(size=(height, n, m))
        pis[:1, 0] = 0.0
        pis[1:2] = np.outer(a, b) / b.sum()
        for fn in (lambda p: _gw_linear_term(wx, wy, p), lambda p: _gw_objective(wx, wy, p),
                   lambda p: _round_to_polytope(p, a, b)):
            stacked = fn(pis)
            assert stacked.shape == (height,) + np.shape(fn(rng.uniform(size=(n, m))))
            assert all(np.array_equal(s, fn(p)) for s, p in zip(stacked, pis))


def test_gw2_zero_on_permutation(rng):
    # the restarts find the relabeling coupling without being given it
    net = random_network(rng, 5, unit_mass=True)
    perm = rng.permutation(5)
    net_p = validate_network(net.weights[perm],
                             net.kernel[np.ix_(perm, perm)])
    value, coupling, _ = gw2_solve(net, net_p, BaselineConfig(seed=1))
    assert value <= 1e-8
    assert _feasible(coupling, net.weights, net_p.weights)


def test_gw2_two_point_closed_form():
    # 2-point spaces with equal weights: GW2 = |d1 - d2| / (2 sqrt(2))
    a = np.array([0.5, 0.5])
    nx = validate_network(a, np.array([[0.0, 1.0], [1.0, 0.0]]))
    ny = validate_network(a, np.array([[0.0, 3.0], [3.0, 0.0]]))
    value, coupling, _ = gw2_solve(nx, ny)
    # objective at any coupling with these marginals: both the identity and
    # the anti-diagonal give (1-3)^2 * (1/2), off terms add (1+9)/4 each ...
    # brute force the 1-parameter coupling family instead
    best = np.inf
    for t in np.linspace(0, 0.5, 5001):
        pi = np.array([[t, 0.5 - t], [0.5 - t, t]])
        best = min(best, _gw_objective(nx.kernel, ny.kernel, pi))
    assert value == pytest.approx(0.5 * np.sqrt(best), abs=1e-6)


def test_gw2_monotone_trace_and_mass_check(rng):
    nx = random_network(rng, 5, unit_mass=True)
    ny = random_network(rng, 6)
    with pytest.raises(MassMismatch):
        gw2_solve(nx, ny)


def test_cot_matches_gw2_on_embedded_networks(rng):
    # embedding a network duplicates the axes; COT <= GW2 since couplings
    # (pi, pi) are feasible for COT
    nx = random_network(rng, 4, unit_mass=True)
    ny = random_network(rng, 4, unit_mass=True)
    g, pi, _ = gw2_solve(nx, ny, BaselineConfig(restarts=6))
    hx, hy = embed_network_as_hypernetwork(nx), embed_network_as_hypernetwork(ny)
    value, cs, cf, _ = cot_solve(hx, hy)
    assert _feasible(cs, hx.sample_weights, hy.sample_weights)
    assert _feasible(cf, hx.feature_weights, hy.feature_weights)
    assert value <= g + 1e-8 + 0.02 * g


def test_cot_zero_on_identical(rng):
    hx = random_hypernetwork(rng, 4, 3, unit_mass=True)
    value, _, _, _ = cot_solve(hx, hx)
    assert value <= 1e-8


def test_cot_mass_check(rng):
    hx = random_hypernetwork(rng, 4, 3, unit_mass=True)
    hy = random_hypernetwork(rng, 4, 3)
    with pytest.raises(MassMismatch):
        cot_solve(hx, hy)


def _count_calls(monkeypatch, *names):
    """Wrap each named conicot.baselines function with a call counter."""
    calls = {name: 0 for name in names}
    for name in names:
        fn = getattr(conicot.baselines, name)

        def counting(*a, _fn=fn, _name=name, **k):
            calls[_name] += 1
            return _fn(*a, **k)
        monkeypatch.setattr(conicot.baselines, name, counting)
    return calls


def test_gw2_three_linear_terms_per_step(rng, monkeypatch):
    # the starts' objective, then the gradient's two terms and the step's
    # quadratic per stacked step, whatever the height of the stack
    nx = random_network(rng, 5, unit_mass=True)
    ny = random_network(rng, 6, unit_mass=True)
    calls = _count_calls(monkeypatch, "_gw_linear_term", "ot_exact")
    gw2_solve(nx, ny, BaselineConfig(restarts=1))
    assert calls["ot_exact"] > 1
    assert calls["_gw_linear_term"] == 1 + 3 * calls["ot_exact"]
    # the restarts step as one stack: one stacked ot_exact per step, as many
    # as the longest restart takes
    config = BaselineConfig(restarts=4)
    monkeypatch.undo()
    steps = _gw2_per_restart(nx, ny, config)[3]
    calls = _count_calls(monkeypatch, "_gw_linear_term", "ot_exact")
    gw2_solve(nx, ny, config)
    assert calls["ot_exact"] == max(steps) < sum(steps)
    assert calls["_gw_linear_term"] == 1 + 3 * calls["ot_exact"]


def test_cot_two_linear_terms_per_alternation(rng, monkeypatch):
    # the sample-side cost of the objective feeds the next alternation's LP
    hx = random_hypernetwork(rng, 5, 4, unit_mass=True)
    hy = random_hypernetwork(rng, 6, 3, unit_mass=True)
    calls = _count_calls(monkeypatch, "_gw_linear_term", "ot_exact")
    cot_solve(hx, hy)
    alternations = calls["ot_exact"] // 2
    assert alternations > 1 and calls["ot_exact"] == 2 * alternations
    assert calls["_gw_linear_term"] == 1 + 2 * alternations


@pytest.mark.parametrize("seed", range(4))
def test_gw2_value_is_the_objective_of_its_coupling(seed):
    # the objective carried through the line searches never drifts
    r = np.random.default_rng(seed)
    nx = random_network(r, 5, unit_mass=True)
    ny = random_network(r, 7, unit_mass=True)
    value, coupling, _ = gw2_solve(nx, ny, BaselineConfig(seed=seed))
    exact = 0.5 * np.sqrt(_gw_objective(nx.kernel, ny.kernel, coupling))
    assert value == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("field, value", [("restarts", 0), ("restarts", -3),
                                          ("max_iters", -5), ("tol", -1e-9),
                                          ("tol", float("nan")), ("restarts", 2.5),
                                          ("max_iters", 2.5), ("seed", -1), ("seed", 2.5)])
def test_baseline_config_rejects_out_of_range(field, value):
    with pytest.raises(NegativeArgument):
        BaselineConfig(**{field: value})
