import dataclasses
import weakref

import numpy as np
import pytest

import conicot.analysis
from conicot import (
    cgw_solve,
    scale_measure,
    SolverConfig,
    delta_sweep,
    gw_fragility_demo,
    make_kernel,
    robustness_probe,
    validate_network,
    verify_bound_sandwich,
    verify_scaling,
    weak_iso_probe,
)
from conicot.analysis import SLACK_ABS, SLACK_REL, slack
from conicot.errors import NegativeArgument
from tests.conftest import random_network


def _cfg(name="exp", delta=0.5, seed=0):
    return SolverConfig(kernel=make_kernel(name, delta), restarts=4, seed=seed)


def test_slack_budget():
    assert slack(0.0) == SLACK_ABS
    assert slack(10.0) == pytest.approx(SLACK_REL * 10.0 + SLACK_ABS)
    assert slack(-10.0) == slack(10.0)


def test_verify_scaling_passes(rng):
    net = random_network(rng, 4, unit_mass=True)
    out = verify_scaling(net, r=2.0, s=1.0, config=_cfg())
    assert out["pass"], out
    names = [c["name"] for c in out["checks"]]
    assert names == ["scale_bound", "homogeneity", "combined_bound"]


def test_verify_scaling_zero_scale(rng):
    net = random_network(rng, 3, unit_mass=True)
    out = verify_scaling(net, r=0.0, s=1.0, config=_cfg("cos"))
    assert out["pass"], out


def test_verify_bound_sandwich_both_kernels(rng):
    nx = random_network(np.random.default_rng(1), 5, unit_mass=True)
    ny = random_network(np.random.default_rng(2), 5, unit_mass=True)
    for name in ("cos", "exp"):
        out = verify_bound_sandwich(nx, ny, _cfg(name))
        assert out["pass"], out
        assert out["uot_lower"] <= out["ccot"] + slack(out["upper"])
        assert out["cgw"] <= out["upper"] + slack(out["upper"])


def test_verify_bound_sandwich_rejects_unbalanced(rng):
    nx = random_network(rng, 4)
    ny = random_network(rng, 4)
    with pytest.raises(ValueError):
        verify_bound_sandwich(nx, ny, _cfg())


def test_robustness_probe(rng):
    net = random_network(rng, 5, unit_mass=True)
    out = robustness_probe(net, eps=0.05, trials=5, config=_cfg())
    assert out["violations"] == 0
    assert out["pass"]
    with pytest.raises(ValueError):
        robustness_probe(net, eps=1.5, trials=1, config=_cfg())


@pytest.mark.parametrize("trials", [0, -1, 1.5])
def test_robustness_probe_rejects_no_trials(rng, trials):
    # a probe that runs no trial would pass having checked nothing
    net = random_network(rng, 3, unit_mass=True)
    with pytest.raises(NegativeArgument):
        robustness_probe(net, eps=0.05, trials=trials, config=_cfg())


def test_robustness_probe_paired(rng):
    nx = random_network(np.random.default_rng(3), 4, unit_mass=True)
    ny = random_network(np.random.default_rng(4), 4, unit_mass=True)
    out = robustness_probe(nx, eps=0.05, trials=3, config=_cfg(), ny=ny)
    assert "paired" in out
    assert out["paired"]["pass"]


def test_gw_fragility_demo():
    out = gw_fragility_demo(eps=0.1, f_eps=1.0)
    assert out["pass"], out
    assert out["clean_gw2"] <= 1e-9
    assert abs(out["perturbed_gw2"] - 1.0) <= 1e-6
    with pytest.raises(ValueError):
        gw_fragility_demo(eps=0.0, f_eps=1.0)
    # f_eps is a target GW value: a negative one is a bad input, not a failed check
    for f_eps in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="^f_eps = "):
            gw_fragility_demo(eps=0.1, f_eps=f_eps)


def test_weak_iso_probe(rng):
    net = random_network(rng, 5, unit_mass=True)
    out = weak_iso_probe(net, _cfg())
    assert out["pass"], out
    assert [c["name"] for c in out["checks"]] == [
        "permutation", "split", "double_split"]


@pytest.mark.parametrize("name", ["cos", "exp"])
def test_weak_iso_probe_zero_weight_node(rng, name):
    net = random_network(rng, 5, unit_mass=True)
    w = net.weights.copy()
    w[2] = 0.0
    net = validate_network(w / w.sum(), net.kernel)
    out = weak_iso_probe(net, _cfg(name))
    assert out["pass"], out
    assert [c["name"] for c in out["checks"]] == [
        "permutation", "split", "double_split"]


def test_delta_sweep_structure(rng):
    nx = random_network(np.random.default_rng(5), 4, unit_mass=True,
                        kernel_diameter=1.0)
    ny = random_network(np.random.default_rng(6), 4, unit_mass=True,
                        kernel_diameter=1.0)
    out = delta_sweep(nx, ny, [1.0, 4.0, 16.0], _cfg("exp", 1.0))
    assert len(out["rows"]) == 3
    gaps = [r["rel_gap"] for r in out["rows"]]
    assert out["final_gap_is_min"] == (gaps[-1] <= min(gaps) + 1e-12)
    assert out["fitted_constant"] > 0
    # unbalanced inputs are rejected, and so is an empty delta list
    with pytest.raises(ValueError):
        delta_sweep(random_network(rng, 3), ny, [1.0], _cfg())
    with pytest.raises(ValueError):
        delta_sweep(nx, ny, [], _cfg())


@pytest.mark.parametrize("family", ["cos", "exp"])
@pytest.mark.parametrize("restarts, max_iters", [(1, 1000), (2, 3), (3, 1000), (4, 3)])
def test_delta_sweep_rows_match_cgw_solve_at_each_delta(family, restarts, max_iters):
    # the sweep solves its deltas as one stack; each row must be the solve of
    # cgw_solve at that delta from the same starts. The distance amplifies
    # rounding of the objective F by about delta^2 F / d^2, so F, recovered
    # from the row's distance, is what matches to 1e-12
    rng = np.random.default_rng(restarts * max_iters + (family == "cos"))
    nx = random_network(rng, int(rng.integers(4, 7)), unit_mass=True, kernel_diameter=1.0)
    ny = random_network(rng, int(rng.integers(4, 7)), unit_mass=True, kernel_diameter=1.0)
    cfg = SolverConfig(kernel=make_kernel(family, 0.5), restarts=restarts,
                       max_iters=max_iters)
    deltas = [0.25, 1.0, 4.0, 16.0]
    out = delta_sweep(nx, ny, deltas, cfg)
    _, pi = conicot.analysis._unit_mass_gw2(nx, ny, cfg, "delta_sweep")
    seed = conicot.analysis._coupling_quad(pi)
    for d, row in zip(deltas, out["rows"]):
        _, rep = cgw_solve(nx, ny, dataclasses.replace(
            cfg, kernel=make_kernel(family, d), extra_inits=[seed]))
        best = rep.restarts[rep.best_restart]
        assert (row["sweeps"], row["stop"]) == (best["sweeps"], best["stop"])
        F = 1.0 - row["cgw"] ** 2 / (8.0 * d * d)  # unit masses
        assert abs(F - best["objective"]) <= 1e-12 * abs(best["objective"])


def test_verify_scaling_solves_each_pair_once(rng, monkeypatch):
    # checks (a) and (b) solve the same pair with the same seed: one solve
    net = random_network(rng, 4, unit_mass=True)
    cfg = _cfg()
    expected = verify_scaling(net, r=2.0, s=1.0, config=cfg)
    calls = []
    for name in ("bca_solve", "cgw_solve"):
        solve = getattr(conicot.analysis, name)
        monkeypatch.setattr(conicot.analysis, name,
                            lambda *a, _solve=solve, _name=name, **k:
                            calls.append(_name) or _solve(*a, **k))
    out = verify_scaling(net, r=2.0, s=1.0, config=cfg)
    assert sorted(calls) == ["bca_solve", "cgw_solve"]
    assert out == expected
    # check (a) is the distance cgw_solve gives for the seeded pair
    seed = conicot.analysis._diag_quad(net.weights, 2.0 * net.weights)
    dist, _ = cgw_solve(scale_measure(net, 1.0), scale_measure(net, 2.0),
                        dataclasses.replace(cfg, extra_inits=[seed]))
    assert out["checks"][0]["distance"] == dist


def test_verify_scaling_holds_no_tensor_through_its_solve(rng, monkeypatch):
    # check (b)'s dense tensor must be gone, or not yet built, while check
    # (c)'s cgw_solve builds its own
    net = random_network(rng, 6, unit_mass=True)
    cfg = _cfg()
    expected = verify_scaling(net, r=2.0, s=0.5, config=cfg)
    alive = []
    build, solve = conicot.analysis.build_tensor, conicot.analysis.cgw_solve

    def building(*args):
        tensor = build(*args)
        alive.append(weakref.ref(tensor))
        return tensor

    def solving(*args, **kwargs):
        assert all(ref() is None for ref in alive)
        return solve(*args, **kwargs)

    monkeypatch.setattr(conicot.analysis, "build_tensor", building)
    monkeypatch.setattr(conicot.analysis, "cgw_solve", solving)
    assert verify_scaling(net, r=2.0, s=0.5, config=cfg) == expected
    assert len(alive) == 1
