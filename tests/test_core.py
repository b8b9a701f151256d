import json

import numpy as np
import pytest

from conicot import (
    DiscreteMeasureHypernetwork,
    DiscreteMeasureNetwork,
    SolverConfig,
    cgw_lower_bound,
    cgw_solve,
    embed_network_as_hypernetwork,
    load_json,
    make_kernel,
    scale_measure,
    tv_gap,
    validate_hypernetwork,
    validate_network,
)
from conicot.errors import (
    LengthMismatch,
    NegativeScale,
    NegativeWeight,
    NonFiniteEntry,
    NonSquareKernel,
)
from tests.conftest import random_network


def test_validate_network_basic():
    net = validate_network([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])
    assert net.n == 2
    assert net.mass == pytest.approx(1.0)
    assert not net.weights.flags.writeable
    assert not net.kernel.flags.writeable


def test_validate_network_rejects_negative_weight():
    with pytest.raises(NegativeWeight) as exc:
        validate_network([0.5, -0.1], np.zeros((2, 2)))
    assert exc.value.index == 1


def test_validate_network_rejects_nonfinite():
    k = np.zeros((2, 2))
    k[0, 1] = np.nan
    with pytest.raises(NonFiniteEntry):
        validate_network([1.0, 1.0], k)
    with pytest.raises(NonFiniteEntry):
        validate_network([1.0, np.inf], np.zeros((2, 2)))


def test_negative_kernel_entries_accepted(rng):
    # Omega only sees |gap|, so a common shift of both kernels changes nothing
    nx = random_network(rng, 4, unit_mass=True)
    ny = random_network(rng, 5, unit_mass=True)
    sx = validate_network(nx.weights, nx.kernel - 1.0)
    sy = validate_network(ny.weights, ny.kernel - 1.0)
    assert (sx.kernel < 0).any() and (sy.kernel < 0).any()
    kernel = make_kernel("exp", 0.5)
    cfg = SolverConfig(kernel=kernel)
    assert cgw_solve(sx, sy, cfg)[0] == pytest.approx(cgw_solve(nx, ny, cfg)[0],
                                                      rel=0, abs=1e-12)
    assert cgw_lower_bound(sx, sy, kernel).value == pytest.approx(
        cgw_lower_bound(nx, ny, kernel).value, rel=0, abs=1e-12)


def test_validate_network_shape_checks():
    with pytest.raises(NonSquareKernel):
        validate_network([1.0, 1.0], np.zeros((2, 3)))
    with pytest.raises(NonSquareKernel):
        validate_network([1.0, 1.0, 1.0], np.zeros((2, 2)))


def test_zero_weights_allowed():
    net = validate_network([0.0, 1.0], np.ones((2, 2)))
    assert net.mass == pytest.approx(1.0)


def test_validate_hypernetwork():
    h = validate_hypernetwork([1.0, 2.0], [1.0, 1.0, 1.0], np.ones((2, 3)))
    assert h.n_samples == 2 and h.n_features == 3
    assert h.sample_mass == pytest.approx(3.0)
    assert h.feature_mass == pytest.approx(3.0)
    with pytest.raises(NonSquareKernel):
        validate_hypernetwork([1.0], [1.0, 1.0], np.ones((2, 2)))


def test_scale_measure():
    net = validate_network([1.0, 2.0], np.eye(2))
    scaled = scale_measure(net, 0.5)
    assert np.allclose(scaled.weights, [0.5, 1.0])
    assert np.array_equal(scaled.kernel, net.kernel)
    with pytest.raises(NegativeScale):
        scale_measure(net, -1.0)
    zero = scale_measure(net, 0.0)
    assert zero.mass == 0.0


def test_embed_network_as_hypernetwork():
    net = validate_network([1.0, 2.0], np.eye(2))
    h = embed_network_as_hypernetwork(net)
    assert np.array_equal(h.sample_weights, net.weights)
    assert np.array_equal(h.feature_weights, net.weights)
    assert np.array_equal(h.kernel, net.kernel)


def test_tv_gap():
    assert tv_gap([1.0, 0.0], [0.0, 1.0]) == pytest.approx(2.0)
    with pytest.raises(LengthMismatch):
        tv_gap([1.0], [1.0, 2.0])


def test_json_round_trip(tmp_path):
    net = validate_network([0.25, 0.75], [[0.0, 2.0], [2.0, 0.0]],
                           points=[[0.0, 0.0], [1.0, 1.0]], label="x")
    p = tmp_path / "net.json"
    p.write_text(json.dumps(net.to_json_dict()))
    back = load_json(p)
    assert isinstance(back, DiscreteMeasureNetwork)
    assert np.allclose(back.weights, net.weights)
    assert np.allclose(back.kernel, net.kernel)
    assert np.allclose(back.points, net.points)
    assert back.label == "x"

    h = validate_hypernetwork([1.0, 1.0], [1.0], np.ones((2, 1)))
    q = tmp_path / "hyper.json"
    q.write_text(json.dumps(h.to_json_dict()))
    back = load_json(q)
    assert isinstance(back, DiscreteMeasureHypernetwork)
    assert np.allclose(back.kernel, h.kernel)


def test_load_json_unknown_type(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"type": "mystery"}))
    with pytest.raises(ValueError):
        load_json(p)
