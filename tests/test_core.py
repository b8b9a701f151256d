import json

import numpy as np
import pytest

from conicot import (
    DiscreteMeasureHypernetwork,
    DiscreteMeasureNetwork,
    DiscreteValueMeasure,
    SolverConfig,
    bca_solve,
    cgw_lower_bound,
    cgw_solve,
    cot_solve,
    embed_network_as_hypernetwork,
    gw2_solve,
    load_json,
    make_kernel,
    scale_measure,
    tv_gap,
    validate_hypernetwork,
    validate_network,
)
from conicot import solver
from conicot.solver import bca_solve_kernels
from conicot.tensor import build_tensor
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


def test_mass_follows_weights_without_validation():
    # mass is read from the weights, also on a network built by hand
    net = DiscreteMeasureNetwork(np.array([0.5, 0.5]), np.zeros((2, 2)))
    assert net.mass == 1.0


def test_validate_network_rejects_negative_weight():
    with pytest.raises(NegativeWeight) as exc:
        validate_network([0.5, -0.1], np.zeros((2, 2)))
    assert exc.value.index == 1


@pytest.mark.parametrize("field, make", [
    ("weights", lambda obj: validate_network(obj, np.zeros((1, 1)))),
    ("kernel", lambda obj: validate_network([1.0], obj)),
    ("points", lambda obj: validate_network([1.0], np.zeros((1, 1)), points=obj)),
    ("sample_weights", lambda obj: validate_hypernetwork(obj, [1.0], np.zeros((1, 1)))),
    ("values", lambda obj: DiscreteValueMeasure(obj, np.ones(1))),
])
def test_a_field_that_is_not_numbers_raises_value_error_naming_it(field, make):
    # a JSON object where numbers belong: numpy raises TypeError on its own
    with pytest.raises(ValueError, match=f"^{field} must hold numbers"):
        make({"a": 1})


def test_validate_network_rejects_nonfinite():
    k = np.zeros((2, 2))
    k[0, 1] = np.nan
    with pytest.raises(NonFiniteEntry):
        validate_network([1.0, 1.0], k)
    with pytest.raises(NonFiniteEntry):
        validate_network([1.0, np.inf], np.zeros((2, 2)))


def test_non_finite_entry_index_is_an_int_for_a_vector_and_a_tuple_otherwise():
    # a vector's index reads as a weight's does; a matrix's names both axes
    with pytest.raises(NonFiniteEntry) as exc:
        DiscreteValueMeasure([0.0, np.nan, 1.0], np.ones(3))
    assert exc.value.index == 1 and type(exc.value.index) is int
    assert str(exc.value) == "non-finite entry at index 1"
    with pytest.raises(NonFiniteEntry) as exc:
        validate_network([1.0, np.inf], np.zeros((2, 2)))
    assert str(exc.value) == "non-finite entry in weights at index 1"
    k = np.zeros((2, 2))
    k[1, 0] = np.inf
    with pytest.raises(NonFiniteEntry) as exc:
        validate_network([1.0, 1.0], k)
    assert exc.value.index == (1, 0)
    assert str(exc.value) == "non-finite entry at index (1, 0)"


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


def test_validators_reject_an_empty_side():
    with pytest.raises(NonSquareKernel, match="weights is empty"):
        validate_network(np.zeros(0), np.zeros((0, 0)))
    with pytest.raises(NonSquareKernel, match="feature_weights is empty"):
        validate_hypernetwork([1.0], [], [[]])
    with pytest.raises(NonSquareKernel, match="sample_weights is empty"):
        validate_hypernetwork([], [1.0], np.zeros((0, 1)))
    # a hand-built empty network meets the same check in its constructor
    with pytest.raises(NonSquareKernel, match="weights is empty"):
        empty = DiscreteMeasureNetwork(np.zeros(0), np.zeros((0, 0)))
        cgw_lower_bound(empty, empty, make_kernel("exp", 0.5))


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
    for r in (-1.0, np.inf, np.nan):
        with pytest.raises(NegativeScale, match=f"^scale factor {r} "):
            scale_measure(net, r)
    zero = scale_measure(net, 0.0)
    assert zero.mass == 0.0


def test_embed_network_as_hypernetwork():
    net = validate_network([1.0, 2.0], np.eye(2))
    h = embed_network_as_hypernetwork(net)
    assert np.array_equal(h.sample_weights, net.weights)
    assert np.array_equal(h.feature_weights, net.weights)
    assert np.array_equal(h.kernel, net.kernel)


def test_embedding_validates_hand_built_network():
    # a network built without validate_network is checked by its constructor
    K = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    good = validate_network([0.5, 0.1, 0.6], K)
    with pytest.raises(NegativeWeight) as exc:
        bad = DiscreteMeasureNetwork(np.array([0.5, -0.1, 0.6]), K)
        cgw_solve(bad, good, SolverConfig(kernel=make_kernel("exp", 0.5)))
    assert exc.value.index == 1
    nan_kernel = K.copy()
    nan_kernel[0, 2] = np.nan
    with pytest.raises(NonFiniteEntry):
        embed_network_as_hypernetwork(
            DiscreteMeasureNetwork(np.ones(3), nan_kernel))
    # a validated network's frozen arrays are shared, not copied
    h = embed_network_as_hypernetwork(good)
    assert h.sample_weights is good.weights and h.kernel is good.kernel


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


def test_load_json_missing_field_names_file_and_field(tmp_path):
    p = tmp_path / "nokernel.json"
    p.write_text(json.dumps({"type": "measure_network", "weights": [1.0]}))
    with pytest.raises(ValueError, match=r"nokernel\.json has no field 'kernel'"):
        load_json(p)


def test_load_json_rejects_a_top_level_that_is_not_an_object(tmp_path):
    p = tmp_path / "list.json"
    p.write_text(json.dumps([1, 2]))
    with pytest.raises(ValueError, match=r"list\.json holds a JSON list, not an object"):
        load_json(p)


# Networks and hypernetworks are valid by construction: a constructor checks its
# fields as validate_network / validate_hypernetwork do, with the same error
# types and indices, so no solver entry point can be handed an invalid input.

_K3 = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])


def _defect(case):
    """(weights, kernel, expected error, expected index) of one defect."""
    w, k = np.array([0.5, 0.1, 0.6]), _K3.copy()
    if case == "negative_weight":
        w[1] = -0.1
        return w, k, NegativeWeight, 1
    if case == "nan_weight":
        w[2] = np.nan
        return w, k, NonFiniteEntry, 2
    if case == "nan_kernel":
        k[0, 2] = np.nan
        return w, k, NonFiniteEntry, (0, 2)
    return w, k[:2], NonSquareKernel, None  # a kernel of the wrong shape


_DEFECTS = ["negative_weight", "nan_weight", "nan_kernel", "shape_mismatch"]


def _raises_like_validation(call, case, *, network):
    w, k, error, index = _defect(case)
    with pytest.raises(error) as exc:
        if network:
            validate_network(w, k)
        else:
            validate_hypernetwork(w, w, k)
    if index is not None:
        assert exc.value.index == index
    good = validate_network(np.full(3, 0.4), _K3)
    if not network:
        good = embed_network_as_hypernetwork(good)
    with pytest.raises(error) as exc:
        bad = DiscreteMeasureNetwork(w, k) if network else DiscreteMeasureHypernetwork(w, w, k)
        call(bad, good)
    if index is not None:
        assert exc.value.index == index


_CONFIG = SolverConfig(kernel=make_kernel("exp", 0.5), restarts=1, max_iters=5)


@pytest.mark.parametrize("case", _DEFECTS)
@pytest.mark.parametrize("solve", ["bca_solve", "bca_solve_kernels", "cot_solve"])
def test_hypernetwork_solvers_validate_hand_built_inputs(solve, case):
    calls = {
        "bca_solve": lambda hx, hy: bca_solve(hx, hy, _CONFIG),
        "bca_solve_kernels": lambda hx, hy: bca_solve_kernels(
            hx, hy, _CONFIG, [make_kernel("exp", d) for d in (0.5, 2.0)]),
        "cot_solve": lambda hx, hy: cot_solve(hx, hy),
    }
    _raises_like_validation(calls[solve], case, network=False)


@pytest.mark.parametrize("case", _DEFECTS)
@pytest.mark.parametrize("solve", ["cgw_solve", "cgw_lower_bound", "gw2_solve"])
def test_network_solvers_validate_hand_built_inputs(solve, case):
    calls = {
        "cgw_solve": lambda nx, ny: cgw_solve(nx, ny, _CONFIG),
        "cgw_lower_bound": lambda nx, ny: cgw_lower_bound(nx, ny, _CONFIG.kernel),
        "gw2_solve": lambda nx, ny: gw2_solve(nx, ny),
    }
    _raises_like_validation(calls[solve], case, network=True)


def test_solver_validation_shares_validated_arrays(monkeypatch):
    # validation of a validated input hands the solver the very same arrays
    net = validate_network(np.full(3, 0.4), _K3)
    h = embed_network_as_hypernetwork(net)
    seen = []
    monkeypatch.setattr(solver, "build_tensor",
                        lambda hx, hy, *a: seen.append((hx, hy)) or build_tensor(hx, hy, *a))
    bca_solve(h, h, _CONFIG)
    (hx, hy), = seen
    assert hx.kernel is h.kernel and hx.sample_weights is h.sample_weights
