"""Domain types for measure networks / hypernetworks and basic measure operations.

Every type checks its fields on construction, so an object that exists is
valid: finite nonnegative measures, finite kernels of matching shape. The
arrays are stored as read-only float64 (the writeable flag is cleared in
place, without a copy), so objects are safe to share across concurrent
solver runs.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import (
    LengthMismatch,
    NegativeScale,
    NegativeWeight,
    NonFiniteEntry,
    NonSquareKernel,
)


def _float64(a, name):
    """a as a float64 array, or a ValueError naming the field if it is not numbers."""
    try:
        return np.asarray(a, dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise ValueError(f"{name} must hold numbers: {e}") from None


def _check_weights(w, name="weights"):
    w = _float64(w, name)
    if w.ndim != 1:
        raise NonSquareKernel(f"{name} must be a vector")
    if w.size == 0:
        raise NonSquareKernel(f"{name} is empty")
    finite = np.isfinite(w)
    if not finite.all():
        raise NonFiniteEntry(int(np.flatnonzero(~finite)[0]))
    if (w < 0).any():
        raise NegativeWeight(int(np.flatnonzero(w < 0)[0]))
    return w


def _check_kernel_entries(k):
    finite = np.isfinite(k)
    if not finite.all():  # argwhere only on failure: it is 10x slower than all()
        raise NonFiniteEntry(tuple(int(v) for v in np.argwhere(~finite)[0]))


def _check_kernel(k, shape, expected):
    k = _float64(k, "kernel")
    if k.shape != shape:
        raise NonSquareKernel(f"kernel shape {k.shape} incompatible with {expected}")
    _check_kernel_entries(k)
    return k


def _store(obj, **arrays):
    """Set arrays on a frozen dataclass as read-only float64, frozen in place."""
    for name, a in arrays.items():
        a = np.ascontiguousarray(a, dtype=np.float64)
        a.flags.writeable = False
        object.__setattr__(obj, name, a)


@dataclasses.dataclass(frozen=True)
class DiscreteMeasureNetwork:
    """A finite point set with nonnegative weights and a bounded square kernel."""

    weights: np.ndarray
    kernel: np.ndarray
    points: np.ndarray | None = None
    label: str | None = None

    def __post_init__(self):
        w = _check_weights(self.weights)
        n = w.shape[0]
        _store(self, weights=w, kernel=_check_kernel(self.kernel, (n, n), f"{n} weights"))
        if self.points is not None:
            _store(self, points=_float64(self.points, "points"))
            if self.points.ndim != 2 or self.points.shape[0] != n:
                raise NonSquareKernel("points must be an n x d matrix")

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def mass(self) -> float:
        return float(self.weights.sum())

    def to_json_dict(self) -> dict:
        d = {
            "type": "measure_network",
            "weights": self.weights.tolist(),
            "kernel": self.kernel.tolist(),
        }
        if self.points is not None:
            d["points"] = self.points.tolist()
        if self.label is not None:
            d["label"] = self.label
        return d


@dataclasses.dataclass(frozen=True)
class DiscreteMeasureHypernetwork:
    """Two weighted point sets (samples and features) with a rectangular kernel."""

    sample_weights: np.ndarray
    feature_weights: np.ndarray
    kernel: np.ndarray

    def __post_init__(self):
        a = _check_weights(self.sample_weights, "sample_weights")
        ap = _check_weights(self.feature_weights, "feature_weights")
        shape = (a.shape[0], ap.shape[0])
        _store(self, sample_weights=a, feature_weights=ap,
               kernel=_check_kernel(self.kernel, shape, shape))

    @property
    def n_samples(self) -> int:
        return self.sample_weights.shape[0]

    @property
    def n_features(self) -> int:
        return self.feature_weights.shape[0]

    @property
    def sample_mass(self) -> float:
        return float(self.sample_weights.sum())

    @property
    def feature_mass(self) -> float:
        return float(self.feature_weights.sum())

    def to_json_dict(self) -> dict:
        return {
            "type": "measure_hypernetwork",
            "sample_weights": self.sample_weights.tolist(),
            "feature_weights": self.feature_weights.tolist(),
            "kernel": self.kernel.tolist(),
        }


@dataclasses.dataclass(frozen=True)
class DiscreteValueMeasure:
    """A discrete measure on the real line (kernel-value pushforward): finite
    values, each with a finite nonnegative mass."""

    values: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        m = _check_weights(self.masses, "masses")
        v = _float64(self.values, "values")
        if v.shape != m.shape:
            raise LengthMismatch(f"values of shape {v.shape} for masses of shape {m.shape}")
        _check_kernel_entries(v)
        _store(self, values=v, masses=m)

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())


def validate_network(weights, kernel, points=None, label=None) -> DiscreteMeasureNetwork:
    """An immutable network from raw weight/kernel data, checked on construction."""
    return DiscreteMeasureNetwork(weights, kernel, points=points, label=label)


def validate_hypernetwork(sample_weights, feature_weights, kernel) -> DiscreteMeasureHypernetwork:
    """An immutable hypernetwork from raw data, checked on construction."""
    return DiscreteMeasureHypernetwork(sample_weights, feature_weights, kernel)


def scale_measure(net: DiscreteMeasureNetwork, r: float) -> DiscreteMeasureNetwork:
    """Scale the measure of a network by a finite r >= 0, leaving the kernel unchanged."""
    if not 0 <= r < np.inf:  # NaN fails too
        raise NegativeScale(f"scale factor {r} is not in [0, inf)")
    return DiscreteMeasureNetwork(net.weights * r, net.kernel, points=net.points, label=net.label)


def embed_network_as_hypernetwork(net: DiscreteMeasureNetwork) -> DiscreteMeasureHypernetwork:
    """View a network as a hypernetwork with identical sample and feature axes.

    The hypernetwork shares the network's arrays; its constructor checks them.
    """
    return DiscreteMeasureHypernetwork(net.weights, net.weights, net.kernel)


def tv_gap(a, b) -> float:
    """Total-variation norm of the difference of two weight vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise LengthMismatch(f"lengths {a.shape} vs {b.shape}")
    return float(np.abs(a - b).sum())


# the fields each input type needs; a network may also carry points and a label
_REQUIRED = {"measure_network": ("weights", "kernel"),
             "measure_hypernetwork": ("sample_weights", "feature_weights", "kernel")}


def load_json(path):
    """Load a network or hypernetwork from a JSON file.

    A top level that is not a JSON object, or a missing field, raises
    ValueError naming the file and the field.
    """
    import json  # not loaded with conicot
    with open(path) as f:
        d = json.load(f)
    if not isinstance(d, dict):
        raise ValueError(f"{path} holds a JSON {type(d).__name__}, not an object")
    kind = d.get("type")
    if kind not in _REQUIRED:
        raise ValueError(f"unknown input type {kind!r} in {path}")
    for field in _REQUIRED[kind]:
        if field not in d:
            raise ValueError(f"{kind} in {path} has no field {field!r}")
    if kind == "measure_network":
        return DiscreteMeasureNetwork(d["weights"], d["kernel"], points=d.get("points"),
                                      label=d.get("label"))
    return DiscreteMeasureHypernetwork(d["sample_weights"], d["feature_weights"],
                                       d["kernel"])
