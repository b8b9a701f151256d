"""Domain types for measure networks / hypernetworks and basic measure operations.

All types are immutable after validation (arrays have the writeable flag
cleared) and safe to share across concurrent solver runs.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .errors import (
    LengthMismatch,
    NegativeScale,
    NegativeWeight,
    NonFiniteEntry,
    NonSquareKernel,
)


def _freeze(arr):
    a = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
    a.flags.writeable = False
    return a


def _check_weights(w, name="weights"):
    w = np.asarray(w, dtype=np.float64)
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


@dataclasses.dataclass(frozen=True)
class DiscreteMeasureNetwork:
    """A finite point set with nonnegative weights and a bounded square kernel."""

    weights: np.ndarray
    kernel: np.ndarray
    points: np.ndarray | None = None
    label: str | None = None

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

    @staticmethod
    def from_json_dict(d: dict) -> "DiscreteMeasureNetwork":
        return validate_network(
            d["weights"], d["kernel"], points=d.get("points"), label=d.get("label")
        )


@dataclasses.dataclass(frozen=True)
class DiscreteMeasureHypernetwork:
    """Two weighted point sets (samples and features) with a rectangular kernel."""

    sample_weights: np.ndarray
    feature_weights: np.ndarray
    kernel: np.ndarray

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

    @staticmethod
    def from_json_dict(d: dict) -> "DiscreteMeasureHypernetwork":
        return validate_hypernetwork(
            d["sample_weights"], d["feature_weights"], d["kernel"]
        )


@dataclasses.dataclass(frozen=True)
class DiscreteValueMeasure:
    """A discrete measure on the real line (kernel-value pushforward)."""

    values: np.ndarray
    masses: np.ndarray

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())


def validate_network(weights, kernel, points=None, label=None) -> DiscreteMeasureNetwork:
    """Validate raw weight/kernel data and return an immutable network."""
    w = _check_weights(weights)
    k = np.asarray(kernel, dtype=np.float64)
    if k.ndim != 2 or k.shape[0] != k.shape[1] or k.shape[0] != w.shape[0]:
        raise NonSquareKernel(
            f"kernel shape {k.shape} incompatible with {w.shape[0]} weights"
        )
    _check_kernel_entries(k)
    pts = None
    if points is not None:
        pts = _freeze(points)
        if pts.ndim != 2 or pts.shape[0] != w.shape[0]:
            raise NonSquareKernel("points must be an n x d matrix")
    return DiscreteMeasureNetwork(_freeze(w), _freeze(k), points=pts, label=label)


def validate_hypernetwork(sample_weights, feature_weights, kernel) -> DiscreteMeasureHypernetwork:
    """Validate raw data and return an immutable hypernetwork."""
    a = _check_weights(sample_weights, "sample_weights")
    ap = _check_weights(feature_weights, "feature_weights")
    k = np.asarray(kernel, dtype=np.float64)
    if k.ndim != 2 or k.shape != (a.shape[0], ap.shape[0]):
        raise NonSquareKernel(
            f"kernel shape {k.shape} incompatible with ({a.shape[0]}, {ap.shape[0]})"
        )
    _check_kernel_entries(k)
    return DiscreteMeasureHypernetwork(
        sample_weights=_freeze(a), feature_weights=_freeze(ap), kernel=_freeze(k)
    )


def _validated(obj):
    """A network or hypernetwork, possibly built by its constructor, checked
    as validate_network / validate_hypernetwork check raw data.

    The solvers call this on their inputs; a validated object comes back
    with the same arrays.
    """
    if isinstance(obj, DiscreteMeasureNetwork):
        return validate_network(obj.weights, obj.kernel, points=obj.points, label=obj.label)
    return validate_hypernetwork(obj.sample_weights, obj.feature_weights, obj.kernel)


def scale_measure(net: DiscreteMeasureNetwork, r: float) -> DiscreteMeasureNetwork:
    """Scale the measure of a network by r >= 0, leaving the kernel unchanged."""
    if r < 0:
        raise NegativeScale(f"scale factor {r} is negative")
    return validate_network(net.weights * r, net.kernel, points=net.points, label=net.label)


def embed_network_as_hypernetwork(net: DiscreteMeasureNetwork) -> DiscreteMeasureHypernetwork:
    """View a network as a hypernetwork with identical sample and feature axes.

    Validated, so a network built without `validate_network` is checked here.
    """
    return validate_hypernetwork(net.weights, net.weights, net.kernel)


def _embedded(net: DiscreteMeasureNetwork) -> DiscreteMeasureHypernetwork:
    """The embedding unvalidated, for a solver that validates its inputs."""
    return DiscreteMeasureHypernetwork(net.weights, net.weights, net.kernel)


def tv_gap(a, b) -> float:
    """Total-variation norm of the difference of two weight vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise LengthMismatch(f"lengths {a.shape} vs {b.shape}")
    return float(np.abs(a - b).sum())


def load_json(path):
    """Load a network or hypernetwork from a JSON file."""
    with open(path) as f:
        d = json.load(f)
    if d.get("type") == "measure_network":
        return DiscreteMeasureNetwork.from_json_dict(d)
    if d.get("type") == "measure_hypernetwork":
        return DiscreteMeasureHypernetwork.from_json_dict(d)
    raise ValueError(f"unknown input type {d.get('type')!r} in {path}")
