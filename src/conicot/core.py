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
    bad = np.flatnonzero(~np.isfinite(w))
    if bad.size:
        raise NonFiniteEntry(int(bad[0]))
    neg = np.flatnonzero(w < 0)
    if neg.size:
        raise NegativeWeight(int(neg[0]))
    return w


def _check_kernel_entries(k):
    bad = np.argwhere(~np.isfinite(k))
    if bad.size:
        raise NonFiniteEntry(tuple(int(v) for v in bad[0]))


@dataclasses.dataclass(frozen=True)
class DiscreteMeasureNetwork:
    """A finite point set with nonnegative weights and a bounded square kernel."""

    weights: np.ndarray
    kernel: np.ndarray
    points: np.ndarray | None = None
    label: str | None = None
    mass: float = 0.0

    @property
    def n(self) -> int:
        return self.weights.shape[0]

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
    return DiscreteMeasureNetwork(
        weights=_freeze(w),
        kernel=_freeze(k),
        points=pts,
        label=label,
        mass=float(w.sum()),
    )


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


def scale_measure(net: DiscreteMeasureNetwork, r: float) -> DiscreteMeasureNetwork:
    """Scale the measure of a network by r >= 0, leaving the kernel unchanged."""
    if r < 0:
        raise NegativeScale(f"scale factor {r} is negative")
    return validate_network(net.weights * r, net.kernel, points=net.points, label=net.label)


def embed_network_as_hypernetwork(net: DiscreteMeasureNetwork) -> DiscreteMeasureHypernetwork:
    """View a network as a hypernetwork with identical sample and feature axes."""
    return DiscreteMeasureHypernetwork(
        sample_weights=net.weights, feature_weights=net.weights, kernel=net.kernel
    )


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
