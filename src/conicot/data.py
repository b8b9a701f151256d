"""Synthetic data generators and evaluation metrics.

Covers square-pattern grayscale images with kNN graph extraction, a latent
factor model producing aligned hypernetwork pairs for matching experiments,
and the FOSCTTM / kNN-classification evaluation metrics. All generators are
deterministic given a seed.
"""

from __future__ import annotations

import numpy as np

from .core import (DiscreteMeasureNetwork, _check_kernel_entries, validate_hypernetwork,
                   validate_network)
from .errors import (
    DegenerateSplit,
    EmptyCorrespondence,
    InsufficientMass,
    LengthMismatch,
    NegativeWeight,
    PlacementFailure,
    check_count,
)

SAMPLE_DRAWS = 1000  # pixel draws image_to_network makes before it gives up
PLACEMENT_TRIES = 1000  # square placements gen_squares tries per image before it gives up


def gen_squares(count: int, g: int = 4, side: int = 3, image_size: int = 32,
                seed: int = 0):
    """Grayscale images containing g non-overlapping bright squares.

    Each square has side length `side`, an i.i.d. uniform(0,1) brightness,
    and is placed by rejection sampling; pixel intensity is the sum of the
    brightnesses of the squares covering it (zero overlap by construction).
    """
    for name, value, low in (("count", count, 0), ("g", g, 1), ("side", side, 1),
                             ("image_size", image_size, side), ("seed", seed, 0)):
        check_count(name, value, low)
    rng = np.random.default_rng(seed)
    images = []
    for _ in range(count):
        img = np.zeros((image_size, image_size))
        occupied = np.zeros((image_size, image_size), dtype=bool)
        placed = 0
        tries = 0
        while placed < g:
            if tries > PLACEMENT_TRIES:
                raise PlacementFailure(
                    f"could not place {g} side-{side} squares in {image_size}^2"
                )
            tries += 1
            r = int(rng.integers(0, image_size - side + 1))
            c = int(rng.integers(0, image_size - side + 1))
            if occupied[r:r + side, c:c + side].any():
                continue
            brightness = float(rng.uniform(0.0, 1.0))
            img[r:r + side, c:c + side] += brightness
            occupied[r:r + side, c:c + side] = True
            placed += 1
        images.append(img)
    return images


def image_to_network(image, n_sample: int, knn: int, seed: int = 0) -> DiscreteMeasureNetwork:
    """Sampled-pixel network: intensities as weights, directed kNN adjacency.

    Pixel coordinates are drawn uniformly without replacement from the whole
    image, and drawn again while every drawn pixel is dark (SAMPLE_DRAWS draws
    at most); weights are the sampled intensities normalized to unit mass;
    omega_ij = 1 iff pixel j is among the knn nearest (Euclidean) pixels of
    pixel i, ties broken by sample index. Every pixel must be finite
    (NonFiniteEntry) and nonnegative (NegativeWeight), drawn or not.
    """
    check_count("n_sample", n_sample, 1)
    check_count("knn", knn, 1)
    check_count("seed", seed, 0)
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError(f"an image must be 2-D, not of shape {image.shape}")
    _check_kernel_entries(image)
    if (image < 0).any():
        raise NegativeWeight(tuple(int(v) for v in np.argwhere(image < 0)[0]))
    coords = np.argwhere(np.ones_like(image, dtype=bool)).astype(np.float64)
    total = coords.shape[0]
    if n_sample > total:
        raise ValueError(f"n_sample {n_sample} exceeds pixel count {total}")
    if knn >= n_sample:
        raise ValueError("knn must be smaller than n_sample")
    if not (image > 0).any():
        raise InsufficientMass("the image has no positive intensity")
    rng = np.random.default_rng(seed)
    for _ in range(SAMPLE_DRAWS):
        idx = rng.choice(total, size=n_sample, replace=False)
        pts = coords[idx]
        intens = image[pts[:, 0].astype(int), pts[:, 1].astype(int)]
        if intens.sum() > 0:
            break
    else:
        raise InsufficientMass(f"every pixel drawn was dark in {SAMPLE_DRAWS} draws")
    weights = intens / intens.sum()
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    # stable argsort gives index-order tie breaking
    order = np.argsort(d2, axis=1, kind="stable")
    adj = np.zeros((n_sample, n_sample))
    rows = np.repeat(np.arange(n_sample), knn)
    adj[rows, order[:, :knn].ravel()] = 1.0
    return validate_network(weights, adj, points=pts)


def gen_aligned_hypernetworks(n_cells: int, feat_x: int, feat_y: int,
                              noise: float = 0.1, downsample_y: float = 1.0,
                              seed: int = 0):
    """Aligned hypernetwork pair from a shared 1D latent factor model.

    Cells sit on a latent coordinate z in [0, 1]; each feature is a smooth
    bump profile of z. The first min(feat_x, feat_y) features of hy are
    positive linear rescalings of the corresponding hx features plus
    Gaussian noise; extra features get fresh bump centers. hy keeps a
    uniformly downsampled subset of the cells. Measures are uniform.

    Returns (hx, hy, correspondence) where correspondence has 'cells'
    (hy cell index -> hx cell index) and 'features' (list of linked
    (x_feature, y_feature) pairs).
    """
    for name, value in (("n_cells", n_cells), ("feat_x", feat_x), ("feat_y", feat_y)):
        check_count(name, value, 1)
    check_count("seed", seed, 0)
    if not 0 < downsample_y <= 1:
        raise ValueError("downsample_y must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    z = np.sort(rng.uniform(0.0, 1.0, size=n_cells))

    def bumps(centers, widths):
        return np.exp(-((z[:, None] - centers[None, :]) ** 2)
                      / (2.0 * widths[None, :] ** 2))

    centers_x = np.linspace(0.05, 0.95, feat_x)
    widths_x = np.full(feat_x, 0.6 / max(feat_x, 2))
    # amplitude ramp along the latent axis; without it the construction is
    # mirror symmetric (z -> 1 - z) and alignment is only defined up to flip
    amps_x = 0.6 + 0.8 * centers_x
    kx = bumps(centers_x, widths_x) * amps_x[None, :]

    linked = min(feat_x, feat_y)
    scales = rng.uniform(0.8, 1.25, size=linked)
    ky = np.zeros((n_cells, feat_y))
    ky[:, :linked] = kx[:, :linked] * scales[None, :]
    if feat_y > linked:
        extra_centers = rng.uniform(0.0, 1.0, size=feat_y - linked)
        extra_widths = np.full(feat_y - linked, 0.6 / max(feat_y, 2))
        ky[:, linked:] = bumps(extra_centers, extra_widths) \
            * (0.6 + 0.8 * extra_centers)[None, :]
    ky = ky + noise * rng.standard_normal(ky.shape)
    ky = np.clip(ky, 0.0, None)

    m = int(np.ceil(downsample_y * n_cells))
    keep = np.sort(rng.choice(n_cells, size=m, replace=False))
    ky = ky[keep]

    hx = validate_hypernetwork(np.full(n_cells, 1.0 / n_cells),
                               np.full(feat_x, 1.0 / feat_x), kx)
    hy = validate_hypernetwork(np.full(m, 1.0 / m), np.full(feat_y, 1.0 / feat_y), ky)
    correspondence = {
        "cells": {int(k): int(orig) for k, orig in enumerate(keep)},
        "features": [(int(f), int(f)) for f in range(linked)],
    }
    return hx, hy, correspondence


def foscttm(matching, correspondence) -> float:
    """Fraction of Samples Closer Than the True Match, averaged over matches.

    matching is an n x m score matrix (higher = stronger match);
    correspondence maps column index k to its true row t(k) (or row to
    column; pairs are read as (row, column)). For each matched pair, the
    fraction of columns in that row scoring strictly above the true match
    is computed; the mean over pairs is returned. Lower is better.
    """
    matching = np.asarray(matching, dtype=np.float64)
    if isinstance(correspondence, dict):
        pairs = [(v, k) for k, v in correspondence.items()]
    else:
        pairs = list(correspondence)
    if not pairs:
        raise EmptyCorrespondence("no matched samples")
    rows, cols = np.asarray(pairs).T
    closer = (matching[rows] > matching[rows, cols][:, None]).sum(axis=1)
    return float(np.mean(closer / max(matching.shape[1] - 1, 1)))


def knn_classify(features, labels, k: int, label_rate: float, trials: int,
                 seed: int = 0):
    """Majority-vote kNN test error over repeated stratified splits.

    Returns (mean error, std error) over trials. Euclidean metric on the
    feature rows, which must be finite (NonFiniteEntry); vote ties resolved
    toward the smaller label.
    """
    check_count("k", k, 1)
    check_count("trials", trials, 1)
    check_count("seed", seed, 0)
    if not 0 < label_rate < 1:  # NaN fails too
        raise DegenerateSplit(f"label_rate {label_rate} leaves no train or test items")
    features = np.asarray(features, dtype=np.float64)
    _check_kernel_entries(features)
    labels = np.asarray(labels)
    if features.shape[0] != labels.size:
        raise LengthMismatch(f"{features.shape[0]} feature rows for {labels.size} labels")
    classes = np.unique(labels)
    n = labels.size
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(trials):
        train_idx = []
        for c in classes:
            members = np.flatnonzero(labels == c)
            n_train = int(round(label_rate * members.size))
            if n_train < 1 or n_train >= members.size:
                raise DegenerateSplit(
                    f"label_rate {label_rate} leaves no train or test items for class {c}"
                )
            train_idx.append(rng.permutation(members)[:n_train])
        train_idx = np.concatenate(train_idx)
        test_mask = np.ones(n, dtype=bool)
        test_mask[train_idx] = False
        test_idx = np.flatnonzero(test_mask)
        if k >= train_idx.size:
            raise DegenerateSplit(f"k={k} not below train size {train_idx.size}")
        d2 = ((features[test_idx][:, None, :] - features[train_idx][None, :, :]) ** 2).sum(axis=2)
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
        # votes per class of each test row; argmax takes the smallest tied class
        counts = (labels[train_idx][nearest][:, :, None] == classes).sum(axis=1)
        picked = classes[counts.argmax(axis=1)]
        errors.append(int((picked != labels[test_idx]).sum()) / test_idx.size)
    return float(np.mean(errors)), float(np.std(errors))


def perturb_measure(net: DiscreteMeasureNetwork, eps: float, seed=0) -> DiscreteMeasureNetwork:
    """Multiplicative measure perturbation: weights scaled by 1 + uniform(-eps, eps).

    seed is an int or a numpy Generator, which is drawn from in place."""
    if not 0 <= eps < 1:
        raise ValueError("eps must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    eta = rng.uniform(-eps, eps, size=net.n)
    out = validate_network(net.weights * (1.0 + eta), net.kernel,
                           points=net.points, label=net.label)
    assert float(np.abs(out.weights - net.weights).sum()) <= eps * net.weights.sum() + 1e-12
    return out
