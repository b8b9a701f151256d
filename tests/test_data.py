import re

import numpy as np
import pytest

from conicot import (
    foscttm,
    gen_aligned_hypernetworks,
    gen_squares,
    image_to_network,
    knn_classify,
    perturb_measure,
    validate_network,
)
from conicot.errors import (
    DegenerateSplit,
    EmptyCorrespondence,
    InsufficientMass,
    LengthMismatch,
    NegativeArgument,
    NegativeWeight,
    NonFiniteEntry,
    PlacementFailure,
)
from tests.conftest import random_network


def test_gen_squares_basic():
    imgs = gen_squares(3, g=4, side=3, image_size=32, seed=0)
    assert len(imgs) == 3
    for img in imgs:
        assert img.shape == (32, 32)
        # exactly g * side^2 bright pixels, no overlap
        assert (img > 0).sum() == 4 * 9
        assert img.max() <= 1.0 + 1e-12


def test_gen_squares_deterministic():
    a = gen_squares(2, seed=5)
    b = gen_squares(2, seed=5)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    c = gen_squares(2, seed=6)
    assert not np.array_equal(a[0], c[0])


def test_gen_squares_placement_failure():
    with pytest.raises(PlacementFailure):
        gen_squares(1, g=50, side=5, image_size=12, seed=0)


def test_image_to_network():
    img = gen_squares(1, seed=1)[0]
    net = image_to_network(img, n_sample=40, knn=4, seed=0)
    assert net.n == 40
    assert net.mass == pytest.approx(1.0)
    assert set(np.unique(net.kernel)) <= {0.0, 1.0}
    assert (net.kernel.sum(axis=1) == 4).all()  # exactly knn out-edges
    assert (np.diag(net.kernel) == 0).all()
    # deterministic given the seed
    net2 = image_to_network(img, n_sample=40, knn=4, seed=0)
    assert np.array_equal(net.kernel, net2.kernel)
    assert np.array_equal(net.weights, net2.weights)


def test_image_to_network_argument_checks():
    img = np.ones((4, 4))
    with pytest.raises(ValueError):
        image_to_network(img, n_sample=17, knn=2)
    with pytest.raises(ValueError):
        image_to_network(img, n_sample=4, knn=4)


@pytest.mark.parametrize("image", [np.ones(6), np.ones((2, 3, 2)), np.float64(1.0)],
                         ids=["1-D", "3-D", "0-D"])
def test_image_to_network_rejects_an_image_that_is_not_2d(image):
    with pytest.raises(ValueError, match=re.escape(f"not of shape {image.shape}")):
        image_to_network(image, n_sample=2, knn=1)


@pytest.mark.parametrize("n_sample, knn, name", [(10, 0, "knn"), (10, -1, "knn"),
                                                  (0, 2, "n_sample"), (-3, 2, "n_sample"),
                                                  (10, 2.5, "knn"), (2.5, 2, "n_sample")])
def test_image_to_network_rejects_counts_below_one(n_sample, knn, name):
    # knn = 0 would give an all-zero kernel, knn = -1 or n_sample = 0 a numpy error
    with pytest.raises(NegativeArgument, match=f"^{name} = "):
        image_to_network(np.ones((4, 4)), n_sample=n_sample, knn=knn)


def test_image_to_network_redraws_until_a_bright_pixel():
    img = np.zeros((8, 8))
    img[5, 2] = 1.0  # pixel 42 in the row-major order of the draws
    rng = np.random.default_rng(1)
    assert all(42 not in rng.choice(64, size=5, replace=False) for _ in range(2))
    net = image_to_network(img, n_sample=5, knn=2, seed=1)
    assert net.weights.tolist().count(1.0) == 1 and net.mass == 1.0
    assert [5.0, 2.0] in net.points.tolist()
    with pytest.raises(InsufficientMass):
        image_to_network(np.zeros((8, 8)), n_sample=5, knn=2)


@pytest.mark.parametrize("pixel, error", [(np.nan, NonFiniteEntry), (np.inf, NonFiniteEntry),
                                          (-np.inf, NonFiniteEntry), (-1.0, NegativeWeight)])
@pytest.mark.parametrize("n_sample", [3, 6])
def test_image_to_network_rejects_a_non_finite_or_negative_pixel(pixel, error, n_sample):
    # the whole image is checked, so the pixel is named whether it is drawn
    # or not; a NaN pixel used to be drawn around, or to read as dark
    img = np.array([[1.0, pixel, 3.0], [4.0, 5.0, 6.0]])
    for seed in range(4):
        with pytest.raises(error) as info:
            image_to_network(img, n_sample=n_sample, knn=1, seed=seed)
        assert info.value.index == (0, 1)


def test_gen_aligned_shapes_and_correspondence():
    hx, hy, corr = gen_aligned_hypernetworks(50, 6, 9, noise=0.05,
                                             downsample_y=0.8, seed=2)
    assert hx.n_samples == 50 and hx.n_features == 6
    assert hy.n_samples == 40 and hy.n_features == 9
    assert hx.sample_mass == pytest.approx(1.0)
    assert hy.feature_mass == pytest.approx(1.0)
    assert len(corr["features"]) == 6
    assert all(0 <= v < 50 for v in corr["cells"].values())
    assert (hy.kernel >= 0).all()
    with pytest.raises(ValueError):
        gen_aligned_hypernetworks(10, 2, 2, downsample_y=0.0)


def test_gen_aligned_returns_validated_frozen_arrays():
    hx, hy, _ = gen_aligned_hypernetworks(20, 3, 4, seed=0)
    for h in (hx, hy):
        for arr in (h.sample_weights, h.feature_weights, h.kernel):
            assert not arr.flags.writeable


def test_foscttm_perfect_and_null(rng):
    # identity score matrix: true match always the max, score 0
    n = 20
    scores = np.eye(n)
    corr = {k: k for k in range(n)}
    assert foscttm(scores, corr) == 0.0
    # random scores: expect roughly 0.5
    vals = [foscttm(np.random.default_rng(s).uniform(size=(n, n)), corr)
            for s in range(20)]
    assert abs(np.mean(vals) - 0.5) < 0.1
    with pytest.raises(EmptyCorrespondence):
        foscttm(scores, {})


def test_foscttm_worst_case():
    scores = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert foscttm(scores, {0: 0, 1: 1}) == 1.0


def test_foscttm_matches_per_pair_count(rng):
    # ties do not count as closer; pairs may repeat a row
    scores = rng.integers(0, 4, size=(6, 9)).astype(float)
    pairs = [(0, 3), (2, 2), (2, 8), (5, 0)]
    fracs = [(scores[i] > scores[i, k]).sum() / 8 for i, k in pairs]
    assert foscttm(scores, pairs) == float(np.mean(fracs))


def test_knn_classify_separable(rng):
    feats = np.concatenate([rng.normal(0, 0.1, size=(30, 2)),
                            rng.normal(5, 0.1, size=(30, 2))])
    labels = np.array([0] * 30 + [1] * 30)
    mean, std = knn_classify(feats, labels, k=3, label_rate=0.5, trials=10)
    assert mean == 0.0


def test_knn_classify_null(rng):
    feats = rng.uniform(size=(60, 2))
    labels = np.array([0, 1] * 30)
    mean, _ = knn_classify(feats, labels, k=5, label_rate=0.5, trials=20)
    assert 0.2 < mean < 0.8


def _knn_error_per_row(features, labels, k, label_rate, trials, seed=0):
    """knn_classify's error by one vote per test row: the smallest of the most
    voted labels wins."""
    classes = np.unique(labels)
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(trials):
        train = np.concatenate([
            rng.permutation(np.flatnonzero(labels == c))[
                :int(round(label_rate * (labels == c).sum()))] for c in classes])
        test = np.setdiff1d(np.arange(labels.size), train)
        d2 = ((features[test][:, None, :] - features[train][None, :, :]) ** 2).sum(axis=2)
        votes = labels[train][np.argsort(d2, axis=1, kind="stable")[:, :k]]
        wrong = 0
        for row, true in zip(votes, labels[test]):
            vals, counts = np.unique(row, return_counts=True)
            wrong += int(vals[counts == counts.max()].min() != true)
        errors.append(wrong / test.size)
    return float(np.mean(errors)), float(np.std(errors))


@pytest.mark.parametrize("case", range(12))
def test_knn_classify_matches_a_per_row_vote(case):
    # even k and few distinct features tie votes; labels are not 0..C-1
    r = np.random.default_rng(case)
    n = int(r.integers(20, 40))
    feats = r.integers(0, 3, size=(n, 2)).astype(float)
    labels = r.choice([-3, 2, 7, 11][:int(r.integers(2, 5))], size=n)
    labels[:8] = np.resize(np.unique(labels), 8)  # every class has two or more rows
    k = int(r.choice([2, 4, 6]))
    args = (feats, labels, k, 0.5, 3, case)
    assert knn_classify(*args) == _knn_error_per_row(*args)


def test_knn_classify_rejects_more_labels_than_feature_rows():
    with pytest.raises(LengthMismatch):
        knn_classify(np.zeros((6, 2)), np.array([0, 1] * 5), k=1, label_rate=0.5,
                     trials=1)


def test_knn_classify_degenerate():
    feats = np.zeros((4, 1))
    labels = np.array([0, 0, 1, 1])
    with pytest.raises(DegenerateSplit):
        knn_classify(feats, labels, k=1, label_rate=0.01, trials=1)
    with pytest.raises(DegenerateSplit):
        knn_classify(feats, labels, k=5, label_rate=0.5, trials=1)


def test_knn_classify_rejects_non_finite_features():
    feats = np.array([[0.0, 0.0], [1.0, np.nan], [0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(NonFiniteEntry) as info:
        knn_classify(feats, np.array([0, 1, 0, 1]), k=1, label_rate=0.5, trials=1)
    assert info.value.index == (1, 1)


@pytest.mark.parametrize("rate", [float("nan"), 0.0, 1.0, -0.5, 1.5, float("inf")])
def test_knn_classify_rejects_a_label_rate_outside_zero_one(rate):
    # checked before any split: NaN used to fail in int(round(nan))
    with pytest.raises(DegenerateSplit, match=f"^label_rate {rate} "):
        knn_classify(np.zeros((4, 1)), np.array([0, 0, 1, 1]), k=1, label_rate=rate, trials=1)


@pytest.mark.parametrize("field, value", [("n_cells", 0), ("feat_x", 0), ("feat_y", 0),
                                          ("n_cells", -1), ("feat_x", 2.5), ("seed", -1)])
def test_gen_aligned_rejects_an_empty_side(field, value):
    sizes = {"n_cells": 20, "feat_x": 3, "feat_y": 4, field: value}
    with pytest.raises(NegativeArgument):
        gen_aligned_hypernetworks(**sizes)


@pytest.mark.parametrize("field, value", [("g", 0), ("side", 0), ("side", -1),
                                          ("count", -1), ("count", 2.5), ("side", 2.5),
                                          ("seed", -1), ("seed", 2.5)])
def test_gen_squares_rejects_degenerate_arguments(field, value):
    # g or side below 1 would write all-dark images, count below 0 nothing
    args = {"count": 1, "g": 4, "side": 3, field: value}
    with pytest.raises(NegativeArgument):
        gen_squares(**args)


def test_gen_squares_rejects_an_image_smaller_than_a_square():
    # numpy would fail on the placement draw with "high <= 0"
    with pytest.raises(NegativeArgument, match="^image_size = 2 is below 3"):
        gen_squares(1, side=3, image_size=2)
    assert gen_squares(1, g=1, side=3, image_size=3)[0].shape == (3, 3)


@pytest.mark.parametrize("k, trials", [(0, 1), (-1, 1), (3, 0), (3, -2), (2.5, 1),
                                        (3, 1.5)])
def test_knn_classify_rejects_k_or_trials_below_one(rng, k, trials):
    # k = -1 would vote with all but one training point, trials = 0 average nothing
    feats = rng.normal(size=(20, 2))
    labels = np.array([0, 1] * 10)
    with pytest.raises(NegativeArgument):
        knn_classify(feats, labels, k=k, label_rate=0.5, trials=trials)


@pytest.mark.parametrize("seed", [-1, 2.5])
def test_seeded_functions_reject_a_seed_that_is_not_a_count(rng, seed):
    # numpy would reject the seed only at its first draw, without naming it
    with pytest.raises(NegativeArgument, match="^seed = "):
        image_to_network(np.ones((4, 4)), n_sample=4, knn=2, seed=seed)
    with pytest.raises(NegativeArgument, match="^seed = "):
        knn_classify(rng.normal(size=(20, 2)), np.array([0, 1] * 10), k=1, label_rate=0.5,
                     trials=1, seed=seed)


def test_perturb_measure(rng):
    net = random_network(rng, 6)
    out = perturb_measure(net, eps=0.1, seed=3)
    assert np.abs(out.weights / net.weights - 1.0).max() <= 0.1
    assert np.array_equal(out.kernel, net.kernel)
    with pytest.raises(ValueError):
        perturb_measure(net, eps=1.0)


def test_perturb_measure_draws_from_a_shared_generator(rng):
    # two calls on one Generator make the two draws it would make inline
    nx, ny = random_network(rng, 6), random_network(rng, 4)
    gen = np.random.default_rng(11)
    outs = perturb_measure(nx, 0.2, gen), perturb_measure(ny, 0.2, gen)
    inline = np.random.default_rng(11)
    for net, out in zip((nx, ny), outs):
        eta = inline.uniform(-0.2, 0.2, size=net.n)
        assert np.array_equal(out.weights, validate_network(net.weights * (1.0 + eta),
                                                            net.kernel).weights)
