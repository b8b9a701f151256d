import numpy as np
import pytest

from conicot import (
    foscttm,
    gen_aligned_hypernetworks,
    gen_squares,
    image_to_network,
    knn_classify,
    perturb_measure,
)
from conicot.errors import (
    DegenerateSplit,
    EmptyCorrespondence,
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
        gen_squares(1, g=50, side=5, image_size=12, seed=0, retry_cap=200)


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


def test_knn_classify_degenerate():
    feats = np.zeros((4, 1))
    labels = np.array([0, 0, 1, 1])
    with pytest.raises(DegenerateSplit):
        knn_classify(feats, labels, k=1, label_rate=0.01, trials=1)
    with pytest.raises(DegenerateSplit):
        knn_classify(feats, labels, k=5, label_rate=0.5, trials=1)


def test_perturb_measure(rng):
    net = random_network(rng, 6)
    out = perturb_measure(net, eps=0.1, seed=3)
    assert np.abs(out.weights / net.weights - 1.0).max() <= 0.1
    assert np.array_equal(out.kernel, net.kernel)
    with pytest.raises(ValueError):
        perturb_measure(net, eps=1.0)
