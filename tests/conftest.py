import numpy as np
import pytest

from conicot import omega_of_gap, validate_network, validate_hypernetwork
from conicot.tensor import _quantize


def random_network(rng, n, unit_mass=False, kernel_diameter=None):
    """Random metric-like network with uniform-ish weights."""
    pts = rng.normal(size=(n, 2))
    k = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    if kernel_diameter is not None and k.max() > 0:
        k = k * (kernel_diameter / k.max())
    w = rng.uniform(0.5, 1.5, size=n)
    if unit_mass:
        w = w / w.sum()
    return validate_network(w, k, points=pts)


def random_hypernetwork(rng, n, m, unit_mass=False):
    k = rng.uniform(0.0, 1.0, size=(n, m))
    a = rng.uniform(0.5, 1.5, size=n)
    ap = rng.uniform(0.5, 1.5, size=m)
    if unit_mass:
        a = a / a.sum()
        ap = ap / ap.sum()
    return validate_hypernetwork(a, ap, k)


def tensor_oracle(hx, hy, kernel, bins=None):
    """T[i, j, k, l] = Omega(|wx[i, j] - wy[k, l]| / 2 delta) as a 4D array,
    computed from the two kernels alone.

    bins=None: the exact tensor, bit-identical to the dense build. bins=q: the
    factored tensor of a policy with quantize_bins=q, the Omega table of the
    _quantize bin centres indexed by the _quantize bin ids.
    """
    if bins is None:
        return omega_of_gap(kernel, hx.kernel[:, :, None, None], hy.kernel[None, None])
    xv, xid = _quantize(hx.kernel, bins)[:2]
    yv, yid = _quantize(hy.kernel, bins)[:2]
    return omega_of_gap(kernel, xv[:, None], yv[None, :])[xid[:, :, None, None],
                                                        yid[None, None]]


@pytest.fixture
def rng():
    return np.random.default_rng(0)
