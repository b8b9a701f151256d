import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicot import (
    ConeKernel,
    KernelFamily,
    SolverConfig,
    cone_distance_sq,
    kernel_constants,
    kernel_pd_check,
    make_kernel,
    omega_eval,
    omega_of_gap,
)
from conicot.errors import CapExceeded, NegativeArgument, NonFinite

KERNELS = ["cos", "exp"]


@pytest.mark.parametrize("name", KERNELS)
def test_omega_at_zero_is_one(name):
    k = make_kernel(name, 1.0)
    assert omega_eval(k, 0.0) == pytest.approx(1.0)


def test_omega_values():
    kc = make_kernel("cos", 1.0)
    assert omega_eval(kc, np.pi / 2) == pytest.approx(0.0, abs=1e-15)
    assert omega_eval(kc, 10.0) == pytest.approx(0.0, abs=1e-15)  # truncation
    ke = make_kernel("exp", 1.0)
    assert omega_eval(ke, 1.0) == pytest.approx(np.exp(-1.0))


@pytest.mark.parametrize("name", KERNELS)
def test_omega_monotone_nonincreasing(name):
    k = make_kernel(name, 1.0)
    z = np.linspace(0.0, 4.0, 200)
    vals = omega_eval(k, z)
    assert (np.diff(vals) <= 1e-15).all()


def test_omega_rejects_bad_args():
    k = make_kernel("exp", 1.0)
    with pytest.raises(NegativeArgument):
        omega_eval(k, -0.1)
    with pytest.raises(NonFinite):
        omega_eval(k, np.nan)


def test_make_kernel_rejects_bad_delta():
    with pytest.raises(NegativeArgument):
        make_kernel("cos", 0.0)
    with pytest.raises(ValueError):
        make_kernel("nope", 1.0)


@pytest.mark.parametrize("name", KERNELS)
def test_cone_kernel_takes_the_family_by_its_cli_name(name):
    # a family given by name is its enum member, not a fall-through to the Gaussian
    kernel = ConeKernel(name, 0.5)
    assert kernel.family is KernelFamily(name)
    assert kernel == ConeKernel(KernelFamily(name), 0.5) == make_kernel(name, 0.5)
    assert omega_eval(kernel, 1.0) == (np.cos(1.0) if name == "cos" else np.exp(-1.0))
    assert SolverConfig(kernel=kernel).echo()["kernel"] == name


@pytest.mark.parametrize("family", ["gauss", "Gaussian", 1, None])
def test_cone_kernel_rejects_an_unknown_family(family):
    with pytest.raises(ValueError):
        ConeKernel(family, 0.5)


@pytest.mark.parametrize("name", KERNELS)
def test_make_kernel_rejects_infinite_delta(name):
    # an infinite cone angle turns every distance into inf - inf = NaN
    with pytest.raises(NegativeArgument):
        make_kernel(name, np.inf)


@pytest.mark.parametrize("name", KERNELS)
@given(z=st.floats(0.0, 5.0), zp=st.floats(0.0, 5.0))
@settings(max_examples=50, deadline=None)
def test_omega_lipschitz(name, z, zp):
    k = make_kernel(name, 1.0)
    L = k.lipschitz
    assert abs(omega_eval(k, z) - omega_eval(k, zp)) <= L * abs(z - zp) + 1e-12


@pytest.mark.parametrize("name", KERNELS)
def test_polynomial_sandwich(name):
    # 1 - C z^2 <= Omega(z) <= 1 - C z^2 + C' z^4 on a dense grid
    k = make_kernel(name, 1.0)
    c = kernel_constants(k)
    hi = np.pi / 2 if name == "cos" else 3.0  # cos bounds apply before truncation
    z = np.linspace(0.0, hi, 600)
    om = omega_eval(k, z)
    assert (om >= 1 - c.C * z**2 - 1e-12).all()
    assert (om <= 1 - c.C * z**2 + c.C_prime * z**4 + 1e-12).all()


def test_kernel_constants_values():
    cc = kernel_constants(make_kernel("cos", 2.0))
    assert (cc.C, cc.C_prime) == (0.5, 1.0 / 24.0)
    ce = kernel_constants(make_kernel("exp", 2.0))
    assert (ce.C, ce.C_prime) == (1.0, 0.5)


@pytest.mark.parametrize("name", KERNELS)
def test_cone_distance_axioms(name):
    k = make_kernel(name, 0.7)
    p = (0.3, 1.2)
    q = (1.1, 0.4)
    assert cone_distance_sq(k, p, p) == pytest.approx(0.0, abs=1e-12)
    assert cone_distance_sq(k, p, q) == pytest.approx(cone_distance_sq(k, q, p))
    # apex: r = s = 0 identifies all points
    assert cone_distance_sq(k, (0.0, 0.0), (5.0, 0.0)) == pytest.approx(0.0)
    with pytest.raises(NegativeArgument):
        cone_distance_sq(k, (0.0, -1.0), q)


def test_cone_distance_pure_radial():
    # same base point: d = 2 delta |r - s|
    k = make_kernel("exp", 0.8)
    d2 = cone_distance_sq(k, (1.0, 2.0), (1.0, 0.5))
    assert np.sqrt(d2) == pytest.approx(2 * 0.8 * 1.5)


def test_omega_of_gap_matches_omega_eval(rng):
    k = make_kernel("cos", 0.6)
    u = rng.uniform(0, 3, size=7)
    v = rng.uniform(0, 3, size=7)
    direct = omega_eval(k, np.abs(u - v) / (2 * k.delta))
    assert np.array_equal(omega_of_gap(k, u, v), direct)


def test_kernel_pd_check_oracle(rng):
    # compare against an explicit double-loop eigensolve
    k = make_kernel("exp", 0.5)
    wx = rng.uniform(0, 1, size=(3, 3))
    wx = (wx + wx.T) / 2
    wy = rng.uniform(0, 1, size=(4, 4))
    wy = (wy + wy.T) / 2
    n, m = 3, 4
    K = np.zeros((n * m, n * m))
    for i in range(n):
        for kk in range(m):
            for ip in range(n):
                for kp in range(m):
                    K[i * m + kk, ip * m + kp] = omega_eval(
                        k, abs(wx[i, ip] - wy[kk, kp]) / (2 * k.delta)
                    )
    expected = float(np.linalg.eigvalsh((K + K.T) / 2)[0])
    got = kernel_pd_check(k, wx, wy)
    assert got == pytest.approx(expected, abs=1e-10)


def test_kernel_pd_check_cap():
    k = make_kernel("exp", 0.5)
    with pytest.raises(CapExceeded):
        kernel_pd_check(k, np.zeros((30, 30)), np.zeros((30, 30)))
