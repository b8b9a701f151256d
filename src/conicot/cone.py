"""Cone-geometry similarity kernels and cone distances over the real line.

Two kernel families are supported: a truncated cosine (Wasserstein-Fisher-Rao
geometry) and a Gaussian (Gaussian-Hellinger geometry). CLI names: "cos", "exp".
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

from .errors import NegativeArgument, NonFinite


class KernelFamily(enum.Enum):
    TruncatedCosine = "cos"
    Gaussian = "exp"


@dataclasses.dataclass(frozen=True)
class ConeKernel:
    """The similarity profile Omega together with the cone angle 0 < delta < inf."""

    family: KernelFamily
    delta: float

    def __post_init__(self):
        # a KernelFamily or its CLI name ("cos", "exp"); any other value raises ValueError
        object.__setattr__(self, "family", KernelFamily(self.family))
        if not (0 < self.delta < np.inf):
            raise NegativeArgument(f"delta must be positive and finite, got {self.delta}")

    @property
    def lipschitz(self) -> float:
        """Lipschitz constant of Omega on [0, inf)."""
        if self.family is KernelFamily.TruncatedCosine:
            return 1.0
        # max |d/dz exp(-z^2)| = sqrt(2/e) at z = 1/sqrt(2)
        return float(np.sqrt(2.0 / np.e))


@dataclasses.dataclass(frozen=True)
class KernelConstants:
    """Polynomial bound coefficients: 1 - C z^2 <= Omega(z) <= 1 - C z^2 + C' z^4."""

    C: float
    C_prime: float


def make_kernel(name: str, delta: float) -> ConeKernel:
    """Build a kernel from its CLI name ("cos" or "exp")."""
    return ConeKernel(name, delta)


def omega_eval(kernel: ConeKernel, z):
    """Evaluate Omega at z >= 0 (scalar or array)."""
    z = np.asarray(z, dtype=np.float64)
    if not np.isfinite(z).all():
        raise NonFinite("omega argument must be finite")
    if (z < 0).any():
        raise NegativeArgument("omega argument must be nonnegative")
    # one output buffer, written in place
    out = np.empty_like(z)
    if kernel.family is KernelFamily.TruncatedCosine:
        np.minimum(z, np.pi / 2, out=out)
        np.cos(out, out=out)
        # exact zero past the truncation point (cos(pi/2) rounds to ~6e-17,
        # which would defeat downstream vanishing-slice detection)
        out[z >= np.pi / 2] = 0.0
    else:
        np.negative(z, out=out)
        np.multiply(out, z, out=out)
        np.exp(out, out=out)
    return out if out.ndim else float(out)


def omega_of_gap(kernel: ConeKernel, u, v):
    """Convenience: Omega(|u - v| / (2 delta)); bit-identical to omega_eval."""
    gap = np.abs(np.asarray(u, dtype=np.float64) - np.asarray(v, dtype=np.float64))
    return omega_eval(kernel, gap / (2.0 * kernel.delta))


def _ccot_d2(F, masses, delta: float) -> float:
    """Signed 4 delta^2 (m_X m_X' + m_Y m_Y') - 8 delta^2 F; masses in that order."""
    m_x, m_xp, m_y, m_yp = masses
    return 4.0 * delta**2 * (m_x * m_xp + m_y * m_yp) - 8.0 * delta**2 * F


def cone_distance_sq(kernel: ConeKernel, p, q) -> float:
    """Squared cone distance between cone points p = (x, r), q = (y, s) over the line.

    The one-atom case of the CCOT distance: objective r s Omega, masses (r, r, s, s).
    """
    x, r = p
    y, s = q
    if r < 0 or s < 0:
        raise NegativeArgument("radial coordinates must be nonnegative")
    d2 = _ccot_d2(r * s * omega_of_gap(kernel, x, y), (r, r, s, s), kernel.delta)
    return float(max(d2, 0.0))


def kernel_constants(kernel: ConeKernel) -> KernelConstants:
    """Polynomial sandwich coefficients for the two kernel families."""
    if kernel.family is KernelFamily.TruncatedCosine:
        return KernelConstants(C=0.5, C_prime=1.0 / 24.0)
    return KernelConstants(C=1.0, C_prime=0.5)

