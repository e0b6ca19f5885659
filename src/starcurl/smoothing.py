"""Unit-mass bump function and the C^1 radial cutoff.

The bump is the classical profile

    psi(x) = c * exp(-1 / (1 - |x/r|^2))   for |x| < r,   0 otherwise,

supported in the ball of radius ``support_radius`` (default 0.9, always
strictly inside the unit ball).  The constant c is fixed at construction
by a 64-point Gauss-Legendre radial rule so that the integral over space
is 1 to ~1e-13; the profile is analytic inside the support and flat to
all orders at its edge, which is what makes fixed-order Gauss rules on
exact support intervals converge spectrally downstream.

The cutoff eta used by the regularized operator is the cubic smoothstep

    eta(s) = 0 for s <= 1,  1 for s >= 2,  3t^2 - 2t^3 with t = s - 1,

monotone, C^1, with |eta'| <= 1.5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Mollifier", "eta"]

_N_RADIAL_NORM = 64


def _unit_mass_constant(support_radius: float) -> float:
    # integral of exp(-1/(1-s^2)) s^2 over [0, 1], then scale by 4 pi r^3
    t, w = np.polynomial.legendre.leggauss(_N_RADIAL_NORM)
    s = 0.5 * (t + 1.0)
    vals = np.exp(-1.0 / (1.0 - s * s)) * s * s
    radial = 0.5 * float(w @ vals)
    return 1.0 / (4.0 * np.pi * support_radius**3 * radial)


@dataclass(frozen=True)
class Mollifier:
    """Normalized bump supported in B(0, support_radius), 0 < support_radius < 1."""

    support_radius: float = 0.9
    _c: float = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.support_radius < 1.0:
            raise ValueError("support_radius must lie strictly between 0 and 1")
        object.__setattr__(self, "_c", _unit_mass_constant(self.support_radius))

    @property
    def normalization(self) -> float:
        return self._c

    def psi(self, x) -> np.ndarray:
        """Bump value; vectorized over leading axes of x (shape (..., 3))."""
        x = np.asarray(x, dtype=float)
        u = np.einsum("...i,...i->...", x, x) / self.support_radius**2
        out = np.zeros(u.shape)
        mask = u < 1.0 - 1e-14
        if np.any(mask):
            out[mask] = self._c * np.exp(-1.0 / (1.0 - u[mask]))
        return out if out.ndim else float(out)

    def grad_psi(self, x) -> np.ndarray:
        """Gradient of the bump, shape x.shape; zero outside the support."""
        x = np.asarray(x, dtype=float)
        u = np.einsum("...i,...i->...", x, x) / self.support_radius**2
        out = np.zeros(x.shape)
        mask = u < 1.0 - 1e-14
        if np.any(mask):
            um = u[mask]
            f = 1.0 - um
            scale = -2.0 * self._c * np.exp(-1.0 / f) / (f * f * self.support_radius**2)
            out[mask] = x[mask] * scale[..., None]
        return out


def eta(s) -> np.ndarray:
    """C^1 monotone cutoff: 0 on [0, 1], 1 on [2, inf), cubic smoothstep between."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("cutoff argument must be nonnegative")
    t = np.clip(s - 1.0, 0.0, 1.0)
    out = t * t * (3.0 - 2.0 * t)
    return out if out.ndim else float(out)

