"""Time evolution of the Dirac inner function theta from theta(0, z) = 1.

Two independent routes to theta(t, z):

* :func:`riccati_evolve_moebius` — ``theta(transfer(pot, z, t))``, the
  Moebius action of the product M(t, z) of the exact cell propagators on
  theta0 (production path, exact up to rounding);
* :func:`riccati_evolve_rk` — classical RK4 on the Riccati equation
  ``d theta/dt = 2 i z theta + f (1 - theta^2)``, used as a cross-check.
(The sign of the potential term is fixed by the transfer convention
``E' = -izE + f E#``; it is the one consistent with the phase equation
and the zero dynamics.)

The pair must agree; the test suite enforces it.
"""

from __future__ import annotations

import numpy as np

from .errors import InstabilityError, RangeError, ValidationError
from .potential import SampledPotential, cell_cover, clip_to_support
from .propagator import _check_range, theta, transfer

__all__ = [
    "riccati_evolve_moebius",
    "riccati_evolve_rk",
]

#: RK trajectories with Im z >= 0 must stay in the closed unit disk; this
#: much overshoot means the step size is too coarse for the potential.
_RK_DISK_GUARD = 1.1

#: Most RK4 steps one evolution may take.
_MAX_RK_STEPS = 1_000_000


def _check_horizon(pot: SampledPotential, t: float) -> None:
    if not t >= 0.0:
        raise RangeError(f"need t >= 0, got t = {t}")
    clip_to_support(pot, t)


def riccati_evolve_moebius(pot: SampledPotential, z: complex, t: float) -> complex:
    """theta(t, z) as the Moebius action of the transfer matrix M(t, z).

    The carried column (u, v) = (A, C) starts at (1, 0) (theta0 = 1), and
    ``theta = (u + iv)/(u - iv)`` is :func:`propagator.theta` of it.

    Args:
        pot: piecewise-constant potential.
        z: frequency (any complex in the working range).
        t: evolution time in [0, pot.T].
    """
    _check_horizon(pot, t)
    return theta(transfer(pot, complex(z), float(t)))


def riccati_evolve_rk(
    pot: SampledPotential,
    z: complex,
    t: float,
    dt_max: float = 1e-3,
) -> complex:
    """theta(t, z) by classical RK4 on the Riccati flow.

    Within each cell the step is ``width / ceil(width / dt_max)``, so every
    step obeys ``step <= min(dt_max, cell width)`` and steps never straddle a
    cell edge (where f jumps).

    Raises:
        RangeError, OverflowRangeError: ``z`` or ``t`` is one that
            :func:`~diracnlft.propagator.transfer` refuses.
        ValidationError: ``dt_max`` is not > 0, or needs more than 1e6 steps.
        InstabilityError: |theta| exceeded 1.1 although Im z >= 0 (the exact
            flow stays in the closed disk there), i.e. the step is too coarse.
    """
    _check_horizon(pot, t)
    if not dt_max > 0:  # NaN fails too
        raise ValidationError(f"dt_max must be > 0, got {dt_max}")
    zc = complex(z)
    _check_range(np.array([zc]), float(t))
    th = 1.0 + 0.0j
    two_iz = 2j * zc
    guard = zc.imag >= 0.0
    qs, ws = cell_cover(pot, 0.0, float(t))
    with np.errstate(over="ignore"):  # a subnormal dt_max: infinitely many steps
        steps = np.maximum(1.0, np.ceil(ws / dt_max))
    if not steps.sum() <= _MAX_RK_STEPS:  # NaN fails too
        raise ValidationError(f"dt_max = {dt_max} needs {steps.sum():.3g} RK4 steps, "
                              f"more than {_MAX_RK_STEPS}")
    for q, w, n in zip(qs, ws, steps.astype(int)):
        dt = w / n
        for _ in range(n):
            k1 = two_iz * th + q * (1.0 - th * th)
            y = th + 0.5 * dt * k1
            k2 = two_iz * y + q * (1.0 - y * y)
            y = th + 0.5 * dt * k2
            k3 = two_iz * y + q * (1.0 - y * y)
            y = th + dt * k3
            k4 = two_iz * y + q * (1.0 - y * y)
            th = th + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if guard and abs(th) > _RK_DISK_GUARD:
                raise InstabilityError(
                    f"|theta| = {abs(th):.3f} > {_RK_DISK_GUARD} with Im z >= 0; "
                    f"shrink dt_max (= {dt_max})"
                )
    return th
