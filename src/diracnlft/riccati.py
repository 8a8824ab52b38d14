"""Time evolution of the Dirac inner function theta.

Two independent routes to theta(t, z):

* :func:`riccati_evolve_moebius` — the Moebius action of the product
  M(t, z) of the exact cell propagators on the starting value (production
  path, exact for piecewise-constant potentials up to rounding);
* :func:`riccati_evolve_rk` — classical RK4 on the Riccati equation
  ``d theta/dt = 2 i z theta + f (1 - theta^2)``, used as a cross-check.
(The sign of the potential term is fixed by the transfer convention
``E' = -izE + f E#``; it is the one consistent with the phase equation
and the zero dynamics.)

The pair must agree; the test suite enforces it.
"""

from __future__ import annotations

import math

from .errors import (
    InstabilityError,
    OverflowRangeError,
    PoleProximityError,
    RangeError,
    ValidationError,
)
from .potential import SampledPotential, cell_cover, clip_to_support
from .propagator import POLE_FLOOR, WORK_RANGE_LIMIT, transfer

__all__ = [
    "riccati_evolve_moebius",
    "riccati_evolve_rk",
]

_BOUNDARY_THETA = {"neumann": 1.0 + 0.0j, "dirichlet": -1.0 + 0.0j}

#: RK trajectories with Im z >= 0 must stay in the closed unit disk; this
#: much overshoot means the step size is too coarse for the potential.
_RK_DISK_GUARD = 1.1


def _boundary_value(boundary) -> complex:
    if isinstance(boundary, str):
        try:
            return _BOUNDARY_THETA[boundary]
        except KeyError:
            raise ValidationError(
                f"boundary must be 'neumann', 'dirichlet' or a unimodular complex, "
                f"got {boundary!r}"
            ) from None
    th0 = complex(boundary)
    if abs(abs(th0) - 1.0) > 1e-12:
        raise ValidationError(f"boundary theta must be unimodular, got |theta|={abs(th0)}")
    return th0


def _check_horizon(pot: SampledPotential, t: float) -> None:
    if not t >= 0.0:
        raise RangeError(f"need t >= 0, got t = {t}")
    clip_to_support(pot, t)


def riccati_evolve_moebius(
    pot: SampledPotential, z: complex, t: float, boundary="neumann"
) -> complex:
    """theta(t, z) as the Moebius action of the transfer matrix M(t, z).

    The solution pair (u, v) with ``theta = (u + iv)/(u - iv)`` starts at
    ``((1 + theta0)/2, i (1 - theta0)/2)`` and is carried by one product of
    exact cell propagators, ``(u, v) = M(t, z) (u0, v0)``; theta at time t
    is the same ratio of the carried column.

    Args:
        pot: piecewise-constant potential.
        z: frequency (any complex in the working range).
        t: evolution time in [0, pot.T].
        boundary: "neumann" (theta0 = 1), "dirichlet" (theta0 = -1) or an
            explicit unimodular starting value.
    """
    _check_horizon(pot, t)
    th = _boundary_value(boundary)
    u0, v0 = (1.0 + th) / 2.0, 1j * (1.0 - th) / 2.0  # u0 - i v0 = 1
    m = transfer(pot, complex(z), float(t))
    u, v = m.A * u0 + m.B * v0, m.C * u0 + m.D * v0
    denom = u - 1j * v
    if abs(denom) <= POLE_FLOOR * (abs(u) + abs(v) + 1.0):
        raise PoleProximityError(f"theta hit a pole during Moebius evolution at z={z}")
    return (u + 1j * v) / denom


def riccati_evolve_rk(
    pot: SampledPotential,
    z: complex,
    t: float,
    dt_max: float = 1e-3,
    boundary="neumann",
) -> complex:
    """theta(t, z) by classical RK4 on the Riccati flow.

    Within each cell the step is ``width / ceil(width / dt_max)``, so every
    step obeys ``step <= min(dt_max, cell width)`` and steps never straddle a
    cell boundary (where f jumps).

    Raises:
        InstabilityError: |theta| exceeded 1.1 although Im z >= 0 (the exact
            flow stays in the closed disk there), i.e. the step is too coarse.
    """
    _check_horizon(pot, t)
    if dt_max <= 0:
        raise ValidationError(f"dt_max must be > 0, got {dt_max}")
    zc = complex(z)
    if abs(zc.imag) * t > WORK_RANGE_LIMIT:
        raise OverflowRangeError(
            f"|Im z| * t = {abs(zc.imag) * t:.3g} exceeds the supported working range "
            f"{WORK_RANGE_LIMIT}"
        )
    th = _boundary_value(boundary)
    two_iz = 2j * zc
    guard = zc.imag >= 0.0
    qs, ws = cell_cover(pot, 0.0, float(t))
    for q, w in zip(qs, ws):
        n = max(1, math.ceil(w / dt_max))
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
