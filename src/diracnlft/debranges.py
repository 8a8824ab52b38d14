"""Reproducing kernels of the evolving de Branges space and model fits for E.

The space attached to E(t, .) has kernel

    K(t, lam, z) = (A(z) C(conj lam) - C(z) A(conj lam)) / (pi (conj lam - z)),

which in the free case collapses to the Paley-Wiener sinc kernel
``S = sin(t (z - conj lam)) / (pi (z - conj lam))``.  In the universality
regime K approaches S / w(s) on boxes Q(s, C/t); ``kernel_probe(...).gap``
measures that defect, and the sine/exponential fits realize the two limit
shapes of E itself (a zero nearby or not).

Spectral densities are never constructed: w(s) is estimated from the
pointwise stabilization of 1 / |E(t, s)|^2, with the sampling spread
reported so downstream gaps carry honest uncertainty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError, PreconditionError, ValidationError
from .potential import SampledPotential, clip_to_support
from .propagator import hermite_biehler, transfer
from .resonance import Box, find_zeros

__all__ = [
    "KernelProbe",
    "SineFit",
    "kernel_K",
    "kernel_sinc",
    "kernel_probe",
    "estimate_w",
    "hb_sine_fit",
    "hb_exp_fit",
    "gamma_factor",
]

#: |conj(lam) - z| below this (relative) switches the kernel to its
#: confluent Taylor form.
_DIAG_SWITCH = 1e-6

#: |t (z - conj lam)| below this evaluates the sinc by series.
_SINC_SERIES = 1e-4


@dataclass(frozen=True)
class KernelProbe:
    """Kernel vs sinc comparison over a box around a real frequency."""

    t: float
    s: float
    C: float
    lambda_grid: np.ndarray
    z_grid: np.ndarray
    K_values: np.ndarray
    S_values: np.ndarray
    gap: float
    w_hat: float


@dataclass(frozen=True)
class SineFit:
    """Local sine model ``(alpha gamma(t y)/sqrt(w)) sin(t (z - (x - i y)))``."""

    t: float
    s: float
    alpha: complex
    x: float
    y: float
    residual: float
    w_used: float


def gamma_factor(p: float) -> float:
    """sqrt(2) / sqrt(sinh(2p)); the peak amplitude scale of the sine model."""
    if p <= 0:
        raise ValidationError(f"gamma_factor needs p > 0, got {p}")
    return math.sqrt(2.0) / math.sqrt(math.sinh(2.0 * p))


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def kernel_sinc(t: float, lam: complex, z: complex):
    """Paley-Wiener kernel sin(t(z - conj lam)) / (pi (z - conj lam)).

    ``lam`` and ``z`` may be arrays (broadcast together).  The removable
    singularity is filled by the Taylor series once |t (z - conj lam)|
    drops under 1e-4.
    """
    if t <= 0:
        raise ValidationError(f"kernel_sinc needs t > 0, got {t}")
    d = np.atleast_1d(np.asarray(z, dtype=complex) - np.conj(np.asarray(lam, dtype=complex)))
    u = t * d
    out = np.empty_like(u)  # sin(a + ib) = sin a cosh b + i cos a sinh b
    np.multiply(np.sin(u.real), np.cosh(u.imag), out=out.real)
    np.multiply(np.cos(u.real), np.sinh(u.imag), out=out.imag)
    small = np.nonzero(np.abs(u) < _SINC_SERIES)
    d[small] = 1.0
    d *= np.pi
    out /= d
    u2 = u[small] ** 2
    out[small] = (t / np.pi) * (1.0 - u2 / 6.0 * (1.0 - u2 / 20.0))
    if np.ndim(z) == 0 and np.ndim(lam) == 0:
        return complex(out[0])
    return out


def _kernel_matrix(pot, t, pts):
    """K(t, lam_i, z_j) over one point set (rows index lam, cols index z).

    Uses A(conj p) = conj A(p) (real potential) so a single batch at
    ``pts`` supplies values and, carrying derivatives only when some entry
    is confluent, the confluent branch; the numerator is ``P - P^H`` for
    ``P = A(z_j) C(conj lam_i)``, so K is exactly Hermitian.
    """
    denom = np.conj(pts)[:, None] - pts
    i, j = np.nonzero(np.abs(denom) < _DIAG_SWITCH * (1.0 + np.abs(pts)))
    m = transfer(pot, pts, t, order=2 if len(i) else 0)
    K = m.A * np.conj(m.C)[:, None]  # A(z_j) C(conj lam_i)
    K -= np.conj(K.T)
    d, denom[i, j] = denom[i, j], 1.0
    denom *= np.pi
    K /= denom
    if len(i):
        # confluent branch: numerator N(conj lam) = A(z) C(.) - C(z) A(.)
        # vanishes at conj lam = z, so K -> (N' + N'' (conj lam - z)/2) / pi
        # with all derivatives taken at z.
        A, C = m.A[j], m.C[j]
        K[i, j] = (A * m.dC[j] - C * m.dA[j] + 0.5 * (A * m.d2C[j] - C * m.d2A[j]) * d) / np.pi
    return K


def kernel_K(pot: SampledPotential, t: float, lam: complex, z: complex) -> complex:
    """Reproducing kernel K(t, lam, z) of the space attached to E(t, .).

    Evaluated from the transfer-matrix entries A and C; coincident points
    (|conj lam - z| under 1e-6 relative) switch to the confluent form built
    from z-derivatives, keeping the diagonal exactly real and positive.
    """
    if t <= 0:
        raise ValidationError(f"kernel_K needs t > 0, got {t}")
    clip_to_support(pot, t, "kernel time t")
    return complex(_kernel_matrix(pot, t, np.array([lam, z], dtype=complex))[0, 1])


def kernel_probe(
    pot: SampledPotential,
    s: float,
    t: float,
    C: float,
    w_hat: float | None = None,
    grid_n: int = 16,
) -> KernelProbe:
    """Tabulate K and S over the full square Q(s, C/t) and score the gap.

    ``w_hat`` defaults to an 8-sample estimate over the trailing tenth of
    [0, t].  The gap is ``max |K - S / w_hat| / t`` over all grid pairs.
    """
    if w_hat is None:
        w_hat, _ = estimate_w(pot, s, (0.9 * t, t), 8)
    if w_hat <= 0:
        raise ValidationError(f"need w_hat > 0, got {w_hat}")
    box = Box.scaled(s, C, t, grid_n)
    pts = box.tensor_grid()
    K = _kernel_matrix(pot, t, pts)
    S = kernel_sinc(t, pts[:, None], pts[None, :])
    gap = float(np.max(np.abs(K - S / w_hat)) / t)
    return KernelProbe(
        t=t, s=s, C=C, lambda_grid=pts, z_grid=pts,
        K_values=K, S_values=S, gap=gap, w_hat=w_hat,
    )


# ---------------------------------------------------------------------------
# spectral density estimation
# ---------------------------------------------------------------------------


def estimate_w(
    pot: SampledPotential,
    s: float,
    t_window: tuple,
    n: int,
    component: str = "E",
):
    """Estimate w(s) (or the dual from Etilde) by sampling 1/|E(t, s)|^2.

    Returns ``(w_hat, spread)`` where w_hat is the average over ``n``
    sample times in the window and spread is ``max/min - 1``; a vanishing
    spread certifies the modulus has stabilized (exact once the potential
    vanishes on the window).
    """
    t_a, t_b = float(t_window[0]), float(t_window[1])
    if not (0.0 <= t_a < t_b):
        raise ValidationError(f"need 0 <= t_a < t_b, got window ({t_a}, {t_b})")
    clip_to_support(pot, t_b, "window end")
    if n < 4:
        raise ValidationError(f"need n >= 4 samples, got {n}")
    if component not in ("E", "Etilde"):
        raise ValidationError(f"component must be 'E' or 'Etilde', got {component!r}")
    ts = np.linspace(t_a, t_b, n)
    vals = np.empty(n)
    for i, B in enumerate(transfer(pot, np.array([s], dtype=complex), ts)):
        hb = hermite_biehler(B)
        vals[i] = 1.0 / abs((hb.E if component == "E" else hb.Etilde)[0]) ** 2
    w_hat = float(np.mean(vals))
    spread = float(np.max(vals) / np.min(vals) - 1.0)
    return w_hat, spread


# ---------------------------------------------------------------------------
# sine / exponential fits
# ---------------------------------------------------------------------------


def _E_on(pot, t, pts):
    return hermite_biehler(transfer(pot, np.asarray(pts, dtype=complex), t)).E


def _w_for_fit(pot, s, t):
    hi = min(t, pot.T)
    w_hat, _ = estimate_w(pot, s, (0.9 * hi, hi), 8)
    return w_hat


def hb_sine_fit(
    pot: SampledPotential,
    s: float,
    t: float,
    C: float,
    grid_n: int = 16,
    w_hat: float | None = None,
) -> SineFit:
    """Fit E(t, .) near s by a shifted sine when a zero sits in the box.

    The zero of the model starts at the conjugate of the nearest theta-zero
    in Q(s, C/t); the zero is then moved by the smallest amount that lets a
    unimodular alpha pin the model to E(t, s) exactly (two real matching
    conditions, so the phase alone cannot absorb both).  gamma is frozen at
    the original zero height.

    Raises:
        PreconditionError: no theta-zero in the box (use hb_exp_fit), or
            the zero height violates 1 < t y < 2C.
        FitError: the minimal shift pushed the model zero out of the lower
            half-plane.
    """
    box = Box.scaled(s, C, t, max(8, grid_n))
    zeros = find_zeros(pot, t, box)
    if not zeros:
        raise PreconditionError(
            f"no theta-zero in Q({s}, {C / t:.3g}): E has no nearby zero; "
            "use hb_exp_fit"
        )
    z_up = min((z for z, _ in zeros), key=lambda z: abs(z - s))
    x0, y0 = z_up.real, z_up.imag
    if not (1.0 < t * y0 < 2.0 * C):
        raise PreconditionError(
            f"t*y = {t * y0:.3g} outside (1, {2 * C}): the sine model's value "
            "pin is only calibrated in that band"
        )
    if w_hat is None:
        w_hat = _w_for_fit(pot, s, t)
    gam = gamma_factor(t * y0)
    E_s = complex(_E_on(pot, t, [s])[0])
    V = E_s * math.sqrt(w_hat) / gam
    # minimal move of zeta = t (s - z_model) onto the level set |sin| = |V|
    zeta = t * (s - np.conj(z_up))
    target = abs(V) ** 2
    for _ in range(80):
        a, b = zeta.real, zeta.imag
        g = math.sin(a) ** 2 + math.sinh(b) ** 2 - target
        if abs(g) < 1e-15 * (1.0 + target):
            break
        ga, gb = math.sin(2 * a), math.sinh(2 * b)
        norm2 = ga * ga + gb * gb
        if norm2 < 1e-30:
            raise FitError("level-set gradient vanished while shifting the sine zero")
        step = g / norm2
        zeta = complex(a - step * ga, b - step * gb)
    else:
        raise FitError("sine-zero shift did not converge")
    sin_zeta = np.sin(zeta)
    if abs(sin_zeta) < 1e-300:
        raise FitError("shifted zeta landed on a lattice zero of sin")
    alpha = V / sin_zeta
    z_model = s - zeta / t
    x, y = float(z_model.real), float(-z_model.imag)
    if y <= 0:
        raise FitError(f"shifted model zero has y = {y:.3g} <= 0")
    pts = box.tensor_grid()
    model = (alpha * gam / math.sqrt(w_hat)) * np.sin(t * (pts - (x - 1j * y)))
    residual = float(np.max(np.abs(_E_on(pot, t, pts) - model)))
    return SineFit(
        t=t, s=s, alpha=complex(alpha), x=x, y=y,
        residual=residual, w_used=float(w_hat),
    )


def hb_exp_fit(
    pot: SampledPotential,
    s: float,
    t: float,
    D: float,
    grid_n: int = 16,
    w_hat: float | None = None,
):
    """Fit E(t, .) on Q(s, D/t) by ``(-i alpha / sqrt(w)) e^{-i t z}``.

    Applies when no theta-zero sits in the box (the resonance-free time
    regime); alpha is pinned so the model matches E(t, s) exactly.  Returns
    ``(alpha, residual)`` with residual the sup over the box tensor grid.

    Raises:
        PreconditionError: the box contains a theta-zero (use hb_sine_fit).
    """
    box = Box.scaled(s, D, t, max(8, grid_n))
    zeros = find_zeros(pot, t, box)
    if zeros:
        raise PreconditionError(
            f"{len(zeros)} theta-zero(s) in Q({s}, {D / t:.3g}); the "
            "exponential model only applies to zero-free boxes (use hb_sine_fit)"
        )
    if w_hat is None:
        w_hat = _w_for_fit(pot, s, t)
    E_s = complex(_E_on(pot, t, [s])[0])
    alpha = 1j * math.sqrt(w_hat) * E_s * np.exp(1j * t * s)
    pts = box.tensor_grid()
    model = (-1j * alpha / math.sqrt(w_hat)) * np.exp(-1j * t * pts)
    residual = float(np.max(np.abs(_E_on(pot, t, pts) - model)))
    return complex(alpha), residual
