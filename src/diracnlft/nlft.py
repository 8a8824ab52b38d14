"""Scattering data and the non-linear Fourier transform r = b/a.

From the transfer matrix at horizon T,

    a = e^{iTz} (E + i Etilde) / 2,      b = e^{iTz} (E - i Etilde) / 2,

with |a|^2 - |b|^2 = 1 on the real axis and a outer (zero-free, |a| >= 1 on
R) in the closed upper half-plane.  Interval scattering a_{t1->t2} is the
same construction for the shifted potential — the matrix M(t1)^{-1} is never
formed.

The non-linear Parseval identity ties the transform back to the potential:

    (2/pi) * integral_R log|a(T, x)| dx  =  ||f||^2_{L2(0,T)}.

(The 2/pi normalization is forced by the linearization b(x) ~ int f e^{2itx}
and is validated to three digits by the quadrature tests.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AliasingError,
    DomainTooSmallError,
    NumericalError,
    QuadratureError,
    RangeError,
    ValidationError,
)
from .potential import SampledPotential, clip_to_support, l2_norm_sq
from .propagator import Transfer, symmetric_grid, transfer

__all__ = [
    "ScatteringData",
    "ParsevalReport",
    "nlft_forward",
    "interval_scattering_grid",
    "parseval_check",
    "hilbert_consistency",
    "hilbert_transform",
]

_trapz = getattr(np, "trapezoid", None) or np.trapz

#: |a| may not drop below this before r = b/a is declared unreliable.
_A_FLOOR = 1e-280


@dataclass(frozen=True)
class ScatteringData:
    """Scattering coefficients sampled on a frequency grid."""

    T: float
    grid: np.ndarray
    a: np.ndarray
    b: np.ndarray
    r: np.ndarray
    log_abs_a: np.ndarray
    det_drift: np.ndarray  # |tracked det M - 1| of the propagation behind a, b

    def real_axis_defects(self) -> dict:
        """Max violations of the real-axis structure identities.

        Returns a dict with ``unimodular`` (max | |a|^2-|b|^2 - 1 |),
        ``log_a_negativity`` (max of -log|a|, should be <= tolerance) and
        ``r_modulus`` (max |r|), evaluated on the real grid points only.
        """
        real = np.abs(np.imag(self.grid)) < 1e-14
        if not np.any(real):
            return {"unimodular": 0.0, "log_a_negativity": 0.0, "r_modulus": 0.0}
        aa = np.abs(self.a[real]) ** 2
        bb = np.abs(self.b[real]) ** 2
        return {
            "unimodular": float(np.max(np.abs(aa - bb - 1.0))),
            "log_a_negativity": float(np.max(-self.log_abs_a[real])),
            "r_modulus": float(np.max(np.abs(self.r[real]))),
        }


@dataclass(frozen=True)
class ParsevalReport:
    """Outcome of the quadrature check of the non-linear Parseval identity."""

    lhs: float
    rhs: float
    rel_err: float
    domain_half_width: float
    refinement_levels: int
    raw_integral: float = 0.0  # un-normalized integral of log|a|, for reference


# ---------------------------------------------------------------------------
# forward transform
# ---------------------------------------------------------------------------


def _scattering(m: Transfer, width: float) -> ScatteringData:
    E, Et, phase = m.E, m.Etilde, np.exp(1j * width * m.z)
    a = phase * (E + 1j * Et) / 2.0
    b = phase * (E - 1j * Et) / 2.0
    mod_a = np.abs(a)
    if np.any(mod_a < _A_FLOOR):
        raise NumericalError("|a| underflowed; r = b/a is meaningless here")
    return ScatteringData(
        T=width,
        grid=m.z,
        a=a,
        b=b,
        r=b / a,
        log_abs_a=np.log(mod_a),
        det_drift=m.det_drift,
    )


def nlft_forward(pot: SampledPotential, T: float | None = None, grid=None) -> ScatteringData:
    """Scattering data (a, b, r, log|a|) of the truncation f_T on a grid:
    the interval scattering a_{0->T}.

    Args:
        pot: potential; ``T`` defaults to ``pot.T`` and must satisfy
            ``0 < T <= pot.T``.
        grid: real or complex frequencies (1-d array-like).

    Raises:
        ValidationError: no ``grid``.
        RangeError: ``T`` outside ``(0, pot.T]``, or a ``grid`` of two or
            more dimensions.
    """
    if grid is None:
        raise ValidationError("nlft_forward needs a frequency grid")
    return interval_scattering_grid(pot, 0.0, pot.T if T is None else T, grid)


def interval_scattering_grid(pot: SampledPotential, t1: float, t2: float, grid) -> ScatteringData:
    """Scattering data of the potential piece on [t1, t2] (shifted system).

    ``a_{t1->t2}`` is the forward transform of ``f(. + t1)`` restricted to
    length ``t2 - t1``; the returned ``T`` is that length.
    """
    if not (0.0 <= t1 < t2):
        raise RangeError(f"need 0 <= t1 < t2, got [{t1}, {t2}]")
    t2 = clip_to_support(pot, float(t2), "t2")
    return _scattering(transfer(pot, np.atleast_1d(grid), t2, t1=float(t1)), t2 - t1)


# ---------------------------------------------------------------------------
# Parseval quadrature
# ---------------------------------------------------------------------------

_PARSEVAL_MAX_LEVELS = 26
_PARSEVAL_X0 = 32.0
# Most nodes in one batch (the core grid, or both wings): propagation and
# scattering data peak near 240 bytes a node, so a batch stays under 260 MB.
_PARSEVAL_MAX_NODES = 2**20


def parseval_check(
    pot: SampledPotential,
    T: float | None = None,
    tol: float = 1e-2,
    t1: float = 0.0,
) -> ParsevalReport:
    """Verify (2/pi) * integral log|a_{t1->T}| dx = ||f||^2_{L2(t1,T)}.

    Symmetric trapezoid quadrature; the step is halved until the integral is
    stable (each level propagates one grid and compares its trapezoid with the
    one over its even nodes), then the half-width is doubled (adding wing
    integrals exactly) until the last tail contribution falls under
    ``tol * rhs``.

    Raises:
        QuadratureError: level budget exhausted, or the next batch would pass
            2**20 nodes; the partial report (NaN before the first integral)
            rides on the exception's ``report`` attribute.
    """
    if T is None:
        T = pot.T
    if not (0.0 <= t1 < T):
        raise RangeError(f"need 0 <= t1 < T, got [{t1}, {T}]")
    T = clip_to_support(pot, float(T), "T")
    if not tol > 0:  # NaN fails too
        raise ValidationError(f"tol must be > 0, got {tol}")
    rhs = l2_norm_sq(pot, t1, T)
    width = T - t1
    scale = max(rhs, 1e-12)

    def nodes(span: float, dx: float, batch: int = 1) -> int:
        """Odd node count over ``span`` (the core grid holds 0), refused before
        ``batch`` grids of it pass the node budget."""
        n = max(3, int(round(min(span / dx, _PARSEVAL_MAX_NODES))) + 1)
        n += 1 - n % 2
        if batch * n > _PARSEVAL_MAX_NODES:
            raise QuadratureError(
                f"the Parseval quadrature at step {dx:.3g} and half-width {X:g} would pass "
                f"its budget of {_PARSEVAL_MAX_NODES} nodes in one batch; loosen the tolerance",
                report=_report(cur, rhs, X, levels),
            )
        return n

    def core(dx: float) -> tuple[float, float]:
        """Trapezoids over all nodes and over the even nodes (the grid at step
        ``2 dx``, bit for bit, when the node counts are n and 2n - 1)."""
        xs = symmetric_grid(X, nodes(2.0 * X, dx))
        la = interval_scattering_grid(pot, t1, T, xs).log_abs_a
        return float(_trapz(la, xs)), float(_trapz(la[::2], xs[::2]))

    X, levels, cur = _PARSEVAL_X0, 0, math.nan
    dx = min(0.05, 0.25 / max(width, 1.0))
    # step refinement on the core domain; the first level (step dx) is the
    # even-node trapezoid of the second, and counts as a level
    while levels < _PARSEVAL_MAX_LEVELS:
        dx /= 2.0
        cur, coarse = core(dx)
        levels = max(levels, 1) + 1
        if abs(cur - coarse) <= tol * scale / 8.0:
            break
    else:
        raise QuadratureError(
            "step refinement did not stabilize the Parseval integral",
            report=_report(cur, rhs, X, levels),
        )
    # domain doubling with exact wing addition
    while levels < _PARSEVAL_MAX_LEVELS:
        wing = np.linspace(X, 2.0 * X, nodes(X, dx, batch=2))  # both wings in one batch
        la = interval_scattering_grid(pot, t1, T, np.concatenate([-wing[::-1], wing])).log_abs_a
        tail = float(_trapz(la[:wing.size], -wing[::-1])) + float(_trapz(la[wing.size:], wing))
        levels += 1
        cur += tail
        X *= 2.0
        if abs(tail) < 0.25 * tol * scale:
            return _report(cur, rhs, X, levels)
    raise QuadratureError(
        "domain doubling did not reach the Parseval tail tolerance",
        report=_report(cur, rhs, X, levels),
    )


def _report(raw: float, rhs: float, X: float, levels: int) -> ParsevalReport:
    lhs = (2.0 / math.pi) * raw
    rel = 0.0 if rhs <= 1e-15 and abs(lhs) <= 1e-9 else abs(lhs - rhs) / max(rhs, 1e-15)
    return ParsevalReport(lhs=lhs, rhs=rhs, rel_err=rel, domain_half_width=X,
                          refinement_levels=levels, raw_integral=raw)


# ---------------------------------------------------------------------------
# continuous argument and the Hilbert pair
# ---------------------------------------------------------------------------


def _unwrap_phases(values: np.ndarray, what: str) -> np.ndarray:
    """Continuous phase along a grid; refuses steps >= pi/2 as aliasing."""
    ratio = values[1:] / values[:-1]
    steps = np.angle(ratio)
    if steps.size and float(np.max(np.abs(steps))) >= np.pi / 2.0:
        raise AliasingError(
            f"phase step >= pi/2 while unwrapping {what}; refine the grid"
        )
    out = np.empty(values.shape, dtype=float)
    out[0] = np.angle(values[0])
    np.cumsum(steps, out=out[1:])
    out[1:] += out[0]
    return out


def hilbert_transform(samples: np.ndarray) -> np.ndarray:
    """Discrete Hilbert transform H u (x) = p.v. (1/pi) int u(t)/(x-t) dt.

    Spectral method: the signal is centered in a zero-padded buffer
    (>= 4 times the length, rounded to a power of two) and
    multiplied by -i sgn(xi) in the frequency domain.  For a boundary-value
    pair F = u + iv analytic in the upper half-plane with decay, v = H u.
    """
    u = np.asarray(samples, dtype=float)
    n = u.size
    if n < 4:
        raise ValidationError("need at least 4 samples")
    m = 1 << max(2, int(math.ceil(math.log2(4 * n))))
    left = (m - n) // 2
    buf = np.zeros(m)
    buf[left:left + n] = u
    spec = np.fft.fft(buf)
    xi = np.fft.fftfreq(m)
    mult = -1j * np.sign(xi)
    mult[m // 2] = 0.0  # Nyquist bin carries no orientation
    out = np.real(np.fft.ifft(spec * mult))
    return out[left:left + n]


def hilbert_consistency(sd: ScatteringData) -> float:
    """Max |arg a - H(log|a|)| over the central half of a symmetric grid.

    ``sd`` must sample the full transform on a uniform symmetric real grid
    with log|a| decayed at the ends (the Hilbert pair lives on all of R;
    truncation is the dominant error).

    Raises:
        DomainTooSmallError: log|a| at the grid ends exceeds
            ``1e-3 * (1 + max log|a|)``.
        AliasingError: grid too coarse for continuous phase tracking.
    """
    xs = np.real(sd.grid)
    if np.any(np.abs(np.imag(sd.grid)) > 1e-12):
        raise ValidationError("hilbert_consistency needs a real grid")
    n = xs.size
    if n < 16:
        raise ValidationError("grid too short")
    dxs = np.diff(xs)
    dx = float(np.mean(dxs))
    if float(np.max(np.abs(dxs - dx))) > 1e-9 * abs(dx):
        raise ValidationError("grid must be uniform")
    span = max(1.0, float(np.max(np.abs(xs))))
    if float(np.max(np.abs(xs + xs[::-1]))) > 1e-9 * span:
        raise ValidationError("grid must be symmetric about 0")
    la = sd.log_abs_a
    peak = float(np.max(np.abs(la)))
    edge = max(abs(float(la[0])), abs(float(la[-1])))
    if edge > 1e-3 * (1.0 + peak):
        raise DomainTooSmallError(
            f"log|a| = {edge:.3g} at the grid edge; widen the domain before "
            "trusting the Hilbert pair"
        )
    arg = _unwrap_phases(sd.a, "arg a")
    # pin the branch to 0 at x = 0 (interpolating when 0 is between nodes)
    arg = arg - np.interp(0.0, xs, arg)
    hil = hilbert_transform(la)
    central = np.abs(xs) <= span / 2.0
    return float(np.max(np.abs(arg[central] - hil[central])))
