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
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AliasingError,
    DomainTooSmallError,
    NumericalError,
    QuadratureError,
    RangeError,
    ValidationError,
)
from .potential import SampledPotential, l2_norm_sq
from .propagator import PropagationState, _propagate, hermite_biehler

__all__ = [
    "ScatteringData",
    "ParsevalReport",
    "nlft_forward",
    "interval_scattering",
    "interval_scattering_grid",
    "parseval_check",
    "arg_a_branch",
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


def _scattering_from_state(state: PropagationState, width: float, grid: np.ndarray,
                           t_label: float) -> ScatteringData:
    hb = hermite_biehler(state)
    phase = np.exp(1j * width * state.z)
    a = phase * (hb.E + 1j * hb.Etilde) / 2.0
    b = phase * (hb.E - 1j * hb.Etilde) / 2.0
    mod_a = np.abs(a)
    if np.any(mod_a < _A_FLOOR):
        raise NumericalError("|a| underflowed; r = b/a is meaningless here")
    return ScatteringData(
        T=t_label,
        grid=grid,
        a=a,
        b=b,
        r=b / a,
        log_abs_a=np.log(mod_a),
        det_drift=np.abs(state.det - 1.0),
    )


def nlft_forward(pot: SampledPotential, T: float | None = None, grid=None) -> ScatteringData:
    """Scattering data (a, b, r, log|a|) of the truncation f_T on a grid.

    Args:
        pot: potential; ``T`` defaults to ``pot.T`` and must satisfy
            ``0 < T <= pot.T``.
        grid: real or complex frequencies (1-d array-like).
    """
    if T is None:
        T = pot.T
    if not (0.0 < T <= pot.T * (1.0 + 1e-9)):
        raise RangeError(f"need 0 < T <= pot.T = {pot.T}, got T = {T}")
    T = min(float(T), pot.T)
    if grid is None:
        raise ValidationError("nlft_forward needs a frequency grid")
    state, _ = _propagate(pot, grid, T, order=0)
    return _scattering_from_state(state, T, state.z, T)


def interval_scattering_grid(
    pot: SampledPotential, t1: float, t2: float, grid
) -> ScatteringData:
    """Scattering data of the potential piece on [t1, t2] (shifted system).

    ``a_{t1->t2}`` is the forward transform of ``f(. + t1)`` restricted to
    length ``t2 - t1``; the returned ``T`` is that length.
    """
    if not (0.0 <= t1 < t2 <= pot.T * (1.0 + 1e-9)):
        raise RangeError(f"need 0 <= t1 < t2 <= pot.T = {pot.T}, got [{t1}, {t2}]")
    t2 = min(float(t2), pot.T)
    width = t2 - t1
    state, _ = _propagate(pot, grid, t2, order=0, t1=float(t1))
    return _scattering_from_state(state, width, state.z, width)


def interval_scattering(pot: SampledPotential, t1: float, t2: float, z: complex) -> complex:
    """a_{t1->t2}(z) for a single frequency."""
    sd = interval_scattering_grid(pot, t1, t2, [z])
    return complex(sd.a[0])


# ---------------------------------------------------------------------------
# Parseval quadrature
# ---------------------------------------------------------------------------

_PARSEVAL_MAX_LEVELS = 26
_PARSEVAL_X0 = 32.0


def _log_abs_a_on(pot, t1, t2, xs) -> np.ndarray:
    sd = interval_scattering_grid(pot, t1, t2, xs) if t1 > 0.0 else nlft_forward(pot, t2, xs)
    return sd.log_abs_a


def parseval_check(
    pot: SampledPotential,
    T: float | None = None,
    tol: float = 1e-2,
    t1: float = 0.0,
) -> ParsevalReport:
    """Verify (2/pi) * integral log|a_{t1->T}| dx = ||f||^2_{L2(t1,T)}.

    Symmetric trapezoid quadrature; the step is halved until the integral is
    stable, then the half-width is doubled (adding wing integrals exactly)
    until the last tail contribution falls under ``tol * rhs``.

    Raises:
        QuadratureError: level budget exhausted; the partial report rides on
            the exception's ``report`` attribute.
    """
    if T is None:
        T = pot.T
    if not (0.0 <= t1 < T <= pot.T * (1.0 + 1e-9)):
        raise RangeError(f"need 0 <= t1 < T <= pot.T = {pot.T}, got [{t1}, {T}]")
    if tol <= 0:
        raise ValidationError(f"tol must be > 0, got {tol}")
    T = min(float(T), pot.T)
    rhs = l2_norm_sq(pot, t1, T)
    width = T - t1
    scale = max(rhs, 1e-12)

    def integral(lo: float, hi: float, dx: float) -> float:
        n = max(3, int(round((hi - lo) / dx)) + 1)
        if n % 2 == 0:
            n += 1
        xs = np.linspace(lo, hi, n)
        return float(_trapz(_log_abs_a_on(pot, t1, T, xs), xs))

    levels = 0
    X = _PARSEVAL_X0
    dx = min(0.05, 0.25 / max(width, 1.0))
    cur = integral(-X, X, dx)
    levels += 1
    # step refinement on the core domain
    while levels < _PARSEVAL_MAX_LEVELS:
        nxt = integral(-X, X, dx / 2.0)
        levels += 1
        if abs(nxt - cur) <= tol * scale / 8.0:
            cur = nxt
            dx = dx / 2.0
            break
        cur = nxt
        dx = dx / 2.0
    else:
        raise QuadratureError(
            "step refinement did not stabilize the Parseval integral",
            report=_report(cur, rhs, X, levels),
        )
    # domain doubling with exact wing addition
    while levels < _PARSEVAL_MAX_LEVELS:
        tail = integral(-2.0 * X, -X, dx) + integral(X, 2.0 * X, dx)
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
    if rhs <= 1e-15 and abs(lhs) <= 1e-9:
        rel = 0.0
    else:
        rel = abs(lhs - rhs) / max(rhs, 1e-15)
    return ParsevalReport(
        lhs=lhs,
        rhs=rhs,
        rel_err=rel,
        domain_half_width=X,
        refinement_levels=levels,
        raw_integral=raw,
    )


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


def arg_a_branch(pot: SampledPotential, t1: float, t2: float, x_grid) -> np.ndarray:
    """Continuous branch of arg a_{t1->t2} on a symmetric real grid.

    Pinned to exactly 0 at x = 0, which is consistent because
    ``a_{t1->t2}(0) = cosh(int f) > 0``.

    Args:
        x_grid: strictly increasing, symmetric, containing 0; spacing must
            keep phase increments under pi/2 or an AliasingError is raised.
    """
    xs = np.asarray(x_grid, dtype=float)
    if xs.ndim != 1 or xs.size < 3:
        raise ValidationError("x_grid must be a 1-d grid with >= 3 points")
    if np.any(np.diff(xs) <= 0):
        raise ValidationError("x_grid must be strictly increasing")
    span = max(1.0, float(np.max(np.abs(xs))))
    if float(np.max(np.abs(xs + xs[::-1]))) > 1e-9 * span:
        raise ValidationError("x_grid must be symmetric about 0")
    i0 = int(np.argmin(np.abs(xs)))
    if abs(xs[i0]) > 1e-12 * span:
        raise ValidationError("x_grid must contain 0 (the branch pin)")
    sd = interval_scattering_grid(pot, t1, t2, xs)
    phases = _unwrap_phases(sd.a, "arg a")
    return phases - phases[i0]


def hilbert_transform(samples: np.ndarray, pad_factor: int = 4) -> np.ndarray:
    """Discrete Hilbert transform H u (x) = p.v. (1/pi) int u(t)/(x-t) dt.

    Spectral method: the signal is centered in a zero-padded buffer
    (>= pad_factor times the length, rounded to a power of two) and
    multiplied by -i sgn(xi) in the frequency domain.  For a boundary-value
    pair F = u + iv analytic in the upper half-plane with decay, v = H u.
    """
    u = np.asarray(samples, dtype=float)
    n = u.size
    if n < 4:
        raise ValidationError("need at least 4 samples")
    if pad_factor < 4:
        raise ValidationError("pad_factor must be >= 4")
    m = 1 << max(2, int(math.ceil(math.log2(pad_factor * n))))
    left = (m - n) // 2
    buf = np.zeros(m)
    buf[left:left + n] = u
    spec = np.fft.fft(buf)
    xi = np.fft.fftfreq(m)
    mult = -1j * np.sign(xi)
    mult[m // 2] = 0.0  # Nyquist bin carries no orientation
    out = np.real(np.fft.ifft(spec * mult))
    return out[left:left + n]


def hilbert_consistency(sd: ScatteringData, edge_tol: float = 1e-3) -> float:
    """Max |arg a - H(log|a|)| over the central half of a symmetric grid.

    ``sd`` must sample the full transform on a uniform symmetric real grid
    with log|a| decayed at the ends (the Hilbert pair lives on all of R;
    truncation is the dominant error).

    Raises:
        DomainTooSmallError: log|a| at the grid ends exceeds
            ``edge_tol * (1 + max log|a|)``.
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
    if edge > edge_tol * (1.0 + peak):
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
