"""Reproducing kernels of the evolving de Branges space and model fits for E.

The space attached to E(t, .) has kernel

    K(t, lam, z) = (A(z) C(conj lam) - C(z) A(conj lam)) / (pi (conj lam - z)),

which in the free case collapses to the Paley-Wiener sinc kernel
``S = sin(t (z - conj lam)) / (pi (z - conj lam))``.  At conj lam = z it is
the Wronskian ``W = A C' - C A'`` over pi; near there K is the trapezoid
``(W(z) + conj W(lam)) / (2 pi)``, so one propagation with first
z-derivatives serves every entry.  In the universality
regime K approaches S / w(s) on boxes Q(s, C/t); ``kernel_probe(...).gap``
measures that defect, and ``hb_fit`` realizes the two limit shapes of E
itself, picking the sine or the exponential by whether a zero is nearby.

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
from .propagator import transfer
from .resonance import Box, find_zeros

__all__ = [
    "KernelProbe",
    "ModelFit",
    "kernel_K",
    "kernel_sinc",
    "kernel_probe",
    "estimate_w",
    "hb_fit",
    "gamma_factor",
]

#: |t (conj lam - z)| below this switches the kernel to the trapezoid of its
#: Wronskians, off by (t d)^2 / 6 of t / pi (t d = 1e-5: 5e-12 of t), while
#: the direct quotient's rounding grows as t d shrinks (t = 3: 3e-11 of t).
_DIAG_SWITCH = 1e-5

#: |t (z - conj lam)| below this evaluates the sinc by series.
_SINC_SERIES = 1e-4

#: Bytes of kernel entries evaluated per block of rows.
_KERNEL_BLOCK = 1 << 19

#: Most sample times of one ``estimate_w`` sweep.
_MAX_WINDOW_SAMPLES = 2**16


@dataclass(frozen=True)
class KernelProbe:
    """Kernel vs sinc comparison over a box around a real frequency.

    ``K_values`` is K over pairs of ``lambda_grid`` and ``E_values`` is
    E(t, .) = A - iC at its points, from the same propagation.
    """

    t: float
    s: float
    C: float
    lambda_grid: np.ndarray
    K_values: np.ndarray
    E_values: np.ndarray
    gap: float
    w_hat: float


@dataclass(frozen=True)
class ModelFit:
    """Local model of E(t, .) on a box Q(s, C/t).

    ``kind`` "sine": ``(alpha gamma(t y)/sqrt(w)) sin(t (z - (x - i y)))``,
    fitted where a theta-zero sits in the box.  ``kind`` "exp":
    ``(-i alpha / sqrt(w)) e^{-i t z}`` on a zero-free box, with x and y NaN.
    """

    t: float
    s: float
    kind: str
    alpha: complex
    x: float
    y: float
    residual: float


def gamma_factor(p: float) -> float:
    """sqrt(2) / sqrt(sinh(2p)); the peak amplitude scale of the sine model."""
    if not p > 0:  # NaN fails too
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
    if not 0 < t < math.inf:  # NaN fails too
        raise ValidationError(f"kernel_sinc needs a finite t > 0, got {t}")
    d = np.atleast_1d(np.asarray(z, dtype=complex) - np.conj(np.asarray(lam, dtype=complex)))
    out = _sinc(t, d.real, d.imag)
    if np.ndim(z) == 0 and np.ndim(lam) == 0:
        return complex(out[0])
    return out


def _sinc(t, re, im):
    """sin(t d) / (pi d) at ``d = re + i im``, for real arrays broadcast together.

    sin/cos run at the shape of ``re`` and cosh/sinh at that of ``im``, so a
    tensor grid passes its factors and pays the transcendentals once per
    distinct value, not once per entry.
    """
    ur, ui = t * re, t * im
    out = np.empty(np.broadcast_shapes(re.shape, im.shape), dtype=complex)
    # sin(a + ib) = sin a cosh b + i cos a sinh b
    np.multiply(np.sin(ur), np.cosh(ui), out=out.real)
    np.multiply(np.cos(ur), np.sinh(ui), out=out.imag)
    u = np.empty_like(out)  # t d; complex abs is several times faster than hypot
    u.real[...], u.imag[...] = ur, ui
    small = np.nonzero(np.abs(u) < _SINC_SERIES)
    u2 = u[small] ** 2
    d = u  # reuse the buffer for pi d
    np.multiply(np.pi, re, out=d.real)
    np.multiply(np.pi, im, out=d.imag)
    d[small] = np.pi
    out /= d
    out[small] = (t / np.pi) * (1.0 - u2 / 6.0 * (1.0 - u2 / 20.0))
    return out


def _kernel_matrix(pot, t, pts, unit, dev=None):
    """K(t, lam_i, z_j) over one point set (rows index lam, cols index z),
    ``max |K - dev|`` over it (0 without ``dev``), and E = A - iC at ``pts``.

    Uses A(conj p) = conj A(p) (real potential) so a single order-1 batch at
    ``pts`` supplies the values and the Wronskians of the confluent entries.
    """
    m = transfer(pot, pts, t, order=1)
    return (*_kernel_blocks(t, pts, m, unit, dev), m.E)


def _kernel_blocks(t, pts, m, unit, dev):
    """``(K, max |K - dev|)`` from the entries of ``m`` at ``pts``.

    K is Hermitian (K(lam, z) = conj K(z, lam)), so only the entries
    ``i <= j`` are evaluated, in blocks of rows (a multiple of ``unit`` each,
    about ``_KERNEL_BLOCK`` bytes), and each block is mirrored into the lower
    triangle.  An entry is ``(P_ij - conj P_ji) / (pi (conj lam_i - z_j))`` for
    ``P_ij = A(z_j) C(conj lam_i)``; each block finds its confluent entries
    among the offsets ``d = conj lam_i - z_j`` it forms.  ``dev(r0, r1, block)``
    gives ``max |block - ref|`` for the block ``K[r0:r1, r0:]`` and the same
    block of the matrix K is compared with.
    """
    A, C = m.A, m.C
    # confluent branch: K(lam, z) -> W / pi at conj lam = z for the Wronskian
    # W = A C' - C A', and the trapezoid (W(z) + W(conj lam)) / (2 pi), with
    # W(conj lam) = conj W(lam), is K to O((t d)^2) and exactly Hermitian;
    # W is formed per point, so no entry's bits depend on the block layout
    W = A * m.dC - C * m.dA
    n, cut = len(pts), 2.0 * _DIAG_SWITCH / t
    K = np.empty((n, n), dtype=complex)
    gap, r0 = np.float64(0.0), 0
    while r0 < n:
        r1 = min(n, r0 + unit * max(1, _KERNEL_BLOCK // (16 * unit * (n - r0))))
        B = K[r0:r1, r0:]
        np.multiply(A[r0:], np.conj(C[r0:r1])[:, None], out=B)
        den = A[r0:r1, None] * np.conj(C[r0:])
        B -= np.conjugate(den, out=den)
        np.subtract(np.conj(pts[r0:r1])[:, None], pts[r0:], out=den)
        # the switch's own test on a superset taken by the real part alone
        # (the factor 2 in ``cut`` keeps entries within rounding of the switch)
        flat = den.reshape(-1)
        near = np.flatnonzero(np.abs(den.real) < cut)
        near = near[t * np.abs(flat[near]) < _DIAG_SWITCH]
        flat[near] = 1.0
        den *= np.pi
        B /= den
        bi, bj = np.divmod(near, n - r0)
        B[bi, bj] = (W[bj + r0] + np.conj(W[bi + r0])) / (2.0 * np.pi)
        w = r1 - r0
        np.conjugate(B[:, w:].T, out=K[r1:, r0:r1])
        D = B[:, :w]
        np.copyto(D, np.conj(D.T), where=np.tri(w, k=-1, dtype=bool))
        # K(lam, lam) is real; the quotient leaves a zero of either sign in
        # its imaginary part
        np.fill_diagonal(D.imag, 0.0)
        if dev is not None:
            gap = np.maximum(gap, dev(r0, r1, B))
        r0 = r1
    return K, gap


def kernel_K(pot: SampledPotential, t: float, lam: complex, z: complex) -> complex:
    """Reproducing kernel K(t, lam, z) of the space attached to E(t, .).

    Evaluated from the transfer-matrix entries A and C; coincident points
    (|t (conj lam - z)| under 1e-5) switch to the trapezoid of the Wronskian
    W = A C' - C A', (W(z) + conj W(lam)) / (2 pi): first z-derivatives only,
    K exactly Hermitian, and its diagonal exactly real and positive.
    Past ``pot.T`` the potential is extended by zero, as in :func:`transfer`.

    At far horizons the direct quotient just above the switch loses digits:
    its rounding grows like eps t |z| / (t |conj lam - z|), so there it is off
    the zero potential's sinc by 8e-6 of t at t = 1e6 and by 3e-3 of t at
    t = 1e9, while the trapezoid stays near 5e-12.  A switch that grows like
    (t |z|)^(1/3) would bound both; it is not made here.
    """
    if not t > 0:  # NaN fails too
        raise ValidationError(f"kernel_K needs t > 0, got {t}")
    pts = np.array([lam, z], dtype=complex)
    return complex(_kernel_matrix(pot, t, pts, 1)[0][0, 1])


def kernel_probe(
    pot: SampledPotential,
    s: float,
    t: float,
    C: float,
    w_hat: float | None = None,
    grid_n: int = 16,
) -> KernelProbe:
    """Tabulate K and E over the full square Q(s, C/t) and score the gap of K
    to S / w_hat.

    ``w_hat`` defaults to an 8-sample estimate over the trailing tenth of
    [0, min(t, pot.T)] (past the support |E(t, s)| is frozen).  The gap is
    ``max |K - S / w_hat| / t`` over all grid pairs.
    """
    if w_hat is None:
        hi = min(t, pot.T)
        w_hat, _ = estimate_w(pot, s, (0.9 * hi, hi), 8)
    if not w_hat > 0:  # NaN fails too
        raise ValidationError(f"need w_hat > 0, got {w_hat}")
    box = Box.scaled(s, C, t, grid_n)
    pts = box.tensor_grid()
    # entry (r_i, c_i, r_j, c_j): z_j - conj lam_i = (x[c_j] - x[c_i]) + i (x[r_i] + x[r_j]),
    # so S / w_hat comes from a table over the distinct values of both parts
    # (not over index distances: equal distances need not give equal floats)
    x = box.axis
    re, re_at = np.unique(x - x[:, None], return_inverse=True)
    im, im_at = np.unique(x + x[:, None], return_inverse=True)
    re_at, im_at = re_at.reshape(grid_n, grid_n), im_at.reshape(grid_n, grid_n)
    table = _sinc(t, re[None, :], im[:, None]) / w_hat

    def sinc_gap(r0, r1, block):
        a, b = r0 // grid_n, r1 // grid_n
        # both with axes (r_i, r_j, c_i, c_j)
        block = block.reshape(b - a, grid_n, grid_n - a, grid_n).transpose(0, 2, 1, 3)
        dev = np.take(table[im_at[a:b, a:]], re_at, axis=2)
        return np.max(np.abs(np.subtract(block, dev, out=dev)))

    K, gap, E = _kernel_matrix(pot, t, pts, grid_n, sinc_gap)
    return KernelProbe(t=t, s=s, C=C, lambda_grid=pts, K_values=K, E_values=E,
                       gap=float(gap / t), w_hat=w_hat)


# ---------------------------------------------------------------------------
# spectral density estimation
# ---------------------------------------------------------------------------


def _window_sweep(pot: SampledPotential, s: float, t_window: tuple, n: int):
    """``(mean, max/min - 1)`` of ``1/|E|^2`` and of ``1/|Etilde|^2`` over
    ``n`` times of the window from one sweep at ``s``, and ``(E, Etilde)``
    at the window end."""
    t_a, t_b = float(t_window[0]), float(t_window[1])
    if not (0.0 <= t_a < t_b):
        raise ValidationError(f"need 0 <= t_a < t_b, got window ({t_a}, {t_b})")
    clip_to_support(pot, t_b, "window end")
    if not (isinstance(n, (int, np.integer)) and 4 <= n <= _MAX_WINDOW_SAMPLES):
        raise ValidationError(
            f"need an integer n from 4 to {_MAX_WINDOW_SAMPLES} samples, got {n!r}")
    inv = np.empty((2, n))
    for i, B in enumerate(transfer(pot, np.array([s], dtype=complex), np.linspace(t_a, t_b, n))):
        E, Et = B.E[0], B.Etilde[0]
        inv[:, i] = 1.0 / abs(E) ** 2, 1.0 / abs(Et) ** 2
    w_stats, wt_stats = ((float(np.mean(v)), float(np.max(v) / np.min(v) - 1.0)) for v in inv)
    return w_stats, wt_stats, complex(E), complex(Et)


def estimate_w(pot: SampledPotential, s: float, t_window: tuple, n: int):
    """Estimate w(s) by sampling 1/|E(t, s)|^2.

    Returns ``(w_hat, spread)`` where w_hat is the average over ``n`` (an
    integer from 4 to 2**16) sample times in the window and spread is
    ``max/min - 1``; a vanishing spread certifies the modulus has stabilized
    (exact once the potential vanishes on the window).  The dual density,
    from Etilde, is part of :func:`~diracnlft.experiments.limit_identities`.
    """
    return _window_sweep(pot, s, t_window, n)[0]


# ---------------------------------------------------------------------------
# sine / exponential fits
# ---------------------------------------------------------------------------


def hb_fit(pot: SampledPotential, probe: KernelProbe) -> ModelFit:
    """Fit E(t, .) on the box Q(s, C/t) of ``probe`` by the limit shape the
    box admits, with the probe's t, s, C and w_hat.

    One zero search decides.  A theta-zero in the box gives the shifted
    sine: its zero starts at the conjugate of the nearest theta-zero and is
    moved by the smallest amount that lets a unimodular alpha pin the model
    to E(t, s) exactly (two real matching conditions, so the phase alone
    cannot absorb both); gamma is frozen at the original zero height.  A
    zero-free box gives the exponential, with alpha pinned to E(t, s) the
    same way.  ``residual`` is the sup of |E - model| over the probe's grid,
    read from ``probe.E_values``.

    Raises:
        PreconditionError: the zero height violates 1 < t y < 2C.
        FitError: the minimal shift pushed the model zero out of the lower
            half-plane.
    """
    s, t, C, w_hat, pts = probe.s, probe.t, probe.C, probe.w_hat, probe.lambda_grid
    zeros = find_zeros(pot, t, Box.scaled(s, C, t, math.isqrt(len(pts))))
    kind = "sine" if zeros else "exp"
    if kind == "sine":
        z_up = min((z for z, _ in zeros), key=lambda z: abs(z - s))
        if not (1.0 < t * z_up.imag < 2.0 * C):
            raise PreconditionError(
                f"t*y = {t * z_up.imag:.3g} outside (1, {2 * C}): the sine model's "
                "value pin is only calibrated in that band"
            )
    E_s = transfer(pot, s, t).E
    if kind == "exp":
        alpha, x, y = 1j * math.sqrt(w_hat) * E_s * np.exp(1j * t * s), math.nan, math.nan
        model = (-1j * alpha / math.sqrt(w_hat)) * np.exp(-1j * t * pts)
    else:
        gam = gamma_factor(t * z_up.imag)
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
        model = (alpha * gam / math.sqrt(w_hat)) * np.sin(t * (pts - (x - 1j * y)))
    residual = float(np.max(np.abs(probe.E_values - model)))
    return ModelFit(t=t, s=s, kind=kind, alpha=complex(alpha), x=x, y=y, residual=residual)
