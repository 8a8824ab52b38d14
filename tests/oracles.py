"""Independent reference implementations used to freeze expected values.

Nothing here shares code with the package's cell algebra: transfer matrices
come from fixed-step RK4 integration of the defining ODE, theta from a
SciPy adaptive integration of its own evolution law, the phase and modulus
of E on the real axis from RK4 on their polar flow, and windings from a
dense fixed-grid contour sum.  Test modules compute expectations through
these, then assert the package agrees.  The last sections keep a cover
chunked afresh on every call, as reference for the propagator's cached cell
plans, and plain complex-ufunc, full-matrix formulations of the cell
coefficients and the kernels as references for the package's leaner
evaluation of them; the kernel's two-term Taylor form on its confluent
entries is the accuracy reference of the package's trapezoid there.  The
full-matrix kernel assembly (``kernel_matrix_full``, ``probe_full``)
propagates with the package's ``transfer`` and evaluates its
elementwise ``_sinc``: it pins how the matrices are assembled, which the
package does over the upper triangle in row blocks.  The box sample laid
out one point at a time is the reference for the package's digit passes.
The Parseval quadrature that propagates each refinement level's grid by
itself is the reference for the package's one propagation per level.  The
zero search and the tracks that evaluate one Newton start or one contour per
``transfer`` call, depth first, are the reference, bit for bit, of the
package's lock-step search and march.
"""

from __future__ import annotations

import math

import numpy as np

from diracnlft.debranges import _sinc
from diracnlft.errors import (
    BoundaryNearZeroError,
    DerivativeDegenerateError,
    InvariantViolation,
    PreconditionError,
    ValidationError,
)
from diracnlft.potential import SampledPotential, integral
from diracnlft.propagator import WORK_RANGE_LIMIT, _check_range, theta, theta_derivs, transfer
from diracnlft.resonance import (
    _MAX_CONTOUR_REFINES,
    _MAX_QUAD_DEPTH,
    _MAX_STEPS,
    _NEWTON_MAX_ITER,
    IM_FLOOR,
    THETA_Z_FLOOR_SCALE,
    ZERO_RESIDUAL_TOL,
    Box,
    ResonanceTrack,
    _inside,
)


# ---------------------------------------------------------------------------
# transfer matrix by brute-force ODE integration
# ---------------------------------------------------------------------------


def _generator(q: float, z: complex) -> np.ndarray:
    return np.array([[q, -z], [z, -q]], dtype=complex)


def oracle_transfer(pot: SampledPotential, z: complex, t: float,
                    steps_per_cell: int = 64) -> np.ndarray:
    """M(t, z) by classic RK4 on X' = G X, fine fixed steps within cells.

    Error ~ (w/steps)^4 per cell; steps_per_cell=64 at h=0.01 gives ~1e-14
    for desk-scale |z|, comfortably beyond the 1e-10 oracle tolerance.
    """
    M = np.eye(2, dtype=complex)
    pos = 0.0
    cells = list(pot.cells)
    idx = 0
    while pos < t - 1e-15:
        q = cells[idx] if idx < len(cells) else 0.0
        w = min(pot.h, t - pos) if idx < len(cells) else t - pos
        G = _generator(q, z)
        n = max(1, int(steps_per_cell * np.ceil(w / max(pot.h, 1e-12))))
        dh = w / n
        for _ in range(n):
            k1 = G @ M
            k2 = G @ (M + 0.5 * dh * k1)
            k3 = G @ (M + 0.5 * dh * k2)
            k4 = G @ (M + dh * k3)
            M = M + (dh / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        pos += w
        idx += 1
    return M


def oracle_theta(pot: SampledPotential, z: complex, t: float) -> complex:
    """theta(t, z) by SciPy adaptive integration of its evolution law."""
    from scipy.integrate import solve_ivp

    def rhs(s, y):
        th = y[0] + 1j * y[1]
        q = pot.cells[min(int(s / pot.h), len(pot.cells) - 1)] if s < pot.T else 0.0
        d = 2j * z * th + q * (1.0 - th * th)
        return [d.real, d.imag]

    sol = solve_ivp(rhs, (0.0, t), [1.0, 0.0], rtol=1e-12, atol=1e-13,
                    max_step=pot.h / 2.0, dense_output=False)
    return complex(sol.y[0, -1], sol.y[1, -1])


def diagonal_closed_form(pot: SampledPotential, t: float) -> np.ndarray:
    """M(t, 0) = diag(e^{F}, e^{-F}) with F the running integral of f."""
    from diracnlft.potential import integral

    F = integral(pot, 0.0, t)
    return np.array([[np.exp(F), 0.0], [0.0, np.exp(-F)]], dtype=complex)


def free_rotation(t: float, z: complex) -> np.ndarray:
    return np.array([[np.cos(t * z), -np.sin(t * z)],
                     [np.sin(t * z), np.cos(t * z)]], dtype=complex)


# ---------------------------------------------------------------------------
# cell cover by a per-cell walk
# ---------------------------------------------------------------------------


def cell_cover_by_hand(pot: SampledPotential, t1: float, t2: float, coalesce: bool = False):
    """Cells covering [t1, t2] by walking the grid one cell at a time.

    Each width is ``min(cell_end, t2) - previous end``; zero-width pieces are
    dropped and an overhang past the support becomes one zero cell.  With
    ``coalesce``, a piece of the value of the one before extends it: the
    merged width is its last end less its first start.  Same 1e-9 boundary
    slack as the package.
    """
    rtol = 1e-9
    t1 = max(0.0, t1)
    t2 = max(t1, t2)
    h, n = pot.h, len(pot.cells)
    pieces = []  # [value, start, end]

    def add(q, start, end):
        if coalesce and pieces and pieces[-1][0] == q:
            pieces[-1][2] = end
        else:
            pieces.append([q, start, end])

    if t2 > t1:
        eps = rtol * max(1.0, t2)
        j = int(np.floor(t1 / h + rtol))
        pos = t1
        while pos < min(t2, pot.T) - eps and j < n:
            width = h if j < n - 1 else pot.T - (n - 1) * h
            nxt = min(j * h + width, t2)
            if nxt > pos:
                add(pot.cells[j], pos, nxt)
            pos = nxt
            j += 1
        if t2 > pos + eps:
            add(0.0, pos, t2)
    qs = [q for q, _, _ in pieces]
    ws = [end - start for _, start, end in pieces]
    return np.asarray(qs, dtype=float), np.asarray(ws, dtype=float)


# ---------------------------------------------------------------------------
# phase and modulus of E by RK4 on their polar flow
# ---------------------------------------------------------------------------


def arg_mod_E_evolve(pot: SampledPotential, x: float, t: float):
    """Continuous phase and modulus of E(t, x) on the real axis by RK4.

    Integrates ``phase' = -x - f sin(2 phase)`` and ``log|E|' = f cos(2
    phase)`` from phase = 0, log|E| = 0, with step bounded by the cell width
    and by ``0.1/(|x| + 1)`` (resolving the rotation rate).

    Returns:
        ``(phase, modulus)`` at time t: the continuous branch of arg E and
        |E| > 0.
    """
    x = float(x)
    step_cap = 0.1 / (abs(x) + 1.0)
    phase = 0.0
    logmod = 0.0
    qs, ws = cell_cover_by_hand(pot, 0.0, float(t))
    for q, w in zip(qs, ws):
        n = max(1, math.ceil(w / step_cap))
        dt = w / n
        for _ in range(n):
            p1 = -x - q * math.sin(2.0 * phase)
            l1 = q * math.cos(2.0 * phase)
            y = phase + 0.5 * dt * p1
            p2 = -x - q * math.sin(2.0 * y)
            l2 = q * math.cos(2.0 * y)
            y = phase + 0.5 * dt * p2
            p3 = -x - q * math.sin(2.0 * y)
            l3 = q * math.cos(2.0 * y)
            y = phase + dt * p3
            p4 = -x - q * math.sin(2.0 * y)
            l4 = q * math.cos(2.0 * y)
            phase += (dt / 6.0) * (p1 + 2.0 * p2 + 2.0 * p3 + p4)
            logmod += (dt / 6.0) * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
    return phase, math.exp(logmod)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def fd1(fun, z: complex, dh: float = 1e-5) -> complex:
    return (fun(z + dh) - fun(z - dh)) / (2.0 * dh)


def fd2_of_derivative(dfun, z: complex, dh: float = 1e-5) -> complex:
    """Second derivative as a first difference of an exact first derivative.

    A plain second difference of values has ~eps/dh^2 roundoff (1e-6 at
    dh = 1e-5), too coarse to certify anything; differencing the exact
    first derivative keeps the error at ~1e-11.
    """
    return (dfun(z + dh) - dfun(z - dh)) / (2.0 * dh)


# ---------------------------------------------------------------------------
# winding by dense contour sum
# ---------------------------------------------------------------------------


def oracle_winding(theta_vals: np.ndarray) -> float:
    """Total phase increment / 2 pi along a closed sampled loop.

    The caller supplies theta on a densely sampled closed contour (last
    point distinct from first; wrap is implied).  No adaptivity: a dense
    enough fixed grid is the oracle's burden.
    """
    steps = np.angle(np.roll(theta_vals, -1) / theta_vals)
    if np.max(np.abs(steps)) >= np.pi / 2:
        raise AssertionError("oracle contour undersampled; densify the grid")
    return float(np.sum(steps) / (2.0 * np.pi))


def dense_box_ring(re_lo, re_hi, im_lo, im_hi, n_per_edge: int) -> np.ndarray:
    xs = np.linspace(re_lo, re_hi, n_per_edge, endpoint=False)
    ys = np.linspace(im_lo, im_hi, n_per_edge, endpoint=False)
    bottom = xs + 1j * im_lo
    right = re_hi + 1j * ys
    top = np.linspace(re_hi, re_lo, n_per_edge, endpoint=False) + 1j * im_hi
    left = re_lo + 1j * np.linspace(im_hi, im_lo, n_per_edge, endpoint=False)
    return np.concatenate([bottom, right, top, left])


# ---------------------------------------------------------------------------
# scalar helpers for closed-form expectations
# ---------------------------------------------------------------------------


def hilbert_pair_lorentzian(x: np.ndarray):
    """u = 1/(1+x^2) has Hilbert transform x/(1+x^2)."""
    return 1.0 / (1.0 + x * x), x / (1.0 + x * x)


# ---------------------------------------------------------------------------
# propagated cells from the cover walked by hand
# ---------------------------------------------------------------------------


def prepared_cells_afresh(pot: SampledPotential, t1: float, t2: float, im_max: float,
                          cap: float):
    """The coalesced cover of [t1, t2] walked by hand, each cell cut into
    ``ceil(w (|q| + im_max) / cap)`` equal chunks."""
    qs, ws = cell_cover_by_hand(pot, t1, t2, coalesce=True)
    n = np.maximum(1, np.ceil(ws * (np.abs(qs) + im_max) / cap).astype(int))
    return np.repeat(qs, n), np.repeat(ws / n, n)


# ---------------------------------------------------------------------------
# cell coefficients and kernels by straightforward complex arithmetic
# ---------------------------------------------------------------------------


def coeffs_by_complex_ufuncs(m: np.ndarray, w) -> tuple:
    """``c = cosh(l w)`` and ``s = sinh(l w) / l`` with ``l = sqrt(m)``, by
    numpy's complex ``cosh``/``sinh`` (closed forms only: needs ``m != 0``)."""
    lam = np.sqrt(np.asarray(m, dtype=complex))
    return np.cosh(lam * w), np.sinh(lam * w) / lam


def coeffs_by_series(m: np.ndarray, w: float, terms: int = 40) -> tuple:
    """``c = cosh(l w)``, ``s = sinh(l w) / l``, ``ds/dm`` and ``d2s/dm2``
    (``m = l^2``) from their Taylor series in extended precision, rounded to
    double at the end.

    With ``x = m w^2``: ``c = sum_j x^j / (2j)!``, ``s = w sum_j x^j /
    (2j+1)!``, ``ds/dm = w^3 sum_j (j+1) x^j / (2j+3)!`` and ``d2s/dm2 = w^5
    sum_j (j+1)(j+2) x^j / (2j+5)!``; 40 terms reach the extended-precision
    floor for ``|x| <= 10``.
    """
    cplx = np.iscomplexobj(m)
    ld = np.clongdouble if cplx else np.longdouble
    w = np.longdouble(w)
    x = np.asarray(m).astype(ld) * (w * w)
    sums, xj = [np.zeros_like(x) for _ in range(4)], np.ones_like(x)
    inv = [np.longdouble(1) / math.factorial(k) for k in (0, 1, 3, 5)]  # 1/(2j+k)! at j = 0
    for j in range(terms):
        for i, (k, mult) in enumerate(((0, 1), (1, 1), (3, j + 1), (5, (j + 1) * (j + 2)))):
            sums[i] += mult * inv[i] * xj
            inv[i] = inv[i] / ((2 * j + k + 1) * (2 * j + k + 2))
        xj = xj * x
    out = complex if cplx else float
    return tuple((scale * v).astype(out) for scale, v in zip((1, w, w**3, w**5), sums))


def kernel_sinc_by_where(t: float, lam, z):
    """sin(t(z - conj lam)) / (pi (z - conj lam)) by complex ``sin`` over the
    full broadcast arrays, the series (|t d| < 1e-4) merged by ``np.where``."""
    d = np.asarray(z, dtype=complex) - np.conj(np.asarray(lam, dtype=complex))
    u = t * d
    small = np.abs(u) < 1e-4
    out = np.sin(np.where(small, 1.0, u)) / (np.pi * np.where(small, 1.0, d))
    u2 = u * u
    return np.where(small, (t / np.pi) * (1.0 - u2 / 6.0 * (1.0 - u2 / 20.0)), out)


def kernel_matrix_by_where(t, pts, A, C, dA, dC) -> np.ndarray:
    """K(t, lam_i, z_j) over a point set from the entries and their first
    z-derivatives at the points, both branches over full matrices.

    Direct: ``(A(z) C(conj lam) - C(z) A(conj lam)) / (pi (conj lam - z))``
    with ``A(conj p) = conj A(p)``; where ``|t (conj lam - z)|`` is under 1e-5
    the trapezoid ``(W(z) + conj W(lam)) / (2 pi)`` of the Wronskian
    ``W = A C' - C A'`` replaces it.
    """
    Az, Cz = A[None, :], C[None, :]
    Al, Cl = np.conj(A)[:, None], np.conj(C)[:, None]
    denom = np.conj(pts)[:, None] - pts[None, :]
    near = t * np.abs(denom) < 1e-5
    K = (Az * Cl - Cz * Al) / (np.pi * np.where(near, 1.0, denom))
    W = A * dC - C * dA
    return np.where(near, (W[None, :] + np.conj(W)[:, None]) / (2.0 * np.pi), K)


def kernel_matrix_by_taylor(t, pts, A, C, dA, dC, d2A, d2C) -> np.ndarray:
    """:func:`kernel_matrix_by_where` with the two-term Taylor form in
    ``d = conj lam - z`` about z on the confluent entries,
    ``(W(z) + W'(z) d / 2) / pi`` with ``W' = A C'' - C A''``: an independent
    second-order form, the accuracy reference of the trapezoid."""
    denom = np.conj(pts)[:, None] - pts[None, :]
    near = t * np.abs(denom) < 1e-5
    n1 = A * dC - C * dA
    n2 = A * d2C - C * d2A
    taylor = (n1[None, :] + 0.5 * n2[None, :] * denom) / np.pi
    return np.where(near, taylor, kernel_matrix_by_where(t, pts, A, C, dA, dC))


def kernel_matrix_full(pot: SampledPotential, t: float, pts: np.ndarray) -> np.ndarray:
    """K(t, lam_i, z_j) over one point set as full matrices: one order-1
    propagation, one scan of all pairs for the confluent ones,
    ``P - P^H`` for ``P = A(z_j) C(conj lam_i)`` over the quotient's
    denominator, then the confluent entries from the Wronskians (formed per
    point, then gathered per pair)."""
    m = transfer(pot, pts, t, order=1)
    denom = np.conj(pts)[:, None] - pts
    i, j = np.nonzero(t * np.abs(denom) < 1e-5)
    denom[i, j] = 1.0
    K = m.A * np.conj(m.C)[:, None]
    K -= np.conj(K.T)
    denom *= np.pi
    K /= denom
    W = m.A * m.dC - m.C * m.dA
    K[i, j] = (W[j] + np.conj(W[i])) / (2.0 * np.pi)
    return K


def probe_full(pot: SampledPotential, t: float, axis: np.ndarray, pts: np.ndarray,
               w_hat: float) -> tuple:
    """``(K, S, gap)`` of a kernel probe over its grid, as full matrices: K
    from :func:`kernel_matrix_full`, S from the sinc at every entry
    ``(r_i, c_i, r_j, c_j)`` of the 4-d grid broadcast of ``axis``, and
    ``gap = max |K - S / w_hat| / t``."""
    K = kernel_matrix_full(pot, t, pts)
    x = axis
    re = x[None, None, None, :] - x[None, :, None, None]
    im = x[:, None, None, None] + x[None, None, :, None]
    S = _sinc(t, re, im).reshape(K.shape)
    return K, S, float(np.max(np.abs(K - S / w_hat)) / t)


def box_sample_points_by_loop(s: float, half_width: float, n: int, seed: int = 0) -> np.ndarray:
    """The box sample one point at a time: the Halton(2, 3) point of index
    ``k + 1 + seed`` by its digit loop, on the real segment for every fourth k."""

    def halton(index: int, base: int) -> float:
        f, r, i = 1.0, 0.0, index
        while i > 0:
            f /= base
            r += f * (i % base)
            i //= base
        return r

    pts = np.empty(n, dtype=complex)
    for k in range(n):
        u, v = halton(k + 1 + seed, 2), halton(k + 1 + seed, 3)
        re = s + (2.0 * u - 1.0) * half_width
        pts[k] = re if k % 4 == 0 else re + 1j * v * half_width
    return pts


# ---------------------------------------------------------------------------
# Parseval quadrature with the coarse grid propagated by itself
# ---------------------------------------------------------------------------


def parseval_two_grid(pot: SampledPotential, T: float | None = None, tol: float = 1e-2,
                      t1: float = 0.0):
    """``parseval_check`` with every step level propagated on its own grid:
    the first level at step dx0, then dx0/2, dx0/4, ... each compared with the
    previous level's integral.  The wing loop, the node counts and the report
    are the package's."""
    from diracnlft import nlft
    from diracnlft.errors import QuadratureError
    from diracnlft.potential import clip_to_support, l2_norm_sq
    from diracnlft.propagator import symmetric_grid

    T = clip_to_support(pot, float(pot.T if T is None else T), "T")
    rhs = l2_norm_sq(pot, t1, T)
    scale = max(rhs, 1e-12)
    cap = nlft._PARSEVAL_MAX_NODES

    def nodes(span: float, dx: float, batch: int = 1) -> int:
        n = max(3, int(round(min(span / dx, cap))) + 1)
        n += 1 - n % 2
        if batch * n > cap:
            raise QuadratureError("node budget", report=nlft._report(cur, rhs, X, levels))
        return n

    def core(dx: float) -> float:
        xs = symmetric_grid(X, nodes(2.0 * X, dx))
        return float(nlft._trapz(nlft.interval_scattering_grid(pot, t1, T, xs).log_abs_a, xs))

    X, levels, cur = nlft._PARSEVAL_X0, 0, math.nan
    dx = min(0.05, 0.25 / max(T - t1, 1.0))
    cur, levels = core(dx), 1
    while levels < nlft._PARSEVAL_MAX_LEVELS:
        nxt = core(dx / 2.0)
        levels += 1
        stable = abs(nxt - cur) <= tol * scale / 8.0
        cur, dx = nxt, dx / 2.0
        if stable:
            break
    else:
        raise QuadratureError("step refinement", report=nlft._report(cur, rhs, X, levels))
    while levels < nlft._PARSEVAL_MAX_LEVELS:
        wing = np.linspace(X, 2.0 * X, nodes(X, dx, batch=2))
        la = nlft.interval_scattering_grid(
            pot, t1, T, np.concatenate([-wing[::-1], wing])).log_abs_a
        tail = float(nlft._trapz(la[:wing.size], -wing[::-1])) + float(
            nlft._trapz(la[wing.size:], wing))
        levels += 1
        cur += tail
        X *= 2.0
        if abs(tail) < 0.25 * tol * scale:
            return nlft._report(cur, rhs, X, levels)
    raise QuadratureError("domain doubling", report=nlft._report(cur, rhs, X, levels))


# ---------------------------------------------------------------------------
# zero search and tracks, one start and one box at a time
# ---------------------------------------------------------------------------


def newton_by_loop(pot, t, z0, level=None, bounds=None, pre_tol=math.inf):
    """Newton from one start, one ``transfer`` per iterate: the reference of
    the package's lock-step ``_newton``."""
    z = complex(z0) if level is None else float(z0)
    floor = THETA_Z_FLOOR_SCALE * max(t, 1e-6)
    if bounds is not None:
        re_lo, re_hi, im_lo, im_hi = bounds
        pad = max(re_hi - re_lo, im_hi - im_lo, 1e-9)
        # widened by pad on every side, but at most pad / 2 below the axis
        basin = (re_lo, re_hi, max(im_lo, 0.5 * pad), im_hi)
    best = None
    for _ in range(_NEWTON_MAX_ITER):
        if bounds is not None and not _inside(z, basin, pad):
            break  # left the basin: no zero here for this start
        th, th_z = theta_derivs(transfer(pot, z, t, order=1))
        res = abs(th) if level is None else abs(th - level)
        if best is None and res > pre_tol:
            raise PreconditionError(
                f"|theta(t0, z0) - {0 if level is None else level.real:g}| = {res:.3g} "
                f"exceeds the start tolerance {pre_tol:g}: not a starting point of this track"
            )
        if best is None or res < best[2]:
            best = (z, th_z, res)
        if res <= 1e-13:
            return z, th_z, res
        if abs(th_z) < floor:
            raise DerivativeDegenerateError(
                f"|theta_z| = {abs(th_z):.3g} under floor {floor:.3g} at z={z}: "
                "multiple/degenerate zero suspected"
            )
        if level is None:
            step = -th / th_z
        else:
            rot = th * np.conj(level)
            slope = (th_z / th).imag
            if abs(slope) < floor:
                raise DerivativeDegenerateError("level-set slope Im(theta_z/theta) degenerate")
            step = -math.atan2(rot.imag, rot.real) / slope
        z_next = z + step
        if not (abs(step) <= 1.0 + abs(z) and abs(z_next.imag) * t <= WORK_RANGE_LIMIT):
            break  # wild step, or out of the working range: Newton left its basin
        z = z_next
    if best is not None and best[2] <= ZERO_RESIDUAL_TOL:
        return best
    return None


def winding_by_loop(pot, t, rect: tuple, n0: int) -> int:
    """Winding number of one contour, one ``transfer`` per refinement round:
    the reference of the package's lock-step ``_winding``."""
    re_lo, re_hi, im_lo, im_hi = rect
    w, h = re_hi - re_lo, im_hi - im_lo
    # perimeter parameter of each corner, counterclockwise from (re_lo, im_lo)
    knots = (0.0, w, w + h, 2 * w + h, 2 * (w + h))
    corners = (complex(re_lo, im_lo), complex(re_hi, im_lo), complex(re_hi, im_hi),
               complex(re_lo, im_hi), complex(re_lo, im_lo))
    L = knots[-1]
    params = np.linspace(0.0, L, 4 * n0, endpoint=False)
    vals = theta(transfer(pot, np.interp(params, knots, corners), t))
    for _ in range(_MAX_CONTOUR_REFINES):
        if not np.all(vals):
            raise BoundaryNearZeroError(
                f"theta is exactly 0 on the contour of [{re_lo},{re_hi}]x[{im_lo},{im_hi}]"
            )
        nxt = np.roll(vals, -1)
        steps = np.angle(nxt / vals)
        bad = np.abs(steps) >= (np.pi / 2.0) * 0.999
        if not np.any(bad):
            total = float(np.sum(steps))
            wind = total / (2.0 * np.pi)
            rounded = int(round(wind))
            if abs(wind - rounded) > 0.2:
                raise BoundaryNearZeroError(
                    f"winding {wind:.4f} is not close to an integer on "
                    f"[{re_lo},{re_hi}]x[{im_lo},{im_hi}]"
                )
            return rounded
        gaps = np.diff(params, append=L)[bad]
        if float(np.min(gaps)) < 1e-13 * max(L, 1.0):
            raise BoundaryNearZeroError(
                "a zero of theta sits on (or hugs) the counting contour; "
                "shift or shrink the box"
            )
        # each midpoint goes right after its step's start: params stay sorted
        mids = params[bad] + 0.5 * gaps
        at = np.flatnonzero(bad) + 1
        params = np.insert(params, at, mids)
        vals = np.insert(vals, at, theta(transfer(pot, np.interp(mids, knots, corners), t)))
    raise BoundaryNearZeroError(
        "contour refinement budget exhausted; a zero is (numerically) on the boundary"
    )


def collect_zeros_by_loop(pot, t, rect: tuple, n0: int, depth: int, out: list) -> None:
    """Count, polish or split one box; its four children one after another."""
    wind = winding_by_loop(pot, t, rect, n0)
    if wind < 0:
        raise InvariantViolation(
            f"negative winding {wind} of theta on a box in the closed upper "
            "half-plane: a pole entered the contour"
        )
    if wind == 0:
        return
    re_lo, re_hi, im_lo, im_hi = rect
    center = complex((re_lo + re_hi) / 2.0, (im_lo + im_hi) / 2.0)
    size = max(re_hi - re_lo, im_hi - im_lo)
    scale = 1.0 + abs(center)
    if wind == 1:
        polished = newton_by_loop(pot, t, center, bounds=rect)
        if polished is not None and _inside(polished[0], rect, 1e-9 * scale):
            out.append(polished[:2])
            return
        # Newton missed (zero near a corner, say): fall through to splitting.
    if depth >= _MAX_QUAD_DEPTH or size < 1e-9 * scale:
        raise DerivativeDegenerateError(
            f"could not isolate {wind} zero(s) in a box of size {size:.3g}; "
            "a zero cluster is beyond the resolving power"
        )
    # deterministic split-jitter schedule: re-split off-center if a child
    # contour keeps hitting a zero
    for fx, fy in ((0.5, 0.5), (0.53125, 0.5), (0.5, 0.53125), (0.46875, 0.515625)):
        rm = re_lo + fx * (re_hi - re_lo)
        im = im_lo + fy * (im_hi - im_lo)
        try:
            found: list = []
            for sub in ((re_lo, rm, im_lo, im), (rm, re_hi, im_lo, im),
                        (re_lo, rm, im, im_hi), (rm, re_hi, im, im_hi)):
                collect_zeros_by_loop(pot, t, sub, max(8, n0 // 2), depth + 1, found)
            out.extend(found)
            return
        except BoundaryNearZeroError:
            continue
    raise BoundaryNearZeroError(
        "every deterministic sub-box split left a zero on a contour; "
        "shift the outer box instead"
    )


def find_zeros_by_loop(pot: SampledPotential, t: float, box: Box):
    """``find_zeros`` by the depth-first search of one box at a time."""
    if not t > 0:  # NaN fails too
        raise ValidationError(f"need t > 0, got {t}")
    # transfer's range check on the top corners (the first contour's top edge
    # is Im z = half_width), before a box past |z| <= 1e150 overflows the contour
    re_lo, re_hi, _, im_hi = box.rect
    _check_range(np.array([complex(re_lo, im_hi), complex(re_hi, im_hi)]), t)
    raw: list = []
    collect_zeros_by_loop(pot, t, box.rect, box.grid_n, 0, raw)
    # dedupe (quadrisection borders can hand the same zero to two children)
    uniq: list = []
    for z, th_z in raw:
        tol = 1e-9 * (1.0 + abs(z))
        if z.imag > IM_FLOOR and box.contains(z, tol) and all(abs(z - u) > tol for u, _ in uniq):
            uniq.append((z, th_z))
    q = 1e-9 * (1.0 + abs(box.s) + box.half_width)  # Re z within q: one column, by Im z
    uniq.sort(key=lambda p: (round(p[0].real / q), p[0].imag))
    return uniq


def march_by_loop(pot, z0, t0, t1, dt, pre_tol, level, build):
    """Predictor-corrector march of one start, one Newton run per step: the
    reference of the package's lock-step ``_march``."""
    if not (dt > 0 and t1 > t0 and (t1 - t0) / dt <= _MAX_STEPS):  # NaN fails too
        raise ValidationError(f"need t1 > t0, dt > 0 and at most {_MAX_STEPS} steps, "
                              f"got [{t0}, {t1}], dt={dt}")
    samples: list = []
    residuals: list = []
    status = "completed"
    try:
        polished = newton_by_loop(pot, t0, z0, level, pre_tol=pre_tol)
        if polished is None:
            raise PreconditionError("Newton could not refine the starting point")
        z, th_z, res = polished
        samples.append((t0, z, th_z))
        residuals.append(res)
        t = t0
        while t < t1 - 1e-12:
            if abs(th_z) < THETA_Z_FLOOR_SCALE * max(t, 1e-6):  # the predictor divides by it
                raise DerivativeDegenerateError(f"|theta_z| {abs(th_z):.3g} under floor at t = {t}")
            step = min(dt, t1 - t)
            t_next = t + step
            if level is None:  # f averaged over [t, t_next]
                z_pred = z - step * (integral(pot, t, t_next) / (t_next - t) / th_z)
            else:
                z_pred = z + step * (-2j * z * level / th_z).real
            polished = newton_by_loop(pot, t_next, z_pred, level)
            if polished is None:
                status = "newton_diverged"
                break
            if level is None and polished[0].imag <= IM_FLOOR:
                status = "exited_real_axis"
                break
            t = t_next
            z, th_z, res = polished
            samples.append((t, z, th_z))
            residuals.append(res)
    except DerivativeDegenerateError as exc:
        exc.track = build(samples, residuals, "derivative_degenerate")
        raise
    return build(samples, residuals, status)




def track_resonance_by_loop(pot: SampledPotential, starts, t0: float, t1: float, dt: float):
    """``track_resonance`` over a sequence of starts as a loop of one-start
    marches: the tracks, or the first start's error."""
    def build(samples, residuals, status):
        return ResonanceTrack(samples=tuple(samples), residuals=tuple(residuals),
                              status=status, dt=dt)

    return [march_by_loop(pot, z0, t0, t1, dt, 1e-6, None, build) for z0 in starts]
