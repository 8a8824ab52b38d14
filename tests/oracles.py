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
evaluation of them.  The full-matrix kernel assembly (``kernel_matrix_full``,
``probe_full``) propagates with the package's ``transfer`` and evaluates its
elementwise ``_sinc``: it pins how the matrices are assembled, which the
package does over the upper triangle in row blocks.  The box sample laid
out one point at a time is the reference for the package's digit passes.
The Parseval quadrature that propagates each refinement level's grid by
itself is the reference for the package's one propagation per level.
"""

from __future__ import annotations

import math

import numpy as np

from diracnlft.debranges import _sinc
from diracnlft.potential import SampledPotential
from diracnlft.propagator import transfer


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


def kernel_matrix_by_where(t, pts, A, C, dA, dC, d2A, d2C) -> np.ndarray:
    """K(t, lam_i, z_j) over a point set from the entries (and their first two
    z-derivatives) at the points, both branches over full matrices.

    Direct: ``(A(z) C(conj lam) - C(z) A(conj lam)) / (pi (conj lam - z))``
    with ``A(conj p) = conj A(p)``; where ``|t (conj lam - z)|`` is under 1e-5
    the confluent Taylor form in ``conj lam - z`` replaces it.
    """
    Az, Cz = A[None, :], C[None, :]
    Al, Cl = np.conj(A)[:, None], np.conj(C)[:, None]
    denom = np.conj(pts)[:, None] - pts[None, :]
    near = t * np.abs(denom) < 1e-5
    K = (Az * Cl - Cz * Al) / (np.pi * np.where(near, 1.0, denom))
    n1 = Az * dC[None, :] - Cz * dA[None, :]
    n2 = Az * d2C[None, :] - Cz * d2A[None, :]
    return np.where(near, (n1 + 0.5 * n2 * denom) / np.pi, K)


def kernel_matrix_full(pot: SampledPotential, t: float, pts: np.ndarray) -> np.ndarray:
    """K(t, lam_i, z_j) over one point set as full matrices: one scan of all
    pairs for the confluent ones, one propagation at the order they need,
    ``P - P^H`` for ``P = A(z_j) C(conj lam_i)`` over the quotient's
    denominator, then the confluent entries from the z-derivatives."""
    denom = np.conj(pts)[:, None] - pts
    i, j = np.nonzero(t * np.abs(denom) < 1e-5)
    d, denom[i, j] = denom[i, j], 1.0
    order = 2 if d.any() else 1 if len(d) else 0
    m = transfer(pot, pts, t, order=order)
    K = m.A * np.conj(m.C)[:, None]
    K -= np.conj(K.T)
    denom *= np.pi
    K /= denom
    if order:
        A, C = m.A[j], m.C[j]
        N = A * m.dC[j] - C * m.dA[j]
        if order == 2:
            N += 0.5 * (A * m.d2C[j] - C * m.d2A[j]) * d
        K[i, j] = N / np.pi
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
