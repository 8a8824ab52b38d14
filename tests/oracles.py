"""Independent reference implementations used to freeze expected values.

Nothing here shares code with the package's cell algebra: transfer matrices
come from fixed-step RK4 integration of the defining ODE, theta from a
SciPy adaptive integration of its own evolution law, the phase and modulus
of E on the real axis from RK4 on their polar flow, and windings from a
dense fixed-grid contour sum.  Test modules compute expectations through
these, then assert the package agrees.  The last section keeps plain
complex-ufunc, full-matrix formulations of the cell coefficients and the
kernels as references for the package's leaner evaluation of them.
"""

from __future__ import annotations

import math

import numpy as np

from diracnlft.potential import SampledPotential


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
        q = pot.value(np.array([s]))[0] if s < pot.T else 0.0
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


def cell_cover_by_hand(pot: SampledPotential, t1: float, t2: float):
    """Cells covering [t1, t2] by walking the grid one cell at a time.

    Each width is ``min(cell_end, t2) - previous end``; zero-width pieces are
    dropped and an overhang past the support becomes one zero cell.  Same
    1e-9 boundary slack as the package.
    """
    rtol = 1e-9
    t1 = max(0.0, t1)
    t2 = max(t1, t2)
    h, n = pot.h, len(pot.cells)
    qs, ws = [], []
    if t2 > t1:
        eps = rtol * max(1.0, t2)
        j = int(np.floor(t1 / h + rtol))
        pos = t1
        while pos < min(t2, pot.T) - eps and j < n:
            width = h if j < n - 1 else pot.T - (n - 1) * h
            nxt = min(j * h + width, t2)
            if nxt > pos:
                qs.append(pot.cells[j])
                ws.append(nxt - pos)
            pos = nxt
            j += 1
        if t2 > pos + eps:
            qs.append(0.0)
            ws.append(t2 - pos)
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
# cell coefficients and kernels by straightforward complex arithmetic
# ---------------------------------------------------------------------------


def coeffs_by_complex_ufuncs(m: np.ndarray, w) -> tuple:
    """``c = cosh(l w)`` and ``s = sinh(l w) / l`` with ``l = sqrt(m)``, by
    numpy's complex ``cosh``/``sinh`` (closed forms only: needs ``m != 0``)."""
    lam = np.sqrt(np.asarray(m, dtype=complex))
    return np.cosh(lam * w), np.sinh(lam * w) / lam


def s_derivatives_by_series(m: np.ndarray, w: float, terms: int = 40) -> tuple:
    """``ds/dm`` and ``d2s/dm2`` of ``s = sum_k m^k w^(2k+1) / (2k+1)!`` from
    their Taylor series in extended precision, rounded to double at the end.

    ``ds/dm = w^3 sum_j (j+1) x^j / (2j+3)!`` and ``d2s/dm2 = w^5 sum_j
    (j+1)(j+2) x^j / (2j+5)!`` with ``x = m w^2``; 40 terms reach the
    extended-precision floor for ``|x| <= 10``.
    """
    cplx = np.iscomplexobj(m)
    ld = np.clongdouble if cplx else np.longdouble
    w = np.longdouble(w)
    x = np.asarray(m).astype(ld) * (w * w)
    sm, smm, xj = np.zeros_like(x), np.zeros_like(x), np.ones_like(x)
    inv3, inv5 = np.longdouble(1) / 6, np.longdouble(1) / 120  # 1/(2j+3)!, 1/(2j+5)!
    for j in range(terms):
        sm += (j + 1) * inv3 * xj
        smm += (j + 1) * (j + 2) * inv5 * xj
        xj = xj * x
        inv3 = inv3 / ((2 * j + 4) * (2 * j + 5))
        inv5 = inv5 / ((2 * j + 6) * (2 * j + 7))
    out = complex if cplx else float
    return (w**3 * sm).astype(out), (w**5 * smm).astype(out)


def kernel_sinc_by_where(t: float, lam, z):
    """sin(t(z - conj lam)) / (pi (z - conj lam)) by complex ``sin`` over the
    full broadcast arrays, the series (|t d| < 1e-4) merged by ``np.where``."""
    d = np.asarray(z, dtype=complex) - np.conj(np.asarray(lam, dtype=complex))
    u = t * d
    small = np.abs(u) < 1e-4
    out = np.sin(np.where(small, 1.0, u)) / (np.pi * np.where(small, 1.0, d))
    u2 = u * u
    return np.where(small, (t / np.pi) * (1.0 - u2 / 6.0 * (1.0 - u2 / 20.0)), out)


def kernel_matrix_by_where(pts, A, C, dA, dC, d2A, d2C) -> np.ndarray:
    """K(t, lam_i, z_j) over a point set from the entries (and their first two
    z-derivatives) at the points, both branches over full matrices.

    Direct: ``(A(z) C(conj lam) - C(z) A(conj lam)) / (pi (conj lam - z))``
    with ``A(conj p) = conj A(p)``; where ``|conj lam - z|`` is under 1e-6
    relative the confluent Taylor form in ``conj lam - z`` replaces it.
    """
    Az, Cz = A[None, :], C[None, :]
    Al, Cl = np.conj(A)[:, None], np.conj(C)[:, None]
    denom = np.conj(pts)[:, None] - pts[None, :]
    near = np.abs(denom) < 1e-6 * (1.0 + np.abs(pts)[None, :])
    K = (Az * Cl - Cz * Al) / (np.pi * np.where(near, 1.0, denom))
    n1 = Az * dC[None, :] - Cz * dA[None, :]
    n2 = Az * d2C[None, :] - Cz * d2A[None, :]
    return np.where(near, (n1 + 0.5 * n2 * denom) / np.pi, K)
