"""Independent reference implementations used to freeze expected values.

Nothing here shares code with the package's cell algebra: transfer matrices
come from fixed-step RK4 integration of the defining ODE, theta from a
SciPy adaptive integration of its own evolution law, and windings from a
dense fixed-grid contour sum.  Test modules compute expectations through
these, then assert the package agrees.
"""

from __future__ import annotations

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


def sigma_intervals_by_hand(cells, h, sigma, min_mass):
    """Greedy near-constant-sign intervals by plain list arithmetic.

    Each interval is extended cell by cell while the sign-coherence
    inequality keeps holding, stopping at the first violation.
    """
    out = []
    n = len(cells)
    i = 0
    while i < n:
        s_int = 0.0
        s_abs = 0.0
        j = i
        while j < n:
            s2 = s_int + cells[j] * h
            m2 = s_abs + abs(cells[j]) * h
            if abs(s2) >= (1.0 - sigma) * m2:
                s_int, s_abs = s2, m2
                j += 1
            else:
                break
        if j > i and s_abs >= min_mass:
            out.append((i * h, j * h, s_int, s_abs))
            i = j
        else:
            i += 1
    return out
