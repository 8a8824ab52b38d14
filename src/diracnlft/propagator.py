"""Transfer matrices of the half-line Dirac system.

For a piecewise-constant potential the fundamental solution is an ordered
product of exact cell propagators

    P(q, w, z) = cosh(l w) I + sinh(l w)/l * G,   G = [[q, -z], [z, -q]],

with ``l^2 = q^2 - z^2``.  Everything is evaluated through even functions of
``l`` (functions of ``m = l^2``), so no square-root branch ever matters.

The running matrix ``M = [[A, B], [C, D]]`` starts at the identity; its
columns are the frequency-domain solutions with Neumann-type (A, C) and
Dirichlet-type (B, D) initial data.  ``det M = 1`` identically; a stably
tracked determinant (product of per-cell closed-form determinants) is carried
alongside the entries, because the direct ``A D - B C`` of the accumulated
product loses all precision once ``exp(2 |Im z| t)`` overtakes ``1/eps``.

Evaluation order.  The product is associative, so cells go in blocks of
``max(1, _TREE_BUDGET // nz)`` for ``nz`` frequencies: a block's propagators
are built at once as ``(cells, nz)`` arrays, reduced in a balanced pairwise
tree (later cells on the left) and multiplied onto the running product.
Each cell keeps its closed form; only the order of the products differs from
a cell-by-cell loop (~1e-12 relative).  ``nz > _TREE_BUDGET // 2`` gives
one-cell blocks, i.e. that loop.  z-derivatives up to order 2 ride along as
a z-jet (``jet[j] = d^j M / dz^j``) by the product rule
``(L R)^(j) = sum_i binom(j, i) L^(i) R^(j-i)``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvariantViolation,
    OverflowRangeError,
    PoleProximityError,
    RangeError,
)
from .potential import SampledPotential, cell_cover

__all__ = [
    "WORK_RANGE_LIMIT",
    "DET_DRIFT_ABORT",
    "TransferMatrix",
    "BatchTransfer",
    "AugmentedTransfer",
    "HermiteBiehlerPair",
    "cell_propagator",
    "transfer",
    "transfer_batch",
    "transfer_derivative",
    "transfer_derivative_batch",
    "transfer_checkpoints",
    "hermite_biehler",
    "theta",
    "theta_derivs",
    "corrupted_propagator",
]

#: Supported working range: propagation refuses when |Im z| * t exceeds this.
WORK_RANGE_LIMIT = 50.0

#: Tracked-determinant drift that aborts a propagation as numerically rotten.
DET_DRIFT_ABORT = 1e-8

#: Relative floor under which 1/E (and theta) is considered at a pole.
POLE_FLOOR = 1e-14

# Taylor switch for the raw coefficients (4 terms in m w^2 below this).
_SERIES_EVAL = 1e-6
# Taylor switch for the m-derivative recurrences, which cancel more strongly.
_SERIES_DERIV = 1e-3
# Max |l| * width per propagated chunk; keeps the per-cell determinant
# conditioned (error ~ eps * exp(2 * cap)) while coalesced cells stay exact.
_CHUNK_CAP = 2.5
# Cells x frequencies per block of the tree product (see the module docstring).
_TREE_BUDGET = 4096
# Elements per matrix entry (times product-rule terms) from which jet products
# run entry by entry instead of broadcast: keeps temporaries <= 64 KiB.
_ENTRYWISE_MIN = 1024

# Test hook: cmd_verify perturbs the cosh coefficient through this to prove
# the invariant monitor trips (never set outside tests / the verify command).
_TEST_CORRUPTION = 0.0


@contextmanager
def corrupted_propagator(eps: float):
    """Context manager that deliberately skews every cell propagator.

    Only for self-test machinery: a non-zero ``eps`` must trip the
    determinant monitor downstream.
    """
    global _TEST_CORRUPTION
    old = _TEST_CORRUPTION
    _TEST_CORRUPTION = float(eps)
    try:
        yield
    finally:
        _TEST_CORRUPTION = old


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransferMatrix:
    """Fundamental solution M(t, z) = [[A, B], [C, D]] at a single point."""

    t: float
    z: complex
    A: complex
    B: complex
    C: complex
    D: complex
    det_tracked: complex = 1.0 + 0.0j

    @property
    def det(self) -> complex:
        """Direct determinant A D - B C (ill-conditioned for large |Im z| t)."""
        return self.A * self.D - self.B * self.C

    @property
    def det_drift(self) -> float:
        """|tracked det - 1|: the conditioning-safe determinant residual."""
        return abs(self.det_tracked - 1.0)

    def matrix(self) -> np.ndarray:
        return np.array([[self.A, self.B], [self.C, self.D]], dtype=complex)


@dataclass(frozen=True)
class BatchTransfer:
    """Vectorized transfer matrix: entries are arrays over the z batch."""

    t: float
    z: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    det_tracked: np.ndarray

    def at(self, i: int) -> TransferMatrix:
        return TransferMatrix(
            t=self.t,
            z=complex(self.z[i]),
            A=complex(self.A[i]),
            B=complex(self.B[i]),
            C=complex(self.C[i]),
            D=complex(self.D[i]),
            det_tracked=complex(self.det_tracked[i]),
        )

    @property
    def det(self) -> np.ndarray:
        return self.A * self.D - self.B * self.C

    @property
    def det_drift(self) -> np.ndarray:
        return np.abs(self.det_tracked - 1.0)


@dataclass(frozen=True)
class AugmentedTransfer:
    """Transfer matrix together with d/dz (and optionally d^2/dz^2) entries."""

    m: TransferMatrix
    dA: complex
    dB: complex
    dC: complex
    dD: complex
    d2A: complex | None = None
    d2B: complex | None = None
    d2C: complex | None = None
    d2D: complex | None = None

    @property
    def order(self) -> int:
        return 1 if self.d2A is None else 2

    def dM(self) -> np.ndarray:
        return np.array([[self.dA, self.dB], [self.dC, self.dD]], dtype=complex)

    def trace_inv_d(self) -> complex:
        """trace(M^-1 dM); identically zero since det M == 1."""
        m = self.m
        return m.D * self.dA - m.B * self.dC - m.C * self.dB + m.A * self.dD


@dataclass(frozen=True)
class HermiteBiehlerPair:
    """First-kind entire functions built from a transfer matrix.

    ``E = A - iC`` and ``Etilde = B - iD`` are zero-free in the closed upper
    half-plane (E strictly, by the determinant identity); the sharp partners
    are ``A + iC`` and ``B + iD``.
    """

    E: complex
    Etilde: complex
    Esharp: complex
    Etildesharp: complex

    def det2i(self) -> complex:
        """E*Etildesharp - Etilde*Esharp; equals 2i * det M."""
        return self.E * self.Etildesharp - self.Etilde * self.Esharp


# ---------------------------------------------------------------------------
# cell coefficients
# ---------------------------------------------------------------------------


def _coeffs(m: np.ndarray, w, order: int):
    """Even-in-l coefficient functions of a block of cells.

    Returns ``c = cosh(l w)`` and ``s = sinh(l w)/l`` as functions of
    ``m = l^2``, plus ``ds/dm`` (order >= 1) and ``d2s/dm2`` (order >= 2).
    ``w`` is a width or an array of widths broadcasting against ``m`` (one
    per row of cells).  ``dc/dm = w s / 2`` and ``d2c/dm2 = w (ds/dm) / 2``
    are exact identities applied by the caller.  The closed forms are
    overwritten by series near ``m w^2 = 0``, where they cancel.
    """
    x = m * (w * w)
    with np.errstate(divide="ignore", invalid="ignore"):  # m = 0 takes the series
        lam = np.sqrt(m)
        lw = lam * w
        c = np.cosh(lw)
        s = np.sinh(lw) / lam
        sm = (w * c - s) / (2.0 * m) if order >= 1 else None
        smm = (w * (0.5 * w * s) - 3.0 * sm) / (2.0 * m) if order >= 2 else None
    small = np.abs(x) < _SERIES_EVAL
    if small.any():
        xs, ws = x[small], np.broadcast_to(w, m.shape)[small]
        c[small] = 1.0 + xs * (0.5 + xs * (1.0 / 24.0 + xs * (1.0 / 720.0)))
        s[small] = ws * (1.0 + xs * (1.0 / 6.0 + xs * (1.0 / 120.0 + xs * (1.0 / 5040.0))))
    if order == 0:
        return c, s, None, None
    small = np.abs(x) < _SERIES_DERIV
    if small.any():
        xs, ws = x[small], np.broadcast_to(w, m.shape)[small]
        sm[small] = (ws**3 / 2.0) * (
            1.0 / 3.0 + xs * (1.0 / 30.0 + xs * (1.0 / 840.0 + xs * (1.0 / 45360.0)))
        )
        if order >= 2:
            smm[small] = (ws**5 / 2.0) * (
                1.0 / 30.0 + xs * (1.0 / 420.0 + xs * (1.0 / 15120.0 + xs * (1.0 / 997920.0)))
            )
    return c, s, sm, smm


def cell_propagator(q: float, width: float, z: complex) -> np.ndarray:
    """Exact propagator of a single constant cell, as a 2x2 complex array.

    ``P = cosh(l w) I + sinh(l w)/l * [[q, -z], [z, -q]]`` with
    ``l^2 = q^2 - z^2``; even in ``l``, exact for any width.
    """
    if width < 0:
        raise RangeError(f"cell width must be >= 0, got {width}")
    m = np.asarray([q * q - z * z], dtype=complex)
    c, s, _, _ = _coeffs(m, float(width), 0)
    c0 = complex(c[0]) + _TEST_CORRUPTION
    s0 = complex(s[0])
    return np.array(
        [[c0 + s0 * q, -s0 * z], [s0 * z, c0 - s0 * q]],
        dtype=complex,
    )


# ---------------------------------------------------------------------------
# batch propagation
# ---------------------------------------------------------------------------


def _entry(j: int, r: int, c: int):
    return property(lambda self: self.jet[j, r, c] if j <= self.order else None)


class PropagationState:
    """Running product of one batch propagation (internal).

    ``jet[j]`` is ``d^j M / dz^j`` with shape ``(2, 2, nz)``; the entries
    are exposed as ``A``..``D``, ``dA``..``dD`` and ``d2A``..``d2D`` (None
    above ``order``).  ``det`` is the tracked determinant.
    """

    __slots__ = ("z", "order", "jet", "det")

    def __init__(self, z: np.ndarray, order: int = 0):
        self.z = np.asarray(z, dtype=complex)
        self.order = order
        self.jet = np.zeros((order + 1, 2, 2) + self.z.shape, dtype=complex)
        self.jet[0, 0, 0] = self.jet[0, 1, 1] = 1.0
        self.det = np.ones(self.z.shape, dtype=complex)

    A, B, C, D, dA, dB, dC, dD, d2A, d2B, d2C, d2D = (
        _entry(j, r, c) for j in range(3) for r in range(2) for c in range(2)
    )


def _prepared_cells(pot: SampledPotential, t1: float, t2: float, z: np.ndarray):
    """Cell cover of [t1, t2], coalesced then re-chunked for conditioning.

    Coalescing equal-value neighbours is exact (one generator); chunks are
    capped so |l| * width stays small enough that each per-cell determinant
    is computed at full precision.
    """
    qs, ws = cell_cover(pot, t1, t2, coalesce=True)
    if len(qs) == 0:
        return qs, ws
    im_max = float(np.max(np.abs(np.imag(np.asarray(z, dtype=complex)))))
    scale = np.abs(qs) + im_max
    n = np.maximum(1, np.ceil(ws * scale / _CHUNK_CAP).astype(int))
    if np.any(n > 1):
        qs = np.repeat(qs, n)
        ws = np.repeat(ws / n, n)
    return qs, ws


def _cell_jets(q, w, z: np.ndarray, zz: np.ndarray, order: int, out: np.ndarray) -> np.ndarray:
    """Write the propagator jets of a block of cells into ``out``.

    ``q`` and ``w`` are scalars (one cell) or columns (one cell per row),
    ``zz = z * z``; ``out`` has shape ``(order + 1, 2, 2) + m.shape`` with
    ``m = q^2 - z^2``.  ``P = c I + s G`` with ``G' = [[0, -1], [1, 0]]`` and
    ``G'' = 0``, so ``P^(j) = c^(j) I + s^(j) G + j s^(j-1) G'``.  Returns the
    closed-form determinants ``c^2 - m s^2``.
    """
    m = (q * q) - zz
    c, s, sm, smm = _coeffs(m, w, order)
    if _TEST_CORRUPTION != 0.0:
        c = c + _TEST_CORRUPTION
    cs, ss = [c], [s]
    if order >= 1:
        cm = 0.5 * w * s
        cs.append(-2.0 * z * cm)
        ss.append(-2.0 * z * sm)
    if order >= 2:
        cmm = 0.5 * w * sm
        cs.append(-2.0 * cm + 4.0 * zz * cmm)
        ss.append(-2.0 * sm + 4.0 * zz * smm)
    for j in range(order + 1):
        off = np.multiply(ss[j], z, out=out[j, 1, 0])
        if j:
            off += j * ss[j - 1]
        np.negative(off, out=out[j, 0, 1])
        sq = ss[j] * q
        np.add(cs[j], sq, out=out[j, 0, 0])
        np.subtract(cs[j], sq, out=out[j, 1, 1])
    return c * c - m * (s * s)


def _product_rule(n: int):
    """Derivative orders ``(i, j - i)`` of the product-rule terms for jets of
    length ``n``, each repeated ``binom(j, i)`` times, and where order j starts."""
    pairs = [(i, j - i) for j in range(n) for i in range(j + 1)
             for _ in range(math.comb(j, i))]
    left, right = (np.array(side) for side in zip(*pairs))
    return left, right, np.cumsum([0] + [2**j for j in range(n - 1)])


_RULES = {n: _product_rule(n) for n in (1, 2, 3)}


def _jet_mul(X: np.ndarray, Y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Jet of the matrix product: ``(X Y)^(j) = sum_i binom(j, i) X^(i) Y^(j-i)``.

    The 2x2 products run over axes 1 and 2, elementwise over the rest.
    """
    left, right, starts = _RULES[len(X)]
    if len(left) * X[0, 0, 0].size < _ENTRYWISE_MIN:  # small: all terms in one product
        L, R = X[left], Y[right]
        terms = L[:, :, :1] * R[:, :1] + L[:, :, 1:] * R[:, 1:]
        return np.add.reduceat(terms, starts, axis=0, out=out)
    for j in range(len(X)):  # large: contiguous per-entry temporaries only
        for r in range(2):
            for c in range(2):
                o = np.multiply(X[0, r, 0], Y[j, 0, c], out=out[j, r, c])
                o += X[0, r, 1] * Y[j, 1, c]
                for i in range(1, j + 1):
                    k = j - i
                    o += math.comb(j, i) * (X[i, r, 0] * Y[k, 0, c] + X[i, r, 1] * Y[k, 1, c])
    return out


def _tree(jet: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """Ordered product ``P_K ... P_1`` over the cell axis by pairwise reduction.

    Levels alternate between ``jet`` and ``spare`` (same shape), both of
    which are overwritten; returns a view of the product.
    """
    n = jet.shape[-2]
    while n > 1:
        h = n // 2
        _jet_mul(jet[..., 1:2 * h:2, :], jet[..., 0:2 * h:2, :], spare[..., :h, :])
        if n % 2:
            spare[..., h, :] = jet[..., n - 1, :]
        jet, spare, n = spare, jet, h + n % 2
    return jet[..., 0, :]


def _advance(state: PropagationState, qs, ws) -> PropagationState:
    """Multiply the ordered cell propagators onto ``state`` (in place).

    Blocks reuse their buffers (fresh wide arrays would page-fault on every
    use); ``state.jet`` alternates between two, never the array it held on entry.
    """
    z, zz, order = state.z, state.z * state.z, state.order
    block = max(1, _TREE_BUDGET // max(1, z.size))
    cells = np.empty((order + 1, 2, 2, min(block, len(qs))) + z.shape, dtype=complex)
    scratch = np.empty_like(cells)
    running = (np.empty_like(state.jet), np.empty_like(state.jet))
    for n, i in enumerate(range(0, len(qs), block)):
        if block == 1:  # wide batch: one cell at scalar width, no tree
            prod = cells[..., 0, :]
            det = _cell_jets(qs[i], float(ws[i]), z, zz, order, prod)
        else:
            k = min(block, len(qs) - i)
            jet = cells[..., :k, :]
            det = _cell_jets(qs[i:i + k, None], ws[i:i + k, None], z, zz, order, jet)
            prod, det = _tree(jet, scratch[..., :k, :]), np.prod(det, axis=0)
        state.jet = _jet_mul(prod, state.jet, running[n % 2])
        state.det = state.det * det
    return state


def _check_range(z: np.ndarray, t: float) -> None:
    im_max = float(np.max(np.abs(np.imag(np.asarray(z, dtype=complex))))) if np.size(z) else 0.0
    if im_max * t > WORK_RANGE_LIMIT:
        raise OverflowRangeError(
            f"|Im z| * t = {im_max * t:.3g} exceeds the supported working range "
            f"{WORK_RANGE_LIMIT}; split the evaluation or shrink the box"
        )


def _check_drift(state: PropagationState) -> None:
    drift = float(np.max(np.abs(state.det - 1.0))) if np.size(state.det) else 0.0
    if drift > DET_DRIFT_ABORT:
        raise InvariantViolation(
            f"tracked determinant drifted by {drift:.3g} (> {DET_DRIFT_ABORT}); "
            "the cell propagators are numerically corrupt"
        )


def _resolve_t(pot: SampledPotential, t: float | None) -> float:
    if t is None:
        return pot.T
    if t < 0:
        raise RangeError(f"propagation time must be >= 0, got {t}")
    return float(t)


def _propagate(pot, z, t, order, t1=0.0):
    """Propagate ``z`` (made a 1-d batch) over ``[t1, t]``; returns (state, t)."""
    t = _resolve_t(pot, t)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    _check_range(z, t - t1)
    qs, ws = _prepared_cells(pot, t1, t, z)
    state = _advance(PropagationState(z, order=order), qs, ws)
    _check_drift(state)
    return state, t


def _batch(state: PropagationState, t: float) -> BatchTransfer:
    return BatchTransfer(t=t, z=state.z, A=state.A, B=state.B, C=state.C, D=state.D,
                         det_tracked=state.det)


def transfer(pot: SampledPotential, z: complex, t: float | None = None) -> TransferMatrix:
    """Transfer matrix M(t, z) for one frequency.

    Args:
        pot: piecewise-constant potential.
        z: complex frequency; ``|Im z| * t`` must stay within the working range.
        t: evaluation time (defaults to ``pot.T``); may exceed the support,
            in which case the potential is extended by zero.
    """
    return _batch(*_propagate(pot, z, t, order=0)).at(0)


def transfer_batch(pot: SampledPotential, z, t: float | None = None) -> BatchTransfer:
    """Vectorized :func:`transfer` over an array of frequencies."""
    return _batch(*_propagate(pot, z, t, order=0))


def transfer_derivative(
    pot: SampledPotential, z: complex, t: float | None = None, order: int = 1
) -> AugmentedTransfer:
    """Transfer matrix with its z-derivatives (order 1 or 2).

    Derivatives are exact (product rule over exact cell derivatives), not
    finite differences.  ``dM`` vanishes at ``t = 0`` and satisfies
    ``trace(M^-1 dM) = 0`` up to rounding.
    """
    if order not in (1, 2):
        raise RangeError(f"derivative order must be 1 or 2, got {order}")
    state, t = _propagate(pot, z, t, order=order)
    names = ("dA", "dB", "dC", "dD", "d2A", "d2B", "d2C", "d2D")
    derivs = map(complex, state.jet[1:, :, :, 0].ravel())
    return AugmentedTransfer(m=_batch(state, t).at(0), **dict(zip(names, derivs)))


def transfer_derivative_batch(
    pot: SampledPotential, z, t: float | None = None, order: int = 1
) -> PropagationState:
    """Batch propagation carrying derivative entries; returns the raw state."""
    if order not in (1, 2):
        raise RangeError(f"derivative order must be 1 or 2, got {order}")
    state, _ = _propagate(pot, z, t, order=order)
    return state


def transfer_checkpoints(pot: SampledPotential, z, t_list) -> list[BatchTransfer]:
    """Transfer matrices at several increasing times, in one sweep.

    Equivalent to calling :func:`transfer_batch` at each ``t`` but the
    propagation is shared; returned in the order of ``sorted(t_list)``.
    """
    ts = sorted(float(t) for t in t_list)
    if ts and ts[0] < 0:
        raise RangeError("checkpoint times must be >= 0")
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if ts:
        _check_range(z, ts[-1])
    state, out, prev = PropagationState(z, order=0), [], 0.0
    for t in ts:
        qs, ws = _prepared_cells(pot, prev, t, z)
        out.append(_batch(_advance(state, qs, ws), t))
        prev = t
    _check_drift(state)
    return out


# ---------------------------------------------------------------------------
# Hermite-Biehler functions and theta
# ---------------------------------------------------------------------------


def hermite_biehler(m: TransferMatrix | BatchTransfer) -> HermiteBiehlerPair:
    """First-kind entire functions of a transfer matrix (E = A - iC, ...)."""
    return HermiteBiehlerPair(
        E=m.A - 1j * m.C,
        Etilde=m.B - 1j * m.D,
        Esharp=m.A + 1j * m.C,
        Etildesharp=m.B + 1j * m.D,
    )


def _theta_from_entries(A, C):
    E = A - 1j * C
    Esharp = A + 1j * C
    floor = POLE_FLOOR * (np.abs(A) + np.abs(C) + 1.0)
    bad = np.abs(E) <= floor
    if np.any(bad):
        raise PoleProximityError(
            "theta evaluated too close to a pole (|A - iC| under its floor); "
            "the point sits at a conjugate zero of the first-kind function"
        )
    return Esharp / E


def theta(m: TransferMatrix | BatchTransfer):
    """Inner-function value theta = (A + iC)/(A - iC).

    Unimodular on the real axis, strictly contractive in the open upper
    half-plane.  Raises :class:`PoleProximityError` at (numerical) poles.
    """
    val = _theta_from_entries(np.asarray(m.A, dtype=complex), np.asarray(m.C, dtype=complex))
    if isinstance(m, TransferMatrix):
        return complex(val)
    return val


def theta_derivs(aug: AugmentedTransfer):
    """theta with its z-derivatives from an augmented transfer matrix.

    Returns ``(theta, theta_z)`` for order 1 and ``(theta, theta_z,
    theta_zz)`` for order 2.  Uses the exact reduction
    ``theta_z = 2i (A C' - A' C) / E^2``.
    """
    m = aug.m
    E = m.A - 1j * m.C
    floor = POLE_FLOOR * (abs(m.A) + abs(m.C) + 1.0)
    if abs(E) <= floor:
        raise PoleProximityError("theta derivative requested at a pole of theta")
    th = (m.A + 1j * m.C) / E
    wronsk = m.A * aug.dC - aug.dA * m.C
    th_z = 2j * wronsk / (E * E)
    if aug.order < 2:
        return th, th_z
    dE = aug.dA - 1j * aug.dC
    d2N = aug.d2A + 1j * aug.d2C
    d2E = aug.d2A - 1j * aug.d2C
    th_zz = (d2N - 2.0 * th_z * dE - th * d2E) / E
    return th, th_z, th_zz
