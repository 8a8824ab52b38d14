"""Transfer matrices of the half-line Dirac system.

:func:`transfer` is the one propagation of the package.  It returns a
:class:`Transfer`: the fundamental solution ``M(t, z) = [[A, B], [C, D]]``
with its z-derivatives up to order 2, for one frequency or a batch, at one
time or at each of a sorted list of times (one sweep).  Every consumer reads
M through the named entries of that result and the Hermite-Biehler functions
built from them; how M is stored, chunked and multiplied stays in this module.

For a piecewise-constant potential the fundamental solution is an ordered
product of exact cell propagators

    P(q, w, z) = cosh(l w) I + sinh(l w)/l * G,   G = [[q, -z], [z, -q]],

with ``l^2 = q^2 - z^2``.  Everything is evaluated through even functions of
``l`` (functions of ``m = l^2``), so no square-root branch ever matters.  A
cell entry with ``|m w^2| < 5e-2`` (every entry of a fine cover at moderate
``|z|``) takes Taylor series in ``m w^2``, any other the closed forms.

The running matrix starts at the identity; its columns are the
frequency-domain solutions with Neumann-type (A, C) and Dirichlet-type
(B, D) initial data.  ``det M = 1`` identically; a stably tracked
determinant (product of per-cell closed-form determinants) is carried
alongside the entries, because the direct ``A D - B C`` of the accumulated
product loses all precision once ``exp(2 |Im z| t)`` overtakes ``1/eps``.

Evaluation order.  The product is associative, so cells go in blocks of
at most ``max(1, _TREE_BUDGET // nz)`` for ``nz`` frequencies: a block's
propagators are built at once as ``(cells, nz)`` arrays, reduced in a
balanced pairwise tree (later cells on the left) and multiplied onto the
running product (the first block's tree starts it: no product with I).
Where a tree's partial products grow they can cancel against their
neighbours, losing precision a loop keeps (wide cells: 2e-11 of the largest
entry against 3e-14).  ``|q| w`` bounds a cell's growth beyond that which
``Im z`` gives all cells alike, so a cell with ``|q| w > _TREE_CELL`` (a
coalesced or chunked stretch) takes a block of its own.  Each cell keeps its
closed form; only the order of the products differs from a cell-by-cell loop
(~1e-12).  ``nz > _TREE_BUDGET // 2`` gives one-cell blocks, i.e. that loop.
z-derivatives up to order 2 ride along as a z-jet (``jet[j] = d^j M / dz^j``)
by the product rule ``(L R)^(j) = sum_i binom(j, i) L^(i) R^(j-i)``.

Number field.  The potential is real, so for a batch of real frequencies
every cell jet, every product and the tracked determinant are real: such a
batch runs the same code on float64 arrays, taking ``cosh``/``sinh`` of
``sqrt(m) w`` where ``m > 0`` and ``cos``/``sin`` of ``u = sqrt(-m) w`` where
``m < 0``, and is cast back to complex at the end.  Those come from ``t =
tan(u / 2)`` as ``(1 - t^2) / (1 + t^2)`` and ``2 t / (1 + t^2)``, within 2 eps
absolute (libm: 0.25 eps), as numpy vectorizes ``tan`` but may take ``cos``
and ``sin`` from scalar libm (3-5x slower).  It differs from the complex
arithmetic by rounding only (<= 2e-14 relative).  Other batches run in complex
arithmetic, ``cosh``/``sinh`` of ``a + ib`` taken from real ufuncs of ``a`` and
``b`` (~4x faster than complex ones, within 6e-16), ``cos``/``sin`` of ``b``
still libm's: few entries per narrow call, and the resonance zeros rest on them.

Symmetries.  The potential is real, so ``M(conj z) = conj M(z)`` and
``M(-z) = S M(z) S``, ``S = diag(1, -1)`` (jet entry ``[j, r, c]`` times
``(-1)^(j + [r != c])``; the tracked det is even in z).  A batch with points
below the real axis, or a real batch of two or more points with a negative
one, propagates its distinct keys ``|Re z| + i |Im z|`` (``|z|`` if real; same
cells) once and maps them back, exactly; other complex batches fold nothing.

Sweeps.  For a list of times one running product goes from each time to
the next (each stretch is covered and chunked on its own), and the drift
check runs once, on the determinant at the last time.

Cell covers.  A potential holds its cell values, cell ends and runs of
equal neighbours as read-only arrays, built once with it (outside its value:
not compared, hashed or printed).  Each propagation takes the coalesced
cover of its interval as a slice of them, then chunks it for the batch's
largest ``|Im z|``; the cover's sum of ``|q| * width`` bounds the growth of M.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvariantViolation,
    OverflowRangeError,
    PoleProximityError,
    RangeError,
    ValidationError,
)
from .potential import SampledPotential, cell_cover

__all__ = [
    "WORK_RANGE_LIMIT",
    "DET_DRIFT_ABORT",
    "Transfer",
    "transfer",
    "transfer_batch",
    "transfer_derivative",
    "hermite_biehler",
    "theta",
    "theta_derivs",
    "corrupted_propagator",
    "symmetric_grid",
]

#: Supported working range: propagation refuses when |Im z| * t exceeds this.
WORK_RANGE_LIMIT = 50.0

#: Tracked-determinant drift that aborts a propagation as numerically rotten.
DET_DRIFT_ABORT = 1e-8

# Largest sum of |q| * width propagated: entries of M reach e^(sum + |Im z| t), and
# products of two (|a|^2, A D) stay finite: half the float64 exponent range, less 50.
_GROWTH_LIMIT = math.log(np.finfo(float).max) / 2.0 - WORK_RANGE_LIMIT

#: Relative floor under which 1/E (and theta) is considered at a pole.
POLE_FLOOR = 1e-14

# Taylor switch of the cell coefficients: |m w^2| below it takes the series, where
# the closed forms cancel (closed d2s/dm2 off by 2e-8 at 1e-3, 1e-11 at 5e-2).
_SERIES = 5e-2
# Taylor coefficients in x = m w^2 of s/w, (ds/dm)/w^3, (d2s/dm2)/w^5: (k+1)...(k+j) /
# (2k+2j+1)! for k = 5..0 (first left out < 3e-18), as 0-d arrays of the block's
# dtype: Python floats made the short blocks of a resonance pass ~20 % slower.
_TAYLOR = {f: [[np.array(math.perm(k + j, j) / math.factorial(2 * (k + j) + 1), f)
                for k in range(5, -1, -1)] for j in range(3)] for f in "dD"}
# Max |l| * width per propagated chunk; keeps the per-cell determinant
# conditioned (error ~ eps * exp(2 * cap)) while coalesced cells stay exact.
_CHUNK_CAP = 2.5
# Cells x frequencies per tree block (module docstring); picked by benchmark runs at 4096-32768.
_TREE_BUDGET = 16384
# Max |q| * width of a cell inside a multi-cell tree block (module docstring).
_TREE_CELL = 0.25
# Largest |Re z| or |Im z| propagated: z^2 and the order-2 jet's 4 z^2 stay
# far from overflow (a real double reaches 1.8e308).
_Z_LIMIT = 1e150
# Longest span propagated, and the bound on |z| * span: (z w)^2 and the order-2
# series' w^5 stay finite (no physical horizon comes near either).
_SPAN_LIMIT = 1e50
# Elements per matrix entry (times product-rule terms) from which jet products
# run entry by entry instead of broadcast: keeps temporaries <= 64 KiB.
_ENTRYWISE_MIN = 1024

# Test hook: cmd_verify perturbs the cosh coefficient through this to prove
# the invariant monitor trips (never set outside tests / the verify command).
# A context variable, so it never leaks into other threads or contexts.
_CORRUPTION: ContextVar[float] = ContextVar("_CORRUPTION", default=0.0)


@contextmanager
def corrupted_propagator(eps: float):
    """Context manager that deliberately skews every cell propagator.

    Only for self-test machinery: a non-zero ``eps`` must trip the
    determinant monitor downstream.  Confined to the current context.
    """
    token = _CORRUPTION.set(float(eps))
    try:
        yield
    finally:
        _CORRUPTION.reset(token)


# ---------------------------------------------------------------------------
# result type
# ---------------------------------------------------------------------------


def _entry(j: int, r: int, c: int):
    def get(self):
        if j > self.order:
            return None
        v = self.jet[j, r, c]
        return v if v.ndim else complex(v)
    return property(get)


@dataclass(frozen=True)
class Transfer:
    """Fundamental solution M(t, z) = [[A, B], [C, D]] with its z-derivatives.

    ``jet[j]`` is ``d^j M / dz^j`` for ``j <= order``, of shape
    ``(order + 1, 2, 2)`` for a scalar ``z`` and ``(order + 1, 2, 2, nz)``
    for a batch.  The entries are named ``A``..``D``, ``dA``..``dD`` and
    ``d2A``..``d2D`` (None above ``order``): Python complex for a scalar
    ``z``, complex128 arrays for a batch.  ``det_tracked`` is the product of
    the cells' closed-form determinants, accurate where ``A D - B C`` is not.
    ``E``, ``Etilde``, ``Esharp`` and ``Etildesharp`` are computed on read.
    """

    t: float
    z: complex | np.ndarray
    jet: np.ndarray
    det_tracked: complex | np.ndarray

    A, B, C, D, dA, dB, dC, dD, d2A, d2B, d2C, d2D = (
        _entry(j, r, c) for j in range(3) for r in range(2) for c in range(2)
    )

    @property
    def order(self) -> int:
        return len(self.jet) - 1

    @property
    def det(self):
        """Direct determinant A D - B C (ill-conditioned for large |Im z| t)."""
        return self.A * self.D - self.B * self.C

    @property
    def det_drift(self):
        """|tracked det - 1|: the conditioning-safe determinant residual."""
        return abs(self.det_tracked - 1.0)

    # Hermite-Biehler functions: E = A - iC and Etilde = B - iD are zero-free in
    # the closed upper half-plane (E strictly, by the determinant identity);
    # the sharp partners are A + iC and B + iD, and theta = Esharp / E.
    E = property(lambda self: self.A - 1j * self.C)
    Etilde = property(lambda self: self.B - 1j * self.D)
    Esharp = property(lambda self: self.A + 1j * self.C)
    Etildesharp = property(lambda self: self.B + 1j * self.D)

    def det2i(self):
        """E Etildesharp - Etilde Esharp; equals 2i det M."""
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
    are exact identities applied by the caller.  An entry takes the series
    if its own ``x = m w^2`` has ``|x| < _SERIES``, else the closed forms;
    a mixed block runs each on its gathered entries.  A real ``m`` stays real.
    """
    x = m * (w * w)
    small = np.abs(x) < _SERIES
    n = np.count_nonzero(small)
    if n in (0, small.size):
        return _series(x, w, order) if n else _closed(m, w, order)
    # one width per entry (gathers faster than a broadcast view)
    w, out = np.full(m.shape, w), [np.empty_like(m) for _ in range(order + 2)]
    for sel, form, a in ((small, _series, x), (~small, _closed, m)):
        for o, v in zip(out, form(a[sel], w[sel], order)):
            o[sel] = v
    return out + [None] * (2 - order)


def _series(x, w, order: int):
    """``_coeffs`` from Taylor series in ``x = m w^2``: ``s = w S1``, ``ds/dm =
    w^3 S2``, ``d2s/dm2 = w^5 S3`` and ``c = S1 + 2 x S2`` (the same bits at every
    order).  No product runs in place: numpy rounds an in-place complex product
    of one entry differently (no FMA), so values would depend on the batch."""
    ss = []
    for coefs in _TAYLOR[x.dtype.char][:max(2, order + 1)]:  # Horner's rule
        acc = coefs[0] * x + coefs[1]
        for a in coefs[2:]:
            acc = acc * x
            acc += a
        ss.append(acc)
    c, w3 = (x + x) * ss[1] + ss[0], w * w * w
    return c, w * ss[0], w3 * ss[1] if order else None, (w3 * w * w) * ss[2] if order >= 2 else None


def _closed(m, w, order: int):
    """``_coeffs`` from ``cosh``/``sinh`` of ``l w`` (``cos``/``sin`` of ``u =
    sqrt(-m) w`` from ``tan(u / 2)`` where a real ``m < 0``); needs ``m != 0``."""
    if m.dtype.kind == "c":  # cosh and sinh of a + ib from real ufuncs of a and b
        lam = np.sqrt(m)
        lw = lam * w
        ch, sh, co, si = np.cosh(lw.real), np.sinh(lw.real), np.cos(lw.imag), np.sin(lw.imag)
        c, s = np.empty_like(lw), np.empty_like(lw)
        for out, (re, im) in ((c, (ch, sh)), (s, (sh, ch))):
            np.multiply(re, co, out=out.real)
            np.multiply(im, si, out=out.imag)
    else:
        lam = np.sqrt(np.abs(m))
        lw, pos = lam * w, m > 0
        c, s, n = np.empty_like(lw), np.empty_like(lw), np.count_nonzero(pos)
        if n:  # masks only in a block of both signs
            np.cosh(lw, out=c, where=pos if n < pos.size else True)
            np.sinh(lw, out=s, where=pos if n < pos.size else True)
        if n < pos.size:  # c = (1 - t^2) / (1 + t^2), s l = 2 t / (1 + t^2), t = tan(lw / 2)
            neg = ~pos if n else True  # in place: numpy vectorizes tan, not cos/sin
            t = np.tan(np.multiply(lw, 0.5, out=lw, where=neg), out=lw, where=neg)
            np.add(np.multiply(t, t, out=c, where=neg), 1.0, out=s, where=neg)
            np.divide(np.subtract(1.0, c, out=c, where=neg), s, out=c, where=neg)
            np.divide(np.add(t, t, out=t, where=neg), s, out=s, where=neg)
    s /= lam
    sm = (w * c - s) / (m + m) if order else None
    smm = (w * (0.5 * w * s) - 3.0 * sm) / (m + m) if order >= 2 else None
    return c, s, sm, smm


# ---------------------------------------------------------------------------
# batch propagation
# ---------------------------------------------------------------------------


def _prepared_cells(pot: SampledPotential, t1: float, t2: float, im_max: float,
                    grown: float = 0.0):
    """Cell cover of [t1, t2], coalesced then re-chunked for conditioning at
    frequencies up to ``|Im z| = im_max``, and ``grown`` plus its sum of
    ``|q| * width`` (refused past ``_GROWTH_LIMIT``).

    Coalescing equal-value neighbours is exact (one generator); chunks are
    capped so |l| * width stays small enough that each per-cell determinant
    is computed at full precision.
    """
    qs, ws = cell_cover(pot, t1, t2, coalesce=True)
    aq = np.abs(qs)
    with np.errstate(over="ignore"):  # matmul warns where it overflows to inf
        grown += float(aq @ ws)  # refused below
    if not grown <= _GROWTH_LIMIT:
        raise OverflowRangeError(
            f"sum of |q| * width up to t = {t2} is {grown:.3g}, past {_GROWTH_LIMIT:.0f}: "
            "entries of the transfer matrix would overflow float64"
        )
    load = ws * (aq + im_max)
    if load.max(initial=0.0) > _CHUNK_CAP:  # some cell takes chunks
        n = np.maximum(1, np.ceil(load / _CHUNK_CAP).astype(int))
        qs, ws = np.repeat(qs, n), np.repeat(ws / n, n)
    return qs, ws, grown


def _cell_jets(q, w, z: np.ndarray, zz: np.ndarray, order: int, out: np.ndarray,
               eps: float) -> np.ndarray:
    """Write the propagator jets of a block of cells into ``out``.

    ``q`` and ``w`` are scalars (one cell) or columns (one cell per row),
    ``zz = z * z``; ``out`` has shape ``(order + 1, 2, 2) + m.shape`` with
    ``m = q^2 - z^2``.  ``P = c I + s G`` with ``G' = [[0, -1], [1, 0]]`` and
    ``G'' = 0``, so ``P^(j) = c^(j) I + s^(j) G + j s^(j-1) G'``.  Returns the
    closed-form determinants ``c^2 - m s^2``.  ``eps`` is the corruption
    hook's skew of ``c``.  With columns, ``z`` and ``zz`` are rows: numpy
    rounds a complex 1-d one-entry array times a 1 x 1 block differently, so
    a one-cell block at one frequency would differ from it in a wider batch.
    """
    m = (q * q) - zz
    c, s, sm, smm = _coeffs(m, w, order)
    if eps != 0.0:
        c = c + eps
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
            off += ss[j - 1] if j == 1 else j * ss[j - 1]
        np.negative(off, out=out[j, 0, 1])
        sq = ss[j] * q
        np.add(cs[j], sq, out=out[j, 0, 0])
        np.subtract(cs[j], sq, out=out[j, 1, 1])
    return c * c - (s * s) * m  # not m * (s * s): numpy swaps that past 256 KiB


def _jet_mul(X: np.ndarray, Y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Jet of the matrix product: ``(X Y)^(j) = sum_i binom(j, i) X^(i) Y^(j-i)``.

    The 2x2 products run over axes 1 and 2, elementwise over the rest.  Both
    forms add the same products in the same order, so they give the same bits.
    """
    n = len(X)
    if (2**n - 1) * X[0, 0, 0].size < _ENTRYWISE_MIN:  # small: every X^(i) Y^(k) in one product
        T = X[:, None, :, :1] * Y[None, :, :1]
        T += X[:, None, :, 1:] * Y[None, :, 1:]
        out[0] = T[0, 0]
        if n > 1:
            np.add(T[0, 1], T[1, 0], out=out[1])
        if n > 2:
            np.add(T[0, 2] + 2 * T[1, 1], T[2, 0], out=out[2])
        return out
    for j in range(n):  # large: contiguous per-entry temporaries only
        for r in range(2):
            for c in range(2):
                o = np.multiply(X[0, r, 0], Y[j, 0, c], out=out[j, r, c])
                o += X[0, r, 1] * Y[j, 1, c]
                for i in range(1, j + 1):
                    k = j - i
                    term = X[i, r, 0] * Y[k, 0, c] + X[i, r, 1] * Y[k, 1, c]
                    o += term if i == j else math.comb(j, i) * term
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


def _blocks(wide: np.ndarray, cap: int) -> list[tuple[int, int]]:
    """``(start, length)`` of the tree blocks: at most ``cap`` cells each, and
    every cell flagged in ``wide`` in a block of its own."""
    ends = [0, len(wide)]
    if cap > 1 and wide.any():
        ends = [0, *(np.flatnonzero(wide[1:] | wide[:-1]) + 1).tolist(), len(wide)]
    return [(i, min(cap, e - i)) for s, e in zip(ends, ends[1:]) for i in range(s, e, cap)]


def _advance(z: np.ndarray, order: int, jet, det, qs, ws):
    """Multiply the ordered cell propagators onto the jet and the tracked det.

    Returns the new ``(jet, det)``.  ``jet`` and ``det`` None stand for the
    identity: the first block's product becomes the running jet (an empty
    cover returns I).  Blocks reuse their buffers (fresh wide arrays would
    page-fault on every use); the running jet alternates between two, never
    the array held on entry.  A real batch runs in float64 (see the module
    docstring).
    """
    if not z.imag.any():  # real batch: propagate in float64
        z = z.real.copy()
        jet, det = (None, None) if jet is None else (jet.real, det.real)
    zz, eps, shape = z * z, _CORRUPTION.get(), (order + 1, 2, 2) + z.shape
    rows = z[None], zz[None]  # see _cell_jets
    block = max(1, _TREE_BUDGET // max(1, z.size))
    cells = np.empty(shape[:3] + (min(block, len(qs)),) + z.shape, dtype=z.dtype)
    scratch = np.empty_like(cells)
    running = (np.empty(shape, z.dtype), np.empty(shape, z.dtype))
    for n, (i, k) in enumerate(_blocks(np.abs(qs) * ws > _TREE_CELL, block)):
        prod = cells[..., :k, :]
        cell_det = _cell_jets(qs[i:i + k, None], ws[i:i + k, None], *rows, order, prod, eps)
        prod, cell_det = _tree(prod, scratch[..., :k, :]), np.prod(cell_det, axis=0)
        if jet is None:  # from the identity: P I = P, so no product
            jet, det = running[n % 2], cell_det
            jet[...] = prod
        else:
            jet, det = _jet_mul(prod, jet, running[n % 2]), det * cell_det
    if jet is None:  # empty cover
        jet, det = np.zeros(shape, z.dtype), np.ones(z.shape, z.dtype)
        jet[0, 0, 0] = jet[0, 1, 1] = 1.0
    return jet.astype(complex, copy=False), det.astype(complex, copy=False)


def _check_range(z: np.ndarray, t: float) -> float:
    # returns the largest |Im z|; np.maximum and max keep a NaN, and NaN fails
    # every comparison
    im = np.abs(z.imag)
    part = np.maximum(np.abs(z.real), im)
    z_max = float(part.max(initial=0.0))
    if not z_max <= _Z_LIMIT:
        raise RangeError(f"frequency z = {z[~(part <= _Z_LIMIT)][0]} is not finite or "
                         f"exceeds |Re z|, |Im z| <= {_Z_LIMIT:g}")
    im_max = float(im.max(initial=0.0))
    if not im_max * t <= WORK_RANGE_LIMIT:
        raise OverflowRangeError(
            f"|Im z| * t = {im_max * t:.3g} exceeds the supported working range "
            f"{WORK_RANGE_LIMIT}; split the evaluation or shrink the box"
        )
    if not (t <= _SPAN_LIMIT and z_max * t <= _Z_LIMIT):
        raise RangeError(f"a span of {t:.3g} at |z| up to {z_max:.3g} exceeds "
                         f"span <= {_SPAN_LIMIT:g}, |z| * span <= {_Z_LIMIT:g}")
    return im_max


def _check_drift(det: np.ndarray) -> None:
    drift = float(np.abs(det - 1.0).max(initial=0.0))
    if not drift <= DET_DRIFT_ABORT:
        raise InvariantViolation(
            f"tracked determinant drifted by {drift:.3g} (> {DET_DRIFT_ABORT}); "
            "the cell propagators are numerically corrupt"
        )


def transfer(pot: SampledPotential, z, t=None, order: int = 0, t1: float = 0.0):
    """Transfer matrix M(t, z) of the potential on ``[t1, t]``, with z-derivatives.

    Args:
        pot: piecewise-constant potential.
        z: complex frequency, or a 1-d array of them; ``|Im z| (t - t1)``
            must stay within the working range.
        t: evaluation time (defaults to ``pot.T``); may exceed the support,
            in which case the potential is extended by zero.  A sorted
            sequence of times gives one result per time from one sweep.
        order: highest z-derivative carried (0, 1 or 2).  Derivatives are
            exact (product rule over exact cell derivatives), not finite
            differences.
        t1: start time: the result belongs to the potential restricted to
            ``[t1, t]`` and shifted to start at 0.

    Returns:
        A :class:`Transfer`, or a list of them (one per time) for a
        sequence ``t``.

    Raises:
        RangeError: ``order`` not an integer in 0..2, times below ``t1``, unsorted or
            of two or more dimensions, a ``z`` of two or more dimensions, not finite
            or with a part past ``1e150``, or ``t - t1`` past ``1e50`` (or ``|z| (t -
            t1)`` past ``1e150``).
        OverflowRangeError: ``|Im z| (t - t1)`` exceeds ``WORK_RANGE_LIMIT``,
            or the sum of ``|q| * width`` over ``[t1, t]`` exceeds ~305.
        InvariantViolation: the tracked determinant drifted beyond
            ``DET_DRIFT_ABORT`` over the sweep.
    """
    if not (isinstance(order, (int, np.integer)) and order in (0, 1, 2)):
        raise RangeError(f"derivative order must be 0, 1 or 2, got {order}")
    if np.ndim(t) > 1:
        raise RangeError(f"t must be a time or a 1-d sequence of them, got shape {np.shape(t)}")
    sweep = np.ndim(t) == 1
    ts = [float(u) for u in t] if sweep else [pot.T if t is None else float(t)]
    if not all(b >= a for a, b in zip([t1] + ts, ts)):  # NaN fails too
        raise RangeError(f"propagation times must be sorted and >= {t1}, got {t}")
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    if zs.ndim != 1:
        raise RangeError(f"z must be a scalar or a 1-d array, got shape {zs.shape}")
    im_max = _check_range(zs, max(ts, default=t1) - t1)
    if not ts:  # an empty sweep
        return []
    lower, neg = zs.imag < 0, zs.real < 0
    mirror = zs.size > 1 and neg.any() and not zs.imag.any()
    keys = (np.abs(zs.real) + 1j * np.abs(zs.imag) if lower.any() else
            np.abs(zs.real) if mirror else None)  # a real batch folds on real keys
    fold, inv = (zs, None) if keys is None else np.unique(keys, return_inverse=True)
    jet, det, steps, grown = None, None, [], 0.0  # jet None: the identity
    for a, b in zip([t1] + ts, ts):
        qs, ws, grown = _prepared_cells(pot, a, b, im_max, grown)
        jet, det = _advance(fold, order, jet, det, qs, ws)
        steps.append((b, jet, det))
    _check_drift(det)
    out = []
    for b, jet, det in steps:
        if inv is not None:  # expand the folded batch (module docstring)
            jet, det, flip = jet[..., inv], det[inv], lower != neg
            odd = (np.arange(order + 1)[:, None, None] + 1 - np.eye(2)) % 2 == 1
            np.negative(jet, out=jet, where=odd[..., None] & neg)
            np.conjugate(jet, out=jet, where=flip)
            np.conjugate(det, out=det, where=flip)
        out.append(Transfer(b, zs, jet, det) if np.ndim(z) else
                   Transfer(b, complex(zs[0]), jet[..., 0], complex(det[0])))
    return out if sweep else out[0]


def symmetric_grid(X: float, n: int) -> np.ndarray:
    """``linspace(-X, X, n)`` made exactly symmetric, for an integer ``0 <= n <=
    2**24``: ``transfer`` folds its ±x pairs."""
    if not (isinstance(n, (int, np.integer)) and 0 <= n <= 2**24):
        raise ValidationError(f"grid size n must be an integer from 0 to 2**24, got {n!r}")
    if not abs(X) <= _Z_LIMIT:  # linspace would overflow; transfer refuses such z anyway
        raise RangeError(f"grid end X = {X} is not finite or exceeds {_Z_LIMIT:g}")
    x = np.linspace(-float(X), float(X), n)  # float: an int past int64 gave an object array
    return 0.5 * (x - x[::-1])


def transfer_batch(pot: SampledPotential, z, t: float | None = None) -> Transfer:
    """:func:`transfer` over an array of frequencies."""
    return transfer(pot, np.atleast_1d(z), t)


def transfer_derivative(pot: SampledPotential, z: complex, t: float | None = None,
                        order: int = 1) -> Transfer:
    """:func:`transfer` at one frequency with its z-derivatives (order 1 or 2)."""
    return transfer(pot, z, t, order)


# ---------------------------------------------------------------------------
# Hermite-Biehler functions and theta
# ---------------------------------------------------------------------------


def hermite_biehler(m: Transfer) -> Transfer:
    """``m`` itself: the Hermite-Biehler functions ``E``, ``Etilde``, ``Esharp``
    and ``Etildesharp`` (and ``det2i()``) are members of :class:`Transfer`."""
    return m


def _pole_checked(A, C):
    """``(E, theta)`` for ``E = A - iC``, after the package's one pole test."""
    E = A - 1j * C
    near = abs(E) <= POLE_FLOOR * (abs(A) + abs(C) + 1.0)
    if near is True or near is not False and near.any():  # a bool for scalars
        raise PoleProximityError(
            "theta evaluated too close to a pole (|A - iC| under its floor); "
            "the point sits at a conjugate zero of the first-kind function"
        )
    return E, (A + 1j * C) / E


def theta(m: Transfer):
    """Inner-function value theta = (A + iC)/(A - iC).

    Unimodular on the real axis, strictly contractive in the open upper
    half-plane.  Raises :class:`PoleProximityError` at (numerical) poles.
    """
    _, val = _pole_checked(np.asarray(m.A, dtype=complex), np.asarray(m.C, dtype=complex))
    return val if val.ndim else complex(val)


def theta_derivs(m: Transfer):
    """theta with its z-derivatives from a scalar transfer of order 1 or 2.

    Returns ``(theta, theta_z)`` for order 1 and ``(theta, theta_z,
    theta_zz)`` for order 2.  Uses the exact reduction
    ``theta_z = 2i (A C' - A' C) / E^2``.

    Raises:
        ValidationError: ``m`` is of order 0.
        PoleProximityError: as :func:`theta`.
    """
    if m.order < 1:
        raise ValidationError(f"theta_derivs needs a transfer of order 1 or 2, got {m.order}")
    A, C, dA, dC = m.A, m.C, m.dA, m.dC
    E, th = _pole_checked(A, C)
    wronsk = A * dC - dA * C
    th_z = 2j * wronsk / (E * E)
    if m.order < 2:
        return th, th_z
    dE = dA - 1j * dC
    d2N = m.d2A + 1j * m.d2C
    d2E = m.d2A - 1j * m.d2C
    th_zz = (d2N - 2.0 * th_z * dE - th * d2E) / E
    return th, th_z, th_zz
