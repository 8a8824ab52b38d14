"""Zeros of the Dirac inner function in the upper half-plane and their flow.

Resonances are the conjugates of the zeros of E(t, .); they are located as
zeros of ``theta = E#/E`` in the closed upper half-plane, which keeps every
evaluation on the bounded side.  Zero counting is by the argument principle
on box boundaries with adaptive sampling (phase steps must stay under pi/2),
and recursive quadrisection isolates single zeros.

Zeros and the NN/ND eigenvalues (real x with theta = +1 or -1) are both
points where theta(t, .) takes a given value: one Newton solves for either,
and one predictor-corrector march follows either in t along its flow,

    z' = -f(t) / theta_z(t, z)    or    x' = -2 i x theta / theta_z.

Sibling boxes and all starts of a march go in lock-step: one ``transfer`` per
contour refinement round or Newton step.  Each start computes on the scalars
of its own column, so zeros, tracks and errors are those of one evaluation
per call, bit for bit, where the batch's chunk plan (by its largest |Im z|)
is each point's own; otherwise values may move by about 1e-13.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryNearZeroError,
    DerivativeDegenerateError,
    DiracNLFTError,
    InvariantViolation,
    PreconditionError,
    ValidationError,
)
from .potential import SampledPotential, integral
from .propagator import (
    WORK_RANGE_LIMIT,
    Transfer,
    _check_range,
    symmetric_grid,
    theta,
    theta_derivs,
    transfer,
)

__all__ = [
    "ZERO_RESIDUAL_TOL",
    "THETA_Z_FLOOR_SCALE",
    "IM_FLOOR",
    "Box",
    "ResonanceTrack",
    "EigenTrack",
    "find_zeros",
    "track_resonance",
    "track_eigenvalue",
    "track_rows",
]

#: An accepted zero must satisfy |theta| below this.
ZERO_RESIDUAL_TOL = 1e-9

#: Newton / velocity formulas abort when |theta_z| < THETA_Z_FLOOR_SCALE * t
#: (the universality regime predicts |theta_z| of order t).
THETA_Z_FLOOR_SCALE = 1e-8

#: Tracked zeros must keep Im z above this floor.
IM_FLOOR = 1e-12

# Most predictor-corrector steps one track may take.
_MAX_STEPS = 1_000_000
_MAX_CONTOUR_REFINES = 48
_MAX_QUAD_DEPTH = 40
_NEWTON_MAX_ITER = 60


@dataclass(frozen=True)
class Box:
    """Square search box centered at a real frequency.

    ``half_width`` plays the role of C/t in the scaling regime; only the
    part of the square with Im z >= 0 is searched for zeros of theta.

    Raises:
        ValidationError: ``half_width`` not finite and > 0, ``s`` not finite,
            or ``grid_n`` not an integer from 8 to 64.
    """

    s: float
    half_width: float
    grid_n: int = 16

    def __post_init__(self):
        if not (self.half_width > 0 and math.isfinite(self.half_width)):
            raise ValidationError(f"half_width must be finite and > 0, got {self.half_width}")
        if not math.isfinite(self.s):
            raise ValidationError(f"s must be finite, got {self.s}")
        if not (isinstance(self.grid_n, (int, np.integer)) and 8 <= self.grid_n <= 64):
            raise ValidationError(f"grid_n must be an integer from 8 to 64, got {self.grid_n!r}")

    @classmethod
    def scaled(cls, s: float, C: float, t: float, grid_n: int = 16) -> "Box":
        """The box Q(s, C/t) of the scaling regime; needs t > 0 and C > 0."""
        if not (t > 0 and C > 0):
            raise ValidationError(f"Q(s, C/t) needs t > 0 and C > 0, got t={t}, C={C}")
        return cls(s=s, half_width=C / t, grid_n=grid_n)

    @property
    def rect(self) -> tuple:
        """The searched upper half as ``(re_lo, re_hi, im_lo, im_hi)``."""
        return (self.s - self.half_width, self.s + self.half_width, 0.0, self.half_width)

    def contains(self, z: complex, slack: float = 0.0) -> bool:
        """Membership in the upper-half part of the square."""
        return _inside(z, self.rect, slack)

    @property
    def axis(self) -> np.ndarray:
        """The grid_n offsets ``x`` of the tensor grid from its center, the
        same along the real and the imaginary direction."""
        return symmetric_grid(self.half_width, self.grid_n)

    def tensor_grid(self) -> np.ndarray:
        """grid_n x grid_n complex tensor grid over the full square: point
        ``r * grid_n + c`` is ``s + x[c] + i x[r]`` for ``x = axis``, so its
        columns are exactly symmetric about s and its rows exactly conjugate."""
        x = self.axis
        return ((self.s + x)[None, :] + 1j * x[:, None]).ravel()


def _inside(z: complex, rect: tuple, slack: float) -> bool:
    """Is z in the rectangle ``(re_lo, re_hi, im_lo, im_hi)`` widened by slack?"""
    re_lo, re_hi, im_lo, im_hi = rect
    return (re_lo - slack <= z.real <= re_hi + slack
            and im_lo - slack <= z.imag <= im_hi + slack)


@dataclass(frozen=True)
class ResonanceTrack:
    """Zero trajectory: samples are (t, z, theta_z) with |theta| tracked."""

    samples: tuple  # of (t, z, theta_z)
    residuals: tuple
    status: str  # completed | exited_real_axis | newton_diverged | derivative_degenerate
    dt: float

    @property
    def times(self) -> np.ndarray:
        return np.array([s[0] for s in self.samples])

    @property
    def zs(self) -> np.ndarray:
        return np.array([s[1] for s in self.samples], dtype=complex)

    @property
    def theta_zs(self) -> np.ndarray:
        return np.array([s[2] for s in self.samples], dtype=complex)


@dataclass(frozen=True)
class EigenTrack:
    """NN (theta = 1) or ND (theta = -1) eigenvalue trajectory on R."""

    kind: str  # "NN" | "ND"
    samples: tuple  # of (t, x)
    residuals: tuple
    monotone: bool
    status: str  # completed | newton_diverged | derivative_degenerate


# ---------------------------------------------------------------------------
# Newton on theta(t, .) = level, in lock-step
# ---------------------------------------------------------------------------


def _theta_at(pot, t, pts, order):
    """theta at each entry of ``pts`` (an array of points) for ``order`` 0, or
    ``(theta, theta_z)`` at each entry (a point) for ``order`` 1, from one
    ``transfer`` at t; an entry whose own propagation raises gets the error."""
    try:
        m = transfer(pot, np.concatenate(pts) if order == 0 else np.array(pts), t, order=order)
        if order == 0:
            return np.split(theta(m), np.cumsum([p.size for p in pts[:-1]]))
        return [theta_derivs(Transfer(t, complex(m.z[i]), m.jet[..., i], complex(m.det_tracked[i])))
                for i in range(len(pts))]
    except DiracNLFTError as exc:  # whose? each entry on its own
        return [exc] if len(pts) == 1 else [_theta_at(pot, t, [p], order)[0] for p in pts]


def _lockstep(pot, t, runs, order):
    """Drive the generators ``runs`` together, one :func:`_theta_at` per round
    at the points they yield.  Returns what each run returns, or the error it
    raised; the runs after the first that raised stop (entries None), as a
    loop over the runs would not have started them."""
    out, cut = [None] * len(runs), len(runs)
    sends = dict.fromkeys(range(len(runs)))  # live run: what it is sent next
    while sends:
        wants = {}
        for i, value in sends.items():
            if i > cut:
                break
            try:  # an error of a run's own propagation is raised in it
                wants[i] = (runs[i].throw if isinstance(value, Exception) else runs[i].send)(value)
            except StopIteration as stop:
                out[i] = stop.value
            except DiracNLFTError as exc:
                out[i], cut = exc, i
        sends = dict(zip(wants, _theta_at(pot, t, list(wants.values()), order))) if wants else {}
    return out[:cut + 1] + [None] * (len(runs) - cut - 1)


def _newton(pot, t, starts, level=None, bounds=None, pre_tol=math.inf):
    """Solve theta(t, z) = 0, or theta(t, x) = level on the real axis, from
    each of ``starts`` in lock-step (:func:`_lockstep`).

    Returns per start ``(z, theta_z, residual)`` with residual
    ``|theta - level|``, None, or the error its run raised.  For a zero the
    step is ``-theta / theta_z``, and ``bounds`` is an optional list of one
    (re_lo, re_hi, im_lo, im_hi) basin per start whose doubled extent the
    iterates must not leave (rather than wander into the overflow range).
    For a level point (``level = +1`` or ``-1``, real ``z``) the step is
    Newton on ``arg(theta / level)``, whose slope is ``Im(theta_z / theta)``.

    A run stops at a residual of 1e-13, ends on a non-finite step, one
    longer than ``1 + |z|`` or one to an iterate past the working range
    (``|Im z| t > WORK_RANGE_LIMIT``), and then returns its best iterate if
    that is within :data:`ZERO_RESIDUAL_TOL` (None otherwise).

    A run raises PreconditionError when the residual at its start exceeds
    ``pre_tol``, and DerivativeDegenerateError when theta_z (or the
    level-set slope) drops under its floor.
    """
    floor = THETA_Z_FLOOR_SCALE * max(t, 1e-6)

    def run(z, rect):
        z = complex(z) if level is None else float(z)
        if rect is not None:
            re_lo, re_hi, im_lo, im_hi = rect
            pad = max(re_hi - re_lo, im_hi - im_lo, 1e-9)
            # widened by pad on every side, but at most pad / 2 below the axis
            basin = (re_lo, re_hi, max(im_lo, 0.5 * pad), im_hi)
        best = None
        for _ in range(_NEWTON_MAX_ITER):
            if rect is not None and not _inside(z, basin, pad):
                break  # left the basin: no zero here for this start
            th, th_z = yield z
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

    return _lockstep(pot, t, [run(z, b) for z, b in zip(starts, bounds or [None] * len(starts))], 1)


# ---------------------------------------------------------------------------
# argument-principle machinery
# ---------------------------------------------------------------------------


def _winding(pot, t, rects, n0: int) -> list:
    """Winding number of theta(t, .) around the boundary of each of ``rects``,
    counted in lock-step (:func:`_lockstep`): per rect an int or the error.

    Adaptive: parameters are inserted until every phase step is < pi/2.
    """
    def count(rect):
        re_lo, re_hi, im_lo, im_hi = rect
        w, h = re_hi - re_lo, im_hi - im_lo
        # perimeter parameter of each corner, counterclockwise from (re_lo, im_lo)
        knots = (0.0, w, w + h, 2 * w + h, 2 * (w + h))
        corners = (complex(re_lo, im_lo), complex(re_hi, im_lo), complex(re_hi, im_hi),
                   complex(re_lo, im_hi), complex(re_lo, im_lo))
        L = knots[-1]
        params = np.linspace(0.0, L, 4 * n0, endpoint=False)
        vals = yield np.interp(params, knots, corners)
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
            vals = np.insert(vals, at, (yield np.interp(mids, knots, corners)))
        raise BoundaryNearZeroError(
            "contour refinement budget exhausted; a zero is (numerically) on the boundary"
        )

    return _lockstep(pot, t, [count(rect) for rect in rects], 0)


def _collect_zeros(pot, t, rects, n0: int, depth: int, out: list) -> None:
    """Append the zeros in each of the sibling ``rects``, in their order: all
    windings in one lock-step count, every winding-1 box polished in one
    lock-step Newton, any other box split; errors surface in the same order."""
    winds = _winding(pot, t, rects, n0)
    ones = [rect for rect, wind in zip(rects, winds) if wind == 1]
    polished = iter(_newton(pot, t, [complex((r[0] + r[1]) / 2.0, (r[2] + r[3]) / 2.0)
                                     for r in ones], bounds=ones))
    for rect, wind in zip(rects, winds):
        if isinstance(wind, Exception):
            raise wind
        if wind < 0:
            raise InvariantViolation(
                f"negative winding {wind} of theta on a box in the closed upper "
                "half-plane: a pole entered the contour"
            )
        if wind == 0:
            continue
        re_lo, re_hi, im_lo, im_hi = rect
        center = complex((re_lo + re_hi) / 2.0, (im_lo + im_hi) / 2.0)
        size = max(re_hi - re_lo, im_hi - im_lo)
        scale = 1.0 + abs(center)
        if wind == 1:
            got = next(polished)
            if isinstance(got, Exception):
                raise got
            if got is not None and _inside(got[0], rect, 1e-9 * scale):
                out.append(got[:2])
                continue
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
                _collect_zeros(pot, t, [(re_lo, rm, im_lo, im), (rm, re_hi, im_lo, im),
                                        (re_lo, rm, im, im_hi), (rm, re_hi, im, im_hi)],
                               max(8, n0 // 2), depth + 1, found)
                out.extend(found)
                break
            except BoundaryNearZeroError:
                continue
        else:
            raise BoundaryNearZeroError(
                "every deterministic sub-box split left a zero on a contour; "
                "shift the outer box instead"
            )


def find_zeros(pot: SampledPotential, t: float, box: Box):
    """All zeros of theta(t, .) inside the upper-half part of ``box``.

    Argument-principle count on the boundary, quadrisection to single
    windings, Newton polish.  Returns ``(z, theta_z)`` pairs sorted by Re z
    (to 1e-9), then Im z, each zero with ``|theta| <= 1e-9`` and ``Im z > 0``.

    Raises:
        BoundaryNearZeroError: a zero sits numerically on the initial
            boundary (caller should shift/shrink the box).
        OverflowRangeError: the box reaches past the working range at t.
    """
    if not t > 0:  # NaN fails too
        raise ValidationError(f"need t > 0, got {t}")
    # transfer's range check on the top corners (the first contour's top edge
    # is Im z = half_width), before a box past |z| <= 1e150 overflows the contour
    re_lo, re_hi, _, im_hi = box.rect
    _check_range(np.array([complex(re_lo, im_hi), complex(re_hi, im_hi)]), t)
    raw: list = []
    _collect_zeros(pot, t, [box.rect], box.grid_n, 0, raw)
    # dedupe (quadrisection borders can hand the same zero to two children)
    uniq: list = []
    for z, th_z in raw:
        tol = 1e-9 * (1.0 + abs(z))
        if z.imag > IM_FLOOR and box.contains(z, tol) and all(abs(z - u) > tol for u, _ in uniq):
            uniq.append((z, th_z))
    q = 1e-9 * (1.0 + abs(box.s) + box.half_width)  # Re z within q: one column, by Im z
    uniq.sort(key=lambda p: (round(p[0].real / q), p[0].imag))
    return uniq


# ---------------------------------------------------------------------------
# tracking
# ---------------------------------------------------------------------------


def _march(pot, starts, t0, t1, dt, pre_tol, level, build):
    """Predictor-corrector march of zeros (``level=None``) or of real level
    points from (t0, z0) to t1 with steps of dt, for each z0 of ``starts``
    in lock-step: one :func:`_newton` per step for all live tracks.

    The predictor follows the exact flow (``z' = -f / theta_z`` with f
    averaged over the step, or ``x' = Re(-2i x level / theta_z)``) and
    :func:`_newton` corrects it at the new time.  ``build(samples,
    residuals, status)`` makes a track from samples ``(t, z, theta_z)``;
    one per start is returned.  The error of the first start that fails is
    raised once every start before it is done; a
    :class:`DerivativeDegenerateError` leaves with that start's partial
    track as ``.track`` (status ``derivative_degenerate``).
    """
    if not (dt > 0 and t1 > t0 and (t1 - t0) / dt <= _MAX_STEPS):  # NaN fails too
        raise ValidationError(f"need t1 > t0, dt > 0 and at most {_MAX_STEPS} steps, "
                              f"got [{t0}, {t1}], dt={dt}")
    samples, residuals = [[] for _ in starts], [[] for _ in starts]
    status, errors = ["completed"] * len(starts), {}  # errors by start
    t, live = t0, range(len(starts))
    got = _newton(pot, t0, starts, level, pre_tol=pre_tol)
    while live:
        kept = []
        for i, polished in zip(live, got):
            if polished is None and not samples[i]:
                polished = PreconditionError("Newton could not refine the starting point")
            if isinstance(polished, Exception):
                errors[i] = polished
            elif polished is None:
                status[i] = "newton_diverged"
            elif level is None and samples[i] and polished[0].imag <= IM_FLOOR:
                status[i] = "exited_real_axis"
            else:
                z, th_z, res = polished
                samples[i].append((t, z, th_z))
                residuals[i].append(res)
                kept.append(i)
        if not t < t1 - 1e-12:
            break
        step = min(dt, t1 - t)
        t_next = t + step
        if level is None:  # f averaged over [t, t_next]
            f_avg = integral(pot, t, t_next) / (t_next - t)
        moving = {}
        for i in kept:
            _, z, th_z = samples[i][-1]
            if abs(th_z) < THETA_Z_FLOOR_SCALE * max(t, 1e-6):  # the predictor divides by it
                errors[i] = DerivativeDegenerateError(
                    f"|theta_z| {abs(th_z):.3g} under floor at t = {t}")
            elif level is None:
                moving[i] = z - step * (f_avg / th_z)
            else:
                moving[i] = z + step * (-2j * z * level / th_z).real
        live = [i for i in moving if i < min(errors, default=len(starts))]
        got = _newton(pot, t_next, [moving[i] for i in live], level)
        t = t_next
    if errors:  # the first start's, as a loop over the starts raises it
        i = min(errors)
        if isinstance(errors[i], DerivativeDegenerateError):
            errors[i].track = build(samples[i], residuals[i], "derivative_degenerate")
        raise errors[i]
    return [build(*track) for track in zip(samples, residuals, status)]


def track_resonance(
    pot: SampledPotential,
    z0,
    t0: float,
    t1: float,
    dt: float,
):
    """Follow a zero of theta from (t0, z0) to t1 with steps of dt.

    A sequence of starts ``z0`` gives one track per start, marched in
    lock-step: the tracks (or first error) of one call per start.

    Predictor ``z <- z - dt * f_avg / theta_z`` (cell-averaged f over the
    step), then a Newton corrector re-solves ``theta(t + dt, .) = 0``.

    The track stops early with status ``exited_real_axis`` when the zero
    meets the Im floor, or ``newton_diverged`` when correction fails;
    :class:`DerivativeDegenerateError` (with the partial track attached as
    ``.track``) signals a degenerate ``theta_z``.

    Raises:
        PreconditionError: theta(t0, z0) is not a zero within 1e-6.
    """
    def build(samples, residuals, status):
        return ResonanceTrack(
            samples=tuple(samples), residuals=tuple(residuals), status=status, dt=dt
        )

    tracks = _march(pot, np.ravel(z0), t0, t1, dt, 1e-6, None, build)
    return tracks if np.ndim(z0) else tracks[0]


_EIGEN_TARGET = {"NN": 1.0 + 0.0j, "ND": -1.0 + 0.0j}


def track_eigenvalue(
    pot: SampledPotential,
    kind: str,
    x0: float,
    t0: float,
    t1: float,
    dt: float,
    pre_tol: float = 1e-6,
) -> EigenTrack:
    """Follow an NN (theta = 1) or ND (theta = -1) real level point.

    The exact flow is ``x' = -2 i x theta / theta_z`` (theta pinned at the
    target), which is real and drives x monotonically toward 0; a Newton
    corrector on ``arg(theta / target)`` re-solves the level set after each
    step.  Stops and failures are those of :func:`track_resonance`, less
    ``exited_real_axis``; a start whose residual exceeds ``pre_tol`` is a
    PreconditionError.
    """
    if kind not in _EIGEN_TARGET:
        raise ValidationError(f"kind must be 'NN' or 'ND', got {kind!r}")
    if not pre_tol > 0:  # NaN fails too
        raise ValidationError(f"need pre_tol > 0, got {pre_tol}")

    def build(samples, residuals, status):
        xs = np.array([s[1] for s in samples])
        # monotone toward 0: every step has the sign of -x0 (is 0 if x0 = 0)
        monotone = bool(np.all(np.sign(np.diff(xs)) == -np.sign(xs[:1])))
        return EigenTrack(
            kind=kind, samples=tuple((ti, xi) for ti, xi, _ in samples),
            residuals=tuple(residuals), monotone=monotone, status=status,
        )

    return _march(pot, [x0], t0, t1, dt, pre_tol, _EIGEN_TARGET[kind], build)[0]


# ---------------------------------------------------------------------------
# output rows
# ---------------------------------------------------------------------------


def track_rows(track: ResonanceTrack) -> list:
    """Rows ``(t, re_z, im_z, re_theta_z, im_theta_z, residual, label)``, one
    per sample.  ``label`` is V (vertical) where ``|Re z'| <= 0.1 |z'|``, a
    stationary sample too, H (horizontal) where ``|Re z'| >= 0.25 |z'|`` (z' by
    central differences), and "" in between or on a track of under 3 samples."""
    n = len(track.samples)
    labels = [""] * n
    if n >= 3:
        ts, zs = track.times, track.zs
        lo, hi = np.maximum(np.arange(n) - 1, 0), np.minimum(np.arange(n) + 1, n - 1)
        vel = (zs[hi] - zs[lo]) / (ts[hi] - ts[lo])  # one-sided at the two ends
        speed = np.abs(vel)
        ratio = np.where(speed > 0, np.abs(vel.real) / np.where(speed > 0, speed, 1.0), 0.0)
        labels = np.where(ratio <= 0.1, "V", np.where(ratio >= 0.25, "H", ""))
    return [(ti, zi.real, zi.imag, tzi.real, tzi.imag, res, str(lab))
            for (ti, zi, tzi), res, lab in zip(track.samples, track.residuals, labels)]
