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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryNearZeroError,
    DerivativeDegenerateError,
    InvariantViolation,
    PreconditionError,
    ValidationError,
)
from .potential import SampledPotential, integral
from .propagator import symmetric_grid, theta, theta_derivs, transfer

__all__ = [
    "ZERO_RESIDUAL_TOL",
    "THETA_Z_FLOOR_SCALE",
    "IM_FLOOR",
    "Box",
    "ResonanceTrack",
    "EigenTrack",
    "MotionSegment",
    "find_zeros",
    "track_resonance",
    "track_eigenvalue",
    "classify_track",
    "track_rows",
]

#: An accepted zero must satisfy |theta| below this.
ZERO_RESIDUAL_TOL = 1e-9

#: Newton / velocity formulas abort when |theta_z| < THETA_Z_FLOOR_SCALE * t
#: (the universality regime predicts |theta_z| of order t).
THETA_Z_FLOOR_SCALE = 1e-8

#: Tracked zeros must keep Im z above this floor.
IM_FLOOR = 1e-12

_MAX_CONTOUR_REFINES = 48
_MAX_QUAD_DEPTH = 40
_NEWTON_MAX_ITER = 60


@dataclass(frozen=True)
class Box:
    """Square search box centered at a real frequency.

    ``half_width`` plays the role of C/t in the scaling regime; only the
    part of the square with Im z >= 0 is searched for zeros of theta.
    """

    s: float
    half_width: float
    grid_n: int = 16

    def __post_init__(self):
        if not (self.half_width > 0):
            raise ValidationError(f"half_width must be > 0, got {self.half_width}")
        if self.grid_n < 8:
            raise ValidationError(f"grid_n must be >= 8, got {self.grid_n}")

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

    def tensor_grid(self) -> np.ndarray:
        """grid_n x grid_n complex tensor grid over the full square, its
        columns exactly symmetric about s and its rows exactly conjugate."""
        x = symmetric_grid(self.half_width, self.grid_n)
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

    @property
    def times(self) -> np.ndarray:
        return np.array([s[0] for s in self.samples])

    @property
    def xs(self) -> np.ndarray:
        return np.array([s[1] for s in self.samples])


@dataclass(frozen=True)
class MotionSegment:
    """Maximal run of V (vertical) or H (horizontal) motion of a track."""

    t1: float
    t2: float
    label: str  # "V" | "H"
    mean_direction: complex


# ---------------------------------------------------------------------------
# Newton on theta(t, .) = level
# ---------------------------------------------------------------------------


def _newton(pot, t, z0, level=None, bounds=None):
    """Solve theta(t, z) = 0, or theta(t, x) = level on the real axis.

    Returns ``(z, theta_z, residual)`` with residual ``|theta - level|``,
    or None.  For a zero the step is ``-theta / theta_z``, and ``bounds``
    is an optional (re_lo, re_hi, im_lo, im_hi) basin whose doubled extent
    the iterates must not leave (rather than wander into the overflow
    range).  For a level point (``level = +1`` or ``-1``, real ``z``) the
    step is Newton on ``arg(theta / level)``, whose slope is
    ``Im(theta_z / theta)``.

    The run stops at a residual of 1e-13, ends on a non-finite step or one
    longer than ``1 + |z|``, and then returns its best iterate if that is
    within :data:`ZERO_RESIDUAL_TOL` (None otherwise).

    Raises DerivativeDegenerateError when theta_z (or the level-set slope)
    drops under its floor.
    """
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
        if not np.isfinite(step) or abs(step) > 1.0 + abs(z):
            break  # wild step: Newton left its basin
        z = z + step
    if best is not None and best[2] <= ZERO_RESIDUAL_TOL:
        return best
    return None


# ---------------------------------------------------------------------------
# argument-principle machinery
# ---------------------------------------------------------------------------


def _winding(pot, t, rect: tuple, n0: int) -> int:
    """Winding number of theta(t, .) around the boundary of ``rect``.

    Adaptive: parameters are inserted until every phase step is < pi/2.
    """
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


def _collect_zeros(pot, t, rect: tuple, n0: int, depth: int, out: list) -> None:
    wind = _winding(pot, t, rect, n0)
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
        polished = _newton(pot, t, center, bounds=rect)
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
                _collect_zeros(pot, t, sub, max(8, n0 // 2), depth + 1, found)
            out.extend(found)
            return
        except BoundaryNearZeroError:
            continue
    raise BoundaryNearZeroError(
        "every deterministic sub-box split left a zero on a contour; "
        "shift the outer box instead"
    )


def find_zeros(pot: SampledPotential, t: float, box: Box):
    """All zeros of theta(t, .) inside the upper-half part of ``box``.

    Argument-principle count on the boundary, quadrisection to single
    windings, Newton polish.  Returns a list of ``(z, theta_z)`` sorted by
    real part, every zero satisfying ``|theta| <= 1e-9`` and ``Im z > 0``.

    Raises:
        BoundaryNearZeroError: a zero sits numerically on the initial
            boundary (caller should shift/shrink the box).
    """
    if t <= 0:
        raise ValidationError(f"need t > 0, got {t}")
    raw: list = []
    _collect_zeros(pot, t, box.rect, box.grid_n, 0, raw)
    # dedupe (quadrisection borders can hand the same zero to two children)
    uniq: list = []
    for z, th_z in raw:
        tol = 1e-9 * (1.0 + abs(z))
        if z.imag > IM_FLOOR and box.contains(z, tol) and all(abs(z - u) > tol for u, _ in uniq):
            uniq.append((z, th_z))
    uniq.sort(key=lambda p: (p[0].real, p[0].imag))
    return uniq


# ---------------------------------------------------------------------------
# tracking
# ---------------------------------------------------------------------------


def _march(pot, z0, t0, t1, dt, pre_tol, level, build):
    """Predictor-corrector march of a zero (``level=None``) or of a real
    level point from (t0, z0) to t1 with steps of dt.

    The predictor follows the exact flow (``z' = -f / theta_z`` with f
    averaged over the step, or ``x' = Re(-2i x level / theta_z)``) and
    :func:`_newton` corrects it at the new time.  ``build(samples,
    residuals, status)`` makes the track from samples ``(t, z, theta_z)``;
    a :class:`DerivativeDegenerateError` leaves with the partial track as
    ``.track`` (status ``derivative_degenerate``).
    """
    if dt <= 0 or t1 <= t0:
        raise ValidationError(f"need t1 > t0 and dt > 0, got [{t0}, {t1}], dt={dt}")
    th0 = theta(transfer(pot, z0, t0))
    off = abs(th0) if level is None else abs(th0 - level)
    if off > pre_tol:
        raise PreconditionError(
            f"|theta(t0, z0) - {0 if level is None else level.real:g}| = {off:.3g} "
            f"exceeds pre_tol {pre_tol:g}: not a starting point of this track"
        )
    samples: list = []
    residuals: list = []
    status = "completed"
    try:
        polished = _newton(pot, t0, z0, level)
        if polished is None:
            raise PreconditionError("Newton could not refine the starting point")
        z, th_z, res = polished
        samples.append((t0, z, th_z))
        residuals.append(res)
        t = t0
        while t < t1 - 1e-12:
            step = min(dt, t1 - t)
            t_next = t + step
            if level is None:  # f averaged over [t, t_next]
                z_pred = z - step * (integral(pot, t, t_next) / (t_next - t) / th_z)
            else:
                z_pred = z + step * (-2j * z * level / th_z).real
            polished = _newton(pot, t_next, z_pred, level)
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


def track_resonance(
    pot: SampledPotential,
    z0: complex,
    t0: float,
    t1: float,
    dt: float,
    pre_tol: float = 1e-6,
) -> ResonanceTrack:
    """Follow a zero of theta from (t0, z0) to t1 with steps of dt.

    Predictor ``z <- z - dt * f_avg / theta_z`` (cell-averaged f over the
    step), then a Newton corrector re-solves ``theta(t + dt, .) = 0``.

    The track stops early with status ``exited_real_axis`` when the zero
    meets the Im floor, or ``newton_diverged`` when correction fails;
    :class:`DerivativeDegenerateError` (with the partial track attached as
    ``.track``) signals a degenerate ``theta_z``.

    Raises:
        PreconditionError: theta(t0, z0) is not a zero within ``pre_tol``.
    """
    def build(samples, residuals, status):
        return ResonanceTrack(
            samples=tuple(samples), residuals=tuple(residuals), status=status, dt=dt
        )

    return _march(pot, z0, t0, t1, dt, pre_tol, None, build)


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
    ``exited_real_axis``.
    """
    if kind not in _EIGEN_TARGET:
        raise ValidationError(f"kind must be 'NN' or 'ND', got {kind!r}")

    def build(samples, residuals, status):
        xs = np.array([s[1] for s in samples])
        # monotone toward 0: every step has the sign of -x0 (is 0 if x0 = 0)
        monotone = bool(np.all(np.sign(np.diff(xs)) == -np.sign(xs[:1])))
        return EigenTrack(
            kind=kind, samples=tuple((ti, xi) for ti, xi, _ in samples),
            residuals=tuple(residuals), monotone=monotone, status=status,
        )

    return _march(pot, x0, t0, t1, dt, pre_tol, _EIGEN_TARGET[kind], build)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def _motion(track: ResonanceTrack):
    """Times, velocities (central differences), speeds and V/H labels of
    the samples of a track ("" in the hysteresis band)."""
    n = len(track.samples)
    if n < 3:
        raise PreconditionError("classify_track needs at least 3 samples")
    ts = track.times
    zs = track.zs
    vel = np.empty(n, dtype=complex)
    vel[1:-1] = (zs[2:] - zs[:-2]) / (ts[2:] - ts[:-2])
    vel[0] = (zs[1] - zs[0]) / (ts[1] - ts[0])
    vel[-1] = (zs[-1] - zs[-2]) / (ts[-1] - ts[-2])
    speed = np.abs(vel)
    ratio = np.where(speed > 0, np.abs(vel.real) / np.where(speed > 0, speed, 1.0), 0.0)
    labels = np.where(ratio <= 0.1, "V", np.where(ratio >= 0.25, "H", ""))
    return ts, vel, speed, labels


def classify_track(track: ResonanceTrack):
    """Split a track into maximal vertical / horizontal motion segments.

    A sample is V when ``|Re z'| <= 0.1 |z'|`` and H when
    ``|Re z'| >= 0.25 |z'|`` (velocities by central differences); runs of
    equal labels become :class:`MotionSegment`s, the in-between hysteresis
    band stays unlabeled.  Since the per-sample inequalities are summed, the
    segment-averaged criterion holds automatically on every segment.
    """
    ts, vel, speed, labels = _motion(track)
    # runs of equal labels: samples edges[k] .. edges[k + 1] - 1
    edges = np.flatnonzero(np.r_[True, labels[1:] != labels[:-1], True])
    segments: list[MotionSegment] = []
    for i, j in zip(edges[:-1], edges[1:]):
        if not labels[i]:
            continue
        units = vel[i:j][speed[i:j] > 0]
        if units.size:
            mean = np.sum(units / np.abs(units))
            direction = mean / abs(mean) if abs(mean) > 0 else 1j
        else:
            direction = 1j  # stationary: pure dwell counts as vertical rest
        segments.append(
            MotionSegment(t1=float(ts[i]), t2=float(ts[j - 1]), label=str(labels[i]),
                          mean_direction=complex(direction))
        )
    return segments


def track_rows(track: ResonanceTrack) -> list:
    """Rows ``(t, re_z, im_z, re_theta_z, im_theta_z, residual, label)``, one
    per sample; ``label`` is the V/H label :func:`classify_track` gives the
    sample ("" in the hysteresis band, and for tracks too short to
    classify)."""
    n = len(track.samples)
    labels = _motion(track)[3] if n >= 3 else [""] * n
    return [(ti, zi.real, zi.imag, tzi.real, tzi.imag, res, str(lab))
            for (ti, zi, tzi), res, lab in zip(track.samples, track.residuals, labels)]
