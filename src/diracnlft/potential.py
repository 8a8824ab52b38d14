"""Piecewise-constant potentials on the half-line.

Everything downstream (transfer matrices, scattering, kernels) consumes a
:class:`SampledPotential`: a uniform grid of constant cells, with the final
cell allowed to be shorter than ``h`` so restriction to an arbitrary horizon
stays within the type.

Analytic families are described by a :class:`PotentialSpec` and turned into
cells with :func:`sample` (midpoint rule).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import RangeError, ValidationError

__all__ = [
    "PotentialSpec",
    "SampledPotential",
    "FAMILIES",
    "sample",
    "restrict",
    "clip_to_support",
    "l2_norm_sq",
    "integral",
    "cell_cover",
    "potential_from_dict",
    "potential_to_dict",
    "load_potential",
    "save_potential",
]

#: The params keys each family reads.
_FAMILY_PARAMS = {"zero": (), "constant": ("q",), "box": ("q", "t0"),
                  "powerlaw": ("q", "p"), "damped_cosine": ("q", "p", "omega")}
FAMILIES = tuple(_FAMILY_PARAMS)

#: Families whose tail decays like (1+t)^(-p); they require p > 1/2 so the
#: potential is square integrable on the half-line.
_DECAY_FAMILIES = ("powerlaw", "damped_cosine")

_BOUNDARY_RTOL = 1e-9  # slack when deciding whether t sits on a cell boundary
_MAX_CELLS = 10**6  # most cells sample() makes


@dataclass(frozen=True)
class PotentialSpec:
    """Description of an analytic potential family.

    Args:
        family: one of :data:`FAMILIES`.
        params: real parameters, only the keys the family reads
            (``_FAMILY_PARAMS``): ``q`` (amplitude), ``t0`` (support end),
            ``p`` (decay exponent) and ``omega`` (oscillation frequency).

    Explicit cells are not a family: build a :class:`SampledPotential`
    from them (and :func:`restrict` it to a shorter horizon).
    """

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(
                f"unknown potential family {self.family!r}; expected one of {FAMILIES}"
            )
        unknown = sorted(set(self.params) - set(_FAMILY_PARAMS[self.family]))
        if unknown:
            raise ValidationError(
                f"params key(s) {unknown} unknown to family {self.family!r}, "
                f"which reads {list(_FAMILY_PARAMS[self.family])}"
            )
        for key, val in self.params.items():
            # math.isfinite(10**400) would raise; |val| <= max is exact for ints
            if not (isinstance(val, (int, float)) and abs(val) <= sys.float_info.max):
                raise ValidationError(f"parameter {key!r} must be a finite real, got {val!r}")
        if self.family in _DECAY_FAMILIES:
            p = self.params.get("p")
            if p is None or p <= 0.5:
                raise ValidationError(
                    f"{self.family} requires decay exponent p > 1/2 "
                    f"(got {p!r}); slower decay is not square integrable"
                )
        if self.family == "box" and self.params.get("t0", 0.0) < 0.0:
            raise ValidationError("box support end t0 must be >= 0")

    def value(self, t):
        """Evaluate the analytic family pointwise (vectorized over ``t``)."""
        t = np.asarray(t, dtype=float)
        q = float(self.params.get("q", 1.0))
        if self.family == "zero":
            return np.zeros_like(t)
        if self.family == "constant":
            return np.full_like(t, q)
        if self.family == "box":
            t0 = float(self.params.get("t0", 1.0))
            return np.where(t < t0, q, 0.0)
        if self.family == "powerlaw":
            p = float(self.params["p"])
            return q * (1.0 + t) ** (-p)
        p = float(self.params["p"])  # damped_cosine
        omega = float(self.params.get("omega", 1.0))
        return q * (1.0 + t) ** (-p) * np.cos(omega * t)


@dataclass(frozen=True)
class SampledPotential:
    """Piecewise-constant potential: ``cells[j]`` on ``[j*h, (j+1)*h)``.

    ``T`` is the true right endpoint of the support interval and may cut the
    final cell short: ``(n-1)*h < T <= n*h`` with ``n = len(cells)``.  All
    operations honour the shortened final cell.
    """

    h: float
    cells: tuple
    T: float = None  # type: ignore[assignment]
    # what cell_cover slices, read-only: cell values and ends, the run of each cell
    # (a stretch of equal neighbours), run values and run ends; no part of the
    # value (not compared, hashed or printed)
    _cover: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (isinstance(self.h, (int, float)) and 0 < self.h <= sys.float_info.max):
            raise ValidationError(f"cell width h must be positive and finite, got {self.h!r}")
        object.__setattr__(self, "h", float(self.h))
        try:
            cells = tuple(float(c) for c in self.cells)
            T = len(cells) * self.h if self.T is None else float(self.T)
        except (TypeError, ValueError, OverflowError) as exc:  # "x", [1], 10**400
            raise ValidationError(f"cells and T must be finite reals: {exc}") from exc
        if len(cells) == 0:
            raise ValidationError("a potential needs at least one cell")
        if not all(math.isfinite(c) for c in cells):
            raise ValidationError("cells must be finite reals")
        object.__setattr__(self, "cells", cells)
        n = len(cells)
        hi = n * self.h
        lo = (n - 1) * self.h
        slack = _BOUNDARY_RTOL * max(1.0, hi)
        if not (lo < T <= hi + slack):
            raise ValidationError(
                f"support end T={T} inconsistent with {n} cells of width {self.h} "
                f"(need {lo} < T <= {hi})"
            )
        object.__setattr__(self, "T", min(T, hi))
        # the last end is T, which is (n - 1) * h + (T - (n - 1) * h) exactly
        qs, ends = np.array(cells), np.append(np.arange(n - 1) * self.h + self.h, self.T)
        first = np.append(True, qs[1:] != qs[:-1])  # of each run of equal cells
        arrays = (qs, ends, np.cumsum(first) - 1, qs[first], ends[np.append(first[1:], True)])
        for a in arrays:
            a.flags.writeable = False
        object.__setattr__(self, "_cover", arrays)


# ---------------------------------------------------------------------------
# construction / sampling
# ---------------------------------------------------------------------------


def sample(spec: PotentialSpec, h: float, T: float) -> SampledPotential:
    """Sample an analytic family onto a uniform cell grid (midpoint rule).

    Cell ``j`` holds the family's value at the midpoint of its (possibly
    truncated) interval.

    Args:
        spec: family description.
        h: cell width, finite and > 0.
        T: support horizon, finite and >= h, with at most 10**6 cells.

    Returns:
        The sampled potential with ``pot.T == T``.
    """
    if not (0 < h < math.inf):
        raise ValidationError(f"h must be finite and > 0, got {h}")
    if not (h <= T and T / h <= _MAX_CELLS):  # inf and NaN fail too
        raise ValidationError(f"need a finite T >= h and T / h <= {_MAX_CELLS}, got T={T}, h={h}")
    n = int(math.ceil(T / h - _BOUNDARY_RTOL))
    starts = h * np.arange(n)
    ends = np.minimum(starts + h, T)
    cells = spec.value((starts + ends) / 2.0)
    return SampledPotential(h=h, cells=tuple(cells.tolist()), T=T)


def restrict(pot: SampledPotential, T: float) -> SampledPotential:
    """Restrict to ``[0, T]``; ``T`` need not sit on a cell boundary.

    An off-boundary ``T`` splits the final cell (same value, shorter width).
    Restriction composes: restricting twice equals restricting once to the
    smaller horizon.
    """
    if not T > 0.0:
        raise RangeError(f"restriction horizon T={T} outside (0, {pot.T}]")
    T = clip_to_support(pot, T, "restriction horizon T")
    n_keep = int(math.ceil(T / pot.h - _BOUNDARY_RTOL))
    n_keep = max(1, min(n_keep, len(pot.cells)))
    return SampledPotential(h=pot.h, cells=pot.cells[:n_keep], T=T)


def clip_to_support(pot: SampledPotential, t: float, what: str = "t") -> float:
    """``min(t, pot.T)``: a time up to a relative ``_BOUNDARY_RTOL`` past the
    support end is the support end; a later time is a RangeError."""
    if t > pot.T * (1.0 + _BOUNDARY_RTOL):
        raise RangeError(f"{what}={t} exceeds the horizon T={pot.T}")
    return min(t, pot.T)


# ---------------------------------------------------------------------------
# cell covers and exact cell arithmetic
# ---------------------------------------------------------------------------


def cell_cover(pot: SampledPotential, t1: float, t2: float, coalesce: bool = False):
    """Cells of ``pot`` covering ``[t1, t2]``, with partial end widths.

    A slice of the arrays the potential holds: the cells from the one holding
    ``t1`` to the first that ends at ``min(t2, pot.T)`` (less the slack).

    Args:
        pot: the potential.
        t1, t2: interval with ``0 <= t1 <= t2 <= pot.T`` (small slack allowed;
            ``t2`` may exceed ``pot.T``, the overhang is padded with a zero
            cell so propagation beyond the support is exact).
        coalesce: merge adjacent cells with equal values (exact, since equal
            cells share one generator): each run of equal cells is one
            piece, its width the run's end less its start.

    Returns:
        ``(qs, ws)``: float arrays of cell values and widths (``qs`` may be a
        read-only view); ``sum(ws)`` equals ``t2 - t1``.  Both empty when
        ``t2 == t1``.

    Raises:
        RangeError: ``t1 < 0`` or ``t2 < t1`` (beyond the slack), or a NaN bound.
    """
    if not (t1 >= -_BOUNDARY_RTOL and t2 >= t1 - _BOUNDARY_RTOL):  # NaN fails too
        raise RangeError(f"bad interval [{t1}, {t2}]")
    t1 = max(0.0, t1)
    t2 = max(t1, t2)
    qs, ends, run, run_qs, run_ends = pot._cover
    eps = _BOUNDARY_RTOL * max(1.0, t2)
    lim = min(t2, pot.T) - eps
    if t1 < lim:
        j0 = int(math.floor(t1 / pot.h + _BOUNDARY_RTOL))
        # the last cell is the first from j0 that ends at lim or later; it alone
        # can end past t2
        j1 = min(len(qs), max(j0, int(ends.searchsorted(lim))) + 1)
        pos = min(ends[j1 - 1], t2)
        if coalesce:  # the runs of cells j0 to j1 - 1, the last cut at cell j1 - 1
            r0, r1 = run[j0], run[j1 - 1] + 1
            qs, ends = run_qs[r0:r1], run_ends[r0:r1]
        else:
            qs, ends = qs[j0:j1], ends[j0:j1]
        starts = np.empty_like(ends)
        starts[0], starts[1:] = t1, ends[:-1]
        ws = ends - starts
        ws[-1] = pos - starts[-1]
        if not ws[0] > 0:  # t1 sits on the end of the first cell
            qs, ws, starts = qs[1:], ws[1:], starts[1:]
    else:
        qs, ws, pos = np.empty(0), np.empty(0), t1
    if t2 > pos + eps:  # beyond the support: potential vanishes there
        if coalesce and len(qs) and qs[-1] == 0.0:
            ws[-1] = t2 - starts[-1]
        else:
            qs, ws = np.append(qs, 0.0), np.append(ws, t2 - pos)
    return qs, ws


def _cell_sum(pot: SampledPotential, t1: float, t2: float | None, power: int) -> float:
    """``sum(q_j**power * overlap_j)`` over ``[t1, t2]`` cut to the support
    ``[0, pot.T]`` (``t2`` defaults to ``pot.T``); the potential vanishes
    past ``pot.T``."""
    t2 = pot.T if t2 is None else min(t2, pot.T)
    qs, ws = cell_cover(pot, min(t1, pot.T), t2)
    return float(np.dot(qs ** power, ws))


def l2_norm_sq(pot: SampledPotential, t1: float = 0.0, t2: float | None = None) -> float:
    """Exact squared L2 norm of the potential over ``[t1, t2]``.

    Pure cell arithmetic: ``sum(q_j^2 * overlap_j)``, no quadrature error.
    """
    return _cell_sum(pot, t1, t2, 2)


def integral(pot: SampledPotential, t1: float = 0.0, t2: float | None = None) -> float:
    """Exact signed integral of the potential over ``[t1, t2]``."""
    return _cell_sum(pot, t1, t2, 1)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def potential_to_dict(pot: SampledPotential) -> dict:
    """Serialize a sampled potential to the plain-cells JSON form."""
    return {"h": pot.h, "cells": list(pot.cells), "T": pot.T}


def potential_from_dict(data: dict) -> SampledPotential:
    """Build a potential from either JSON form.

    Accepts ``{"h":..., "cells":[...], "T":...}`` (cells verbatim) or
    ``{"family":..., "params":{...}, "h":..., "T":...}`` (sampled here);
    any other key is a ValidationError.
    """
    if not isinstance(data, dict):
        raise ValidationError(f"potential description must be an object, got {type(data)}")
    unknown = set(data) - ({"h", "cells", "T"} if "cells" in data else {"family", "params", "h", "T"})
    if unknown:
        raise ValidationError(f"unknown potential key(s) {sorted(unknown)}")
    if "cells" in data:
        if "h" not in data:
            raise ValidationError('plain-cells potential needs "h"')
        return SampledPotential(h=data["h"], cells=tuple(data["cells"]), T=data.get("T"))
    if "family" in data:
        for key in ("h", "T"):
            if key not in data:
                raise ValidationError(f'family potential needs "{key}"')
        spec = PotentialSpec(family=data["family"], params=dict(data.get("params", {})))
        return sample(spec, h=float(data["h"]), T=float(data["T"]))
    raise ValidationError('potential JSON needs either "cells" or "family"')


def load_potential(path) -> SampledPotential:
    """Read a potential from a JSON file (either schema)."""
    with open(path, "r", encoding="utf-8") as fh:
        return potential_from_dict(json.load(fh))


def save_potential(pot: SampledPotential, path) -> None:
    """Write a potential as plain-cells JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(potential_to_dict(pot), fh, indent=1)
        fh.write("\n")
