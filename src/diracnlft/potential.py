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
from dataclasses import dataclass, field

import numpy as np

from .errors import RangeError, ValidationError

__all__ = [
    "PotentialSpec",
    "SampledPotential",
    "SigmaInterval",
    "FAMILIES",
    "sample",
    "restrict",
    "l2_norm_sq",
    "integral",
    "abs_integral",
    "sigma_intervals",
    "cell_cover",
    "potential_from_dict",
    "potential_to_dict",
    "load_potential",
    "save_potential",
]

FAMILIES = ("zero", "constant", "box", "powerlaw", "damped_cosine", "custom_samples")

#: Families whose tail decays like (1+t)^(-p); they require p > 1/2 so the
#: potential is square integrable on the half-line.
_DECAY_FAMILIES = ("powerlaw", "damped_cosine")

_BOUNDARY_RTOL = 1e-9  # slack when deciding whether t sits on a cell boundary


@dataclass(frozen=True)
class PotentialSpec:
    """Description of an analytic potential family.

    Args:
        family: one of :data:`FAMILIES`.
        params: real parameters; recognised keys are ``q`` (amplitude),
            ``t0`` (support end for ``box``), ``p`` (decay exponent) and
            ``omega`` (oscillation frequency).
        description: free-form note, carried through to serialized form.
        samples: explicit cell values, only for ``family="custom_samples"``.
    """

    family: str
    params: dict = field(default_factory=dict)
    description: str = ""
    samples: tuple = ()

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(
                f"unknown potential family {self.family!r}; expected one of {FAMILIES}"
            )
        for key, val in self.params.items():
            if not isinstance(val, (int, float)) or not math.isfinite(val):
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
        if self.family == "custom_samples":
            if len(self.samples) == 0:
                raise ValidationError("custom_samples requires a non-empty samples tuple")
            object.__setattr__(self, "samples", tuple(float(v) for v in self.samples))
            if not all(math.isfinite(v) for v in self.samples):
                raise ValidationError("custom samples must be finite")
        elif len(self.samples) > 0:
            raise ValidationError(f"family {self.family!r} does not take explicit samples")

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
        if self.family == "damped_cosine":
            p = float(self.params["p"])
            omega = float(self.params.get("omega", 1.0))
            return q * (1.0 + t) ** (-p) * np.cos(omega * t)
        raise ValidationError(f"family {self.family!r} has no pointwise form")


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

    def __post_init__(self):
        if not (isinstance(self.h, (int, float)) and self.h > 0 and math.isfinite(self.h)):
            raise ValidationError(f"cell width h must be positive and finite, got {self.h!r}")
        object.__setattr__(self, "h", float(self.h))
        cells = tuple(float(c) for c in self.cells)
        if len(cells) == 0:
            raise ValidationError("a potential needs at least one cell")
        if not all(math.isfinite(c) for c in cells):
            raise ValidationError("cells must be finite reals")
        object.__setattr__(self, "cells", cells)
        n = len(cells)
        T = self.T
        if T is None:
            T = n * self.h
        T = float(T)
        hi = n * self.h
        lo = (n - 1) * self.h
        slack = _BOUNDARY_RTOL * max(1.0, hi)
        if not (lo < T <= hi + slack):
            raise ValidationError(
                f"support end T={T} inconsistent with {n} cells of width {self.h} "
                f"(need {lo} < T <= {hi})"
            )
        object.__setattr__(self, "T", min(T, hi))

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def cell_widths(self) -> np.ndarray:
        """Width of every cell; the last may be shorter than ``h``."""
        n = len(self.cells)
        w = np.full(n, self.h)
        w[-1] = self.T - (n - 1) * self.h
        return w

    def value(self, t):
        """Pointwise value (vectorized); zero outside ``[0, T)``."""
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.floor(t / self.h).astype(int), 0, len(self.cells) - 1)
        vals = np.asarray(self.cells)[idx]
        return np.where((t >= 0.0) & (t < self.T), vals, 0.0)


@dataclass(frozen=True)
class SigmaInterval:
    """A cell-aligned interval on which the potential barely changes sign.

    On ``[t1, t2]`` the signed integral nearly exhausts the mass:
    ``|int f| >= (1 - sigma) * int |f|`` with ``mass = int |f| >= min_mass``.
    """

    t1: float
    t2: float
    sigma: float
    mass: float


# ---------------------------------------------------------------------------
# construction / sampling
# ---------------------------------------------------------------------------


def sample(spec: PotentialSpec, h: float, T: float) -> SampledPotential:
    """Sample an analytic family onto a uniform cell grid (midpoint rule).

    Cell ``j`` holds the family's value at the midpoint of its (possibly
    truncated) interval.  ``custom_samples`` passes its stored cells through
    unchanged, truncated to ``T``.

    Args:
        spec: family description.
        h: cell width, > 0.
        T: support horizon, >= h.

    Returns:
        The sampled potential with ``pot.T == T``.
    """
    if h <= 0:
        raise ValidationError(f"h must be > 0, got {h}")
    if T < h:
        raise ValidationError(f"need T >= h, got T={T}, h={h}")
    n = int(math.ceil(T / h - _BOUNDARY_RTOL))
    if spec.family == "custom_samples":
        if n > len(spec.samples):
            raise ValidationError(
                f"custom_samples holds {len(spec.samples)} cells but T={T}, h={h} needs {n}"
            )
        return SampledPotential(h=h, cells=spec.samples[:n], T=T)
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
    if not (0.0 < T <= pot.T * (1.0 + _BOUNDARY_RTOL)):
        raise RangeError(f"restriction horizon T={T} outside (0, {pot.T}]")
    T = min(T, pot.T)
    n_keep = int(math.ceil(T / pot.h - _BOUNDARY_RTOL))
    n_keep = max(1, min(n_keep, len(pot.cells)))
    return SampledPotential(h=pot.h, cells=pot.cells[:n_keep], T=T)


# ---------------------------------------------------------------------------
# cell covers and exact cell arithmetic
# ---------------------------------------------------------------------------


def cell_cover(pot: SampledPotential, t1: float, t2: float, coalesce: bool = False):
    """Cells of ``pot`` covering ``[t1, t2]``, with partial end widths.

    Args:
        pot: the potential.
        t1, t2: interval with ``0 <= t1 <= t2 <= pot.T`` (small slack allowed;
            ``t2`` may exceed ``pot.T``, the overhang is padded with a zero
            cell so propagation beyond the support is exact).
        coalesce: merge adjacent cells with equal values (exact, since equal
            cells share one generator).

    Returns:
        ``(qs, ws)``: float arrays of cell values and widths; ``sum(ws)``
        equals ``t2 - t1``.  Both empty when ``t2 == t1``.
    """
    if t1 < -_BOUNDARY_RTOL or t2 < t1 - _BOUNDARY_RTOL:
        raise RangeError(f"bad interval [{t1}, {t2}]")
    t1 = max(0.0, t1)
    t2 = max(t1, t2)
    qs_a, ws_a = np.empty(0), np.empty(0)
    if t2 > t1:
        h = pot.h
        eps = _BOUNDARY_RTOL * max(1.0, t2)
        lim = min(t2, pot.T)
        # Cell int(lim / h) ends past lim, so no later cell is reached.
        j0 = int(math.floor(t1 / h + _BOUNDARY_RTOL))
        j1 = max(j0, min(len(pot.cells), int(lim / h) + 2))
        js = np.arange(j0, j1)
        ends = np.minimum(js * h + pot.cell_widths()[j0:j1], t2)
        starts = np.concatenate(([t1], ends[:-1]))
        # Cells are visited up to the first that starts at lim - eps or later.
        late = starts >= lim - eps
        n_in = int(np.argmax(late)) if late.any() else len(js)
        keep = ends[:n_in] > starts[:n_in]
        qs_a = np.asarray(pot.cells[j0:j0 + n_in], dtype=float)[keep]
        ws_a = (ends - starts)[:n_in][keep]
        pos = ends[n_in - 1] if n_in else t1
        if t2 > pos + eps:  # beyond the support: potential vanishes there
            qs_a, ws_a = np.append(qs_a, 0.0), np.append(ws_a, t2 - pos)
    if coalesce and len(qs_a) > 1:
        keep = np.empty(len(qs_a), dtype=bool)
        keep[0] = True
        keep[1:] = qs_a[1:] != qs_a[:-1]
        group = np.cumsum(keep) - 1
        ws_a = np.bincount(group, weights=ws_a)
        qs_a = qs_a[keep]
    return qs_a, ws_a


def l2_norm_sq(pot: SampledPotential, t1: float = 0.0, t2: float | None = None) -> float:
    """Exact squared L2 norm of the potential over ``[t1, t2]``.

    Pure cell arithmetic: ``sum(q_j^2 * overlap_j)``, no quadrature error.
    """
    if t2 is None:
        t2 = pot.T
    qs, ws = cell_cover(pot, t1, min(t2, pot.T))
    return float(np.dot(qs * qs, ws))


def integral(pot: SampledPotential, t1: float = 0.0, t2: float | None = None) -> float:
    """Exact signed integral of the potential over ``[t1, t2]``."""
    if t2 is None:
        t2 = pot.T
    qs, ws = cell_cover(pot, t1, min(t2, pot.T))
    return float(np.dot(qs, ws))


def abs_integral(pot: SampledPotential, t1: float = 0.0, t2: float | None = None) -> float:
    """Exact integral of ``|f|`` over ``[t1, t2]``."""
    if t2 is None:
        t2 = pot.T
    qs, ws = cell_cover(pot, t1, min(t2, pot.T))
    return float(np.dot(np.abs(qs), ws))


# ---------------------------------------------------------------------------
# sign-coherent intervals
# ---------------------------------------------------------------------------


def sigma_intervals(pot: SampledPotential, sigma: float, min_mass: float):
    """Greedy left-to-right decomposition into sign-coherent intervals.

    Scanning cell boundaries left to right, each interval is extended while
    ``|int f| >= (1 - sigma) * int |f|`` still holds, i.e. it is the maximal
    prefix extension from its start.  Intervals with mass below ``min_mass``
    are dropped (scan resumes one cell later), so the result is a disjoint,
    increasing list.

    Args:
        pot: the potential.
        sigma: sign-coherence slack in [0, 1).
        min_mass: smallest acceptable ``int |f|``; must be > 0.

    Returns:
        list of :class:`SigmaInterval`, ordered by ``t1``.
    """
    if not (0.0 <= sigma < 1.0):
        raise ValidationError(f"sigma must lie in [0, 1), got {sigma}")
    if min_mass <= 0.0:
        raise ValidationError(f"min_mass must be > 0, got {min_mass}")
    widths = pot.cell_widths()
    qs = np.asarray(pot.cells)
    n = len(qs)
    out: list[SigmaInterval] = []
    i = 0
    while i < n:
        signed = 0.0
        mass = 0.0
        j = i
        while j < n:
            s2 = signed + qs[j] * widths[j]
            m2 = mass + abs(qs[j]) * widths[j]
            if abs(s2) >= (1.0 - sigma) * m2:
                signed, mass = s2, m2
                j += 1
            else:
                break
        if j > i and mass >= min_mass:
            t2 = min(j * pot.h, pot.T)
            out.append(SigmaInterval(t1=i * pot.h, t2=float(t2), sigma=sigma, mass=mass))
            i = j
        else:
            i += 1
    return out


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def potential_to_dict(pot: SampledPotential) -> dict:
    """Serialize a sampled potential to the plain-cells JSON form."""
    return {"h": pot.h, "cells": list(pot.cells), "T": pot.T}


def potential_from_dict(data: dict) -> SampledPotential:
    """Build a potential from either JSON form.

    Accepts ``{"h":..., "cells":[...], "T":...}`` (cells verbatim) or
    ``{"family":..., "params":{...}, "h":..., "T":...}`` (sampled here).
    """
    if not isinstance(data, dict):
        raise ValidationError(f"potential description must be an object, got {type(data)}")
    if "cells" in data:
        if "h" not in data:
            raise ValidationError('plain-cells potential needs "h"')
        return SampledPotential(h=data["h"], cells=tuple(data["cells"]), T=data.get("T"))
    if "family" in data:
        for key in ("h", "T"):
            if key not in data:
                raise ValidationError(f'family potential needs "{key}"')
        spec = PotentialSpec(
            family=data["family"],
            params=dict(data.get("params", {})),
            description=data.get("description", ""),
            samples=tuple(data.get("samples", ())),
        )
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
