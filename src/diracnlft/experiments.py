"""Desk-scale studies of the long-horizon behaviour of the transform.

Two experiments:

* ``run_convergence`` measures the Cauchy behaviour of the reflection
  coefficient under horizon truncation: e(s, T) is the sup of
  ``|r_T(z) - r_ref(s)|`` over a deterministic low-discrepancy sample of
  the shrinking box ``|z - s| < C/T`` (upper half only), with the largest
  requested horizon standing in for the unreachable limit.

* ``limit_identities`` compares the modulus limits of a, b, and E at a
  single frequency against the predictions built from the estimated
  spectral densities; for compactly supported potentials both sides are
  frozen past the support, which makes the comparison exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .debranges import estimate_w
from .errors import DiracNLFTError, NumericalError, ValidationError
from .nlft import nlft_forward
from .potential import SampledPotential, clip_to_support
from .propagator import hermite_biehler, transfer

__all__ = [
    "ConvergenceTable",
    "LimitReport",
    "run_convergence",
    "limit_identities",
    "box_sample_points",
]


@dataclass(frozen=True)
class ConvergenceTable:
    """e(s, T) matrix against the largest-horizon reference."""

    s_list: tuple
    T_list: tuple
    C: float
    err: np.ndarray  # shape (len(s_list), len(T_list))
    r_ref_T: float
    box_samples: int
    failures: tuple = ()  # of (s, T, message)

    def to_dict(self) -> dict:
        return {
            "s": list(self.s_list),
            "T": list(self.T_list),
            "C": self.C,
            "err": [[float(v) for v in row] for row in self.err],
            "reference_T": self.r_ref_T,
        }

    def median_err(self) -> np.ndarray:
        """Median over s of e(s, T), one value per horizon."""
        return np.nanmedian(self.err, axis=0)


@dataclass(frozen=True)
class LimitReport:
    """Predicted vs observed moduli of a, b, E at one frequency."""

    s: float
    w_hat: float
    w_tilde_hat: float
    abs_a_pred: float
    abs_b_pred: float
    abs_a_obs: float
    abs_b_obs: float
    abs_E_obs: float
    abs_Etilde_obs: float
    status: str = "ok"  # ok | inconclusive
    w_spread: float = 0.0
    w_tilde_spread: float = 0.0


def _halton(index: int, base: int) -> float:
    f, r = 1.0, 0.0
    i = index
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def box_sample_points(s: float, half_width: float, n: int, seed: int = 0) -> np.ndarray:
    """Deterministic sample of the upper-half box around s.

    Halton(2, 3) pattern offset by ``seed``; every fourth point is placed
    on the real segment so the a.e.-real statement is probed alongside the
    box-uniform one.
    """
    if n < 1:
        raise ValidationError(f"need n >= 1 box samples, got {n}")
    pts = np.empty(n, dtype=complex)
    for k in range(n):
        u = _halton(k + 1 + seed, 2)
        v = _halton(k + 1 + seed, 3)
        re = s + (2.0 * u - 1.0) * half_width
        pts[k] = re if k % 4 == 0 else re + 1j * v * half_width
    return pts


def run_convergence(
    pot: SampledPotential,
    s_list,
    T_list,
    C: float,
    box_samples: int = 16,
) -> ConvergenceTable:
    """Tabulate e(s, T) = sup over the box sample of |r_T(z) - r_ref(s)|.

    The reference is the largest horizon in ``T_list``; numerical failures
    mark their (s, T) cell NaN and are reported in ``failures`` instead of
    aborting the rest of the table.  The sampling pattern is fixed per box,
    so the table is bitwise reproducible.
    """
    s_arr = [float(s) for s in s_list]
    T_arr = sorted(float(T) for T in T_list)
    if not s_arr or not T_arr:
        raise ValidationError("s_list and T_list must be non-empty")
    if C <= 0:
        raise ValidationError(f"need C > 0, got {C}")
    if T_arr[0] <= 0:
        raise ValidationError(f"horizons must be > 0, got {T_arr[0]}")
    T_ref = T_arr[-1]
    clip_to_support(pot, T_ref, "largest horizon")
    ns, nT = len(s_arr), len(T_arr)
    err = np.full((ns, nT), np.nan)
    failures: list = []

    # reference values r_ref(s_i) at the centers
    try:
        ref = nlft_forward(pot, T=T_ref, grid=np.array(s_arr, dtype=complex))
        r_ref = ref.r
    except DiracNLFTError as exc:
        raise NumericalError(f"reference horizon failed: {exc}") from exc

    boxes = [
        box_sample_points(s, C / T, box_samples, seed=17 * i + j)
        for j, T in enumerate(T_arr)
        for i, s in enumerate(s_arr)
    ]
    for j, T in enumerate(T_arr):
        try:
            sd = nlft_forward(pot, T=T, grid=np.concatenate(boxes[j * ns:(j + 1) * ns]))
        except DiracNLFTError as exc:
            for s in s_arr:
                failures.append((s, T, str(exc)))
            continue
        for i, s in enumerate(s_arr):
            r_box = sd.r[i * box_samples:(i + 1) * box_samples]
            dev = np.abs(r_box - r_ref[i])
            if not np.all(np.isfinite(dev)):
                failures.append((s, T, "non-finite reflection value in box"))
                continue
            err[i, j] = float(np.max(dev))
    return ConvergenceTable(
        s_list=tuple(s_arr), T_list=tuple(T_arr), C=float(C), err=err,
        r_ref_T=T_ref, box_samples=box_samples, failures=tuple(failures),
    )


def limit_identities(
    pot: SampledPotential,
    s: float,
    t_window: tuple,
) -> LimitReport:
    """Check the modulus limit formulas for a, b, E at one frequency.

    Predictions ``|a| = sqrt(1/w + 1/wt + 2)/2`` and
    ``|b| = sqrt(1/w + 1/wt - 2)/2`` from the estimated densities are
    compared with the observed values at the window end, each density
    estimated from 8 sample times of the window.  When either estimate has
    spread 0.05 or more the report is marked ``inconclusive`` rather than
    failing.
    """
    w_hat, w_spread = estimate_w(pot, s, t_window, 8, component="E")
    wt_hat, wt_spread = estimate_w(pot, s, t_window, 8, component="Etilde")
    inner = 1.0 / w_hat + 1.0 / wt_hat
    abs_a_pred = 0.5 * np.sqrt(inner + 2.0)
    abs_b_pred = 0.5 * np.sqrt(max(inner - 2.0, 0.0))
    T_end = float(t_window[1])
    sd = nlft_forward(pot, T=T_end, grid=np.array([s], dtype=complex))
    hb = hermite_biehler(transfer(pot, float(s), T_end))
    status = "ok" if max(w_spread, wt_spread) < 0.05 else "inconclusive"
    return LimitReport(
        s=float(s),
        w_hat=w_hat,
        w_tilde_hat=wt_hat,
        abs_a_pred=float(abs_a_pred),
        abs_b_pred=float(abs_b_pred),
        abs_a_obs=float(np.abs(sd.a[0])),
        abs_b_obs=float(np.abs(sd.b[0])),
        abs_E_obs=float(abs(hb.E)),
        abs_Etilde_obs=float(abs(hb.Etilde)),
        status=status,
        w_spread=float(w_spread),
        w_tilde_spread=float(wt_spread),
    )
