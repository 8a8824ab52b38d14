#!/usr/bin/env python3
"""Reproducing-kernel universality sweep for a compactly supported bump.

For growing times t, compares the de Branges kernel on the square
Q(s, C/t) against the rescaled sinc kernel S/w(s) and reports the gap
max |K - S/w| / t, together with the best admissible model fit of E on the
box (sine fit where a resonance sits above the box, exponential otherwise).

Example:
    python3 scripts/run_universality_sweep.py --q 0.3 --times 8 16 32 64
"""

import argparse

import numpy as np

from diracnlft.debranges import estimate_w, hb_fit, kernel_probe
from diracnlft.errors import PreconditionError
from diracnlft.potential import PotentialSpec, SampledPotential, sample
from diracnlft.reporting import write_csv


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q", type=float, default=0.3, help="bump height")
    ap.add_argument("--support", type=float, default=1.0,
                    help="bump support is [0, support]")
    ap.add_argument("--h", type=float, default=0.01)
    ap.add_argument("--times", type=float, nargs="+",
                    default=[8.0, 16.0, 32.0, 64.0])
    ap.add_argument("--s", type=float, default=0.5, help="center frequency")
    ap.add_argument("--C", type=float, default=4.0)
    ap.add_argument("--grid-n", type=int, default=16)
    ap.add_argument("--out", default="kernels.csv")
    args = ap.parse_args(argv)

    T = max(args.times)
    base = sample(PotentialSpec(family="box",
                                params={"q": args.q, "t0": args.support}),
                  h=args.h, T=args.support)
    pad = int(np.ceil((T - args.support) / args.h)) + 1
    pot = SampledPotential(h=args.h, cells=base.cells + (0.0,) * pad)

    window = (max(args.support, 0.6 * pot.T), pot.T)
    w_hat, spread = estimate_w(pot, args.s, window, 8)
    print(f"w_hat(s={args.s:g}) = {w_hat:.6f}  (checkpoint spread {spread:.2e})")

    cols = ("t", "s", "C", "w_hat", "gap", "fit_kind", "re_alpha", "im_alpha",
            "x", "y", "residual")
    rows = []
    for t in args.times:
        probe = kernel_probe(pot, args.s, t, args.C, w_hat=w_hat,
                             grid_n=args.grid_n)
        try:
            fit = hb_fit(pot, probe)
            fit_kind, alpha = fit.kind, fit.alpha
            x, y, residual = fit.x, fit.y, fit.residual
        except PreconditionError:
            fit_kind, alpha = "none", complex(np.nan, np.nan)
            x = y = residual = np.nan
        rows.append((t, args.s, args.C, w_hat, probe.gap, fit_kind,
                     alpha.real, alpha.imag, x, y, residual))
        print(f"  t = {t:6.1f}   gap = {probe.gap:10.4f}   fit = {fit_kind:4s}"
              f"   residual = {residual:.3e}")

    write_csv(args.out, cols, rows, {"w_spread": spread})
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
