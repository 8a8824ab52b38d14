#!/usr/bin/env python3
"""Horizon-convergence study on a decaying potential.

Tabulates e(s, T) = sup_{z in Q(s, C/T)} |r_T(z) - r_ref(s)| for a list of
horizons T against the reference transform at the largest horizon, over a
seeded set of center frequencies s.  The per-horizon medians are the
headline numbers: for square-integrable decay they should fall as T grows.

Example:
    python3 scripts/run_convergence_study.py --h 0.05 \
        --horizons 50 100 200 400 --n-freq 8
"""

import argparse

import numpy as np

from diracnlft.experiments import run_convergence
from diracnlft.potential import PotentialSpec, sample
from diracnlft.reporting import write_csv


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", default="powerlaw",
                    choices=("powerlaw", "damped_cosine", "box", "constant"))
    ap.add_argument("--q", type=float, default=0.5, help="amplitude")
    ap.add_argument("--p", type=float, default=0.75,
                    help="decay exponent (> 0.5) for the decaying families")
    ap.add_argument("--h", type=float, default=0.05, help="cell width")
    ap.add_argument("--horizons", type=float, nargs="+",
                    default=[50.0, 100.0, 200.0, 400.0])
    ap.add_argument("--n-freq", type=int, default=8,
                    help="number of seeded center frequencies")
    ap.add_argument("--smax", type=float, default=5.0,
                    help="frequencies drawn uniformly from [-smax, smax]")
    ap.add_argument("--C", type=float, default=4.0,
                    help="box constant; boxes are Q(s, C/T)")
    ap.add_argument("--box-samples", type=int, default=16)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="converge.csv")
    args = ap.parse_args(argv)

    params = {"q": args.q}
    if args.family in ("powerlaw", "damped_cosine"):
        params["p"] = args.p
    if args.family == "box":
        params["t0"] = 1.0
    T = max(args.horizons)
    pot = sample(PotentialSpec(family=args.family, params=params), h=args.h, T=T)

    rng = np.random.default_rng(args.seed)
    s_list = sorted(rng.uniform(-args.smax, args.smax, args.n_freq))
    table = run_convergence(pot, s_list, args.horizons, args.C,
                            box_samples=args.box_samples)

    rows = [
        (s, Tj, table.err[i, j])
        for i, s in enumerate(table.s_list)
        for j, Tj in enumerate(table.T_list)
    ]
    write_csv(args.out, ("s", "T", "err"), rows,
              {"C": args.C, "reference_T": table.r_ref_T, "seed": args.seed})

    med = table.median_err()
    print(f"{args.family} potential, {args.n_freq} frequencies, "
          f"reference T = {table.r_ref_T:g}")
    for Tj, m in zip(table.T_list, med):
        print(f"  T = {Tj:7.1f}   median e(s, T) = {m:.6f}")
    for s, Tj, msg in table.failures:
        print(f"  warning: (s={s:g}, T={Tj:g}) failed: {msg}")
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
