#!/usr/bin/env python3
"""Resonance trajectory study: locate zeros of theta and follow their flow.

Finds all zeros of the inner function in an upper-half-plane box at time t0
(argument-principle search + Newton polish), integrates each along
z' = -f(t)/theta_z up to t1, and labels maximal near-vertical (V) and
near-horizontal (H) stretches of every trajectory.

Example:
    python3 scripts/run_resonance_flow.py --q 1.0 --t0 2 --t1 4
"""

import argparse

from diracnlft.potential import PotentialSpec, sample
from diracnlft.reporting import write_csv
from diracnlft.resonance import Box, classify_track, find_zeros, track_resonance, track_rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q", type=float, default=1.0, help="constant amplitude")
    ap.add_argument("--h", type=float, default=0.01)
    ap.add_argument("--t0", type=float, default=2.0)
    ap.add_argument("--t1", type=float, default=4.0)
    ap.add_argument("--dt", type=float, default=0.01)
    ap.add_argument("--box-center", type=float, default=0.0)
    ap.add_argument("--box-half", type=float, default=2.0)
    ap.add_argument("--grid-n", type=int, default=24)
    ap.add_argument("--out", default="resonance.csv")
    args = ap.parse_args(argv)

    pot = sample(PotentialSpec(family="constant", params={"q": args.q}),
                 h=args.h, T=args.t1)
    box = Box(s=args.box_center, half_width=args.box_half, grid_n=args.grid_n)
    zeros = find_zeros(pot, args.t0, box)
    print(f"{len(zeros)} zero(s) of theta at t0 = {args.t0:g} in "
          f"[{box.s - box.half_width:g}, {box.s + box.half_width:g}] x "
          f"(0, {box.half_width:g}]")

    cols = ("t", "re_z", "im_z", "re_theta_z", "im_theta_z", "residual", "label")
    rows = []
    for z0, _ in zeros:
        track = track_resonance(pot, z0, args.t0, args.t1, args.dt)
        if len(track.samples) >= 3:
            desc = ", ".join(f"{seg.label}[{seg.t1:.2f},{seg.t2:.2f}]"
                             for seg in classify_track(track)) or "unclassified"
        else:
            desc = "too short to classify"
        print(f"  z(t0) = {z0:.6f}  ->  z(t_end) = {track.samples[-1][1]:.6f}"
              f"  [{track.status}]  segments: {desc}")
        rows += track_rows(track)

    write_csv(args.out, cols, rows, {"t0": args.t0, "t1": args.t1})
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
