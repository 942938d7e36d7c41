#!/usr/bin/env python3
"""End-to-end CSV workflow: write a synthetic vessel track, load it back,
and smooth it with the penalised solver."""

import argparse
from pathlib import Path

from tracklasso import (
    MadmmOptions,
    TrackingProblem,
    load_track_csv,
    make_regularizer,
    make_vessel_track,
    relative_error,
    write_track_csv,
)
from tracklasso.scenarios import track_model
from tracklasso.solve import solve_problem


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--csv", type=Path, default=Path("vessel_track.csv"))
    ap.add_argument("--steps", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--mu", type=float, default=1.0)
    args = ap.parse_args()

    track = make_vessel_track(T=args.steps, seed=args.seed)
    write_track_csv(args.csv, track)
    loaded = load_track_csv(args.csv)
    for w in loaded.warnings:
        print(f"warning: {w}")

    model = track_model(loaded)
    dt = model.A[-1][0, 2]  # the median fix spacing the model steps by
    reg = make_regularizer("l2", 4, weights=args.mu,
                           target_mode="process_noise")
    prob = TrackingProblem(model=model, reg=reg, y=loaded.y)
    rep = solve_problem(prob, solver="ks_madmm",
                        opts=MadmmOptions(gamma=1.0, k_max=50))

    print(f"loaded {len(loaded.times)} fixes from {args.csv} (dt = {dt:g})")
    print(f"solved in {rep.iterations} iterations, converged = {rep.converged}")
    if track.truth is not None:
        err = relative_error(rep.x[:, :2], track.truth[:, :2])
        print(f"position error vs simulated truth: {err:.4f}")


if __name__ == "__main__":
    main()
