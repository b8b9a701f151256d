"""Sweep the cone scale delta and watch CGW approach its balanced GW limit.

For unit-mass networks with small kernel diameter, the conic distance at
large delta lines up with sqrt(2C) times the (unhalved) GW L2 distortion
norm, where C is the curvature constant of the kernel profile.  Small delta
buys robustness to mass perturbations at the price of drifting away from
the balanced geometry; this script prints the trade-off as a table, and
exits 1 unless the largest delta is the closest to the reference.
"""

import argparse
import sys

import numpy as np

import conicot as c
from conicot.analysis import delta_sweep


def random_net(rng, n, diameter=1.0):
    pts = rng.normal(size=(n, 2))
    K = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    K *= diameter / K.max()
    w = rng.uniform(0.5, 1.5, n)
    return c.validate_network(w / w.sum(), K)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--n", type=int, default=5)
    ap.add_argument("--kernel", choices=["cos", "exp"], default="exp")
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    nx, ny = random_net(rng, args.n), random_net(rng, args.n)
    cfg = c.SolverConfig(kernel=c.make_kernel(args.kernel, 0.5), restarts=4,
                         seed=args.seed)
    deltas = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    out = delta_sweep(nx, ny, deltas, cfg)

    print(f"kernel={args.kernel}  GW2={out['gw2']:.6f}  "
          f"reference=sqrt(2C)*GW_l2={out['reference']:.6f}")
    print(f"{'delta':>8} {'CGW':>12} {'rel gap':>10} {'sweeps':>7} stop")
    for row in out["rows"]:
        print(f"{row['delta']:8.2f} {row['cgw']:12.6f} {row['rel_gap']:10.4f} "
              f"{row['sweeps']:7d} {row['stop']}")
    print(f"fitted constant at largest delta: {out['fitted_constant']:.4f} "
          f"(target {out['sqrt_2C']:.4f})")
    if not out["pass"]:
        print("FAIL: the largest delta is not the closest to the reference")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
