"""Contrast conic robustness with the fragility of balanced GW.

Balanced GW requires renormalizing perturbed measures, and a vanishing
amount of mass moved to a far-away point produces an arbitrarily large
distance.  The conic distance instead obeys an explicit envelope
2*delta*mass*sqrt(eps^2 + 4*eps).  This script measures both sides, and
exits 1 if a conic distance breaks its envelope or a GW value misses its
closed form.
"""

import argparse
import sys

import numpy as np

import conicot as c
from conicot.analysis import gw_fragility_demo, robustness_probe


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trials", type=int, default=5)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    pts = rng.normal(size=(6, 2))
    K = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    w = rng.uniform(0.5, 1.5, 6)
    net = c.validate_network(w / w.sum(), K)
    cfg = c.SolverConfig(kernel=c.make_kernel("exp", 0.5), seed=args.seed)

    print("conic side: distance under multiplicative weight noise")
    print(f"{'eps':>6} {'bound':>10} {'worst dist':>12} {'violations':>11}")
    violations = 0
    for eps in (0.01, 0.05, 0.1):
        out = robustness_probe(net, eps, trials=args.trials, config=cfg)
        worst = max(r["distance"] for r in out["trials"])
        print(f"{eps:6.2f} {out['bound']:10.4f} {worst:12.4f} "
              f"{out['violations']:11d}")
        violations += out["violations"]

    print()
    print("balanced GW side: clean distance 0, perturbed distance f(eps)")
    misses = 0
    for f_eps in (0.5, 2.0, 10.0):
        demo = gw_fragility_demo(eps=0.05, f_eps=f_eps)
        misses += not demo["pass"]
        print(f"  target {f_eps:6.2f}: clean={demo['clean_gw2']:.2e} "
              f"perturbed={demo['perturbed_gw2']:.4f} "
              f"(conic bound stays at {demo['cgw_robustness_bound']:.4f})")

    if violations or misses:
        print(f"FAIL: {violations} envelope violations, {misses} GW values "
              f"off their closed form")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
