"""Align two synthetic single-cell-style datasets without any shared axis.

gen_aligned_hypernetworks simulates one population of cells observed under
two different feature panels (plus noise and feature dropout on one side).
Co-optimal transport recovers both the cell-to-cell and the
feature-to-feature correspondence from the raw value tables alone.  Cell
alignment quality is scored by FOSCTTM (fraction of samples closer than
the true match; 0 is perfect, 0.5 is chance), feature alignment by
row-argmax recovery of the planted feature links.  The script exits 1 if
FOSCTTM exceeds MAX_FOSCTTM or fewer than MIN_LINKS of the planted links
are recovered.
"""

import argparse
import sys
import time

import numpy as np

import conicot as c
from conicot.solver import bca_solve

MAX_FOSCTTM = 0.15
MIN_LINKS = 0.8  # fraction of the planted feature links


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--cells", type=int, default=300)
    ap.add_argument("--noise", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cfg = c.SolverConfig(kernel=c.make_kernel("exp", 0.2), restarts=2,
                         max_iters=150, rel_tol=1e-9)

    t0 = time.perf_counter()
    hx, hy, corr = c.gen_aligned_hypernetworks(args.cells, 10, 10,
                                               noise=args.noise,
                                               seed=args.seed)
    dist, quad, report = bca_solve(hx, hy, cfg)
    score = c.foscttm(np.sqrt(quad.A * quad.B), corr["cells"])
    print(f"balanced panel (10 vs 10 features): distance={dist:.4f} "
          f"FOSCTTM={score:.4f} [{time.perf_counter() - t0:.0f}s, "
          f"{report.iterations} sweeps]")

    t0 = time.perf_counter()
    hx2, hy2, corr2 = c.gen_aligned_hypernetworks(args.cells, 5, 10,
                                                  noise=args.noise,
                                                  seed=args.seed + 1)
    _, quad2, _ = bca_solve(hx2, hy2, cfg)
    feat_match = np.sqrt(quad2.Ap * quad2.Bp)
    hits = sum(int(np.argmax(feat_match[f]) == g)
               for f, g in corr2["features"])
    print(f"unbalanced panel (5 vs 10 features): recovered {hits}/"
          f"{len(corr2['features'])} planted feature links "
          f"[{time.perf_counter() - t0:.0f}s]")

    ok = True
    if score > MAX_FOSCTTM:
        print(f"FAIL: FOSCTTM {score:.4f} is above {MAX_FOSCTTM}")
        ok = False
    if hits < MIN_LINKS * len(corr2["features"]):
        print(f"FAIL: {hits} links recovered, fewer than {MIN_LINKS:.0%}")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
