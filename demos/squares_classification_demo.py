"""Classify noisy square-pattern images by conic GW distances to references.

Each image holds g axis-aligned bright squares of a fixed side length on a
dark noisy background.  Images are subsampled into binary k-NN adjacency
networks (weights proportional to pixel intensity), described by their
vector of CGW distances to a few reference networks, and classified with a
k-NN vote on those feature vectors.  Side length is the class label.

Scaled down from the full pipeline so it finishes in about a minute;
raise --count for a sharper error estimate.  The script exits 1 if the test
error at the highest label rate exceeds the error at the lowest rate: more
labels must not classify worse.
"""

import argparse
import sys
import time

import numpy as np

import conicot as c


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--count", type=int, default=15,
                    help="images per class")
    ap.add_argument("--refs", type=int, default=3,
                    help="reference networks per class")
    args = ap.parse_args()

    t0 = time.perf_counter()
    imgs = (c.gen_squares(args.count, g=4, side=3, image_size=32, seed=100)
            + c.gen_squares(args.count, g=4, side=5, image_size=32, seed=200))
    labels = np.array([0] * args.count + [1] * args.count)
    nets = [c.image_to_network(img, n_sample=60, knn=4, seed=1000 + 37 * i)
            for i, img in enumerate(imgs)]
    print(f"built {len(nets)} networks in {time.perf_counter() - t0:.1f}s")

    # binary adjacency means the factored tensor path is exact; force it
    policy = c.TensorPolicy(max_dense_bytes=16 * 60 * 60)
    cfg = c.SolverConfig(kernel=c.make_kernel("exp", 0.5), restarts=1,
                         max_iters=100, rel_tol=1e-8, tensor_policy=policy)
    refs = nets[:args.refs] + nets[args.count:args.count + args.refs]

    t0 = time.perf_counter()
    feats = np.zeros((len(nets), len(refs)))
    for i, net in enumerate(nets):
        for j, ref in enumerate(refs):
            feats[i, j] = c.cgw_solve(net, ref, cfg)[0]
    print(f"distance features in {time.perf_counter() - t0:.1f}s")

    errors = []
    for rate in (0.2, 0.5, 0.8):
        k = min(5, max(1, int(rate * len(nets)) - 1))
        err, std = c.knn_classify(feats, labels, k=k, label_rate=rate,
                                  trials=50, seed=0)
        errors.append(err)
        print(f"label rate {rate:.1f} (k={k}): test error {err:.3f} "
              f"+- {std:.3f}")

    if errors[-1] > errors[0]:
        print(f"FAIL: test error {errors[-1]:.3f} at rate 0.8 is above "
              f"{errors[0]:.3f} at rate 0.2")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
