"""Command-line interface.

Results go to standard output as JSON (CSV for bench), diagnostics to the
error stream. Every run writes a run_manifest.json next to --output (or in
the working directory) recording the command, arguments, seed, configuration,
input hashes, and wall time. Exit codes: 0 success, 1 validation error,
2 verification assertion failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .analysis import (
    delta_sweep,
    gw_fragility_demo,
    robustness_probe,
    verify_bound_sandwich,
    verify_scaling,
    weak_iso_probe,
)
from .baselines import BaselineConfig, cot_solve, gw2_solve
from .cone import make_kernel
from .core import (
    DiscreteMeasureHypernetwork,
    DiscreteMeasureNetwork,
    embed_network_as_hypernetwork,
    load_json,
)
from .data import (
    gen_aligned_hypernetworks,
    gen_squares,
    image_to_network,
    knn_classify,
)
from .errors import ConicotError
from .solver import SolverConfig, bca_solve, cgw_solve
from .tensor import TensorPolicy
from .uot import cgw_lower_bound


def _add_common(p):
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--kernel", choices=["cos", "exp"], default="exp")
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quantize", default="64",
                   help="number of value bins for the factored path, or 'off' "
                        "to force dense storage")
    p.add_argument("--output", default=None)
    p.add_argument("--trace", default=None)


def build_parser():
    ap = argparse.ArgumentParser(prog="conicot")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    for name, nargs in (("ccot", 2), ("cgw", 2), ("gw2", 2), ("cot", 2),
                        ("uot-bound", 2)):
        p = sub.add_parser(name)
        p.add_argument("inputs", nargs=nargs)
        _add_common(p)

    p = sub.add_parser("delta-sweep")
    p.add_argument("inputs", nargs=2)
    p.add_argument("--deltas", default="0.5,1,2,4,8,16,32")
    p.add_argument("--csv", default=None)
    _add_common(p)

    p = sub.add_parser("verify")
    p.add_argument("probe", choices=["scaling", "bounds", "robustness",
                                     "weakiso", "fragility"])
    p.add_argument("inputs", nargs="*")
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--f-eps", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=10)
    _add_common(p)

    p = sub.add_parser("gen-squares")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--g", type=int, default=4)
    p.add_argument("--side", type=int, default=3)
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--dir", default=".")
    _add_common(p)

    p = sub.add_parser("img2net")
    p.add_argument("inputs", nargs=1)
    p.add_argument("--n-sample", type=int, default=60)
    p.add_argument("--knn", type=int, default=4)
    _add_common(p)

    p = sub.add_parser("gen-aligned")
    p.add_argument("--cells", type=int, default=500)
    p.add_argument("--feat-x", type=int, default=10)
    p.add_argument("--feat-y", type=int, default=10)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--downsample", type=float, default=1.0)
    p.add_argument("--dir", default=".")
    _add_common(p)

    p = sub.add_parser("classify")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--k", type=int, default=15)
    p.add_argument("--label-rate", type=float, default=0.8)
    p.add_argument("--trials", type=int, default=100)
    _add_common(p)

    p = sub.add_parser("bench")
    p.add_argument("--sizes", default="20,60")
    _add_common(p)
    return ap


def _policy(args) -> TensorPolicy:
    if str(args.quantize).lower() == "off":
        return TensorPolicy(max_dense_bytes=1 << 62)
    return TensorPolicy(quantize_bins=int(args.quantize))


def _config(args) -> SolverConfig:
    return SolverConfig(
        kernel=make_kernel(args.kernel, args.delta),
        max_iters=args.max_iters,
        rel_tol=args.tol,
        restarts=args.restarts,
        seed=args.seed,
        tensor_policy=_policy(args),
    )


def _hash_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        h.update(f.read())
    return h.hexdigest()


def _write_manifest(args, argv, t0):
    inputs = list(getattr(args, "inputs", []) or [])
    for extra in ("features", "labels"):
        v = getattr(args, extra, None)
        if v:
            inputs.append(v)
    manifest = {
        "command": args.command,
        "argv": argv,
        "seed": getattr(args, "seed", None),
        "config": {
            k: getattr(args, k)
            for k in ("delta", "kernel", "max_iters", "tol", "restarts",
                      "quantize")
            if hasattr(args, k)
        },
        "tool_version": __version__,
        "input_hashes": {p: _hash_file(p) for p in inputs if os.path.exists(p)},
        "wall_time": time.perf_counter() - t0,
    }
    out_dir = os.path.dirname(args.output) if getattr(args, "output", None) else "."
    path = os.path.join(out_dir or ".", "run_manifest.json")
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2)


def _emit(args, obj):
    text = json.dumps(obj, indent=2, sort_keys=True)
    print(text)
    if getattr(args, "output", None):
        with open(args.output, "w") as f:
            f.write(text + "\n")


def _load_two_hyper(paths):
    pair = []
    for p in paths:
        obj = load_json(p)
        if isinstance(obj, DiscreteMeasureNetwork):
            obj = embed_network_as_hypernetwork(obj)
        pair.append(obj)
    return pair


def _load_two_networks(paths):
    pair = []
    for p in paths:
        obj = load_json(p)
        if not isinstance(obj, DiscreteMeasureNetwork):
            raise ConicotError(f"{p} is not a measure network")
        pair.append(obj)
    return pair


def _write_trace(args, report):
    if getattr(args, "trace", None):
        with open(args.trace, "w") as f:
            json.dump({"objective_trace": report.objective_trace,
                       "frobenius_gap_trace": report.frobenius_gap_trace}, f)


def bench_runner(sizes, args):
    """Timed cgw_solve runs on seeded square-image networks of growing size."""
    rows = ["size,iters,seconds,distance"]
    config = _config(args)
    for n in sizes:
        imgs = gen_squares(2, g=4, side=3, image_size=32, seed=args.seed)
        na = image_to_network(imgs[0], n_sample=n, knn=4, seed=args.seed)
        nb = image_to_network(imgs[1], n_sample=n, knn=4, seed=args.seed + 1)
        # force the factored path: budget admits indicators but not the dense tensor
        policy = TensorPolicy(max_dense_bytes=16 * n * n,
                              quantize_bins=config.tensor_policy.quantize_bins)
        cfg = dataclasses.replace(config, tensor_policy=policy, restarts=1)
        t0 = time.perf_counter()
        dist, report = cgw_solve(na, nb, cfg)
        dt = time.perf_counter() - t0
        rows.append(f"{n},{report.iterations},{dt:.3f},{dist:.9f}")
    return "\n".join(rows)


def run_command(argv) -> int:
    t0 = time.perf_counter()
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("ccot", "cgw"):
            if args.command == "cgw":
                nets = _load_two_networks(args.inputs)
                dist, report = cgw_solve(nets[0], nets[1], _config(args))
            else:
                hx, hy = _load_two_hyper(args.inputs)
                dist, _, report = bca_solve(hx, hy, _config(args))
            _write_trace(args, report)
            _emit(args, report.to_json_dict())
        elif args.command == "gw2":
            nets = _load_two_networks(args.inputs)
            value, _ = gw2_solve(nets[0], nets[1],
                                 BaselineConfig(seed=args.seed,
                                                restarts=args.restarts,
                                                max_iters=args.max_iters))
            _emit(args, {"distance": value, "config": {"seed": args.seed}})
        elif args.command == "cot":
            hx, hy = _load_two_hyper(args.inputs)
            value, _, _ = cot_solve(hx, hy, BaselineConfig(seed=args.seed,
                                                           max_iters=args.max_iters))
            _emit(args, {"distance": value, "config": {"seed": args.seed}})
        elif args.command == "uot-bound":
            nets = _load_two_networks(args.inputs)
            rep = cgw_lower_bound(nets[0], nets[1],
                                  make_kernel(args.kernel, args.delta),
                                  max_iters=args.max_iters)
            _emit(args, {"distance": rep.value, "objective": rep.objective,
                         "iterations": rep.iterations, "converged": rep.converged,
                         "config": {"delta": args.delta, "kernel": args.kernel}})
        elif args.command == "delta-sweep":
            nets = _load_two_networks(args.inputs)
            deltas = [float(x) for x in args.deltas.split(",")]
            table = delta_sweep(nets[0], nets[1], deltas, _config(args))
            if args.csv:
                with open(args.csv, "w") as f:
                    f.write("delta,cgw,reference,rel_gap\n")
                    for row in table["rows"]:
                        f.write("{delta},{cgw},{reference},{rel_gap}\n".format(**row))
            _emit(args, table)
        elif args.command == "verify":
            report = _run_verify(args)
            _emit(args, report)
            if not report.get("pass", False):
                _write_manifest(args, list(argv), t0)
                return 2
        elif args.command == "gen-squares":
            imgs = gen_squares(args.count, g=args.g, side=args.side,
                               image_size=args.size, seed=args.seed)
            os.makedirs(args.dir, exist_ok=True)
            paths = []
            for i, img in enumerate(imgs):
                p = os.path.join(args.dir, f"square_{i:04d}.csv")
                np.savetxt(p, img, delimiter=",")
                paths.append(p)
            _emit(args, {"written": paths, "seed": args.seed,
                         "params": {"count": args.count, "g": args.g,
                                    "side": args.side, "size": args.size}})
        elif args.command == "img2net":
            img = np.loadtxt(args.inputs[0], delimiter=",")
            net = image_to_network(img, n_sample=args.n_sample, knn=args.knn,
                                   seed=args.seed)
            _emit(args, net.to_json_dict())
        elif args.command == "gen-aligned":
            hx, hy, corr = gen_aligned_hypernetworks(
                args.cells, args.feat_x, args.feat_y, noise=args.noise,
                downsample_y=args.downsample, seed=args.seed)
            os.makedirs(args.dir, exist_ok=True)
            px = os.path.join(args.dir, "aligned_hx.json")
            py = os.path.join(args.dir, "aligned_hy.json")
            pc = os.path.join(args.dir, "aligned_correspondence.json")
            with open(px, "w") as f:
                json.dump(hx.to_json_dict(), f)
            with open(py, "w") as f:
                json.dump(hy.to_json_dict(), f)
            with open(pc, "w") as f:
                json.dump({"cells": corr["cells"], "features": corr["features"]}, f)
            _emit(args, {"written": [px, py, pc]})
        elif args.command == "classify":
            feats = np.loadtxt(args.features, delimiter=",", ndmin=2)
            labels = np.loadtxt(args.labels, delimiter=",").astype(int)
            mean, std = knn_classify(feats, labels, k=args.k,
                                     label_rate=args.label_rate,
                                     trials=args.trials, seed=args.seed)
            _emit(args, {"mean_error": mean, "std_error": std})
        elif args.command == "bench":
            sizes = [int(x) for x in args.sizes.split(",")]
            csv = bench_runner(sizes, args)
            print(csv)
            if args.output:
                with open(args.output, "w") as f:
                    f.write(csv + "\n")
        _write_manifest(args, list(argv), t0)
        return 0
    except ConicotError as e:
        print(f"error: {e.code}: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"error: validation: {e}", file=sys.stderr)
        return 1


def _run_verify(args):
    config = _config(args)
    if args.probe == "fragility":
        return gw_fragility_demo(args.eps, args.f_eps)
    if args.probe == "scaling":
        net = _load_two_networks(args.inputs[:1])[0]
        return verify_scaling(net, args.r, args.s, config)
    if args.probe == "bounds":
        nx, ny = _load_two_networks(args.inputs)
        return verify_bound_sandwich(nx, ny, config)
    if args.probe == "robustness":
        net = _load_two_networks(args.inputs[:1])[0]
        return robustness_probe(net, args.eps, args.trials, config)
    net = _load_two_networks(args.inputs[:1])[0]
    return weak_iso_probe(net, config)


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
