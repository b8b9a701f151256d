"""Command-line interface.

Results go to standard output as JSON (CSV for bench), diagnostics to the
error stream. Every run writes a run_manifest.json next to --output (or in
the working directory) recording the command, arguments, seed, configuration,
input hashes, and wall time; a solve's also holds its restarts and the best
restart's objective trace. Exit codes: 0 success, 1 validation error,
2 verification assertion failure. Each command, and each verify probe, is one
entry of the command table: its inputs, its flags, and the function that makes
its result.
"""

from __future__ import annotations

import argparse
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
    DiscreteMeasureNetwork,
    _check_kernel_entries,
    embed_network_as_hypernetwork,
    load_json,
    validate_network,
)
from .data import (
    gen_aligned_hypernetworks,
    gen_squares,
    image_to_network,
    knn_classify,
)
from .errors import ConicotError
from .solver import SolverConfig, SolverReport, bca_solve, cgw_solve
from .tensor import TensorPolicy
from .uot import cgw_lower_bound


_OPTIONS = {
    "delta": dict(type=float, default=0.5),
    "kernel": dict(choices=["cos", "exp"], default="exp"),
    "max-iters": dict(type=int, default=1000),
    "tol": dict(type=float, default=1e-9),
    "restarts": dict(type=int, default=4),
    "seed": dict(type=int, default=0),
    "quantize": dict(default="64",
                     help="number of value bins for the factored path, or 'off' "
                          "to force dense storage"),
    # the verify probes' own flags
    "r": dict(type=float, default=2.0),
    "s": dict(type=float, default=1.0),
    "eps": dict(type=float, default=0.05),
    "f-eps": dict(type=float, default=1.0),
    "trials": dict(type=int, default=10),
}
_SOLVE = ("delta", "kernel", "max-iters", "tol", "restarts", "seed", "quantize")


def _policy(args) -> TensorPolicy:
    if str(args.quantize).lower() == "off":
        return TensorPolicy(max_dense_bytes=1 << 62)
    return TensorPolicy(quantize_bins=int(args.quantize))


def _config(args, delta=None, restarts=None, policy=None) -> SolverConfig:
    """The solve flags as a SolverConfig; delta, restarts, policy replace missing flags."""
    return SolverConfig(
        kernel=make_kernel(args.kernel, args.delta if delta is None else delta),
        max_iters=args.max_iters,
        rel_tol=args.tol,
        restarts=args.restarts if restarts is None else restarts,
        seed=args.seed,
        tensor_policy=_policy(args) if policy is None else policy,
    )


def _hash_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _load_two_hyper(paths):
    pair = []
    for p in paths:
        obj = load_json(p)
        if isinstance(obj, DiscreteMeasureNetwork):
            obj = embed_network_as_hypernetwork(obj)
        pair.append(obj)
    return pair


def _load_networks(paths):
    nets = []
    for p in paths:
        obj = load_json(p)
        if not isinstance(obj, DiscreteMeasureNetwork):
            raise ConicotError(f"{p} is not a measure network")
        nets.append(obj)
    return nets


def _probe_args(args, *flags):
    """A verify probe's arguments: its input networks, its flags and its solve
    config, which is checked before the networks are read."""
    config = _config(args)
    return (*_load_networks(args.inputs), *flags, config)


def _delta_sweep(args):
    nets = _load_networks(args.inputs)
    deltas = [float(x) for x in args.deltas.split(",")]
    # every row sets its own delta; the first stands in for the config's
    return delta_sweep(nets[0], nets[1], deltas, _config(args, deltas[0]))


def _gen_squares(args):
    imgs = gen_squares(args.count, g=args.g, side=args.side,
                       image_size=args.size, seed=args.seed)
    os.makedirs(args.dir, exist_ok=True)
    paths = []
    for i, img in enumerate(imgs):
        p = os.path.join(args.dir, f"square_{i:04d}.csv")
        np.savetxt(p, img, delimiter=",")
        paths.append(p)
    return {"written": paths, "seed": args.seed,
            "params": {"count": args.count, "g": args.g,
                       "side": args.side, "size": args.size}}


def _gen_aligned(args):
    hx, hy, corr = gen_aligned_hypernetworks(
        args.cells, args.feat_x, args.feat_y, noise=args.noise,
        downsample_y=args.downsample, seed=args.seed)
    os.makedirs(args.dir, exist_ok=True)
    paths = []
    for name, obj in (("hx", hx.to_json_dict()), ("hy", hy.to_json_dict()),
                      ("correspondence", {"cells": corr["cells"],
                                          "features": corr["features"]})):
        p = os.path.join(args.dir, f"aligned_{name}.json")
        with open(p, "w") as f:
            json.dump(obj, f)
        paths.append(p)
    return {"written": paths}


def _classify(args):
    feats = np.loadtxt(args.features, delimiter=",", ndmin=2)
    labels = np.loadtxt(args.labels, delimiter=",", ndmin=1)
    _check_kernel_entries(labels)  # a NaN or inf label: NonFiniteEntry at its row
    bad = np.flatnonzero((labels != np.round(labels)) | (np.abs(labels) >= 2.0**63))
    if bad.size:
        row = int(bad[0])
        raise ValueError(f"label {labels[row]} at row {row} is not a 64-bit integer")
    mean, std = knn_classify(feats, labels.astype(int), k=args.k, label_rate=args.label_rate,
                             trials=args.trials, seed=args.seed)
    return {"mean_error": mean, "std_error": std}


def bench_runner(args):
    """CSV rows of cgw_solve runs on seeded square-image networks of the --sizes,
    each timed by its report's wall_time.

    The sampled pixels' kNN adjacency carries uniform node weights: most
    sampled pixels are dark, and intensity weights would leave about one live
    node, a problem solved at distance 0 in one sweep."""
    rows = ["size,iters,stop,seconds,distance"]
    for n in [int(x) for x in args.sizes.split(",")]:
        imgs = gen_squares(2, g=4, side=3, image_size=32, seed=args.seed)
        # sampling first rejects a size outside (knn, pixel count] with an error
        kernels = [image_to_network(img, n_sample=n, knn=4, seed=s).kernel
                   for img, s in zip(imgs, (args.seed, args.seed + 1))]
        na, nb = (validate_network(np.full(n, 1.0 / n), k) for k in kernels)
        # force the factored path: the budget is below the dense tensor
        cfg = _config(args, restarts=1,
                      policy=TensorPolicy(max_dense_bytes=16 * n * n))
        dist, report = cgw_solve(na, nb, cfg)
        stop = report.restarts[report.best_restart]["stop"]
        rows.append(f"{n},{report.iterations},{stop},{report.wall_time:.3f},{dist:.9f}")
    return "\n".join(rows)


# Each command, and under "verify" each probe: the number of input files it
# reads; its flags, each a name in _OPTIONS or a (name, argparse spec) pair
# of its own (every command also takes --output); and the function of the
# parsed arguments that makes its result: a solve command's SolverReport, a
# dict, or for bench CSV text.
_COMMANDS = {
    "ccot": (2, _SOLVE, lambda a: bca_solve(*_load_two_hyper(a.inputs), _config(a))[2]),
    "cgw": (2, _SOLVE, lambda a: cgw_solve(*_load_networks(a.inputs), _config(a))[1]),
    "gw2": (2, ("max-iters", "restarts", "seed"), lambda a: gw2_solve(
        *_load_networks(a.inputs), BaselineConfig(
            seed=a.seed, restarts=a.restarts, max_iters=a.max_iters))[-1]),
    "cot": (2, ("max-iters",), lambda a: cot_solve(
        *_load_two_hyper(a.inputs), BaselineConfig(max_iters=a.max_iters))[-1]),
    "uot-bound": (2, ("delta", "kernel", "max-iters"), lambda a: cgw_lower_bound(
        *_load_networks(a.inputs), make_kernel(a.kernel, a.delta), a.max_iters)),
    "delta-sweep": (2, (("deltas", dict(default="0.5,1,2,4,8,16,32")),
                        *(o for o in _SOLVE if o != "delta")), _delta_sweep),
    "verify": {
        "scaling": (1, ("r", "s", *_SOLVE), lambda a: verify_scaling(*_probe_args(a, a.r, a.s))),
        "bounds": (2, _SOLVE, lambda a: verify_bound_sandwich(*_probe_args(a))),
        "robustness": (1, ("eps", "trials", *_SOLVE),
                       lambda a: robustness_probe(*_probe_args(a, a.eps, a.trials))),
        "weakiso": (1, _SOLVE, lambda a: weak_iso_probe(*_probe_args(a))),
        "fragility": (0, ("eps", "f-eps"), lambda a: gw_fragility_demo(a.eps, a.f_eps)),
    },
    "gen-squares": (0, (("count", dict(type=int, default=10)), ("g", dict(type=int, default=4)),
                        ("side", dict(type=int, default=3)), ("size", dict(type=int, default=32)),
                        ("dir", dict(default=".")), "seed"), _gen_squares),
    "img2net": (1, (("n-sample", dict(type=int, default=60)), ("knn", dict(type=int, default=4)),
                    "seed"),
                lambda a: image_to_network(np.loadtxt(a.inputs[0], delimiter=",", ndmin=2),
                                           n_sample=a.n_sample, knn=a.knn,
                                           seed=a.seed).to_json_dict()),
    "gen-aligned": (0, (("cells", dict(type=int, default=500)),
                        ("feat-x", dict(type=int, default=10)),
                        ("feat-y", dict(type=int, default=10)),
                        ("noise", dict(type=float, default=0.1)),
                        ("downsample", dict(type=float, default=1.0)),
                        ("dir", dict(default=".")), "seed"), _gen_aligned),
    "classify": (0, (("features", dict(required=True)), ("labels", dict(required=True)),
                     ("k", dict(type=int, default=15)),
                     ("label-rate", dict(type=float, default=0.8)),
                     ("trials", dict(type=int, default=100)), "seed"), _classify),
    "bench": (0, (("sizes", dict(default="20,60")),
                  "delta", "kernel", "max-iters", "tol", "seed"), bench_runner),
}


def _add_commands(sub, table):
    """One parser per table entry; every parser takes a flag only under its full name."""
    for name, entry in table.items():
        p = sub.add_parser(name, allow_abbrev=False)
        if isinstance(entry, dict):  # verify: one nested parser per probe
            _add_commands(p.add_subparsers(dest="probe", required=True), entry)
            continue
        inputs, flags, run = entry
        if inputs:
            p.add_argument("inputs", nargs=inputs)
        for flag in flags:
            flag, spec = (flag, _OPTIONS[flag]) if isinstance(flag, str) else flag
            p.add_argument(f"--{flag}", **spec)
        p.add_argument("--output", default=None)
        p.set_defaults(run=run)


def build_parser():
    ap = argparse.ArgumentParser(prog="conicot", allow_abbrev=False)
    ap.add_argument("--version", action="version", version=__version__)
    _add_commands(ap.add_subparsers(dest="command", required=True), _COMMANDS)
    return ap


def _write_manifest(args, argv, t0, report):
    # the positional input files, and classify's two
    inputs = [*getattr(args, "inputs", []),
              *(getattr(args, k) for k in ("features", "labels") if hasattr(args, k))]
    manifest = {
        "command": args.command,
        "argv": argv,
        "seed": getattr(args, "seed", None),
        "config": {k: v for k, v in vars(args).items()
                   if k not in ("command", "probe", "inputs", "run")},
        "tool_version": __version__,
        "input_hashes": {p: _hash_file(p) for p in inputs if os.path.exists(p)},
        "wall_time": time.perf_counter() - t0,
    }
    if report is not None:  # the solve commands
        manifest["restarts"] = report.restarts
        manifest["objective_trace"] = report.objective_trace
    out_dir = os.path.dirname(args.output) if args.output else "."
    path = os.path.join(out_dir or ".", "run_manifest.json")
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2)


def _emit(args, result):
    """Print the result, JSON or CSV text, and write it to --output."""
    text = result if isinstance(result, str) else json.dumps(result, indent=2,
                                                             sort_keys=True)
    print(text)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text + "\n")


def run_command(argv) -> int:
    t0 = time.perf_counter()
    args = build_parser().parse_args(argv)
    try:
        result = args.run(args)
        report = result if isinstance(result, SolverReport) else None
        _emit(args, result if report is None else report.to_json_dict())
        _write_manifest(args, list(argv), t0, report)
    except ConicotError as e:
        print(f"error: {e.code}: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"error: validation: {e}", file=sys.stderr)
        return 1
    # a verify probe that fails its check
    return 2 if args.command == "verify" and not result.get("pass", False) else 0


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
