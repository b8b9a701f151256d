#!/usr/bin/env python3
"""Benchmark of conicot's CGW/CCOT solves on four named workloads.

    python3 perfbench/run.py --workload sweep-small --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout: conicot is imported from `src/`.
The seed selects the bank instances of the run. One caller runs a closed loop
of rounds on them until --seconds have passed. A round sets them up afresh
(`import conicot` in a new interpreter, generation and validation), runs
the workload's operations on each through the public API, timing each
operation, and checks every result against `perfbench/references.json`.

With --trace 0 the last output line carries the end-to-end metrics of
BENCHMARK.json. `wall_s` sums, over the operations of the run's instances,
each operation's fastest round, and `setup_s` is the fastest round's
set-up: the host's CPU speed varies and the minimum is the figure that
varies least with it. With --trace 1 the line carries the per-layer metrics:
each round then runs its operations twice, once with the wrappers of
`layers.py` installed and once without, in alternating order, and
`trace.overhead_frac` compares the two. Earlier lines give the environment,
every round's distances, times and failures.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave the checkout's source tree as it is

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# The import probe reads and writes bytecode only here, so a cache left in
# src/ or site-packages does not change what it times.
PYCACHE = os.path.join(ROOT, ".bench_build", "pycache")

# BLAS threads per workload, capped at the CPUs available. The tiny dense
# contractions of sweep-small gain nothing from a second thread and spread
# more with it; the large products of the other three run faster on two.
THREADS = {"sweep-small": 1, "pointcloud-dense": 2, "knn-graph": 2, "align-hyper": 2}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_ROUNDS = 2
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import conicot; "
                "print(time.perf_counter() - t)")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(THREADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def configure_threads(workload) -> int:
    """Fix the BLAS thread count; must run before numpy is imported."""
    n = min(THREADS[workload], len(os.sched_getaffinity(0)))
    for var in BLAS_ENV:
        os.environ[var] = str(n)
    return n


def import_conicot():
    """Import conicot from the checkout's src/, or exit with an error."""
    init = os.path.join(SRC, "conicot", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"perfbench: no conicot sources at {init}")
    sys.path.insert(0, SRC)
    import conicot
    if os.path.abspath(conicot.__file__) != init:
        sys.exit(f"perfbench: imported conicot from {conicot.__file__}, not {init}")
    return conicot


def import_seconds() -> float:
    """Time `import conicot` in a fresh interpreter, with bytecode from PYCACHE.

    The first call of a checkout compiles into PYCACHE; run.py makes it
    before timing any round.
    """
    env = dict(os.environ, PYTHONPYCACHEPREFIX=PYCACHE)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], env=env,
                         capture_output=True, text=True, check=True, timeout=120,
                         cwd=ROOT)
    return float(out.stdout)


def environment(threads) -> dict:
    import numpy as np
    import scipy
    env = {"python": sys.version.split()[0], "numpy": np.__version__,
           "scipy": scipy.__version__, "nproc": os.cpu_count(),
           "cpus_available": len(os.sched_getaffinity(0)), "blas_threads_set": threads}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    if libs:  # numpy's bundled OpenBLAS prefixes its symbols
        lib = ctypes.CDLL(libs[0])
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        config = getattr(lib, "scipy_openblas_get_config64_", None)
        if get is not None and config is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            config.argtypes, config.restype = [], ctypes.c_char_p
            env["blas_threads"] = get()
            env["openblas"] = config().decode()
    return env


def load_references(workload):
    with open(os.path.join(HERE, "references.json")) as f:
        return json.load(f)[workload]["instances"]


def run_operations(wl, instances, inputs, refs):
    """Run and check every operation of the round's instances, timing each."""
    out = {"op_s": {}, "records": [], "failures": [], "failed": 0, "attempted": 0}
    for idx, inp in zip(instances, inputs):
        record = {}
        try:
            for op, step in wl.steps(inp):
                start = time.perf_counter()
                record[op] = step()
                out["op_s"][f"{idx}:{op}"] = time.perf_counter() - start
            failures = wl.check(record, refs[idx]["record"])
        except Exception as exc:  # a raising operation fails its instance
            failures = [f"{o}: not checked, {type(exc).__name__} raised: {exc}"
                        for o in wl.operations]
        else:
            out["records"].append(record)
        out["failures"] += [f"instance {idx}: {m}" for m in failures]
        out["failed"] += sum(any(m.startswith(op) for m in failures) for op in wl.operations)
        out["attempted"] += len(wl.operations)
    out["s"] = sum(out["op_s"].values())
    return out


def run_round(wl, instances, refs, tracer, traced_first):
    """Set up the instances, run and check their operations, time each part."""
    import layers
    if tracer is None:
        import_s = import_seconds()
        start = time.perf_counter()
        inputs = [wl.validate(wl.generate(idx)) for idx in instances]
        setup_s = import_s + time.perf_counter() - start
        return {**run_operations(wl, instances, inputs, refs), "setup_s": setup_s}
    tracer.reset()
    layers.install(tracer)
    try:
        inputs = []
        for idx in instances:
            with tracer.span("data.gen"):
                raw = wl.generate(idx)
            inputs.append(wl.validate(raw))
    finally:
        tracer.restore()
    runs = {}
    for traced in ([True, False] if traced_first else [False, True]):
        if traced:
            layers.install(tracer)
        try:
            runs[traced] = run_operations(wl, instances, inputs, refs)
        finally:
            if traced:
                tracer.restore()
    out = runs[False]
    for k in ("failures", "failed", "attempted"):
        out[k] += runs[True][k]
    out["traced_s"] = runs[True]["s"]
    out["layers"] = layers.round_metrics(tracer.summary(), tracer.observations)
    return out


def fastest_total(rounds) -> float:
    """Sum over the timed operations of each one's fastest round.

    An operation that raised has no time in its round; it has failed, so the
    run is not correct anyway.
    """
    units = {u for r in rounds for u in r["op_s"]}
    return sum(min(r["op_s"][u] for r in rounds if u in r["op_s"]) for u in units)


def emit(spec, values, correct, attempted, failed):
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = configure_threads(args.workload)
    import_conicot()

    import layers
    import workloads
    from tracing import Tracer

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wl = workloads.WORKLOADS[args.workload]
    refs = load_references(args.workload)
    instances = wl.instances(args.seed)
    tracer = Tracer() if args.trace else None
    if tracer is None:
        import_seconds()  # fills PYCACHE; untimed
    print(json.dumps({"environment": environment(threads), "workload": wl.name,
                      "seed": args.seed, "instances": instances, "trace": args.trace}))

    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        r = run_round(wl, instances, refs, tracer, traced_first=len(rounds) % 2 == 0)
        rounds.append(r)
        print(json.dumps({k: r.get(k) for k in
                          ("setup_s", "s", "traced_s", "op_s", "records", "failures")}))

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    values = {"failed_frac": failed / attempted}
    values.update(workloads.result_metrics([rec for r in rounds for rec in r["records"]]))
    correct = failed == 0
    if tracer is None:
        values["wall_s"] = fastest_total(rounds)
        values["setup_s"] = min(r["setup_s"] for r in rounds)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps({"rounds": len(rounds), "attempted": attempted,
                          "median_round_s": statistics.median(r["s"] for r in rounds),
                          **values}))
        spec = bench["end_to_end"]
    else:
        per_round = [r["layers"] for r in rounds[1:]]  # the first round warms up
        values.update(layers.median_metrics(per_round))
        values["trace.overhead_frac"] = (min(r["traced_s"] for r in rounds)
                                         / min(r["s"] for r in rounds) - 1.0)
        exact = all(all(p[k] == per_round[0][k] for k in layers.COUNTS) for p in per_round)
        print(json.dumps({"rounds": len(rounds), "attempted": attempted,
                          "counts_repeat_exactly": exact,
                          "fixed_iterations": wl.fixed_iterations,
                          "missing_wrap_targets": tracer.missing}))
        if wl.fixed_iterations and not exact:
            correct = False
        spec = bench["per_layer"]
    emit(spec, values, correct, attempted, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
