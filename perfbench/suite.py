#!/usr/bin/env python3
"""Run every workload in turn, each in its own process, and print one table.

    python3 perfbench/suite.py --seed 0 --seconds 20 [--trace 1]

Each row is workload, metric, value, unit. Untraced, the rows are the
end-to-end metrics and the result figures (`failed_frac`, `certified_frac`,
`quant_uncertainty`, `foscttm`); traced, the per-layer metrics. Exits 1 if
any workload reports a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import run


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        units = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}
    correct = True
    for workload in run.THREADS:
        out = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=True, cwd=run.ROOT)
        lines = [json.loads(line) for line in out.stdout.splitlines()]
        result = lines[-1]
        rows = [(k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
        if not args.trace:
            figures = next(line for line in lines if "rounds" in line and "failed_frac" in line)
            rows += [(k, figures[k], units[k]) for k in
                     ("failed_frac", "certified_frac", "quant_uncertainty", "foscttm")]
        for name, value, unit in rows:
            print(f"{workload:18s} {name:32s} {value:<22.6g} {unit}")
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
