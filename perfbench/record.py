#!/usr/bin/env python3
"""Record the reference results of every bank instance of one workload.

    python3 perfbench/record.py --workload knn-graph

Runs each instance once, with the thread setting run.py uses, and stores its
record in `perfbench/references.json`. It prints every instance whose result
misses an acceptance threshold; the gate holds such an instance to its
recorded value instead of the threshold. Re-record only in a change that
alters the benchmark, never in one that claims a speed-up.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(run.THREADS))
    args = p.parse_args(argv)
    threads = run.configure_threads(args.workload)
    run.import_conicot()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    instances = []
    for idx in range(wl.bank):
        record = wl.run(wl.validate(wl.generate(idx)))
        instances.append({"record": record})
        print(idx, json.dumps(record), wl.check(record, None), flush=True)

    path = os.path.join(run.HERE, "references.json")
    refs = {}
    if os.path.exists(path):
        with open(path) as f:
            refs = json.load(f)
    refs[args.workload] = {"environment": run.environment(threads),
                           "instances": instances}
    with open(path, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
