"""The four benchmark workloads: inputs, operations and correctness checks.

Inputs come from a fixed bank of instances per workload, instance `idx`
being generated from `numpy.random.default_rng([TAG, idx])` (the library's
own generator seed for `align-hyper`). A run works on the `per_round`
instances its seed selects. `references.json` holds the results this package
produced for every bank instance, so each operation is checked against a
recorded value for its workload and seed.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable

import numpy as np

import conicot as c
from conicot.analysis import slack

EXACT_TOL = 1e-9  # distances on the exact workloads agree to this (ROADMAP)
MAX_REL_GAP = 0.05  # large-delta sweep acceptance threshold
MAX_FOSCTTM = 0.15  # synthetic alignment acceptance threshold
SWEEP_DELTAS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
TAG = 20250810  # instance i of a generated workload draws from default_rng([TAG, i])


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    bank: int  # number of recorded instances
    per_round: int  # instances a round sets up and solves
    fixed_iterations: bool  # every solve runs exactly max_iters sweeps
    operations: tuple  # public API calls made on one instance
    generate: Callable  # idx -> raw inputs
    validate: Callable  # raw inputs -> validated inputs
    steps: Callable  # inputs -> [(operation, thunk returning its record entry)]
    check: Callable  # (record, reference record or None) -> failure messages

    def instances(self, seed):
        """The bank instances a run with this seed works on."""
        return [(seed * self.per_round + j) % self.bank for j in range(self.per_round)]

    def run(self, inputs):
        """Every operation's record entry, keyed by operation."""
        return {op: step() for op, step in self.steps(inputs)}


def _rng(idx):
    return np.random.default_rng([TAG, idx])


# -------------------------------------------------------------- generators

def _pointcloud(rng, n):
    """Planar point-cloud metric with diameter 1 and weights U(0.5, 1.5)."""
    pts = rng.normal(size=(n, 2))
    K = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    K *= 1.0 / K.max()
    w = rng.uniform(0.5, 1.5, n)
    return w / w.sum(), K


def _knn(rng, n, k):
    """Binary directed k-nearest-neighbour adjacency with uniform weights."""
    pts = rng.normal(size=(n, 2))
    d2 = ((pts[:, None] - pts[None]) ** 2).sum(-1)
    np.fill_diagonal(d2, np.inf)
    order = np.argsort(d2, axis=1, kind="stable")
    adj = np.zeros((n, n))
    adj[np.repeat(np.arange(n), k), order[:, :k].ravel()] = 1.0
    return np.full(n, 1.0 / n), adj


def _pair(make):
    def generate(idx):
        rng = _rng(idx)
        return make(rng), make(rng)
    return generate


def _validate_pair(raw):
    return tuple(c.validate_network(w, K) for w, K in raw)


# ------------------------------------------------------------------ checks

# A check called with ref=None applies the acceptance thresholds alone; the
# recorder prints the bank instances that miss them at recording.

def _close(name, got, ref, tol):
    if ref is None or abs(got - ref) <= tol:
        return []
    return [f"{name}: {got!r} differs from reference {ref!r} by more than {tol:g}"]


def _at_most(name, got, limit, ref):
    """Acceptance threshold; an instance whose reference already misses it
    must not get worse than the reference."""
    bound = limit if ref is None else max(limit, ref)
    if got <= bound:
        return []
    return [f"{name}: {got!r} exceeds {bound!r}"]


def _field(ref, *keys):
    for k in keys:
        if ref is None:
            return None
        ref = ref[k]
    return ref


# ------------------------------------------------------------ sweep-small

SWEEP_CAP = 150  # sweeps per restart; about a third of restarts reach rel_tol first


def _sweep(nx, ny, cfg):
    out = c.delta_sweep(nx, ny, SWEEP_DELTAS, cfg)
    return {
        "gw2": out["gw2"],
        "cgw": [row["cgw"] for row in out["rows"]],
        "rel_gap": out["rows"][-1]["rel_gap"],
        "final_gap_is_min": out["final_gap_is_min"],
    }


def _lower_bound(nx, ny, kernel):
    return {"value": c.cgw_lower_bound(nx, ny, kernel).value}


def _sweep_steps(inputs):
    nx, ny = inputs
    steps = []
    for fam in ("cos", "exp"):
        cfg = c.SolverConfig(kernel=c.make_kernel(fam, 0.5), restarts=4,
                             max_iters=SWEEP_CAP)
        steps.append((f"delta_sweep.{fam}", functools.partial(_sweep, nx, ny, cfg)))
        steps.append((f"cgw_lower_bound.{fam}",
                      functools.partial(_lower_bound, nx, ny, cfg.kernel)))
    return steps


def _sweep_check(rec, ref):
    errs = []
    for fam in ("cos", "exp"):
        key, key_lb = f"delta_sweep.{fam}", f"cgw_lower_bound.{fam}"
        got = rec[key]
        errs += _close(f"{key}.gw2", got["gw2"], _field(ref, key, "gw2"), EXACT_TOL)
        for i, d in enumerate(SWEEP_DELTAS):
            errs += _close(f"{key}.cgw[{d:g}]", got["cgw"][i],
                           _field(ref, key, "cgw", i), EXACT_TOL)
        errs += _at_most(f"{key}.rel_gap", got["rel_gap"], MAX_REL_GAP,
                         _field(ref, key, "rel_gap"))
        if not got["final_gap_is_min"] and _field(ref, key, "final_gap_is_min") is not False:
            errs.append(f"{key}.final_gap_is_min is False")
        lb = rec[key_lb]["value"]
        errs += _close(key_lb, lb, _field(ref, key_lb, "value"), EXACT_TOL)

        def excess(r):  # the sweep's first delta is the bound's 0.5
            cgw = r[key]["cgw"][0]
            return r[key_lb]["value"] - cgw - slack(cgw)
        errs += _at_most(f"{key_lb} - cgw - slack(cgw)", excess(rec), 0.0,
                         None if ref is None else excess(ref))
    return errs


# ------------------------------------------------------- pointcloud-dense

DENSE_ITERS = 10


def _cgw(nx, ny, config):
    dist, report = c.cgw_solve(nx, ny, config)
    return {"distance": dist, "certified": bool(report.equality_certified)}


def _cgw_steps(config):
    def steps(inputs):
        return [("cgw_solve", functools.partial(_cgw, *inputs, config))]
    return steps


def _cgw_check(rec, ref):
    return _close("cgw_solve.distance", rec["cgw_solve"]["distance"],
                  _field(ref, "cgw_solve", "distance"), EXACT_TOL)


DENSE_CONFIG = c.SolverConfig(kernel=c.make_kernel("exp", 0.5), restarts=1,
                              max_iters=DENSE_ITERS, rel_tol=0.0)


# -------------------------------------------------------------- knn-graph

KNN_N = 1000
KNN_ITERS = 5


# 16 n^2 bytes is below the dense tensor and above the two indicator
# matrices, which forces the exact factored path
KNN_CONFIG = c.SolverConfig(kernel=c.make_kernel("exp", 0.5), restarts=1,
                            max_iters=KNN_ITERS, rel_tol=0.0,
                            tensor_policy=c.TensorPolicy(max_dense_bytes=16 * KNN_N ** 2))


# ------------------------------------------------------------ align-hyper

ALIGN_ITERS = 30


def _align_generate(idx):
    return c.gen_aligned_hypernetworks(500, 10, 10, noise=0.1, seed=idx)


def _align_validate(raw):
    hx, hy, corr = raw
    valid = tuple(c.validate_hypernetwork(h.sample_weights, h.feature_weights, h.kernel)
                  for h in (hx, hy))
    return valid + (corr,)


def _align(hx, hy, corr):
    cfg = c.SolverConfig(kernel=c.make_kernel("exp", 0.2), restarts=2,
                         max_iters=ALIGN_ITERS, rel_tol=0.0)
    dist, quad, report = c.bca_solve(hx, hy, cfg)
    return {
        "distance": dist,
        "quantization_uncertainty": report.quantization_uncertainty,
        "foscttm": c.foscttm(np.sqrt(quad.A * quad.B), corr["cells"]),
    }


def _align_steps(inputs):
    return [("bca_solve", functools.partial(_align, *inputs))]


def _align_check(rec, ref):
    got, want = rec["bca_solve"], _field(ref, "bca_solve")
    tol = got["quantization_uncertainty"] + (want["quantization_uncertainty"] if want else 0.0)
    return (_close("bca_solve.distance", got["distance"], _field(want, "distance"), tol)
            + _at_most("bca_solve.foscttm", got["foscttm"], MAX_FOSCTTM,
                       _field(want, "foscttm")))


WORKLOADS = {
    w.name: w for w in (
        # two instances a round, because the work to tolerance differs from
        # pair to pair by up to 1.7x
        Workload("sweep-small", bank=64, per_round=2, fixed_iterations=False,
                 operations=("delta_sweep.cos", "cgw_lower_bound.cos",
                             "delta_sweep.exp", "cgw_lower_bound.exp"),
                 generate=_pair(lambda rng: _pointcloud(rng, 5)),
                 validate=_validate_pair, steps=_sweep_steps, check=_sweep_check),
        Workload("pointcloud-dense", bank=64, per_round=1, fixed_iterations=True,
                 operations=("cgw_solve",),
                 generate=_pair(lambda rng: _pointcloud(rng, 60)),
                 validate=_validate_pair, steps=_cgw_steps(DENSE_CONFIG),
                 check=_cgw_check),
        Workload("knn-graph", bank=64, per_round=1, fixed_iterations=True,
                 operations=("cgw_solve",),
                 generate=_pair(lambda rng: _knn(rng, KNN_N, 4)),
                 validate=_validate_pair, steps=_cgw_steps(KNN_CONFIG),
                 check=_cgw_check),
        Workload("align-hyper", bank=64, per_round=1, fixed_iterations=True,
                 operations=("bca_solve",),
                 generate=_align_generate, validate=_align_validate,
                 steps=_align_steps, check=_align_check),
    )
}


def result_metrics(records) -> dict:
    """End-to-end result figures that can be 0, so they carry no bound."""
    solves = [r["cgw_solve"] for r in records if "cgw_solve" in r]
    aligns = [r["bca_solve"] for r in records if "bca_solve" in r]

    def median(values):
        return float(np.median(values)) if values else 0.0
    return {
        "certified_frac": sum(s["certified"] for s in solves) / len(solves) if solves else 0.0,
        "quant_uncertainty": median([a["quantization_uncertainty"] for a in aligns]),
        "foscttm": median([a["foscttm"] for a in aligns]),
    }
