"""Which conicot functions the traced run wraps, and the per-layer metrics of one round.

Functions are wrapped under the module-level name their callers look up:
`conicot.solver.contract` (the solver's calls) and `conicot.tensor.contract`
(`DistortionTensor.slice_sums`) are distinct bindings of one function, so
both are wrapped. A name that a later version no longer has is skipped and
listed in the run's output.
"""

from __future__ import annotations

import statistics

import numpy as np

import conicot as c


def _side(args, kwargs):
    side = args[1] if len(args) > 1 else kwargs["side"]
    return getattr(side, "value", str(side))


def _contract_label(args, kwargs):
    return "tensor.contract." + _side(args, kwargs)


def contract_cost(tensor, side):
    """Computed (flops, bytes moved) of one contraction, from dims and storage mode.

    Dense: one multiply-add per tensor entry; the tensor, M and the result
    each move once. Factored (`conicot.tensor.contract`): per y-side bin, a
    0/1 indicator build, a product of M with it, a gather of the x-side
    lookup and a second product accumulated into the result; every operand
    is counted once per step at 8 bytes an entry. Other modes count 0.
    """
    n, np_, m, mp = tensor.dims
    mode = getattr(tensor.mode, "value", tensor.mode)
    if mode == "dense":
        entries = n * np_ * m * mp
        return 2 * entries, 8 * (entries + n * m + np_ * mp)
    if mode != "factored":
        return 0, 0
    bins = tensor.y_values.size
    if side == "sample":  # Z = M Yv^T (n' x m), out += W_v Z (n x m)
        flops = 2 * np_ * mp * m + 2 * n * np_ * m + n * m
        words = (2 * m * mp + (np_ * mp + m * mp + np_ * m) + 2 * n * np_
                 + (n * np_ + np_ * m + n * m) + 3 * n * m)
    else:  # R = M Yv (n x m'), out += W_v^T R (n' x m')
        flops = 2 * n * m * mp + 2 * np_ * n * mp + np_ * mp
        words = (2 * m * mp + (n * m + m * mp + n * mp) + 2 * n * np_
                 + (n * np_ + n * mp + np_ * mp) + 3 * np_ * mp)
    return bins * flops, bins * 8 * words


def _observe_contract(args, kwargs, result):
    return contract_cost(args[0], _side(args, kwargs))


def _observe_build(args, kwargs, tensor):
    arrays = [v for v in getattr(tensor, "__dict__", {}).values() if isinstance(v, np.ndarray)]
    table = getattr(tensor, "omega_table", None)
    return (sum(a.nbytes for a in arrays),
            max(table.shape) if table is not None else 0,
            float(getattr(tensor, "quantization_error", 0.0)))


def _observe_bca(args, kwargs, result):
    report = result[2]
    return report.iterations, bool(report.converged)


def targets():
    """(module, attribute, label, observe hook) for every wrapped function."""
    return [
        (c.solver, "contract", _contract_label, _observe_contract),
        (c.tensor, "contract", _contract_label, _observe_contract),
        (c.solver, "build_tensor", "tensor.build", _observe_build),
        (c.tensor, "omega_eval", "cone.omega", None),
        (c.cone, "omega_eval", "cone.omega", None),
        (c.solver, "update_block", "solver.update_block", None),
        (c.solver, "project_to_gamma_bar", "solver.project", None),
        (c.solver, "kernel_pd_check", "cone.pd_check", None),
        (c.solver, "bca_solve", "solver.bca", _observe_bca),
        (c, "bca_solve", "solver.bca", _observe_bca),
        (c, "cgw_solve", "solver.cgw", None),
        (c.analysis, "cgw_solve", "solver.cgw", None),
        (c.analysis, "gw2_solve", "baselines.gw2", None),
        (c.baselines, "ot_exact", "baselines.ot_exact", None),
        (c, "delta_sweep", "analysis.delta_sweep", None),
        (c, "cgw_lower_bound", "uot.lower_bound", None),
        (c.analysis, "cgw_lower_bound", "uot.lower_bound", None),
        (c, "validate_network", "core.validate", None),
        (c, "validate_hypernetwork", "core.validate", None),
        (c, "foscttm", "data.foscttm", None),
    ]


def install(tracer):
    for module, attr, label, observe in targets():
        tracer.wrap(module, attr, label, observe)


def round_metrics(summary, observations) -> dict:
    """Per-layer metrics of one traced round (one instance's setup and operations)."""

    def get(label, key):
        return summary.get(label, {}).get(key, 0)

    def observed(*labels):
        return [v for name, v in observations if name in labels]

    sample, feature = "tensor.contract.sample", "tensor.contract.feature"
    contract_calls = get(sample, "calls") + get(feature, "calls")
    contract_s = get(sample, "s") + get(feature, "s")
    costs = observed(sample, feature)
    flops = sum(f for f, _ in costs)
    builds = observed("tensor.build")
    solves = observed("solver.bca")
    updates = get("solver.update_block", "calls")
    return {
        "tensor.contract.sample.calls": get(sample, "calls"),
        "tensor.contract.sample.s": get(sample, "s"),
        "tensor.contract.feature.calls": get(feature, "calls"),
        "tensor.contract.feature.s": get(feature, "s"),
        "tensor.contract.us_per_call": 1e6 * contract_s / max(contract_calls, 1),
        "tensor.contract.flops": flops,
        "tensor.contract.bytes_moved": sum(b for _, b in costs),
        "tensor.contract.gflops_per_s": flops / contract_s / 1e9 if contract_s else 0.0,
        "tensor.build.calls": get("tensor.build", "calls"),
        "tensor.build.self_s": get("tensor.build", "self_s"),
        "tensor.bytes": max((b for b, _, _ in builds), default=0),
        "tensor.bins": max((q for _, q, _ in builds), default=0),
        "tensor.quant_err": max((e for _, _, e in builds), default=0.0),
        "solver.update_block.calls": updates,
        "solver.update_block.s": get("solver.update_block", "s"),
        "solver.update_block.us_per_call":
            1e6 * get("solver.update_block", "s") / max(updates, 1),
        "solver.bca.self_s": get("solver.bca", "self_s"),
        "solver.project.self_s": get("solver.project", "self_s"),
        "solver.iterations": sum(it for it, _ in solves),
        "solver.converged_frac":
            sum(conv for _, conv in solves) / len(solves) if solves else 0.0,
        "solver.contractions_per_op": contract_calls,
        "cone.pd_check.calls": get("cone.pd_check", "calls"),
        "cone.pd_check.s": get("cone.pd_check", "s"),
        "cone.pd_check.skipped": get("solver.cgw", "calls") - get("cone.pd_check", "calls"),
        "cone.omega.s": get("cone.omega", "s"),
        "baselines.gw2.calls": get("baselines.gw2", "calls"),
        "baselines.gw2.self_s": get("baselines.gw2", "self_s"),
        "baselines.ot_exact.calls": get("baselines.ot_exact", "calls"),
        "baselines.ot_exact.s": get("baselines.ot_exact", "s"),
        "uot.lower_bound.calls": get("uot.lower_bound", "calls"),
        "uot.lower_bound.s": get("uot.lower_bound", "s"),
        "analysis.delta_sweep.self_s": get("analysis.delta_sweep", "self_s"),
        "data.gen.s": get("data.gen", "s"),
        "data.foscttm.s": get("data.foscttm", "s"),
        "core.validate.calls": get("core.validate", "calls"),
        "core.validate.s": get("core.validate", "s"),
    }


COUNTS = ("tensor.contract.sample.calls", "tensor.contract.feature.calls",
          "tensor.contract.flops", "tensor.contract.bytes_moved", "tensor.build.calls",
          "tensor.bytes", "tensor.bins", "solver.update_block.calls",
          "solver.iterations", "solver.contractions_per_op", "cone.pd_check.calls",
          "cone.pd_check.skipped", "baselines.gw2.calls", "baselines.ot_exact.calls",
          "uot.lower_bound.calls", "core.validate.calls")


def median_metrics(rounds) -> dict:
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
