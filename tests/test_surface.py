"""The settable surface: every config field and CLI option, listed in full,
and every error code the CLI can print.

A setting or error type added or removed anywhere shows up here as a diff,
so each one is a deliberate change.
"""

import argparse
import dataclasses

from conicot import BaselineConfig, SolverConfig, TensorPolicy, errors
from conicot.cli import build_parser

SOLVE = ["--delta", "--kernel", "--max-iters", "--output", "--quantize",
         "--restarts", "--seed", "--tol"]

CLI_OPTIONS = {
    "ccot": SOLVE,
    "cgw": SOLVE,
    "gw2": ["--max-iters", "--output", "--restarts", "--seed"],
    "cot": ["--max-iters", "--output"],
    "uot-bound": ["--delta", "--kernel", "--max-iters", "--output"],
    "delta-sweep": ["--deltas", "--kernel", "--max-iters", "--output",
                    "--quantize", "--restarts", "--seed", "--tol"],
    "verify": [],
    "verify scaling": sorted(SOLVE + ["--r", "--s"]),
    "verify bounds": SOLVE,
    "verify robustness": sorted(SOLVE + ["--eps", "--trials"]),
    "verify weakiso": SOLVE,
    "verify fragility": ["--eps", "--f-eps", "--output"],
    "gen-squares": ["--count", "--dir", "--g", "--output", "--seed", "--side",
                    "--size"],
    "img2net": ["--knn", "--n-sample", "--output", "--seed"],
    "gen-aligned": ["--cells", "--dir", "--downsample", "--feat-x", "--feat-y",
                    "--noise", "--output", "--seed"],
    "classify": ["--features", "--k", "--label-rate", "--labels", "--output",
                 "--seed", "--trials"],
    "bench": ["--delta", "--kernel", "--max-iters", "--output", "--seed",
              "--sizes", "--tol"],
}


# the CLI prints "error: <code>: <message>" for every conicot.errors type
ERROR_CODES = [
    "cap_exceeded", "degenerate_split", "dimension_mismatch",
    "empty_correspondence", "error", "insufficient_mass", "length_mismatch",
    "mass_mismatch", "negative_argument", "negative_scale",
    "negative_squared_distance", "negative_weight", "non_finite", "non_finite_entry",
    "non_square_kernel", "placement_failure"]


def _parsers(parser, prefix=""):
    """(name, parser) for the parser and every sub-parser below it, depth first."""
    yield prefix, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _parsers(sub, f"{prefix} {name}".strip())


def test_settable_surface():
    assert [f.name for f in dataclasses.fields(SolverConfig)] == [
        "kernel", "max_iters", "rel_tol", "restarts", "seed", "tensor_policy",
        "extra_inits"]
    assert [f.name for f in dataclasses.fields(BaselineConfig)] == [
        "max_iters", "tol", "restarts", "seed"]
    assert [f.name for f in dataclasses.fields(TensorPolicy)] == [
        "max_dense_bytes", "quantize_bins"]
    parsers = dict(_parsers(build_parser()))
    # a flag is taken only under its full name, on every parser
    assert all(p.allow_abbrev is False for p in parsers.values())
    options = {
        name: sorted(o for a in p._actions for o in a.option_strings
                     if o not in ("-h", "--help"))
        for name, p in parsers.items() if name
    }
    assert options == CLI_OPTIONS


def test_error_codes():
    codes = sorted(cls.code for cls in vars(errors).values()
                   if isinstance(cls, type) and issubclass(cls, errors.ConicotError))
    assert codes == ERROR_CODES
