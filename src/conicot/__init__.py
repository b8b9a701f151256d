"""Conic (unbalanced) Gromov-Wasserstein and co-optimal transport distances
for discrete measure networks and hypernetworks, with balanced baselines,
a value-distribution lower bound, and a verification harness.
"""

from .core import (
    DiscreteMeasureNetwork,
    DiscreteMeasureHypernetwork,
    DiscreteValueMeasure,
    validate_network,
    validate_hypernetwork,
    scale_measure,
    embed_network_as_hypernetwork,
    tv_gap,
    load_json,
)
from .cone import (
    ConeKernel,
    KernelFamily,
    KernelConstants,
    make_kernel,
    omega_eval,
    omega_of_gap,
    cone_distance_sq,
    kernel_constants,
    kernel_pd_check,
)
from .tensor import DistortionTensor, TensorMode, TensorPolicy, Side, build_tensor, contract
from .solver import (
    SemiCouplingQuadruple,
    SolverConfig,
    SolverReport,
    bca_solve,
    cgw_solve,
    objective_F,
    ccot_distance_from_objective,
)
from .baselines import BaselineConfig, Coupling, ot_exact, sinkhorn, gw2_solve, cot_solve
from .uot import UotReport, pushforward_value_distribution, uot_solve, cgw_lower_bound
from .analysis import (
    verify_scaling,
    delta_sweep,
    verify_bound_sandwich,
    robustness_probe,
    gw_fragility_demo,
    weak_iso_probe,
)
from .data import (
    gen_squares,
    image_to_network,
    gen_aligned_hypernetworks,
    foscttm,
    knn_classify,
    perturb_measure,
)
from . import errors

__version__ = "0.1.0"
