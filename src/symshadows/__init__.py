"""Randomized measurements over compact symmetric ensembles.

The package samples measurement rotations from the classical compact groups
and their symmetric quotients, inverts the induced measurement channel in
closed form, estimates observables from stored outcomes, and reproduces the
channel coefficients and estimator variances by Monte Carlo.

Quick start::

    from symshadows import make_space, random_pure_state, run_estimation

    space = make_space("AIII", 4, p=2, q=2)
    rho = random_pure_state(4, rng=1)
    report = run_estimation(space, rho, observable, n_shots=10_000, rng=2)
"""

from .channel import (
    ChannelInverse,
    ChannelWeights,
    SectorSplit,
    SectorSpectrum,
    apply_channel,
    build_superoperator,
    channel_spectrum,
    channel_weights,
    choi_matrix,
    dephase,
    invert_channel,
    parent_channel,
)
from .haar import (
    haar_orthogonal,
    haar_symplectic,
    haar_unitary,
    symplectic_form,
    symplectic_pairing,
)
from .matio import load_density, load_matrix, save_matrix, sweep_rows_to_csv, sweep_rows_to_json
from .momentlab import (
    FitDegenerateError,
    MomentFit,
    MomentTensor,
    TwirlEstimate,
    fit_channel_coefficients,
    h_equivariance_check,
    k_equivariance_check,
    mc_channel,
    mc_moment_tensor,
    mc_twirl,
    moment_identities_ai,
    pair_partitions,
)
from .rng import RngStream, as_generator
from .shadows import (
    EstimationReport,
    InvalidStateError,
    ResultRow,
    ShadowRecord,
    SweepConfig,
    estimate_observable,
    median_of_means,
    random_observable,
    random_pure_state,
    run_estimation,
    sample_outcome,
    shadow_estimates,
    validate_density,
    variance_sweep,
)
from .spaces import (
    ALL_FAMILIES,
    GROUP_FAMILIES,
    QUOTIENT_FAMILIES,
    SpaceSpec,
    involution,
    make_space,
    sample_point,
    sample_signed_symmetry,
    sample_subgroup,
    structural_witness,
)
from .variance import (
    VarianceCoefficients,
    analytic_second_moment,
    second_moment_aiii,
    second_moment_bdi,
    second_moment_coefficients,
)
from .verify import Check, all_passed, run_suite

__version__ = "0.1.0"

__all__ = [
    "ALL_FAMILIES",
    "Check",
    "ChannelInverse",
    "ChannelWeights",
    "EstimationReport",
    "FitDegenerateError",
    "GROUP_FAMILIES",
    "InvalidStateError",
    "MomentFit",
    "MomentTensor",
    "QUOTIENT_FAMILIES",
    "ResultRow",
    "RngStream",
    "SectorSplit",
    "SectorSpectrum",
    "ShadowRecord",
    "SpaceSpec",
    "SweepConfig",
    "TwirlEstimate",
    "VarianceCoefficients",
    "__version__",
    "all_passed",
    "analytic_second_moment",
    "apply_channel",
    "as_generator",
    "build_superoperator",
    "channel_spectrum",
    "channel_weights",
    "choi_matrix",
    "dephase",
    "estimate_observable",
    "fit_channel_coefficients",
    "h_equivariance_check",
    "haar_orthogonal",
    "haar_symplectic",
    "haar_unitary",
    "invert_channel",
    "involution",
    "k_equivariance_check",
    "load_density",
    "load_matrix",
    "make_space",
    "mc_channel",
    "mc_moment_tensor",
    "mc_twirl",
    "median_of_means",
    "moment_identities_ai",
    "pair_partitions",
    "parent_channel",
    "random_observable",
    "random_pure_state",
    "run_estimation",
    "run_suite",
    "sample_outcome",
    "sample_point",
    "sample_signed_symmetry",
    "sample_subgroup",
    "save_matrix",
    "second_moment_aiii",
    "second_moment_bdi",
    "second_moment_coefficients",
    "shadow_estimates",
    "structural_witness",
    "sweep_rows_to_csv",
    "sweep_rows_to_json",
    "symplectic_form",
    "symplectic_pairing",
    "validate_density",
    "variance_sweep",
]
