"""Numerics for classical restrictions of matrix product states.

Measurement-string probabilities, average post-measurement entropies,
classical and quantum conditional mutual information, quasi-local Gibbs
fits of the outcome distribution, purity-condition certification of Kraus
families, and martingale trajectory sampling — all over left-normalized
Kraus families on finite or infinite chains.
"""

from .chain import (
    BoundaryPair,
    ChainGeometry,
    KrausFamily,
    TransferFixedPoint,
    fixed_point,
    left_environment,
    normalization_k2,
    renormalize,
    right_environment,
    sqrt_env,
    transfer_adjoint_apply,
    transfer_apply,
    transfer_matrix,
)
from .errors import MpsRestrictError
from .gibbs import (
    ChainDistribution,
    LocalHamiltonian,
    cmi_decomposition_check,
    gibbs_distribution,
    local_hamiltonian,
    marginal,
    partition_function,
    relative_entropy,
    tail_bound_check,
)
from .linalg import (
    Spectrum,
    binary_entropy,
    clock_shift_basis,
    exterior_square,
    g_func,
    gram_matrix,
    gram_rank,
    herm_eigen,
    shannon_entropy,
    singular_values,
    von_neumann_entropy,
)
from .models import BUILTINS, aklt, aklt_pauli, clock, damping, jordan, markov
from .modelio import ModelFile, load_model, save_model
from .purity import (
    CorrectableReport,
    DecaySeries,
    PurityVerdict,
    build_r_operator,
    constructive_purity_family,
    correctable_subspace,
    estimate_rate,
    f_series,
    haar_kraus,
    product_set,
    purity_verdict,
    span_purity_test,
    w_series,
)
from .restriction import (
    CmiReport,
    RestrictionContext,
    RestrictionSummary,
    average_entropy,
    average_purity_q,
    chain_distribution,
    classical_cmi,
    cmi_report,
    quantum_cmi,
    restriction_scan,
    string_probability,
    post_measurement_spectrum,
    window_distribution,
    window_distributions,
)
from .trajectories import (
    MartingaleTrace,
    martingale_step_check,
    mean_m_check,
    purification_statistic,
    sample_trajectories,
    sample_trajectory,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # chain
    "KrausFamily",
    "BoundaryPair",
    "ChainGeometry",
    "TransferFixedPoint",
    "transfer_apply",
    "transfer_adjoint_apply",
    "transfer_matrix",
    "fixed_point",
    "left_environment",
    "right_environment",
    "sqrt_env",
    "normalization_k2",
    "renormalize",
    # errors
    "MpsRestrictError",
    # linalg
    "Spectrum",
    "herm_eigen",
    "singular_values",
    "von_neumann_entropy",
    "shannon_entropy",
    "binary_entropy",
    "g_func",
    "exterior_square",
    "clock_shift_basis",
    "gram_matrix",
    "gram_rank",
    # gibbs
    "ChainDistribution",
    "LocalHamiltonian",
    "marginal",
    "local_hamiltonian",
    "partition_function",
    "gibbs_distribution",
    "relative_entropy",
    "cmi_decomposition_check",
    "tail_bound_check",
    # restriction
    "RestrictionContext",
    "RestrictionSummary",
    "CmiReport",
    "string_probability",
    "post_measurement_spectrum",
    "average_entropy",
    "quantum_cmi",
    "average_purity_q",
    "restriction_scan",
    "window_distribution",
    "window_distributions",
    "chain_distribution",
    "classical_cmi",
    "cmi_report",
    # purity
    "CorrectableReport",
    "DecaySeries",
    "PurityVerdict",
    "product_set",
    "span_purity_test",
    "correctable_subspace",
    "purity_verdict",
    "w_series",
    "f_series",
    "estimate_rate",
    "haar_kraus",
    "build_r_operator",
    "constructive_purity_family",
    # trajectories
    "MartingaleTrace",
    "sample_trajectory",
    "sample_trajectories",
    "martingale_step_check",
    "mean_m_check",
    "purification_statistic",
    # models
    "BUILTINS",
    "aklt",
    "aklt_pauli",
    "jordan",
    "markov",
    "clock",
    "damping",
    # model files
    "ModelFile",
    "load_model",
    "save_model",
]
