"""Averaging schemes over finite groups.

Build finite groups and their unitary representations, certify how well
sparse weighted averages over group elements enforce symmetry, size the
random construction that achieves a target certificate, search for small
certified schemes, and reproduce the accompanying experiments.
"""

__version__ = "0.1.0"

from .errors import (
    CapabilityError,
    GroupMismatchError,
    NumericalConsistencyError,
    SearchFailureError,
    SizeLimitError,
    TrainingFailureError,
    UsageError,
)
from .groups import (
    ConjugacyPartition,
    Group,
    closure,
    conjugacy_classes,
    group_from_text,
    group_spec_string,
    group_to_text,
    parse_group_spec,
    sample_uniform,
)
from .reps import (
    CharacterVector,
    EigenProfile,
    Representation,
    direct_sum,
    eigen_profile,
    invariant_dimension,
    invariant_projector,
    k_bound,
    permutation_rep,
    regular_k_bound,
    regular_rep,
    rep_to_text,
    sign_action_rep,
    sym_power_characters,
    sym_power_rep,
    tensor_product,
    trivial_rep,
)
from .irreps import IrrepTable, character_table_csv, decompose, irreps_of
from .fourier import (
    FourierCoefficients,
    GroupSignal,
    convolve,
    fourier_transform,
    inverse_fourier,
    max_nontrivial_norm,
    plancherel_residual,
    spectral_norm,
)
from .schemes import (
    AveragingScheme,
    CertificationReport,
    MinimizeResult,
    apply_scheme,
    certify,
    certify_strong,
    certify_weak,
    delta_scheme,
    minimize_scheme,
    random_scheme,
    required_sample_count,
    scheme_from_json,
    scheme_to_json,
    uniform_scheme,
)
from .separation import (
    FeasibilityResult,
    SeparationRow,
    exact_feasible_on_support,
    exact_violation,
    separation_csv,
    separation_table,
    sign_flip_generation_report,
    sym_power_coverage,
)
