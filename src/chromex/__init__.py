"""Chromatic derivatives and chromatic expansions for families of
orthonormal polynomials: coefficient tables, basis functions, local
expansions with error envelopes, FIR evaluation of the operators from
samples, and power-space seminorms."""

from .basis_functions import kbasis_closed, kbasis_rows, kbasis_series
from .chromatic_core import (
    ChromaticTable,
    ConversionMatrices,
    build_table,
    chromatic_jet_from_taylor,
    conversion_matrices,
    orthonormality_matrix,
    table_for,
    taylor_from_chromatic_jet,
)
from .errors import ChromexError, NumericError, ParameterError
from .expansions import (
    ApproximationResult,
    Constant,
    Cosine,
    Exponential,
    FunctionSpec,
    JetFunction,
    ShannonCombo,
    Sinc,
    chromatic_approximation,
    chromatic_approximation_grid,
    error_envelope,
    identity_constant_one,
    identity_exponential,
    identity_translation,
    local_convolution,
    local_norm_sq,
    local_scalar,
    taylor_vs_chromatic_comparison,
)
from .families import (
    FAMILY_TAGS,
    FamilyId,
    euler_numbers,
    family_spec,
    gauss_quadrature,
    jacobi_matrix,
    moment_analytic,
    moment_jacobi_matrix,
    parse_family,
    recursion_coefficients,
)
from .fir_design import (
    DesignReport,
    FirFilter,
    apply_filter,
    design_ls,
    load_filter,
    save_filter,
    transfer_function,
)
from .orthopoly import cd_diagonal, cd_kernel, eval_all_p
from .power_spaces import (
    ConditionReport,
    SequenceDiagnostics,
    beta_sequence,
    chebyshev_exponential_norm,
    check_conditions,
    hermite_exponential_norm,
    nu_sequence,
    sigma_sequence,
)

__version__ = "0.1.0"

# every kernel is plain numpy; numba is not used (the constant stays for
# code that still reads it)
USING_NUMBA = False
