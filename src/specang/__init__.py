"""Spectral-angular parametrization of n-level density matrices.

Gap coordinates on a weighted simplex, SU(n)/flag-manifold angular
coordinates, information-geometric metrics, a trace-distance purity
functional, flag-manifold Monte Carlo, and GKLS dynamics in both direct and
split spectral/angular form.
"""

__version__ = "0.1.0"

from .errors import (
    CrossoverDegeneracyError,
    DegenerateSpectrumError,
    NumericalBreakdownError,
    ValidationError,
)
from .spectral import (
    CoweightBasis,
    GapVector,
    ProbVector,
    cartan_matrix,
    crossover_index,
    fundamental_coweights,
    gaps_from_probs,
    gaps_stack,
    in_polytope,
    inverse_cartan,
    inverse_cartan_exact,
    jacobian_matrix,
    ordered_simplex_volume,
    polytope_vertices,
    probs_from_gaps,
    probs_stack,
    rejection_volume_estimate,
    sorted_probs,
    spectral_diagonal,
    weighted_simplex_volume,
)
from .geometry import (
    BuresDecomposition,
    MetricTensor,
    bures_decomposition,
    fisher_metric_r,
    kl_exact,
    kl_quadratic,
    purity_gap,
    purity_spectrum,
    purity_trace_norm,
    shannon_entropy,
)
from .flags import (
    PAULI,
    AngleSet,
    DensityMatrix,
    UnitaryFrame,
    assemble_density,
    cartan_generator,
    coset_unitaries,
    coset_unitary,
    density_stack,
    eigendecompose_ordered,
    embedded_generator,
    flag_density,
    flag_density_theta,
    flag_volume,
    full_unitary,
    pair_indices,
    quantize,
    qutrit_unitaries_closed_form,
    qutrit_unitary_closed_form,
    resolution_check,
    rotation_factor,
    sample_flag,
    sample_flags,
    state_space_volume,
)
from .dynamics import (
    LindbladModel,
    QubitAngles,
    QutritEuler,
    SplitState,
    Trajectory,
    dissipator,
    integrate_direct,
    integrate_split,
    lindblad_rhs,
    load_density,
    load_model,
    qubit_rhs,
    real_qutrit_rhs,
    save_density,
    save_model,
    secular_factorization_test,
    split_rhs,
    write_trajectory_csv,
)
