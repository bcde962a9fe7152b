"""Energy transfer between two finite quantum systems under
strong-energy-conserving unitaries.

The package decomposes bipartite density matrices over fixed-total-energy
blocks, splits the average energy transfer into population-sourced and
coherence-sourced parts, constructs the exactly optimal block unitaries,
classifies states whose energy can flow only one way, and carries the full
closed-form layer for two resonant qubits (including Bell-diagonal geometry
and concurrence).  Monte-Carlo sampling over Haar-random block unitaries is
built in as an independent cross-check of every exact path.
"""

from .classify import (
    FlowClassification,
    classify_flow,
    gibbs_probabilities,
    is_e_passive,
    passive_max_active_product,
    thermal_product,
)
from .errors import (
    BlockMismatch,
    DegenerateSpectrum,
    DimensionMismatch,
    LengthMismatch,
    NegativeTemperatureWarning,
    NotAState,
    NotMaxActive,
    NotPassive,
    NotTwoQubit,
    NotUnitary,
    NumericalInvariantError,
    RationalSnapError,
    SecTransferError,
    Unphysical,
    ValidationError,
    UnknownBlock,
)
from .optimize import (
    OptimizationResult,
    check_coherence_bound,
    max_active_rearrange,
    maximize_transfer_exact,
    monte_carlo_max,
    optimal_diagonal_unitary,
    passive_rearrange,
)
from .qubits import (
    BellDiagParams,
    PlaneScan,
    SecParams2Q,
    TwoQubitOptimum,
    TwoQubitParams,
    bell_correlations,
    bell_diagonal_state,
    concurrence_bell_diagonal,
    concurrence_directional_derivative,
    concurrence_wootters,
    delta_coh_2q,
    delta_diag_2q,
    max_transfer_2q,
    max_transfer_vs_concurrence,
    plane_scan,
    plane_scan_gradient,
    second_order_check,
    two_qubit_hamiltonian,
    two_qubit_spectrum,
)
from .spectra import (
    EnergyBlock,
    Hamiltonian,
    JointSpectrum,
    build_joint_spectrum,
    e_local_energies,
    snap_to_rational,
)
from .states import (
    BipartiteState,
    DiagBlock,
    StateDecomposition,
    decompose,
    local_energy,
    partial_trace,
)
from .transfer import (
    BatchTransfers,
    TransferReport,
    analyze,
    batch_transfers,
    transfer_coherent,
    transfer_diagonal,
    transfer_direct,
)
from .unitaries import (
    SecUnitary,
    evolve,
    is_potentially_coherent,
    sample_haar,
    sample_haar_blocks,
    to_full_matrix,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
