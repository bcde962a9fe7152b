"""Energy transfer between two finite quantum systems under
strong-energy-conserving unitaries.

The package decomposes bipartite density matrices over fixed-total-energy
blocks, splits the average energy transfer into population-sourced and
coherence-sourced parts, constructs the exactly optimal block unitaries,
classifies states whose energy can flow only one way, and carries the full
closed-form layer for two resonant qubits (including Bell-diagonal geometry
and concurrence).  Monte-Carlo sampling over Haar-random block unitaries is
built in as an independent cross-check of every exact path.

Importing the package imports none of its modules: each public name is
imported from its home module on first use (PEP 562).  So ``import
sec_transfer`` does not load numpy, and neither do the numpy-free modules
``twoqubit``, ``jsonio``, ``tolerances`` and ``errors``.
"""

import importlib

__version__ = "0.1.0"

# home module of every public name
_HOMES = {
    "classify": (
        "FlowClassification",
        "classify_flow",
        "gibbs_probabilities",
        "is_e_passive",
        "passive_max_active_product",
        "thermal_product",
    ),
    "errors": (
        "BlockMismatch",
        "DegenerateSpectrum",
        "DimensionMismatch",
        "LengthMismatch",
        "NegativeTemperatureWarning",
        "NotAState",
        "NotMaxActive",
        "NotPassive",
        "NotTwoQubit",
        "NotUnitary",
        "NumericalInvariantError",
        "SecTransferError",
        "Unphysical",
        "ValidationError",
        "UnknownBlock",
    ),
    "optimize": (
        "OptimizationResult",
        "check_coherence_bound",
        "maximize_transfer_exact",
        "monte_carlo_max",
        "optimal_diagonal_unitary",
    ),
    "qubits": (
        "BellDiagParams",
        "PlaneScan",
        "SecParams2Q",
        "bell_correlations",
        "bell_diagonal_state",
        "concurrence_bell_diagonal",
        "concurrence_directional_derivative",
        "concurrence_wootters",
        "plane_scan",
        "plane_scan_gradient",
        "two_qubit_spectrum",
    ),
    "spectra": (
        "EnergyBlock",
        "Hamiltonian",
        "JointSpectrum",
        "build_joint_spectrum",
    ),
    "states": (
        "BipartiteState",
        "StateDecomposition",
        "decompose",
        "local_energy",
        "partial_trace",
    ),
    "transfer": (
        "BatchTransfers",
        "TransferReport",
        "analyze",
        "batch_transfers",
        "transfer_coherent",
        "transfer_diagonal",
        "transfer_direct",
    ),
    "twoqubit": (
        "TwoQubitOptimum",
        "TwoQubitParams",
        "delta_coh_2q",
        "delta_diag_2q",
        "max_transfer_2q",
    ),
    "unitaries": (
        "SecUnitary",
        "evolve",
        "is_potentially_coherent",
        "sample_haar",
        "sample_haar_blocks",
        "to_full_matrix",
    ),
}

__all__ = [name for names in _HOMES.values() for name in names]

_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = (
    "classify", "cli", "errors", "fixtures", "formats", "jsonio", "optimize", "qubits",
    "spectra", "states", "tolerances", "transfer", "twoqubit", "unitaries", "verify",
)


def __getattr__(name: str):
    if name in _HOME_OF:
        value = getattr(importlib.import_module(f".{_HOME_OF[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
