"""Membership in the one-way energy-flow class, and its constructor families.

A state belongs to the class certified for target A when, in every
total-energy block, the A-side populations are passive (non-increasing with
the local energy) and the same-energy coherences vanish.  For such states no
energy-conserving unitary can extract energy from A: every transfer to A is
nonnegative.  Cross-energy coherences are harmless and explicitly allowed.

The test is one-sided by design.  States outside the class are reported as
non-members, never as "bidirectional": the class is not known to exhaust all
one-way states, and :func:`probe_unidirectional` exposes a sampling harness
for hunting counterexamples without drawing any conclusion from their
absence.

Two families of members are provided as constructors: products of thermal
states (the colder system only absorbs heat), and products of a passive
state for A with a maximally active state for B (the inverted B populations
can only push energy into A).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import tolerances
from .errors import (
    LengthMismatch,
    NegativeTemperatureWarning,
    NotMaxActive,
    NotPassive,
    ValidationError,
)
from .spectra import Hamiltonian, JointSpectrum, check_system
from .states import BipartiteState, decompose
from .transfer import batch_transfers
from .unitaries import SecUnitary, sample_haar_blocks

DIRECTION_A_FROM_B = "A_from_B"
DIRECTION_B_FROM_A = "B_from_A"
DIRECTION_NONE = "none"


@dataclass
class FlowClassification:
    """Outcome of the one-way-flow membership test for one target system.

    ``direction`` is the certified flow (energy into the target) or "none".
    When per-block passivity fails, ``witness`` holds a unitary, active on a
    single failing block, that strictly lowers the target's energy.
    """

    direction: str
    failing_blocks: list[Fraction]
    has_useful_coherence: bool
    witness: SecUnitary | None = None


def is_e_passive(block_probs, block_energies, eq_tol: float = tolerances.PASSIVITY_EQ) -> bool:
    """Whether populations are non-increasing as the local energy increases.

    Equal probabilities never violate passivity; "equal" allows a float slack
    of ``eq_tol`` so that analytically degenerate populations (for instance
    both systems at the same temperature) classify cleanly.
    """
    probs = np.asarray(block_probs, dtype=float)
    if len(probs) != len(block_energies):
        raise LengthMismatch(
            f"{len(probs)} probabilities paired with {len(block_energies)} energies"
        )
    order = sorted(range(len(probs)), key=lambda m: block_energies[m])
    ordered = probs[order]
    # all-pairs check: adjacent comparisons would let the slack accumulate
    for low in range(len(ordered)):
        for high in range(low + 1, len(ordered)):
            if ordered[high] > ordered[low] + eq_tol:
                return False
    return True


def _swap_witness(
    spec: JointSpectrum, decomp, target: str
) -> tuple[SecUnitary | None, list[Fraction]]:
    """Failing blocks plus the best single-block two-level swap witness."""
    failing: list[Fraction] = []
    best_gain = 0.0
    best: tuple[Fraction, int, int] | None = None
    for block in spec.blocks:
        probs = decomp.diag_blocks[block.energy].probs
        energies = spec.local_energies_float(block.energy, target)
        if is_e_passive(probs, energies):
            continue
        failing.append(block.energy)
        for low in range(block.dim):
            for high in range(block.dim):
                if energies[high] <= energies[low]:
                    continue
                # swapping members (low, high) changes the target energy by
                # -(p_high - p_low) * (e_high - e_low)
                gain = (probs[high] - probs[low]) * (energies[high] - energies[low])
                if gain > best_gain:
                    best_gain = gain
                    best = (block.energy, low, high)
    if best is None:
        return None, failing
    energy, low, high = best
    blocks = {b.energy: np.eye(b.dim, dtype=complex) for b in spec.blocks}
    swap = np.eye(spec.block(energy).dim, dtype=complex)
    swap[[low, high]] = swap[[high, low]]
    blocks[energy] = swap
    return SecUnitary(blocks, spec, validate=False), failing


def classify_flow(
    state: BipartiteState,
    spec: JointSpectrum,
    target: str,
    coherence_tol: float = tolerances.COHERENCE_ZERO,
) -> FlowClassification:
    """Decide membership in the one-way-flow class for the given target.

    Membership (direction "A_from_B" for target A, "B_from_A" for target B)
    requires every block's target-side populations to be passive and every
    same-energy coherence block to vanish below ``coherence_tol``.
    """
    check_system(target)
    decomp = decompose(state, spec)
    witness, failing = _swap_witness(spec, decomp, target)
    has_useful = any(
        np.abs(alpha).max() > coherence_tol
        for alpha in decomp.useful_coherence_blocks().values()
    )
    member = not failing and not has_useful
    if member:
        direction = DIRECTION_A_FROM_B if target == "A" else DIRECTION_B_FROM_A
    else:
        direction = DIRECTION_NONE
    return FlowClassification(
        direction=direction,
        failing_blocks=failing,
        has_useful_coherence=has_useful,
        witness=witness,
    )


def gibbs_probabilities(h: Hamiltonian, beta: float) -> np.ndarray:
    """Thermal populations exp(-beta*e)/Z, computed with overflow shifting."""
    energies = h.energies_float()
    shift = energies.min() if beta >= 0 else energies.max()
    weights = np.exp(-beta * (energies - shift))
    return weights / weights.sum()


def thermal_product(
    h_a: Hamiltonian, h_b: Hamiltonian, beta_a: float, beta_b: float
) -> BipartiteState:
    """Product of two thermal states at inverse temperatures beta_a, beta_b.

    Negative inverse temperatures are allowed (population-inverted thermal
    weights) but flagged with :class:`NegativeTemperatureWarning`.  When
    ``beta_a > beta_b`` the A side is the colder one and the product is a
    member of the class certified for target A.
    """
    for name, beta in (("beta_a", beta_a), ("beta_b", beta_b)):
        if not np.isfinite(beta):
            raise ValidationError(f"{name} must be finite, got {beta!r}")
        if beta < 0:
            warnings.warn(
                f"{name} = {beta} is negative: population-inverted thermal weights",
                NegativeTemperatureWarning,
                stacklevel=2,
            )
    probs = np.kron(gibbs_probabilities(h_a, beta_a), gibbs_probabilities(h_b, beta_b))
    return BipartiteState.diagonal(probs, (h_a.dim, h_b.dim))


def passive_max_active_product(
    probs_a,
    probs_b,
    h_a: Hamiltonian,
    h_b: Hamiltonian,
    eq_tol: float = tolerances.PASSIVITY_EQ,
) -> BipartiteState:
    """Product of a passive A state with a maximally active B state.

    ``probs_a`` must be non-increasing and ``probs_b`` non-decreasing along
    their (increasing) local spectra, both normalized.  Within every block
    the resulting A-side populations decrease with energy, so the product is
    a member of the one-way class for target A: every energy-conserving
    unitary moves energy toward A, out of the inverted B populations.
    """
    pa = np.asarray(probs_a, dtype=float)
    pb = np.asarray(probs_b, dtype=float)
    if len(pa) != h_a.dim:
        raise LengthMismatch(f"probs_a has {len(pa)} entries for {h_a.dim} levels")
    if len(pb) != h_b.dim:
        raise LengthMismatch(f"probs_b has {len(pb)} entries for {h_b.dim} levels")
    for name, p in (("probs_a", pa), ("probs_b", pb)):
        if np.any(p < 0):
            raise ValidationError(f"{name} must be nonnegative")
        if abs(p.sum() - 1.0) > tolerances.TRACE:
            raise ValidationError(
                f"{name} must sum to 1 within {tolerances.TRACE:g}, got {p.sum()!r}"
            )
    if np.any(pa[1:] > pa[:-1] + eq_tol):
        raise NotPassive(
            "probs_a must be non-increasing with energy (slack "
            f"{eq_tol:g}) to be passive"
        )
    if np.any(pb[1:] < pb[:-1] - eq_tol):
        raise NotMaxActive(
            "probs_b must be non-decreasing with energy (slack "
            f"{eq_tol:g}) to be maximally active"
        )
    return BipartiteState.diagonal(np.kron(pa, pb), (h_a.dim, h_b.dim))


def probe_unidirectional(
    state: BipartiteState,
    spec: JointSpectrum,
    target: str,
    n_samples: int,
    seed: int,
    tol: float = tolerances.TRANSFER_NOISE,
) -> dict:
    """Sampling harness: hunt for a unitary that drains the target system.

    Returns the minimum sampled transfer to the target and whether any sample
    fell below ``-tol``.  Absence of a violation is evidence only, not a
    proof of one-way flow.
    """
    check_system(target)
    decomp = decompose(state, spec)
    batch = sample_haar_blocks(spec, seed, n_samples)
    totals = batch_transfers(decomp, batch, target).total
    worst = int(np.argmin(totals))
    return {
        "min_transfer": float(totals[worst]),
        "argmin_sample": worst,
        "violation": bool(totals[worst] < -tol),
        "samples": int(n_samples),
    }
