"""The one-way energy-flow class, decided exactly, and its constructor families.

A state belongs to the class for target A when, in every total-energy block,
the A-side populations are passive (non-increasing with the local energy)
and the same-energy coherences vanish; cross-energy coherences are allowed.
These are exactly the states that no energy-conserving unitary can drain:

* An SEC unitary commutes with ``H_A + H_B``, so ``dE_A = -dE_B`` and
  ``min_U dE_target = -max_U dE_other``, which
  :func:`~sec_transfer.optimize.maximize_transfer_exact` computes exactly.
* Per block, von Neumann's trace inequality bounds ``tr(U rho_E U^dag H)``
  by ``sum_k lambda_k h_k`` (both sorted decreasingly).  The identity
  attains it iff ``rho_E`` commutes with the other side's block energies,
  which are distinct, and is ordered with them: no same-energy coherence,
  and populations falling with the target's energy.

So the minimum transfer is zero for members and negative otherwise.
:func:`classify_flow` reports the rule's verdict, that minimum and, when
passivity fails, a two-level swap witness that drains the target.

Two families of members are provided as constructors: products of thermal
states (the colder system only absorbs heat), and products of a passive
state for A with a maximally active state for B (the inverted B populations
can only push energy into A).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import tolerances
from .errors import (
    LengthMismatch,
    NegativeTemperatureWarning,
    NotMaxActive,
    NotPassive,
    ValidationError,
)
from .optimize import _block_optimum
from .spectra import Hamiltonian, JointSpectrum, check_system
from .states import BipartiteState, decompose
from .unitaries import SecUnitary

DIRECTION_A_FROM_B = "A_from_B"
DIRECTION_B_FROM_A = "B_from_A"
DIRECTION_NONE = "none"


@dataclass
class FlowClassification:
    """Outcome of the one-way-flow decision for one target system.

    ``direction`` is the certified flow (energy into the target) or "none".
    ``min_transfer`` is the exact minimum transfer to the target over all
    SEC unitaries, zero up to rounding for members (an exact zero reads
    ``0.0``, never ``-0.0``): the verdict's margin.  No tolerance is applied
    to it; read a member's value against 1e-12, the loss ``verify``'s
    one-way-flow row allows a member (the 8x8 thermal ladder member prints
    ``3.469446951953614e-18``).  Near the boundary it
    and the ``tolerances.COHERENCE_ZERO`` rule can disagree, as it is
    quadratic in a small same-energy coherence: a 3x3 thermal member
    (inverse temperatures 2 and 1) plus a coherence of 1e-6 gives -7.5e-12,
    and one of 1e-9 gives 0.0, while ``direction`` is "none".
    ``failing_blocks`` lists the indices of the blocks whose target-side
    populations fail passivity, in block order; the report names them by
    energy (:func:`~sec_transfer.formats.flow_classification_to_json`).
    When per-block passivity fails, ``witness`` holds a unitary, active on a
    single failing block, that strictly lowers the target's energy.
    """

    direction: str
    failing_blocks: list[int]
    has_useful_coherence: bool
    min_transfer: float
    witness: SecUnitary | None = None


def is_e_passive(block_probs, block_energies) -> bool:
    """Whether populations are non-increasing as the local energy increases.

    Equal probabilities never violate passivity; "equal" allows a float slack
    of ``tolerances.PASSIVITY_EQ`` so that analytically degenerate
    populations (for instance both systems at the same temperature) classify
    cleanly.
    """
    probs = np.asarray(block_probs, dtype=float)
    if len(probs) != len(block_energies):
        raise LengthMismatch(
            f"{len(probs)} probabilities paired with {len(block_energies)} energies"
        )
    order = sorted(range(len(probs)), key=lambda m: block_energies[m])
    ordered = probs[order]
    # each level against the smallest population below it, not only its
    # neighbour, so the slack cannot accumulate; fmin skips NaN entries,
    # which (as in any comparison) never violate passivity
    lowest_below = np.fmin.accumulate(ordered)[:-1]
    return not np.any(ordered[1:] > lowest_below + tolerances.PASSIVITY_EQ)


def _swap_witness(
    spec: JointSpectrum, decomp, target: str
) -> tuple[SecUnitary | None, list[int]]:
    """Failing block indices plus the best single-block two-level swap witness."""
    layout = spec.layout
    all_energies = spec.ordered_local_energies(target)
    failing: list[int] = []
    best_gain = 0.0
    best: tuple[int, int, int] | None = None
    for i, d in enumerate(layout.dims.tolist()):
        span = layout.span(i)
        probs, energies = decomp.probs[span], all_energies[span]
        if is_e_passive(probs, energies):
            continue
        failing.append(i)
        for low in range(d):
            for high in range(d):
                if energies[high] <= energies[low]:
                    continue
                # swapping members (low, high) changes the target energy by
                # -(p_high - p_low) * (e_high - e_low)
                gain = (probs[high] - probs[low]) * (energies[high] - energies[low])
                if gain > best_gain:
                    best_gain = gain
                    best = (i, low, high)
    if best is None:
        return None, failing
    i, low, high = best
    blocks = list(SecUnitary.identity(spec).blocks)
    swap = np.eye(int(layout.dims[i]), dtype=complex)
    swap[[low, high]] = swap[[high, low]]
    blocks[i] = swap
    return SecUnitary(blocks, spec, validate=False), failing


def classify_flow(state: BipartiteState, spec: JointSpectrum, target: str) -> FlowClassification:
    """Decide membership in the one-way-flow class for the given target.

    Membership (direction "A_from_B" for target A, "B_from_A" for target B)
    requires every block's target-side populations to be passive and every
    same-energy coherence block to vanish below ``tolerances.COHERENCE_ZERO``.
    """
    check_system(target)
    decomp = decompose(state, spec)
    witness, failing = _swap_witness(spec, decomp, target)
    useful = decomp.useful_coherence_blocks()
    has_useful = any(
        np.abs(alpha).max() > tolerances.COHERENCE_ZERO for alpha in useful.values()
    )
    other = "B" if target == "A" else "A"
    # 0.0 - x rather than -x, so an exact zero reads 0.0 and never -0.0
    min_transfer = 0.0 - _block_optimum(decomp, useful, other).value
    member = not failing and not has_useful
    if member:
        direction = DIRECTION_A_FROM_B if target == "A" else DIRECTION_B_FROM_A
    else:
        direction = DIRECTION_NONE
    return FlowClassification(
        direction=direction,
        failing_blocks=failing,
        has_useful_coherence=has_useful,
        min_transfer=min_transfer,
        witness=witness,
    )


def gibbs_probabilities(h: Hamiltonian, beta: float) -> np.ndarray:
    """Thermal populations exp(-beta*e)/Z, computed with overflow shifting."""
    energies = h.energies_float()
    shift = energies.min() if beta >= 0 else energies.max()
    # an exponent (at most 0) that overflows to -inf gives weight 0, the exact limit
    with np.errstate(over="ignore"):
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
    return BipartiteState.diagonal(probs, (h_a.dim, h_b.dim), validate=False)


def passive_max_active_product(
    probs_a, probs_b, h_a: Hamiltonian, h_b: Hamiltonian
) -> BipartiteState:
    """Product of a passive A state with a maximally active B state.

    ``probs_a`` must be non-increasing and ``probs_b`` non-decreasing along
    their (increasing) local spectra, as :func:`is_e_passive` judges a block
    (each level within ``tolerances.PASSIVITY_EQ`` of the extreme population
    below it), and both normalized within ``tolerances.TRACE``.  Within every
    block the resulting A-side populations decrease with energy, so the
    product is a member of the one-way class for target A: every
    energy-conserving unitary moves energy toward A, out of the inverted B
    populations.
    """
    pa = np.asarray(probs_a, dtype=float)
    pb = np.asarray(probs_b, dtype=float)
    if len(pa) != h_a.dim:
        raise LengthMismatch(f"probs_a has {len(pa)} entries for {h_a.dim} levels")
    if len(pb) != h_b.dim:
        raise LengthMismatch(f"probs_b has {len(pb)} entries for {h_b.dim} levels")
    for name, p in (("probs_a", pa), ("probs_b", pb)):
        # NaN passes every comparison below, so refuse it by name first
        if not np.isfinite(p).all():
            raise ValidationError(f"{name} must be finite, got {p.tolist()!r}")
        if np.any(p < 0):
            raise ValidationError(f"{name} must be nonnegative")
        if abs(p.sum() - 1.0) > tolerances.TRACE:
            raise ValidationError(
                f"{name} must sum to 1 within {tolerances.TRACE:g}, got {float(p.sum())!r}"
            )
    # judged as classify_flow judges a block, so the slack cannot add up over levels
    eq = tolerances.PASSIVITY_EQ
    if not is_e_passive(pa, h_a.energies):
        raise NotPassive(
            f"probs_a must be non-increasing with energy (slack {eq:g}) to be passive"
        )
    if not is_e_passive(pb, [-e for e in h_b.energies]):
        raise NotMaxActive(
            f"probs_b must be non-decreasing with energy (slack {eq:g}) to be maximally active"
        )
    # not admitted again: its trace may stray by both sums' bounds, a state no input named
    return BipartiteState.diagonal(np.kron(pa, pb), (h_a.dim, h_b.dim), validate=False)

