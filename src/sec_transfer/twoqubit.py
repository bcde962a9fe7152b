"""Closed forms for two resonant qubits, without numpy.

With both qubits carrying levels {0, 1} (energy quantum 1), only the middle
total-energy block is two-dimensional, so an energy-conserving unitary is,
up to three irrelevant phases, a rotation of that block described by a
mixing amplitude ``r`` in [0, 1] and one effective phase ``phi``.  The two
transfer components then have closed forms in the joint populations
``p_ij`` and the single useful coherence ``alpha`` between |01> and |10>:

* diagonal part: ``(p01 - p10) * r**2``,
* coherent part: ``2 Re(alpha e^{i phi}) r sqrt(1 - r**2)``.

Maximizing over the unitary, and optionally over the admissible coherence
``|alpha| <= sqrt(p01 p10)``, is solved exactly here, including the optimal
mixing ``r**2 = p01/(p01+p10)`` (target A) and the headline optimum ``p01``.

Reversal of the heat flow.  Take qubit A hotter (``p01 < p10``), so that
without coherence energy only leaves A.  Two readings of "enough coherence
reverses the flow" hold, and the library encodes both:

* at a fixed mixing ``0 < r < 1`` with the aligned phase
  (``Re(alpha e^{i phi}) = |alpha|``), energy flows into A iff
  ``|alpha| > (p10 - p01) r / (2 sqrt(1 - r**2))``; this is the sign of
  ``delta_diag_2q + delta_coh_2q``;
* over all energy-conserving unitaries, any ``alpha != 0`` suffices:
  ``max_transfer_2q(..., optimize_alpha=False)`` returns
  ``(gap + sqrt(gap**2 + 4 |alpha|**2)) / 2`` with ``gap = p01 - p10``,
  which is positive exactly when ``alpha != 0``.

Everything here needs only ``math`` and ``cmath``, so the ``qubit-max``
command runs without importing numpy; the numpy-backed two-qubit layer
(states, unitaries, the Bell-diagonal plane) is :mod:`sec_transfer.qubits`.
The system-name check every layer shares lives here for the same reason.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import tolerances
from .errors import NotTwoQubit, ValidationError

if TYPE_CHECKING:
    from .states import BipartiteState

SYSTEMS = ("A", "B")
TWO_PI = 2.0 * math.pi


def check_system(system: str) -> str:
    if system not in SYSTEMS:
        raise ValidationError(f"system must be 'A' or 'B', got {system!r}")
    return system


@dataclass(frozen=True)
class TwoQubitParams:
    """Joint populations and the useful coherence of a two-qubit state.

    ``alpha`` is the amplitude between |01> and |10>; positivity of the
    state bounds it by ``|alpha|**2 <= p01 * p10``.
    """

    p00: float
    p01: float
    p10: float
    p11: float
    alpha: complex = 0.0

    def __post_init__(self):
        probs = (self.p00, self.p01, self.p10, self.p11)
        if not (all(math.isfinite(p) for p in probs) and cmath.isfinite(self.alpha)):
            raise ValidationError(
                f"two-qubit parameters must be finite, got {probs} and alpha={self.alpha}"
            )
        if min(probs) < -tolerances.QUBIT_DOMAIN:
            raise ValidationError(f"populations must be nonnegative, got {probs}")
        total = sum(probs)
        if abs(total - 1.0) > tolerances.TRACE:
            raise ValidationError(
                f"populations must sum to 1 within {tolerances.TRACE:g}, got {total!r}"
            )
        # any |alpha| above 1 exceeds p01*p10 here, and one past 1e154 overflows squared
        bound = self.p01 * self.p10 + tolerances.POPULATION_BOUND
        if abs(self.alpha) > 1.0 or abs(self.alpha) ** 2 > bound:
            raise ValidationError(
                "coherence too large: |alpha|^2 must not exceed p01*p10 "
                f"(slack {tolerances.POPULATION_BOUND:g})"
            )

    def to_state(self) -> BipartiteState:
        import numpy as np

        from .states import BipartiteState

        mat = np.diag(np.array([self.p00, self.p01, self.p10, self.p11], dtype=complex))
        mat[1, 2] = self.alpha
        mat[2, 1] = np.conj(self.alpha)
        return BipartiteState(mat, (2, 2))

    @classmethod
    def from_state(cls, state: BipartiteState) -> "TwoQubitParams":
        """The inverse of :meth:`to_state`, which the tests check through it."""
        if state.dims != (2, 2):
            raise NotTwoQubit(f"expected dims (2, 2), got {state.dims}")
        pops = state.populations()
        return cls(
            p00=float(pops[0]),
            p01=float(pops[1]),
            p10=float(pops[2]),
            p11=float(pops[3]),
            alpha=complex(state.matrix[1, 2]),
        )


def delta_diag_2q(params: TwoQubitParams, r: float) -> float:
    """Population-sourced transfer to qubit A: (p01 - p10) * r**2."""
    if not 0.0 <= r <= 1.0:
        raise ValidationError(f"r must lie in [0, 1], got {r!r}")
    return (params.p01 - params.p10) * r * r


def delta_coh_2q(params: TwoQubitParams, r: float, phi: float) -> float:
    """Coherence-sourced transfer to qubit A: 2 Re(alpha e^{i phi}) r sqrt(1-r^2)."""
    if not 0.0 <= r <= 1.0:
        raise ValidationError(f"r must lie in [0, 1], got {r!r}")
    if not math.isfinite(phi):
        raise ValidationError(f"phi must be finite, got {phi!r}")
    return (
        2.0
        * (params.alpha * cmath.exp(1j * phi)).real
        * r
        * math.sqrt(max(0.0, 1.0 - r * r))
    )


@dataclass(frozen=True)
class TwoQubitOptimum:
    """Optimal transfer with the unitary (and optionally coherence) realizing it."""

    value: float
    r_star: float
    phi_star: float
    alpha_star: complex


def max_transfer_2q(
    params: TwoQubitParams, target: str, optimize_alpha: bool = True
) -> TwoQubitOptimum:
    """Maximum transfer to a target qubit, exactly.

    With ``optimize_alpha`` the coherence ranges over its admissible disc
    ``|alpha| <= sqrt(p01 p10)`` and the optimum is ``p01`` (target A) or
    ``p10`` (target B), reached at maximum coherence, zero effective phase,
    and mixing ``r**2 = p01/(p01+p10)`` respectively ``p10/(p01+p10)``.
    With it off, the state's own coherence is kept fixed and only the
    unitary is optimized (stationary mixing of the two closed forms).
    """
    check_system(target)
    p01, p10 = params.p01, params.p10
    gap = p01 - p10 if target == "A" else p10 - p01
    if optimize_alpha:
        amax = math.sqrt(max(0.0, p01 * p10))
        weight = p01 + p10
        if weight <= 0.0:
            return TwoQubitOptimum(0.0, 0.0, 0.0, 0.0)
        x_star = (p01 if target == "A" else p10) / weight
        alpha_star = amax if target == "A" else -amax
        return TwoQubitOptimum(
            value=p01 if target == "A" else p10,
            r_star=math.sqrt(x_star),
            phi_star=0.0,
            alpha_star=complex(alpha_star),
        )
    strength = abs(params.alpha)
    # phase that aligns the coherent term with the requested direction
    if strength == 0.0:
        phi_star = 0.0
    elif target == "A":
        phi_star = (-cmath.phase(params.alpha)) % TWO_PI
    else:
        phi_star = (math.pi - cmath.phase(params.alpha)) % TWO_PI
    spread = math.hypot(gap, 2.0 * strength)
    if spread == 0.0:  # equal populations and no coherence: nothing moves
        return TwoQubitOptimum(0.0, 0.0, phi_star, params.alpha)
    x_star = 0.5 * (1.0 + gap / spread)
    return TwoQubitOptimum(
        value=0.5 * (gap + spread),
        r_star=math.sqrt(x_star),
        phi_star=phi_star,
        alpha_star=params.alpha,
    )
