"""Closed-form layer for two resonant qubits.

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

The Bell-diagonal geometry lives here too: states with maximally mixed
marginals and a real useful coherence form a plane in the correlation
coordinates (c_x, c_y, c_z) with c_x = c_y; on it the optimal transfer is
``c_x / 2``, the concurrence is ``max(0, c_x - (1 + c_z)/2)``, and along the
maximum-coherence edge the optimum equals ``(1 + C)/4``.  ``plane_scan``
tabulates all of this on a grid for external plotting.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import tolerances
from .errors import NotTwoQubit, Unphysical, ValidationError
from .spectra import Hamiltonian, JointSpectrum, build_joint_spectrum, check_system
from .states import BipartiteState
from .unitaries import SecUnitary

TWO_PI = 2.0 * math.pi

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def two_qubit_hamiltonian() -> Hamiltonian:
    """The resonant qubit spectrum {0, 1}."""
    return Hamiltonian((0, 1), labels=("g", "e"))


def two_qubit_spectrum() -> JointSpectrum:
    h = two_qubit_hamiltonian()
    return build_joint_spectrum(h, h)


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
        if not np.isfinite([*probs, self.alpha]).all():
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
        if abs(self.alpha) ** 2 > self.p01 * self.p10 + tolerances.POPULATION_BOUND:
            raise ValidationError(
                "coherence too large: |alpha|^2 must not exceed p01*p10 "
                f"(slack {tolerances.POPULATION_BOUND:g})"
            )

    def to_state(self) -> BipartiteState:
        mat = np.diag(np.array([self.p00, self.p01, self.p10, self.p11], dtype=complex))
        mat[1, 2] = self.alpha
        mat[2, 1] = np.conj(self.alpha)
        return BipartiteState(mat, (2, 2))

    @classmethod
    def from_state(cls, state: BipartiteState) -> "TwoQubitParams":
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


@dataclass(frozen=True)
class SecParams2Q:
    """Parameters of a general two-qubit energy-conserving unitary.

    ``phi`` is the single effective phase that enters the coherent transfer;
    the four per-level phases ``thetas`` are retained purely so their
    irrelevance can be demonstrated, and the raw rotation phase is chosen so
    that the effective phase stays exactly ``phi`` whatever they are.
    """

    r: float
    phi: float = 0.0
    thetas: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        if not 0.0 <= self.r <= 1.0:
            raise ValidationError(f"r must lie in [0, 1], got {self.r!r}")
        object.__setattr__(self, "phi", float(self.phi) % TWO_PI)
        if len(self.thetas) != 4:
            raise ValidationError("thetas must hold four phases (t00, t01, t10, t11)")
        object.__setattr__(self, "thetas", tuple(float(t) % TWO_PI for t in self.thetas))

    def to_sec_unitary(self, spec: JointSpectrum | None = None) -> SecUnitary:
        spec = spec if spec is not None else two_qubit_spectrum()
        if spec.dims != (2, 2):
            raise NotTwoQubit(f"expected a 2x2 joint spectrum, got dims {spec.dims}")
        t00, t01, t10, t11 = self.thetas
        raw_phase = self.phi - t01 + t10  # keeps the effective phase at phi
        c = math.sqrt(max(0.0, 1.0 - self.r * self.r))
        rot = np.array(
            [
                [
                    cmath.exp(1j * t01) * c,
                    -cmath.exp(1j * (t10 - raw_phase)) * self.r,
                ],
                [
                    cmath.exp(1j * (t01 + raw_phase)) * self.r,
                    cmath.exp(1j * t10) * c,
                ],
            ]
        )
        blocks = {
            spec.blocks[0].energy: np.array([[cmath.exp(1j * t00)]]),
            spec.blocks[1].energy: rot,
            spec.blocks[2].energy: np.array([[cmath.exp(1j * t11)]]),
        }
        return SecUnitary(blocks, spec, validate=False)


def delta_diag_2q(params: TwoQubitParams, r: float) -> float:
    """Population-sourced transfer to qubit A: (p01 - p10) * r**2."""
    if not 0.0 <= r <= 1.0:
        raise ValidationError(f"r must lie in [0, 1], got {r!r}")
    return (params.p01 - params.p10) * r * r


def delta_coh_2q(params: TwoQubitParams, r: float, phi: float) -> float:
    """Coherence-sourced transfer to qubit A: 2 Re(alpha e^{i phi}) r sqrt(1-r^2)."""
    if not 0.0 <= r <= 1.0:
        raise ValidationError(f"r must lie in [0, 1], got {r!r}")
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
    if strength == 0.0:
        if gap > 0.0:
            return TwoQubitOptimum(gap, 1.0, phi_star, params.alpha)
        return TwoQubitOptimum(0.0, 0.0, phi_star, params.alpha)
    spread = math.hypot(gap, 2.0 * strength)
    x_star = 0.5 * (1.0 + gap / spread)
    return TwoQubitOptimum(
        value=0.5 * (gap + spread),
        r_star=math.sqrt(x_star),
        phi_star=phi_star,
        alpha_star=params.alpha,
    )


def second_order_check(params: TwoQubitParams) -> tuple[float, float]:
    """Curvatures of the two optimized branches at their stationary mixings.

    Evaluates d^2/dr^2 of the aligned (+) and anti-aligned (-) maximal-
    coherence transfer branches at their stationary points ``x_+`` and
    ``x_-``; a proper maximum/minimum pair returns (negative, positive).
    Requires both p01 and p10 positive, otherwise the stationary points
    degenerate to the boundary.
    """
    p01, p10 = params.p01, params.p10
    if p01 <= 0.0 or p10 <= 0.0:
        raise ValidationError(
            "second_order_check needs p01 > 0 and p10 > 0; boundary optima "
            "have no interior stationary point"
        )
    amax = math.sqrt(p01 * p10)
    gap = p01 - p10

    def curvature(x: float, sign: float) -> float:
        slope = gap + sign * amax * (1.0 - 2.0 * x) / math.sqrt(x * (1.0 - x))
        bend = -sign * 0.5 * amax / (x * (1.0 - x)) ** 1.5
        return 2.0 * slope + 4.0 * x * bend

    x_plus = p01 / (p01 + p10)
    x_minus = p10 / (p01 + p10)
    return curvature(x_plus, +1.0), curvature(x_minus, -1.0)


@dataclass(frozen=True)
class BellDiagParams:
    """Correlation coordinates (c_x, c_y, c_z) of a Bell-diagonal state."""

    c_x: float
    c_y: float
    c_z: float

    def bell_eigenvalues(self) -> np.ndarray:
        """Eigenvalues lambda[a, b] on the four Bell states."""
        out = np.empty((2, 2))
        for a in (0, 1):
            for b in (0, 1):
                out[a, b] = 0.25 * (
                    1.0
                    + (-1.0) ** a * self.c_x
                    - (-1.0) ** (a + b) * self.c_y
                    + (-1.0) ** b * self.c_z
                )
        return out

    def is_physical(self) -> bool:
        """No Bell eigenvalue below ``-tolerances.QUBIT_DOMAIN``."""
        return bool(self.bell_eigenvalues().min() >= -tolerances.QUBIT_DOMAIN)


def bell_diagonal_state(c: BellDiagParams) -> BipartiteState:
    """Two-qubit state (I + c_x XX + c_y YY + c_z ZZ)/4; requires physicality."""
    lams = c.bell_eigenvalues()
    if lams.min() < -tolerances.QUBIT_DOMAIN:
        raise Unphysical(
            f"Bell eigenvalues {lams.ravel().tolist()} dip below "
            f"-{tolerances.QUBIT_DOMAIN:g}; "
            "correlations lie outside the physical tetrahedron"
        )
    mat = 0.25 * (
        np.eye(4, dtype=complex)
        + c.c_x * np.kron(PAULI_X, PAULI_X)
        + c.c_y * np.kron(PAULI_Y, PAULI_Y)
        + c.c_z * np.kron(PAULI_Z, PAULI_Z)
    )
    return BipartiteState(mat, (2, 2))


def bell_correlations(state: BipartiteState) -> BellDiagParams:
    """Read the correlation coordinates c_i = Tr((sigma_i x sigma_i) rho)."""
    if state.dims != (2, 2):
        raise NotTwoQubit(f"expected dims (2, 2), got {state.dims}")
    mat = state.matrix
    return BellDiagParams(
        c_x=float(np.trace(np.kron(PAULI_X, PAULI_X) @ mat).real),
        c_y=float(np.trace(np.kron(PAULI_Y, PAULI_Y) @ mat).real),
        c_z=float(np.trace(np.kron(PAULI_Z, PAULI_Z) @ mat).real),
    )


def _require_in_scope(c: BellDiagParams) -> None:
    tol = tolerances.QUBIT_DOMAIN
    if abs(c.c_x - c.c_y) > tol:
        raise Unphysical(
            f"closed form needs c_x = c_y within {tol:g}, got "
            f"{c.c_x!r} vs {c.c_y!r}"
        )
    if c.c_x < -tol:
        raise Unphysical(f"closed form covers the half-plane c_x >= 0, got {c.c_x!r}")
    if not c.is_physical():
        raise Unphysical("correlations lie outside the physical tetrahedron")


def concurrence_bell_diagonal(c: BellDiagParams) -> float:
    """Concurrence on the in-scope plane: max(0, c_x - (1 + c_z)/2).

    Valid for Bell-diagonal states with c_x = c_y >= 0 (real coherence); the
    line c_z = 2 c_x - 1 is exactly the separable/entangled boundary.
    """
    _require_in_scope(c)
    return max(0.0, c.c_x - 0.5 * (1.0 + c.c_z))


def concurrence_wootters(state: BipartiteState) -> float:
    """General two-qubit concurrence from the spin-flipped spectrum.

    Uses the standard construction: eigenvalues of rho (YY) rho* (YY) in the
    computational basis, square-rooted and sorted increasingly; the
    concurrence is max(0, largest minus the sum of the other three).
    """
    if state.dims != (2, 2):
        raise NotTwoQubit(f"expected dims (2, 2), got {state.dims}")
    yy = np.kron(PAULI_Y, PAULI_Y)
    flipped = yy @ state.matrix.conj() @ yy
    evals = np.linalg.eigvals(state.matrix @ flipped)
    # tiny negative/imaginary parts are numerical noise on a PSD spectrum
    etas = np.sort(np.sqrt(np.clip(evals.real, 0.0, None)))
    return float(max(0.0, etas[3] - etas[2] - etas[1] - etas[0]))


def max_transfer_vs_concurrence(concurrence: float) -> float:
    """Optimal transfer along the maximum-coherence Bell-diagonal line.

    Equals (1 + C)/4 for C in [0, 1].  The relation holds on that one line
    only; away from it the optimum is not a function of the concurrence
    alone.
    """
    if not -tolerances.QUBIT_DOMAIN <= concurrence <= 1.0 + tolerances.QUBIT_DOMAIN:
        raise ValidationError(f"concurrence must lie in [0, 1], got {concurrence!r}")
    return 0.25 * (1.0 + min(1.0, max(0.0, concurrence)))


@dataclass
class PlaneScan:
    """Grid scan of the in-scope Bell-diagonal triangle.

    Columns (all aligned 1-d arrays): the correlation coordinates, the
    optimal transfer ``c_x / 2``, the closed-form concurrence, and the
    separability flag (concurrence exactly zero).  Grid step bookkeeping
    (``x_index``, ``z_index``, ``resolution``) supports finite differencing.
    """

    resolution: int
    c_x: np.ndarray
    c_y: np.ndarray
    c_z: np.ndarray
    max_transfer: np.ndarray
    concurrence: np.ndarray
    separable: np.ndarray
    x_index: np.ndarray = field(repr=False, default=None)
    z_index: np.ndarray = field(repr=False, default=None)

    def __len__(self) -> int:
        return len(self.c_x)


def plane_scan(resolution: int = 201) -> PlaneScan:
    """Sample the physical triangle with c_x = c_y >= 0 on a regular grid.

    ``c_x`` runs over ``resolution`` points in [0, 1] and ``c_z`` over
    ``resolution`` points in [-1, 1]; a grid point is kept when it satisfies
    the physicality constraint c_z <= 1 - 2 c_x (boundary included).  Rows
    are ordered by increasing c_x, then increasing c_z.
    """
    if resolution < 2:
        raise ValidationError(f"resolution must be >= 2, got {resolution}")
    xs = np.linspace(0.0, 1.0, resolution)
    zs = np.linspace(-1.0, 1.0, resolution)
    # zs is sorted, so each c_x column keeps a prefix of it
    counts = np.searchsorted(zs, 1.0 - 2.0 * xs + tolerances.QUBIT_DOMAIN, side="right")
    idx_x = np.repeat(np.arange(resolution), counts)
    idx_z = np.arange(len(idx_x)) - np.repeat(np.cumsum(counts) - counts, counts)
    c_x = xs[idx_x]
    c_z = zs[idx_z]
    concurrence = np.maximum(0.0, c_x - 0.5 * (1.0 + c_z))
    return PlaneScan(
        resolution=resolution,
        c_x=c_x,
        c_y=c_x.copy(),
        c_z=c_z,
        max_transfer=0.5 * c_x,
        concurrence=concurrence,
        separable=concurrence == 0.0,
        x_index=idx_x,
        z_index=idx_z,
    )


def _neighbour_rows(scan: PlaneScan, dx: int, dz: int) -> tuple[np.ndarray, np.ndarray]:
    """Row of grid point ``(ix + dx, iz + dz)`` for every row, and whether it exists.

    Rows are sorted by ``(x_index, z_index)``, so a binary search on the key
    ``ix * res + iz`` finds each neighbour; a z index off the grid would
    alias the next column and is ruled out.  Missing neighbours get any row.
    """
    res = scan.resolution
    keys = scan.x_index * res + scan.z_index
    iz = scan.z_index + dz
    wanted = (scan.x_index + dx) * res + iz
    at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    return at, (iz >= 0) & (iz < res) & (keys[at] == wanted)


def plane_scan_gradient(scan: PlaneScan) -> dict[str, np.ndarray]:
    """Per-cell finite-difference gradient of the optimal transfer.

    The grid coordinates are (c_x, c_z) with c_y tied to c_x, so a forward
    step in the first coordinate moves c_x and c_y together; the measured
    rate is therefore reported on both of those components, and the c_z rate
    on the third.  Returned vectors ``g`` hold (rate_x, rate_x, rate_z) for
    every grid point whose two forward neighbours exist.
    """
    res = scan.resolution
    step_x = 1.0 / (res - 1)
    step_z = 2.0 / (res - 1)
    east, has_east = _neighbour_rows(scan, 1, 0)
    north, has_north = _neighbour_rows(scan, 0, 1)
    rows = np.flatnonzero(has_east & has_north)
    value = scan.max_transfer
    rate_x = (value[east[rows]] - value[rows]) / step_x
    rate_z = (value[north[rows]] - value[rows]) / step_z
    return {"rows": rows, "gradients": np.stack([rate_x, rate_x, rate_z], axis=1)}


def concurrence_directional_derivative(scan: PlaneScan) -> dict[str, np.ndarray]:
    """Discrete derivative of the optimal transfer along the concurrence direction.

    The concurrence increases fastest along the in-plane direction
    (1, 1, -1)/sqrt(3); on the grid that is two steps in c_x combined with
    one step down in c_z (equal coordinate displacements).  Only segments
    whose endpoints both lie strictly inside the entangled triangle are
    reported.
    """
    step = 2.0 / (scan.resolution - 1)  # coordinate displacement of the combined move
    other, has_other = _neighbour_rows(scan, 2, -1)
    entangled = scan.concurrence > 0.0
    rows = np.flatnonzero(has_other & entangled & entangled[other])
    arclength = step * math.sqrt(3.0)
    rates = (scan.max_transfer[other[rows]] - scan.max_transfer[rows]) / arclength
    return {"rows": rows, "rates": rates}
