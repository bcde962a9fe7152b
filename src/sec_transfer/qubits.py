"""Two resonant qubits as states and unitaries, and the Bell-diagonal plane.

The closed forms themselves (``TwoQubitParams``, ``delta_diag_2q``,
``delta_coh_2q``, ``max_transfer_2q`` and the reading of the reversal
threshold they encode) live in :mod:`sec_transfer.twoqubit`, which needs no
numpy.  This module adds what needs arrays: the general energy-conserving
unitary ``SecParams2Q`` with its mixing ``r`` and effective phase ``phi``.

The Bell-diagonal geometry lives here too: states with maximally mixed
marginals and a real useful coherence form a plane in the correlation
coordinates (c_x, c_y, c_z) with c_x = c_y; on it the optimal transfer is
``c_x / 2``, the concurrence is ``max(0, c_x - (1 + c_z)/2)``, and along the
maximum-coherence edge the optimum equals ``(1 + C)/4``.  ``plane_scan``
tabulates all of this on a grid for external plotting.

The SEC layers (``spectra``, ``states``, ``unitaries``) load on first use,
inside the functions that build a spectrum, a state or a unitary, so a
Bell-plane scan never imports ``unitaries`` or the ``hashlib`` it needs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import tolerances
from .errors import NotTwoQubit, Unphysical, ValidationError
from .twoqubit import TWO_PI

if TYPE_CHECKING:  # named only in annotations
    from .spectra import JointSpectrum
    from .states import BipartiteState
    from .unitaries import SecUnitary

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def two_qubit_spectrum() -> JointSpectrum:
    """The joint spectrum of two resonant qubits, each with levels {0, 1}."""
    from .spectra import Hamiltonian, build_joint_spectrum

    h = Hamiltonian((0, 1))
    return build_joint_spectrum(h, h)


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
        if not math.isfinite(self.phi):
            raise ValidationError(f"phi must be finite, got {self.phi!r}")
        object.__setattr__(self, "phi", float(self.phi) % TWO_PI)
        if len(self.thetas) != 4:
            raise ValidationError("thetas must hold four phases (t00, t01, t10, t11)")
        if not all(math.isfinite(t) for t in self.thetas):
            raise ValidationError(f"thetas must be finite, got {self.thetas!r}")
        object.__setattr__(self, "thetas", tuple(float(t) % TWO_PI for t in self.thetas))

    def to_sec_unitary(self, spec: JointSpectrum | None = None) -> SecUnitary:
        from .unitaries import SecUnitary

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
        blocks = [np.array([[cmath.exp(1j * t00)]]), rot, np.array([[cmath.exp(1j * t11)]])]
        return SecUnitary(blocks, spec, validate=False)


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
    from .states import BipartiteState

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
    """Read the correlation coordinates c_i = Tr((sigma_i x sigma_i) rho).

    The inverse of :func:`bell_diagonal_state`, which the tests check through it.
    """
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


@dataclass(eq=False)
class PlaneScan:
    """Grid scan of the in-scope Bell-diagonal triangle.

    Columns (all aligned 1-d arrays): the correlation coordinates, the
    optimal transfer ``c_x / 2``, the closed-form concurrence, and the
    separability flag (concurrence exactly zero).  Grid step bookkeeping
    (``x_index``, ``z_index``, ``resolution``) supports finite differencing.

    ``plane_scan`` makes every column read-only; ``c_y`` is ``c_x`` itself
    (one buffer, since the plane is c_x = c_y), and the grid indices are
    ``int32``, as every index lies below ``resolution``.
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
    # row counts and positions stay int64; only the per-row grid indices narrow
    idx_x = np.repeat(np.arange(resolution, dtype=np.int32), counts)
    idx_z = np.arange(len(idx_x)) - np.repeat(np.cumsum(counts) - counts, counts)
    idx_z = idx_z.astype(np.int32)
    c_x = xs[idx_x]
    c_z = zs[idx_z]
    # c_x - (1 + c_z)/2 in one buffer, bit for bit
    concurrence = c_z + 1.0
    concurrence *= -0.5
    concurrence += c_x
    np.maximum(concurrence, 0.0, out=concurrence)
    max_transfer = 0.5 * c_x
    separable = concurrence == 0.0
    for array in (c_x, c_z, max_transfer, concurrence, separable, idx_x, idx_z):
        array.setflags(write=False)
    return PlaneScan(
        resolution=resolution,
        c_x=c_x,
        c_y=c_x,
        c_z=c_z,
        max_transfer=max_transfer,
        concurrence=concurrence,
        separable=separable,
        x_index=idx_x,
        z_index=idx_z,
    )


def _neighbour_rows(scan: PlaneScan, dx: int, dz: int) -> tuple[np.ndarray, np.ndarray]:
    """Row of grid point ``(ix + dx, iz + dz)`` for every row, and whether it exists.

    Rows are sorted by ``(x_index, z_index)``, so a binary search on the key
    ``ix * res + iz`` finds each neighbour; a z index off the grid would
    alias the next column and is ruled out.  Missing neighbours get any row.
    The indices widen to int64 first: a key reaches res^2, past int32's range
    from res = 46,341 on.
    """
    res = scan.resolution
    ix = scan.x_index.astype(np.int64)
    iz = scan.z_index.astype(np.int64)
    keys = ix * res + iz
    iz = iz + dz
    wanted = (ix + dx) * res + iz
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
