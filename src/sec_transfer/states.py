"""Bipartite density matrices and their block decomposition.

A state over the product basis splits into a diagonal part (populations of
the joint energy eigenstates, grouped by total-energy block) and coherence
blocks keyed by the pair of total energies they connect.  The split is exact:
reassembling the pieces reproduces the input matrix.  Only the same-energy
coherence blocks can ever influence average energy transfer, which is why the
decomposition keys them for direct lookup.

Conventions
-----------
* Row/column index is the lexicographic flattening ``a * dim_b + b``.
* Coherence block ``(E, E')`` holds the rectangular matrix of amplitudes
  between member ``i`` of block E (row) and member ``j`` of block E'
  (column); the ``(E, E)`` blocks carry an exactly zero diagonal.
* Entries below ``ZERO_TOL`` in magnitude are stored as exact zeros and
  all-zero coherence blocks are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, NotAState, ValidationError, ZeroBlock
from .spectra import JointSpectrum, check_system

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
ZERO_TOL = 1e-15


class BipartiteState:
    """Dense Hermitian, unit-trace, positive-semidefinite complex matrix.

    Validation tolerances admit states produced by double-precision
    evolution: hermiticity and trace to 1e-12 (max abs), eigenvalues above
    -1e-10.  Instances are value types; the stored matrix is read-only.
    """

    def __init__(
        self,
        matrix,
        dims: tuple[int, int],
        validate: bool = True,
        herm_tol: float = HERMITICITY_TOL,
        trace_tol: float = TRACE_TOL,
        psd_tol: float = PSD_TOL,
    ):
        mat = np.array(matrix, dtype=complex)
        dims = (int(dims[0]), int(dims[1]))
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatch(f"state matrix must be square, got shape {mat.shape}")
        if mat.shape[0] != dims[0] * dims[1]:
            raise DimensionMismatch(
                f"matrix of size {mat.shape[0]} does not match dims {dims}"
            )
        if validate:
            if not np.isfinite(mat).all():
                raise NotAState("state matrix has non-finite entries")
            herm = np.abs(mat - mat.conj().T).max()
            if herm > herm_tol:
                raise NotAState(
                    f"not Hermitian: max |rho - rho^dagger| = {herm:.3e} exceeds {herm_tol:g}"
                )
            trace_err = abs(mat.trace() - 1.0)
            if trace_err > trace_tol:
                raise NotAState(
                    f"trace differs from 1 by {trace_err:.3e}, tolerance {trace_tol:g}"
                )
            lowest = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T)).min()
            if lowest < -psd_tol:
                raise NotAState(
                    f"not positive semidefinite: lowest eigenvalue {lowest:.3e} "
                    f"below -{psd_tol:g}"
                )
        mat.setflags(write=False)
        self.matrix = mat
        self.dims = dims

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_vector(cls, amplitudes, dims: tuple[int, int]) -> "BipartiteState":
        """Density matrix of a pure state given by its amplitude vector."""
        psi = np.asarray(amplitudes, dtype=complex).reshape(-1)
        norm = np.linalg.norm(psi)
        if norm == 0:
            raise ValidationError("zero vector cannot define a state")
        psi = psi / norm
        return cls(np.outer(psi, psi.conj()), dims, validate=False)

    @classmethod
    def diagonal(cls, probs, dims: tuple[int, int]) -> "BipartiteState":
        """Diagonal state from a probability vector over the product basis."""
        p = np.asarray(probs, dtype=float)
        return cls(np.diag(p.astype(complex)), dims)

    @classmethod
    def maximally_mixed(cls, dims: tuple[int, int]) -> "BipartiteState":
        d = dims[0] * dims[1]
        return cls(np.eye(d, dtype=complex) / d, dims, validate=False)

    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.matrix)).copy()

    def __repr__(self) -> str:
        return f"BipartiteState(dims={self.dims})"


def partial_trace(matrix, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Trace out one side of a product-basis matrix; ``keep`` is 'A' or 'B'."""
    check_system(keep)
    da, db = dims
    m = np.asarray(matrix, dtype=complex).reshape(da, db, da, db)
    if keep == "A":
        return np.einsum("ibjb->ij", m)
    return np.einsum("aiaj->ij", m)


@dataclass(frozen=True)
class DiagBlock:
    """Unnormalized joint-energy populations of one block, in member order."""

    energy: Fraction
    probs: np.ndarray

    @property
    def p_E(self) -> float:
        return float(self.probs.sum())


@dataclass(frozen=True)
class ELocalDensity:
    """Normalized populations of one side of a block (a diagonal state).

    The probabilities sit in member order; ``energies`` lists the matching
    local levels of the requested system as floats.
    """

    energy: Fraction
    system: str
    levels: tuple[int, ...]
    energies: np.ndarray
    probs: np.ndarray


class StateDecomposition:
    """Exact split of a state into diagonal blocks and coherence blocks."""

    def __init__(
        self,
        spectrum: JointSpectrum,
        diag_blocks: dict[Fraction, DiagBlock],
        coh_blocks: dict[tuple[Fraction, Fraction], np.ndarray],
    ):
        self.spectrum = spectrum
        self.diag_blocks = diag_blocks
        self.coh_blocks = coh_blocks

    @property
    def p_E(self) -> dict[Fraction, float]:
        return {energy: block.p_E for energy, block in self.diag_blocks.items()}

    def useful_coherence_blocks(self) -> dict[Fraction, np.ndarray]:
        """The same-energy coherence blocks, keyed by their total energy."""
        return {ee[0]: mat for ee, mat in self.coh_blocks.items() if ee[0] == ee[1]}

    def reassemble(
        self,
        include_diagonal: bool = True,
        include_same_energy: bool = True,
        include_cross_energy: bool = True,
    ) -> BipartiteState:
        """Rebuild a state from selected pieces of the decomposition.

        With all three switches on this inverts :func:`decompose` up to the
        stored-zero threshold.  Dropping pieces yields the dephased variants
        used by the transfer and classification checks; those are returned
        unvalidated since e.g. the diagonal part alone is a state by
        construction while arbitrary subsets need not be.
        """
        spec = self.spectrum
        out = np.zeros((spec.total_dim, spec.total_dim), dtype=complex)
        if include_diagonal:
            for energy, block in self.diag_blocks.items():
                flat = spec.flat_indices(energy)
                out[flat, flat] = block.probs
        for (e1, e2), alpha in self.coh_blocks.items():
            if e1 == e2 and not include_same_energy:
                continue
            if e1 != e2 and not include_cross_energy:
                continue
            rows = spec.flat_indices(e1)
            cols = spec.flat_indices(e2)
            out[np.ix_(rows, cols)] += alpha
        return BipartiteState(out, spec.dims, validate=False)

    def diagonal_state(self) -> BipartiteState:
        """The dephased state: diagonal part only."""
        return self.reassemble(True, False, False)

    def validate(self, trace_tol: float = TRACE_TOL) -> None:
        """Check the structural invariants; raises ValidationError on failure."""
        total = sum(block.p_E for block in self.diag_blocks.values())
        if abs(total - 1.0) > trace_tol:
            raise ValidationError(
                f"block probabilities sum to {total!r}, off by more than {trace_tol:g}"
            )
        for (e1, e2), alpha in self.coh_blocks.items():
            if e1 == e2:
                diag = np.abs(np.diag(alpha))
                if diag.max(initial=0.0) != 0.0:
                    raise ValidationError(
                        f"same-energy coherence block E={e1} has nonzero diagonal"
                    )
                probs = self.diag_blocks[e1].probs
                bound = np.outer(probs, probs)
                # 2x2 principal minors of a positive matrix
                if np.any(np.abs(alpha) ** 2 > bound + 1e-12):
                    raise ValidationError(
                        f"coherence magnitudes in block E={e1} exceed the "
                        "population bound |alpha_ij|^2 <= p_i p_j (slack 1e-12)"
                    )


def decompose(
    state: BipartiteState,
    spec: JointSpectrum,
    zero_tol: float = ZERO_TOL,
) -> StateDecomposition:
    """Split a state into diagonal blocks and coherence blocks.

    Entries below ``zero_tol`` in magnitude become exact zeros; coherence
    blocks that vanish entirely are not stored.  The split is lossless:
    reassembling reproduces the input within ``zero_tol`` per entry.
    """
    if state.dims != spec.dims:
        raise DimensionMismatch(
            f"state dims {state.dims} do not match spectrum dims {spec.dims}"
        )
    mat = state.matrix
    diag_blocks: dict[Fraction, DiagBlock] = {}
    coh_blocks: dict[tuple[Fraction, Fraction], np.ndarray] = {}
    flats = {block.energy: spec.flat_indices(block.energy) for block in spec.blocks}
    for block in spec.blocks:
        flat = flats[block.energy]
        probs = np.real(mat[flat, flat]).copy()
        probs[np.abs(probs) < zero_tol] = 0.0
        probs.setflags(write=False)
        diag_blocks[block.energy] = DiagBlock(block.energy, probs)
    for b1 in spec.blocks:
        rows = flats[b1.energy]
        for b2 in spec.blocks:
            cols = flats[b2.energy]
            alpha = mat[np.ix_(rows, cols)].copy()
            if b1.energy == b2.energy:
                np.fill_diagonal(alpha, 0.0)
            alpha[np.abs(alpha) < zero_tol] = 0.0
            if np.any(alpha != 0.0):
                alpha.setflags(write=False)
                coh_blocks[(b1.energy, b2.energy)] = alpha
    return StateDecomposition(spec, diag_blocks, coh_blocks)


def e_local_reduced(decomp: StateDecomposition, energy, system: str) -> ELocalDensity:
    """Normalized one-sided populations of a block.

    The returned probabilities are identical for both systems (the two sides
    of a block are paired level by level); what changes is which local level,
    and hence which energy, each entry belongs to.
    """
    check_system(system)
    spec = decomp.spectrum
    block = spec.block(energy)
    diag = decomp.diag_blocks[block.energy]
    p_total = diag.p_E
    if p_total == 0.0:
        raise ZeroBlock(
            f"block E={block.energy} has zero probability; its normalized state is undefined"
        )
    levels = tuple(a for a, _ in block.members) if system == "A" else tuple(
        b for _, b in block.members
    )
    return ELocalDensity(
        energy=block.energy,
        system=system,
        levels=levels,
        energies=spec.local_energies_float(block.energy, system),
        probs=diag.probs / p_total,
    )


def dephase_local(state: BipartiteState, system: str) -> BipartiteState:
    """Remove all matrix elements connecting different local levels of one side.

    Local populations are untouched, so the map is idempotent and trace
    preserving; for nondegenerate spectra this is exactly dephasing in the
    local energy eigenbasis.
    """
    check_system(system)
    da, db = state.dims
    idx = np.arange(da * db)
    local = idx // db if system == "A" else idx % db
    keep = local[:, None] == local[None, :]
    return BipartiteState(np.where(keep, state.matrix, 0.0), state.dims, validate=False)


def local_energy(state: BipartiteState, spec: JointSpectrum, system: str) -> float:
    """Average local energy of one side; coherences never contribute to it."""
    if state.dims != spec.dims:
        raise DimensionMismatch(
            f"state dims {state.dims} do not match spectrum dims {spec.dims}"
        )
    energies = spec.flat_local_energies(system)
    return float(energies @ state.populations())
