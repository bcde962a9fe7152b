"""Bipartite density matrices and their block decomposition.

A state over the product basis splits into a diagonal part (populations of
the joint energy eigenstates, grouped by total-energy block) and coherence
blocks, each named by the pair of block indices ``(i, j)`` it connects.  The
split is exact: reassembling the pieces reproduces the input matrix.  Only the
same-energy coherence blocks ``(i, i)`` can ever influence average energy
transfer, which is why the decomposition extracts them up front, keyed by
block index.  Energies label blocks only where they meet text, in
:mod:`sec_transfer.formats` and the command line.

Layout
------
:func:`decompose` makes one copy of the state, permuted into the block order
of the spectrum's :class:`~sec_transfer.spectra.BlockLayout`, so that every
block is a contiguous slice of it.  Which block pairs are nonzero is found
with ``np.logical_or.reduceat`` over that copy, without visiting the B^2
pairs of a B-block spectrum one by one.  The populations and the
same-energy blocks (the ones that move energy) are extracted eagerly, as
read-only views, and the nonzero pairs are listed as one index array; a
cross-energy block is only sliced when it is asked for, and per-pair
magnitudes come from ``np.maximum.reduceat``.  The cost is one D x D copy
plus per-block work on the same-energy blocks.

Admission
---------
:class:`BipartiteState` checks Hermiticity and the trace, then certifies
positivity with a Cholesky factorisation of the Hermitian part shifted by
half the ``psd`` tolerance.  That is an O(D^3 / 3) step, several times
cheaper than ``eigvalsh`` (0.07 s against 0.45 s at D = 1024 on two
cores).  The other half of the tolerance is a margin far above the
factorisation's rounding, so a certified state is one the lowest
eigenvalue would admit too.  When the factorisation fails,
``eigvalsh`` decides and its lowest eigenvalue words the rejection, so
every accept or reject decision and every message is that of the
eigenvalue test.  The checks share one D x D work buffer.

Conventions
-----------
* Row/column index is the lexicographic flattening ``a * dim_b + b``.
* Coherence block ``(i, j)`` holds the rectangular matrix of amplitudes
  between member ``m`` of block ``i`` (row) and member ``n`` of block ``j``
  (column); the ``(i, i)`` blocks carry an exactly zero diagonal.
* Entries below ``tolerances.ZERO`` in magnitude are stored as exact zeros
  and all-zero coherence blocks are dropped.
"""

from __future__ import annotations

import numpy as np

from . import tolerances
from .errors import DimensionMismatch, NotAState, ValidationError
from .spectra import JointSpectrum, check_system


class _Handover:
    """A fresh complex matrix handed to :class:`BipartiteState` to keep as is.

    The JSON readers and :func:`~sec_transfer.unitaries.evolve` build the
    state's matrix themselves and never use it again, so they pass it in
    this wrapper and admission skips the D x D copy.  Any other matrix is copied, so a caller's array never becomes a
    state's read-only matrix.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix


class BipartiteState:
    """Dense Hermitian, unit-trace, positive-semidefinite complex matrix.

    Validation admits states produced by double-precision evolution, with
    the ``herm``, ``trace`` and ``psd`` bounds of :mod:`sec_transfer.tolerances`
    by default.  Instances are value types; the stored matrix is read-only.

    The ``psd`` bound asks that the lowest eigenvalue of the Hermitian part
    ``H = (rho + rho^dagger) / 2`` be at least ``-psd_tol``.  A Cholesky
    factorisation of ``H + (psd_tol / 2) I`` certifies that (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 10): if it
    succeeds, ``H`` plus a perturbation of 2-norm at most
    ``(D + 1) eps trace`` has no eigenvalue below ``-psd_tol / 2``, and the
    other half of the tolerance covers that perturbation and the rounding
    of ``eigvalsh``.  So a certified state is one ``eigvalsh`` would admit.
    When the factorisation fails, or the half margin is not above those
    rounding bounds (``psd_tol = 0``), ``eigvalsh`` of ``H`` decides and
    its lowest eigenvalue words the rejection.
    """

    def __init__(
        self,
        matrix,
        dims: tuple[int, int],
        validate: bool = True,
        herm_tol: float = tolerances.HERMITICITY,
        trace_tol: float = tolerances.TRACE,
        psd_tol: float = tolerances.PSD,
    ):
        if isinstance(matrix, _Handover):
            mat = np.asarray(matrix.matrix, dtype=complex)
        else:
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
            # one D x D buffer holds rho^dagger, then |rho - rho^dagger|, then H
            work = np.conjugate(mat.T, out=np.empty_like(mat))
            np.subtract(mat, work, out=work)
            herm = np.abs(work, out=work).real.max()
            if herm > herm_tol:
                raise NotAState(
                    f"not Hermitian: max |rho - rho^dagger| = {herm:.3e} exceeds {herm_tol:g}"
                )
            trace = mat.trace()
            trace_err = abs(trace - 1.0)
            if trace_err > trace_tol:
                raise NotAState(
                    f"trace differs from 1 by {trace_err:.3e}, tolerance {trace_tol:g}"
                )
            if not _cholesky_certifies(mat, work, trace.real, psd_tol):
                del work
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

    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.matrix)).copy()

    def __repr__(self) -> str:
        return f"BipartiteState(dims={self.dims})"


def _cholesky_certifies(mat: np.ndarray, work: np.ndarray, trace: float, psd_tol: float) -> bool:
    """Whether ``H + (psd_tol / 2) I`` factorises, ``H`` built in ``work``.

    False, without factorising, when the half margin does not exceed twice
    the rounding bound ``(D + 1) eps`` times the trace of the shifted
    matrix: one bound for the factorisation, one for ``eigvalsh``.
    """
    d = mat.shape[0]
    shift = 0.5 * psd_tol
    if not shift > 2 * (d + 1) * np.finfo(float).eps * (abs(trace) + d * shift):
        return False
    np.conjugate(mat.T, out=work)
    work += mat
    work *= 0.5
    work.flat[:: d + 1] += shift
    try:
        np.linalg.cholesky(work)
    except np.linalg.LinAlgError:
        return False
    return True


def partial_trace(matrix, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Trace out one side of a product-basis matrix; ``keep`` is 'A' or 'B'."""
    check_system(keep)
    da, db = dims
    m = np.asarray(matrix, dtype=complex).reshape(da, db, da, db)
    if keep == "A":
        return np.einsum("ibjb->ij", m)
    return np.einsum("aiaj->ij", m)


class StateDecomposition:
    """Exact split of a state into diagonal blocks and coherence blocks.

    Holds the state's matrix in block order (see
    :class:`sec_transfer.spectra.BlockLayout`) after thresholding, with its
    diagonal zeroed; every block is a view into it.  ``probs`` holds the
    populations in the same block order, so block ``i`` reads
    ``probs[layout.span(i)]`` and its probability is that slice's sum.

    ``coh_blocks`` is a read-only ``(K, 2)`` int array listing the block
    index pairs ``(i, j)`` of the nonzero coherence blocks in row-major
    block order; a pair ``(i, i)`` is a same-energy block.  Block ``(i, j)``
    is the view :meth:`coherence_block` returns.  The same-energy coherence
    blocks are extracted on construction; a cross-energy block is only
    sliced when it is asked for.
    """

    def __init__(
        self,
        spectrum: JointSpectrum,
        matrix: np.ndarray,
        probs: np.ndarray,
        nonzero: np.ndarray,
    ):
        layout = spectrum.layout
        self.spectrum = spectrum
        self._matrix = matrix
        self.probs = probs
        # np.argwhere(nonzero), but a view of a read-only (2, K) array, so it
        # cannot be made writeable
        pairs = np.array(np.nonzero(nonzero))
        pairs.setflags(write=False)
        self.coh_blocks = pairs.T
        # the nonzero same-energy blocks, by block index in block order
        self._same = {
            i: matrix[layout.span(i), layout.span(i)]
            for i in np.flatnonzero(np.diagonal(nonzero)).tolist()
        }

    def coherence_block(self, i: int, j: int) -> np.ndarray:
        """Read-only view of coherence block ``(i, j)``, rows in block ``i``.

        A pair that ``coh_blocks`` does not list reads as all zeros.  Indices
        are those of a sequence of the spectrum's blocks: one past the end
        raises IndexError, a negative one counts from the end.
        """
        layout = self.spectrum.layout
        return self._matrix[layout.span(i), layout.span(j)]

    def useful_coherence_blocks(self) -> dict[int, np.ndarray]:
        """The nonzero same-energy coherence blocks, keyed by block index."""
        return dict(self._same)

    def coherence_peaks(self) -> np.ndarray:
        """``peaks[i, j]``: largest magnitude in coherence block (i, j), in block order.

        A vanished block reads 0, and so does the diagonal of a same-energy
        block.
        """
        starts = self.spectrum.layout.starts
        peaks = np.maximum.reduceat(np.abs(self._matrix), starts, axis=0)
        return np.maximum.reduceat(peaks, starts, axis=1)

    def reassemble(
        self, include_same_energy: bool = True, include_cross_energy: bool = True
    ) -> BipartiteState:
        """Rebuild a state from the populations and selected coherence blocks.

        With both switches on this inverts :func:`decompose` up to the
        stored-zero threshold.  Dropping coherences yields the dephased
        variants used by the transfer and classification checks; those are
        returned unvalidated since e.g. the diagonal part alone is a state by
        construction while arbitrary subsets need not be.
        """
        layout = self.spectrum.layout
        # pieces are added onto zeros rather than copied, so a stored -0.0
        # entry comes back as +0.0
        ordered = np.zeros_like(self._matrix)
        np.fill_diagonal(ordered, self.probs)
        if include_same_energy and include_cross_energy:
            ordered += self._matrix
        elif include_same_energy or include_cross_energy:
            same = layout.block_of[:, None] == layout.block_of[None, :]
            ordered += np.where(same == include_same_energy, self._matrix, 0.0)
        out = np.empty_like(ordered)
        out[np.ix_(layout.order, layout.order)] = ordered
        return BipartiteState(out, self.spectrum.dims, validate=False)

    def diagonal_state(self) -> BipartiteState:
        """The dephased state: diagonal part only."""
        return self.reassemble(False, False)

    def validate(self, trace_tol: float = tolerances.TRACE) -> None:
        """Check the structural invariants; raises ValidationError on failure."""
        layout = self.spectrum.layout
        spans = [layout.span(i) for i in range(len(layout.dims))]
        total = sum(float(self.probs[span].sum()) for span in spans)
        if abs(total - 1.0) > trace_tol:
            raise ValidationError(
                f"block probabilities sum to {total!r}, off by more than {trace_tol:g}"
            )
        for i in self._same:
            alpha, energy = self._same[i], self.spectrum.energies[i]
            diag = np.abs(np.diag(alpha))
            if diag.max(initial=0.0) != 0.0:
                raise ValidationError(
                    f"same-energy coherence block E={energy} has nonzero diagonal"
                )
            probs = self.probs[spans[i]]
            bound = np.outer(probs, probs)
            # 2x2 principal minors of a positive matrix
            if np.any(np.abs(alpha) ** 2 > bound + tolerances.POPULATION_BOUND):
                raise ValidationError(
                    f"coherence magnitudes in block E={energy} exceed the "
                    "population bound |alpha_ij|^2 <= p_i p_j "
                    f"(slack {tolerances.POPULATION_BOUND:g})"
                )


def decompose(state: BipartiteState, spec: JointSpectrum) -> StateDecomposition:
    """Split a state into diagonal blocks and coherence blocks.

    Entries below ``tolerances.ZERO`` in magnitude become exact zeros;
    coherence blocks that vanish entirely are not stored.  The split is
    lossless: reassembling reproduces the input within ``tolerances.ZERO``
    per entry.
    """
    if state.dims != spec.dims:
        raise DimensionMismatch(
            f"state dims {state.dims} do not match spectrum dims {spec.dims}"
        )
    layout = spec.layout
    matrix = state.matrix[np.ix_(layout.order, layout.order)]
    probs = np.real(np.diagonal(matrix)).copy()
    probs[np.abs(probs) < tolerances.ZERO] = 0.0
    matrix[np.abs(matrix) < tolerances.ZERO] = 0.0
    np.fill_diagonal(matrix, 0.0)
    nonzero = matrix != 0.0
    for axis in (0, 1):
        nonzero = np.logical_or.reduceat(nonzero, layout.starts, axis=axis)
    matrix.setflags(write=False)
    probs.setflags(write=False)
    return StateDecomposition(spec, matrix, probs, nonzero)


def local_energy(state: BipartiteState, spec: JointSpectrum, system: str) -> float:
    """Average local energy of one side; coherences never contribute to it."""
    if state.dims != spec.dims:
        raise DimensionMismatch(
            f"state dims {state.dims} do not match spectrum dims {spec.dims}"
        )
    energies = spec.flat_local_energies(system)
    return float(energies @ state.populations())
