"""Optimal energy-conserving unitaries and sampling oracles.

Because both transfer components depend only on what each block unitary does
inside its own block, maximizing the transfer decouples into independent
per-block problems:

* ``optimal_diagonal_unitary`` maximizes the population-sourced part alone.
  Within each block this is a rearrangement problem: permute the one-sided
  populations so the largest sits at the highest target-side level.  The
  result is a block permutation unitary, which is incapable of converting
  coherence into populations, so its coherent transfer vanishes identically.
* ``maximize_transfer_exact`` maximizes the full transfer.  Within each block
  the reachable population vectors are exactly the diagonals of unitary
  conjugations of the block's restricted matrix (populations plus same-energy
  coherences); by the trace rearrangement inequality the optimum pairs the
  eigenvalues of that matrix, largest first, with the target-side levels,
  highest energy first.  On incoherent states this reduces to the
  rearrangement above.
* ``monte_carlo_max`` is the sampling oracle: the maximum of the dense-
  evolution transfer over Haar-random block unitaries.  It can approach but,
  up to float noise, never exceed the exact optimizer.

Minimizing for one side is maximizing for the other: total energy is
conserved, so the two transfers are opposite.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import tolerances
from .errors import BlockMismatch, LengthMismatch, ValidationError
from .spectra import JointSpectrum, check_system
from .states import BipartiteState, StateDecomposition, decompose
from .transfer import batch_transfers, transfer_direct
from .unitaries import SAMPLE_CHUNK, SecUnitary, sample_haar_blocks

THREADS_ENV = "SEC_TRANSFER_THREADS"

METHOD_DIAGONAL = "diagonal_exact"
METHOD_BLOCK_EIGEN = "block_eigen_exact"
METHOD_MONTE_CARLO = "monte_carlo"


@dataclass
class OptimizationResult:
    """Optimal (or best sampled) transfer value and the unitary achieving it."""

    value: float
    unitary: SecUnitary
    method: str
    samples: int | None = None


def thread_count() -> int:
    """Worker cap for sampling loops, from the SEC_TRANSFER_THREADS env var."""
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValidationError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
    return max(1, n)


def _rearrange(probs, energies, largest_at_lowest: bool) -> tuple[list[int], np.ndarray]:
    probs = np.asarray(probs, dtype=float)
    if len(probs) != len(energies):
        raise LengthMismatch(
            f"{len(probs)} probabilities paired with {len(energies)} energies"
        )
    # tolerate the same slack that state admission grants the spectrum
    if np.any(probs < -tolerances.PSD):
        raise ValidationError(
            "probabilities must be nonnegative "
            f"(slack {tolerances.PSD:g} for admitted states)"
        )
    positions = sorted(range(len(probs)), key=lambda m: (energies[m], m))
    if largest_at_lowest:
        order = sorted(range(len(probs)), key=lambda i: (-probs[i], i))
    else:
        order = sorted(range(len(probs)), key=lambda i: (probs[i], i))
    perm = [0] * len(probs)
    for pos, src in zip(positions, order):
        perm[pos] = src
    return perm, probs[perm]


def passive_rearrange(probs, energies) -> tuple[list[int], np.ndarray]:
    """Pair the largest probability with the smallest energy.

    Returns ``(perm, rearranged)`` with ``rearranged[m] = probs[perm[m]]``;
    the rearranged vector is the minimum-energy ordering of the given
    populations.  Ties keep the original order, so an already passive input
    maps to the identity permutation.
    """
    return _rearrange(probs, energies, largest_at_lowest=True)


def max_active_rearrange(probs, energies) -> tuple[list[int], np.ndarray]:
    """Mirror of :func:`passive_rearrange`: largest probability at the top."""
    return _rearrange(probs, energies, largest_at_lowest=False)


def optimal_diagonal_unitary(
    decomp: StateDecomposition, spec: JointSpectrum, target: str
) -> SecUnitary:
    """Block permutation unitary maximizing the population-sourced transfer.

    Each block sends its one-sided populations to their maximum-energy
    rearrangement for the target system.  The returned unitary never passes
    the coherence-capability test, so its coherent transfer is exactly zero
    for every state.
    """
    check_system(target)
    if spec != decomp.spectrum:
        raise BlockMismatch("decomposition was built over a different joint spectrum")
    blocks: dict[Fraction, np.ndarray] = {}
    for block in spec.blocks:
        probs = decomp.diag_blocks[block.energy].probs
        energies = spec.local_energies_float(block.energy, target)
        perm, _ = max_active_rearrange(probs, energies)
        mat = np.zeros((block.dim, block.dim), dtype=complex)
        for dest, src in enumerate(perm):
            mat[dest, src] = 1.0
        blocks[block.energy] = mat
    return SecUnitary(blocks, spec, validate=False)


def maximize_transfer_exact(
    state: BipartiteState, spec: JointSpectrum, target: str
) -> OptimizationResult:
    """Exact maximum of the transfer over all energy-conserving unitaries.

    Per block: eigendecompose the restricted matrix (populations plus
    same-energy coherences), pair eigenvalues with the target-side levels in
    maximum-energy order, and map the eigenbasis onto the level basis
    accordingly.  Eigenvalue ties are broken by stable index order (they make
    the optimum non-unique, never wrong).
    """
    check_system(target)
    decomp = decompose(state, spec)
    useful = decomp.useful_coherence_blocks()
    blocks: dict[Fraction, np.ndarray] = {}
    value = 0.0
    for block in spec.blocks:
        probs = decomp.diag_blocks[block.energy].probs
        energies = spec.local_energies_float(block.energy, target)
        restricted = np.diag(probs.astype(complex))
        alpha = useful.get(block.energy)
        if alpha is not None:
            restricted = restricted + alpha
        eigenvalues, vectors = np.linalg.eigh(restricted)
        eig_order = sorted(range(block.dim), key=lambda k: (-eigenvalues[k], k))
        pos_order = sorted(range(block.dim), key=lambda m: (-energies[m], m))
        mat = np.zeros((block.dim, block.dim), dtype=complex)
        for eig_idx, pos in zip(eig_order, pos_order):
            mat[pos, :] = vectors[:, eig_idx].conj()
            value += eigenvalues[eig_idx] * energies[pos]
        value -= float(energies @ probs)
        blocks[block.energy] = mat
    return OptimizationResult(
        value=float(value),
        unitary=SecUnitary(blocks, spec, validate=False),
        method=METHOD_BLOCK_EIGEN,
    )


def monte_carlo_max(
    state: BipartiteState,
    spec: JointSpectrum,
    target: str,
    n_samples: int,
    seed: int,
) -> OptimizationResult:
    """Best transfer over ``n_samples`` Haar-random unitaries.

    Deterministic for a given seed (ties resolve to the earliest sample); the
    reported value is re-evaluated through dense evolution of the argmax
    unitary.  Chunks of samples may be evaluated on several threads when
    SEC_TRANSFER_THREADS is set; the result does not depend on the schedule.
    """
    check_system(target)
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    decomp = decompose(state, spec)
    chunks = [
        (start, min(SAMPLE_CHUNK, n_samples - start))
        for start in range(0, n_samples, SAMPLE_CHUNK)
    ]

    def evaluate(chunk: tuple[int, int]) -> tuple[float, int]:
        start, count = chunk
        batch = sample_haar_blocks(spec, seed, count, start=start)
        totals = batch_transfers(decomp, batch, target).total
        inner = int(np.argmax(totals))
        return float(totals[inner]), start + inner

    workers = thread_count()
    if workers > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(evaluate, chunks))
    else:
        results = [evaluate(chunk) for chunk in chunks]
    _, best_index = max(results, key=lambda vi: (vi[0], -vi[1]))
    best_batch = sample_haar_blocks(spec, seed, 1, start=best_index)
    unitary = SecUnitary(
        {energy: stack[0] for energy, stack in best_batch.items()}, spec, validate=False
    )
    return OptimizationResult(
        value=transfer_direct(state, unitary, target),
        unitary=unitary,
        method=METHOD_MONTE_CARLO,
        samples=n_samples,
    )


def check_coherence_bound(
    state: BipartiteState, spec: JointSpectrum, target: str, tol: float = tolerances.TRANSFER_NOISE
) -> tuple[float, float, bool]:
    """Optimal transfer of the state vs. of its dephased (diagonal) version.

    Returns ``(lhs, rhs, holds)`` where ``holds`` certifies lhs >= rhs - tol:
    coherence never worsens the optimally driven energy exchange, because the
    best population-only unitary already realizes rhs on the full state.
    """
    lhs = maximize_transfer_exact(state, spec, target).value
    diagonal = decompose(state, spec).diagonal_state()
    rhs = maximize_transfer_exact(diagonal, spec, target).value
    return lhs, rhs, lhs >= rhs - tol
