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
conserved, so the two transfers are opposite.  This is how
:func:`sec_transfer.classify.classify_flow` gets the exact minimum transfer.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

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
    """Worker cap for sampling loops, from the SEC_TRANSFER_THREADS env var.

    Unset or empty means one thread, and so does any value below 1.
    """
    raw = os.environ.get(THREADS_ENV, "")
    if not raw.strip():
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise ValidationError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
    return max(1, n)


def max_active_rearrange(probs, energies) -> tuple[list[int], np.ndarray]:
    """Pair the largest probability with the largest energy.

    Returns ``(perm, rearranged)`` with ``rearranged[m] = probs[perm[m]]``;
    the rearranged vector is the maximum-energy ordering of the given
    populations.  Ties keep index order, so an input that is already
    maximally active over increasing energies maps to the identity.
    """
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
    order = sorted(range(len(probs)), key=lambda i: (probs[i], i))
    perm = [0] * len(probs)
    for pos, src in zip(positions, order):
        perm[pos] = src
    return perm, probs[perm]


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
    layout = spec.layout
    all_energies = spec.ordered_local_energies(target)
    blocks = []
    for i in range(len(layout.dims)):
        span = layout.span(i)
        perm, _ = max_active_rearrange(decomp.probs[span], all_energies[span])
        mat = np.zeros((len(perm), len(perm)), dtype=complex)
        mat[np.arange(len(perm)), perm] = 1.0
        blocks.append(mat)
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
    return _block_eigen_optimum(decomp, decomp.useful_coherence_blocks(), target)


def _block_eigen_optimum(
    decomp: StateDecomposition, useful: dict[int, np.ndarray], target: str
) -> OptimizationResult:
    """:func:`maximize_transfer_exact` on the populations plus the given coherences."""
    spec = decomp.spectrum
    layout = spec.layout
    all_energies = spec.ordered_local_energies(target)
    blocks = []
    value = 0.0
    for i in range(len(layout.dims)):
        span, d = layout.span(i), int(layout.dims[i])
        probs, energies = decomp.probs[span], all_energies[span]
        restricted = np.diag(probs.astype(complex))
        alpha = useful.get(i)
        if alpha is not None:
            restricted = restricted + alpha
        eigenvalues, vectors = np.linalg.eigh(restricted)
        eig_order = sorted(range(d), key=lambda k: (-eigenvalues[k], k))
        pos_order = sorted(range(d), key=lambda m: (-energies[m], m))
        mat = np.zeros((d, d), dtype=complex)
        for eig_idx, pos in zip(eig_order, pos_order):
            mat[pos, :] = vectors[:, eig_idx].conj()
            value += eigenvalues[eig_idx] * energies[pos]
        value -= float(energies @ probs)
        blocks.append(mat)
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

    Samples are drawn and evaluated in chunks of ``SAMPLE_CHUNK``, on
    SEC_TRANSFER_THREADS threads; ties go to the earliest sample, whatever the
    schedule, so the result is deterministic for a given seed.  The winner's
    blocks are copied so no chunk outlives its turn, and the reported value
    is re-evaluated through dense evolution of that unitary.
    """
    check_system(target)
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    decomp = decompose(state, spec)
    chunks = [
        (start, min(SAMPLE_CHUNK, n_samples - start))
        for start in range(0, n_samples, SAMPLE_CHUNK)
    ]

    def evaluate(chunk: tuple[int, int]) -> tuple[float, int, list[np.ndarray]]:
        start, count = chunk
        batch = sample_haar_blocks(spec, seed, count, start=start)
        totals = batch_transfers(decomp, batch, target).total
        inner = int(np.argmax(totals))
        blocks = [stack[inner].copy() for stack in batch]
        return float(totals[inner]), start + inner, blocks

    workers = thread_count()
    if workers > 1 and len(chunks) > 1:
        from concurrent.futures import ThreadPoolExecutor  # loads logging: only when used

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(evaluate, chunks))
    else:
        results = [evaluate(chunk) for chunk in chunks]
    _, _, blocks = max(results, key=lambda r: (r[0], -r[1]))
    unitary = SecUnitary(blocks, spec, validate=False)
    return OptimizationResult(
        value=transfer_direct(state, unitary, target),
        unitary=unitary,
        method=METHOD_MONTE_CARLO,
        samples=n_samples,
    )


def check_coherence_bound(
    state: BipartiteState, spec: JointSpectrum, target: str
) -> tuple[float, float, bool]:
    """Optimal transfer of the state vs. of its dephased (diagonal) version.

    Returns ``(lhs, rhs, holds)`` where ``holds`` certifies
    lhs >= rhs - ``tolerances.TRANSFER_NOISE``:
    coherence never worsens the optimally driven energy exchange, because the
    best population-only unitary already realizes rhs on the full state.
    """
    check_system(target)
    decomp = decompose(state, spec)
    lhs = _block_eigen_optimum(decomp, decomp.useful_coherence_blocks(), target).value
    rhs = _block_eigen_optimum(decomp, {}, target).value
    return lhs, rhs, lhs >= rhs - tolerances.TRANSFER_NOISE
