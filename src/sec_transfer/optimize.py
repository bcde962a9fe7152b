"""Optimal energy-conserving unitaries and sampling oracles.

Because both transfer components depend only on what each block unitary does
inside its own block, maximizing the transfer decouples into independent
per-block problems, which one block optimizer solves:

* ``maximize_transfer_exact`` maximizes the full transfer.  Within each block
  the reachable population vectors are exactly the diagonals of unitary
  conjugations of the block's restricted matrix (populations plus same-energy
  coherences); by the trace rearrangement inequality the optimum pairs the
  eigenvalues of that matrix, largest first, with the target-side levels,
  highest energy first.  A block without useful coherence is its own
  eigenbasis, so only blocks with useful coherence are eigendecomposed.
* ``optimal_diagonal_unitary`` is that optimum with the coherences dropped:
  the block permutation sending the largest one-sided population to the
  highest target-side level, by the same pairing and tie rule.  It cannot
  convert coherence into populations, so its coherent transfer vanishes.
* ``monte_carlo_max`` is the sampling oracle: the maximum of the dense-
  evolution transfer over Haar-random block unitaries.  It can approach but,
  up to float noise, never exceed the exact optimizer.

Minimizing for one side is maximizing for the other: total energy is
conserved, so the two transfers are opposite.  This is how
:func:`sec_transfer.classify.classify_flow` gets the exact minimum transfer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances
from .errors import BlockMismatch, LengthMismatch, ValidationError
from .spectra import JointSpectrum, check_system
from .states import BipartiteState, StateDecomposition, _usable_cpus, decompose
from .transfer import batch_transfers, transfer_direct
from .unitaries import SAMPLE_CHUNK, SecUnitary, sample_haar_blocks

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


def max_active_rearrange(probs, energies) -> tuple[list[int], np.ndarray]:
    """Pair the largest probability with the largest energy.

    Returns ``(perm, rearranged)`` with ``rearranged[m] = probs[perm[m]]``;
    the rearranged vector is the maximum-energy ordering of the given values:
    a block's populations, or the eigenvalues of its restricted matrix.  Ties
    keep index order, so an input that is already maximally active over
    increasing energies maps to the identity.  The values are taken as they
    are: populations may dip below zero by as much as the ``psd`` tolerance
    allows.
    """
    probs = np.asarray(probs, dtype=float)
    if len(probs) != len(energies):
        raise LengthMismatch(
            f"{len(probs)} probabilities paired with {len(energies)} energies"
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

    This is the exact optimum with the coherences dropped: each block sends
    its one-sided populations to their maximum-energy rearrangement for the
    target system.  The returned unitary never passes the coherence-capability
    test, so its coherent transfer is exactly zero for every state.
    """
    check_system(target)
    if spec != decomp.spectrum:
        raise BlockMismatch("decomposition was built over a different joint spectrum")
    return _block_optimum(decomp, {}, target).unitary


def maximize_transfer_exact(
    state: BipartiteState, spec: JointSpectrum, target: str
) -> OptimizationResult:
    """Exact maximum of the transfer over all energy-conserving unitaries.

    Per block: eigendecompose the restricted matrix (populations plus
    same-energy coherences), pair eigenvalues with the target-side levels in
    maximum-energy order, and map the eigenbasis onto the level basis
    accordingly.  Ties keep index order, as in :func:`max_active_rearrange`
    (they make the optimum non-unique, never wrong), so a block already in
    maximum-energy order maps to the identity.
    """
    check_system(target)
    decomp = decompose(state, spec)
    return _block_optimum(decomp, decomp.useful_coherence_blocks(), target)


def _block_optimum(
    decomp: StateDecomposition, useful: dict[int, np.ndarray], target: str
) -> OptimizationResult:
    """:func:`maximize_transfer_exact` on the populations plus the given coherences."""
    spec = decomp.spectrum
    layout = spec.layout
    all_energies = spec.ordered_local_energies(target)
    blocks = []
    value = 0.0
    for i in range(len(layout.dims)):
        span = layout.span(i)
        probs, energies = decomp.probs[span], all_energies[span]
        alpha = useful.get(i)
        if alpha is None:  # the level basis is the eigenbasis
            weights, vectors = probs, np.eye(len(probs))
        else:
            weights, vectors = np.linalg.eigh(np.diag(probs.astype(complex)) + alpha)
        perm, rearranged = max_active_rearrange(weights, energies)
        for pos in sorted(range(len(perm)), key=lambda m: energies[m], reverse=True):
            value += rearranged[pos] * energies[pos]
        value -= float(energies @ probs)
        blocks.append(vectors[:, perm].conj().T)
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

    Samples are drawn and evaluated in chunks of ``SAMPLE_CHUNK``, one at a
    time, so one chunk of block matrices is held whatever the CPU count.  With
    more than one chunk, a chunk's blocks are drawn on one thread per block
    up to the CPUs this process may run on.  One running best is kept, and
    ties go to the earliest sample, so the result is deterministic for a
    given seed.  Its blocks are copied so no chunk outlives its turn, and the
    reported value is re-evaluated through dense evolution of that unitary.
    """
    check_system(target)
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    decomp = decompose(state, spec)

    def chunk_best(start: int, pool) -> tuple[float, list[np.ndarray]]:
        count = min(SAMPLE_CHUNK, n_samples - start)
        batch = sample_haar_blocks(spec, seed, count, start=start, pool=pool)
        totals = batch_transfers(decomp, batch, target).total
        inner = int(np.argmax(totals))
        return float(totals[inner]), [stack[inner].copy() for stack in batch]

    def search(pool) -> list[np.ndarray]:
        # max walks the chunks lazily, keeps one running best and, comparing
        # with strict >, the first of equal totals
        starts = range(0, n_samples, SAMPLE_CHUNK)
        return max((chunk_best(start, pool) for start in starts), key=lambda r: r[0])[1]

    workers = min(len(spec.blocks), _usable_cpus()) if n_samples > SAMPLE_CHUNK else 1
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # loads logging: only when used

        with ThreadPoolExecutor(max_workers=workers) as pool:
            blocks = search(pool)
    else:
        blocks = search(None)
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
    lhs = _block_optimum(decomp, decomp.useful_coherence_blocks(), target).value
    rhs = _block_optimum(decomp, {}, target).value
    return lhs, rhs, lhs >= rhs - tolerances.TRANSFER_NOISE
