"""Total, diagonal, and coherent average energy transfer.

The transfer of average energy to one side under an energy-conserving
unitary splits exactly into a diagonal part, sourced by the joint-energy
populations alone, and a coherent part, sourced exclusively by the
same-energy coherence blocks.  Both parts are computable block by block:

* diagonal: each block's one-sided populations evolve through the block
  unitary's transition probabilities, and the per-block energy change is
  weighted by the block probability;
* coherent: the block unitary rotates the same-energy coherence block into
  populations; summing the resulting diagonal against the local levels gives
  per-level coefficients ``eta`` whose energy-weighted sum is the coherent
  transfer.  Cross-energy coherences drop out identically.

One kernel, ``batch_transfers``, computes both parts for a stack of block
unitaries; ``transfer_diagonal``, ``transfer_coherent`` and ``analyze`` run
it on a stack of one.  ``transfer_direct`` (dense evolution) is the single
source of truth here; the kernel is validated against it in the test suite
rather than trusted independently.  All transfers are in units of the
energy quantum (set to 1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import tolerances
from .errors import BlockMismatch, NumericalInvariantError
from .spectra import check_system
from .states import BipartiteState, StateDecomposition, decompose, local_energy
from .unitaries import SecUnitary, _refuse_mapping, evolve

ENERGY_UNIT = "hbar*omega"


@dataclass(eq=False)
class TransferReport:
    """Full account of one (state, unitary, target) transfer computation.

    ``per_block_diagonal`` is a ``(B,)`` array: the diagonal contribution of
    each block, in the spectrum's block order.
    """

    target: str
    total: float
    diagonal: float
    coherent: float
    eta: dict[int, float]
    per_block_diagonal: np.ndarray
    unit: str = ENERGY_UNIT


def transfer_direct(state: BipartiteState, u: SecUnitary, target: str) -> float:
    """Energy gained by the target side under dense evolution.

    This is the reference implementation every block-wise path is checked
    against.
    """
    check_system(target)
    spec = u.spectrum
    after = evolve(state, u)
    return local_energy(after, spec, target) - local_energy(state, spec, target)


@dataclass(eq=False)
class BatchTransfers:
    """Transfer components for a stack of ``n`` block unitaries.

    ``per_block_diagonal`` is ``(B, n)``: row ``i`` holds block ``i``'s
    diagonal contributions, in the spectrum's block order; ``eta`` is
    ``(n, d_target)``, the per-level coefficients of the coherent part.
    """

    total: np.ndarray
    diagonal: np.ndarray
    coherent: np.ndarray
    per_block_diagonal: np.ndarray
    eta: np.ndarray


def batch_transfers(
    decomp: StateDecomposition,
    block_samples: tuple[np.ndarray, ...],
    target: str,
) -> BatchTransfers:
    """Diagonal, coherent and total transfers for a whole stack of unitaries.

    ``block_samples`` holds one ``(n, d, d)`` stack per block, in the
    spectrum's block order, as produced by
    :func:`sec_transfer.unitaries.sample_haar_blocks`.  This is
    the one place the block-wise transfer is computed.  The diagonal part is
    summed block by block in spectrum order, and the coherent part level by
    level, so a stack of one reproduces the scalar results bit for bit.
    Blocks with zero probability contribute exactly zero (their normalized
    one-sided state is undefined, but the unnormalized populations are not).
    """
    check_system(target)
    spec = decomp.spectrum
    layout = spec.layout
    _refuse_mapping(block_samples, "block sample stacks")
    if len(block_samples) != len(layout.dims):
        raise BlockMismatch(
            f"{len(block_samples)} sample stacks given for a spectrum of "
            f"{len(layout.dims)} blocks"
        )
    counts = {stack.shape[0] for stack in block_samples}
    if len(counts) != 1:
        raise BlockMismatch("all block sample stacks must have the same length")
    n = counts.pop()
    h_target = spec.h_a if target == "A" else spec.h_b
    # target-side local level at every position of the block order
    levels = layout.order // spec.h_b.dim if target == "A" else layout.order % spec.h_b.dim
    all_energies = spec.ordered_local_energies(target)
    useful = decomp.useful_coherence_blocks()
    diagonal = np.zeros(n)
    per_block = np.empty((len(block_samples), n))
    eta = np.zeros((n, h_target.dim))
    for i, stack in enumerate(block_samples):
        span, d = layout.span(i), int(layout.dims[i])
        if stack.shape[1:] != (d, d):
            raise BlockMismatch(
                f"sample stack for E={spec.energies[i]} has shape {stack.shape[1:]}, "
                f"expected {(d, d)}"
            )
        probs = decomp.probs[span]
        weights = np.abs(stack) ** 2
        change = (weights @ probs - probs) @ all_energies[span]
        per_block[i] = change
        diagonal += change
        alpha = useful.get(i)
        if alpha is not None:
            gained = np.einsum("nki,ij,nkj->nk", stack, alpha, stack.conj()).real
            # within a block each target level appears once
            eta[:, levels[span]] += gained
    coherent = np.zeros(n)
    for level, energy in enumerate(h_target.energies_float()):
        coherent += eta[:, level] * energy
    return BatchTransfers(diagonal + coherent, diagonal, coherent, per_block, eta)


def _split(decomp: StateDecomposition, u: SecUnitary, target: str) -> TransferReport:
    """The kernel on a stack of one unitary; ``total`` is diagonal + coherent."""
    if u.spectrum != decomp.spectrum:
        raise BlockMismatch("unitary and decomposition use different joint spectra")
    result = batch_transfers(decomp, tuple(mat[None] for mat in u.blocks), target)
    return TransferReport(
        target=target,
        total=float(result.total[0]),
        diagonal=float(result.diagonal[0]),
        coherent=float(result.coherent[0]),
        eta=dict(enumerate(result.eta[0].tolist())),
        per_block_diagonal=result.per_block_diagonal[:, 0],
    )


def transfer_diagonal(
    decomp: StateDecomposition, u: SecUnitary, target: str
) -> tuple[float, np.ndarray]:
    """Population-sourced part of the transfer, with its per-block breakdown.

    The breakdown is a ``(B,)`` array in the spectrum's block order.
    """
    split = _split(decomp, u, target)
    return split.diagonal, split.per_block_diagonal


def transfer_coherent(
    decomp: StateDecomposition, u: SecUnitary, target: str
) -> tuple[float, dict[int, float]]:
    """Coherence-sourced part of the transfer, with the per-level map ``eta``.

    Depends only on the same-energy coherence blocks.  ``eta[k]`` collects,
    over every block that contains local level ``k`` of the target system,
    the population pushed onto that level by rotating the block's coherences;
    the transfer is ``sum_k eta[k] * energy[k]``.
    """
    split = _split(decomp, u, target)
    return split.coherent, split.eta


def analyze(
    state: BipartiteState,
    u: SecUnitary,
    target: str,
    split_tol: float = tolerances.SPLIT,
) -> TransferReport:
    """Bundle direct, diagonal, and coherent transfers into one report.

    Raises :class:`NumericalInvariantError` if the three quantities fail to
    satisfy ``total = diagonal + coherent`` within ``split_tol`` times
    ``max(1, spread)``, where ``spread`` is the target's ``max E - min E``;
    that bound holding is exactly what makes the block-wise paths
    trustworthy.  The residual is rounding in sums weighted by the target's
    level energies, so it grows with them: divided by the spread it stays
    near 1e-16 from level spacings of 1 to 10**9.  At a spread of at most 1
    the bound is ``split_tol`` itself.
    The dense reference runs first, so its D x D work buffers are gone
    before the decomposition's copy of the state is made.
    """
    total = transfer_direct(state, u, target)
    split = _split(decompose(state, u.spectrum), u, target)
    residual = abs(total - split.diagonal - split.coherent)
    levels = (u.spectrum.h_a if target == "A" else u.spectrum.h_b).energies
    spread = float(max(levels) - min(levels))
    bound = split_tol * max(1.0, spread)
    if residual > bound:
        scaled = f" ({split_tol:g} x level spread {spread:g})" if bound != split_tol else ""
        raise NumericalInvariantError(
            f"transfer split violated: |total - diagonal - coherent| = "
            f"{residual:.3e} exceeds {bound:g}{scaled}"
        )
    return replace(split, total=total)
