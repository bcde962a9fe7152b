"""Block-diagonal energy-conserving unitaries and their Haar sampling.

A strong-energy-conserving (SEC) unitary commutes with the total free
Hamiltonian, so it acts as an independent unitary inside each total-energy
block and vanishes between blocks.  We store one ``d_E x d_E`` matrix per
block, in the spectrum's block order, with the standard column convention:
column ``i`` is the image of member ``i``, i.e. ``blocks[k][j, i]`` is the
amplitude for member ``i`` of block ``k`` to end up on member ``j``.
Singleton blocks carry a unit-modulus phase, which is physically irrelevant
but kept for structural completeness.

Random sampling
---------------
Blocks are drawn Haar-uniformly with the QR-of-complex-Gaussian construction
(orthonormalize, then fix the phase ambiguity with the signs of the R
diagonal).  Randomness comes from the counter-based Philox generator, keyed
per (seed, chunk, block energy) through a BLAKE2 hash, with a fixed chunk
length of 4096 samples.  Streams for different blocks and chunks are
independent, so batches can be generated concurrently and are reproducible
for a given seed regardless of schedule or batch size.
"""

from __future__ import annotations

import hashlib
import numbers
from collections.abc import Mapping, Sequence
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from . import tolerances
from .errors import BlockMismatch, DimensionMismatch, NotUnitary, ValidationError
from .spectra import JointSpectrum
from .states import BipartiteState, _Handover

if TYPE_CHECKING:
    from concurrent.futures import Executor  # loads logging: not at import

SAMPLE_CHUNK = 4096
DRAW_BATCH = 256


def _refuse_mapping(blocks, what: str) -> None:
    """Raise BlockMismatch when per-block values come keyed rather than in block order."""
    if isinstance(blocks, Mapping):
        raise BlockMismatch(
            f"{what} must be a sequence in the spectrum's block order, "
            f"not a mapping (got a {type(blocks).__name__})"
        )


class SecUnitary:
    """One unitary matrix per total-energy block of a joint spectrum.

    ``blocks`` lists the matrices in the spectrum's block order, so
    ``blocks[i]`` acts on block ``i`` (``spectrum.layout.span(i)``); it is
    stored as a tuple of read-only arrays.
    """

    def __init__(
        self,
        blocks: Sequence[np.ndarray],
        spectrum: JointSpectrum,
        validate: bool = True,
    ):
        _refuse_mapping(blocks, "unitary blocks")
        if len(blocks) != len(spectrum.energies):
            raise BlockMismatch(
                f"{len(blocks)} unitary blocks given for a spectrum of "
                f"{len(spectrum.energies)} blocks"
            )
        stored = []
        for energy, d, raw in zip(spectrum.energies, spectrum.layout.dims.tolist(), blocks):
            mat = np.array(raw, dtype=complex)
            if mat.shape != (d, d):
                raise BlockMismatch(
                    f"block E={energy} has shape {mat.shape}, expected {(d, d)}"
                )
            if validate:
                defect = np.abs(mat.conj().T @ mat - np.eye(d)).max()
                if defect > tolerances.UNITARITY:
                    raise NotUnitary(
                        f"block E={energy} fails unitarity: max |U^dagger U - I| = "
                        f"{defect:.3e} exceeds {tolerances.UNITARITY:g}"
                    )
            mat.setflags(write=False)
            stored.append(mat)
        self.blocks = tuple(stored)
        self.spectrum = spectrum

    @classmethod
    def identity(cls, spectrum: JointSpectrum) -> "SecUnitary":
        return cls(
            [np.eye(d, dtype=complex) for d in spectrum.layout.dims.tolist()],
            spectrum,
            validate=False,
        )

    def __repr__(self) -> str:
        return f"SecUnitary(blocks={len(self.blocks)}, dims={self.spectrum.dims})"


def to_full_matrix(u: SecUnitary, spec: JointSpectrum) -> np.ndarray:
    """Embed the block unitaries into the full product-basis matrix.

    The result commutes with the diagonal total Hamiltonian exactly by
    construction: nonzero entries only connect equal total energies.
    """
    if u.spectrum != spec:
        raise BlockMismatch("unitary was built over a different joint spectrum")
    layout = spec.layout
    full = np.zeros((spec.total_dim, spec.total_dim), dtype=complex)
    for i, mat in enumerate(u.blocks):
        flat = layout.order[layout.span(i)]
        full[np.ix_(flat, flat)] = mat
    return full


def evolve(state: BipartiteState, u: SecUnitary) -> BipartiteState:
    """Conjugate a state by the full unitary; preserves the total energy.

    The dense reference ``U rho U^dagger``: three D x D buffers besides the
    state, the full unitary (conjugated in place once ``U rho`` is formed,
    so ``.T`` of it is ``U^dagger`` with the layout ``U.conj().T`` has), the
    left product and the result, which the evolved state keeps uncopied.
    """
    if state.dims != u.spectrum.dims:
        raise DimensionMismatch(
            f"state dims {state.dims} do not match unitary dims {u.spectrum.dims}"
        )
    full = to_full_matrix(u, u.spectrum)
    left = full @ state.matrix
    np.conjugate(full, out=full)
    return BipartiteState(_Handover(left @ full.T), state.dims, validate=False)


def _integer(name: str, value) -> int:
    """Argument ``name`` as an int; a bool or a non-integral value is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _chunk_generator(seed: int, chunk: int, energy: Fraction) -> np.random.Generator:
    tag = f"sec-transfer:{seed}:{chunk}:{energy.numerator}/{energy.denominator}"
    key = int.from_bytes(hashlib.blake2b(tag.encode(), digest_size=16).digest(), "big")
    return np.random.Generator(np.random.Philox(key=key))


def _haar_slice(seed: int, energy: Fraction, dim: int, start: int, count: int) -> np.ndarray:
    """Samples ``start .. start+count`` of one block's Haar stream.

    Each 4096-sample chunk has its own generator, and within a chunk the
    draws are a prefix of the chunk's stream, so any slice is reproducible
    without generating what precedes or follows it.  The samples kept are
    drawn and orthonormalized ``DRAW_BATCH`` at a time, so the scratch
    beside the result stays small.
    """
    out = np.empty((count, dim, dim), dtype=complex)
    for chunk in range(start // SAMPLE_CHUNK, (start + count - 1) // SAMPLE_CHUNK + 1):
        base = chunk * SAMPLE_CHUNK
        lo = max(start, base) - base
        hi = min(start + count, base + SAMPLE_CHUNK) - base
        rng = _chunk_generator(seed, chunk, energy)
        rng.standard_normal((lo, dim, dim, 2))  # the chunk's samples before the slice
        for first in range(lo, hi, DRAW_BATCH):
            z = rng.standard_normal((min(DRAW_BATCH, hi - first), dim, dim, 2))
            q, r = np.linalg.qr((z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0))
            diag = np.einsum("nii->ni", r)
            at = base + first - start
            out[at : at + len(z)] = q * (diag / np.abs(diag))[:, None, :]
    return out


def sample_haar_blocks(
    spec: JointSpectrum, seed: int, count: int, start: int = 0, pool: Executor | None = None
) -> tuple[np.ndarray, ...]:
    """Raw per-block stacks of Haar samples, for vectorized oracles.

    ``result[k][i]`` is block ``k`` (in the spectrum's block order) of sample
    ``start + i``, an ``(count, d_k, d_k)`` stack per block; a given sample
    index is the same for a given seed no matter the requested range.  Given
    a ``pool``, the blocks are drawn on its threads; each block has its own
    stream, so the result is the same.  ``seed``, ``count`` (>= 1) and
    ``start`` (>= 0) are integers; a bool is refused, a numpy integer taken.
    """
    seed, count, start = _integer("seed", seed), _integer("count", count), _integer("start", start)
    if count < 1:
        raise ValidationError("count must be >= 1")
    if start < 0:
        raise ValidationError(f"start must be >= 0, got {start}")
    draw = pool.map if pool else map
    return tuple(draw(lambda b: _haar_slice(seed, b.energy, b.dim, start, count), spec.blocks))


def sample_haar(spec: JointSpectrum, seed: int) -> SecUnitary:
    """One Haar-random SEC unitary, each block independently uniform."""
    batch = sample_haar_blocks(spec, seed, 1)
    return SecUnitary([stack[0] for stack in batch], spec, validate=False)


def is_potentially_coherent(u: SecUnitary) -> bool:
    """Whether the unitary can move coherence into populations at all.

    True iff some block maps two different members onto a common member with
    jointly nonzero amplitude (product magnitude above
    ``tolerances.COHERENCE_CAPABLE``).  Block
    permutation unitaries fail this test, and for them the coherent part of
    any energy transfer vanishes identically.
    """
    for mat in u.blocks:
        if mat.shape[0] < 2:
            continue
        mags = np.sort(np.abs(mat), axis=1)
        if np.any(mags[:, -1] * mags[:, -2] > tolerances.COHERENCE_CAPABLE):
            return True
    return False
