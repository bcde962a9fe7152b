"""Block-diagonal energy-conserving unitaries and their Haar sampling.

A strong-energy-conserving (SEC) unitary commutes with the total free
Hamiltonian, so it acts as an independent unitary inside each total-energy
block and vanishes between blocks.  We store one ``d_E x d_E`` matrix per
block with the standard column convention: column ``i`` is the image of
member ``i``, i.e. ``blocks[E][j, i]`` is the amplitude for member ``i`` to
end up on member ``j``.  Singleton blocks carry a unit-modulus phase, which
is physically irrelevant but kept for structural completeness.

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
from fractions import Fraction
from typing import Mapping

import numpy as np

from . import tolerances
from .errors import BlockMismatch, DimensionMismatch, NotUnitary, ValidationError
from .spectra import JointSpectrum
from .states import BipartiteState

SAMPLE_CHUNK = 4096


class SecUnitary:
    """One unitary matrix per total-energy block of a joint spectrum."""

    def __init__(
        self,
        blocks: Mapping[Fraction, np.ndarray],
        spectrum: JointSpectrum,
        validate: bool = True,
    ):
        try:
            given = [blocks[energy] for energy in spectrum.energies]
        except KeyError:
            given = None
        if given is None or len(blocks) != len(given):
            raise BlockMismatch(
                f"unitary blocks {sorted(map(str, blocks))} do not match spectrum "
                f"blocks {sorted(map(str, spectrum.energies))}"
            )
        stored: dict[Fraction, np.ndarray] = {}
        for energy, d, raw in zip(spectrum.energies, spectrum.layout.dims.tolist(), given):
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
            stored[energy] = mat
        self.blocks = stored
        self.spectrum = spectrum

    @classmethod
    def identity(cls, spectrum: JointSpectrum) -> "SecUnitary":
        return cls(
            {b.energy: np.eye(b.dim, dtype=complex) for b in spectrum.blocks},
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
    for i, energy in enumerate(spec.energies):
        flat = layout.order[layout.span(i)]
        full[np.ix_(flat, flat)] = u.blocks[energy]
    return full


def evolve(state: BipartiteState, u: SecUnitary) -> BipartiteState:
    """Conjugate a state by the full unitary; preserves the total energy."""
    if state.dims != u.spectrum.dims:
        raise DimensionMismatch(
            f"state dims {state.dims} do not match unitary dims {u.spectrum.dims}"
        )
    full = to_full_matrix(u, u.spectrum)
    return BipartiteState(full @ state.matrix @ full.conj().T, state.dims, validate=False)


def _chunk_generator(seed: int, chunk: int, energy: Fraction) -> np.random.Generator:
    tag = f"sec-transfer:{int(seed)}:{int(chunk)}:{energy.numerator}/{energy.denominator}"
    key = int.from_bytes(hashlib.blake2b(tag.encode(), digest_size=16).digest(), "big")
    return np.random.Generator(np.random.Philox(key=key))


def _haar_slice(seed: int, energy: Fraction, dim: int, start: int, count: int) -> np.ndarray:
    """Samples ``start .. start+count`` of one block's Haar stream.

    Each 4096-sample chunk has its own generator, and within a chunk the
    draws are a prefix of the chunk's stream, so any slice is reproducible
    without generating what precedes or follows it.
    """
    out = np.empty((count, dim, dim), dtype=complex)
    filled = 0
    chunk = start // SAMPLE_CHUNK
    while filled < count:
        base = chunk * SAMPLE_CHUNK
        lo = max(start, base) - base
        hi = min(start + count, base + SAMPLE_CHUNK) - base
        rng = _chunk_generator(seed, chunk, energy)
        z = rng.standard_normal((hi, dim, dim, 2))
        gaussian = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
        q, r = np.linalg.qr(gaussian)
        diag = np.einsum("nii->ni", r)
        phases = diag / np.abs(diag)
        unitaries = q * phases[:, None, :]
        out[filled : filled + hi - lo] = unitaries[lo:hi]
        filled += hi - lo
        chunk += 1
    return out


def sample_haar_blocks(
    spec: JointSpectrum, seed: int, count: int, start: int = 0
) -> dict[Fraction, np.ndarray]:
    """Raw per-block stacks of Haar samples, for vectorized oracles.

    ``result[E][i]`` is the E-block of sample ``start + i``; a given sample
    index is the same for a given seed no matter the requested range.
    """
    if count < 1:
        raise ValidationError("count must be >= 1")
    return {
        block.energy: _haar_slice(seed, block.energy, block.dim, start, count)
        for block in spec.blocks
    }


def sample_haar(spec: JointSpectrum, seed: int) -> SecUnitary:
    """One Haar-random SEC unitary, each block independently uniform."""
    batch = sample_haar_blocks(spec, seed, 1)
    return SecUnitary(
        {energy: stack[0] for energy, stack in batch.items()}, spec, validate=False
    )


def is_potentially_coherent(u: SecUnitary) -> bool:
    """Whether the unitary can move coherence into populations at all.

    True iff some block maps two different members onto a common member with
    jointly nonzero amplitude (product magnitude above
    ``tolerances.COHERENCE_CAPABLE``).  Block
    permutation unitaries fail this test, and for them the coherent part of
    any energy transfer vanishes identically.
    """
    for mat in u.blocks.values():
        if mat.shape[0] < 2:
            continue
        mags = np.sort(np.abs(mat), axis=1)
        if np.any(mags[:, -1] * mags[:, -2] > tolerances.COHERENCE_CAPABLE):
            return True
    return False
