"""Local spectra and the joint fixed-total-energy block structure.

Two finite systems A and B with nondegenerate discrete spectra are described
in the product eigenbasis, flattened lexicographically (flat index
``a * dim_b + b``).  Because both local spectra are nondegenerate, each total
energy E splits the product basis into a block of pairs (a, b) with
``eps_a + eps_b == E``, and inside one block the A index determines the B
index and vice versa.  Every other module works block by block on top of this
partition, which :class:`JointSpectrum` builds from the two Hamiltonians
alone, so equal Hamiltonians always give the same blocks in the same order.
A block's members run by rising A level, and ``eps_a + eps_b == E`` inside
it, so along every block A's levels strictly rise and B's strictly fall; the
optimizers and the passivity witness read a block's level order from this
and sort no energy.
:class:`BlockLayout` holds that partition as one permutation of the flat
basis into block order, so block-structured arrays are contiguous slices of
one permuted array, and per-block loops address block ``i`` by
``layout.span(i)``.

Energies are exact rationals (``fractions.Fraction``), in units where the
fundamental quantum of energy is 1, so membership of a pair in a block is an
exact equality test.  They enter only as exact values (int, ``Fraction`` or a
``"p/q"`` string); a float is refused, never rounded to a rational.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DegenerateSpectrum, UnknownBlock, ValidationError
from .twoqubit import check_system


def as_fraction(value) -> Fraction:
    """Coerce an exact representation (int, Fraction, 'p/q' string) to Fraction.

    Floats are refused: an energy is never rounded to a rational.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValidationError(f"cannot interpret {value!r} as an exact rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse {value!r} as a rational") from exc
    if isinstance(value, float):
        raise ValidationError(
            f"refusing to interpret float {value!r} exactly; "
            "give an energy as an int, a Fraction or a 'p/q' string"
        )
    raise ValidationError(f"cannot interpret {type(value).__name__} as an exact rational")


@dataclass(frozen=True)
class Hamiltonian:
    """Nondegenerate local spectrum with exact-comparison semantics.

    ``energies`` must be strictly increasing exact rationals (at least two
    levels).
    """

    energies: tuple[Fraction, ...]

    def __post_init__(self):
        energies = tuple(as_fraction(e) for e in self.energies)
        object.__setattr__(self, "energies", energies)
        if len(energies) < 2:
            raise ValidationError("a Hamiltonian needs at least 2 levels")
        for lo, hi in zip(energies, energies[1:]):
            if lo == hi:
                raise DegenerateSpectrum(f"repeated energy {lo} in local spectrum")
            if lo > hi:
                raise ValidationError("energies must be strictly increasing")
        try:
            # the largest magnitude, and the spread, which bounds every transfer
            float(max(energies[-1], -energies[0], energies[-1] - energies[0]))
        except OverflowError:
            raise ValidationError(
                "Hamiltonian energies and their spread must lie within double range"
            ) from None

    @property
    def dim(self) -> int:
        return len(self.energies)

    def energies_float(self) -> np.ndarray:
        return np.array([float(e) for e in self.energies], dtype=float)


@dataclass(frozen=True)
class EnergyBlock:
    """One fixed-total-energy block of the product basis.

    ``members`` lists the (a_index, b_index) pairs belonging to the block,
    sorted by increasing local-A energy.  This order fixes the matrix
    representation of every per-block object downstream.
    """

    energy: Fraction
    members: tuple[tuple[int, int], ...]

    @property
    def dim(self) -> int:
        return len(self.members)


@dataclass(frozen=True, eq=False)
class BlockLayout:
    """The flat product basis reordered block by block.

    Position ``k`` of the block order holds flat index ``order[k]``; block
    ``i`` occupies positions ``starts[i] : starts[i] + dims[i]`` with its
    members in member order, and ``block_of[k]`` is the block at position
    ``k``.  ``index`` maps each total energy to its block index, so hot
    loops can address blocks by integer.  The arrays are read-only.
    """

    order: np.ndarray
    starts: np.ndarray
    dims: np.ndarray
    block_of: np.ndarray
    index: dict[Fraction, int]

    @classmethod
    def of(cls, blocks: Sequence[EnergyBlock], dim_b: int) -> "BlockLayout":
        order = np.array([a * dim_b + b for block in blocks for a, b in block.members], dtype=int)
        dims = np.array([block.dim for block in blocks], dtype=int)
        starts = np.concatenate(([0], np.cumsum(dims)[:-1]))
        block_of = np.repeat(np.arange(len(blocks)), dims)
        for array in (order, starts, dims, block_of):
            array.setflags(write=False)
        return cls(order, starts, dims, block_of, {b.energy: i for i, b in enumerate(blocks)})

    def span(self, i: int) -> slice:
        """Positions of block ``i`` in the block order."""
        start = int(self.starts[i])
        return slice(start, start + int(self.dims[i]))


class JointSpectrum:
    """Partition of the product basis into fixed-total-energy blocks.

    Built from the two local Hamiltonians alone: the product basis is grouped
    by exact total energy, blocks sorted by increasing total energy, members
    by increasing local-A energy.  Immutable after construction; safe for
    concurrent shared reads.
    """

    def __init__(self, h_a: Hamiltonian, h_b: Hamiltonian):
        self.h_a = h_a
        self.h_b = h_b
        groups: dict[Fraction, list[tuple[int, int]]] = {}
        for a, ea in enumerate(h_a.energies):
            for b, eb in enumerate(h_b.energies):
                groups.setdefault(ea + eb, []).append((a, b))
        # reports write each block energy as "p/q"; refuse one Python cannot print
        limit = sys.get_int_max_str_digits()
        bound = 10**limit  # one 4,301-digit integer at the default limit; build it once
        if limit and any(max(abs(e.numerator), e.denominator) >= bound for e in groups):
            raise ValidationError(
                f"a block energy has a numerator or denominator of more than {limit} "
                "digits, too long to write in a report"
            )
        # the A index runs outermost, so members are already in local-A order
        self.blocks = tuple(
            EnergyBlock(energy, tuple(members)) for energy, members in sorted(groups.items())
        )
        self.energies = tuple(block.energy for block in self.blocks)
        self.layout = BlockLayout.of(self.blocks, h_b.dim)
        # local energy carried by each flat product-basis index
        self._flat_e = {
            "A": np.repeat(h_a.energies_float(), h_b.dim),
            "B": np.tile(h_b.energies_float(), h_a.dim),
        }
        self._ordered_e = {side: e[self.layout.order] for side, e in self._flat_e.items()}
        # shared caches are handed out directly; freeze them
        for array in (*self._flat_e.values(), *self._ordered_e.values()):
            array.setflags(write=False)

    @property
    def dims(self) -> tuple[int, int]:
        return (self.h_a.dim, self.h_b.dim)

    @property
    def total_dim(self) -> int:
        return self.h_a.dim * self.h_b.dim

    def block(self, energy) -> EnergyBlock:
        key = as_fraction(energy)
        try:
            return self.blocks[self.layout.index[key]]
        except KeyError:
            raise UnknownBlock(f"no block with total energy {key}") from None

    def flat_local_energies(self, system: str) -> np.ndarray:
        """Local energy carried by every flat product-basis index."""
        check_system(system)
        return self._flat_e[system]

    def ordered_local_energies(self, system: str) -> np.ndarray:
        """Local energy of one side at every position of the block order.

        Block ``i`` reads ``ordered_local_energies(system)[layout.span(i)]``.
        """
        check_system(system)
        return self._ordered_e[system]

    def __eq__(self, other) -> bool:
        if not isinstance(other, JointSpectrum):
            return NotImplemented
        return self.h_a == other.h_a and self.h_b == other.h_b

    def __repr__(self) -> str:
        sizes = ",".join(str(block.dim) for block in self.blocks)
        return f"JointSpectrum(dims={self.dims}, block_dims=[{sizes}])"


def build_joint_spectrum(h_a: Hamiltonian, h_b: Hamiltonian) -> JointSpectrum:
    """The joint spectrum of two local Hamiltonians; see :class:`JointSpectrum`."""
    return JointSpectrum(h_a, h_b)
