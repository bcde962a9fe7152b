"""Local spectra and the joint fixed-total-energy block structure.

Two finite systems A and B with nondegenerate discrete spectra are described
in the product eigenbasis, flattened lexicographically (flat index
``a * dim_b + b``).  Because both local spectra are nondegenerate, each total
energy E splits the product basis into a block of pairs (a, b) with
``eps_a + eps_b == E``, and inside one block the A index determines the B
index and vice versa.  Every other module works block by block on top of this
partition, which :class:`JointSpectrum` builds from the two Hamiltonians
alone, so equal Hamiltonians always give the same blocks in the same order.
:class:`BlockLayout` holds that partition as one permutation of the flat
basis into block order, so block-structured arrays are contiguous slices of
one permuted array, and per-block loops address block ``i`` by
``layout.span(i)``.

Energies are exact rationals (``fractions.Fraction``), in units where the
fundamental quantum of energy is 1, so membership of a pair in a block is an
exact equality test.  Floats are only accepted through an explicit snapping
path that fails loudly when the target rational is not unique at the given
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import tolerances
from .errors import (
    DegenerateSpectrum,
    RationalSnapError,
    UnknownBlock,
    ValidationError,
)

SYSTEMS = ("A", "B")
MAX_DENOMINATOR = 10**6  # the largest denominator snap_to_rational returns


def check_system(system: str) -> str:
    if system not in SYSTEMS:
        raise ValidationError(f"system must be 'A' or 'B', got {system!r}")
    return system


def as_fraction(value) -> Fraction:
    """Coerce an exact representation (int, Fraction, 'p/q' string) to Fraction.

    Floats are rejected here on purpose; use :func:`snap_to_rational` or
    ``Hamiltonian.from_floats`` for the lossy path.
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
            "use snap_to_rational / Hamiltonian.from_floats"
        )
    raise ValidationError(f"cannot interpret {type(value).__name__} as an exact rational")


def _convergents(value: Fraction):
    """Continued-fraction convergents of a rational, simplest first."""
    h_prev, h_cur = 1, int(value // 1)
    k_prev, k_cur = 0, 1
    remainder = value - (value // 1)
    yield Fraction(h_cur, k_cur)
    while remainder != 0:
        flipped = 1 / remainder
        digit = int(flipped // 1)
        remainder = flipped - digit
        h_prev, h_cur = h_cur, digit * h_cur + h_prev
        k_prev, k_cur = k_cur, digit * k_cur + k_prev
        yield Fraction(h_cur, k_cur)


def snap_to_rational(value: float, rel_tol: float = tolerances.SNAP_REL) -> Fraction:
    """Snap a float to the unique simple rational within ``rel_tol``.

    Walks the continued-fraction convergents of ``value``, up to denominator
    ``MAX_DENOMINATOR``, and returns the first one within
    ``rel_tol * max(1, |value|)``.  The result is accepted
    only when the tolerance ball cannot contain a second rational of equal
    or lower denominator (two rationals with denominators up to ``q`` are at
    least ``1/q**2`` apart); otherwise the call is ambiguous and raises
    :class:`RationalSnapError`.
    """
    if not np.isfinite(value):
        raise RationalSnapError(f"cannot snap non-finite value {value!r}")
    tol = rel_tol * max(1.0, abs(value))
    for candidate in _convergents(Fraction(float(value))):
        if candidate.denominator > MAX_DENOMINATOR:
            break
        if abs(float(candidate) - value) <= tol:
            qc = candidate.denominator
            if tol >= 0.5 / (qc * qc):
                raise RationalSnapError(
                    f"snapping {value!r} is ambiguous: tolerance {tol:g} admits "
                    f"more than one rational with denominator <= {qc}"
                )
            return candidate
    raise RationalSnapError(
        f"no rational with denominator <= {MAX_DENOMINATOR} lies within "
        f"relative tolerance {rel_tol:g} of {value!r}"
    )


@dataclass(frozen=True)
class Hamiltonian:
    """Nondegenerate local spectrum with exact-comparison semantics.

    ``energies`` must be strictly increasing exact rationals (at least two
    levels).  ``labels`` optionally names the basis states: a sequence of
    strings, one per level (a bare string is refused, not split).
    """

    energies: tuple[Fraction, ...]
    labels: tuple[str, ...] | None = None

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
        if self.labels is not None:
            labels = tuple(self.labels)
            if isinstance(self.labels, str) or not all(isinstance(x, str) for x in labels):
                raise ValidationError(f"labels must be a sequence of strings, got {self.labels!r}")
            if len(labels) != len(energies):
                raise ValidationError("labels must match energies in length")
            object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return len(self.energies)

    def energies_float(self) -> np.ndarray:
        return np.array([float(e) for e in self.energies], dtype=float)

    @classmethod
    def from_floats(
        cls, values: Iterable[float], labels: Sequence[str] | None = None
    ) -> "Hamiltonian":
        """Build from floats by snapping each to an exact rational.

        Each value is snapped within the relative window ``tolerances.SNAP_REL``.
        """
        energies = tuple(snap_to_rational(float(v)) for v in values)
        return cls(energies, labels)


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

    def _index(self, energy) -> int:
        key = as_fraction(energy)
        try:
            return self.layout.index[key]
        except KeyError:
            raise UnknownBlock(f"no block with total energy {key}") from None

    def block(self, energy) -> EnergyBlock:
        return self.blocks[self._index(energy)]

    def flat_indices(self, energy) -> np.ndarray:
        """Flat product-basis indices of the block members, in member order."""
        return self.layout.order[self.layout.span(self._index(energy))]

    def local_energies_float(self, energy, system: str) -> np.ndarray:
        """Member-order local energies of one side of a block, as floats."""
        return self.ordered_local_energies(system)[self.layout.span(self._index(energy))]

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


def e_local_energies(spec: JointSpectrum, energy, system: str) -> list[Fraction]:
    """Exact local energies of one side of a block, in member order.

    For system A the list is increasing; for system B it is the energies
    paired with the A levels, hence decreasing.
    """
    check_system(system)
    block = spec.block(energy)
    if system == "A":
        return [spec.h_a.energies[a] for a, _ in block.members]
    return [spec.h_b.energies[b] for _, b in block.members]
