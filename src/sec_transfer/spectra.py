"""Local spectra and the joint fixed-total-energy block structure.

Two finite systems A and B with nondegenerate discrete spectra are described
in the product eigenbasis, flattened lexicographically (flat index
``a * dim_b + b``).  Because both local spectra are nondegenerate, each total
energy E splits the product basis into a block of pairs (a, b) with
``eps_a + eps_b == E``, and inside one block the A index determines the B
index and vice versa.  Every other module works block by block on top of this
partition.

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


def snap_to_rational(
    value: float,
    rel_tol: float = tolerances.SNAP_REL,
    max_denominator: int = 10**6,
) -> Fraction:
    """Snap a float to the unique simple rational within ``rel_tol``.

    Walks the continued-fraction convergents of ``value`` and returns the
    first one within ``rel_tol * max(1, |value|)``.  The result is accepted
    only when the tolerance ball cannot contain a second rational of equal
    or lower denominator (two rationals with denominators up to ``q`` are at
    least ``1/q**2`` apart); otherwise the call is ambiguous and raises
    :class:`RationalSnapError`.
    """
    if not np.isfinite(value):
        raise RationalSnapError(f"cannot snap non-finite value {value!r}")
    tol = rel_tol * max(1.0, abs(value))
    for candidate in _convergents(Fraction(float(value))):
        if candidate.denominator > max_denominator:
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
        f"no rational with denominator <= {max_denominator} lies within "
        f"relative tolerance {rel_tol:g} of {value!r}"
    )


@dataclass(frozen=True)
class Hamiltonian:
    """Nondegenerate local spectrum with exact-comparison semantics.

    ``energies`` must be strictly increasing exact rationals (at least two
    levels).  ``labels`` optionally names the basis states.
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
            labels = tuple(str(x) for x in self.labels)
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
        cls,
        values: Iterable[float],
        labels: Sequence[str] | None = None,
        rel_tol: float = tolerances.SNAP_REL,
    ) -> "Hamiltonian":
        """Build from floats by snapping each to an exact rational."""
        energies = tuple(snap_to_rational(float(v), rel_tol=rel_tol) for v in values)
        return cls(energies, tuple(labels) if labels is not None else None)


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


class JointSpectrum:
    """Partition of the product basis into fixed-total-energy blocks.

    Immutable after construction; safe for concurrent shared reads.  Holds
    the two local Hamiltonians plus per-block index and energy caches used by
    the numerical layers.
    """

    def __init__(self, h_a: Hamiltonian, h_b: Hamiltonian, blocks: Sequence[EnergyBlock]):
        self.h_a = h_a
        self.h_b = h_b
        self.blocks = tuple(blocks)
        self._by_energy = {block.energy: block for block in self.blocks}
        if len(self._by_energy) != len(self.blocks):
            raise ValidationError("block total energies must be pairwise distinct")
        self._check_partition()
        dim_b = h_b.dim
        self._flat = {
            block.energy: np.array([a * dim_b + b for a, b in block.members], dtype=int)
            for block in self.blocks
        }
        self._local_e = {
            (block.energy, "A"): np.array(
                [float(h_a.energies[a]) for a, _ in block.members], dtype=float
            )
            for block in self.blocks
        }
        self._local_e.update(
            {
                (block.energy, "B"): np.array(
                    [float(h_b.energies[b]) for _, b in block.members], dtype=float
                )
                for block in self.blocks
            }
        )
        ea = h_a.energies_float()
        eb = h_b.energies_float()
        # local energy carried by each flat product-basis index
        self._flat_e = {
            "A": np.repeat(ea, dim_b),
            "B": np.tile(eb, h_a.dim),
        }
        # shared caches are handed out directly; freeze them
        for cache in (self._flat, self._local_e, self._flat_e):
            for array in cache.values():
                array.setflags(write=False)

    def _check_partition(self):
        seen: set[tuple[int, int]] = set()
        for block in self.blocks:
            a_seen: set[int] = set()
            b_seen: set[int] = set()
            for a, b in block.members:
                if (a, b) in seen:
                    raise ValidationError(f"pair {(a, b)} appears in more than one block")
                seen.add((a, b))
                if a in a_seen or b in b_seen:
                    raise ValidationError(
                        f"block E={block.energy} repeats a local index; the A/B "
                        "pairing inside a block must be a bijection"
                    )
                a_seen.add(a)
                b_seen.add(b)
                if self.h_a.energies[a] + self.h_b.energies[b] != block.energy:
                    raise ValidationError(
                        f"member {(a, b)} does not sum to block energy {block.energy}"
                    )
        if len(seen) != self.total_dim:
            raise ValidationError("blocks do not cover the full product basis")

    @property
    def dims(self) -> tuple[int, int]:
        return (self.h_a.dim, self.h_b.dim)

    @property
    def total_dim(self) -> int:
        return self.h_a.dim * self.h_b.dim

    @property
    def energies(self) -> tuple[Fraction, ...]:
        return tuple(block.energy for block in self.blocks)

    def block(self, energy) -> EnergyBlock:
        key = as_fraction(energy)
        try:
            return self._by_energy[key]
        except KeyError:
            raise UnknownBlock(f"no block with total energy {key}") from None

    def flat_indices(self, energy) -> np.ndarray:
        """Flat product-basis indices of the block members, in member order."""
        return self._flat[self.block(energy).energy]

    def local_energies_float(self, energy, system: str) -> np.ndarray:
        """Member-order local energies of one side of a block, as floats."""
        check_system(system)
        return self._local_e[(self.block(energy).energy, system)]

    def flat_local_energies(self, system: str) -> np.ndarray:
        """Local energy carried by every flat product-basis index."""
        check_system(system)
        return self._flat_e[system]

    def __eq__(self, other) -> bool:
        if not isinstance(other, JointSpectrum):
            return NotImplemented
        return self.h_a == other.h_a and self.h_b == other.h_b

    def __repr__(self) -> str:
        sizes = ",".join(str(block.dim) for block in self.blocks)
        return f"JointSpectrum(dims={self.dims}, block_dims=[{sizes}])"


def build_joint_spectrum(h_a: Hamiltonian, h_b: Hamiltonian) -> JointSpectrum:
    """Group the product basis by exact total energy.

    Blocks come back sorted by increasing total energy, members sorted by
    increasing local-A energy.  Degenerate local spectra are rejected by the
    ``Hamiltonian`` constructor itself.
    """
    groups: dict[Fraction, list[tuple[int, int]]] = {}
    for a, ea in enumerate(h_a.energies):
        for b, eb in enumerate(h_b.energies):
            groups.setdefault(ea + eb, []).append((a, b))
    blocks = [
        EnergyBlock(energy, tuple(sorted(members, key=lambda ab: ab[0])))
        for energy, members in sorted(groups.items())
    ]
    return JointSpectrum(h_a, h_b, blocks)


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
