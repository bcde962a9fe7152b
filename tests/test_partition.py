"""The block partition is a function of the two local Hamiltonians alone.

``JointSpectrum`` takes no caller-supplied blocks, so two spectra built from
equal Hamiltonians have the same blocks in the same order, and a unitary or
decomposition built over one always lines up with the other.  The per-block
accessors read one block-ordered layout; here they are held bit for bit to
the per-member formulas they replaced.
"""

from fractions import Fraction

import numpy as np
import pytest

from sec_transfer import (
    EnergyBlock,
    Hamiltonian,
    JointSpectrum,
    UnknownBlock,
    build_joint_spectrum,
)


def _ladder():
    return Hamiltonian((0, 1, 2, 3)), Hamiltonian((0, 1, 2))


def _all_singletons():
    return (
        Hamiltonian((Fraction(0), Fraction(1, 3), Fraction(7, 5))),
        Hamiltonian((Fraction(0), Fraction(2, 7), Fraction(5, 11))),
    )


def _rational_tie():
    return (
        Hamiltonian((Fraction(0), Fraction(1, 3), Fraction(7, 5))),
        Hamiltonian((Fraction(0), Fraction(2, 7), Fraction(1, 3))),
    )


def _thirds_ladder():
    h = Hamiltonian(tuple(Fraction(k, 3) for k in range(5)))
    return h, h


CASES = {
    "integer-ladder": (_ladder, [1, 2, 3, 3, 2, 1]),
    "all-singletons": (_all_singletons, [1] * 9),
    "rational-tie": (_rational_tie, [1, 1, 2, 1, 1, 1, 1, 1]),
    "thirds-ladder": (_thirds_ladder, [1, 2, 3, 4, 5, 4, 3, 2, 1]),
}


def _reference_blocks(h_a, h_b):
    """Group the product basis by total energy, one pair at a time."""
    groups = {}
    for a, ea in enumerate(h_a.energies):
        for b, eb in enumerate(h_b.energies):
            groups.setdefault(ea + eb, []).append((a, b))
    return [
        EnergyBlock(energy, tuple(sorted(members, key=lambda ab: ab[0])))
        for energy, members in sorted(groups.items())
    ]


def _read_only(array):
    assert not array.flags.writeable
    with pytest.raises(ValueError):
        array[0] = array[0]


def test_spectrum_takes_only_the_two_hamiltonians():
    h_a, h_b = _ladder()
    spec = JointSpectrum(h_a, h_b)
    reversed_members = [EnergyBlock(b.energy, b.members[::-1]) for b in spec.blocks]
    with pytest.raises(TypeError):
        JointSpectrum(h_a, h_b, reversed_members)
    assert build_joint_spectrum(h_a, h_b) == spec


@pytest.mark.parametrize("case", sorted(CASES))
def test_equal_hamiltonians_give_equal_layouts(case):
    build, _ = CASES[case]
    first, second = JointSpectrum(*build()), build_joint_spectrum(*build())
    assert first == second
    assert first.layout.order.tobytes() == second.layout.order.tobytes()
    assert first.layout.dims.tobytes() == second.layout.dims.tobytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_accessors_match_the_per_member_formulas(case):
    build, dims = CASES[case]
    h_a, h_b = build()
    spec = build_joint_spectrum(h_a, h_b)
    expected = _reference_blocks(h_a, h_b)
    assert [block.dim for block in spec.blocks] == dims
    assert list(spec.blocks) == expected
    assert spec.energies == tuple(block.energy for block in expected)
    for i, block in enumerate(expected):
        assert spec.block(block.energy) == block
        flat = spec.layout.order[spec.layout.span(i)]
        want = np.array([a * h_b.dim + b for a, b in block.members], dtype=int)
        assert flat.dtype == want.dtype and flat.tobytes() == want.tobytes()
        _read_only(flat)
        for system, h, side in (("A", h_a, 0), ("B", h_b, 1)):
            energies = spec.ordered_local_energies(system)[spec.layout.span(i)]
            want = np.array([float(h.energies[m[side]]) for m in block.members], dtype=float)
            assert energies.dtype == want.dtype and energies.tobytes() == want.tobytes()
            _read_only(energies)
    for system in ("A", "B"):
        _read_only(spec.ordered_local_energies(system))


def test_unknown_energy_is_refused():
    spec = build_joint_spectrum(*_rational_tie())
    for energy in (Fraction(1, 2), 7, "5/3"):
        with pytest.raises(UnknownBlock):
            spec.block(energy)
