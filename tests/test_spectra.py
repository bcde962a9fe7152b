from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sec_transfer import (
    BipartiteState,
    DegenerateSpectrum,
    Hamiltonian,
    SecParams2Q,
    UnknownBlock,
    ValidationError,
    build_joint_spectrum,
    decompose,
    optimal_diagonal_unitary,
    to_full_matrix,
    transfer_diagonal,
    two_qubit_spectrum,
)
from sec_transfer.fixtures import ladder_spectrum


def spectrum(energies_a, energies_b):
    return build_joint_spectrum(Hamiltonian(tuple(energies_a)), Hamiltonian(tuple(energies_b)))


def block_map(spec):
    return {block.energy: block.members for block in spec.blocks}


def test_two_qubit_blocks():
    blocks = block_map(spectrum([0, 1], [0, 1]))
    assert blocks == {
        Fraction(0): ((0, 0),),
        Fraction(1): ((0, 1), (1, 0)),
        Fraction(2): ((1, 1),),
    }


def test_qutrit_qubit_blocks():
    blocks = block_map(spectrum([0, 1, 2], [0, 1]))
    assert blocks == {
        Fraction(0): ((0, 0),),
        Fraction(1): ((0, 1), (1, 0)),
        Fraction(2): ((1, 1), (2, 0)),
        Fraction(3): ((2, 1),),
    }


def test_incommensurate_gaps_give_singletons():
    spec = spectrum([0, 1], [0, 2])
    assert [block.dim for block in spec.blocks] == [1, 1, 1, 1]
    assert [block.energy for block in spec.blocks] == [0, 1, 2, 3]


def test_blocks_sorted_and_members_by_a_energy():
    spec = spectrum([0, 1, 2], [0, 1, 2])
    energies = [block.energy for block in spec.blocks]
    assert energies == sorted(energies)
    for block in spec.blocks:
        a_indices = [a for a, _ in block.members]
        assert a_indices == sorted(a_indices)


def local_energies(spec, energy):
    """The A and B level of every member of the block at ``energy``."""
    members = spec.block(energy).members
    return [spec.h_a.energies[a] for a, _ in members], [spec.h_b.energies[b] for _, b in members]


def test_block_members_give_local_energies_two_qubit():
    assert local_energies(spectrum([0, 1], [0, 1]), 1) == ([0, 1], [1, 0])


def test_block_members_give_local_energies_qutrit_qubit():
    spec = spectrum([0, 1, 2], [0, 1])
    assert local_energies(spec, 2) == ([1, 2], [1, 0])
    assert local_energies(spec, "3") == ([2], [1])


def test_block_of_an_unknown_energy_is_refused():
    spec = spectrum([0, 1], [0, 1])
    with pytest.raises(UnknownBlock, match="no block with total energy 7/2"):
        spec.block(Fraction(7, 2))
    with pytest.raises(ValidationError, match="float 1.0"):
        spec.block(1.0)


def test_degenerate_spectrum_rejected():
    with pytest.raises(DegenerateSpectrum):
        Hamiltonian((0, 1, 1))


def test_unsorted_energies_rejected():
    with pytest.raises(ValidationError):
        Hamiltonian((1, 0))


def test_single_level_rejected():
    with pytest.raises(ValidationError):
        Hamiltonian((0,))


def test_float_energies_are_refused():
    with pytest.raises(ValidationError, match="an int, a Fraction or a 'p/q' string"):
        Hamiltonian((0.0, 1.0))
    with pytest.raises(ValidationError, match="float 0.5"):
        Hamiltonian((0, 0.5))


@pytest.mark.parametrize(
    "value, message",
    [
        (np.float64(0.5), "an int, a Fraction or a 'p/q' string"),
        (float("nan"), "float nan"),
        (float("inf"), "float inf"),
        (True, "cannot interpret True as an exact rational"),
        (None, "cannot interpret NoneType as an exact rational"),
        ("1/0", "cannot parse '1/0' as a rational"),
        ("1e", "cannot parse '1e' as a rational"),
    ],
    ids=["numpy-float", "nan", "inf", "bool", "none", "zero-denominator", "not-a-number"],
)
def test_energies_that_are_not_exact_rationals_are_refused(value, message):
    with pytest.raises(ValidationError, match=message):
        Hamiltonian((-1, value))


@pytest.mark.parametrize(
    "energies",
    [(-15 * 10**307, 15 * 10**307), (-8 * 10**307, 0, 10**308)],
    ids=["two-levels", "three-levels"],
)
def test_level_spread_past_double_range_is_refused(energies):
    # every level is a finite double; max E - min E, which bounds a transfer, is not
    assert all(abs(float(e)) < float("inf") for e in energies)
    with pytest.raises(ValidationError, match="spread must lie within double range"):
        Hamiltonian(energies)


def test_level_spread_within_double_range_is_kept():
    h = Hamiltonian((-8 * 10**307, 0, 8 * 10**307))
    assert float(h.energies[-1] - h.energies[0]) == 1.6e308


def test_rational_energies_from_strings():
    h = Hamiltonian(("0", "1/3", "2/3"))
    assert h.energies[1] == Fraction(1, 3)


def test_block_dimensions_sum_to_total(qutrit_qubit_spec):
    assert sum(b.dim for b in qutrit_qubit_spec.blocks) == qutrit_qubit_spec.total_dim


@st.composite
def rational_spectra(draw):
    size = draw(st.integers(min_value=2, max_value=5))
    values = draw(
        st.lists(
            st.fractions(
                min_value=Fraction(-4), max_value=Fraction(4), max_denominator=8
            ),
            min_size=size,
            max_size=size,
            unique=True,
        )
    )
    return tuple(sorted(values))


@settings(max_examples=60, deadline=None)
@given(ea=rational_spectra(), eb=rational_spectra())
def test_blocks_partition_product_basis(ea, eb):
    spec = spectrum(ea, eb)
    seen = set()
    for block in spec.blocks:
        a_side = [a for a, _ in block.members]
        b_side = [b for _, b in block.members]
        assert len(set(a_side)) == len(a_side)
        assert len(set(b_side)) == len(b_side)
        for a, b in block.members:
            assert ea[a] + eb[b] == block.energy
            seen.add((a, b))
    assert len(seen) == len(ea) * len(eb)
    assert sum(b.dim for b in spec.blocks) == len(ea) * len(eb)


def test_labels_never_tell_two_spectra_apart():
    labelled, plain = two_qubit_spectrum(), ladder_spectrum(2, 2)
    assert labelled == plain
    decomp = decompose(BipartiteState.diagonal([0.35, 0.3, 0.1, 0.25], (2, 2)), plain)
    u = SecParams2Q(r=0.5).to_sec_unitary()
    value, _ = transfer_diagonal(decomp, u, "A")
    assert value == pytest.approx(0.2 * 0.25, abs=1e-15)
    optimal_diagonal_unitary(decomp, labelled, "A")
    assert to_full_matrix(u, plain).shape == (4, 4)


def test_flat_local_energies_lexicographic():
    spec = spectrum([0, 1, 2], [0, 1])
    np.testing.assert_allclose(spec.flat_local_energies("A"), [0, 0, 1, 1, 2, 2])
    np.testing.assert_allclose(spec.flat_local_energies("B"), [0, 1, 0, 1, 0, 1])


@pytest.fixture
def qutrit_qubit_spec():
    return spectrum([0, 1, 2], [0, 1])
