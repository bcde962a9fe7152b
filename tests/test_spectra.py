from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sec_transfer import (
    DegenerateSpectrum,
    Hamiltonian,
    RationalSnapError,
    UnknownBlock,
    ValidationError,
    build_joint_spectrum,
    e_local_energies,
    snap_to_rational,
)


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


def test_e_local_energies_two_qubit():
    spec = spectrum([0, 1], [0, 1])
    assert e_local_energies(spec, 1, "A") == [0, 1]


def test_e_local_energies_qutrit_qubit():
    spec = spectrum([0, 1, 2], [0, 1])
    assert e_local_energies(spec, 2, "A") == [1, 2]
    assert e_local_energies(spec, 2, "B") == [1, 0]


def test_e_local_energies_unknown_block():
    spec = spectrum([0, 1], [0, 1])
    with pytest.raises(UnknownBlock):
        e_local_energies(spec, Fraction(7, 2), "A")


def test_degenerate_spectrum_rejected():
    with pytest.raises(DegenerateSpectrum):
        Hamiltonian((0, 1, 1))


def test_unsorted_energies_rejected():
    with pytest.raises(ValidationError):
        Hamiltonian((1, 0))


def test_single_level_rejected():
    with pytest.raises(ValidationError):
        Hamiltonian((0,))


def test_float_energies_need_snapping_path():
    with pytest.raises(ValidationError):
        Hamiltonian((0.0, 1.0))
    h = Hamiltonian.from_floats([0.0, 0.5, 1.0])
    assert h.energies == (Fraction(0), Fraction(1, 2), Fraction(1))


def test_rational_energies_from_strings():
    h = Hamiltonian(("0", "1/3", "2/3"))
    assert h.energies[1] == Fraction(1, 3)


def test_snap_exact_thirds():
    assert snap_to_rational(1 / 3) == Fraction(1, 3)
    assert snap_to_rational(0.5) == Fraction(1, 2)
    assert snap_to_rational(-2.25) == Fraction(-9, 4)


def test_snap_rejects_unresolvable():
    # needs denominator ~1e8, beyond both the cap and the ambiguity guard
    with pytest.raises(RationalSnapError):
        snap_to_rational(0.333333331234, rel_tol=1e-12)


def test_snap_rejects_ambiguous_tolerance():
    # the nearest convergent is 9/73, but at rel_tol 1e-3 the window also
    # holds simpler fractions such as 8/65
    with pytest.raises(RationalSnapError, match="ambiguous"):
        snap_to_rational(0.123456789, rel_tol=1e-3)


def test_snap_accepts_unambiguous_loose_tolerance():
    assert snap_to_rational(0.3337777, rel_tol=2e-3) == Fraction(1, 3)


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


def test_labels_do_not_change_block_structure():
    plain = spectrum([0, 1, 2], [0, 1])
    labelled = build_joint_spectrum(
        Hamiltonian((0, 1, 2), labels=("x", "y", "z")),
        Hamiltonian((0, 1), labels=("g", "e")),
    )
    assert block_map(plain) == block_map(labelled)


def test_flat_local_energies_lexicographic():
    spec = spectrum([0, 1, 2], [0, 1])
    np.testing.assert_allclose(spec.flat_local_energies("A"), [0, 0, 1, 1, 2, 2])
    np.testing.assert_allclose(spec.flat_local_energies("B"), [0, 1, 0, 1, 0, 1])


@pytest.fixture
def qutrit_qubit_spec():
    return spectrum([0, 1, 2], [0, 1])


@pytest.mark.parametrize(
    "labels", ["ge", (None, True), ("g", 1), [b"g", b"e"]],
    ids=["bare-string", "null-and-bool", "mixed", "bytes"],
)
@pytest.mark.parametrize("build", ["exact", "from-floats"])
def test_labels_are_strings_never_coerced(labels, build):
    with pytest.raises(ValidationError, match="labels"):
        if build == "exact":
            Hamiltonian((0, 1), labels=labels)
        else:
            Hamiltonian.from_floats([0.0, 1.0], labels=labels)


@pytest.mark.parametrize("build", ["exact", "from-floats"])
def test_labels_given_as_strings_are_kept_as_a_tuple(build):
    if build == "exact":
        h = Hamiltonian((0, 1), labels=["g", "e"])
    else:
        h = Hamiltonian.from_floats([0.0, 1.0], labels=["g", "e"])
    assert h.labels == ("g", "e")
