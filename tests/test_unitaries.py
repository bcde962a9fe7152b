from fractions import Fraction

import numpy as np
import pytest

from sec_transfer import (
    BlockMismatch,
    DimensionMismatch,
    NotUnitary,
    SecParams2Q,
    SecUnitary,
    evolve,
    is_potentially_coherent,
    local_energy,
    sample_haar,
    sample_haar_blocks,
    to_full_matrix,
)
from sec_transfer.fixtures import ladder_spectrum, random_state


def test_identity_blocks_give_identity_matrix(two_qubit_spec):
    u = SecUnitary.identity(two_qubit_spec)
    np.testing.assert_array_equal(to_full_matrix(u, two_qubit_spec), np.eye(4))


def test_two_qubit_full_matrix_golden(two_qubit_spec):
    # hand-built general two-qubit energy-conserving unitary, column convention
    r, phi_raw = 0.6, 0.7
    t00, t01, t10, t11 = 0.2, 0.4, 1.1, 2.3
    c = np.sqrt(1 - r**2)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = np.exp(1j * t00)
    expected[3, 3] = np.exp(1j * t11)
    expected[1, 1] = np.exp(1j * t01) * c
    expected[2, 1] = np.exp(1j * t01) * r * np.exp(1j * phi_raw)
    expected[2, 2] = np.exp(1j * t10) * c
    expected[1, 2] = -np.exp(1j * t10) * r * np.exp(-1j * phi_raw)
    blocks = {
        Fraction(0): expected[np.ix_([0], [0])],
        Fraction(1): expected[np.ix_([1, 2], [1, 2])],
        Fraction(2): expected[np.ix_([3], [3])],
    }
    u = SecUnitary(blocks, two_qubit_spec)
    np.testing.assert_allclose(to_full_matrix(u, two_qubit_spec), expected)
    # the parameter class reproduces the same matrix once the effective
    # phase is set to t01 - t10 + phi_raw
    params = SecParams2Q(r=r, phi=t01 - t10 + phi_raw, thetas=(t00, t01, t10, t11))
    np.testing.assert_allclose(
        to_full_matrix(params.to_sec_unitary(two_qubit_spec), two_qubit_spec),
        expected,
        atol=1e-15,
    )


def test_full_matrix_commutes_with_total_energy():
    # oracle: explicit commutator with diag(H) on the dense matrix
    for dims in ((2, 2), (3, 2), (3, 3)):
        spec = ladder_spectrum(*dims)
        h_flat = np.diag(spec.flat_local_energies("A") + spec.flat_local_energies("B"))
        for seed in range(100 // 3):
            full = to_full_matrix(sample_haar(spec, seed), spec)
            assert np.abs(full @ h_flat - h_flat @ full).max() == 0.0
            defect = np.abs(full.conj().T @ full - np.eye(spec.total_dim)).max()
            assert defect <= 1e-12


def test_evolve_identity_returns_input(two_qubit_spec, rng):
    state = random_state((2, 2), rng)
    evolved = evolve(state, SecUnitary.identity(two_qubit_spec))
    np.testing.assert_allclose(evolved.matrix, state.matrix, atol=1e-15)


def test_full_swap_permutes_middle_populations(two_qubit_spec):
    swap = SecParams2Q(r=1.0).to_sec_unitary(two_qubit_spec)
    from sec_transfer import BipartiteState

    state = BipartiteState.diagonal([0.4, 0.3, 0.1, 0.2], (2, 2))
    evolved = evolve(state, swap)
    np.testing.assert_allclose(evolved.populations(), [0.4, 0.1, 0.3, 0.2], atol=1e-15)


def test_energy_conservation_on_random_pairs():
    # oracle: direct trace computation on both sides
    rng = np.random.default_rng(11)
    for dims in ((2, 2), (3, 2), (4, 4)):
        spec = ladder_spectrum(*dims)
        for seed in range(1000 // 3):
            state = random_state(dims, rng)
            u = sample_haar(spec, seed)
            after = evolve(state, u)
            before_total = local_energy(state, spec, "A") + local_energy(state, spec, "B")
            after_total = local_energy(after, spec, "A") + local_energy(after, spec, "B")
            assert abs(after_total - before_total) <= 1e-12


def test_evolve_preserves_state_invariants(rng):
    spec = ladder_spectrum(3, 3)
    state = random_state((3, 3), rng)
    after = evolve(state, sample_haar(spec, 5))
    mat = after.matrix
    assert np.abs(mat - mat.conj().T).max() <= 1e-12
    assert abs(mat.trace() - 1) <= 1e-12
    assert np.linalg.eigvalsh(mat).min() >= -1e-10


def test_evolve_dimension_mismatch(two_qubit_spec, rng):
    state = random_state((3, 2), rng)
    with pytest.raises(DimensionMismatch):
        evolve(state, SecUnitary.identity(two_qubit_spec))


def test_singleton_blocks_are_phases(qutrit_qubit_spec):
    u = sample_haar(qutrit_qubit_spec, 3)
    for block in qutrit_qubit_spec.blocks:
        if block.dim == 1:
            assert abs(abs(u.blocks[block.energy][0, 0]) - 1.0) <= 1e-12


def test_same_seed_same_unitary(qutrit_qubit_spec):
    a = sample_haar(qutrit_qubit_spec, 99)
    b = sample_haar(qutrit_qubit_spec, 99)
    for energy in a.blocks:
        np.testing.assert_array_equal(a.blocks[energy], b.blocks[energy])


def test_batch_prefix_matches_single_samples(qutrit_qubit_spec):
    batch = sample_haar_blocks(qutrit_qubit_spec, 7, 5)
    first = sample_haar(qutrit_qubit_spec, 7)
    for energy in first.blocks:
        np.testing.assert_array_equal(batch[energy][0], first.blocks[energy])
    sliced = sample_haar_blocks(qutrit_qubit_spec, 7, 2, start=3)
    for energy in batch:
        np.testing.assert_array_equal(sliced[energy], batch[energy][3:5])


def test_slices_across_chunk_boundaries(two_qubit_spec):
    from sec_transfer.unitaries import SAMPLE_CHUNK

    whole = sample_haar_blocks(two_qubit_spec, 9, SAMPLE_CHUNK + 40)
    spanning = sample_haar_blocks(
        two_qubit_spec, 9, 80, start=SAMPLE_CHUNK - 40
    )
    for energy in whole:
        np.testing.assert_array_equal(
            spanning[energy], whole[energy][SAMPLE_CHUNK - 40 : SAMPLE_CHUNK + 40]
        )


def test_haar_first_moment(two_qubit_spec):
    # Haar moment oracle: E|U_00|^2 = 1/d, Var = (d-1)/(d^2 (d+1))
    count = 100_000
    stack = sample_haar_blocks(two_qubit_spec, 123, count)[Fraction(1)]
    mean = (np.abs(stack[:, 0, 0]) ** 2).mean()
    sigma = np.sqrt((1 / 12) / count)
    assert abs(mean - 0.5) <= 3 * sigma


def test_block_permutation_is_not_coherence_capable(two_qubit_spec):
    swap = SecParams2Q(r=1.0, phi=0.3, thetas=(0.1, 0.2, 0.3, 0.4))
    assert not is_potentially_coherent(swap.to_sec_unitary(two_qubit_spec))
    assert not is_potentially_coherent(SecUnitary.identity(two_qubit_spec))


def test_partial_rotation_is_coherence_capable(two_qubit_spec):
    for r in (0.2, 0.5, 0.9):
        u = SecParams2Q(r=r).to_sec_unitary(two_qubit_spec)
        assert is_potentially_coherent(u)


def test_unitarity_validated(two_qubit_spec):
    blocks = {
        Fraction(0): np.array([[1.0]]),
        Fraction(1): np.array([[1.0, 0.1], [0.0, 1.0]]),
        Fraction(2): np.array([[1.0]]),
    }
    with pytest.raises(NotUnitary, match="1e-12"):
        SecUnitary(blocks, two_qubit_spec)


def test_block_set_must_match_spectrum(two_qubit_spec):
    with pytest.raises(BlockMismatch):
        SecUnitary({Fraction(0): np.array([[1.0]])}, two_qubit_spec)


def test_full_matrix_rejects_foreign_spectrum(two_qubit_spec, qutrit_qubit_spec):
    u = SecUnitary.identity(two_qubit_spec)
    with pytest.raises(BlockMismatch):
        to_full_matrix(u, qutrit_qubit_spec)


@pytest.mark.parametrize("count", [0, -3])
def test_sample_count_below_one_is_validation_error(two_qubit_spec, count):
    from sec_transfer import ValidationError

    with pytest.raises(ValidationError, match="count must be >= 1"):
        sample_haar_blocks(two_qubit_spec, 1, count)
