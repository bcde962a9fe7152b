import os
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from sec_transfer import (
    BipartiteState,
    BlockMismatch,
    SecUnitary,
    check_coherence_bound,
    classify_flow,
    decompose,
    is_potentially_coherent,
    maximize_transfer_exact,
    monte_carlo_max,
    optimal_diagonal_unitary,
    sample_haar_blocks,
    thermal_product,
    transfer_coherent,
    transfer_diagonal,
    transfer_direct,
)
from sec_transfer.fixtures import (
    DIMENSION_CLASSES,
    ladder_spectrum,
    max_coherence_params,
    random_state,
)
from sec_transfer.transfer import batch_transfers


def test_optimal_diagonal_unitary_two_qubit(two_qubit_spec):
    p01, p10 = 0.3, 0.1
    state = BipartiteState.diagonal([0.35, p01, p10, 0.25], (2, 2))
    decomp = decompose(state, two_qubit_spec)
    u = optimal_diagonal_unitary(decomp, two_qubit_spec, "A")
    # the E=1 block must be the full swap: population p01 belongs to the A
    # ground level and has to move up
    np.testing.assert_array_equal(
        u.blocks[two_qubit_spec.layout.index[Fraction(1)]],
        np.array([[0, 1], [1, 0]], dtype=complex),
    )
    value, _ = transfer_diagonal(decomp, u, "A")
    assert value == pytest.approx(p01 - p10, abs=1e-14)
    assert not is_potentially_coherent(u)


def test_optimal_diagonal_unitary_fixed_point(two_qubit_spec):
    # already maximum-energy for A: identity blocks, zero value
    state = BipartiteState.diagonal([0.35, 0.1, 0.3, 0.25], (2, 2))
    decomp = decompose(state, two_qubit_spec)
    u = optimal_diagonal_unitary(decomp, two_qubit_spec, "A")
    for i, block in enumerate(two_qubit_spec.blocks):
        np.testing.assert_array_equal(u.blocks[i], np.eye(block.dim))
    value, _ = transfer_diagonal(decomp, u, "A")
    assert value == 0.0


def test_optimal_diagonal_unitary_vs_exhaustive(rng):
    # oracle: enumerate every combination of per-block permutation unitaries
    spec = ladder_spectrum(3, 3)
    for _ in range(10):
        state = random_state((3, 3), rng, coherent=False)
        decomp = decompose(state, spec)
        u = optimal_diagonal_unitary(decomp, spec, "A")
        value, _ = transfer_diagonal(decomp, u, "A")
        best = 0.0
        per_block_best = []
        for i, block in enumerate(spec.blocks):
            probs = decomp.probs[spec.layout.span(i)]
            energies = spec.ordered_local_energies("A")[spec.layout.span(i)]
            initial = float(energies @ probs)
            per_block_best.append(
                max(
                    sum(p * e for p, e in zip(q, energies)) - initial
                    for q in permutations(probs)
                )
            )
        best = sum(per_block_best)
        assert value == pytest.approx(best, abs=1e-12)


@pytest.mark.parametrize("dims", DIMENSION_CLASSES)
def test_optimal_diagonal_unitary_vs_exhaustive_target_b(dims, rng):
    # oracle: every permutation of each block's members, one block at a time,
    # scored by the per-block breakdown of the diagonal transfer
    spec = ladder_spectrum(*dims)
    for _ in range(3):
        decomp = decompose(random_state(dims, rng, coherent=False), spec)
        _, optimal = transfer_diagonal(decomp, optimal_diagonal_unitary(decomp, spec, "B"), "B")
        for i, block in enumerate(spec.blocks):
            best = -np.inf
            for perm in permutations(range(block.dim)):
                blocks = list(SecUnitary.identity(spec).blocks)
                blocks[i] = np.eye(block.dim, dtype=complex)[list(perm)]
                _, per_block = transfer_diagonal(decomp, SecUnitary(blocks, spec), "B")
                best = max(best, per_block[i])
            assert optimal[i] == pytest.approx(best, abs=1e-12)


def test_optimal_diagonal_kills_coherent_transfer(rng):
    for dims in ((2, 2), (3, 2), (3, 3)):
        spec = ladder_spectrum(*dims)
        for _ in range(10):
            state = random_state(dims, rng)
            decomp = decompose(state, spec)
            for target in ("A", "B"):
                u = optimal_diagonal_unitary(decomp, spec, target)
                coherent, _ = transfer_coherent(decomp, u, target)
                assert abs(coherent) <= 1e-12


def test_maximize_exact_two_qubit_fixture(two_qubit_spec):
    params = max_coherence_params(0.3, 0.1)
    result = maximize_transfer_exact(params.to_state(), two_qubit_spec, "A")
    assert result.value == pytest.approx(0.3, abs=1e-12)
    assert result.method == "block_eigen_exact"
    # the result invariant: re-evaluating the unitary reproduces the value
    assert transfer_direct(params.to_state(), result.unitary, "A") == pytest.approx(
        result.value, abs=1e-10
    )
    result_b = maximize_transfer_exact(params.to_state(), two_qubit_spec, "B")
    assert result_b.value == pytest.approx(0.1, abs=1e-12)


def test_maximize_exact_reduces_to_rearrangement_on_diagonal(rng):
    for dims in ((2, 2), (3, 3)):
        spec = ladder_spectrum(*dims)
        for _ in range(5):
            state = random_state(dims, rng, coherent=False)
            decomp = decompose(state, spec)
            exact = maximize_transfer_exact(state, spec, "A").value
            u = optimal_diagonal_unitary(decomp, spec, "A")
            value, _ = transfer_diagonal(decomp, u, "A")
            assert exact == pytest.approx(value, abs=1e-14)


@pytest.mark.parametrize("dims", DIMENSION_CLASSES)
def test_exact_optimum_of_incoherent_states_is_the_diagonal_optimum(dims, rng):
    # one block optimizer: without coherences the exact optimum is the
    # population rearrangement, bit for bit
    spec = ladder_spectrum(*dims)
    for _ in range(3):
        state = random_state(dims, rng, coherent=False)
        for target in ("A", "B"):
            exact = maximize_transfer_exact(state, spec, target).unitary
            diagonal = optimal_diagonal_unitary(decompose(state, spec), spec, target)
            assert [b.tobytes() for b in exact.blocks] == [b.tobytes() for b in diagonal.blocks]


@pytest.mark.parametrize(
    "dims,probs",
    [((2, 2), [0.3, 0.2, 0.2, 0.3]), ((3, 3), [1 / 9] * 9)],
    ids=["tied-two-qubit", "maximally-mixed-3x3"],
)
def test_tied_populations_in_max_energy_order_give_identity_blocks(dims, probs):
    spec = ladder_spectrum(*dims)
    state = BipartiteState.diagonal(probs, dims)
    result = maximize_transfer_exact(state, spec, "A")
    assert result.value == 0.0
    for block in result.unitary.blocks:
        assert np.array_equal(block, np.eye(len(block)))
    diagonal = optimal_diagonal_unitary(decompose(state, spec), spec, "A")
    assert [b.tobytes() for b in result.unitary.blocks] == [b.tobytes() for b in diagonal.blocks]


@pytest.mark.parametrize("target", ["A", "B"])
@pytest.mark.parametrize(
    "dims,probs",
    [((2, 2), [0.3, 0.2, 0.2, 0.3]), ((3, 3), [1 / 9] * 9)],
    ids=["tied-two-qubit", "maximally-mixed-3x3"],
)
def test_tied_populations_move_nothing_for_either_target(dims, probs, target):
    # every block's populations tie, so the identity is optimal and ties keep
    # the target's level order whether its levels rise or fall along a block
    spec = ladder_spectrum(*dims)
    state = BipartiteState.diagonal(probs, dims)
    exact = maximize_transfer_exact(state, spec, target)
    diagonal = optimal_diagonal_unitary(decompose(state, spec), spec, target)
    assert exact.value == 0.0
    for unitary in (exact.unitary, diagonal):
        for block in unitary.blocks:
            assert np.array_equal(block, np.eye(len(block)))


def _count_eigh(monkeypatch) -> list:
    calls = []
    eigh = np.linalg.eigh

    def counted(mat, *args, **kwargs):
        calls.append(mat.shape)
        return eigh(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def test_thermal_classification_eigendecomposes_nothing(monkeypatch):
    spec = ladder_spectrum(4, 4)
    state = thermal_product(spec.h_a, spec.h_b, 2.0, 1.0)
    calls = _count_eigh(monkeypatch)
    assert classify_flow(state, spec, "A").direction == "A_from_B"
    assert calls == []


def test_exact_optimum_eigendecomposes_only_coherent_blocks(rng, monkeypatch):
    spec = ladder_spectrum(4, 3)
    state = random_state((4, 3), rng)
    useful = decompose(state, spec).useful_coherence_blocks()
    assert 0 < len(useful) < len(spec.blocks)
    calls = _count_eigh(monkeypatch)
    maximize_transfer_exact(state, spec, "A")
    assert sorted(calls) == sorted(alpha.shape for alpha in useful.values())


def test_maximize_exact_dominates_sampling(rng):
    # oracle: Monte-Carlo sampling can approach but not exceed the exact value
    spec = ladder_spectrum(3, 2)
    for seed in range(3):
        state = random_state((3, 2), rng)
        exact = maximize_transfer_exact(state, spec, "A")
        sampled = monte_carlo_max(state, spec, "A", n_samples=20_000, seed=seed)
        assert sampled.value <= exact.value + 1e-10
        assert sampled.samples == 20_000


def test_block_contributions_are_independent(rng):
    # perturbing one block's unitary leaves the other blocks' contributions alone
    spec = ladder_spectrum(3, 3)
    state = random_state((3, 3), rng)
    decomp = decompose(state, spec)
    base = maximize_transfer_exact(state, spec, "A").unitary
    _, per_block_base = transfer_diagonal(decomp, base, "A")
    target_block = 2
    perturbed_blocks = list(base.blocks)
    rot = np.linalg.qr(
        np.random.default_rng(5).standard_normal((3, 3))
        + 1j * np.random.default_rng(6).standard_normal((3, 3))
    )[0]
    perturbed_blocks[target_block] = rot @ perturbed_blocks[target_block]
    perturbed = SecUnitary(perturbed_blocks, spec)
    _, per_block_after = transfer_diagonal(decomp, perturbed, "A")
    for i in range(len(per_block_base)):
        if i == target_block:
            continue
        assert per_block_after[i] == per_block_base[i]


def test_monte_carlo_two_qubit_diagonal(two_qubit_spec):
    # oracle: closed-form maximum (p01 - p10) at the full swap
    state = BipartiteState.diagonal([0.35, 0.3, 0.1, 0.25], (2, 2))
    result = monte_carlo_max(state, two_qubit_spec, "A", n_samples=10_000, seed=3)
    assert result.value <= 0.2 + 1e-12
    assert result.value == pytest.approx(0.2, abs=1e-3)


def test_monte_carlo_single_sample(two_qubit_spec, rng):
    state = random_state((2, 2), rng)
    from sec_transfer import sample_haar

    result = monte_carlo_max(state, two_qubit_spec, "A", n_samples=1, seed=11)
    only = sample_haar(two_qubit_spec, 11)
    assert result.value == pytest.approx(
        transfer_direct(state, only, "A"), abs=1e-15
    )


def test_monte_carlo_bell_diagonal_approaches_closed_form(two_qubit_spec):
    # oracle: optimal transfer c_x/2 with c_x = 2*alpha
    alpha = 0.25
    mat = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    mat[1, 2] = alpha
    mat[2, 1] = alpha
    state = BipartiteState(mat, (2, 2))
    result = monte_carlo_max(state, two_qubit_spec, "A", n_samples=100_000, seed=8)
    assert result.value <= alpha + 1e-10
    assert result.value == pytest.approx(alpha, abs=1e-2)


def test_monte_carlo_deterministic(two_qubit_spec, rng):
    state = random_state((2, 2), rng)
    a = monte_carlo_max(state, two_qubit_spec, "A", n_samples=5000, seed=21)
    b = monte_carlo_max(state, two_qubit_spec, "A", n_samples=5000, seed=21)
    assert a.value == b.value
    for i in range(len(a.unitary.blocks)):
        np.testing.assert_array_equal(a.unitary.blocks[i], b.unitary.blocks[i])


def test_monte_carlo_thread_cap_does_not_change_result(two_qubit_spec, rng, monkeypatch):
    state = random_state((2, 2), rng)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    base = monte_carlo_max(state, two_qubit_spec, "A", n_samples=9000, seed=2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    threaded = monte_carlo_max(state, two_qubit_spec, "A", n_samples=9000, seed=2)
    assert base.value == threaded.value


def test_antisymmetry_of_optima(rng):
    # maximizing for B is minimizing for A with the sign flipped; the minimum
    # for A is the negated exact maximum for B, checked through sampling
    spec = ladder_spectrum(2, 2)
    state = random_state((2, 2), rng)
    max_b = maximize_transfer_exact(state, spec, "B").value
    decomp = decompose(state, spec)
    batch = sample_haar_blocks(spec, 31, 20_000)
    sampled_min_a = batch_transfers(decomp, batch, "A").total.min()
    assert sampled_min_a >= -max_b - 1e-10
    assert sampled_min_a == pytest.approx(-max_b, abs=1e-2)


def test_coherence_bound_incoherent_state(two_qubit_spec, rng):
    state = random_state((2, 2), rng, coherent=False)
    lhs, rhs, holds = check_coherence_bound(state, two_qubit_spec, "A")
    assert holds
    assert lhs == pytest.approx(rhs, abs=1e-14)


def test_coherence_bound_strict_gap(two_qubit_spec):
    state = max_coherence_params(0.3, 0.1).to_state()
    lhs, rhs, holds = check_coherence_bound(state, two_qubit_spec, "A")
    assert holds
    assert lhs == pytest.approx(0.3, abs=1e-12)
    assert rhs == pytest.approx(0.2, abs=1e-12)
    assert lhs - rhs > 1e-6


def test_coherence_bound_random_states(rng):
    spec = ladder_spectrum(3, 3)
    for _ in range(100):
        state = random_state((3, 3), rng)
        _, _, holds = check_coherence_bound(state, spec, "A")
        assert holds


def test_exact_optimizer_value_is_reproducible(rng):
    # the reported unitary must reproduce the reported value by dense evolution
    for dims in ((2, 2), (3, 2), (4, 4)):
        spec = ladder_spectrum(*dims)
        for _ in range(5):
            state = random_state(dims, rng)
            result = maximize_transfer_exact(state, spec, "A")
            assert transfer_direct(state, result.unitary, "A") == pytest.approx(
                result.value, abs=1e-10
            )


def test_diagonal_optimum_refuses_another_spectrum():
    decomp = decompose(BipartiteState(np.eye(4) / 4, (2, 2)), ladder_spectrum(2, 2))
    with pytest.raises(BlockMismatch, match="^decomposition was built over a different joint"):
        optimal_diagonal_unitary(decomp, ladder_spectrum(3, 2), "A")
