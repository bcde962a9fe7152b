import json

import numpy as np
import pytest

from sec_transfer import (
    BipartiteState,
    Hamiltonian,
    NumericalInvariantError,
    SecParams2Q,
    SecUnitary,
    analyze,
    batch_transfers,
    build_joint_spectrum,
    decompose,
    is_potentially_coherent,
    sample_haar,
    sample_haar_blocks,
    to_full_matrix,
    transfer_coherent,
    transfer_diagonal,
    transfer_direct,
    partial_trace,
    plane_scan,
)
from sec_transfer import formats, tolerances, transfer
from sec_transfer.cli import main
from sec_transfer.fixtures import (
    DIMENSION_CLASSES,
    ladder_spectrum,
    random_state,
    zero_cross_coherences,
    zero_same_coherences,
)

BELL = BipartiteState.from_vector([0, 1, 1, 0], (2, 2))


def test_direct_identity_is_zero(two_qubit_spec, rng):
    state = random_state((2, 2), rng)
    u = SecUnitary.identity(two_qubit_spec)
    assert transfer_direct(state, u, "A") == 0.0


def test_direct_full_swap(two_qubit_spec):
    state = BipartiteState.diagonal([0.45, 0.3, 0.1, 0.15], (2, 2))
    swap = SecParams2Q(r=1.0).to_sec_unitary(two_qubit_spec)
    assert transfer_direct(state, swap, "A") == pytest.approx(0.2, abs=1e-15)


def test_direct_antisymmetry(rng):
    # oracle: compute both sides independently
    for dims in ((2, 2), (3, 3)):
        spec = ladder_spectrum(*dims)
        for seed in range(25):
            state = random_state(dims, rng)
            u = sample_haar(spec, seed)
            a = transfer_direct(state, u, "A")
            b = transfer_direct(state, u, "B")
            assert abs(a + b) <= 1e-12


def test_diagonal_maximally_mixed_is_invariant(qutrit_qubit_spec):
    state = BipartiteState(np.eye(6) / 6, (3, 2))
    decomp = decompose(state, qutrit_qubit_spec)
    for seed in range(10):
        u = sample_haar(qutrit_qubit_spec, seed)
        value, per_block = transfer_diagonal(decomp, u, "A")
        assert abs(value) <= 1e-15
        assert all(abs(v) <= 1e-15 for v in per_block)


def test_diagonal_two_qubit_rotation(two_qubit_spec):
    p01, p10 = 0.3, 0.1
    state = BipartiteState.diagonal([0.35, p01, p10, 0.25], (2, 2))
    decomp = decompose(state, two_qubit_spec)
    for r in (0.0, 0.3, 0.8, 1.0):
        u = SecParams2Q(r=r, phi=1.0).to_sec_unitary(two_qubit_spec)
        value, _ = transfer_diagonal(decomp, u, "A")
        assert value == pytest.approx((p01 - p10) * r**2, abs=1e-14)


def test_diagonal_matches_dense_evolution(qutrit_qubit_spec, rng):
    # oracle: dense evolution of the dephased state
    for seed in range(30):
        state = random_state((3, 2), rng, coherent=False)
        u = sample_haar(qutrit_qubit_spec, seed)
        decomp = decompose(state, qutrit_qubit_spec)
        for target in ("A", "B"):
            value, per_block = transfer_diagonal(decomp, u, target)
            assert value == pytest.approx(
                transfer_direct(state, u, target), abs=1e-12
            )
            assert value == pytest.approx(sum(per_block), abs=1e-14)


def test_coherent_ignores_cross_energy_blocks(rng):
    spec = ladder_spectrum(3, 2)
    for seed in range(20):
        state = random_state((3, 2), rng)
        cross_only = zero_same_coherences(state, spec)
        decomp = decompose(cross_only, spec)
        u = sample_haar(spec, seed)
        for target in ("A", "B"):
            value, eta = transfer_coherent(decomp, u, target)
            assert value == 0.0
            assert all(v == 0.0 for v in eta.values())


def test_coherent_two_qubit_formula(two_qubit_spec):
    alpha = 0.12
    mat = np.diag([0.3, 0.25, 0.2, 0.25]).astype(complex)
    mat[1, 2] = alpha
    mat[2, 1] = alpha
    decomp = decompose(BipartiteState(mat, (2, 2)), two_qubit_spec)
    for r, phi in ((0.5, 0.0), (0.7, 1.3), (0.3, np.pi)):
        u = SecParams2Q(r=r, phi=phi).to_sec_unitary(two_qubit_spec)
        value, _ = transfer_coherent(decomp, u, "A")
        expected = 2 * alpha * np.cos(phi) * r * np.sqrt(1 - r**2)
        assert value == pytest.approx(expected, abs=1e-13)


def test_coherent_equals_direct_minus_diagonal(rng):
    # oracle: dense evolution difference
    spec = ladder_spectrum(3, 2)
    for seed in range(30):
        state = random_state((3, 2), rng)
        u = sample_haar(spec, seed)
        decomp = decompose(state, spec)
        for target in ("A", "B"):
            coherent, _ = transfer_coherent(decomp, u, target)
            diagonal, _ = transfer_diagonal(decomp, u, target)
            direct = transfer_direct(state, u, target)
            assert coherent == pytest.approx(direct - diagonal, abs=1e-12)


def test_analyze_diagonal_state(two_qubit_spec, rng):
    state = random_state((2, 2), rng, coherent=False)
    report = analyze(state, sample_haar(two_qubit_spec, 1), "A")
    assert report.coherent == 0.0
    assert all(v == 0.0 for v in report.eta.values())
    assert report.total == pytest.approx(report.diagonal, abs=1e-12)
    assert report.unit == "hbar*omega"


def test_analyze_bell_half_rotation(two_qubit_spec):
    # oracle: dense evolution; closed form gives exactly 1/2
    u = SecParams2Q(r=2**-0.5, phi=0.0).to_sec_unitary(two_qubit_spec)
    report = analyze(BELL, u, "A")
    assert report.total == pytest.approx(0.5, abs=1e-12)
    assert report.coherent == pytest.approx(0.5, abs=1e-12)
    assert report.diagonal == pytest.approx(0.0, abs=1e-12)
    assert report.total == pytest.approx(transfer_direct(BELL, u, "A"), abs=1e-15)
    # the level coefficients sum to zero (no population leaks)
    assert sum(report.eta.values()) == pytest.approx(0.0, abs=1e-14)
    assert report.eta[1] == pytest.approx(0.5, abs=1e-12)


def test_analyze_thermal_product(two_qubit_spec):
    from sec_transfer.classify import thermal_product

    state = thermal_product(two_qubit_spec.h_a, two_qubit_spec.h_b, 1.5, 0.5)
    for seed in range(5):
        report = analyze(state, sample_haar(two_qubit_spec, seed), "B")
        assert report.coherent == 0.0


def test_eta_restricted_sum_oracle(rng):
    # oracle: accumulate eta level by level over the blocks containing it,
    # instead of block by block, and compare
    spec = ladder_spectrum(3, 3)
    state = random_state((3, 3), rng)
    decomp = decompose(state, spec)
    useful = decomp.useful_coherence_blocks()
    for seed in range(10):
        u = sample_haar(spec, seed)
        for target, h in (("A", spec.h_a), ("B", spec.h_b)):
            _, eta = transfer_coherent(decomp, u, target)
            for level in range(h.dim):
                total = 0.0
                for k, block in enumerate(spec.blocks):
                    alpha = useful.get(k)
                    if alpha is None:
                        continue
                    members = block.members
                    mat = u.blocks[k]
                    for out_idx, (a, b) in enumerate(members):
                        if (a if target == "A" else b) != level:
                            continue
                        for i in range(block.dim):
                            for j in range(i + 1, block.dim):
                                total += 2 * np.real(
                                    alpha[i, j] * mat[out_idx, i] * np.conj(mat[out_idx, j])
                                )
                assert eta[level] == pytest.approx(total, abs=1e-13)


def test_incoherent_capable_unitary_gives_zero_coherent(rng):
    spec = ladder_spectrum(3, 3)
    # block permutations: swap the first two members of every multi-member block
    blocks = []
    for block in spec.blocks:
        mat = np.eye(block.dim, dtype=complex)
        if block.dim >= 2:
            mat[[0, 1]] = mat[[1, 0]]
        blocks.append(mat)
    u = SecUnitary(blocks, spec)
    assert not is_potentially_coherent(u)
    for _ in range(10):
        state = random_state((3, 3), rng)
        coherent, _ = transfer_coherent(decompose(state, spec), u, "A")
        assert abs(coherent) <= 1e-12


def test_per_block_dephasing_identity(rng):
    # evolving one diagonal block then tracing out B equals the dephased
    # one-sided block evolution, matrix by matrix
    spec = ladder_spectrum(3, 2)
    state = random_state((3, 2), rng, coherent=False)
    decomp = decompose(state, spec)
    u = sample_haar(spec, 17)
    full = to_full_matrix(u, spec)
    for i, block in enumerate(spec.blocks):
        probs = decomp.probs[spec.layout.span(i)]
        flat = spec.layout.order[spec.layout.span(i)]
        embedded = np.zeros((6, 6), dtype=complex)
        embedded[flat, flat] = probs
        lhs = partial_trace(full @ embedded @ full.conj().T, (3, 2), "A")
        mat = u.blocks[i]
        one_sided = mat @ np.diag(probs.astype(complex)) @ mat.conj().T
        rhs = np.zeros((3, 3), dtype=complex)
        levels = [a for a, _ in block.members]
        rhs[levels, levels] = np.diag(one_sided)
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_cross_coherences_do_not_move_energy(rng):
    spec = ladder_spectrum(3, 3)
    for seed in range(10):
        state = random_state((3, 3), rng)
        stripped = zero_cross_coherences(state, spec)
        u = sample_haar(spec, seed)
        for target in ("A", "B"):
            assert transfer_direct(state, u, target) == pytest.approx(
                transfer_direct(stripped, u, target), abs=1e-13
            )


def test_batched_matches_scalar_paths(rng):
    spec = ladder_spectrum(3, 3)
    state = random_state((3, 3), rng)
    decomp = decompose(state, spec)
    batch = sample_haar_blocks(spec, 21, 40)
    results = batch_transfers(decomp, batch, "A")
    for i in range(40):
        u = SecUnitary([stack[i] for stack in batch], spec, validate=False)
        diagonal, _ = transfer_diagonal(decomp, u, "A")
        coherent, _ = transfer_coherent(decomp, u, "A")
        assert results.diagonal[i] == pytest.approx(diagonal, abs=1e-13)
        assert results.coherent[i] == pytest.approx(coherent, abs=1e-13)
        assert results.total[i] == pytest.approx(
            transfer_direct(state, u, "A"), abs=1e-12
        )


@pytest.mark.parametrize("dims", DIMENSION_CLASSES, ids=lambda d: f"{d[0]}x{d[1]}")
@pytest.mark.parametrize("target", ["A", "B"])
def test_diagonal_part_of_a_stack_reads_only_the_populations(dims, target, rng):
    # the registry's diagonal-optimal property evaluates the dephased state
    # to skip the coherent part; the diagonal part must keep its bits
    spec = ladder_spectrum(*dims)
    batch = sample_haar_blocks(spec, 11, 300)
    for _ in range(5):
        decomp = decompose(random_state(dims, rng), spec)
        dephased = decompose(decomp.diagonal_state(), spec)
        assert not dephased.useful_coherence_blocks()
        full = batch_transfers(decomp, batch, target).diagonal
        assert batch_transfers(dephased, batch, target).diagonal.tobytes() == full.tobytes()


def test_array_holding_results_compare_by_identity(rng):
    """``==`` on a report, a batch or a scan is a bool (identity), never a raise."""
    spec = ladder_spectrum(3, 3)
    state = random_state((3, 3), rng)
    u, stacks = sample_haar(spec, 1), sample_haar_blocks(spec, 2, 3)
    builds = [
        lambda: analyze(state, u, "A"),
        lambda: batch_transfers(decompose(state, spec), stacks, "A"),
        lambda: plane_scan(3),
    ]
    for build in builds:
        result = build()
        assert (result == result) is True
        assert (result == build()) is False


def _spaced_problem(tmp_path, num: int, den: int) -> str:
    """A 3 x 3 ladder with level spacing ``num/den`` on both sides and a random state."""
    energies = [[k * num, den] for k in range(3)]
    state = random_state((3, 3), np.random.default_rng(num % 1009))
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"h_a": {"energies": energies}, "h_b": {"energies": energies},
                                "state": formats.state_to_json(state)}), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("target", ["A", "B"])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("spacing", [10**3, 10**6, 10**9])
def test_split_check_scales_with_the_level_spread(spacing, seed, target, tmp_path, capsys):
    """Valid problems at large level spacings pass the default split check."""
    path = _spaced_problem(tmp_path, spacing, 1)
    assert main(["analyze", "--input", path, "--target", target, "--seed", str(seed)]) == 0
    report = json.loads(capsys.readouterr().out)
    residual = abs(report["total"] - report["diagonal"] - report["coherent"])
    assert residual <= tolerances.SPLIT * 2 * spacing


@pytest.mark.parametrize(
    "num, den", [(1, 4), (1, 2), (1, 1), (10**3, 1), (10**6, 1), (10**9, 1)]
)
def test_split_check_refuses_twice_its_scaled_bound(num, den, tmp_path, monkeypatch, capsys):
    """A kernel off by twice ``split x max(1, spread)`` exits 3, naming the bound.

    At a spread of at most 1 the bound and the message are the unscaled ones.
    """
    spread = 2 * num / den
    bound = tolerances.SPLIT * max(1, spread)
    kernel = transfer.batch_transfers

    def perturbed(*args):
        result = kernel(*args)
        result.diagonal += 2 * bound
        return result

    monkeypatch.setattr(transfer, "batch_transfers", perturbed)
    path = _spaced_problem(tmp_path, num, den)
    assert main(["analyze", "--input", path, "--target", "A", "--seed", "1"]) == 3
    message = capsys.readouterr().err
    assert "transfer split violated" in message and f"exceeds {bound:g}" in message
    scaled = f"({tolerances.SPLIT:g} x level spread {spread:g})"
    assert (scaled in message) is (spread > 1)


def test_split_bound_reads_the_level_spread_not_the_levels():
    """Levels 10, 11, 12 on A spread 2: the bound is ``split_tol x 2``, whatever the offset."""
    spec = build_joint_spectrum(Hamiltonian((10, 11, 12)), Hamiltonian((0, 1, 2)))
    state = random_state((3, 3), np.random.default_rng(1))
    decomp = decompose(state, spec)
    for seed in range(10):
        u = sample_haar(spec, seed)
        total = transfer_direct(state, u, "A")
        residual = abs(
            total - transfer_diagonal(decomp, u, "A")[0] - transfer_coherent(decomp, u, "A")[0]
        )
        if residual > 0:
            break
    assert residual > 0
    with pytest.raises(NumericalInvariantError, match="transfer split violated"):
        analyze(state, u, "A", split_tol=residual / 3)
    assert analyze(state, u, "A", split_tol=residual).total == total
