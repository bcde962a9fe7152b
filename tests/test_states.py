import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sec_transfer import (
    BipartiteState,
    DimensionMismatch,
    NotAState,
    decompose,
    local_energy,
    partial_trace,
)
from sec_transfer import formats, tolerances
from sec_transfer.cli import main
from sec_transfer.classify import thermal_product
from sec_transfer.fixtures import ladder_spectrum, random_state

BELL = BipartiteState.from_vector([0, 1, 1, 0], (2, 2))


def test_thermal_product_has_no_coherence(two_qubit_spec):
    state = thermal_product(two_qubit_spec.h_a, two_qubit_spec.h_b, 2.0, 1.0)
    decomp = decompose(state, two_qubit_spec)
    assert decomp.coh_blocks.shape == (0, 2)


def test_single_useful_coherence_lands_in_middle_block(two_qubit_spec):
    alpha = 0.1 + 0.05j
    mat = np.diag([0.25, 0.3, 0.2, 0.25]).astype(complex)
    mat[1, 2] = alpha
    mat[2, 1] = np.conj(alpha)
    decomp = decompose(BipartiteState(mat, (2, 2)), two_qubit_spec)
    assert two_qubit_spec.energies[1] == Fraction(1)
    assert decomp.coh_blocks.tolist() == [[1, 1]]
    block = decomp.coherence_block(1, 1)
    assert block[0, 1] == alpha
    assert block[1, 0] == np.conj(alpha)
    assert block[0, 0] == block[1, 1] == 0.0


def test_bell_state_decomposition(two_qubit_spec):
    decomp = decompose(BELL, two_qubit_spec)
    layout = two_qubit_spec.layout
    np.testing.assert_allclose(decomp.probs[layout.span(1)], [0.5, 0.5])
    assert decomp.coh_blocks.tolist() == [[1, 1]]
    assert decomp.coherence_block(1, 1)[0, 1] == pytest.approx(0.5)
    assert float(decomp.probs[layout.span(0)].sum()) == 0.0
    assert float(decomp.probs[layout.span(2)].sum()) == 0.0


@settings(max_examples=40, deadline=None)
@given(
    dims=st.sampled_from([(2, 2), (3, 2), (3, 3), (4, 4)]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_decomposition_is_lossless(dims, seed):
    spec = ladder_spectrum(*dims)
    state = random_state(dims, np.random.default_rng(seed))
    rebuilt = decompose(state, spec).reassemble()
    assert np.abs(rebuilt.matrix - state.matrix).max() <= 1e-14


@settings(max_examples=40, deadline=None)
@given(
    dims=st.sampled_from([(2, 2), (3, 3)]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_coherence_bounded_by_populations(dims, seed):
    spec = ladder_spectrum(*dims)
    state = random_state(dims, np.random.default_rng(seed))
    decomp = decompose(state, spec)
    for i, alpha in decomp.useful_coherence_blocks().items():
        probs = decomp.probs[spec.layout.span(i)]
        assert np.all(np.abs(alpha) ** 2 <= np.outer(probs, probs) + 1e-12)


def test_block_probabilities_sum_to_one(rng):
    spec = ladder_spectrum(3, 3)
    decomp = decompose(random_state((3, 3), rng), spec)
    layout = spec.layout
    p_E = [float(decomp.probs[layout.span(i)].sum()) for i in range(len(spec.blocks))]
    assert sum(p_E) == pytest.approx(1.0, abs=1e-12)


def test_dephased_coherence_carries_no_energy(two_qubit_spec):
    # a coherence-only perturbation contributes nothing to either local energy
    mat = BELL.matrix - np.diag(np.diag(BELL.matrix))
    for system in ("A", "B"):
        energies = two_qubit_spec.flat_local_energies(system)
        dephased = np.diag(np.where(np.eye(4, dtype=bool), mat, 0.0))
        assert energies @ np.real(np.diag(mat)) == pytest.approx(0.0)
        assert np.abs(dephased).max() == 0.0


def test_local_energy_diagonal_two_qubit(two_qubit_spec):
    state = BipartiteState.diagonal([0.1, 0.2, 0.3, 0.4], (2, 2))
    assert local_energy(state, two_qubit_spec, "A") == pytest.approx(0.7)
    assert local_energy(state, two_qubit_spec, "B") == pytest.approx(0.6)


def test_local_energy_bell(two_qubit_spec):
    assert local_energy(BELL, two_qubit_spec, "A") == pytest.approx(0.5)


def test_local_energy_ignores_coherences(two_qubit_spec, rng):
    state = random_state((2, 2), rng)
    decomp = decompose(state, two_qubit_spec)
    diag = decomp.diagonal_state()
    for system in ("A", "B"):
        assert local_energy(state, two_qubit_spec, system) == pytest.approx(
            local_energy(diag, two_qubit_spec, system), abs=1e-12
        )


def test_diagonal_blocks_reassemble_diagonal_part(two_qubit_spec, rng):
    state = random_state((2, 2), rng)
    decomp = decompose(state, two_qubit_spec)
    np.testing.assert_allclose(
        decomp.diagonal_state().matrix, np.diag(np.diag(state.matrix)), atol=1e-15
    )


def test_not_a_state_messages():
    bad_herm = np.eye(4, dtype=complex) / 4
    bad_herm[0, 1] = 0.5
    with pytest.raises(NotAState, match="Hermitian"):
        BipartiteState(bad_herm, (2, 2))
    with pytest.raises(NotAState, match="trace"):
        BipartiteState(np.eye(4) / 2, (2, 2))
    spiked = np.diag([0.6, 0.6, -0.1, -0.1]).astype(complex)
    with pytest.raises(NotAState, match="eigenvalue"):
        BipartiteState(spiked, (2, 2))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        BipartiteState(np.eye(4) / 4, (2, 3))
    spec = ladder_spectrum(3, 2)
    with pytest.raises(DimensionMismatch):
        decompose(BipartiteState(np.eye(4) / 4, (2, 2)), spec)


def test_partial_trace_of_product(rng):
    pa = rng.dirichlet(np.ones(3))
    pb = rng.dirichlet(np.ones(2))
    state = BipartiteState.diagonal(np.kron(pa, pb), (3, 2))
    np.testing.assert_allclose(np.diag(partial_trace(state.matrix, (3, 2), "A")), pa)
    np.testing.assert_allclose(np.diag(partial_trace(state.matrix, (3, 2), "B")), pb)


def test_partial_trace_bell():
    np.testing.assert_allclose(partial_trace(BELL.matrix, (2, 2), "A"), np.eye(2) / 2)


PSD = tolerances.PSD


def _state_with_lowest(d, lowest, rng):
    """Hermitian unit-trace matrix with eigenvalues ``lowest`` and positive rest."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    rest = rng.uniform(0.5, 1.5, d - 1)
    weights = np.concatenate(([lowest], rest * (1.0 - lowest) / rest.sum()))
    rho = (q * weights) @ q.conj().T
    return 0.5 * (rho + rho.conj().T)


def _assert_admission_matches_eigvalsh(rho, dims, psd_tol, monkeypatch):
    """Admit ``rho`` as the lowest eigenvalue decides; return the eigvalsh calls made."""
    lowest = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min()
    eigvalsh = np.linalg.eigvalsh
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    if lowest >= -psd_tol:
        BipartiteState(rho, dims, psd_tol=psd_tol)
    else:
        with pytest.raises(NotAState) as excinfo:
            BipartiteState(rho, dims, psd_tol=psd_tol)
        assert str(excinfo.value) == (
            f"not positive semidefinite: lowest eigenvalue {lowest:.3e} below -{psd_tol:g}"
        )
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    return len(calls)


@pytest.mark.parametrize(
    "side, lowest",
    [
        (side, lowest)
        for side in (8, 16)
        for lowest in (
            -PSD * (1 - 1e-3),
            -PSD * (1 + 1e-3),
            -PSD / 2 * (1 - 1e-3),
            -PSD / 2 * (1 + 1e-3),
            0.0,
            -1.5 * PSD,
        )
    ]
    + [(32, 0.0)],
)
def test_admission_decides_as_the_lowest_eigenvalue(side, lowest, monkeypatch):
    d = side * side
    rho = _state_with_lowest(d, lowest, np.random.default_rng([d, 7]))
    calls = _assert_admission_matches_eigvalsh(rho, (side, side), PSD, monkeypatch)
    if lowest == 0.0:
        assert calls == 0, "the Cholesky certificate should admit this state"


def _pure_state(seed):
    """A random rank-1 density matrix over 4 x 4 levels; a basis state for ``None``."""
    if seed is None:
        psi = np.eye(16)[5].astype(complex)
    else:
        rng = np.random.default_rng(seed)
        psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


@pytest.mark.parametrize("seed", [0, 1, 2, 3, None])
def test_zero_psd_tolerance_on_a_pure_state_is_decided_by_eigvalsh(seed, monkeypatch):
    calls = _assert_admission_matches_eigvalsh(_pure_state(seed), (4, 4), 0.0, monkeypatch)
    assert calls == 1


@pytest.mark.parametrize("psd_tol", [0.4, 0.6, 1e6, 1e300, sys.float_info.max])
def test_large_psd_tolerance_admits_as_the_lowest_eigenvalue(psd_tol, monkeypatch):
    rho = np.diag([0.75, 0.5, 0.25, -0.5]).astype(complex)
    rho[0, 1] = rho[1, 0] = 0.125
    _assert_admission_matches_eigvalsh(rho, (2, 2), psd_tol, monkeypatch)


@pytest.mark.parametrize("seed", [0, None])
def test_zero_psd_tolerance_on_a_pure_state_file(tmp_path, capsys, seed):
    """``--tolerance psd=0`` reaches admission; the lowest eigenvalue decides."""
    spec = ladder_spectrum(4, 4)
    state = {"dims": [4, 4], **formats._matrix_to_json(_pure_state(seed))}
    path = tmp_path / "pure.json"
    formats.dump_json(
        {
            "h_a": formats.hamiltonian_to_json(spec.h_a),
            "h_b": formats.hamiltonian_to_json(spec.h_b),
            "state": state,
        },
        path,
    )
    rho = np.array(state["re"]) + 1j * np.array(state["im"])
    lowest = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min()
    code = main(["decompose", "--input", str(path), "--tolerance", "psd=0"])
    err = capsys.readouterr().err
    if lowest >= 0:
        assert (code, err) == (0, "")
    else:
        assert code == 2
        assert err == (
            f"validation error: not positive semidefinite: lowest eigenvalue {lowest:.3e} "
            "below -0\n"
        )
