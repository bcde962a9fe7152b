"""The block-wise transfer kernel shared by scalar and batched evaluation.

``batch_transfers`` is the only place the diagonal/coherent split is
computed; ``transfer_diagonal``, ``transfer_coherent`` and ``analyze``
evaluate it on a stack of one.  A stack of one must reproduce the plain
per-block loops bit for bit, because reports are built from it.
"""

from fractions import Fraction

import numpy as np
import pytest

from sec_transfer import (
    BipartiteState,
    BlockMismatch,
    Hamiltonian,
    SecUnitary,
    analyze,
    batch_transfers,
    build_joint_spectrum,
    decompose,
    sample_haar,
    sample_haar_blocks,
    transfer_coherent,
    transfer_diagonal,
)
from sec_transfer.fixtures import ladder_spectrum, random_state


def _reference(decomp, u, target):
    """The split written out as per-block loops: blocks in spectrum order,
    the coherent part summed level by level."""
    spec = decomp.spectrum
    per_block = {}
    diagonal = 0.0
    for block in spec.blocks:
        probs = decomp.diag_blocks[block.energy].probs
        energies = spec.local_energies_float(block.energy, target)
        weights = np.abs(u.blocks[block.energy]) ** 2
        per_block[block.energy] = float(energies @ (weights @ probs - probs))
        diagonal += per_block[block.energy]
    h_target = spec.h_a if target == "A" else spec.h_b
    eta = {k: 0.0 for k in range(h_target.dim)}
    for energy, alpha in decomp.useful_coherence_blocks().items():
        mat = u.blocks[energy]
        gained = np.einsum("ki,ij,kj->k", mat, alpha, mat.conj()).real
        for member, (a, b) in enumerate(spec.block(energy).members):
            eta[a if target == "A" else b] += float(gained[member])
    levels = h_target.energies_float()
    coherent = float(sum(eta[k] * levels[k] for k in eta))
    return diagonal, per_block, coherent, eta


def _ladder_case(rng):
    spec = ladder_spectrum(3, 3)
    return spec, random_state((3, 3), rng)


def _rational_tie_case(rng):
    # 1/3 + 0 = 0 + 1/3 is the only coincidence: one two-member block, the
    # other seven blocks are singletons
    h_a = Hamiltonian((Fraction(0), Fraction(1, 3), Fraction(7, 5)))
    h_b = Hamiltonian((Fraction(0), Fraction(2, 7), Fraction(1, 3)))
    spec = build_joint_spectrum(h_a, h_b)
    assert sorted(block.dim for block in spec.blocks) == [1] * 7 + [2]
    return spec, random_state((3, 3), rng)


def _thirds_ladder_case(rng):
    # inexact level energies k/3 and many coherent levels, so the order in
    # which the coherent part is summed shows in the last bits
    h = Hamiltonian(tuple(Fraction(k, 3) for k in range(5)))
    return build_joint_spectrum(h, h), random_state((5, 5), rng)


def _zero_block_case(rng):
    # no weight on |00> (E=0) or |22> (E=4): two blocks of zero probability
    spec = ladder_spectrum(3, 3)
    keep = np.ones(9)
    keep[[0, 8]] = 0.0
    mat = random_state((3, 3), rng).matrix * np.outer(keep, keep)
    state = BipartiteState(mat / mat.trace().real, (3, 3))
    decomp = decompose(state, spec)
    assert decomp.p_E[Fraction(0)] == 0.0 and decomp.p_E[Fraction(4)] == 0.0
    return spec, state


CASES = {
    "integer-ladder": _ladder_case,
    "rational-tie": _rational_tie_case,
    "thirds-ladder": _thirds_ladder_case,
    "zero-probability-block": _zero_block_case,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_stack_of_one_equals_scalar_paths(case, rng):
    spec, state = CASES[case](rng)
    decomp = decompose(state, spec)
    for seed in range(5):
        u = sample_haar(spec, seed)
        for target in ("A", "B"):
            result = batch_transfers(decomp, {e: m[None] for e, m in u.blocks.items()}, target)
            diagonal, per_block = transfer_diagonal(decomp, u, target)
            coherent, eta = transfer_coherent(decomp, u, target)
            assert result.diagonal[0] == diagonal
            assert result.coherent[0] == coherent
            assert result.total[0] == diagonal + coherent
            assert {e: v[0] for e, v in result.per_block_diagonal.items()} == per_block
            assert dict(enumerate(result.eta[0])) == eta
            assert (diagonal, per_block, coherent, eta) == _reference(decomp, u, target)


@pytest.mark.parametrize("case", sorted(CASES))
def test_analyze_reports_the_kernel(case, rng):
    spec, state = CASES[case](rng)
    decomp = decompose(state, spec)
    u = sample_haar(spec, 11)
    report = analyze(state, u, "B")
    diagonal, per_block, coherent, eta = _reference(decomp, u, "B")
    assert (report.diagonal, report.coherent) == (diagonal, coherent)
    assert report.per_block_diagonal == per_block
    assert report.eta == eta


def test_zero_probability_blocks_contribute_exactly_zero(rng):
    spec, state = _zero_block_case(rng)
    decomp = decompose(state, spec)
    batch = sample_haar_blocks(spec, 5, 16)
    result = batch_transfers(decomp, batch, "A")
    for energy in (Fraction(0), Fraction(4)):
        assert np.all(result.per_block_diagonal[energy] == 0.0)


def test_stack_fields_have_per_sample_shapes(rng):
    spec, state = _rational_tie_case(rng)
    decomp = decompose(state, spec)
    n = 24
    batch = sample_haar_blocks(spec, 9, n)
    result = batch_transfers(decomp, batch, "A")
    assert result.eta.shape == (n, spec.h_a.dim)
    assert set(result.per_block_diagonal) == set(spec.energies)
    assert all(v.shape == (n,) for v in result.per_block_diagonal.values())
    np.testing.assert_array_equal(
        result.diagonal, sum(result.per_block_diagonal[b.energy] for b in spec.blocks)
    )
    np.testing.assert_array_equal(result.total, result.diagonal + result.coherent)
    for i in range(n):
        u = SecUnitary({e: stack[i] for e, stack in batch.items()}, spec, validate=False)
        diagonal, per_block, coherent, eta = _reference(decomp, u, "A")
        assert result.diagonal[i] == pytest.approx(diagonal, abs=1e-15)
        assert result.coherent[i] == pytest.approx(coherent, abs=1e-15)
        np.testing.assert_allclose(result.eta[i], list(eta.values()), rtol=0, atol=1e-15)


def test_kernel_rejects_mismatched_inputs(rng):
    spec = ladder_spectrum(2, 2)
    decomp = decompose(random_state((2, 2), rng), spec)
    batch = sample_haar_blocks(spec, 1, 4)
    short = dict(batch)
    short[Fraction(1)] = batch[Fraction(1)][:2]
    with pytest.raises(BlockMismatch):
        batch_transfers(decomp, short, "A")
    with pytest.raises(BlockMismatch):
        transfer_diagonal(decomp, sample_haar(ladder_spectrum(3, 2), 0), "A")
