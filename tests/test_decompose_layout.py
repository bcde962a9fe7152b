"""`decompose` over the block layout against the per-block-pair reference.

The reference below is the plain construction: one ``np.ix_`` copy per
block pair, thresholded, with the same-block diagonal zeroed, kept when
nonzero.  The block-ordered decomposition copies the same values, so every
comparison is exact: equal keys in equal order, equal arrays, and equal
bytes for the matrices rebuilt from them.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from sec_transfer import (
    BipartiteState,
    Hamiltonian,
    build_joint_spectrum,
    check_coherence_bound,
    decompose,
    maximize_transfer_exact,
    sample_haar,
    tolerances,
)
from sec_transfer.formats import decomposition_summary_rows, fraction_key
from sec_transfer.fixtures import ladder_spectrum, random_state
from sec_transfer.unitaries import to_full_matrix


def _reference_decompose(mat, spec):
    zero = tolerances.ZERO
    probs, coh = {}, {}
    for block in spec.blocks:
        flat = spec.flat_indices(block.energy)
        p = np.real(mat[flat, flat]).copy()
        p[np.abs(p) < zero] = 0.0
        probs[block.energy] = p
    for b1, b2 in itertools.product(spec.blocks, repeat=2):
        rows, cols = spec.flat_indices(b1.energy), spec.flat_indices(b2.energy)
        alpha = mat[np.ix_(rows, cols)].copy()
        if b1.energy == b2.energy:
            np.fill_diagonal(alpha, 0.0)
        alpha[np.abs(alpha) < zero] = 0.0
        if np.any(alpha != 0.0):
            coh[(b1.energy, b2.energy)] = alpha
    return probs, coh


def _reference_reassemble(spec, probs, coh, diagonal, same, cross):
    out = np.zeros((spec.total_dim, spec.total_dim), dtype=complex)
    if diagonal:
        for energy, p in probs.items():
            flat = spec.flat_indices(energy)
            out[flat, flat] = p
    for (e1, e2), alpha in coh.items():
        if (e1 == e2 and same) or (e1 != e2 and cross):
            out[np.ix_(spec.flat_indices(e1), spec.flat_indices(e2))] += alpha
    return out


def _reference_full_matrix(u, spec):
    full = np.zeros((spec.total_dim, spec.total_dim), dtype=complex)
    for block in spec.blocks:
        flat = spec.flat_indices(block.energy)
        full[np.ix_(flat, flat)] = u.blocks[block.energy]
    return full


def _reference_csv_rows(probs, coh):
    cross = {}
    for (e1, e2), alpha in coh.items():
        if e1 != e2:
            peak = float(np.abs(alpha).max())
            cross[e1] = max(cross.get(e1, 0.0), peak)
            cross[e2] = max(cross.get(e2, 0.0), peak)
    rows = []
    for energy in sorted(probs):
        same = coh.get((energy, energy))
        rows.append([
            fraction_key(energy),
            repr(float(probs[energy].sum())),
            ";".join(repr(float(p)) for p in probs[energy]),
            repr(float(np.abs(same).max()) if same is not None else 0.0),
            repr(cross.get(energy, 0.0)),
        ])
    return rows


def _integer_ladder(rng):
    return ladder_spectrum(4, 3), random_state((4, 3), rng)


def _all_singletons(rng):
    h_a = Hamiltonian((Fraction(0), Fraction(1, 3), Fraction(7, 5)))
    h_b = Hamiltonian((Fraction(0), Fraction(2, 7), Fraction(5, 11)))
    spec = build_joint_spectrum(h_a, h_b)
    assert [block.dim for block in spec.blocks] == [1] * 9
    return spec, random_state((3, 3), rng)


def _rational_tie(rng):
    h_a = Hamiltonian((Fraction(0), Fraction(1, 3), Fraction(7, 5)))
    h_b = Hamiltonian((Fraction(0), Fraction(2, 7), Fraction(1, 3)))
    spec = build_joint_spectrum(h_a, h_b)
    assert sorted(block.dim for block in spec.blocks) == [1] * 7 + [2]
    return spec, random_state((3, 3), rng)


def _thirds_ladder(rng):
    h = Hamiltonian(tuple(Fraction(k, 3) for k in range(5)))
    return build_joint_spectrum(h, h), random_state((5, 5), rng)


def _zero_probability_blocks(rng):
    # no weight on |00> (E=0) or |22> (E=4): those blocks and every
    # coherence block touching them vanish
    keep = np.ones(9)
    keep[[0, 8]] = 0.0
    mat = random_state((3, 3), rng).matrix * np.outer(keep, keep)
    return ladder_spectrum(3, 3), BipartiteState(mat / mat.trace().real, (3, 3))


def _straddling_zero(rng):
    # entries just below, at and just above the stored-zero threshold, a
    # cross block and a same-energy block left with sub-threshold entries
    # only, a population whose imaginary part alone crosses the threshold,
    # and a negative zero beside a kept imaginary part
    spec = ladder_spectrum(3, 3)
    mat = random_state((3, 3), rng).matrix.copy()
    zero = tolerances.ZERO
    e1, e2, e3 = (spec.flat_indices(e) for e in (1, 2, 3))
    mat[np.ix_(e1, e3)] = 0.9 * zero
    mat[np.ix_(e3, e1)] = -0.9 * zero
    mat[e2[0], e2[1]] = mat[e2[1], e2[0]] = 0.5 * zero
    mat[e2[0], e2[2]] = mat[e2[2], e2[0]] = 0.99 * zero
    mat[e2[1], e2[2]] = mat[e2[2], e2[1]] = 0.0
    mat[0, e3[0]] = zero
    mat[0, e2[0]] = 1.01 * zero
    mat[0, e3[1]] = complex(-0.0, 0.25)
    mat[8, 8] = complex(0.5 * zero, 3 * zero)
    mat[e2[1], e2[1]] = -0.5 * zero
    return spec, BipartiteState(mat, (3, 3), validate=False)


CASES = {
    "integer-ladder": _integer_ladder,
    "all-singletons": _all_singletons,
    "rational-tie": _rational_tie,
    "thirds-ladder": _thirds_ladder,
    "zero-probability-blocks": _zero_probability_blocks,
    "straddling-zero": _straddling_zero,
}


@pytest.fixture(params=sorted(CASES))
def case(request, rng):
    spec, state = CASES[request.param](rng)
    return spec, state, decompose(state, spec), _reference_decompose(state.matrix, spec)


def test_blocks_equal_the_per_pair_reference(case):
    spec, _, decomp, (probs, coh) = case
    assert list(decomp.diag_blocks) == list(probs)
    for energy, p in probs.items():
        assert np.array_equal(decomp.diag_blocks[energy].probs, p)
        assert decomp.diag_blocks[energy].p_E == float(p.sum())
    assert list(decomp.coh_blocks) == list(coh)
    assert len(decomp.coh_blocks) == len(coh)
    for key, alpha in coh.items():
        assert key in decomp.coh_blocks
        assert np.array_equal(decomp.coh_blocks[key], alpha)
    useful = decomp.useful_coherence_blocks()
    assert list(useful) == [e1 for e1, e2 in coh if e1 == e2]
    for energy, alpha in useful.items():
        assert np.array_equal(alpha, coh[(energy, energy)])


def test_straddling_case_drops_what_the_threshold_drops(rng):
    spec, state = _straddling_zero(rng)
    decomp = decompose(state, spec)
    e0, e1, e2, e3, e4 = (Fraction(e) for e in range(5))
    for key in [(e1, e3), (e3, e1), (e2, e2)]:
        assert key not in decomp.coh_blocks
    assert decomp.coh_blocks[(e0, e3)][0].tolist() == [tolerances.ZERO, 0.25j]
    assert decomp.diag_blocks[e4].probs[0] == 0.0
    assert decomp.diag_blocks[e2].probs[1] == 0.0


def test_values_are_read_only_views(case):
    _, _, decomp, _ = case
    arrays = [block.probs for block in decomp.diag_blocks.values()]
    arrays += list(decomp.coh_blocks.values()) + list(decomp.useful_coherence_blocks().values())
    for array in arrays:
        assert array.base is not None and not array.flags.writeable
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1.0
        with pytest.raises(ValueError):
            array.setflags(write=True)


def test_absent_pairs_raise_key_error(case):
    spec, _, decomp, (_, coh) = case
    absent = [
        (b1.energy, b2.energy)
        for b1, b2 in itertools.product(spec.blocks, repeat=2)
        if (b1.energy, b2.energy) not in coh
    ]
    # singleton blocks never carry a same-energy coherence
    assert absent
    for key in absent + [(Fraction(-1), spec.blocks[0].energy), "E", (1, 2, 3)]:
        assert key not in decomp.coh_blocks
        with pytest.raises(KeyError):
            decomp.coh_blocks[key]


def test_empty_decomposition_compares_equal_to_empty_dict():
    spec = ladder_spectrum(2, 3)
    decomp = decompose(BipartiteState.maximally_mixed((2, 3)), spec)
    assert decomp.coh_blocks == {}
    assert len(decomp.coh_blocks) == 0 and list(decomp.coh_blocks) == []
    assert decomp.useful_coherence_blocks() == {}


@pytest.mark.parametrize("switches", list(itertools.product((True, False), repeat=3)))
def test_reassemble_equals_the_reference_bit_for_bit(case, switches):
    spec, _, decomp, (probs, coh) = case
    rebuilt = decomp.reassemble(*switches).matrix
    expected = _reference_reassemble(spec, probs, coh, *switches)
    assert rebuilt.tobytes() == expected.tobytes()


def test_full_matrix_equals_the_reference_bit_for_bit(case):
    spec, _, _, _ = case
    for seed in range(3):
        u = sample_haar(spec, seed)
        assert to_full_matrix(u, spec).tobytes() == _reference_full_matrix(u, spec).tobytes()


def test_csv_rows_equal_the_reference(case):
    _, _, decomp, (probs, coh) = case
    assert decomposition_summary_rows(decomp) == _reference_csv_rows(probs, coh)


def test_coherence_bound_equals_two_separate_decompositions(case):
    spec, state, _, _ = case
    for target in ("A", "B"):
        lhs, rhs, _ = check_coherence_bound(state, spec, target)
        dephased = decompose(state, spec).diagonal_state()
        assert lhs == maximize_transfer_exact(state, spec, target).value
        assert rhs == maximize_transfer_exact(dephased, spec, target).value
