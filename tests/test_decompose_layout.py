"""`decompose` over the block layout against the per-block-pair reference.

The reference below is the plain construction: one ``np.ix_`` copy per
block pair, thresholded, with the same-block diagonal zeroed, kept when
nonzero, keyed by the pair of block energies.  The block-ordered
decomposition copies the same values and lists the same pairs by block
index, so every comparison is exact: equal pairs in equal order, equal
arrays, and equal bytes for the matrices rebuilt from them.
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


def _flat(spec, energy):
    """Flat product-basis indices of a block, read off its members."""
    return np.array([a * spec.dims[1] + b for a, b in spec.block(energy).members])


def _reference_decompose(mat, spec):
    zero = tolerances.ZERO
    probs, coh = {}, {}
    for block in spec.blocks:
        flat = _flat(spec, block.energy)
        p = np.real(mat[flat, flat]).copy()
        p[np.abs(p) < zero] = 0.0
        probs[block.energy] = p
    for b1, b2 in itertools.product(spec.blocks, repeat=2):
        rows, cols = _flat(spec, b1.energy), _flat(spec, b2.energy)
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
            flat = _flat(spec, energy)
            out[flat, flat] = p
    for (e1, e2), alpha in coh.items():
        if (e1 == e2 and same) or (e1 != e2 and cross):
            out[np.ix_(_flat(spec, e1), _flat(spec, e2))] += alpha
    return out


def _reference_full_matrix(u, spec):
    full = np.zeros((spec.total_dim, spec.total_dim), dtype=complex)
    for block in spec.blocks:
        flat = _flat(spec, block.energy)
        full[np.ix_(flat, flat)] = u.blocks[spec.layout.index[block.energy]]
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
    e1, e2, e3 = (_flat(spec, e) for e in (1, 2, 3))
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
    layout = spec.layout
    assert list(spec.energies) == list(probs)
    for i, p in enumerate(probs.values()):
        assert np.array_equal(decomp.probs[layout.span(i)], p)
        assert float(decomp.probs[layout.span(i)].sum()) == float(p.sum())
    pairs = decomp.coh_blocks.tolist()
    assert decomp.coh_blocks.dtype.kind == "i" and decomp.coh_blocks.shape == (len(coh), 2)
    assert [(spec.energies[i], spec.energies[j]) for i, j in pairs] == list(coh)
    assert len(decomp.coh_blocks) == len(coh)
    for (e1, e2), alpha in coh.items():
        i, j = layout.index[e1], layout.index[e2]
        assert [i, j] in pairs
        assert np.array_equal(decomp.coherence_block(i, j), alpha)
    # the pairs the tracer counts as same-energy are exactly the (E, E) keys
    assert sum(1 for i, j in decomp.coh_blocks if i == j) == sum(1 for e1, e2 in coh if e1 == e2)
    useful = decomp.useful_coherence_blocks()
    assert list(useful) == [layout.index[e1] for e1, e2 in coh if e1 == e2]
    for i, alpha in useful.items():
        energy = spec.energies[i]
        assert np.array_equal(alpha, coh[(energy, energy)])


def test_straddling_case_drops_what_the_threshold_drops(rng):
    spec, state = _straddling_zero(rng)
    decomp = decompose(state, spec)
    b0, b1, b2, b3, b4 = (spec.layout.index[Fraction(e)] for e in range(5))
    pairs = decomp.coh_blocks.tolist()
    for i, j in [(b1, b3), (b3, b1), (b2, b2)]:
        assert [i, j] not in pairs
        assert not decomp.coherence_block(i, j).any()
    assert [b0, b3] in pairs
    assert decomp.coherence_block(b0, b3)[0].tolist() == [tolerances.ZERO, 0.25j]
    assert decomp.probs[spec.layout.span(b4)][0] == 0.0
    assert decomp.probs[spec.layout.span(b2)][1] == 0.0


def test_values_are_read_only_views(case):
    spec, _, decomp, _ = case
    arrays = [decomp.probs[spec.layout.span(i)] for i in range(len(spec.blocks))]
    arrays += [decomp.coherence_block(i, j) for i, j in decomp.coh_blocks.tolist()]
    arrays += list(decomp.useful_coherence_blocks().values()) + [decomp.coh_blocks]
    for array in arrays:
        assert array.base is not None and not array.flags.writeable
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1.0
        with pytest.raises(ValueError):
            array.setflags(write=True)


def test_absent_pairs_are_not_listed(case):
    spec, _, decomp, (_, coh) = case
    index = spec.layout.index
    absent = [
        (index[b1.energy], index[b2.energy])
        for b1, b2 in itertools.product(spec.blocks, repeat=2)
        if (b1.energy, b2.energy) not in coh
    ]
    # singleton blocks never carry a same-energy coherence
    assert absent
    pairs = decomp.coh_blocks.tolist()
    for i, j in absent:
        assert [i, j] not in pairs
        assert not decomp.coherence_block(i, j).any()
    # indices that name no block
    past = len(spec.blocks)
    for i, j in [(past, 0), (0, past), (Fraction(0), 0), ("E", 0), ((1, 2, 3), 0)]:
        with pytest.raises(IndexError):
            decomp.coherence_block(i, j)


def test_empty_decomposition_lists_no_pairs():
    spec = ladder_spectrum(2, 3)
    decomp = decompose(BipartiteState(np.eye(6) / 6, (2, 3)), spec)
    assert decomp.coh_blocks.shape == (0, 2)
    assert len(decomp.coh_blocks) == 0 and list(decomp.coh_blocks) == []
    assert decomp.useful_coherence_blocks() == {}


@pytest.mark.parametrize("switches", list(itertools.product((True, False), repeat=3)))
def test_reassemble_equals_the_reference_bit_for_bit(case, switches):
    spec, _, decomp, (probs, coh) = case
    diagonal, same, cross = switches
    rebuilt = decomp.reassemble(same, cross).matrix
    if not diagonal:
        # the coherences alone: what a reassembly adds to the dephased state
        rebuilt = rebuilt - decomp.diagonal_state().matrix
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
