from fractions import Fraction

import numpy as np
import pytest

from sec_transfer import (
    BipartiteState,
    Hamiltonian,
    LengthMismatch,
    NegativeTemperatureWarning,
    NotMaxActive,
    NotPassive,
    build_joint_spectrum,
    classify_flow,
    decompose,
    gibbs_probabilities,
    is_e_passive,
    is_potentially_coherent,
    passive_max_active_product,
    thermal_product,
    transfer_direct,
)
from sec_transfer import formats, tolerances
from sec_transfer.fixtures import (
    DIMENSION_CLASSES,
    cross_coherent_member,
    ladder_spectrum,
    one_way_members,
    random_state,
)
from sec_transfer.transfer import batch_transfers
from sec_transfer.unitaries import sample_haar_blocks

BELL = BipartiteState.from_vector([0, 1, 1, 0], (2, 2))


def test_is_e_passive_basics():
    assert is_e_passive([0.9, 0.1], [0, 1])
    assert not is_e_passive([0.1, 0.9], [0, 1])
    assert is_e_passive([0.25, 0.25, 0.25], [0, 1, 2])


def _all_pairs_passive(block_probs, block_energies) -> bool:
    """The former all-pairs loop, kept as the reference for the running minimum."""
    probs = np.asarray(block_probs, dtype=float)
    order = sorted(range(len(probs)), key=lambda m: block_energies[m])
    ordered = probs[order]
    for low in range(len(ordered)):
        for high in range(low + 1, len(ordered)):
            if ordered[high] > ordered[low] + tolerances.PASSIVITY_EQ:
                return False
    return True


def _passivity_inputs():
    rng = np.random.default_rng(20240801)
    eq = tolerances.PASSIVITY_EQ
    cases = []
    for d in (2, 3, 5, 8):
        for _ in range(40):
            energies = rng.permutation(d).tolist()
            cases.append((rng.dirichlet(np.ones(d)), energies))
            # passive up to ties, then nudged by fractions of the slack
            probs = np.sort(rng.dirichlet(np.ones(d)))[::-1].copy()
            probs[rng.integers(d)] = probs[0]
            cases.append((probs + rng.choice([-2, -1, 0, 0.5, 1, 2], d) * eq, list(range(d))))
            nan = rng.dirichlet(np.ones(d))
            nan[rng.choice(d, size=rng.integers(1, d + 1), replace=False)] = np.nan
            cases.append((nan, energies))
    base = 0.3
    for delta in (-2 * eq, -eq, 0.0, 0.5 * eq, eq, 1.5 * eq, 2 * eq):
        cases.append(([base, base + delta], [0, 1]))
        cases.append(([base + delta, base], [1, 0]))
    # slack creeping up level by level, and NaN around a violation
    cases.append(([base + k * 0.6 * eq for k in range(4)], [0, 1, 2, 3]))
    cases.append(([np.nan, 0.1, np.nan, 0.2], [0, 1, 2, 3]))
    cases.append(([0.2, np.nan, 0.1], [0, 1, 2]))
    cases.append(([np.nan, np.nan], [0, 1]))
    return cases


def test_is_e_passive_matches_the_all_pairs_loop():
    verdicts = []
    for probs, energies in _passivity_inputs():
        verdict = is_e_passive(probs, energies)
        assert verdict == _all_pairs_passive(probs, energies), (probs, energies)
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_is_e_passive_tolerates_float_ties():
    base = 0.2
    wiggle = 1e-15
    assert is_e_passive([base, base + wiggle], [0, 1])


def test_is_e_passive_checks_all_pairs():
    # adjacent comparisons would pass this one: each step is under the slack
    probs = [0.2, 0.2 + 8e-13, 0.2 + 1.6e-12]
    assert not is_e_passive(probs, [0, 1, 2])


def test_is_e_passive_unsorted_energies():
    assert is_e_passive([0.1, 0.9], [1, 0])


def test_is_e_passive_length_mismatch():
    with pytest.raises(LengthMismatch):
        is_e_passive([0.5], [0, 1])


def test_thermal_product_colder_a_flows_from_b(two_qubit_spec):
    state = thermal_product(two_qubit_spec.h_a, two_qubit_spec.h_b, 2.0, 1.0)
    label = classify_flow(state, two_qubit_spec, "A")
    assert label.direction == "A_from_B"
    assert label.failing_blocks == []
    assert not label.has_useful_coherence
    assert label.witness is None
    # the hotter side is not certified
    other = classify_flow(state, two_qubit_spec, "B")
    assert other.direction == "none"
    assert other.failing_blocks == [1]
    assert [two_qubit_spec.energies[i] for i in other.failing_blocks] == [Fraction(1)]


def test_passive_times_max_active_certifies_target_a():
    spec = ladder_spectrum(2, 2)
    state = passive_max_active_product([0.8, 0.2], [0.3, 0.7], spec.h_a, spec.h_b)
    assert classify_flow(state, spec, "A").direction == "A_from_B"
    assert classify_flow(state, spec, "B").direction == "none"
    # oracle: the two-qubit closed form says the transfer to A is
    # (p01 - p10) r^2 with p01 = 0.8*0.7 > p10 = 0.2*0.3, nonnegative for all r
    decomp = decompose(state, spec)
    batch = sample_haar_blocks(spec, 13, 2000)
    assert batch_transfers(decomp, batch, "A").total.min() >= -1e-12


def test_bell_state_not_one_way(two_qubit_spec):
    label = classify_flow(BELL, two_qubit_spec, "A")
    assert label.direction == "none"
    assert label.has_useful_coherence


def test_thermal_equal_betas_passive_both_ways():
    spec = ladder_spectrum(3, 3)
    state = thermal_product(spec.h_a, spec.h_b, 1.0, 1.0)
    for target in ("A", "B"):
        label = classify_flow(state, spec, target)
        assert label.failing_blocks == []
    # zero maximum diagonal transfer either way: all block populations equal
    from sec_transfer import maximize_transfer_exact

    assert maximize_transfer_exact(state, spec, "A").value == pytest.approx(0.0, abs=1e-14)
    assert maximize_transfer_exact(state, spec, "B").value == pytest.approx(0.0, abs=1e-14)


def test_thermal_qubit_populations():
    # oracle: direct Gibbs arithmetic
    h = ladder_spectrum(2, 2).h_a
    pa = gibbs_probabilities(h, 2.0)
    pb = gibbs_probabilities(h, 1.0)
    assert pa[1] == pytest.approx(np.exp(-2) / (1 + np.exp(-2)), abs=1e-15)
    assert pb[1] == pytest.approx(np.exp(-1) / (1 + np.exp(-1)), abs=1e-15)
    assert pa[1] == pytest.approx(0.11920, abs=5e-6)
    assert pb[1] == pytest.approx(0.26894, abs=5e-6)


def test_thermal_block_populations_monotone():
    spec = ladder_spectrum(3, 3)
    state = thermal_product(spec.h_a, spec.h_b, 2.0, 0.5)
    decomp = decompose(state, spec)
    for i in range(len(spec.blocks)):
        probs = decomp.probs[spec.layout.span(i)]
        assert np.all(np.diff(probs) <= 1e-15)


def test_thermal_beta_grid_always_certifies_colder_side():
    for dims in ((2, 2), (3, 2), (3, 3)):
        spec = ladder_spectrum(*dims)
        for beta_b in (0.0, 0.4, 1.1):
            for gap in (0.3, 1.0, 2.5):
                state = thermal_product(spec.h_a, spec.h_b, beta_b + gap, beta_b)
                assert classify_flow(state, spec, "A").direction == "A_from_B"


def test_negative_beta_flagged():
    h = ladder_spectrum(2, 2).h_a
    with pytest.warns(NegativeTemperatureWarning):
        thermal_product(h, h, -1.0, 1.0)


def test_passive_max_active_block_weights():
    # oracle: direct product weights, middle block carries {0.8*0.7, 0.2*0.3}
    spec = ladder_spectrum(2, 2)
    state = passive_max_active_product([0.8, 0.2], [0.3, 0.7], spec.h_a, spec.h_b)
    probs = decompose(state, spec).probs[spec.layout.span(spec.layout.index[Fraction(1)])]
    np.testing.assert_allclose(probs, [0.8 * 0.7, 0.2 * 0.3], atol=1e-15)


def test_ground_times_top_product():
    spec = ladder_spectrum(3, 3)
    state = passive_max_active_product(
        [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], spec.h_a, spec.h_b
    )
    assert classify_flow(state, spec, "A").direction == "A_from_B"


def test_passive_constructor_rejects_bad_inputs():
    spec = ladder_spectrum(2, 2)
    with pytest.raises(NotPassive):
        passive_max_active_product([0.2, 0.8], [0.3, 0.7], spec.h_a, spec.h_b)
    with pytest.raises(NotMaxActive):
        passive_max_active_product([0.8, 0.2], [0.7, 0.3], spec.h_a, spec.h_b)


# each step up is 9.9e-13, inside the 1e-12 slack; the three steps add up to 2.97e-12
CREEPING_UP = [0.249999999998515, 0.249999999999505, 0.250000000000495, 0.250000000001485]


def test_passive_constructor_slack_does_not_add_up_over_levels():
    spec = ladder_spectrum(4, 4)
    creeping_down = CREEPING_UP[::-1]
    with pytest.raises(NotPassive):
        passive_max_active_product(CREEPING_UP, creeping_down, spec.h_a, spec.h_b)
    with pytest.raises(NotMaxActive):
        passive_max_active_product(creeping_down, creeping_down, spec.h_a, spec.h_b)
    # the refused product is one classify_flow refuses too
    state = BipartiteState.diagonal(np.kron(CREEPING_UP, creeping_down), (4, 4), validate=False)
    assert classify_flow(state, spec, "A").direction == "none"
    # the mirror image, passive A times active B, is built and classified a member
    state = passive_max_active_product(creeping_down, CREEPING_UP, spec.h_a, spec.h_b)
    assert classify_flow(state, spec, "A").direction == "A_from_B"


def test_cross_coherent_member_classifies(rng):
    spec = ladder_spectrum(3, 2)
    state = cross_coherent_member(spec, rng)
    label = classify_flow(state, spec, "A")
    assert label.direction == "A_from_B"
    decomp = decompose(state, spec)
    assert any(e1 != e2 for e1, e2 in decomp.coh_blocks)


def test_members_never_lose_energy_sampled():
    for state, spec in one_way_members(seed=5, count=10):
        decomp = decompose(state, spec)
        batch = sample_haar_blocks(spec, 4, 1000)
        assert batch_transfers(decomp, batch, "A").total.min() >= -1e-12


def test_witness_extracts_energy_from_failing_block(rng):
    spec = ladder_spectrum(3, 2)
    # population-inverted on A within the E=1 block
    state = BipartiteState.diagonal([0.1, 0.05, 0.45, 0.1, 0.2, 0.1], (3, 2))
    label = classify_flow(state, spec, "A")
    assert label.direction == "none"
    assert label.failing_blocks
    assert label.witness is not None
    assert transfer_direct(state, label.witness, "A") < 0.0
    assert not is_potentially_coherent(label.witness)
    # the witness must act on exactly one block
    nontrivial = [
        i
        for i, mat in enumerate(label.witness.blocks)
        if not np.array_equal(mat, np.eye(mat.shape[0]))
    ]
    assert len(nontrivial) == 1
    assert nontrivial[0] in label.failing_blocks


def test_witness_works_with_coherences_present(rng):
    # coherences block membership, but the swap witness still drains the
    # target because permutations cannot touch the coherent part
    spec = ladder_spectrum(2, 2)
    mat = np.diag([0.2, 0.1, 0.45, 0.25]).astype(complex)
    mat[1, 2] = 0.1
    mat[2, 1] = 0.1
    state = BipartiteState(mat, (2, 2))
    label = classify_flow(state, spec, "A")
    assert label.witness is not None
    assert transfer_direct(state, label.witness, "A") < 0.0


# a rational spectrum whose 3/2 block holds four members, so nested swap pairs occur
RATIONAL_SPEC = build_joint_spectrum(
    Hamiltonian((0, Fraction(1, 3), Fraction(5, 6), Fraction(3, 2))),
    Hamiltonian((0, Fraction(2, 3), Fraction(7, 6), Fraction(3, 2))),
)


@pytest.mark.parametrize("target", ["A", "B"])
@pytest.mark.parametrize(
    "spec",
    [ladder_spectrum(*dims) for dims in DIMENSION_CLASSES] + [RATIONAL_SPEC],
    ids=[f"ladder{a}x{b}" for a, b in DIMENSION_CLASSES] + ["rational4x4"],
)
def test_witness_drains_the_largest_single_swap_gain(spec, target):
    rng = np.random.default_rng(3030)
    energies = spec.ordered_local_energies(target)
    witnessed = 0
    for k in range(30):
        state = random_state(spec.dims, rng, coherent=bool(k % 2))
        label = classify_flow(state, spec, target)
        if label.witness is None:
            assert not label.failing_blocks
            continue
        witnessed += 1
        probs = decompose(state, spec).probs
        # brute force over every member pair of every failing block
        largest = max(
            (probs[s][hi] - probs[s][lo]) * (energies[s][hi] - energies[s][lo])
            for s in map(spec.layout.span, label.failing_blocks)
            for lo in range(s.stop - s.start)
            for hi in range(s.stop - s.start)
        )
        (block,) = [
            i
            for i, mat in enumerate(label.witness.blocks)
            if not np.array_equal(mat, np.eye(mat.shape[0]))
        ]
        low, high = np.flatnonzero(np.diag(label.witness.blocks[block]) == 0)
        s = spec.layout.span(block)
        gain = (probs[s][high] - probs[s][low]) * (energies[s][high] - energies[s][low])
        assert block in label.failing_blocks
        assert gain == largest > 0
        assert transfer_direct(state, label.witness, target) == pytest.approx(-largest, abs=1e-12)
    assert witnessed


def test_gibbs_weights_shift_by_the_lowest_level():
    weights = gibbs_probabilities(Hamiltonian((1000, 1001)), 1.0)
    assert weights.tolist() == [0.7310585786300049, 0.2689414213699951]


def test_witness_takes_the_first_of_two_tied_swaps():
    """Two disjoint swaps in the E = 3 block of a 4x4 ladder drain exactly 0.0625 each.

    The block's members, in block order, are (0, 3), (1, 2), (2, 1), (3, 0); the
    witness swaps members 0 and 1, the first pair of the walk.
    """
    spec = ladder_spectrum(4, 4)
    block = spec.layout.index[Fraction(3)]
    probs = np.zeros(16)
    probs[0] = 0.5625  # E = 0, a single member, so every block but E = 3 is passive
    for (a, b), p in zip(spec.blocks[block].members, [0.125, 0.1875, 0.03125, 0.09375]):
        probs[4 * a + b] = p
    state = BipartiteState.diagonal(probs, (4, 4))
    label = classify_flow(state, spec, "A")
    assert label.failing_blocks == [block]
    swap = [[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    blocks = formats.sec_unitary_to_json(label.witness)["blocks"]
    assert blocks.pop("3") == {"re": swap, "im": [[0.0] * 4] * 4}
    for key, matrix in blocks.items():
        d = len(matrix["re"])
        assert matrix == {"re": np.eye(d).tolist(), "im": np.zeros((d, d)).tolist()}, key
    assert transfer_direct(state, label.witness, "A") == pytest.approx(-0.0625, abs=1e-15)
