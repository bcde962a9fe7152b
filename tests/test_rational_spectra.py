"""Cross-module checks on spectra with non-integer rational energies.

Half-integer ladders exercise the exact-rational block keys end to end:
partitioning, transfer splitting, optimization, classification, and the
"p/q" keys of the JSON wire formats.
"""

from fractions import Fraction

import numpy as np
import pytest

from sec_transfer import (
    Hamiltonian,
    analyze,
    build_joint_spectrum,
    classify_flow,
    decompose,
    maximize_transfer_exact,
    monte_carlo_max,
    sample_haar,
    thermal_product,
    transfer_direct,
)
from sec_transfer import formats
from sec_transfer.fixtures import random_state


@pytest.fixture
def half_integer_spec():
    h_a = Hamiltonian((0, Fraction(1, 2), 1))
    h_b = Hamiltonian((0, Fraction(1, 2)))
    return build_joint_spectrum(h_a, h_b)


def test_half_integer_partition(half_integer_spec):
    blocks = {b.energy: b.members for b in half_integer_spec.blocks}
    assert blocks == {
        Fraction(0): ((0, 0),),
        Fraction(1, 2): ((0, 1), (1, 0)),
        Fraction(1): ((1, 1), (2, 0)),
        Fraction(3, 2): ((2, 1),),
    }


def test_half_integer_transfer_split(half_integer_spec, rng):
    state = random_state((3, 2), rng)
    for seed in range(10):
        u = sample_haar(half_integer_spec, seed)
        report = analyze(state, u, "A")
        assert abs(report.total - report.diagonal - report.coherent) <= 1e-12
        assert Fraction(1, 2) in half_integer_spec.layout.index
        assert report.per_block_diagonal.shape == (len(half_integer_spec.energies),)
        mirrored = analyze(state, u, "B")
        assert abs(report.total + mirrored.total) <= 1e-12


def test_half_integer_optimum_dominates_sampling(half_integer_spec, rng):
    state = random_state((3, 2), rng)
    exact = maximize_transfer_exact(state, half_integer_spec, "A")
    sampled = monte_carlo_max(state, half_integer_spec, "A", n_samples=5000, seed=3)
    assert sampled.value <= exact.value + 1e-10
    assert transfer_direct(state, exact.unitary, "A") == pytest.approx(
        exact.value, abs=1e-10
    )


def test_half_integer_thermal_classification(half_integer_spec):
    state = thermal_product(half_integer_spec.h_a, half_integer_spec.h_b, 3.0, 1.0)
    assert classify_flow(state, half_integer_spec, "A").direction == "A_from_B"


def test_fractional_keys_in_wire_formats(half_integer_spec, tmp_path):
    u = sample_haar(half_integer_spec, 5)
    payload = formats.sec_unitary_to_json(u)
    assert set(payload["blocks"]) == {"0", "1/2", "1", "3/2"}
    back = formats.sec_unitary_from_json(payload, half_integer_spec)
    for i in range(len(u.blocks)):
        np.testing.assert_array_equal(back.blocks[i], u.blocks[i])

    h_payload = formats.hamiltonian_to_json(half_integer_spec.h_a)
    assert h_payload["energies"] == [[0, 1], [1, 2], [1, 1]]
    assert formats.hamiltonian_from_json(h_payload) == half_integer_spec.h_a


def test_negative_energies_supported(rng):
    # spin-like spectra around zero: negative rational block keys everywhere
    h = Hamiltonian((Fraction(-1, 2), Fraction(1, 2)))
    spec = build_joint_spectrum(h, h)
    assert [b.energy for b in spec.blocks] == [Fraction(-1), Fraction(0), Fraction(1)]
    state = random_state((2, 2), rng)
    u = sample_haar(spec, 4)
    report = analyze(state, u, "A")
    assert abs(report.total - report.diagonal - report.coherent) <= 1e-12
    exact = maximize_transfer_exact(state, spec, "A")
    sampled = monte_carlo_max(state, spec, "A", n_samples=3000, seed=6)
    assert sampled.value <= exact.value + 1e-10
    payload = formats.sec_unitary_to_json(u)
    assert set(payload["blocks"]) == {"-1", "0", "1"}
    back = formats.sec_unitary_from_json(payload, spec)
    minus_one = spec.layout.index[Fraction(-1)]
    np.testing.assert_array_equal(back.blocks[minus_one], u.blocks[minus_one])


def test_shared_caches_are_read_only(half_integer_spec, rng):
    span = half_integer_spec.layout.span(half_integer_spec.layout.index[Fraction(1, 2)])
    with pytest.raises(ValueError):
        half_integer_spec.layout.order[span][0] = 9
    with pytest.raises(ValueError):
        half_integer_spec.ordered_local_energies("A")[span][0] = 9.0
    decomp = decompose(random_state((3, 2), rng), half_integer_spec)
    with pytest.raises(ValueError):
        decomp.probs[span][0] = 9.0


def test_fractional_keys_through_cli(half_integer_spec, tmp_path, rng):
    from sec_transfer.cli import main

    problem = tmp_path / "problem.json"
    formats.dump_json(
        {
            "h_a": formats.hamiltonian_to_json(half_integer_spec.h_a),
            "h_b": formats.hamiltonian_to_json(half_integer_spec.h_b),
            "state": formats.state_to_json(random_state((3, 2), rng)),
        },
        problem,
    )
    out = tmp_path / "report.json"
    assert (
        main(
            [
                "analyze",
                "--input",
                str(problem),
                "--target",
                "B",
                "--seed",
                "2",
                "--output",
                str(out),
            ]
        )
        == 0
    )
    import json

    payload = json.loads(out.read_text())
    assert set(payload["per_block_diagonal"]) == {"0", "1/2", "1", "3/2"}
    assert payload["total"] == pytest.approx(
        payload["diagonal"] + payload["coherent"], abs=1e-12
    )
