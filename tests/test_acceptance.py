"""Acceptance suite: the property registry of ``sec_transfer.verify`` at full strength.

Each criterion runs one registry property at the release sizes, sample counts
and tolerances, and prints a single pass line on success (pytest -v -s shows
them).  The properties are seeded, so the whole module is deterministic.
"""

import pytest

from sec_transfer import verify

SEED = 987654


def _accept(number, check):
    result = check(SEED, verify.FULL)
    assert result.passed, result.detail
    print(f"[acceptance {number:02d}] {result.name}: PASS ({result.detail})")


def test_criterion_01_two_qubit_optimum_grid():
    _accept(1, verify.two_qubit_optimum_grid)


def test_criterion_02_transfer_vs_concurrence_line():
    _accept(2, verify.concurrence_line)


def test_criterion_03_transfer_split():
    _accept(3, verify.transfer_split)


def test_criterion_04_coherence_locality():
    _accept(4, verify.coherence_locality)


def test_criterion_05_diagonal_optimal_unitary():
    _accept(5, verify.diagonal_optimal_unitary)


def test_criterion_06_coherence_bound():
    _accept(6, verify.coherence_bound)


def test_criterion_07_one_way_flow_soundness():
    _accept(7, verify.one_way_flow)


def test_criterion_08_concurrence_consistency():
    _accept(8, verify.concurrence_consistency)


def test_criterion_09_plane_geometry():
    _accept(9, verify.plane_geometry)


def test_criterion_10_sampling_dominance():
    _accept(10, verify.sampling_dominance)


@pytest.mark.parametrize("check", verify.ALL_CHECKS[10:], ids=lambda check: check.body.__name__)
def test_registry_property_beyond_the_criteria(check):
    result = check(SEED, verify.FULL)
    assert result.passed, result.detail
