"""The chunked Haar-sample search of monte_carlo_max.

The search must return what a single unchunked pass over all samples
returns: the largest total, the earliest sample on ties, and that sample's
exact blocks, whatever the thread count.
"""

import numpy as np
import pytest

from sec_transfer import (
    decompose,
    monte_carlo_max,
    optimize,
    transfer_direct,
)
from sec_transfer.fixtures import ladder_spectrum, random_state
from sec_transfer.transfer import batch_transfers
from sec_transfer.unitaries import SAMPLE_CHUNK, SecUnitary, sample_haar_blocks

COUNTS = [1, 300, SAMPLE_CHUNK, SAMPLE_CHUNK + 3]


def _one_pass(state, spec, n, seed):
    batch = sample_haar_blocks(spec, seed, n)
    return batch, batch_transfers(decompose(state, spec), batch, "A").total


@pytest.fixture(params=[None, "2"], ids=["threads-unset", "threads-2"])
def threads(request, monkeypatch):
    if request.param is None:
        monkeypatch.delenv("SEC_TRANSFER_THREADS", raising=False)
    else:
        monkeypatch.setenv("SEC_TRANSFER_THREADS", request.param)


@pytest.mark.parametrize("n", COUNTS)
def test_monte_carlo_matches_one_pass(n, threads, rng):
    spec = ladder_spectrum(3, 2)
    state = random_state((3, 2), rng)
    batch, totals = _one_pass(state, spec, n, 7)
    best = int(np.argmax(totals))
    result = monte_carlo_max(state, spec, "A", n, seed=7)
    expected = SecUnitary({e: stack[best] for e, stack in batch.items()}, spec, validate=False)
    for energy in spec.energies:
        assert result.unitary.blocks[energy].tobytes() == expected.blocks[energy].tobytes()
    assert result.value == transfer_direct(state, expected, "A")


def test_monte_carlo_draws_nothing_after_the_search(rng, monkeypatch):
    spec = ladder_spectrum(2, 2)
    state = random_state((2, 2), rng)
    drawn = []

    def counting(spec, seed, count, start=0):
        drawn.append((start, count))
        return sample_haar_blocks(spec, seed, count, start=start)

    monkeypatch.setattr(optimize, "sample_haar_blocks", counting)
    monte_carlo_max(state, spec, "A", SAMPLE_CHUNK + 10, seed=3)
    assert drawn == [(0, SAMPLE_CHUNK), (SAMPLE_CHUNK, 10)]


def test_an_empty_thread_variable_counts_as_unset(rng, monkeypatch):
    spec = ladder_spectrum(3, 2)
    state = random_state((3, 2), rng)
    n = SAMPLE_CHUNK + 3
    monkeypatch.delenv("SEC_TRANSFER_THREADS", raising=False)
    unset = monte_carlo_max(state, spec, "A", n, seed=4)
    monkeypatch.setenv("SEC_TRANSFER_THREADS", "")
    assert optimize.thread_count() == 1
    result = monte_carlo_max(state, spec, "A", n, seed=4)
    assert result.value == unset.value
    for energy in spec.energies:
        assert result.unitary.blocks[energy].tobytes() == unset.unitary.blocks[energy].tobytes()
