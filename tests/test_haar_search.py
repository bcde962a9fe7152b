"""The chunked Haar-sample search of monte_carlo_max.

The search must return what a single unchunked pass over all samples
returns: the largest total, the earliest sample on ties, and that sample's
exact blocks, whatever the number of CPUs the process may run on, and it
must hold no more than one chunk of sampled matrices at a time.
"""

import os
import threading
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from sec_transfer import (
    decompose,
    monte_carlo_max,
    optimize,
    transfer_direct,
    unitaries,
)
from sec_transfer.fixtures import ladder_spectrum, random_state
from sec_transfer.transfer import batch_transfers
from sec_transfer.unitaries import SAMPLE_CHUNK, SecUnitary, sample_haar_blocks

COUNTS = [1, 300, SAMPLE_CHUNK, SAMPLE_CHUNK + 3]


def _one_pass(state, spec, n, seed):
    batch = sample_haar_blocks(spec, seed, n)
    return batch, batch_transfers(decompose(state, spec), batch, "A").total


@pytest.fixture(params=[{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
def threads(request, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: request.param, raising=False)


@pytest.mark.parametrize("n", COUNTS)
def test_monte_carlo_matches_one_pass(n, threads, rng):
    spec = ladder_spectrum(3, 2)
    state = random_state((3, 2), rng)
    batch, totals = _one_pass(state, spec, n, 7)
    best = int(np.argmax(totals))
    result = monte_carlo_max(state, spec, "A", n, seed=7)
    expected = SecUnitary([stack[best] for stack in batch], spec, validate=False)
    for i in range(len(spec.energies)):
        assert result.unitary.blocks[i].tobytes() == expected.blocks[i].tobytes()
    assert result.value == transfer_direct(state, expected, "A")


def test_monte_carlo_draws_nothing_after_the_search(rng, monkeypatch):
    spec = ladder_spectrum(2, 2)
    state = random_state((2, 2), rng)
    drawn = []

    def counting(spec, seed, count, start=0, pool=None):
        drawn.append((start, count))
        return sample_haar_blocks(spec, seed, count, start=start, pool=pool)

    monkeypatch.setattr(optimize, "sample_haar_blocks", counting)
    monte_carlo_max(state, spec, "A", SAMPLE_CHUNK + 10, seed=3)
    assert drawn == [(0, SAMPLE_CHUNK), (SAMPLE_CHUNK, 10)]


def test_result_bytes_do_not_depend_on_the_cpu_count(rng, monkeypatch):
    import concurrent.futures

    spec = ladder_spectrum(3, 2)
    state = random_state((3, 2), rng)
    pools = []

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    results = []
    for cpus in ({0}, {0, 1}, {0, 1, 2}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        result = monte_carlo_max(state, spec, "A", 2 * SAMPLE_CHUNK, seed=4)
        results.append([result.value.hex()] + [b.tobytes() for b in result.unitary.blocks])
    # one worker per block, up to the CPUs; none on one CPU
    assert pools == [2, 3]
    assert results[0] == results[1] == results[2]
    # without sched_getaffinity the search runs in this thread
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    result = monte_carlo_max(state, spec, "A", 2 * SAMPLE_CHUNK, seed=4)
    assert pools == [2, 3]
    assert [result.value.hex()] + [b.tobytes() for b in result.unitary.blocks] == results[0]


@pytest.mark.parametrize("cpus", [{0}, {0, 1, 2, 3}], ids=["one-cpu", "four-cpus"])
def test_block_matrices_in_flight_stay_one_chunk(cpus, rng, monkeypatch):
    # every sampled block matrix is counted from its draw until it is freed
    spec = ladder_spectrum(3, 3)
    state = random_state((3, 3), rng)
    lock = threading.Lock()
    live, peak = [0], [0]
    draw = unitaries._haar_slice

    def release(n):
        with lock:
            live[0] -= n

    def counted(*args):
        out = draw(*args)
        with lock:
            live[0] += len(out)
            peak[0] = max(peak[0], live[0])
        weakref.finalize(out, release, len(out))
        return out

    monkeypatch.setattr(unitaries, "_haar_slice", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monte_carlo_max(state, spec, "A", 3 * SAMPLE_CHUNK, seed=6)
    assert peak[0] == len(spec.blocks) * SAMPLE_CHUNK
    assert live[0] == 0


def test_search_memory_does_not_grow_with_the_chunk_count(rng, monkeypatch):
    # one-sample chunks, so a short search spans a hundred of them; the draws
    # stay keyed by unitaries.SAMPLE_CHUNK, so the winner is the same sample
    spec = ladder_spectrum(10, 10)
    state = random_state((10, 10), rng)
    whole = monte_carlo_max(state, spec, "A", 100, seed=2)
    monkeypatch.setattr(optimize, "SAMPLE_CHUNK", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

    def peak(n_samples):
        tracemalloc.start()
        try:
            result = monte_carlo_max(state, spec, "A", n_samples, seed=2)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    _, few = peak(10)
    result, many = peak(100)
    assert [b.tobytes() for b in result.unitary.blocks] == [
        b.tobytes() for b in whole.unitary.blocks
    ]
    # keeping every chunk's winner would hold 100 copies of these blocks
    winner = sum(block.nbytes for block in result.unitary.blocks)
    assert many - few < 10 * winner


@pytest.mark.parametrize("start,count", [(0, 1), (0, SAMPLE_CHUNK), (255, 2), (300, 600),
                                         (SAMPLE_CHUNK - 1, 258), (1000, 2 * SAMPLE_CHUNK)])
def test_haar_slice_is_one_draw_of_each_chunk_bit_for_bit(start, count):
    # the stream read DRAW_BATCH samples at a time gives the matrices of one
    # draw of the chunk's prefix, orthonormalized all at once
    energy, dim = Fraction(5, 3), 3
    expected = []
    for chunk in range(start // SAMPLE_CHUNK, (start + count - 1) // SAMPLE_CHUNK + 1):
        base = chunk * SAMPLE_CHUNK
        hi = min(start + count, base + SAMPLE_CHUNK) - base
        z = unitaries._chunk_generator(8, chunk, energy).standard_normal((hi, dim, dim, 2))
        q, r = np.linalg.qr((z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0))
        diag = np.einsum("nii->ni", r)
        expected.append((q * (diag / np.abs(diag))[:, None, :])[max(start, base) - base :])
    got = unitaries._haar_slice(8, energy, dim, start, count)
    assert got.tobytes() == np.concatenate(expected).tobytes()
