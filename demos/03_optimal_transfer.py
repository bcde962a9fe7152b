#!/usr/bin/env python3
"""Optimizing the transfer, with and without coherence.

The best population-only strategy permutes each block's populations so the
largest sits at the target's highest level; that unitary cannot convert
coherence at all.  The full optimum instead diagonalizes each block
(populations plus same-energy coherences) and pairs the eigenvalues with the
levels, largest to highest.  Coherence can only help: the full optimum
dominates the dephased one, and Haar sampling approaches but never beats it.
"""

import numpy as np

from sec_transfer import (
    check_coherence_bound,
    decompose,
    maximize_transfer_exact,
    monte_carlo_max,
    optimal_diagonal_unitary,
    transfer_coherent,
    transfer_diagonal,
)
from sec_transfer.fixtures import ladder_spectrum, random_state

spec = ladder_spectrum(3, 2)
rng = np.random.default_rng(5)
state = random_state((3, 2), rng)
decomp = decompose(state, spec)

population_only = optimal_diagonal_unitary(decomp, spec, "A")
diag_value, per_block = transfer_diagonal(decomp, population_only, "A")
coh_value, _ = transfer_coherent(decomp, population_only, "A")
print("population-only optimum (block permutations):")
print(f"  diagonal transfer {diag_value:+.6f}, coherent part {coh_value:+.1e}")
for energy, contribution in zip(spec.energies, per_block):
    print(f"    block E={energy}: {contribution:+.6f}")
print()

exact = maximize_transfer_exact(state, spec, "A")
print(f"coherence-aware exact optimum: {exact.value:+.6f} ({exact.method})")

sampled = monte_carlo_max(state, spec, "A", n_samples=50_000, seed=11)
print(f"best of 50k Haar samples:      {sampled.value:+.6f}")
print(f"sampling deficit:              {exact.value - sampled.value:.2e}")
print()

lhs, rhs, holds = check_coherence_bound(state, spec, "A")
print("coherence bound: optimum with coherence >= optimum dephased")
print(f"  {lhs:+.6f} >= {rhs:+.6f}  ->  {holds}")
