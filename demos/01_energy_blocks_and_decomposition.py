#!/usr/bin/env python3
"""Energy blocks and the exact state decomposition.

Two systems with nondegenerate spectra split the joint product basis into
blocks of fixed total energy.  Inside one block the A level determines the B
level, so every per-block object is indexed by a single member list.  A
density matrix then decomposes exactly into per-block populations plus
coherence blocks, one per pair of blocks (i, j) they connect; only the
same-energy blocks (i, i) can ever matter for average energy transfer.
"""

import numpy as np

from sec_transfer import (
    BipartiteState,
    Hamiltonian,
    build_joint_spectrum,
    decompose,
)

qutrit = Hamiltonian((0, 1, 2))
qubit = Hamiltonian((0, 1))
spec = build_joint_spectrum(qutrit, qubit)

print("qutrit (0,1,2) coupled to qubit (0,1)")
for block in spec.blocks:
    print(f"  total energy {block.energy}: members {block.members}")
block = spec.block(2)
print("  A-side energies of the E=2 block:", [qutrit.energies[a] for a, _ in block.members])
print("  B-side energies of the E=2 block:", [qubit.energies[b] for _, b in block.members])
print()

# a correlated pure state touching several blocks
amplitudes = np.zeros(6, dtype=complex)
amplitudes[[1, 2, 5]] = [0.6, 0.64, 0.48]  # |0,1>, |1,0>, |2,1>
state = BipartiteState.from_vector(amplitudes, (3, 2))
decomp = decompose(state, spec)

print("block probabilities of a three-component superposition:")
for i, energy in enumerate(spec.energies):
    p = decomp.probs[spec.layout.span(i)].sum()
    print(f"  p(E={energy}) = {p:.4f}")
print("coherence blocks present (E, E'):")
# pairs of block indices, in block order, which is increasing total energy
for i, j in decomp.coh_blocks.tolist():
    peak = np.abs(decomp.coherence_block(i, j)).max()
    print(f"  ({spec.energies[i]}, {spec.energies[j]}) with largest entry {peak:.4f}")
print()

# the split is lossless
rebuilt = decomp.reassemble()
print("reassembly error:", np.abs(rebuilt.matrix - state.matrix).max())
