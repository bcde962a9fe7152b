#!/usr/bin/env python3
"""States whose energy can flow only one way.

If every block's A-side populations are passive (non-increasing with energy)
and no same-energy coherence exists, then no energy-conserving unitary can
pull energy out of A, and every other state can be drained.  The exact
minimum transfer to A over all such unitaries decides it: zero for members,
negative otherwise.  Thermal products with A colder sit in this class, as do
products of a passive A state with a population-inverted B state.  When a
block fails passivity, a two-level swap on that block alone is a witness
that drains A.
"""

from sec_transfer import (
    BipartiteState,
    classify_flow,
    thermal_product,
    passive_max_active_product,
    transfer_direct,
)
from sec_transfer.fixtures import ladder_spectrum

spec = ladder_spectrum(3, 3)

cold_hot = thermal_product(spec.h_a, spec.h_b, beta_a=2.0, beta_b=0.7)
label = classify_flow(cold_hot, spec, "A")
print("thermal product, A colder than B:")
print(f"  certified direction: {label.direction}")
print(f"  least transfer to A over all SEC unitaries: {label.min_transfer:+.2e}")
print()

qubits = ladder_spectrum(2, 2)
inverted = passive_max_active_product([0.8, 0.2], [0.3, 0.7], qubits.h_a, qubits.h_b)
print("passive A state against population-inverted B state:")
print(f"  target A: {classify_flow(inverted, qubits, 'A').direction}")
print(f"  target B: {classify_flow(inverted, qubits, 'B').direction}")
print()

# a state with an inverted middle block: not a member, witness produced
bad = BipartiteState.diagonal([0.2, 0.1, 0.45, 0.25], (2, 2))
label = classify_flow(bad, qubits, "A")
print("population-inverted middle block:")
failing = [qubits.energies[i] for i in label.failing_blocks]
print(f"  direction: {label.direction}, failing blocks: {failing}")
print(f"  least transfer to A over all SEC unitaries: {label.min_transfer:+.6f}")
drained = transfer_direct(bad, label.witness, "A")
print(f"  witness swap drains A by {drained:+.6f}")
