#!/usr/bin/env python3
"""Two resonant qubits: closed forms and the anomalous heat flow.

For two resonant qubits the whole problem reduces to one 2x2 block: the
transfer is (p01 - p10) r^2 + 2 Re(alpha e^{i phi}) r sqrt(1 - r^2).  Its
optimum over the unitary and the admissible coherence is simply p01 (target
A), reached at maximum coherence and mixing r^2 = p01/(p01 + p10).

Locally thermal qubits have no diagonal route against the temperature
gradient: the population part only moves heat hot -> cold.  Enough useful
coherence reverses the arrow, pushing energy into the hotter qubit.
"""

import numpy as np

from sec_transfer import (
    SecParams2Q,
    TwoQubitParams,
    delta_coh_2q,
    delta_diag_2q,
    gibbs_probabilities,
    max_transfer_2q,
    transfer_direct,
    two_qubit_spectrum,
)

spec = two_qubit_spectrum()

params = TwoQubitParams(0.35, 0.3, 0.1, 0.25, alpha=np.sqrt(0.03))
print("populations p01=0.3, p10=0.1, coherence at its ceiling:")
optimum = max_transfer_2q(params, "A")
print(f"  optimal transfer to A: {optimum.value:.3f}")
print(f"  at mixing r^2 = {optimum.r_star**2:.3f}, phase {optimum.phi_star:.1f}")
incoherent = max_transfer_2q(
    TwoQubitParams(0.35, 0.3, 0.1, 0.25), "A", optimize_alpha=False
)
print(f"  best without coherence: {incoherent.value:.3f} (full swap)")
print()

# locally thermal qubits, A hotter, quantum-correlated
beta_hot, beta_cold = 0.5, 1.5
pa = gibbs_probabilities(spec.h_a, beta_hot)
pb = gibbs_probabilities(spec.h_b, beta_cold)
joint = np.outer(pa, pb).ravel()
amax = np.sqrt(joint[1] * joint[2])
correlated = TwoQubitParams(joint[0], joint[1], joint[2], joint[3], alpha=amax)
print(f"locally thermal qubits (A hot, beta={beta_hot}; B cold, beta={beta_cold}):")
print(f"  p01 = {joint[1]:.4f} < p10 = {joint[2]:.4f}: no diagonal route into A")
best = max_transfer_2q(correlated, "A", optimize_alpha=False)
print(f"  with coherence {amax:.4f}: max transfer INTO the hot qubit {best.value:+.4f}")
u = SecParams2Q(r=best.r_star, phi=best.phi_star).to_sec_unitary(spec)
print(f"  dense evolution agrees: {transfer_direct(correlated.to_state(), u, 'A'):+.4f}")
print()

r = 1 / np.sqrt(2)
print("closed forms at r = 1/sqrt(2), aligned phase:")
print(f"  diagonal part {delta_diag_2q(correlated, r):+.4f}")
print(f"  coherent part {delta_coh_2q(correlated, r, best.phi_star):+.4f}")
