#!/usr/bin/env python3
"""Bell-diagonal geometry: transfer, concurrence, and separable advantage.

Bell-diagonal states with a real coherence between |01> and |10> form a
plane c_x = c_y in the correlation coordinates.  There the optimal transfer
is c_x / 2 and the concurrence is max(0, c_x - (1 + c_z)/2), so constant-
concurrence lines are parallel and the transfer grows along them.  Some
separable states (zero concurrence) still beat every classically correlated
state, whose transfer is exactly zero.
"""

import numpy as np

from sec_transfer import (
    bell_diagonal_state,
    BellDiagParams,
    concurrence_bell_diagonal,
    concurrence_wootters,
    maximize_transfer_exact,
    plane_scan,
    plane_scan_gradient,
    two_qubit_spectrum,
)
from sec_transfer.formats import write_plane_scan_csv

spec = two_qubit_spectrum()

print("along the maximum-coherence edge, transfer = (1 + C)/4:")
for concurrence in (0.0, 0.5, 1.0):
    p01 = 0.25 * (1 + concurrence)
    state = bell_diagonal_state(BellDiagParams(2 * p01, 2 * p01, 1 - 4 * p01))
    exact = maximize_transfer_exact(state, spec, "A").value
    print(
        f"  C = {concurrence:.1f}: closed form {0.25 * (1 + concurrence):.3f},"
        f" block optimizer {exact:.3f},"
        f" spin-flip concurrence {concurrence_wootters(state):.3f}"
    )
print()

sep = BellDiagParams(0.3, 0.3, 0.0)
print("a separable point with nonzero transfer:")
print(f"  concurrence {concurrence_bell_diagonal(sep):.1f}, transfer {sep.c_x / 2:.2f}")
print()

scan = plane_scan(51)
grads = plane_scan_gradient(scan)["gradients"]
norms = np.linalg.norm(grads, axis=1)
print(f"scan of {len(scan)} grid points:")
print(f"  gradient direction (should be (1,1,0)/sqrt2): {grads[0] / norms[0]}")
print(f"  gradient magnitude {norms[0]:.6f} = 1/sqrt(2) = {1/np.sqrt(2):.6f}")
winners = scan.separable & (scan.max_transfer > 0.05)
print(f"  separable grid points with transfer > 0.05: {int(winners.sum())}")

write_plane_scan_csv(scan, "bell_plane_scan.csv")
print("  full table written to bell_plane_scan.csv")
