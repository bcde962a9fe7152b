"""Built-in fixtures: spectra, random states, and one-way-flow members.

Shared by the property registry (``sec-transfer verify`` and the acceptance
gate), the test suite, and the demo scripts.  Random objects are drawn from
seeded generators so every consumer sees the same instances.
"""

from __future__ import annotations

import numpy as np

from .classify import passive_max_active_product, thermal_product
from .spectra import Hamiltonian, JointSpectrum, build_joint_spectrum
from .states import BipartiteState, decompose
from .twoqubit import TwoQubitParams
from .unitaries import SecUnitary, sample_haar

DIMENSION_CLASSES = ((2, 2), (3, 2), (3, 3), (4, 4))


def ladder_hamiltonian(dim: int) -> Hamiltonian:
    """Equally spaced levels 0 .. dim-1; adjacent gaps all resonate."""
    return Hamiltonian(tuple(range(dim)))


def ladder_spectrum(dim_a: int, dim_b: int) -> JointSpectrum:
    return build_joint_spectrum(ladder_hamiltonian(dim_a), ladder_hamiltonian(dim_b))


def random_state(
    dims: tuple[int, int], rng: np.random.Generator, coherent: bool = True
) -> BipartiteState:
    """Full-rank random density matrix (normalized Gaussian square)."""
    d = dims[0] * dims[1]
    if coherent:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        mat = g @ g.conj().T
        mat /= mat.trace()
        return BipartiteState(mat, dims, validate=False)
    weights = rng.exponential(size=d)
    return BipartiteState.diagonal(weights / weights.sum(), dims)


def max_coherence_params(p01: float = 0.3, p10: float = 0.1) -> TwoQubitParams:
    """Two-qubit state saturating the coherence bound |alpha| = sqrt(p01*p10).

    The remaining population is split evenly between the outer levels.
    """
    rest = 0.5 * (1.0 - p01 - p10)
    return TwoQubitParams(
        p00=rest, p01=p01, p10=p10, p11=rest, alpha=np.sqrt(p01 * p10)
    )


def cross_coherent_member(
    spec: JointSpectrum, rng: np.random.Generator, beta_a: float = 2.0, beta_b: float = 1.0
) -> BipartiteState:
    """One-way-flow member whose only coherences connect different total energies.

    Starts from a colder-A thermal product (per-block passive for A) and adds
    a random Hermitian perturbation supported strictly between blocks, scaled
    to keep the state positive.  The diagonal is untouched, so per-block
    passivity survives, and cross-energy coherences cannot affect any
    transfer.
    """
    base = thermal_product(spec.h_a, spec.h_b, beta_a, beta_b)
    d = spec.total_dim
    noise = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    noise = 0.5 * (noise + noise.conj().T)
    block_of = np.empty(d, dtype=int)
    block_of[spec.layout.order] = spec.layout.block_of
    noise = np.where(block_of[:, None] != block_of[None, :], noise, 0.0)
    strength = np.abs(noise).sum(axis=1).max()  # Gershgorin bound on the spectrum
    if strength == 0.0:
        return base
    floor = float(base.populations().min())
    scale = 0.5 * floor / strength
    return BipartiteState(base.matrix + scale * noise, spec.dims)


def one_way_members(seed: int = 7, count: int = 50) -> list[tuple[BipartiteState, JointSpectrum]]:
    """A mixed family of one-way-flow members certified for target A.

    Thermal products with the A side colder, passive (A) times maximally
    active (B) products, and cross-coherent thermal states, spread over
    qubit and qutrit dimension pairs.
    """
    rng = np.random.default_rng(seed)
    specs = [ladder_spectrum(da, db) for da, db in ((2, 2), (3, 2), (2, 3), (3, 3))]
    members: list[tuple[BipartiteState, JointSpectrum]] = []
    index = 0
    while len(members) < count:
        spec = specs[index % len(specs)]
        kind = index % 5
        if kind in (0, 1):
            beta_b = rng.uniform(0.0, 1.0)
            beta_a = beta_b + rng.uniform(0.2, 2.0)
            members.append((thermal_product(spec.h_a, spec.h_b, beta_a, beta_b), spec))
        elif kind in (2, 3):
            pa = np.sort(rng.exponential(size=spec.h_a.dim))[::-1]
            pb = np.sort(rng.exponential(size=spec.h_b.dim))
            members.append(
                (
                    passive_max_active_product(
                        pa / pa.sum(), pb / pb.sum(), spec.h_a, spec.h_b
                    ),
                    spec,
                )
            )
        else:
            members.append((cross_coherent_member(spec, rng), spec))
        index += 1
    return members


def random_suite(
    seed: int, per_class: int
) -> list[tuple[BipartiteState, SecUnitary, JointSpectrum]]:
    """Random coherent states, each with its own Haar unitary, over the standard classes.

    States come from one generator seeded with ``seed``; the unitary of the
    i-th state in class k is drawn from ``seed + 1000 * k + i``.
    """
    rng = np.random.default_rng(seed)
    suite = []
    for class_index, dims in enumerate(DIMENSION_CLASSES):
        spec = ladder_spectrum(*dims)
        for i in range(per_class):
            state = random_state(dims, rng)
            suite.append((state, sample_haar(spec, seed + 1000 * class_index + i), spec))
    return suite


def zero_cross_coherences(state: BipartiteState, spec: JointSpectrum) -> BipartiteState:
    """Drop every coherence block connecting different total energies."""
    return decompose(state, spec).reassemble(True, False)


def zero_same_coherences(state: BipartiteState, spec: JointSpectrum) -> BipartiteState:
    """Drop every same-energy coherence block."""
    return decompose(state, spec).reassemble(False, True)
