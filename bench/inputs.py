"""Seeded input generator for the benchmark.

Builds every file the CLI jobs read, from numpy and ``fractions`` alone:
ladder and incommensurate-rational problem files with dense coherent
states, bare (state-less) problem files for the constructor-driven
``classify`` runs, and two-qubit parameter files.  Each generated problem
also keeps its exact energies and state matrix in memory, so the checker
can compute expected values without reading the files back or calling the
program.

The same seed always gives the same files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

# distinct primes give every level of an incommensurate spectrum its own
# denominator, so two pair sums can only coincide where a tie is built in
PRIMES = [
    p
    for p in range(211, 2000)
    if all(p % q for q in range(2, int(p**0.5) + 1))
]


@dataclass
class Problem:
    """One generated problem: exact spectra, the state, and its file."""

    name: str
    energies_a: list[Fraction]
    energies_b: list[Fraction]
    rho: np.ndarray | None
    path: Path

    @property
    def dims(self) -> tuple[int, int]:
        return (len(self.energies_a), len(self.energies_b))


@dataclass
class TwoQubitInput:
    p00: float
    p01: float
    p10: float
    p11: float
    alpha: complex
    path: Path


def ladder_energies(d: int) -> list[Fraction]:
    return [Fraction(k) for k in range(d)]


def rational_energies(d: int, ties: int, rng: np.random.Generator) -> tuple[list, list]:
    """Two incommensurate spectra of ``d`` levels with ``ties`` built-in ties.

    Every level is ``k + u/p`` with its own prime ``p``, so all pair sums
    differ.  Each tie then moves one B level to ``y_j + (x_i - x_k)``, which
    makes ``x_k + y_new == x_i + y_j`` and merges two members into one block.
    """
    primes = rng.choice(PRIMES, size=2 * d, replace=False)
    xs = [k + Fraction(int(rng.integers(1, p)), int(p)) for k, p in enumerate(primes[:d])]
    ys = [k + Fraction(int(rng.integers(1, p)), int(p)) for k, p in enumerate(primes[d:])]
    placed = 0
    while placed < ties:
        i, k = sorted(rng.choice(d, size=2, replace=False))[::-1]
        j, moved = (int(v) for v in rng.choice(d, size=2, replace=False))
        candidate = ys[j] + xs[i] - xs[k]
        if candidate in ys or candidate < 0:
            continue
        ys[moved] = candidate
        placed += 1
    return sorted(xs), sorted(ys)


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix with coherence everywhere.

    Symmetrised so the stored matrix is Hermitian bit for bit.
    """
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.real(np.trace(rho))


def _hamiltonian_json(energies: list[Fraction]) -> dict:
    return {"energies": [[e.numerator, e.denominator] for e in energies]}


def write_problem(
    directory: Path,
    name: str,
    energies_a: list[Fraction],
    energies_b: list[Fraction],
    rho: np.ndarray | None,
) -> Problem:
    payload = {"h_a": _hamiltonian_json(energies_a), "h_b": _hamiltonian_json(energies_b)}
    if rho is not None:
        payload["state"] = {
            "dims": [len(energies_a), len(energies_b)],
            "re": rho.real.tolist(),
            "im": rho.imag.tolist(),
        }
    path = directory / f"{name}.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return Problem(name, list(energies_a), list(energies_b), rho, path)


def ladder_problem(directory: Path, d: int, rng: np.random.Generator, bare: bool = False):
    rho = None if bare else random_state(d * d, rng)
    name = f"ladder{d}" + ("-bare" if bare else "")
    return write_problem(directory, name, ladder_energies(d), ladder_energies(d), rho)


def rational_problem(
    directory: Path, d: int, ties: int, rng: np.random.Generator, bare: bool = False
):
    xs, ys = rational_energies(d, ties, rng)
    rho = None if bare else random_state(d * d, rng)
    name = f"rational{d}t{ties}" + ("-bare" if bare else "")
    return write_problem(directory, name, xs, ys, rho)


def two_qubit_input(directory: Path, index: int, rng: np.random.Generator) -> TwoQubitInput:
    """Random populations with a coherence strictly inside its disc."""
    p00, p01, p10, p11 = (float(p) for p in rng.dirichlet(np.ones(4)))
    strength = float(rng.uniform(0.05, 0.95)) * np.sqrt(p01 * p10)
    alpha = complex(strength * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
    path = directory / f"qubit{index:03d}.json"
    payload = {
        "p00": p00,
        "p01": p01,
        "p10": p10,
        "p11": p11,
        "alpha_re": alpha.real,
        "alpha_im": alpha.imag,
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return TwoQubitInput(p00, p01, p10, p11, alpha, path)


def thermal_betas(rng: np.random.Generator) -> tuple[float, float]:
    """Inverse temperatures with A strictly colder than B."""
    beta_b = float(rng.uniform(0.05, 0.5))
    return beta_b + float(rng.uniform(0.1, 1.0)), beta_b


def passive_and_max_active(d_a: int, d_b: int, rng: np.random.Generator):
    """A passive A distribution and a maximally active B distribution."""
    pa = np.sort(rng.dirichlet(np.ones(d_a)))[::-1]
    pb = np.sort(rng.dirichlet(np.ones(d_b)))
    return [float(p) for p in pa], [float(p) for p in pb]
