"""Independent checks of CLI outputs, with numpy and the standard library only.

Nothing here imports ``sec_transfer``.  Expected values come from the
benchmark's own computations on the inputs it generated (block sums,
per-block eigenvalues, rearrangements, dense evolution, its own Haar
samples, grid counts and brute-force grids) or from properties every
correct output must have.  No check compares against a stored copy of an
earlier output.  Each check raises :class:`CheckError` on the first
violation it finds.
"""

from __future__ import annotations

import io
import json
import math
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import numpy as np

# float comparisons between two computations of the same O(1) quantity
VALUE_TOL = 1e-9
# the transfer split is documented to hold to 1e-12
SPLIT_TOL = 1e-12
UNITARY_TOL = 1e-10
OWN_SAMPLES = 8
SCAN_HEADER = "c_x,c_y,c_z,max_transfer,concurrence,separable"


class CheckError(Exception):
    """An output that violates an expected value or a required property."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _load(path: Path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckError(f"{path}: unreadable report ({exc})") from None


def _key(energy: Fraction) -> str:
    return str(energy)


class Expectation:
    """Expected quantities for one generated problem, computed on demand."""

    def __init__(self, energies_a, energies_b, rho: np.ndarray | None, seed: int):
        self.energies_a = [Fraction(e) for e in energies_a]
        self.energies_b = [Fraction(e) for e in energies_b]
        self.rho = rho
        self.seed = seed
        d_b = len(self.energies_b)
        groups: dict[Fraction, list[int]] = {}
        for a, ea in enumerate(self.energies_a):
            for b, eb in enumerate(self.energies_b):
                groups.setdefault(ea + eb, []).append(a * d_b + b)
        # members in increasing A index, the documented block member order
        self.blocks = [(e, np.array(groups[e])) for e in sorted(groups)]
        self.flat_energy = {
            "A": np.repeat([float(e) for e in self.energies_a], d_b),
            "B": np.tile([float(e) for e in self.energies_b], len(self.energies_a)),
        }

    @property
    def dim(self) -> int:
        return len(self.energies_a) * len(self.energies_b)

    @cached_property
    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.rho))

    def _restricted(self, idx: np.ndarray) -> np.ndarray:
        return self.rho[np.ix_(idx, idx)]

    def optimum(self, target: str) -> float:
        """Largest transfer: block eigenvalues paired with target levels, high to high."""
        return self._optimum(target, coherent=True)

    def diagonal_optimum(self, target: str) -> float:
        """Largest transfer from populations alone: the block rearrangement."""
        return self._optimum(target, coherent=False)

    def _optimum(self, target: str, coherent: bool) -> float:
        energies = self.flat_energy[target]
        pops = self.populations
        value = 0.0
        for _, idx in self.blocks:
            if coherent:
                weights = np.linalg.eigvalsh(self._restricted(idx))
            else:
                weights = pops[idx]
            value += float(np.sort(weights) @ np.sort(energies[idx]))
            value -= float(energies[idx] @ pops[idx])
        return value

    @cached_property
    def own_samples(self) -> list[dict]:
        """Haar-random block unitaries drawn with the benchmark's own generator."""
        rng = np.random.default_rng([self.seed, 0x5EC])
        samples = []
        for _ in range(OWN_SAMPLES):
            blocks = {}
            for energy, idx in self.blocks:
                n = len(idx)
                z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                q, r = np.linalg.qr(z)
                blocks[energy] = q * (np.diag(r) / np.abs(np.diag(r)))
            samples.append(blocks)
        return samples

    def blockwise_transfer(self, unitary: dict, target: str) -> float:
        """Energy gain of the target under a block unitary, block by block."""
        energies = self.flat_energy[target]
        gain = 0.0
        for energy, idx in self.blocks:
            u = unitary[energy]
            after = np.real(np.einsum("ij,jk,ik->i", u, self._restricted(idx), u.conj()))
            gain += float(energies[idx] @ (after - self.populations[idx]))
        return gain

    def dense_transfer(self, unitary: dict, target: str) -> float:
        """Energy gain of the target under dense evolution ``U rho U^dagger``."""
        full = np.zeros((self.dim, self.dim), dtype=complex)
        for energy, idx in self.blocks:
            full[np.ix_(idx, idx)] = unitary[energy]
        after = np.real(np.einsum("ij,ij->i", full @ self.rho, full.conj()))
        return float(self.flat_energy[target] @ (after - self.populations))

    @cached_property
    def coherence_pairs(self) -> set[str]:
        """Block pairs whose coherence block holds an entry above 1e-15."""
        block_of = np.empty(self.dim, dtype=np.int64)
        for number, (_, idx) in enumerate(self.blocks):
            block_of[idx] = number
        mags = np.abs(self.rho)
        np.fill_diagonal(mags, 0.0)
        rows, cols = np.nonzero(mags >= 1e-15)
        count = len(self.blocks)
        codes = np.unique(block_of[rows] * count + block_of[cols])
        energies = [e for e, _ in self.blocks]
        return {f"{_key(energies[c // count])}|{_key(energies[c % count])}" for c in codes}


def _unitary_blocks(exp: Expectation, payload: dict) -> dict:
    """Parse a block-unitary report and check it is block-unitary."""
    raw = payload.get("blocks")
    _require(isinstance(raw, dict), "unitary report has no blocks map")
    expected = {_key(e): (e, len(idx)) for e, idx in exp.blocks}
    _require(set(raw) == set(expected), "unitary block energies differ from the spectrum")
    blocks = {}
    for key, part in raw.items():
        energy, n = expected[key]
        mat = np.array(part["re"], dtype=float) + 1j * np.array(part["im"], dtype=float)
        _require(mat.shape == (n, n), f"unitary block {key} has shape {mat.shape}, not {(n, n)}")
        defect = float(np.abs(mat.conj().T @ mat - np.eye(n)).max())
        _require(defect <= UNITARY_TOL, f"unitary block {key} off by {defect:.2e}")
        blocks[energy] = mat
    return blocks


def _close(got: float, want: float, tol: float, what: str) -> None:
    _require(
        isinstance(got, (int, float)) and abs(got - want) <= tol,
        f"{what}: got {got!r}, expected {want!r} (tolerance {tol:g})",
    )


def check_decompose(exp: Expectation, path: Path) -> None:
    """Block populations equal the benchmark's own block sums."""
    report = _load(path)
    pops = exp.populations
    want = {_key(e): idx for e, idx in exp.blocks}
    _require(set(report["p_E"]) == set(want), "decompose block energies differ")
    _require(set(report["blocks"]) == set(want), "decompose population blocks differ")
    for key, idx in want.items():
        _close(report["p_E"][key], float(pops[idx].sum()), SPLIT_TOL, f"p_E[{key}]")
        probs = np.array(report["blocks"][key], dtype=float)
        _require(probs.shape == idx.shape, f"block {key} has {probs.size} populations")
        _require(
            bool(np.all(np.abs(probs - pops[idx]) <= 1e-15)),
            f"block {key} populations differ from the state's diagonal",
        )
    _close(sum(report["p_E"].values()), 1.0, SPLIT_TOL, "sum of p_E")
    _require(
        set(report["coherence_blocks"]) == exp.coherence_pairs,
        "listed coherence blocks differ from the nonzero block pairs of the state",
    )


def _check_split(report: dict, what: str) -> None:
    residual = abs(report["total"] - report["diagonal"] - report["coherent"])
    _require(residual <= SPLIT_TOL, f"{what}: total != diagonal + coherent ({residual:.2e})")


def check_analyze(exp: Expectation, path: Path, target: str) -> None:
    """Split holds and the total lies between the two optima."""
    report = _load(path)
    _require(report["target"] == target, "analyze report names another target")
    _check_split(report, "analyze")
    _close(sum(report["per_block_diagonal"].values()), report["diagonal"], SPLIT_TOL,
           "analyze per-block diagonal sum")
    target_levels = exp.energies_a if target == "A" else exp.energies_b
    eta_energy = sum(v * float(target_levels[int(k)]) for k, v in report["eta"].items())
    _close(eta_energy, report["coherent"], SPLIT_TOL, "analyze sum_k eta_k e_k")
    other = "B" if target == "A" else "A"
    _require(
        -exp.optimum(other) - VALUE_TOL <= report["total"] <= exp.optimum(target) + VALUE_TOL,
        f"analyze total {report['total']!r} outside [-max to {other}, max to {target}]",
    )


def check_optimize_exact(exp: Expectation, path: Path, target: str) -> None:
    """The exact optimum: block-unitary, reproduced densely, dominant."""
    report = _load(path)
    value = report["value"]
    _require(report["method"] == "block_eigen_exact", f"method is {report['method']!r}")
    blocks = _unitary_blocks(exp, report["unitary"])
    _close(exp.dense_transfer(blocks, target), value, VALUE_TOL, "dense evolution of the optimum")
    _close(value, exp.optimum(target), VALUE_TOL, "exact optimum vs block eigenvalues")
    _require(value >= exp.diagonal_optimum(target) - VALUE_TOL, "optimum below the diagonal optimum")
    for sample in exp.own_samples:
        sampled = exp.blockwise_transfer(sample, target)
        _require(value >= sampled - VALUE_TOL, f"optimum {value!r} below a sampled {sampled!r}")


def check_optimize_diagonal(exp: Expectation, path: Path, target: str) -> None:
    """The population optimum: a block permutation reaching the rearrangement."""
    report = _load(path)
    value = report["value"]
    _require(report["method"] == "diagonal_exact", f"method is {report['method']!r}")
    blocks = _unitary_blocks(exp, report["unitary"])
    for energy, mat in blocks.items():
        _require(
            bool(np.all((mat == 0) | (mat == 1))), f"diagonal optimum block {energy} is no permutation"
        )
    _close(exp.dense_transfer(blocks, target), value, VALUE_TOL, "dense evolution of the permutation")
    _close(value, exp.diagonal_optimum(target), VALUE_TOL, "diagonal optimum vs rearrangement")
    _require(value <= exp.optimum(target) + VALUE_TOL, "diagonal optimum above the exact optimum")


def check_monte_carlo(exp: Expectation, path: Path, target: str, samples: int) -> None:
    """A sampled maximum never beats the exact optimum and is reproducible."""
    report = _load(path)
    value = report["value"]
    _require(report["method"] == "monte_carlo", f"method is {report['method']!r}")
    _require(report["samples"] == samples, f"report counts {report['samples']} samples")
    blocks = _unitary_blocks(exp, report["unitary"])
    _close(exp.dense_transfer(blocks, target), value, VALUE_TOL, "dense evolution of the best sample")
    _require(value <= exp.optimum(target) + VALUE_TOL,
             f"sampled {value!r} exceeds the exact optimum {exp.optimum(target)!r}")


def check_zero_optimum(path: Path) -> None:
    """With singleton blocks only, no energy-conserving unitary moves energy."""
    value = _load(path)["value"]
    _require(abs(value) <= SPLIT_TOL, f"all-singleton optimum is {value!r}, not 0")


def check_classify(path: Path, direction: str) -> None:
    """A certified one-way member: no failing block, no useful coherence."""
    report = _load(path)
    _require(report["direction"] == direction, f"direction {report['direction']!r}, not {direction!r}")
    _require(report["failing_blocks"] == [], "certified member lists failing blocks")
    _require(report["has_useful_coherence"] is False, "product state reported with coherence")
    _require(report["witness"] is None, "certified member carries a witness")


def check_identical(first: Path, second: Path) -> None:
    _require(
        Path(first).read_bytes() == Path(second).read_bytes(),
        f"{first.name} and {second.name} differ (same configuration, other thread count)",
    )


def scan_grid_points(resolution: int) -> int:
    """Grid points with c_z <= 1 - 2 c_x.

    With ``c_x = i/n`` and ``c_z = -1 + 2j/n`` (``n = resolution - 1``) the
    condition is ``i + j <= n``: ``n + 1 - i`` points in column ``i``.
    """
    return sum(resolution - i for i in range(resolution))


def check_bell_scan(path: Path, resolution: int) -> None:
    """Every row lies in the triangle and carries c_x/2 and the closed-form concurrence."""
    text = Path(path).read_text(encoding="utf-8")
    header, _, body = text.partition("\n")
    _require(header.strip() == SCAN_HEADER, f"bell-scan header is {header!r}")
    table = np.loadtxt(
        io.StringIO(body.replace("true", "1").replace("false", "0")), delimiter=",", ndmin=2
    )
    _require(table.shape == (scan_grid_points(resolution), 6),
             f"bell-scan has {table.shape[0]} rows, expected {scan_grid_points(resolution)}")
    c_x, c_y, c_z, best, conc, separable = table.T
    _require(bool(np.all(c_y == c_x)), "c_y differs from c_x")
    _require(bool(np.all(c_z <= 1.0 - 2.0 * c_x + 1e-12)), "a row lies outside c_z <= 1 - 2 c_x")
    _require(bool(np.all(best == c_x / 2.0)), "max_transfer differs from c_x / 2")
    want = np.maximum(0.0, c_x - (1.0 + c_z) / 2.0)
    _require(bool(np.all(np.abs(conc - want) <= 1e-15)), "concurrence differs from max(0, c_x - (1 + c_z)/2)")
    _require(bool(np.all((separable == 1) == (conc == 0))), "separable flag disagrees with concurrence")
    steps = resolution - 1
    x_steps, z_steps = c_x * steps, (c_z + 1.0) * steps / 2.0
    i, j = np.rint(x_steps), np.rint(z_steps)
    _require(bool(np.all(np.abs(x_steps - i) <= 1e-9) and np.all(np.abs(z_steps - j) <= 1e-9)),
             "a bell-scan row is off the grid")
    _require(len(np.unique(i * resolution + j)) == len(i), "bell-scan repeats a grid point")


def _transfer_2q(p01: float, p10: float, alpha: complex, r, phi):
    """Gain of qubit A when the (|01>, |10>) block is [[c, -e^-iphi r], [e^iphi r, c]].

    Computed from the evolved |10> population ``(M rho M^dagger)[1, 1]``.
    """
    m10 = np.exp(1j * phi) * r
    m11 = np.sqrt(np.maximum(0.0, 1.0 - r * r))
    after = np.abs(m10) ** 2 * p01 + m11**2 * p10 + 2.0 * np.real(m10 * alpha * m11)
    return after - p10


def _grid_max(p01: float, p10: float, alpha: complex, sign: float) -> float:
    """Brute-force maximum over (r, phi) on three ever finer grids.

    The grids run over ``r = sin(theta)``, in which the transfer is smooth up
    to ``r = 1``.  The second grid still spans every phase, because near
    ``r = 0`` or ``r = 1`` the phase barely moves the coarse values.
    """

    def best(thetas, phis):
        values = sign * _transfer_2q(p01, p10, alpha, np.sin(thetas[:, None]), phis[None, :])
        it, ip = np.unravel_index(int(np.argmax(values)), values.shape)
        return float(values[it, ip]), thetas[it], phis[ip]

    def around(centre, step, lo=-np.inf, hi=np.inf):
        return np.clip(np.linspace(centre - 2 * step, centre + 2 * step, 201), lo, hi)

    half_pi = math.pi / 2
    coarse_step = half_pi / 400
    top, theta, _ = best(np.linspace(0.0, half_pi, 401),
                         np.linspace(0.0, 2 * math.pi, 720, endpoint=False))
    phis = np.linspace(0.0, 2 * math.pi, 2048, endpoint=False)
    value, theta, phi = best(around(theta, coarse_step, 0.0, half_pi), phis)
    last, _, _ = best(around(theta, coarse_step / 50, 0.0, half_pi), around(phi, phis[1]))
    return max(top, value, last)


def check_qubit_max(inp, path: Path, target: str, fixed_alpha: bool) -> None:
    """p01 (or p10) at optimised coherence; the grid maximum with it fixed."""
    report = _load(path)
    _require(report["target"] == target, "qubit-max report names another target")
    _require(report["alpha_optimized"] is (not fixed_alpha), "alpha_optimized flag is wrong")
    sign = 1.0 if target == "A" else -1.0
    alpha = complex(report["alpha_star_re"], report["alpha_star_im"])
    at_reported = sign * float(
        _transfer_2q(inp.p01, inp.p10, alpha, report["r_star"], report["phi_star"])
    )
    _close(at_reported, report["value"], SPLIT_TOL, "qubit-max value at the reported (r, phi)")
    if not fixed_alpha:
        want = inp.p01 if target == "A" else inp.p10
        _close(report["value"], want, SPLIT_TOL, "optimised-coherence qubit-max")
        _close(abs(alpha), math.sqrt(inp.p01 * inp.p10), SPLIT_TOL, "|alpha*| at the optimum")
        return
    _require(alpha == inp.alpha, "qubit-max --fixed-alpha changed the coherence")
    grid = _grid_max(inp.p01, inp.p10, inp.alpha, sign)
    _require(
        grid - SPLIT_TOL <= report["value"] <= grid + 1e-9,
        f"qubit-max {report['value']!r} disagrees with the grid maximum {grid!r}",
    )


def check_verify(path: Path) -> None:
    report = _load(path)
    checks = report.get("checks", [])
    _require(len(checks) > 0, "verify report lists no checks")
    failed = [c["name"] for c in checks if not c["passed"]]
    _require(not failed, f"verify checks failed: {failed}")
