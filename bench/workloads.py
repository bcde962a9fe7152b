"""The four workloads: which CLI jobs one round runs, on which inputs.

Every builder generates its inputs from the seed into ``work`` and returns
the round's jobs, each with the independent check of its output, plus the
warm-up jobs the traced pass runs once before timing anything.  Inputs are
ordered smallest first.  A round is the same list of operations for every
seed, so a run that repeats whole rounds always has the same job mix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checker
import inputs


@dataclass
class Job:
    """One CLI invocation: ``python -m sec_transfer.cli <argv>``."""

    argv: list[str]
    output: Path
    checks: list[Callable[[], None]] = field(default_factory=list)
    threads: int | None = None
    large: bool = False
    samples: int = 0
    rows: int = 0

    def argv_writing_to(self, path: Path) -> list[str]:
        return [str(path) if a == str(self.output) else a for a in self.argv]

    def check(self) -> None:
        for run in self.checks:
            run()


@dataclass
class Workload:
    jobs: list[Job]
    warmup: list[Job]
    min_rounds: int = 2


class _Outputs:
    def __init__(self, work: Path):
        self.work = work
        self.count = 0

    def next(self, suffix: str = "json") -> Path:
        self.count += 1
        return self.work / f"out{self.count:03d}.{suffix}"


def _seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 2**31 - 1)))


def _state_jobs(out, prob, exp, target, rng, large, zero_optimum=False,
                kinds=("decompose", "analyze", "exact", "diagonal")) -> list[Job]:
    """decompose, analyze --seed, optimize (exact and diagonal) on one problem."""
    path = str(prob.path)
    jobs = []
    if "decompose" in kinds:
        o = out.next()
        jobs.append(Job(["decompose", "--input", path, "--output", str(o)], o,
                        [partial(checker.check_decompose, exp, o)], large=large))
    if "analyze" in kinds:
        o = out.next()
        jobs.append(Job(["analyze", "--input", path, "--target", target, "--seed", _seed(rng),
                         "--output", str(o)], o,
                        [partial(checker.check_analyze, exp, o, target)], large=large))
    if "exact" in kinds:
        o = out.next()
        checks = [partial(checker.check_optimize_exact, exp, o, target)]
        if zero_optimum:
            checks.append(partial(checker.check_zero_optimum, o))
        jobs.append(Job(["optimize", "--input", path, "--target", target, "--output", str(o)], o,
                        checks, large=large))
    if "diagonal" in kinds:
        o = out.next()
        checks = [partial(checker.check_optimize_diagonal, exp, o, target)]
        if zero_optimum:
            checks.append(partial(checker.check_zero_optimum, o))
        jobs.append(Job(["optimize", "--input", path, "--target", target, "--method", "diagonal",
                         "--output", str(o)], o, checks, large=large))
    return jobs


def _thermal_job(out, bare, rng) -> Job:
    beta_a, beta_b = inputs.thermal_betas(rng)
    o = out.next()
    return Job(["classify", "--input", str(bare.path), "--target", "A", "--beta-a", repr(beta_a),
                "--beta-b", repr(beta_b), "--output", str(o)], o,
               [partial(checker.check_classify, o, "A_from_B")])


def _passive_job(out, bare, rng) -> Job:
    pa, pb = inputs.passive_and_max_active(*bare.dims, rng)
    o = out.next()
    return Job(["classify", "--input", str(bare.path), "--target", "A",
                "--probs-a", ",".join(map(repr, pa)), "--probs-b", ",".join(map(repr, pb)),
                "--output", str(o)], o, [partial(checker.check_classify, o, "A_from_B")])


def ladder_exact(work: Path, seed: int, small: bool) -> Workload:
    """Integer ladders d x d: few, large blocks; dense work and parsing dominate.

    At the largest size only analyze and the two optimizers run: each of
    those jobs is mostly parsing and admission of the state, and a round
    must stay short enough to run twice.
    """
    rng = np.random.default_rng([seed, 1])
    sizes = (4, 8) if small else (4, 8, 16, 32)
    out = _Outputs(work)
    jobs: list[Job] = []
    for d in sizes:
        prob = inputs.ladder_problem(work, d, rng)
        exp = checker.Expectation(prob.energies_a, prob.energies_b, prob.rho, seed)
        if d == sizes[-1]:
            jobs += _state_jobs(out, prob, exp, "A", rng, large=True,
                                kinds=("analyze", "exact", "diagonal"))
            continue
        jobs += _state_jobs(out, prob, exp, "A", rng, large=False)
        if d <= 8:
            bare = inputs.ladder_problem(work, d, rng, bare=True)
            jobs.append(_thermal_job(out, bare, rng))
        if d == sizes[0]:
            jobs.append(_passive_job(out, bare, rng))
    return Workload(jobs, warmup=jobs[:6])


def rational_blocks(work: Path, seed: int, small: bool) -> Workload:
    """Incommensurate rational spectra: B close to D, mostly singleton blocks."""
    rng = np.random.default_rng([seed, 2])
    shapes = ((6, 0), (8, 2)) if small else ((12, 0), (13, 3))
    out = _Outputs(work)
    warm = inputs.rational_problem(work, 3, 1, rng)
    warm_exp = checker.Expectation(warm.energies_a, warm.energies_b, warm.rho, seed)
    warm_bare = inputs.rational_problem(work, 3, 1, rng, bare=True)
    warmup = _state_jobs(out, warm, warm_exp, "B", rng, large=False)
    warmup.append(_thermal_job(out, warm_bare, rng))
    jobs: list[Job] = []
    for d, ties in shapes:
        prob = inputs.rational_problem(work, d, ties, rng)
        bare = inputs.write_problem(work, prob.name + "-bare", prob.energies_a, prob.energies_b, None)
        exp = checker.Expectation(prob.energies_a, prob.energies_b, prob.rho, seed)
        jobs += _state_jobs(out, prob, exp, "B", rng, large=(d, ties) == shapes[-1],
                            zero_optimum=ties == 0)
        jobs.append(_thermal_job(out, bare, rng))
    return Workload(jobs, warmup)


def monte_carlo(work: Path, seed: int, small: bool) -> Workload:
    """Haar sampling plus batch evaluation, each job at 1 and at 2 threads.

    Three rounds: a job's time here depends most on which core it lands on
    and on what shares that core, so each job gets one more launch.
    """
    rng = np.random.default_rng([seed, 3])
    plan = ((2, 4096), (4, 1024)) if small else ((2, 16384), (4, 16384), (8, 16384), (16, 1024))
    out = _Outputs(work)
    jobs: list[Job] = []
    for d, samples in plan:
        prob = inputs.ladder_problem(work, d, rng)
        exp = checker.Expectation(prob.energies_a, prob.energies_b, prob.rho, seed)
        argv = ["optimize", "--input", str(prob.path), "--target", "A", "--method", "monte-carlo",
                "--samples", str(samples), "--seed", _seed(rng), "--output"]
        first = None
        for threads in (1, 2):
            o = out.next()
            checks = [partial(checker.check_monte_carlo, exp, o, "A", samples)]
            if first is not None:
                checks.append(partial(checker.check_identical, first, o))
            first = o
            jobs.append(Job(argv + [str(o)], o, checks, threads=threads,
                            large=d == plan[-1][0], samples=samples))
    return Workload(jobs, warmup=jobs[:2], min_rounds=3)


def qubit_plane(work: Path, seed: int, small: bool) -> Workload:
    """The two-qubit layer: one large Bell-plane scan and many short jobs."""
    rng = np.random.default_rng([seed, 4])
    resolution, files = (51, 2) if small else (801, 13)
    out = _Outputs(work)

    def scan(resolution: int, large: bool = True) -> Job:
        o = out.next("csv")
        return Job(["bell-scan", "--resolution", str(resolution), "--output", str(o)], o,
                   [partial(checker.check_bell_scan, o, resolution)], large=large,
                   rows=checker.scan_grid_points(resolution) if large else 0)

    short: list[Job] = []
    for index in range(files):
        params = inputs.two_qubit_input(work, index, rng)
        for target in ("A", "B"):
            for fixed in (False, True):
                o = out.next()
                argv = ["qubit-max", "--input", str(params.path), "--target", target,
                        "--output", str(o)] + (["--fixed-alpha"] if fixed else [])
                short.append(Job(argv, o, [partial(checker.check_qubit_max, params, o, target, fixed)]))
    o = out.next()
    verify = Job(["verify", "--seed", _seed(rng), "--output", str(o)], o,
                 [partial(checker.check_verify, o)])
    jobs = [scan(resolution)] + short + [verify]
    return Workload(jobs, warmup=[scan(11, large=False)] + short[:4])


WORKLOADS = {
    "ladder-exact": ladder_exact,
    "rational-blocks": rational_blocks,
    "monte-carlo": monte_carlo,
    "qubit-plane": qubit_plane,
}
