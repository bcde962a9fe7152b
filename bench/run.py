"""CLI-level benchmark of sec-transfer.

Usage (from the root of a checkout; nothing needs to be installed)::

    python3 bench/run.py --workload ladder-exact --seed 1 --seconds 10 --trace 0

Closed loop, one client: each job is ``python -m sec_transfer.cli ...`` in a
fresh interpreter with the checkout's ``src`` first on ``PYTHONPATH``,
launched only after the previous one has exited.  A run repeats whole
rounds of the workload's jobs, at least two (three on monte-carlo), until
the jobs have taken ``--seconds`` in total, and checks every output
independently.  Each job is timed by its fastest launch: on a shared host
the speed of a core changes from one second to the next, and that only ever
makes a job slower.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` also runs the
round in process, untraced and traced, and prints the per-layer metrics
instead.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402

SETUP_PER_ROUND = 2
P90_MIN_JOBS = 100
THREADS_ENV = "SEC_TRANSFER_THREADS"

# per-layer metrics: self times of these span names, then counts and ratios
SELF_TIME_SPANS = [
    "formats.load_problem",
    "formats.to_json",
    "formats.dump_json",
    "formats.write_plane_scan_csv",
    "spectra.build_joint_spectrum",
    "states.admit",
    "states.decompose",
    "unitaries.sample_haar_blocks",
    "unitaries.evolve",
    "transfer.transfer_direct",
    "transfer.blockwise",
    "transfer.batch_transfers",
    "transfer.analyze",
    "optimize.maximize_transfer_exact",
    "optimize.optimal_diagonal_unitary",
    "optimize.monte_carlo_max",
    "classify.classify_flow",
    "classify.constructors",
    "qubits.plane_scan",
    "qubits.max_transfer_2q",
    "verify.run_all",
]
COUNTS = {
    "formats.load_problem.mb": ("formats.load_problem.mb", "MB"),
    "formats.dump_json.mb": ("formats.dump_json.mb", "MB"),
    "formats.write_plane_scan_csv.mb": ("formats.write_plane_scan_csv.mb", "MB"),
    "spectra.blocks": ("spectra.build_joint_spectrum.blocks", "count"),
    "states.decompose.blocks_built": ("states.decompose.blocks_built", "count"),
    "unitaries.samples": ("unitaries.sample_haar_blocks.samples", "count"),
    "qubits.plane_scan.rows": ("qubits.plane_scan.rows", "count"),
}


class BenchmarkError(Exception):
    """The benchmark cannot produce a result (missing program, failed set-up)."""


class Launcher:
    """A small process that starts each job and reports its wall time and rusage."""

    def __init__(self, logs: Path):
        self.logs = logs
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        self.env.pop(THREADS_ENV, None)
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(BENCH / "spawn.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.launched = 0

    def run(self, argv: list[str], threads: int | None = None) -> dict:
        env = dict(self.env)
        if threads is not None:
            env[THREADS_ENV] = str(threads)
        self.launched += 1
        log = self.logs / f"job{self.launched:04d}.log"
        request = {"argv": [sys.executable, "-m", "sec_transfer.cli"] + argv, "env": env,
                   "log": str(log)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        reply["log"] = log
        return reply

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


def launch_help(launcher: Launcher) -> float:
    """Wall time of ``--help``: interpreter start-up to ready."""
    reply = launcher.run(["--help"])
    if reply["exit"] != 0:
        raise BenchmarkError(f"sec_transfer.cli --help failed:\n{reply['log'].read_text()}")
    return reply["wall_s"]


class Rounds:
    """Cost and outcome of every job run in a set of whole rounds.

    Every round also launches ``--help`` SETUP_PER_ROUND times, spread evenly
    between its jobs, so that set-up time is sampled across the whole run.
    """

    def __init__(self, jobs: list[Job]):
        self.jobs = jobs
        self.replies: list[list[dict]] = [[] for _ in jobs]
        self.checked: list[bytes | None] = [None for _ in jobs]
        self.setup_walls: list[float] = []
        self.failed = 0
        self.problems: list[str] = []
        self.count = 0

    def run(self, launcher: Launcher) -> None:
        if self.count == 0:
            launch_help(launcher)  # writes the bytecode caches; not timed
        setup_points = {i * len(self.jobs) // SETUP_PER_ROUND for i in range(SETUP_PER_ROUND)}
        for index, job in enumerate(self.jobs):
            if index in setup_points:
                self.setup_walls.append(launch_help(launcher))
            reply = launcher.run(job.argv, job.threads)
            self.replies[index].append(reply)
            if reply["exit"] != 0:
                self.failed += 1
                print(f"job failed ({reply['exit']}): {' '.join(job.argv)}\n"
                      f"{reply['log'].read_text()[-2000:]}", file=sys.stderr)
                continue
            output = job.output.read_bytes() if job.output.exists() else None
            if output is not None and output == self.checked[index]:
                continue  # same bytes as an earlier launch that passed its check
            try:
                job.check()
                self.checked[index] = output
            except (checker.CheckError, KeyError, TypeError, ValueError) as exc:
                self.problems.append(f"{' '.join(job.argv)}: {exc!r}")
        self.count += 1

    @property
    def attempted(self) -> int:
        return sum(len(replies) for replies in self.replies)

    @property
    def job_time(self) -> float:
        return sum(r["wall_s"] for replies in self.replies for r in replies)

    def fastest(self, keep=lambda job: True) -> list[float]:
        """Per job, the wall time of its fastest launch in any round."""
        return [min(r["wall_s"] for r in replies)
                for job, replies in zip(self.jobs, self.replies) if keep(job)]

    def launches(self) -> list[tuple[Job, dict]]:
        return [(job, r) for job, replies in zip(self.jobs, self.replies) for r in replies]


def end_to_end(done: Rounds) -> dict:
    fastest = done.fastest()
    return {
        "setup_s": (statistics.median(done.setup_walls), "s"),
        "jobs_per_s": (len(fastest) / sum(fastest), "jobs/s"),
        "job_p50_s": (statistics.median(fastest), "s"),
        "large_job_s": (statistics.median(done.fastest(lambda job: job.large)), "s"),
        "peak_rss_mb": (max(r["maxrss_kb"] for _, r in done.launches()) / 1024.0, "MB"),
    }


def client_rates(done: Rounds) -> dict:
    """Figures of the CLI launches that only some workloads have; 0 where absent."""
    launches = done.launches()
    walls = [r["wall_s"] for _, r in launches]
    p90 = statistics.quantiles(walls, n=10)[-1] if len(walls) >= P90_MIN_JOBS else 0.0
    mc = [(job.samples, r["wall_s"]) for job, r in launches if job.samples]
    scans = [(job.rows, r["wall_s"]) for job, r in launches if job.rows]

    def rate(pairs):
        return sum(n for n, _ in pairs) / sum(w for _, w in pairs) if pairs else 0.0

    return {
        "job_p90_s": (p90, "s"),
        "mc_samples_per_s": (rate(mc), "samples/s"),
        "scan_rows_per_s": (rate(scans), "rows/s"),
    }


def _in_process(cli, job: Job, output: Path) -> None:
    """One CLI job inside this interpreter, with the job's thread setting."""
    saved = os.environ.get(THREADS_ENV)
    if job.threads is None:
        os.environ.pop(THREADS_ENV, None)
    else:
        os.environ[THREADS_ENV] = str(job.threads)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(job.argv_writing_to(output))
    finally:
        if saved is None:
            os.environ.pop(THREADS_ENV, None)
        else:
            os.environ[THREADS_ENV] = saved
    if code != 0:
        raise BenchmarkError(f"in-process job exited {code}: {' '.join(job.argv)}")


def traced_pass(done: Rounds, warmup: list[Job], work: Path) -> tuple[dict, list[str]]:
    """The round in process: warm-up, untraced, then traced; per-layer metrics."""
    sys.path.insert(0, str(ROOT / "src"))
    from sec_transfer import cli

    jobs = done.jobs

    inproc = work / "inproc"
    inproc.mkdir()
    for job in warmup:
        _in_process(cli, job, inproc / "warmup")
    untraced = []
    for job in jobs:
        start = time.perf_counter()
        _in_process(cli, job, inproc / job.output.name)
        untraced.append(time.perf_counter() - start)
    problems = []
    for job in jobs:
        try:
            checker.check_identical(job.output, inproc / job.output.name)
        except checker.CheckError as exc:
            problems.append(f"in process vs CLI: {exc}")
    spy = tracer.Tracer()
    roots = []
    with spy.installed():
        for job in jobs:
            with spy.span("cli.main") as root:
                _in_process(cli, job, inproc / job.output.name)
            roots.append(root)
    spy.write(work / "spans.json")

    cli_walls = done.fastest()
    overhead = [w - tracer.child_time(spy.spans, root) for w, root in zip(cli_walls, roots)]
    selfs = tracer.self_times(spy.spans)
    counts = tracer.count_totals(spy.spans)
    metrics = {"cli.overhead_s": (statistics.median(overhead), "s")}
    for name in SELF_TIME_SPANS:
        metrics[f"{name}.self_s"] = (selfs.get(name, 0.0), "s")
    for metric, (key, unit) in COUNTS.items():
        metrics[metric] = (counts.get(key, 0.0), unit)
    built = counts.get("states.decompose.blocks_built", 0.0)
    useful = counts.get("states.decompose.useful", 0.0)
    metrics["states.decompose.useful_ratio"] = (useful / built if built else 0.0, "ratio")
    traced_total = sum(root.end - root.start for root in roots)
    metrics["trace.overhead_s"] = (traced_total - sum(untraced), "s")
    metrics.update(client_rates(done))
    return metrics, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: reduced inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sec_transfer" / "cli.py").is_file():
        print(f"no sec_transfer package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = BENCH / ".work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    workload = WORKLOADS[args.workload](work, args.seed, args.size == "small")

    launcher = Launcher(work / "logs")
    done = Rounds(workload.jobs)
    try:
        while done.count < workload.min_rounds or done.job_time < args.seconds:
            done.run(launcher)
    except BenchmarkError as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        launcher.close()

    problems = list(done.problems)
    if args.trace:
        try:
            metrics, more = traced_pass(done, workload.warmup, work)
        except BenchmarkError as exc:
            print(exc, file=sys.stderr)
            return 1
        problems += more
    else:
        metrics = end_to_end(done)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"jobs attempted {done.attempted}, failed {done.failed}, rounds {done.count}")
    result = {
        "correct": not problems,
        "attempted": done.attempted,
        "failed": done.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
