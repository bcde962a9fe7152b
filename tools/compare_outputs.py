"""Run the benchmark's CLI jobs under two source trees and compare what each leaves.

Usage (from the root of a checkout; nothing needs to be installed)::

    python3 tools/compare_outputs.py PARENT_ROOT CHANGE_ROOT SEED [SEED ...]

For every workload of ``bench/workloads.py`` and every seed, the inputs are
generated once into a fresh temporary directory.  Each job, warm-ups
included, then runs as ``python -m sec_transfer.cli`` once with each tree's
``src`` first on ``PYTHONPATH`` (and the job's thread count, as the benchmark
sets it).  Both runs must give the same exit code, stdout, stderr and output
file bytes.  No job writes a ``decompose --csv`` table or classifies a state
that fails the one-way rule, so every problem file that carries a state (the
input of a ``decompose``, ``analyze`` or ``optimize`` job) is also run through
``decompose --csv``, comparing the CSV bytes, and through ``classify`` for
both targets on its own state: a random state, so most of those reports list
failing blocks and a witness (their count is printed).  The CLI's refusals
are compared on that file too: ``analyze`` with neither ``--unitary`` nor
``--seed``, ``analyze --seed 1 --tolerance split=0``, ``optimize --method
monte-carlo`` without ``--seed``, ``classify`` with both ``--beta-a`` and
``--probs-a``, and ``decompose --tolerance split=1``.  Then, on each file,
``optimize --method diagonal`` runs and the ``unitary`` of the change's
report is given back to ``analyze --unitary``.  Each such file is also
run through ``decompose`` twice under the change tree alone: once pinned to
one CPU (``os.sched_setaffinity`` in the child before it starts), so that it
walks the file in one process, and once unpinned, so that a file of at least
``formats.SPLIT_BYTES`` is split between the CLI process and a forked
helper; both runs must give the same exit code, stdout, stderr and output
bytes.  A third ``decompose`` under the change tree reads the same file as
``--input /dev/stdin``, fed from a pipe, which is never walked or split but
parsed whole; it must give the same exit code, stdout and stderr as the
unpinned run by path.  ``verify --output`` at its default seed, and
``bell-scan`` without ``--output``, are compared once.
Last, every ``demos/*.py`` of either tree runs as that tree's own script
against that tree's ``src``, each run in a fresh working directory; both runs
must give the same exit code, stdout, stderr and files left in that
directory.

Prints one line per mismatch and a count per workload and seed; exits 1 if
anything differs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS  # noqa: E402

THREADS_ENV = "SEC_TRANSFER_THREADS"


def _env(tree: Path, threads: int | None) -> dict:
    env = {key: value for key, value in os.environ.items() if key != THREADS_ENV}
    env["PYTHONPATH"] = str(tree / "src")
    if threads is not None:
        env[THREADS_ENV] = str(threads)
    return env


def _one_cpu() -> None:
    """Let the calling process run on one CPU only, so it never splits a walk."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _run(tree: Path, argv: list[str], output: Path, threads: int | None,
         pinned: bool = False, piped: bytes | None = None) -> tuple:
    """Exit code, stdout, stderr and output bytes of one CLI run under ``tree``.

    ``piped``, if given, is written to the run's stdin through a pipe.
    """
    output.unlink(missing_ok=True)
    done = subprocess.run([sys.executable, "-m", "sec_transfer.cli", *argv],
                          env=_env(tree, threads), capture_output=True, timeout=600,
                          preexec_fn=_one_cpu if pinned else None, input=piped)
    written = output.read_bytes() if output.exists() else None
    output.unlink(missing_ok=True)
    return done.returncode, done.stdout, done.stderr, written


def _run_demo(tree: Path, name: str, work: Path) -> tuple:
    """Exit code, stdout, stderr and left files of ``tree``'s demo ``name``, run in ``work``."""
    work.mkdir()
    done = subprocess.run([sys.executable, str(tree / "demos" / name)], cwd=work,
                          env=_env(tree, None), capture_output=True, timeout=600)
    written = {path.relative_to(work).as_posix(): path.read_bytes()
               for path in sorted(work.rglob("*")) if path.is_file()}
    return done.returncode, done.stdout, done.stderr, written


def _same(what: str, parent: tuple, change: tuple) -> bool:
    for field, old, new in zip(("exit code", "stdout", "stderr", "output"), parent, change):
        if old != new:
            print(f"differs in {field}: {what}")
            return False
    return True


def _compare(trees: list[Path], argv: list[str], output: Path, threads=None) -> bool:
    parent, change = (_run(tree, argv, output, threads) for tree in trees)
    return _same(" ".join(argv), parent, change)


# subcommands whose --input must carry a state
STATE_COMMANDS = ("decompose", "analyze", "optimize")
# the unitary of the last optimize --method diagonal report, for analyze --unitary
UNITARY = "unitary.json"


def _state_problems(jobs) -> list[str]:
    """Every problem file given to a job that needs a state."""
    return sorted({job.argv[job.argv.index("--input") + 1]
                   for job in jobs if job.argv[0] in STATE_COMMANDS})


def _state_runs(problems: list[str], work: Path) -> list[tuple[list[str], Path]]:
    """The extra runs, as the module docstring lists them, on every problem with a state."""
    csv, report = work / "extra.csv", work / "extra.json"
    runs = []
    for problem in problems:
        given = ["--input", problem]
        runs.append((["decompose", *given, "--csv", str(csv)], csv))
        for target in ("A", "B"):
            runs.append((["classify", *given, "--target", target, "--output", str(report)],
                         report))
        runs += [(argv, report) for argv in (
            ["analyze", *given, "--target", "A"],
            ["analyze", *given, "--target", "A", "--seed", "1", "--tolerance", "split=0"],
            ["optimize", *given, "--target", "A", "--method", "monte-carlo"],
            ["classify", *given, "--target", "A", "--beta-a", "1", "--probs-a", "1"],
            ["decompose", *given, "--tolerance", "split=1"],
            ["optimize", *given, "--target", "A", "--method", "diagonal", "--output", str(report)],
            ["analyze", *given, "--target", "A", "--unitary", str(work / UNITARY)],
        )]
    return runs


def _write_unitary(written: bytes | None, path: Path) -> None:
    """The ``unitary`` of an optimize report into ``path``; no report, no file."""
    path.unlink(missing_ok=True)
    if written is not None:
        path.write_text(json.dumps(json.loads(written)["unitary"]), encoding="utf-8")


def _failing_report(written: bytes | None) -> bool:
    """Whether a classify run wrote a report that lists failing blocks."""
    return written is not None and json.loads(written)["failing_blocks"] != []


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    trees = [Path(argv[0]).resolve(), Path(argv[1]).resolve()]
    seeds = [int(s) for s in argv[2:]]
    differing = 0
    with tempfile.TemporaryDirectory() as scratch:
        for name, build in WORKLOADS.items():
            for seed in seeds:
                work = Path(scratch) / f"{name}-{seed}"
                work.mkdir()
                workload = build(work, seed, False)
                jobs = workload.warmup + workload.jobs
                same = sum(_compare(trees, job.argv, job.output, job.threads) for job in jobs)
                differing += len(jobs) - same
                print(f"{name} seed {seed}: {same}/{len(jobs)} jobs identical", flush=True)
                problems = _state_problems(jobs)
                if not problems:
                    continue
                same = same_piped = 0
                for problem in problems:
                    decompose = ["decompose", "--input", problem]
                    pinned, unpinned = (_run(trees[1], decompose, work / "extra.json", None, pin)
                                        for pin in (True, False))
                    same += _same(" ".join(decompose) + " pinned to one CPU", pinned, unpinned)
                    piped = _run(trees[1], ["decompose", "--input", "/dev/stdin"],
                                 work / "extra.json", None, piped=Path(problem).read_bytes())
                    same_piped += _same(" ".join(decompose) + " fed from a pipe", unpinned, piped)
                differing += 2 * len(problems) - same - same_piped
                print(f"{name} seed {seed}: {same}/{len(problems)} decompose runs identical "
                      f"pinned to one CPU and not, {same_piped}/{len(problems)} fed from a "
                      f"pipe and by path", flush=True)
                runs = _state_runs(problems, work)
                same = failing = refused = 0
                for run_argv, output in runs:
                    parent, change = (_run(tree, run_argv, output, None) for tree in trees)
                    same += _same(" ".join(run_argv), parent, change)
                    failing += run_argv[0] == "classify" and _failing_report(change[3])
                    refused += change[0] != 0
                    if "diagonal" in run_argv:
                        _write_unitary(change[3], work / UNITARY)
                differing += len(runs) - same
                print(f"{name} seed {seed}: {same}/{len(runs)} extra runs identical, "
                      f"{failing} classify reports list failing blocks, {refused} runs "
                      f"exited nonzero", flush=True)
        output = Path(scratch) / "verify.json"
        for once in (["verify", "--output", str(output)], ["bell-scan"]):
            same = _compare(trees, once, output)
            differing += not same
            print(f"{' '.join(once[:2])}: {'identical' if same else 'differs'}")
        demos = sorted({path.name for tree in trees for path in (tree / "demos").glob("*.py")})
        for name in demos:
            parent, change = (
                _run_demo(tree, name, Path(scratch) / f"demo-{side}-{name}")
                for side, tree in enumerate(trees)
            )
            same = _same(f"demos/{name}", parent, change)
            differing += not same
            print(f"demos/{name}: {'identical' if same else 'differs'}", flush=True)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
