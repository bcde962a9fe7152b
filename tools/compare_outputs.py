"""Run the benchmark's CLI jobs under two source trees and compare what each leaves.

Usage (from the root of a checkout; nothing needs to be installed)::

    python3 tools/compare_outputs.py PARENT_ROOT CHANGE_ROOT SEED [SEED ...]

For every workload of ``bench/workloads.py`` and every seed, the inputs are
generated once into a fresh temporary directory.  Each job, warm-ups
included, then runs as ``python -m sec_transfer.cli`` once with each tree's
``src`` first on ``PYTHONPATH``, on all the CPUs this process may run on.
Both runs must give the same exit code, stdout, stderr and output
file bytes.  No job writes a ``decompose --csv`` table or classifies a state
that fails the one-way rule, so every problem file that carries a state (the
input of a ``decompose``, ``analyze`` or ``optimize`` job) is also run through
``decompose --csv``, comparing the CSV bytes, and through ``classify`` for
both targets on its own state: a random state, so most of those reports list
failing blocks and a witness (their count is printed).  Each such file also
runs through the exact ``optimize`` for every target that the file's own
exact-``optimize`` jobs do not use (B on ``ladder-exact`` files, A on
``rational-blocks`` files, both on files with no such job), so both level
orientations are compared on every file and no job is run twice.  The CLI's refusals
are compared on that file too: ``analyze`` with neither ``--unitary`` nor
``--seed``, ``analyze --seed 1 --tolerance split=0``, ``optimize --method
monte-carlo`` without ``--seed``, ``classify`` with both ``--beta-a`` and
``--probs-a``, ``decompose``, ``optimize`` and ``classify`` each with
``--tolerance split=1``, and ``bell-scan --input`` (with ``--output``).
``classify`` also runs at a negative ``--beta-a``, so the one-line warning
it prints on stderr is compared.
Then, on each file, ``optimize --method diagonal`` runs and the
``unitary`` of the change's report is given back to ``analyze
--unitary``.  Each such file is also
run through ``decompose`` twice under the change tree alone: once pinned to
one CPU (``os.sched_setaffinity`` in the child before it starts), so that it
walks the file in one process, and once unpinned, so that a file of at least
``formats.SPLIT_BYTES`` is split between the CLI process and a forked
helper; both runs must give the same exit code, stdout, stderr and output
bytes.  A third ``decompose`` under the change tree reads the same file as
``--input /dev/stdin``, fed from a pipe, which is walked whole in one
process; it must give the same exit code, stdout and stderr as the unpinned
run by path.  Each such file is also copied twice, with the first entry of
its ``re`` row 1 (a row the split helper decodes) set to ``1e400`` in one
copy and to a 20-digit integer in the other: no walk takes either, so each
run falls back to json's whole parse (from the split helper, on a file of at
least ``formats.SPLIT_BYTES``).  Both trees run ``decompose`` on each copy
by path and fed from a pipe, and compare.  ``verify --output`` at its
default seed, and ``bell-scan`` without ``--output``, are compared once.
Last, every ``demos/*.py`` of either tree runs as that tree's own script
against that tree's ``src``, each run in a fresh working directory; both runs
must give the same exit code, stdout, stderr and files left in that
directory.

Every run goes through a small reaper process (``python3 -S``) that starts
the job, reaps it with ``os.wait4`` and reports its ``ru_maxrss``: on Linux a
child's figure also covers the process it was forked from, and this process
holds the generated inputs (about 250 MB).  For each workload and seed, the
job or extra run whose peak RSS moved most between the two trees is printed
with both figures (MB of 1024 KiB, as ``bench/run.py`` reports
``peak_rss_mb``).  That line is for information only.

Prints one line per mismatch and a count per workload and seed; exits 1 if
anything differs.  A mismatch line ends in ``(equal as parsed JSON)`` when
both sides of the differing stdout or output parse as JSON to equal values,
as when only the sign of a zero moved; it still counts as a mismatch.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS  # noqa: E402


def _env(tree: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(tree / "src")}


def _one_cpu() -> None:
    """Let the calling process run on one CPU only, so it never splits a walk."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# runs the command after the report path, reaps it with os.wait4, writes its
# ru_maxrss (KiB) to the report and exits with its exit code (128 + signal if
# it was killed)
REAPER = """
import os, sys
pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ)
_, status, usage = os.wait4(pid, 0)
with open(sys.argv[1], "w") as report:
    report.write(str(usage.ru_maxrss))
code = os.waitstatus_to_exitcode(status)
sys.exit(code if code >= 0 else 128 - code)
"""


def _spawn(argv: list[str], piped: bytes | None = None, **popen) -> tuple[tuple, int]:
    """Exit code, stdout and stderr of ``argv`` run through ``REAPER``, and its peak RSS in KiB.

    ``piped``, if given, is written to the run's stdin through a pipe.  The
    reaper and the job share a new session, so a timeout kills both.
    """
    handle, report = tempfile.mkstemp()
    os.close(handle)
    try:
        with subprocess.Popen([sys.executable, "-S", "-c", REAPER, report, *argv],
                              stdin=None if piped is None else subprocess.PIPE,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              start_new_session=True, **popen) as child:
            try:
                stdout, stderr = child.communicate(piped, timeout=600)
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)
                raise
        return (child.returncode, stdout, stderr), int(Path(report).read_text())
    finally:
        os.unlink(report)


def _run(tree: Path, argv: list[str], output: Path, pinned: bool = False,
         piped: bytes | None = None, peaks: list | None = None) -> tuple:
    """Exit code, stdout, stderr and output bytes of one CLI run under ``tree``.

    ``piped``, if given, is written to the run's stdin through a pipe.  If
    ``peaks`` is given, the run's peak RSS in KiB is appended to it.
    """
    output.unlink(missing_ok=True)
    done, maxrss_kib = _spawn([sys.executable, "-m", "sec_transfer.cli", *argv], piped,
                              env=_env(tree), preexec_fn=_one_cpu if pinned else None)
    written = output.read_bytes() if output.exists() else None
    output.unlink(missing_ok=True)
    if peaks is not None:
        peaks.append(maxrss_kib)
    return (*done, written)


def _run_demo(tree: Path, name: str, work: Path) -> tuple:
    """Exit code, stdout, stderr and left files of ``tree``'s demo ``name``, run in ``work``."""
    work.mkdir()
    done, _ = _spawn([sys.executable, str(tree / "demos" / name)], cwd=work, env=_env(tree))
    written = {path.relative_to(work).as_posix(): path.read_bytes()
               for path in sorted(work.rglob("*")) if path.is_file()}
    return (*done, written)


def _equal_as_json(old, new) -> bool:
    """Whether both sides parse as JSON to equal values (so ``-0.0`` equals ``0.0``)."""
    try:
        return json.loads(old) == json.loads(new)
    except (TypeError, ValueError):
        return False


def _same(what: str, parent: tuple, change: tuple) -> bool:
    for field, old, new in zip(("exit code", "stdout", "stderr", "output"), parent, change):
        if old != new:
            note = " (equal as parsed JSON)" if _equal_as_json(old, new) else ""
            print(f"differs in {field}: {what}{note}")
            return False
    return True


def _both(trees: list[Path], argv: list[str], output: Path, moves: list) -> tuple:
    """The parent's and the change's run; appends ``(argv, parent KiB, change KiB)`` to ``moves``."""
    peaks = []
    parent, change = (_run(tree, argv, output, peaks=peaks) for tree in trees)
    moves.append((" ".join(argv), *peaks))
    return parent, change


def _compare(trees: list[Path], argv: list[str], output: Path, moves: list) -> bool:
    return _same(" ".join(argv), *_both(trees, argv, output, moves))


def _print_largest_move(label: str, moves: list) -> None:
    """The run of ``moves`` whose peak RSS moved most between the two trees."""
    what, old, new = max(moves, key=lambda move: abs(move[2] - move[1]))
    print(f"{label}: peak RSS moved most on {what}: {old / 1024:.2f} -> {new / 1024:.2f} MB",
          flush=True)


# subcommands whose --input must carry a state
STATE_COMMANDS = ("decompose", "analyze", "optimize")
# the unitary of the last optimize --method diagonal report, for analyze --unitary
UNITARY = "unitary.json"


def _state_problems(jobs) -> list[str]:
    """Every problem file given to a job that needs a state."""
    return sorted({job.argv[job.argv.index("--input") + 1]
                   for job in jobs if job.argv[0] in STATE_COMMANDS})


def _exact_targets(jobs) -> set[tuple[str, str]]:
    """The (problem file, target) pairs that the jobs run the exact optimizer on."""
    return {(job.argv[job.argv.index("--input") + 1], job.argv[job.argv.index("--target") + 1])
            for job in jobs
            if job.argv[0] == "optimize" and "--method" not in job.argv}


def _state_runs(problems: list[str], done: set[tuple[str, str]],
                work: Path) -> list[tuple[list[str], Path]]:
    """The extra runs, as the module docstring lists them, on every problem with a state.

    ``done`` holds the (problem, target) pairs whose exact optimizer a job already ran.
    """
    csv, report = work / "extra.csv", work / "extra.json"
    runs = []
    for problem in problems:
        given = ["--input", problem]
        runs.append((["decompose", *given, "--csv", str(csv)], csv))
        for target in ("A", "B"):
            runs.append((["classify", *given, "--target", target, "--output", str(report)],
                         report))
        runs += [(["optimize", *given, "--target", target, "--output", str(report)], report)
                 for target in ("A", "B") if (problem, target) not in done]
        runs += [(argv, report) for argv in (
            ["analyze", *given, "--target", "A"],
            ["analyze", *given, "--target", "A", "--seed", "1", "--tolerance", "split=0"],
            ["optimize", *given, "--target", "A", "--method", "monte-carlo"],
            ["classify", *given, "--target", "A", "--beta-a", "1", "--probs-a", "1"],
            ["classify", *given, "--target", "A", "--beta-a", "-1", "--beta-b", "1"],
            ["decompose", *given, "--tolerance", "split=1"],
            ["optimize", *given, "--target", "A", "--tolerance", "split=1"],
            ["classify", *given, "--target", "A", "--tolerance", "split=1"],
            ["bell-scan", *given, "--output", str(report)],
            ["optimize", *given, "--target", "A", "--method", "diagonal", "--output", str(report)],
            ["analyze", *given, "--target", "A", "--unitary", str(work / UNITARY)],
        )]
    return runs


# entries no walk takes, each set in its own copy of a state file
FALLBACK_ENTRIES = {"overflow": "1e400", "integer-20-digits": "1" * 20}


def _fallback_copies(problem: str, work: Path) -> list[Path]:
    """Copies of ``problem``, the first entry of its ``re`` row 1 set to each fallback entry."""
    text = Path(problem).read_text(encoding="utf-8")
    row0 = text.index("[[", text.index('"re"')) + 1
    start = text.index("[", text.index("]", row0)) + 1
    end = re.compile(r"[,\]]").search(text, start).start()
    copies = []
    for name, entry in FALLBACK_ENTRIES.items():
        copy = work / f"{Path(problem).stem}-{name}.json"
        copy.write_text(text[:start] + entry + text[end:], encoding="utf-8")
        copies.append(copy)
    return copies


def _compare_fallbacks(trees: list[Path], problem: str, work: Path, moves: list) -> tuple:
    """Runs and identical runs of ``decompose`` on the fallback copies, by path and piped."""
    output = work / "extra.json"
    runs = same = 0
    for copy in _fallback_copies(problem, work):
        same += _compare(trees, ["decompose", "--input", str(copy)], output, moves)
        piped = [_run(tree, ["decompose", "--input", "/dev/stdin"], output,
                      piped=copy.read_bytes()) for tree in trees]
        same += _same(f"decompose --input {copy} fed from a pipe", *piped)
        runs += 2
        copy.unlink()
    return runs, same


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
                moves = []
                same = sum(_compare(trees, job.argv, job.output, moves) for job in jobs)
                differing += len(jobs) - same
                print(f"{name} seed {seed}: {same}/{len(jobs)} jobs identical", flush=True)
                problems = _state_problems(jobs)
                if not problems:
                    _print_largest_move(f"{name} seed {seed}", moves)
                    continue
                same = same_piped = 0
                for problem in problems:
                    decompose = ["decompose", "--input", problem]
                    pinned, unpinned = (_run(trees[1], decompose, work / "extra.json", pin)
                                        for pin in (True, False))
                    same += _same(" ".join(decompose) + " pinned to one CPU", pinned, unpinned)
                    piped = _run(trees[1], ["decompose", "--input", "/dev/stdin"],
                                 work / "extra.json", piped=Path(problem).read_bytes())
                    same_piped += _same(" ".join(decompose) + " fed from a pipe", unpinned, piped)
                differing += 2 * len(problems) - same - same_piped
                print(f"{name} seed {seed}: {same}/{len(problems)} decompose runs identical "
                      f"pinned to one CPU and not, {same_piped}/{len(problems)} fed from a "
                      f"pipe and by path", flush=True)
                fallbacks = [_compare_fallbacks(trees, problem, work, moves)
                             for problem in problems]
                runs, same = (sum(column) for column in zip(*fallbacks))
                differing += runs - same
                print(f"{name} seed {seed}: {same}/{runs} fallback decompose runs identical, "
                      f"by path and fed from a pipe", flush=True)
                runs = _state_runs(problems, _exact_targets(jobs), work)
                same = failing = refused = 0
                for run_argv, output in runs:
                    parent, change = _both(trees, run_argv, output, moves)
                    same += _same(" ".join(run_argv), parent, change)
                    failing += run_argv[0] == "classify" and _failing_report(change[3])
                    refused += change[0] != 0
                    if "diagonal" in run_argv:
                        _write_unitary(change[3], work / UNITARY)
                differing += len(runs) - same
                print(f"{name} seed {seed}: {same}/{len(runs)} extra runs identical, "
                      f"{failing} classify reports list failing blocks, {refused} runs "
                      f"exited nonzero", flush=True)
                _print_largest_move(f"{name} seed {seed}", moves)
        output = Path(scratch) / "verify.json"
        for once in (["verify", "--output", str(output)], ["bell-scan"]):
            same = _compare(trees, once, output, [])
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
