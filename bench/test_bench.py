"""Tests of the benchmark itself: its checker and a reduced pass of every workload.

Run from the root of a checkout::

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_cli(job) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if job.threads is not None:
        env["SEC_TRANSFER_THREADS"] = str(job.threads)
    done = subprocess.run([sys.executable, "-m", "sec_transfer.cli"] + job.argv, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def _json_edit(path: Path, edit) -> None:
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def _shift(key, delta):
    def edit(payload):
        payload[key] += delta
    return edit


def _first_p_e(payload):
    key = sorted(payload["p_E"])[0]
    payload["p_E"][key] += 1e-9


def _scale_unitary(payload):
    block = next(iter(payload["unitary"]["blocks"].values()))
    block["re"] = [[1.001 * x for x in row] for row in block["re"]]


def _drop_coherence_block(payload):
    payload["coherence_blocks"] = payload["coherence_blocks"][1:]


def _beyond_optimum(payload):
    """Keep the split and the per-block sum, but move more energy than possible."""
    payload["total"] += 10.0
    payload["diagonal"] += 10.0
    key = sorted(payload["per_block_diagonal"])[0]
    payload["per_block_diagonal"][key] += 10.0


def _direction(payload):
    payload["direction"] = "none"


def _fail_verify(payload):
    payload["checks"][0]["passed"] = False


def _scan_row(path: Path):
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[4] = repr(float(cells[4]) + 1e-9)
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _scan_drop(path: Path):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")


def _other_bytes(path: Path):
    path.write_text(path.read_text() + " ")


# (job argv prefix, corruption) pairs; each corruption must make the check fail
CORRUPTIONS = [
    (("decompose",), lambda p: _json_edit(p, _first_p_e)),
    (("decompose",), lambda p: _json_edit(p, _drop_coherence_block)),
    (("analyze",), lambda p: _json_edit(p, _shift("coherent", 1e-9))),
    (("analyze",), lambda p: _json_edit(p, _beyond_optimum)),
    (("optimize", "exact"), lambda p: _json_edit(p, _shift("value", 1e-7))),
    (("optimize", "exact"), lambda p: _json_edit(p, _scale_unitary)),
    (("optimize", "diagonal"), lambda p: _json_edit(p, _shift("value", -1e-7))),
    (("optimize", "monte-carlo"), lambda p: _json_edit(p, _shift("value", 1.0))),
    (("optimize", "monte-carlo"), _other_bytes),
    (("classify",), lambda p: _json_edit(p, _direction)),
    (("qubit-max",), lambda p: _json_edit(p, _shift("value", 1e-7))),
    (("qubit-max", "--fixed-alpha"), lambda p: _json_edit(p, _shift("value", 1e-7))),
    (("bell-scan",), _scan_row),
    (("bell-scan",), _scan_drop),
    (("verify",), lambda p: _json_edit(p, _fail_verify)),
]


def _kind(job) -> tuple:
    method = job.argv[job.argv.index("--method") + 1] if "--method" in job.argv else "exact"
    kind = (job.argv[0], method) if job.argv[0] == "optimize" else (job.argv[0],)
    return kind + (("--fixed-alpha",) if "--fixed-alpha" in job.argv else ())


@pytest.fixture(scope="module")
def small_jobs(tmp_path_factory):
    """Every small workload's jobs, run through the CLI, with outputs in place."""
    jobs = []
    for name, build in WORKLOADS.items():
        work = tmp_path_factory.mktemp(name)
        for job in build(work, 5, small=True).jobs:
            _run_cli(job)
            jobs.append(job)
    return jobs


def test_checker_accepts_program_outputs(small_jobs):
    for job in small_jobs:
        job.check()


@pytest.mark.parametrize("kind,corrupt", CORRUPTIONS)
def test_checker_rejects_corrupted_report(small_jobs, kind, corrupt):
    # the monte-carlo byte comparison sits on the second job of each pair
    matching = [job for job in small_jobs if _kind(job)[: len(kind)] == kind
                and (kind[0] != "qubit-max" or len(kind) == len(_kind(job)))]
    job = matching[-1]
    original = job.output.read_bytes()
    try:
        corrupt(job.output)
        with pytest.raises(checker.CheckError):
            job.check()
    finally:
        job.output.write_bytes(original)


def test_scan_grid_points_counts_the_triangle():
    for resolution in (2, 3, 11, 51):
        step = resolution - 1
        brute = sum(1 for i in range(resolution) for j in range(resolution)
                    if -1 + 2 * j / step <= 1 - 2 * i / step + 1e-12)
        assert checker.scan_grid_points(resolution) == brute


def _clean_checkout(tmp_path: Path, with_program: bool) -> Path:
    root = tmp_path / "checkout"
    ignore = shutil.ignore_patterns(".work", "__pycache__", ".pytest_cache")
    shutil.copytree(BENCH, root / "bench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    if with_program:
        shutil.copytree(ROOT / "src", root / "src", ignore=ignore)
    return root


def _bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(SPEC["command"] + list(args), cwd=root, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reduced_pass_from_clean_checkout(tmp_path, workload, trace):
    root = _clean_checkout(tmp_path, with_program=True)
    done = _bench(root, "--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--size", "small")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_no_result_without_the_program(tmp_path):
    root = _clean_checkout(tmp_path, with_program=False)
    done = _bench(root, "--workload", "qubit-plane", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
