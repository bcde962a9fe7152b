"""Every name the benchmark tracer wraps must exist, and every counter must run.

``bench/tracer.py`` swaps ``(module, name)`` pairs of ``sec_transfer`` for
timing wrappers, some of which count what a call read or returned.  A renamed
function, or a changed argument or return type that a counter reads, would
break ``bench/run.py --trace 1`` without failing any other test, so the
pairs are resolved and every counter is run here on real arguments and
results.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from sec_transfer import cli, formats
from sec_transfer.fixtures import ladder_spectrum, random_state
from sec_transfer.qubits import plane_scan
from sec_transfer.states import decompose

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their module through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


tracer = _load_tracer()
COUNTED = [(m, a, s, c) for m, a, s, c in tracer.LAYER_CALLS if c is not None]


@pytest.mark.parametrize(
    "module_name, attr", [(m, a) for m, a, _, _ in tracer.LAYER_CALLS], ids=lambda v: v
)
def test_traced_name_resolves_to_a_callable(module_name, attr):
    module = importlib.import_module(f"sec_transfer.{module_name}")
    assert callable(getattr(module, attr, None)), f"sec_transfer.{module_name}.{attr}"


@pytest.fixture
def problem(tmp_path):
    spec = ladder_spectrum(3, 2)
    state = random_state((3, 2), np.random.default_rng(7))
    path = tmp_path / "problem.json"
    formats.dump_json(
        {
            "h_a": formats.hamiltonian_to_json(spec.h_a),
            "h_b": formats.hamiltonian_to_json(spec.h_b),
            "state": formats.state_to_json(state),
        },
        path,
    )
    return spec, state, path


def _mb(path) -> dict:
    return {"mb": Path(path).stat().st_size / 1e6}


def _cases(attr, problem, tmp_path):
    """Real ``(args, kwargs, expected counts)`` calls of one counted name.

    The expected counts are a thunk, read after the call has written its file.
    """
    spec, state, path = problem
    report, table = tmp_path / "report.json", tmp_path / "scan.csv"
    cases = {
        "decompose": [
            ((state, spec), {}, lambda: {
                "blocks_built": len(spec.blocks) ** 2,
                "useful": len(decompose(state, spec).useful_coherence_blocks()),
            }),
        ],
        "plane_scan": [((7,), {}, lambda: {"rows": len(plane_scan(7))})],
        "load_problem": [((path,), {}, lambda: _mb(path))],
        "build_joint_spectrum": [
            ((spec.h_a, spec.h_b), {}, lambda: {"blocks": len(spec.blocks)}),
        ],
        "dump_json": [(({"value": 1.5}, report), {}, lambda: _mb(report))],
        "write_plane_scan_csv": [((plane_scan(5), table), {}, lambda: _mb(table))],
        "sample_haar_blocks": [
            ((spec, 3, 4), {}, lambda: {"samples": 4}),
            ((spec, 3), {"count": 6, "start": 2}, lambda: {"samples": 6}),
        ],
    }
    return cases[attr]


@pytest.mark.parametrize(
    "module_name, attr, span_name, counter", COUNTED, ids=[f"{m}.{a}" for m, a, _, _ in COUNTED]
)
def test_counter_runs_on_real_arguments_and_results(
    module_name, attr, span_name, counter, problem, tmp_path
):
    fn = getattr(importlib.import_module(f"sec_transfer.{module_name}"), attr)
    for args, kwargs, expected in _cases(attr, problem, tmp_path):
        spy = tracer.Tracer()
        spy.wrap(fn, span_name, counter)(*args, **kwargs)
        (span,) = spy.spans
        assert span.name == span_name
        assert span.counts == expected()
        assert all(value > 0 for value in span.counts.values())
        json.dumps(tracer.count_totals(spy.spans), allow_nan=False)


def test_traced_cli_jobs_report_every_count(problem, tmp_path):
    # the traced pass of bench/run.py: CLI jobs in process, every wrapper installed
    _, _, path = problem
    out = tmp_path / "out.json"
    jobs = [
        ["decompose", "--input", str(path)],
        ["analyze", "--input", str(path), "--target", "A", "--seed", "1"],
        ["optimize", "--input", str(path), "--target", "B", "--method", "monte-carlo",
         "--samples", "20", "--seed", "2"],
        ["bell-scan", "--resolution", "9"],
    ]
    modules = [importlib.import_module(f"sec_transfer.{m}") for m, _, _, _ in tracer.LAYER_CALLS]
    originals = [getattr(module, a) for module, (_, a, _, _) in zip(modules, tracer.LAYER_CALLS)]
    spy = tracer.Tracer()
    with spy.installed():
        for argv in jobs:
            assert cli.main([*argv, "--output", str(out)]) == 0
    counts = tracer.count_totals(spy.spans)
    assert set(counts) == {
        "formats.load_problem.mb",
        "spectra.build_joint_spectrum.blocks",
        "states.decompose.blocks_built",
        "states.decompose.useful",
        "unitaries.sample_haar_blocks.samples",
        "formats.dump_json.mb",
        "qubits.plane_scan.rows",
        "formats.write_plane_scan_csv.mb",
    }
    assert counts["unitaries.sample_haar_blocks.samples"] == 1 + 20
    assert counts["spectra.build_joint_spectrum.blocks"] == 3 * 4
    assert counts["qubits.plane_scan.rows"] == len(plane_scan(9))
    # the wrappers are gone again
    for module, (_, attr, _, _), original in zip(modules, tracer.LAYER_CALLS, originals):
        assert getattr(module, attr) is original
