import csv
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sec_transfer import (
    Hamiltonian,
    OptimizationResult,
    ValidationError,
    analyze,
    decompose,
    plane_scan,
    sample_haar,
)
from sec_transfer.fixtures import ladder_spectrum, max_coherence_params, random_state
from sec_transfer import formats
from sec_transfer.cli import main


def test_hamiltonian_roundtrip():
    h = Hamiltonian((Fraction(0), Fraction(1, 2), Fraction(3, 2)))
    payload = formats.hamiltonian_to_json(h)
    assert payload == {"energies": [[0, 1], [1, 2], [3, 2]]}
    assert formats.hamiltonian_from_json(payload) == h


def test_hamiltonian_json_rejects_bare_floats():
    with pytest.raises(ValidationError):
        formats.hamiltonian_from_json({"energies": [0.0, 1.0]})


def test_state_roundtrip(tmp_path, rng):
    spec = ladder_spectrum(3, 2)
    state = random_state((3, 2), rng)
    payload = formats.state_to_json(state)
    assert payload["dims"] == [3, 2]
    path = tmp_path / "problem.json"
    formats.dump_json({
        "h_a": formats.hamiltonian_to_json(spec.h_a),
        "h_b": formats.hamiltonian_to_json(spec.h_b),
        "state": payload,
    }, path)
    back = formats.load_problem(path)[3]
    np.testing.assert_array_equal(back.matrix, state.matrix)


def test_unitary_roundtrip(rng):
    spec = ladder_spectrum(3, 2)
    u = sample_haar(spec, 12)
    payload = formats.sec_unitary_to_json(u)
    assert set(payload["blocks"]) == {"0", "1", "2", "3"}
    back = formats.sec_unitary_from_json(payload, spec)
    for i in range(len(u.blocks)):
        np.testing.assert_array_equal(back.blocks[i], u.blocks[i])
    # an optimization report carries its unitary inline, value unchanged
    result = OptimizationResult(0.125, u, "test")
    report = formats.optimization_result_to_json(result)
    assert report["unitary"] == payload and "blocks" in report["unitary"]
    assert report["value"] == result.value


def test_transfer_report_fields(two_qubit_spec):
    state = max_coherence_params().to_state()
    report = analyze(state, sample_haar(two_qubit_spec, 0), "A")
    payload = formats.transfer_report_to_json(report, two_qubit_spec)
    assert set(payload) == {
        "target",
        "total",
        "diagonal",
        "coherent",
        "eta",
        "per_block_diagonal",
        "unit",
    }
    assert set(payload["eta"]) == {"0", "1"}
    assert set(payload["per_block_diagonal"]) == {"0", "1", "2"}
    assert payload["total"] == pytest.approx(payload["diagonal"] + payload["coherent"])


def test_json_is_deterministic(tmp_path, rng):
    state = random_state((2, 2), rng)
    payload = formats.state_to_json(state)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    formats.dump_json(payload, first)
    formats.dump_json(payload, second)
    assert first.read_bytes() == second.read_bytes()


def test_json_floats_roundtrip_exactly(tmp_path):
    value = 1 / 3 + 1e-16
    path = tmp_path / "x.json"
    formats.dump_json({"v": value}, path)
    assert json.loads(path.read_text())["v"] == value


def test_decomposition_csv(tmp_path, two_qubit_spec):
    decomp = decompose(max_coherence_params().to_state(), two_qubit_spec)
    path = tmp_path / "summary.csv"
    formats.write_decomposition_csv(decomp, path)
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == formats.DECOMP_CSV_HEADER
    assert len(rows) == 4
    middle = rows[2]
    assert middle[0] == "1"
    assert float(middle[1]) == pytest.approx(0.4)
    assert [float(x) for x in middle[2].split(";")] == pytest.approx([0.3, 0.1])
    assert float(middle[3]) == pytest.approx(np.sqrt(0.03))


def test_plane_scan_csv(tmp_path):
    path = tmp_path / "scan.csv"
    formats.write_plane_scan_csv(plane_scan(3), path)
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == ["c_x", "c_y", "c_z", "max_transfer", "concurrence", "separable"]
    assert len(rows) == 7  # header + 6 grid points
    assert {row[5] for row in rows[1:]} <= {"true", "false"}


def test_problem_file_loader(tmp_path, rng):
    spec = ladder_spectrum(2, 2)
    state = random_state((2, 2), rng)
    path = tmp_path / "problem.json"
    formats.dump_json(
        {
            "h_a": formats.hamiltonian_to_json(spec.h_a),
            "h_b": formats.hamiltonian_to_json(spec.h_b),
            "state": formats.state_to_json(state),
        },
        path,
    )
    h_a, h_b, loaded_spec, loaded_state = formats.load_problem(path)
    assert loaded_spec == spec
    np.testing.assert_array_equal(loaded_state.matrix, state.matrix)


def test_problem_file_dims_must_match(tmp_path, rng):
    spec = ladder_spectrum(3, 2)
    state = random_state((2, 2), rng)
    path = tmp_path / "problem.json"
    formats.dump_json(
        {
            "h_a": formats.hamiltonian_to_json(spec.h_a),
            "h_b": formats.hamiltonian_to_json(spec.h_b),
            "state": formats.state_to_json(state),
        },
        path,
    )
    with pytest.raises(ValidationError):
        formats.load_problem(path)


NEGATIVE_ZERO_PROBLEM = (
    '{"h_a": {"energies": [[0, 1], [1, 1]]}, "h_b": {"energies": [[0, 1], [1, 1]]}, '
    '"state": {"dims": [2, 2], '
    '"re": [[0.25, -0.0, -0.0, -0.0], [-0.0, 0.375, 0.125, -0.0], '
    '[-0.0, 0.125, 0.375, 0.0], [-0.0, -0.0, 0.0, -0.0]], '
    '"im": [[-0.0, -0.0, 0.0, -0.0], [0.0, 0.0, -0.0625, 0.0], '
    '[-0.0, 0.0625, -0.0, -0.0], [0.0, -0.0, 0.0, -0.0]]}}'
)

NEGATIVE_ZERO_REPORT = """{
  "blocks": {
    "0": [
      0.25
    ],
    "1": [
      0.375,
      0.375
    ],
    "2": [
      0.0
    ]
  },
  "coherence_blocks": [
    "1|1"
  ],
  "p_E": {
    "0": 0.25,
    "1": 0.75,
    "2": 0.0
  }
}
"""

NEGATIVE_ZERO_CSV = (
    "E,p_E,probs,chi_same_energy_max,chi_cross_energy_max\r\n"
    "0,0.25,0.25,0.0,0.0\r\n"
    "1,0.75,0.375;0.375,0.13975424859373686,0.0\r\n"
    "2,0.0,0.0,0.0,0.0\r\n"
)


def test_negative_zero_entries_keep_their_bits_and_report_bytes(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(NEGATIVE_ZERO_PROBLEM, encoding="utf-8")
    payload = json.loads(NEGATIVE_ZERO_PROBLEM)["state"]
    expected = np.array(payload["re"]) + 1j * np.array(payload["im"])
    state = formats.load_problem(path)[3]
    np.testing.assert_array_equal(state.matrix.view(np.int64), expected.view(np.int64))
    report, table = tmp_path / "report.json", tmp_path / "report.csv"
    args = ["decompose", "--input", str(path), "--output", str(report), "--csv", str(table)]
    assert main(args) == 0
    assert report.read_bytes() == NEGATIVE_ZERO_REPORT.encode()
    assert table.read_bytes() == NEGATIVE_ZERO_CSV.encode()


def test_load_problem_releases_the_parsed_json_before_admission(tmp_path, monkeypatch):
    spec = ladder_spectrum(16, 16)
    path = tmp_path / "problem.json"
    formats.dump_json(
        {
            "h_a": formats.hamiltonian_to_json(spec.h_a),
            "h_b": formats.hamiltonian_to_json(spec.h_b),
            "state": formats.state_to_json(random_state((16, 16), np.random.default_rng(3))),
        },
        path,
    )
    admit = formats.BipartiteState
    at_admission = []

    def watched(*args, **kwargs):
        at_admission.append(tracemalloc.get_traced_memory()[0])
        return admit(*args, **kwargs)

    monkeypatch.setattr(formats, "BipartiteState", watched)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        formats.load_problem(path)
    finally:
        tracemalloc.stop()
    matrix_bytes = np.dtype(complex).itemsize * 256**2
    assert at_admission[0] - before <= 1.5 * matrix_bytes


# The problem-file walk against read_json: every text gives the same Hamiltonians
# and state bits, or the same exception and message.  ``walks`` pins which texts the
# walk takes itself rather than handing to read_json.

_ROW0 = "[0.25, -0.0, -0.0, -0.0]"


def _swap(old: str, new: str, count: int = 1) -> str:
    assert old in NEGATIVE_ZERO_PROBLEM
    return NEGATIVE_ZERO_PROBLEM.replace(old, new, count)


def _redumped(transform, **dumps) -> str:
    return json.dumps(transform(json.loads(NEGATIVE_ZERO_PROBLEM)), **dumps)


def _with_state(**fields) -> str:
    def transform(data):
        data["state"].update(fields)
        return data

    return _redumped(transform)


def _reordered(data):
    state = data["state"]
    return {
        "state": {"im": state["im"], "dims": state["dims"], "re": state["re"]},
        "h_b": data["h_b"],
        "h_a": data["h_a"],
    }


_CONTRACT_ROWS = {
    "ragged": ("re", [[0.25, 0, 0, 0], [0, 0.25, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]]),
    "numeric-string": ("re", [["0.25", 0, 0, 0], [0, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]]),
    "string": ("im", [[0, "x", 0, 0]] + [[0] * 4] * 3),
    "bool": ("im", [[0, True, 0, 0]] + [[0] * 4] * 3),
    "null": ("im", [[0, None, 0, 0]] + [[0] * 4] * 3),
    "bool-coerces-to-a-state": (
        "re", [[True, 0.0, 0.0, 0.0], [0.0, False, 0.0, 0.0], [0.0, 0.0, False, 0.0],
               [0.0, 0.0, 0.0, False]]
    ),
    "float-bool-row": ("re", [[1.0, 0.0, 0.0, 0.0]] + [[False, 0.0, 0.0, 0.0]] * 3),
}

WALK_CASES = {
    # (text, taken by the walk)
    "plain": (NEGATIVE_ZERO_PROBLEM, True),
    **{
        f"lax-{token}": (_swap(_ROW0, f"[0.25, {token}, -0.0, -0.0]"), False)
        for token in ("1.", ".5", "+1", "01", "NaN", "Infinity", "-Infinity", "1e", "0x1")
    },
    "exponents": (
        _swap("0.25", "2.5e-1").replace("0.375", "375E-3").replace("0.0625", "6.25e-2")
        .replace("0.125", "12.5e-2").replace("-0.0", "-0e0"),
        True,
    ),
    "overflow": (_swap(_ROW0, "[0.25, 1e400, -0.0, -0.0]"), False),
    "underflow-to-zero": (_swap(_ROW0, "[0.25, -1e-400, -0.0, -0.0]"), True),
    "integer-entries": (_with_state(re=[[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
                                    im=[[0] * 4] * 4), True),
    "one-integer": (_swap("0.25", "1", 1), True),
    "integer-zeros": (re.sub(r"-0\.0(?=[],])", "0", NEGATIVE_ZERO_PROBLEM), True),
    # read as +0.0 on both paths, so the admitted state's bits tell them apart from -0.0
    "integer-minus-zero": (_swap(_ROW0, "[0.25, -0, -0, -0.0]"), True),
    **{
        f"integer-{name}": (_swap(_ROW0, f"[0.25, {value}, -0.0, -0.0]"), walks)
        for name, value, walks in [
            ("2**53+1", 2**53 + 1, True),
            ("-2**63", -(2**63), True),
            ("2**63", 2**63, False),
            ("-2**63-1", -(2**63) - 1, False),
            # orjson reads these as floats, json as ints that numpy cannot take
            ("2**64", 2**64, False),
            ("-2**64", -(2**64), False),
            ("30-digits", 10**29, False),
        ]
    },
    "all-integer-re": (_with_state(re=[[2**53 + 1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0],
                                       [0, 0, 0, -(2**53) - 1]]), True),
    "compact": (NEGATIVE_ZERO_PROBLEM.replace(", ", ",").replace(": ", ":"), True),
    "spread": (NEGATIVE_ZERO_PROBLEM.replace(", ", " ,\n\t ").replace(": ", "\r\n:\t"), True),
    "brackets-padded": (NEGATIVE_ZERO_PROBLEM.replace("[", "[ \n").replace("]", "\t]"), True),
    "indent-2": (_redumped(lambda d: d, indent=2), True),
    "indent-tab": (_redumped(lambda d: d, indent="\t"), True),
    "crlf": (_redumped(lambda d: d, indent=1).replace("\n", "\r\n"), True),
    "outer-whitespace": ("\n \t" + NEGATIVE_ZERO_PROBLEM + " \r\n\n", True),
    "bom": ("\ufeff" + NEGATIVE_ZERO_PROBLEM, False),
    "reordered": (_redumped(_reordered), True),
    "extra-keys": (
        _swap('"state": {', '"note": {"a": [1, 2.5, null]}, "state": {"comment": "x", '), True
    ),
    "escaped-keys": (_swap('"re"', '"\\u0072e"').replace('"state"', '"st\\u0061te"'), True),
    "duplicate-top-key": (_swap('"state"', '"h_b": {"energies": [[0, 1], [2, 1]]}, "state"'),
                          False),
    "duplicate-state-key": (_swap('"dims": [2, 2], ', '"dims": [2, 2], "re": [[1.0]], '), False),
    "duplicate-dims": (_swap('"dims": [2, 2], ', '"dims": [4, 1], "dims": [2, 2], '), False),
    "duplicate-inside-hamiltonian": (
        _swap('"h_a": {"energies"', '"h_a": {"energies": [[5, 1]], "energies"'), True
    ),
    "dims-long-number": (_with_state(dims=-1.5e-300), True),
    "state-long-number": (_redumped(lambda d: {**d, "state": 1234.5e-7}), True),
    "no-state": (_redumped(lambda d: {"h_a": d["h_a"], "h_b": d["h_b"]}), True),
    "state-null": (_redumped(lambda d: {**d, "state": None}), True),
    "state-number": (_redumped(lambda d: {**d, "state": 5}), True),
    "state-array": (_redumped(lambda d: {**d, "state": [1.0]}), True),
    "state-empty": (_redumped(lambda d: {**d, "state": {}}), True),
    "no-h_a": (_redumped(lambda d: {"h_b": d["h_b"], "state": d["state"]}), True),
    "missing-im": (_redumped(lambda d: {**d, "state": {"dims": [2, 2], "re": d["state"]["re"]}}),
                   True),
    "empty-object": ("{}", True),
    "empty-rows": (_with_state(re=[]), False),
    "empty-row": (_with_state(re=[[]]), False),
    "non-square": (_with_state(re=[[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]]), False),
    "too-many-rows": (_with_state(re=[[0.5, 0.0]] * 3), False),
    "re-1x1": (_with_state(re=[[1.0]]), True),
    "shapes-differ": (_with_state(re=[[0.5, 0.0], [0.0, 0.5]], im=[[0.0]]), True),
    "flat-row": (_with_state(re=[0.25, 0.0, 0.0, 0.0]), False),
    # a square buffer for this row would take 80 GB; the file is 0.4 MB
    "one-long-row": (_with_state(re=[[0.0] * 100_000]), False),
    "deeper": (_with_state(re=[[[0.25]]]), False),
    "re-number": (_with_state(re=1.0), False),
    "re-null": (_with_state(re=None), False),
    "unit-trace-but-negative": (
        _with_state(re=[[1.5, 0.0, 0.0, 0.0], [0.0, -0.5, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0, 0.0]]),
        True,
    ),
    **{
        f"contract-{name}": (_with_state(**{key: rows}), False)
        for name, (key, rows) in _CONTRACT_ROWS.items()
    },
    **{
        f"contract-dims-{name}": (_with_state(dims=dims), True)
        for name, dims in {
            "scalar": 4, "one-entry": [4], "string": [2, "2"], "float": [2.0, 2],
            "zero": [0, 4], "three-entries": [2, 2, 1], "null": None, "mismatch": [4, 1],
        }.items()
    },
    "contract-nan-off-diagonal": (_swap('"im": [[-0.0, -0.0', '"im": [[-0.0, NaN'), False),
    "contract-energy-float": (_swap("[1, 1]]}, ", "[1.5, 2]]}, "), True),
    "contract-labels": (_swap('"h_b": {', '"h_b": {"labels": ["g", 1], '), True),
    "contract-not-an-object": ("[1, 2]", False),
    "contract-malformed": ('{"h_a":\n  [1, 2,]}', False),
    "truncated": (NEGATIVE_ZERO_PROBLEM[:-30], False),
    "trailing-comma": (_swap("-0.0]]}}", "-0.0],]}}"), False),
    "trailing-text": (NEGATIVE_ZERO_PROBLEM + " x", False),
    "trailing-object": (NEGATIVE_ZERO_PROBLEM + "{}", False),
    "trailing-bracket": (NEGATIVE_ZERO_PROBLEM + "]", False),
    "missing-colon": (_swap('"dims": ', '"dims" '), False),
    "missing-comma": (_swap('"dims": [2, 2], ', '"dims": [2, 2] '), False),
    "number-key": (_swap('{"h_a"', '{1: 2, "h_a"'), False),
}


def _load_outcome(path):
    try:
        h_a, h_b, spec, state = formats.load_problem(path)
    except Exception as exc:  # the outcome under test includes the exception
        return type(exc), str(exc)
    if state is None:
        return h_a, h_b, spec, None
    return h_a, h_b, spec, state.dims, state.matrix.tobytes()


@pytest.mark.parametrize("case", list(WALK_CASES))
def test_problem_walk_matches_read_json(case, tmp_path, monkeypatch):
    text, walks = WALK_CASES[case]
    path = tmp_path / "problem.json"
    path.write_bytes(text.encode("utf-8"))
    walked = _load_outcome(path)
    with monkeypatch.context() as patch:
        patch.setattr(formats, "_read_problem", formats.read_json)
        parsed = _load_outcome(path)
    assert walked == parsed
    try:
        formats._walk_problem(path.read_text(encoding="utf-8"))
    except (formats._Unwalkable, ValueError, ValidationError):
        taken = False
    else:
        taken = True
    assert taken is walks


def _walk_takes(text: str) -> bool:
    try:
        formats._walk_problem(text)
    except (formats._Unwalkable, ValueError, ValidationError):
        return False
    return True


# a few characters, so every token of every case straddles a chunk boundary
TINY_CHUNKS = (1, 3)


@pytest.mark.parametrize("chunk", TINY_CHUNKS)
@pytest.mark.parametrize("case", list(WALK_CASES))
def test_problem_walk_in_tiny_chunks_matches_read_json(case, chunk, tmp_path, monkeypatch):
    text, walks = WALK_CASES[case]
    path = tmp_path / "problem.json"
    path.write_bytes(text.encode("utf-8"))
    with monkeypatch.context() as patch:
        patch.setattr(formats, "_read_problem", formats.read_json)
        parsed = _load_outcome(path)
    monkeypatch.setattr(formats, "PROBLEM_CHUNK", chunk)
    assert _load_outcome(path) == parsed
    assert _walk_takes(path.read_text(encoding="utf-8")) is walks


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _open_fds() -> int | None:
    fds = Path("/proc/self/fd")
    return len(list(fds.iterdir())) if fds.is_dir() else None


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the split walk forks")


def _force_split(monkeypatch) -> list:
    """Split every problem file, as on two CPUs; the list returned grows by one per fork."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(formats, "SPLIT_BYTES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", counted)
    return forks


@needs_fork
@pytest.mark.parametrize("chunk", (formats.PROBLEM_CHUNK,) + TINY_CHUNKS)
@pytest.mark.parametrize("case", list(WALK_CASES))
def test_split_walk_matches_read_json(case, chunk, tmp_path, monkeypatch):
    """Every file split between this process and a forked helper gives read_json's outcome."""
    text, _ = WALK_CASES[case]
    path = tmp_path / "problem.json"
    path.write_bytes(text.encode("utf-8"))
    with monkeypatch.context() as patch:
        patch.setattr(formats, "_read_problem", formats.read_json)
        parsed = _load_outcome(path)
    monkeypatch.setattr(formats, "PROBLEM_CHUNK", chunk)
    forks = _force_split(monkeypatch)
    fds = _open_fds()
    assert _load_outcome(path) == parsed
    assert forks == [1] and _no_child_left() and _open_fds() == fds


def _with_row(key: str, index: int, row: list) -> str:
    rows = json.loads(NEGATIVE_ZERO_PROBLEM)["state"][key]
    rows[index] = row
    return _with_state(**{key: rows})


# rows a process that steps over them does not refuse: each is taken to its first "]"
REFUSED_ROWS = {
    "string": [0, "x", 0, 0],
    "null": [0, None, 0, 0],
    "bool": [0.0, True, 0.0, 0.0],
    "short": [0.25, 0.0, 0.0],
    "long": [0.25, 0.0, 0.0, 0.0, 0.0],
    "huge-integer": [0, 2**63, 0, 0],
}


@needs_fork
@pytest.mark.parametrize("index", [1, 2, 3])
@pytest.mark.parametrize("key", ["re", "im"])
@pytest.mark.parametrize("name", list(REFUSED_ROWS))
def test_split_walk_refuses_a_row_in_whichever_process_decodes_it(name, key, index, tmp_path,
                                                                  monkeypatch):
    """A bad odd row is refused by the helper alone, a bad even row by this process alone."""
    text = _with_row(key, index, REFUSED_ROWS[name])
    mine, helpers = (0, 2), (1, 2)
    decoder, stepper = (helpers, mine) if index % 2 else (mine, helpers)
    formats._walk_problem(text, part=stepper)
    with pytest.raises((formats._Unwalkable, ValueError, ValidationError)):
        formats._walk_problem(text, part=decoder)
    path = tmp_path / "problem.json"
    path.write_text(text, encoding="utf-8")
    with monkeypatch.context() as patch:
        patch.setattr(formats, "_read_problem", formats.read_json)
        parsed = _load_outcome(path)
    forks = _force_split(monkeypatch)
    assert _load_outcome(path) == parsed
    assert forks == [1] and _no_child_left()


@needs_fork
def test_split_walk_helper_walks_only_the_file_this_process_opened(tmp_path, monkeypatch):
    """A file replaced at its path before the helper opens it is read whole, never mixed."""
    path, other = tmp_path / "problem.json", tmp_path / "other.json"
    path.write_text(NEGATIVE_ZERO_PROBLEM, encoding="utf-8")
    other.write_text(_with_row("re", 1, [-0.0, 0.5, 0.125, -0.0]), encoding="utf-8")
    with monkeypatch.context() as patch:
        patch.setattr(formats, "_read_problem", formats.read_json)
        parsed = _load_outcome(path)
    opened = []

    def replaced(file, *args, **kwargs):
        if file == path:
            opened.append(file)
            file = other if len(opened) > 1 else file
        return open(file, *args, **kwargs)

    monkeypatch.setattr(formats, "open", replaced, raising=False)
    forks = _force_split(monkeypatch)
    assert _load_outcome(path) == parsed
    assert forks == [1] and _no_child_left()


def test_split_walk_needs_two_cpus_and_falls_back_when_fork_fails(tmp_path, monkeypatch):
    path = tmp_path / "problem.json"
    path.write_text(NEGATIVE_ZERO_PROBLEM, encoding="utf-8")
    alone = _load_outcome(path)
    forks = []

    def failing():
        forks.append(1)
        raise OSError("no process")

    monkeypatch.setattr(formats, "SPLIT_BYTES", 0)
    monkeypatch.setattr(os, "fork", failing, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    fds = _open_fds()
    assert _load_outcome(path) == alone and forks == [1] and _open_fds() == fds
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _load_outcome(path) == alone and forks == [1]
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _load_outcome(path) == alone and forks == [1]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.delattr(os, "fork")
    assert _load_outcome(path) == alone and forks == [1]


SRC = Path(formats.__file__).resolve().parents[1]
# a CLI run that would split every problem file, its output held unflushed
# across any fork, the number of forks last on stderr; given "split", it runs
# as on two CPUs
SPLIT_CLI = """\
import os, sys
from sec_transfer import formats
from sec_transfer.cli import main
formats.SPLIT_BYTES = 0
if sys.argv.pop(1) == "split":
    os.sched_getaffinity = lambda pid: {0, 1}
forks = []
fork = os.fork
os.fork = lambda: forks.append(1) or fork()
sys.stdout.write("<")
code = main(sys.argv[1:])
sys.stdout.write(">")
sys.stderr.write(f"forks {len(forks)}\\n")
sys.exit(code)
"""


@needs_fork
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="pins a run to one CPU")
@pytest.mark.parametrize("problem", ["plain", "odd-row", "even-row"])
def test_split_cli_run_prints_nothing_from_the_helper(problem, tmp_path):
    """Split, or pinned to one CPU, a CLI run prints the same; the helper prints nothing."""
    text = {
        "plain": NEGATIVE_ZERO_PROBLEM,
        "odd-row": _with_row("re", 1, REFUSED_ROWS["string"]),
        "even-row": _with_row("im", 2, REFUSED_ROWS["short"]),
    }[problem]
    path = tmp_path / "problem.json"
    path.write_text(text, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    split, alone = (
        subprocess.run([sys.executable, "-c", SPLIT_CLI, how, "decompose", "--input", str(path)],
                       env=env, capture_output=True, timeout=120, preexec_fn=pin)
        for how, pin in [("split", None), ("alone", lambda: os.sched_setaffinity(0, {0}))]
    )
    assert split.stderr.endswith(b"forks 1\n") and alone.stderr.endswith(b"forks 0\n")
    assert split.returncode == alone.returncode == (0 if problem == "plain" else 2)
    assert split.stdout == alone.stdout and split.stdout.count(b"<") == 1
    assert split.stdout.endswith(b">")
    assert split.stderr[:-8] == alone.stderr[:-8] and b"Traceback" not in split.stderr


def test_problem_walk_decodes_each_row_once_in_tiny_chunks(monkeypatch):
    """No state row is decoded twice, not even after a failed attempt on a cut row."""
    decode = orjson.loads
    rows = []  # every decode started on a row of floats, failed ones included

    def counted(text):
        if re.match(r"\[\s*-?\d+\.", text[:20]):
            rows.append(text[:6])
        return decode(text)

    monkeypatch.setattr(orjson, "loads", counted)
    monkeypatch.setattr(formats, "PROBLEM_CHUNK", 3)
    data = formats._walk_problem(WALK_CASES["spread"][0])
    assert len(rows) == 8
    assert data["state"]["re"].shape == data["state"]["im"].shape == (4, 4)


def test_problem_walk_retries_a_value_on_doubled_text(monkeypatch):
    """A value cut short is decoded again only once the text held has doubled."""
    note = json.dumps([0.5] * 2000)
    text = _swap('"state": {', f'"note": {note}, "state": {{')
    decode = formats._DECODE
    attempts = []

    def counted(text, at):
        if text.startswith("[0.5, 0.5", at):
            attempts.append(len(text) - at)
        return decode(text, at)

    monkeypatch.setattr(formats, "_DECODE", counted)
    monkeypatch.setattr(formats, "PROBLEM_CHUNK", 3)
    assert formats._walk_problem(text)["note"] == [0.5] * 2000
    # each retry holds at least twice the text, except the last, cut by the end of the file
    assert all(new >= 2 * old for old, new in zip(attempts, attempts[1:-1]))
    assert len(attempts) <= len(note).bit_length()


# The row decoder against json, one number at a time: the walk takes a number
# exactly where json reads it as a finite float, or an int, of magnitude below
# 2**63 (-2**63 itself included), and then with json's bits.


def _assert_walked_as_json(number: str) -> None:
    try:
        walked = formats._walk_problem('{"state": {"re": [[' + number + "]]}}")["state"]["re"]
    except (formats._Unwalkable, ValueError):
        walked = None
    value = json.loads(number)
    if type(value) is float:
        walks = math.isfinite(value) and abs(value) < 2**63
    else:
        walks = -(2**63) <= value < 2**63
    assert (walked is not None) is walks, number
    if walks:
        assert walked.view(np.int64)[0, 0] == np.float64(value).view(np.int64), number


HARD_NUMBERS = [
    "5e-324", "-5e-324", "4.9406564584124654e-324", "2.4703282292062327e-324",
    "2.4703282292062328e-324", "2.2250738585072009e-308", "2.2250738585072011e-308",
    "2.2250738585072014e-308", "1.7976931348623157e308", "1.7976931348623158e308",
    "0.1000000000000000055511151231257827", "0.1000000000000000055511151231257828",
    "1e-400", "-1e-400", "1e400", "-0.0", "-0", "0e999", "9007199254740993",
    "9007199254740993.0", "9223372036854775807", "9223372036854775808", "-9223372036854775808",
    "-9223372036854775809", "9223372036854775807.0", "9.2233720368547748e18", "1e19",
    "18446744073709551615", "18446744073709551616", "-18446744073709551616", "1" * 30,
]


@pytest.mark.parametrize("number", HARD_NUMBERS)
def test_row_decoder_reads_hard_numbers_as_json_does(number):
    _assert_walked_as_json(number)


DECODER = settings(max_examples=400, deadline=None, derandomize=True, database=None)


@DECODER
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_row_decoder_reads_the_repr_of_every_double_as_json_does(value):
    _assert_walked_as_json(repr(value))


@st.composite
def decimal_numbers(draw) -> str:
    """A JSON number of 1-40 significant digits, any point position, exponent -340 to 310."""
    digits = draw(st.text("0123456789", min_size=0, max_size=39))
    digits = draw(st.sampled_from("123456789")) + digits
    point = draw(st.integers(1, len(digits)))
    fraction = "." + digits[point:] if point < len(digits) else ""
    sign = draw(st.sampled_from(["", "-"]))
    return f"{sign}{digits[:point]}{fraction}e{draw(st.integers(-340, 310))}"


@DECODER
@given(decimal_numbers())
def test_row_decoder_reads_decimal_strings_as_json_does(number):
    _assert_walked_as_json(number)


@DECODER
@given(st.floats(min_value=0.0, max_value=1.7e308), st.integers(-1, 1),
       st.sampled_from(["", "-"]))
def test_row_decoder_reads_midpoints_between_doubles_as_json_does(value, offset, sign):
    """The exact midpoint of two adjacent doubles, or one unit of its last digit either side."""
    low, high = Fraction(value), Fraction(math.nextafter(value, math.inf))
    midpoint = (low + high) / 2  # a dyadic rational, so a finite decimal
    exponent = 0
    while midpoint.denominator != 1:
        midpoint *= 10
        exponent -= 1
    digits = int(midpoint) + offset
    _assert_walked_as_json(f"{sign}{digits}e{exponent}")


def _state_matrix_outcome(data):
    try:
        return formats._state_matrix(data["state"])[0].tobytes()
    except Exception as exc:  # the outcome under test includes the exception
        return type(exc), str(exc)


@pytest.mark.parametrize("case", [case for case, (_, walks) in WALK_CASES.items() if walks])
def test_walked_state_matrix_has_the_bits_of_read_json_before_admission(case):
    """Walked rows, integers included, give the complex matrix json's lists give, bit for bit."""
    text = WALK_CASES[case][0]
    walked = _state_matrix_outcome(formats._walk_problem(text))
    parsed = _state_matrix_outcome(json.loads(text, parse_constant=formats._reject_constant))
    assert walked == parsed


def test_problem_walk_matches_read_json_on_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "problem.json"
    path.write_bytes(NEGATIVE_ZERO_PROBLEM.encode().replace(b"0.375", b"0.3\xff5", 1))
    with pytest.raises(ValidationError) as walked:
        formats.load_problem(path)
    with pytest.raises(ValidationError) as parsed:
        formats.read_json(path)
    assert str(walked.value) == str(parsed.value)


def test_problem_walk_returns_float64_rows_and_the_rest_as_json(tmp_path):
    text = WALK_CASES["extra-keys"][0]
    data = formats._walk_problem(text)
    reference = json.loads(text)
    for key in ("re", "im"):
        rows = data["state"].pop(key)
        assert rows.dtype == np.float64 and rows.shape == (4, 4)
        expected = np.array(reference["state"].pop(key))
        np.testing.assert_array_equal(rows.view(np.int64), expected.view(np.int64))
    assert data == reference
    assert list(data) == list(reference) and list(data["state"]) == list(reference["state"])


def test_load_problem_state_keeps_the_matrix_it_was_handed(tmp_path, monkeypatch):
    path = tmp_path / "problem.json"
    path.write_text(NEGATIVE_ZERO_PROBLEM, encoding="utf-8")
    admit = formats.BipartiteState
    handed = []

    def watched(matrix, *args, **kwargs):
        handed.append(matrix.matrix)
        return admit(matrix, *args, **kwargs)

    monkeypatch.setattr(formats, "BipartiteState", watched)
    state = formats.load_problem(path)[3]
    assert state.matrix is handed[0] and not state.matrix.flags.writeable
    # a caller's own array is still copied, and stays writable
    mine = np.array(json.loads(NEGATIVE_ZERO_PROBLEM)["state"]["re"], dtype=complex)
    kept = admit(mine, (2, 2))
    assert not np.shares_memory(kept.matrix, mine) and mine.flags.writeable


def _band_state(d: int) -> np.ndarray:
    """A D x D state whose JSON text is short: 1/D on the diagonal, +-1/(4D) beside it."""
    rho = np.eye(d) / d
    beside = np.where(np.arange(d - 1) % 2 == 0, 0.25, -0.25) / d
    rho[np.arange(d - 1), np.arange(1, d)] = beside
    rho[np.arange(1, d), np.arange(d - 1)] = beside
    return rho


def test_load_problem_peak_memory_has_no_float_tree(tmp_path):
    """The traced peak across the whole load stays within its three phases.

    Reading holds the file's bytes and its text (2 x text), the walk the text
    and two float64 buffers (text + matrix), and admission the complex matrix
    and two D x D work buffers (3 x matrix).  Parsing the whole file instead
    holds 2 D^2 Python floats, over 4 x matrix on their own.
    """
    spec = ladder_spectrum(16, 16)
    rho = _band_state(256)
    path = tmp_path / "problem.json"
    payload = {
        "h_a": formats.hamiltonian_to_json(spec.h_a),
        "h_b": formats.hamiltonian_to_json(spec.h_b),
        "state": {"dims": [16, 16], "re": rho.tolist(), "im": np.zeros_like(rho).tolist()},
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    text_bytes = path.stat().st_size
    matrix_bytes = np.dtype(complex).itemsize * 256**2
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        formats.load_problem(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    phases = max(2 * text_bytes, text_bytes + matrix_bytes, 3 * matrix_bytes)
    assert peak <= 1.25 * phases


def test_load_problem_peak_memory_stays_below_the_file_size(tmp_path):
    """The file's text is never held whole, let alone twice.

    The largest phase is admission's three D x D complex buffers (3 MiB at
    D = 256), below the size of this report-formatted file (about 4 MiB).
    Reading the file whole held its bytes and its text at once.
    """
    spec = ladder_spectrum(16, 16)
    path = tmp_path / "problem.json"
    formats.dump_json(
        {
            "h_a": formats.hamiltonian_to_json(spec.h_a),
            "h_b": formats.hamiltonian_to_json(spec.h_b),
            "state": formats.state_to_json(random_state((16, 16), np.random.default_rng(5))),
        },
        path,
    )
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        formats.load_problem(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size
