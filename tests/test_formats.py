import csv
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from sec_transfer import (
    Hamiltonian,
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
    h = Hamiltonian((Fraction(0), Fraction(1, 2), Fraction(3, 2)), labels=("a", "b", "c"))
    payload = formats.hamiltonian_to_json(h)
    assert payload == {"energies": [[0, 1], [1, 2], [3, 2]], "labels": ["a", "b", "c"]}
    assert formats.hamiltonian_from_json(payload) == h


def test_hamiltonian_json_rejects_bare_floats():
    with pytest.raises(ValidationError):
        formats.hamiltonian_from_json({"energies": [0.0, 1.0]})


def test_state_roundtrip(rng):
    state = random_state((3, 2), rng)
    payload = formats.state_to_json(state)
    assert payload["dims"] == [3, 2]
    back = formats.state_from_json(payload)
    np.testing.assert_array_equal(back.matrix, state.matrix)


def test_unitary_roundtrip(rng):
    spec = ladder_spectrum(3, 2)
    u = sample_haar(spec, 12)
    payload = formats.sec_unitary_to_json(u)
    assert set(payload["blocks"]) == {"0", "1", "2", "3"}
    back = formats.sec_unitary_from_json(payload, spec)
    for energy in u.blocks:
        np.testing.assert_array_equal(back.blocks[energy], u.blocks[energy])


def test_transfer_report_fields(two_qubit_spec):
    state = max_coherence_params().to_state()
    report = analyze(state, sample_haar(two_qubit_spec, 0), "A")
    payload = formats.transfer_report_to_json(report)
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


def test_optimization_result_unitary_by_reference(rng):
    from sec_transfer import maximize_transfer_exact

    spec = ladder_spectrum(2, 2)
    result = maximize_transfer_exact(max_coherence_params().to_state(), spec, "A")
    inline = formats.optimization_result_to_json(result)
    assert "blocks" in inline["unitary"]
    referenced = formats.optimization_result_to_json(result, unitary_path="best_u.json")
    assert referenced["unitary"] == {"path": "best_u.json"}
    assert referenced["value"] == inline["value"]


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
    "overflow": (_swap(_ROW0, "[0.25, 1e400, -0.0, -0.0]"), True),
    "underflow-to-zero": (_swap(_ROW0, "[0.25, -1e-400, -0.0, -0.0]"), True),
    "integer-entries": (_swap("-0.0", "0", -1), False),
    "one-integer": (_swap("0.25", "1", 1), False),
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
