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
