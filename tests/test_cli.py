import csv
import json

import numpy as np
import pytest

from sec_transfer import formats, jsonio, verify
from sec_transfer.cli import main
from sec_transfer.fixtures import ladder_spectrum, max_coherence_params, random_state


@pytest.fixture
def problem_file(tmp_path):
    spec = ladder_spectrum(2, 2)
    path = tmp_path / "problem.json"
    formats.dump_json(
        {
            "h_a": formats.hamiltonian_to_json(spec.h_a),
            "h_b": formats.hamiltonian_to_json(spec.h_b),
            "state": formats.state_to_json(max_coherence_params().to_state()),
        },
        path,
    )
    return path


@pytest.fixture
def stateless_problem_file(tmp_path):
    spec = ladder_spectrum(2, 2)
    path = tmp_path / "bare.json"
    formats.dump_json(
        {
            "h_a": formats.hamiltonian_to_json(spec.h_a),
            "h_b": formats.hamiltonian_to_json(spec.h_b),
        },
        path,
    )
    return path


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_decompose_command(problem_file, tmp_path):
    out = tmp_path / "decomp.json"
    csv_out = tmp_path / "decomp.csv"
    code = main(
        [
            "decompose",
            "--input",
            str(problem_file),
            "--output",
            str(out),
            "--csv",
            str(csv_out),
        ]
    )
    assert code == 0
    payload = read_json(out)
    assert payload["p_E"]["1"] == pytest.approx(0.4)
    assert payload["coherence_blocks"] == ["1|1"]
    rows = list(csv.reader(csv_out.read_text().splitlines()))
    assert rows[0] == formats.DECOMP_CSV_HEADER


def test_analyze_with_seed(problem_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "analyze",
            "--input",
            str(problem_file),
            "--target",
            "A",
            "--seed",
            "7",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    payload = read_json(out)
    assert payload["total"] == pytest.approx(payload["diagonal"] + payload["coherent"])
    assert payload["unit"] == "hbar*omega"


def test_analyze_with_unitary_file(problem_file, tmp_path):
    from sec_transfer import sample_haar

    spec = ladder_spectrum(2, 2)
    u = sample_haar(spec, 7)
    u_path = tmp_path / "unitary.json"
    formats.dump_json(formats.sec_unitary_to_json(u), u_path)
    out_seed = tmp_path / "seeded.json"
    out_file = tmp_path / "from_file.json"
    assert (
        main(
            [
                "analyze",
                "--input",
                str(problem_file),
                "--target",
                "A",
                "--seed",
                "7",
                "--output",
                str(out_seed),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "analyze",
                "--input",
                str(problem_file),
                "--target",
                "A",
                "--unitary",
                str(u_path),
                "--output",
                str(out_file),
            ]
        )
        == 0
    )
    assert read_json(out_seed) == read_json(out_file)


def test_analyze_requires_unitary_or_seed(problem_file):
    assert main(["analyze", "--input", str(problem_file), "--target", "A"]) == 2


def test_optimize_exact_value(problem_file, tmp_path):
    out = tmp_path / "opt.json"
    code = main(
        ["optimize", "--input", str(problem_file), "--target", "A", "--output", str(out)]
    )
    assert code == 0
    payload = read_json(out)
    assert payload["value"] == pytest.approx(0.3, abs=1e-10)
    assert payload["method"] == "block_eigen_exact"
    # the reported unitary reproduces the value through the library
    from sec_transfer import transfer_direct

    spec = ladder_spectrum(2, 2)
    u = formats.sec_unitary_from_json(payload["unitary"], spec)
    assert transfer_direct(
        max_coherence_params().to_state(), u, "A"
    ) == pytest.approx(payload["value"], abs=1e-10)


def test_optimize_monte_carlo_requires_seed(problem_file, tmp_path):
    code = main(
        [
            "optimize",
            "--input",
            str(problem_file),
            "--target",
            "A",
            "--method",
            "monte-carlo",
            "--output",
            str(tmp_path / "x.json"),
        ]
    )
    assert code == 2


def test_optimize_monte_carlo_deterministic(problem_file, tmp_path):
    args = [
        "optimize",
        "--input",
        str(problem_file),
        "--target",
        "A",
        "--method",
        "monte-carlo",
        "--samples",
        "2000",
        "--seed",
        "5",
    ]
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert main(args + ["--output", str(first)]) == 0
    assert main(args + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    payload = read_json(first)
    assert payload["samples"] == 2000
    assert payload["value"] <= 0.3 + 1e-10


def test_classify_thermal_fixture(stateless_problem_file, tmp_path):
    out = tmp_path / "label.json"
    code = main(
        [
            "classify",
            "--input",
            str(stateless_problem_file),
            "--target",
            "A",
            "--beta-a",
            "2",
            "--beta-b",
            "1",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    payload = read_json(out)
    assert payload["direction"] == "A_from_B"
    assert payload["failing_blocks"] == []
    assert payload["has_useful_coherence"] is False


def test_classify_passive_max_active(stateless_problem_file, tmp_path):
    out = tmp_path / "label.json"
    code = main(
        [
            "classify",
            "--input",
            str(stateless_problem_file),
            "--target",
            "A",
            "--probs-a",
            "0.8,0.2",
            "--probs-b",
            "0.3,0.7",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    assert read_json(out)["direction"] == "A_from_B"


def test_classify_rejects_mixed_constructors(stateless_problem_file, tmp_path):
    code = main(
        [
            "classify",
            "--input",
            str(stateless_problem_file),
            "--target",
            "A",
            "--beta-a",
            "2",
            "--beta-b",
            "1",
            "--probs-a",
            "0.8,0.2",
            "--probs-b",
            "0.3,0.7",
        ]
    )
    assert code == 2


def test_classify_needs_state_or_constructor(stateless_problem_file):
    assert main(["classify", "--input", str(stateless_problem_file), "--target", "A"]) == 2


def test_qubit_max_command(tmp_path):
    params_path = tmp_path / "params.json"
    formats.dump_json(
        jsonio.two_qubit_params_to_json(max_coherence_params()), params_path
    )
    out = tmp_path / "qmax.json"
    code = main(
        ["qubit-max", "--input", str(params_path), "--target", "A", "--output", str(out)]
    )
    assert code == 0
    payload = read_json(out)
    assert payload["value"] == pytest.approx(0.3, abs=1e-12)
    assert payload["r_star"] ** 2 == pytest.approx(0.75, abs=1e-12)
    assert payload["alpha_optimized"] is True


def test_bell_scan_smallest_grid(tmp_path):
    out = tmp_path / "scan.csv"
    code = main(["bell-scan", "--resolution", "3", "--output", str(out)])
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert len(rows) == 7
    assert rows[0] == ["c_x", "c_y", "c_z", "max_transfer", "concurrence", "separable"]
    apex = [row for row in rows[1:] if row[0] == "0.0" and row[2] == "1.0"]
    assert len(apex) == 1
    assert float(apex[0][3]) == 0.0


def test_bell_scan_deterministic(tmp_path):
    first = tmp_path / "one.csv"
    second = tmp_path / "two.csv"
    assert main(["bell-scan", "--resolution", "41", "--output", str(first)]) == 0
    assert main(["bell-scan", "--resolution", "41", "--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_reports_go_to_stdout_without_output_flag(problem_file, capsys):
    assert main(["optimize", "--input", str(problem_file), "--target", "A"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(0.3, abs=1e-10)


def test_missing_input_is_validation_error(tmp_path):
    assert main(["decompose", "--input", str(tmp_path / "nope.json")]) == 2


def test_malformed_json_is_validation_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["decompose", "--input", str(path)]) == 2


def test_invalid_state_is_validation_error(tmp_path):
    spec = ladder_spectrum(2, 2)
    path = tmp_path / "bad.json"
    formats.dump_json(
        {
            "h_a": formats.hamiltonian_to_json(spec.h_a),
            "h_b": formats.hamiltonian_to_json(spec.h_b),
            "state": {"dims": [2, 2], "re": np.eye(4).tolist(), "im": np.zeros((4, 4)).tolist()},
        },
        path,
    )
    assert main(["decompose", "--input", str(path)]) == 2


def test_tolerance_override_accepts_loose_trace(tmp_path, rng):
    spec = ladder_spectrum(2, 2)
    state = random_state((2, 2), rng)
    slightly_off = state.matrix * (1 + 5e-10)
    path = tmp_path / "loose.json"
    formats.dump_json(
        {
            "h_a": formats.hamiltonian_to_json(spec.h_a),
            "h_b": formats.hamiltonian_to_json(spec.h_b),
            "state": {
                "dims": [2, 2],
                "re": np.real(slightly_off).tolist(),
                "im": np.imag(slightly_off).tolist(),
            },
        },
        path,
    )
    assert main(["decompose", "--input", str(path)]) == 2
    assert (
        main(["decompose", "--input", str(path), "--tolerance", "trace=1e-6"]) == 0
    )


def _problem_with_matrix(tmp_path, matrix) -> str:
    spec = ladder_spectrum(2, 2)
    path = tmp_path / "state.json"
    formats.dump_json(
        {
            "h_a": formats.hamiltonian_to_json(spec.h_a),
            "h_b": formats.hamiltonian_to_json(spec.h_b),
            "state": {
                "dims": [2, 2],
                "re": np.real(matrix).tolist(),
                "im": np.imag(matrix).tolist(),
            },
        },
        path,
    )
    return str(path)


def test_tolerance_override_reaches_the_hermiticity_check(tmp_path, rng, capsys):
    matrix = random_state((2, 2), rng).matrix.copy()
    matrix[0, 1] += 1e-8
    path = _problem_with_matrix(tmp_path, matrix)
    assert main(["decompose", "--input", path]) == 2
    assert "not Hermitian" in capsys.readouterr().err
    assert main(["decompose", "--input", path, "--tolerance", "herm=1e-6"]) == 0


def test_tolerance_override_reaches_the_psd_check(tmp_path, capsys):
    path = _problem_with_matrix(tmp_path, np.diag([0.4 + 1e-6, 0.3, 0.3, -1e-6]))
    assert main(["decompose", "--input", path]) == 2
    assert "not positive semidefinite" in capsys.readouterr().err
    assert main(["decompose", "--input", path, "--tolerance", "psd=1e-5"]) == 0


def test_unknown_tolerance_key(problem_file):
    assert (
        main(["decompose", "--input", str(problem_file), "--tolerance", "zzz=1"]) == 2
    )


def test_verify_command(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = main(["verify", "--seed", "20240801", "--output", str(out)])
    assert code == 0
    table = capsys.readouterr().out
    assert "PASS" in table
    assert "FAIL" not in table
    payload = read_json(out)
    assert all(check["passed"] for check in payload["checks"])


def test_verify_defaults_to_one_seed_and_reports_registry_rows(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--output", str(out)]) == 0
    payload = read_json(out)
    assert payload["seed"] == 20240801
    names = [check["name"] for check in payload["checks"]]
    assert names == [check.name for check in verify.ALL_CHECKS]
    assert len(set(names)) == len(names) == 14


def test_verify_passes_for_a_seed_that_once_failed_by_chance():
    assert main(["verify", "--seed", "888"]) == 0


def test_verify_gate_fails_when_the_split_breaks(tmp_path, capsys, monkeypatch):
    real = verify.transfer_coherent

    def shifted(*args):
        value, per_block = real(*args)
        return value + 1e-9, per_block

    monkeypatch.setattr(verify, "transfer_coherent", shifted)
    out = tmp_path / "verify.json"
    assert main(["verify", "--output", str(out)]) == 3
    table = capsys.readouterr().out.splitlines()
    assert any(line.startswith("transfer split ") and "  FAIL  " in line for line in table)
    rows = {check["name"]: check["passed"] for check in read_json(out)["checks"]}
    assert rows["transfer split"] is False


def _classify(args, tmp_path, name):
    out = tmp_path / name
    assert main(["classify", *args, "--target", "A", "--output", str(out)]) == 0
    return out


def test_classify_reports_are_byte_identical(problem_file, stateless_problem_file, tmp_path):
    for args in (
        ["--input", str(problem_file)],
        ["--input", str(stateless_problem_file), "--beta-a", "2", "--beta-b", "1"],
    ):
        first = _classify(args, tmp_path, "first.json")
        second = _classify(args, tmp_path, "second.json")
        assert first.read_bytes() == second.read_bytes()


def test_classify_reports_zero_min_transfer_for_a_thermal_member(
    stateless_problem_file, tmp_path
):
    args = ["--input", str(stateless_problem_file), "--beta-a", "2", "--beta-b", "1"]
    out = _classify(args, tmp_path, "label.json")
    payload = read_json(out)
    assert payload["direction"] == "A_from_B"
    assert np.isfinite(payload["min_transfer"])
    assert payload["min_transfer"] == 0.0
    assert '"min_transfer": 0.0,' in out.read_text(encoding="utf-8")


def test_classify_min_transfer_is_minus_the_optimum_for_the_other_side(
    problem_file, tmp_path
):
    payload = read_json(_classify(["--input", str(problem_file)], tmp_path, "label.json"))
    best = tmp_path / "best.json"
    assert main(["optimize", "--input", str(problem_file), "--target", "B",
                 "--output", str(best)]) == 0
    assert payload["direction"] == "none"
    assert np.isfinite(payload["min_transfer"])
    assert payload["min_transfer"] < 0.0
    assert abs(payload["min_transfer"] + read_json(best)["value"]) <= 1e-12
