"""The command-line contract on malformed input: exit 2 (or 3), never a traceback.

Each case is one input that used to be coerced silently or to end in an
uncaught exception.  Every failing run must print exactly one line on
stderr.
"""

import errno
import json
import os
import sys

import numpy as np
import pytest

from sec_transfer import (
    BipartiteState,
    NotAState,
    NumericalInvariantError,
    TwoQubitParams,
    ValidationError,
    formats,
    verify,
)
from sec_transfer import cli
from sec_transfer.cli import main
from sec_transfer.fixtures import ladder_spectrum, max_coherence_params

TWO_LEVEL = {"energies": [[0, 1], [1, 1]]}
MIXED = np.eye(4) / 4


def _problem(h_a=None, state=None):
    payload = {"h_a": h_a or TWO_LEVEL, "h_b": TWO_LEVEL}
    if state is not None:
        payload["state"] = state
    return payload


def _state(**overrides):
    return {"dims": [2, 2], "re": MIXED.tolist(), "im": np.zeros((4, 4)).tolist(), **overrides}


def _write(tmp_path, payload, name="problem.json") -> str:
    path = tmp_path / name
    text = payload if isinstance(payload, str) else json.dumps(payload)
    path.write_text(text, encoding="utf-8")
    return str(path)


def _exit_code(argv, capsys) -> int:
    code = main(argv)
    err = capsys.readouterr().err
    if code != 0:
        assert len(err.strip().splitlines()) == 1, err
        assert "Traceback" not in err
    return code


@pytest.mark.parametrize(
    "energy",
    [[1.5, 2], [1, 0], ["a", 1], [True, 1], ["1", 2]],
    ids=["float", "zero-denominator", "string", "bool", "numeric-string"],
)
def test_energy_must_be_an_integer_pair(energy, tmp_path, capsys):
    path = _write(tmp_path, _problem(h_a={"energies": [[0, 1], energy]}))
    argv = ["classify", "--input", path, "--target", "A", "--beta-a", "2", "--beta-b", "1"]
    assert _exit_code(argv, capsys) == 2
    with pytest.raises(ValidationError):
        formats.hamiltonian_from_json({"energies": [[0, 1], energy]})


@pytest.mark.parametrize(
    "labels",
    [5, "ge", [None, True], ["g", 1], None, ["g"]],
    ids=["number", "string", "null-and-bool", "mixed", "null", "too-few"],
)
def test_labels_must_be_an_array_of_strings(labels, tmp_path, capsys):
    h_a = {**TWO_LEVEL, "labels": labels}
    path = _write(tmp_path, _problem(h_a=h_a))
    argv = ["classify", "--input", path, "--target", "A", "--beta-a", "2", "--beta-b", "1"]
    assert _exit_code(argv, capsys) == 2
    with pytest.raises(ValidationError, match="labels"):
        formats.hamiltonian_from_json(h_a)
    assert formats.hamiltonian_from_json({**TWO_LEVEL, "labels": ["g", "e"]}).labels == ("g", "e")


@pytest.mark.parametrize(
    "dims", [4, [4], [2, "2"], [2.0, 2], [0, 4], [2, 2, 1], None],
    ids=["scalar", "one-entry", "string", "float", "zero", "three-entries", "null"],
)
def test_state_dims_must_be_two_positive_integers(dims, tmp_path, capsys):
    path = _write(tmp_path, _problem(state=_state(dims=dims)))
    assert _exit_code(["decompose", "--input", path], capsys) == 2


@pytest.mark.parametrize(
    "field, value",
    [
        ("re", [[0.25, 0, 0, 0], [0, 0.25, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]]),
        ("re", [["0.25", 0, 0, 0], [0, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]]),
        ("im", [[0, "x", 0, 0]] + [[0] * 4] * 3),
        ("im", [[0, True, 0, 0]] + [[0] * 4] * 3),
        ("im", [[0, None, 0, 0]] + [[0] * 4] * 3),
        ("re", [[True, 0, 0, 0], [0, False, 0, 0], [0, 0, False, 0], [0, 0, 0, False]]),
    ],
    ids=["ragged", "numeric-string", "string", "bool", "null", "bool-coerces-to-a-state"],
)
def test_state_entries_must_be_a_rectangular_array_of_numbers(field, value, tmp_path, capsys):
    path = _write(tmp_path, _problem(state=_state(**{field: value})))
    assert _exit_code(["decompose", "--input", path], capsys) == 2


def test_json_booleans_are_refused_by_name_in_states_and_unitary_blocks(tmp_path, capsys):
    # read as 1/0, each of these would be a valid state or block unitary
    coerced = [[True, 0, 0, 0], [0, False, 0, 0], [0, 0, False, 0], [0, 0, 0, False]]
    problem = _write(tmp_path, _problem(state=_state(re=coerced)))
    assert main(["decompose", "--input", problem]) == 2
    assert "'re' holds JSON booleans" in capsys.readouterr().err
    unitary = {"blocks": {e: {"re": [[1.0]], "im": [[0.0]]} for e in ("0", "2")}}
    unitary["blocks"]["1"] = {"re": [[1.0, 0.0], [0.0, True]], "im": [[0.0, 0.0], [0.0, 0.0]]}
    path = _write(tmp_path, unitary, "u.json")
    problem = _write(tmp_path, _problem(state=_state()))
    argv = ["analyze", "--input", problem, "--target", "A", "--unitary", path]
    assert main(argv) == 2
    assert "unitary block 1: 're' holds JSON booleans" in capsys.readouterr().err


def test_nan_off_diagonal_is_rejected(tmp_path, capsys):
    text = json.dumps(_problem(state=_state())).replace('"im": [[0.0, 0.0', '"im": [[0.0, NaN', 1)
    assert "NaN" in text
    path = _write(tmp_path, text)
    assert _exit_code(["optimize", "--input", path, "--target", "A"], capsys) == 2


def test_overflowing_entry_is_rejected(tmp_path, capsys):
    text = json.dumps(_problem(state=_state())).replace('"im": [[0.0, 0.0', '"im": [[0.0, 1e400', 1)
    assert "1e400" in text
    path = _write(tmp_path, text)
    assert _exit_code(["optimize", "--input", path, "--target", "A"], capsys) == 2


def test_state_admission_rejects_non_finite_entries():
    mat = MIXED.astype(complex)
    mat[0, 1] = mat[1, 0] = np.nan
    with pytest.raises(NotAState, match="non-finite"):
        BipartiteState(mat, (2, 2))


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_qubit_max_rejects_non_finite_tokens(token, tmp_path, capsys):
    path = _write(tmp_path, f'{{"p00": {token}, "p01": 0.3, "p10": 0.3, "p11": 0.4}}')
    assert _exit_code(["qubit-max", "--input", path, "--target", "A"], capsys) == 2


@pytest.mark.parametrize("raw", ['"0.25"', "true", "null"])
def test_qubit_max_rejects_non_numbers(raw, tmp_path, capsys):
    path = _write(tmp_path, f'{{"p00": {raw}, "p01": 0.25, "p10": 0.25, "p11": 0.25}}')
    assert _exit_code(["qubit-max", "--input", path, "--target", "A"], capsys) == 2


def test_two_qubit_params_reject_non_finite_fields():
    with pytest.raises(ValidationError, match="finite"):
        TwoQubitParams(float("nan"), 0.3, 0.3, 0.4)
    with pytest.raises(ValidationError, match="finite"):
        TwoQubitParams(0.25, 0.25, 0.25, 0.25, alpha=complex(0.0, float("inf")))


def test_unitary_file_rejects_non_finite_tokens(tmp_path, capsys):
    problem = _write(tmp_path, _problem(state=_state()))
    unitary = {"blocks": {e: {"re": [[1.0]], "im": [[0.0]]} for e in ("0", "2")}}
    unitary["blocks"]["1"] = {"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
    text = json.dumps(unitary).replace('"im": [[0.0]]', '"im": [[NaN]]', 1)
    path = _write(tmp_path, text, "u.json")
    argv = ["analyze", "--input", problem, "--target", "A", "--unitary", path]
    assert _exit_code(argv, capsys) == 2


def test_unitary_file_rejects_unparseable_block_keys(tmp_path, capsys):
    problem = _write(tmp_path, _problem(state=_state()))
    path = _write(tmp_path, {"blocks": {"one": {"re": [[1.0]], "im": [[0.0]]}}}, "u.json")
    argv = ["analyze", "--input", problem, "--target", "A", "--unitary", path]
    assert _exit_code(argv, capsys) == 2


def test_problem_file_must_be_an_object(tmp_path, capsys):
    path = _write(tmp_path, [1, 2])
    assert _exit_code(["decompose", "--input", path], capsys) == 2


def test_monte_carlo_rejects_zero_samples(tmp_path, capsys):
    path = _write(tmp_path, _problem(state=_state()))
    argv = ["optimize", "--input", path, "--target", "A", "--method", "monte-carlo",
            "--samples", "0", "--seed", "1"]
    assert main(argv) == 2
    assert "n_samples must be >= 1" in capsys.readouterr().err


def test_monte_carlo_samples_default_to_ten_thousand(tmp_path, capsys):
    path = _write(tmp_path, _problem(state=_state()))
    argv = ["optimize", "--input", path, "--target", "A", "--method", "monte-carlo",
            "--seed", "1"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["samples"] == 10000


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose"],
        ["analyze", "--target", "A"],
        ["optimize", "--target", "A"],
        ["classify", "--target", "A"],
        ["qubit-max", "--target", "A"],
        ["bell-scan"],
        ["verify"],
    ],
    ids=lambda argv: argv[0],
)
def test_bad_tolerance_exits_2_before_any_subcommand_runs(argv, capsys):
    assert _exit_code(argv + ["--tolerance", "psd=abc"], capsys) == 2


@pytest.mark.parametrize(
    "override", ["split=nan", "psd=-1", "herm=inf"], ids=["split-nan", "psd-negative", "herm-inf"]
)
def test_tolerance_refuses_non_finite_and_negative_values(tmp_path, capsys, override):
    problem = _write(tmp_path, _problem(state=_state()))
    argv = ["analyze", "--input", problem, "--target", "A", "--seed", "3"]
    assert main(argv + ["--tolerance", override]) == 2
    err = capsys.readouterr().err
    # the message matters: a negative psd bound also exits 2, by rejecting the valid state
    key = override.partition("=")[0]
    assert err.startswith(f"validation error: tolerance {key!r} ") and err.count("\n") == 1


def test_stdout_report_bytes_equal_output_file_bytes(tmp_path, capfd):
    params = _write(tmp_path, formats.two_qubit_params_to_json(max_coherence_params()))
    out = tmp_path / "report.json"
    assert main(["qubit-max", "--input", params, "--target", "A"]) == 0
    printed = capfd.readouterr().out.encode("utf-8")
    assert main(["qubit-max", "--input", params, "--target", "A", "--output", str(out)]) == 0
    assert printed == out.read_bytes()


def test_report_serialiser_refuses_non_finite_values(tmp_path):
    with pytest.raises(NumericalInvariantError):
        formats.format_json({"value": float("nan")})
    with pytest.raises(NumericalInvariantError):
        formats.dump_json({"value": float("inf")}, tmp_path / "x.json")
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
def test_non_finite_report_value_exits_3(to_file, tmp_path, capsys, monkeypatch):
    spec = ladder_spectrum(2, 2)
    problem = _write(tmp_path, {
        "h_a": formats.hamiltonian_to_json(spec.h_a),
        "h_b": formats.hamiltonian_to_json(spec.h_b),
        "state": formats.state_to_json(max_coherence_params().to_state()),
    })
    real = cli.maximize_transfer_exact

    def nan_valued(*args):
        result = real(*args)
        result.value = float("nan")
        return result

    monkeypatch.setattr(cli, "maximize_transfer_exact", nan_valued)
    out = tmp_path / "best.json"
    argv = ["optimize", "--input", problem, "--target", "A"]
    assert _exit_code(argv + (["--output", str(out)] if to_file else []), capsys) == 3
    assert not out.exists()


@pytest.mark.parametrize(
    "case",
    ["input-directory", "output-directory", "output-in-missing-directory", "bell-scan-directory"],
)
def test_io_error_exits_2_naming_path_and_reason(case, tmp_path, capsys):
    problem = _write(tmp_path, _problem(state=_state()))
    missing = tmp_path / "missing" / "report.json"
    argv, path, reason = {
        "input-directory": (["decompose", "--input", str(tmp_path)], tmp_path, "Is a directory"),
        "output-directory": (
            ["decompose", "--input", problem, "--output", str(tmp_path)], tmp_path, "Is a directory"
        ),
        "output-in-missing-directory": (
            ["decompose", "--input", problem, "--output", str(missing)],
            missing,
            "No such file or directory",
        ),
        "bell-scan-directory": (
            ["bell-scan", "--resolution", "3", "--output", str(tmp_path)], tmp_path, "Is a directory"
        ),
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert str(path) in err and reason in err


def test_error_writing_stdout_exits_2_without_a_file_name(tmp_path, capsys, monkeypatch):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        def flush(self):
            pass

    problem = _write(tmp_path, _problem(state=_state()))
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["decompose", "--input", problem]) == 2
    assert capsys.readouterr().err == f"validation error: {os.strerror(errno.EPIPE)}\n"


@pytest.mark.parametrize(
    "case, override",
    [
        ("verify", "split=0"),
        ("qubit-max", "trace=1e-6"),
        ("bell-scan", "herm=1e-6"),
        ("decompose", "split=1e-6"),
        ("optimize", "split=1e-6"),
        ("classify", "split=1e-6"),
    ],
    ids=lambda value: value.partition("=")[0],
)
def test_tolerance_a_subcommand_never_reads_is_refused(case, override, tmp_path, capsys):
    problem = _write(tmp_path, _problem(state=_state()))
    params = _write(tmp_path, formats.two_qubit_params_to_json(max_coherence_params()), "q.json")
    argv = {
        "verify": ["verify"],
        "qubit-max": ["qubit-max", "--input", params, "--target", "A"],
        "bell-scan": ["bell-scan", "--resolution", "3", "--output", str(tmp_path / "scan.csv")],
        "decompose": ["decompose", "--input", problem],
        "optimize": ["optimize", "--input", problem, "--target", "A"],
        "classify": ["classify", "--input", problem, "--target", "A"],
    }[case]
    assert main(argv + ["--tolerance", override]) == 2
    err = capsys.readouterr().err
    key = override.partition("=")[0]
    assert err.startswith(f"validation error: {case} does not use tolerance {key!r}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("case", ["problem", "unitary", "two-qubit"])
def test_input_that_is_not_utf8_exits_2_naming_path_and_offset(case, tmp_path, capsys):
    problem = _write(tmp_path, _problem(state=_state()))
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"h_a": "caf\xff"}')
    argv = {
        "problem": ["decompose", "--input", str(bad)],
        "unitary": ["analyze", "--input", problem, "--target", "A", "--unitary", str(bad)],
        "two-qubit": ["qubit-max", "--input", str(bad), "--target", "A"],
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert str(bad) in err and "0xff at offset 12" in err


@pytest.mark.parametrize(
    "message", ["", "Unable to allocate 3.64 TiB"], ids=["bare", "numpy-detail"]
)
def test_request_too_large_for_memory_exits_2(message, tmp_path, capsys, monkeypatch):
    def too_large(resolution):
        raise MemoryError(message) if message else MemoryError()

    monkeypatch.setattr(cli, "plane_scan", too_large)
    out = tmp_path / "scan.csv"
    assert main(["bell-scan", "--resolution", "1000000", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("validation error: the bell-scan request does not fit in memory")
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("case", ["problem", "unitary", "two-qubit"])
def test_malformed_json_exits_2_naming_path_and_position(case, tmp_path, capsys):
    problem = _write(tmp_path, _problem(state=_state()))
    bad = tmp_path / "bad.json"
    bad.write_text('{"h_a":\n  [1, 2,]}', encoding="utf-8")
    argv = {
        "problem": ["decompose", "--input", str(bad)],
        "unitary": ["analyze", "--input", problem, "--target", "A", "--unitary", str(bad)],
        "two-qubit": ["qubit-max", "--input", str(bad), "--target", "A"],
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"validation error: {bad}: malformed JSON (")
    assert "at line 2, column 9" in err


def test_verify_refuses_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert _exit_code(["verify", "--seed", "-3", "--output", str(out)], capsys) == 2
    assert not out.exists()
    with pytest.raises(ValidationError, match="nonnegative"):
        verify.run_all(-3)
    # the sampling seeds of the other subcommands stay free of sign
    path = _write(tmp_path, _problem(state=_state()))
    assert _exit_code(["analyze", "--input", path, "--target", "A", "--seed", "-3"], capsys) == 0
