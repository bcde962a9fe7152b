"""The command-line contract on malformed input: exit 2 (or 3), never a traceback.

Each case is one input that used to be coerced silently or to end in an
uncaught exception.  Every failing run must print exactly one line on
stderr.
"""

import errno
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from sec_transfer import (
    BipartiteState,
    build_joint_spectrum,
    NotAState,
    NumericalInvariantError,
    TwoQubitParams,
    ValidationError,
    formats,
    verify,
)
from sec_transfer import cli, jsonio
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


IDENTITY_2 = {"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
SWAP_2 = {"re": [[0.0, 1.0], [1.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}


@pytest.mark.parametrize(
    "keys, named",
    [(("0", "1"), "['0', '1']"), (("0", "1", "2", "3"), "['0', '1', '2', '3']")],
    ids=["missing", "extra"],
)
def test_unitary_block_keys_must_match_the_spectrum(keys, named, tmp_path, capsys):
    problem = _write(tmp_path, _problem(state=_state()))
    blocks = {key: {"re": [[1.0]], "im": [[0.0]]} for key in keys}
    blocks["1"] = IDENTITY_2
    path = _write(tmp_path, {"blocks": blocks}, "u.json")
    argv = ["analyze", "--input", problem, "--target", "A", "--unitary", path]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"validation error: unitary blocks {named} do not match spectrum "
        "blocks ['0', '1', '2']\n"
    )


@pytest.mark.parametrize("swap_last", [True, False], ids=["swap-later", "identity-later"])
def test_two_keys_naming_one_energy_keep_the_later_block(swap_last, tmp_path, capsys):
    # p01 = 0.3 and p10 = 0.1: the E=1 swap moves 0.2 onto A, the identity nothing
    probs = np.diag([0.35, 0.3, 0.1, 0.25])
    problem = _write(tmp_path, _problem(state=_state(re=probs.tolist())))
    first, later = (IDENTITY_2, SWAP_2) if swap_last else (SWAP_2, IDENTITY_2)
    phase = {"re": [[1.0]], "im": [[0.0]]}
    blocks = {"0": phase, "1": first, "2": phase, "2/2": later}
    path = _write(tmp_path, {"blocks": blocks}, "u.json")
    argv = ["analyze", "--input", problem, "--target", "A", "--unitary", path]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["total"] == pytest.approx(0.2 if swap_last else 0.0, abs=1e-15)
    assert set(report["per_block_diagonal"]) == {"0", "1", "2"}


def test_problem_file_must_be_an_object(tmp_path, capsys):
    path = _write(tmp_path, [1, 2])
    assert _exit_code(["decompose", "--input", path], capsys) == 2


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="reads /dev/stdin")
@pytest.mark.parametrize(
    "text, code",
    [
        (json.dumps(_problem(state=_state())).encode(), 0),
        (b'{"h_a":\n  [1, 2,]}', 2),
        (b'{"h_a": "caf\xff"}', 2),
    ],
    ids=["valid", "malformed", "not-utf8"],
)
def test_problem_file_read_from_a_pipe_reads_as_by_path(text, code, tmp_path):
    """A pipe has no size and reads once: it is parsed whole, as the same file by path."""
    path = tmp_path / "problem.json"
    path.write_bytes(text)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    piped, by_path = (
        subprocess.run([sys.executable, "-m", "sec_transfer.cli", "decompose", "--input", name],
                       input=text, env=env, capture_output=True, timeout=120)
        for name in ["/dev/stdin", str(path)]
    )
    assert piped.returncode == by_path.returncode == code
    assert piped.stdout == by_path.stdout
    assert piped.stderr == by_path.stderr.replace(str(path).encode(), b"/dev/stdin")
    if code:
        assert piped.stderr.count(b"\n") == 1 and b"/dev/stdin: " in piped.stderr


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
    params = _write(tmp_path, jsonio.two_qubit_params_to_json(max_coherence_params()))
    out = tmp_path / "report.json"
    assert main(["qubit-max", "--input", params, "--target", "A"]) == 0
    printed = capfd.readouterr().out.encode("utf-8")
    assert main(["qubit-max", "--input", params, "--target", "A", "--output", str(out)]) == 0
    assert printed == out.read_bytes()


def test_report_serialiser_refuses_non_finite_values(tmp_path):
    with pytest.raises(NumericalInvariantError):
        jsonio.format_json({"value": float("nan")})
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
    params = _write(tmp_path, jsonio.two_qubit_params_to_json(max_coherence_params()), "q.json")
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


@pytest.mark.parametrize("case", ["problem", "unitary", "two-qubit"])
@pytest.mark.parametrize(
    "text, reason",
    [
        ("[" * 200000 + "]" * 200000, "JSON nested too deeply to read"),
        ('{"p00": ' + "1" * 4301 + "}", "JSON number too long to read"),
    ],
    ids=["deep-nesting", "long-integer"],
)
def test_json_past_the_parser_limits_exits_2_naming_path(case, text, reason, tmp_path, capsys):
    problem = _write(tmp_path, _problem(state=_state()))
    bad = _write(tmp_path, text, "bad.json")
    argv = {
        "problem": ["decompose", "--input", bad],
        "unitary": ["analyze", "--input", problem, "--target", "A", "--unitary", bad],
        "two-qubit": ["qubit-max", "--input", bad, "--target", "A"],
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"validation error: {bad}: {reason}")


def test_numbers_too_large_for_a_double_exit_2(tmp_path, capsys):
    params = _write(tmp_path, '{"p00": 1' + "0" * 400 + ', "p01": 0.3, "p10": 0.3, "p11": 0.4}')
    assert _exit_code(["qubit-max", "--input", params, "--target", "A"], capsys) == 2
    huge = {"energies": [[0, 1], [10**400, 1]]}
    problem = _write(tmp_path, _problem(h_a=huge, state=_state()))
    assert _exit_code(["decompose", "--input", problem], capsys) == 2
    with pytest.raises(ValidationError, match="within double range"):
        formats.hamiltonian_from_json(huge)
    # each level within range, their spread past it: a transfer would overflow
    wide = {"energies": [[-15 * 10**307, 1], [15 * 10**307, 1]]}
    on_01 = np.zeros((4, 4))
    on_01[1, 1] = 1
    runs = [
        (_problem(h_a=wide, state=_state()), ["analyze", "--target", "A", "--seed", "1"]),
        ({"h_a": wide, "h_b": wide, "state": _state(re=on_01.tolist())},
         ["optimize", "--target", "A"]),
        ({"h_a": wide, "h_b": wide, "state": _state(re=on_01.tolist())},
         ["classify", "--target", "A", "--beta-a", "0", "--beta-b", "0"]),
    ]
    for payload, argv in runs:
        problem = _write(tmp_path, payload)
        assert _exit_code(argv + ["--input", problem], capsys) == 2
    with pytest.raises(ValidationError, match="spread must lie within double range"):
        formats.hamiltonian_from_json(wide)


@pytest.mark.parametrize(
    "argv",
    [["decompose"], ["analyze", "--seed", "1", "--target", "A"], ["optimize", "--target", "A"]],
    ids=lambda argv: argv[0],
)
def test_block_energies_too_long_to_print_exit_2(argv, tmp_path, capsys):
    n = 10**2200
    h_a = {"energies": [[0, 1], [n + 1, n]]}
    h_b = {"energies": [[0, 1], [n + 2, n + 1]]}
    problem = _write(tmp_path, {"h_a": h_a, "h_b": h_b, "state": _state()})
    assert _exit_code(argv + ["--input", problem], capsys) == 2
    with pytest.raises(ValidationError, match="digits, too long to write"):
        build_joint_spectrum(formats.hamiltonian_from_json(h_a), formats.hamiltonian_from_json(h_b))


@pytest.mark.parametrize("probs", [("nan,0.5", "0.5,0.5"), ("0.5,0.5", "0.5,nan")], ids=["a", "b"])
def test_nan_probabilities_are_refused_by_name(probs, tmp_path, capsys):
    path = _write(tmp_path, _problem())
    argv = ["classify", "--input", path, "--target", "A", "--probs-a", probs[0],
            "--probs-b", probs[1]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "must be finite" in err


@pytest.mark.parametrize("energies", [5, "0,1", {"0": 1}], ids=["number", "string", "object"])
def test_energies_must_be_an_array(energies, tmp_path, capsys):
    path = _write(tmp_path, _problem(h_a={"energies": energies}, state=_state()))
    assert _exit_code(["decompose", "--input", path], capsys) == 2
    with pytest.raises(ValidationError, match="energies must be an array"):
        formats.hamiltonian_from_json({"energies": energies})


def test_coherence_too_large_to_square_exits_2(tmp_path, capsys):
    # |alpha| past 1e154 overflows when squared
    quad = '"p00": 0.25, "p01": 0.25, "p10": 0.25, "p11": 0.25'
    path = _write(tmp_path, f'{{{quad}, "alpha_re": 1e200}}')
    assert _exit_code(["qubit-max", "--input", path, "--target", "A"], capsys) == 2
    with pytest.raises(ValidationError, match="coherence too large"):
        TwoQubitParams(0.25, 0.25, 0.25, 0.25, alpha=complex(1e200, 0.0))


LADDER_3 = {"energies": [[0, 1], [1, 1], [2, 1]]}
# a 3 x 3 ladder state whose flat trace admission reads as exactly 1 at trace=0,
# while its block sums, added in block order, give 0.9999999999999998
BLOCK_ORDER_SUM = np.diag([
    0.2055887832918213, 0.1915047953483203, 0.03590512016677543, 0.02339526104813214,
    0.13578994394768917, 0.05975588516890474, 0.0948730597760198, 0.11641186405933618,
    0.13677528719300086,
])
# the |01><10| coherence passes p01 p10 by 4e-11: lowest eigenvalue -8e-11, within psd
POPULATION_BOUND = np.diag([0.25, 0.3, 0.2, 0.25])
POPULATION_BOUND[1, 2] = POPULATION_BOUND[2, 1] = np.sqrt(0.06 + 4e-11)
# admitted states, each at the edge of a bound that a second check could apply
EDGE_STATES = {
    "block-order-sum": (
        {"h_a": LADDER_3, "h_b": LADDER_3, "state": {
            "dims": [3, 3], "re": BLOCK_ORDER_SUM.tolist(), "im": np.zeros((9, 9)).tolist()}},
        ["--tolerance", "trace=0"],
    ),
    "population-bound": (_problem(state=_state(re=POPULATION_BOUND.tolist())), []),
    "negative-population": (
        _problem(state=_state(re=np.diag([0.4, -5e-7, 0.3, 0.3 + 5e-7]).tolist())),
        ["--tolerance", "psd=1e-6"],
    ),
}


@pytest.mark.parametrize("case", sorted(EDGE_STATES))
def test_an_admitted_state_is_never_judged_again(case, tmp_path, capsys):
    payload, flags = EDGE_STATES[case]
    path = _write(tmp_path, payload)
    for argv in (["decompose"], ["analyze", "--seed", "1", "--target", "A"],
                 ["optimize", "--target", "A"], ["classify", "--target", "A"],
                 ["optimize", "--method", "diagonal", "--target", "A"]):
        assert main(argv + ["--input", path] + flags) == 0, argv
        assert capsys.readouterr().err == ""


def test_a_product_of_checked_marginals_is_not_admitted_again(tmp_path, capsys):
    # each marginal is within its own 1e-12 sum bound; their product's trace is not
    path = _write(tmp_path, _problem())
    argv = ["classify", "--input", path, "--target", "A",
            "--probs-a", "0.6,0.4000000000009", "--probs-b", "0.3,0.7000000000009"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["direction"] == "A_from_B"


@pytest.mark.parametrize("command", ["bell-scan", "verify"])
def test_input_a_subcommand_never_reads_is_refused(command, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [command, "--input", str(tmp_path / "missing.json"), "--output", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"validation error: {command} does not use --input\n"
    assert not out.exists()


def test_thermal_weight_that_overflows_to_zero_is_silent(tmp_path, capsys):
    from sec_transfer import Hamiltonian, gibbs_probabilities

    wide = {"energies": [[0, 1], [17 * 10**307, 1]]}
    path = _write(tmp_path, {"h_a": wide, "h_b": wide})
    argv = ["classify", "--input", path, "--target", "B", "--beta-a", "1e300", "--beta-b", "0"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
        probs = gibbs_probabilities(Hamiltonian([0, 17 * 10**307]), 1e300)
    assert capsys.readouterr().err == ""
    assert probs.tolist() == [1.0, 0.0]


def test_unnormalised_marginal_is_named_with_a_plain_float(tmp_path, capsys):
    path = _write(tmp_path, _problem())
    argv = ["classify", "--input", path, "--target", "A",
            "--probs-a", "0.6,0.4000001", "--probs-b", "0.3,0.7"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "validation error: probs_a must sum to 1 within 1e-12, got 1.0000001\n"
    )


@pytest.mark.parametrize("command", ["decompose", "analyze", "optimize", "classify", "qubit-max"])
def test_a_subcommand_that_reads_a_file_requires_input(command, capsys):
    argv = [command] if command == "decompose" else [command, "--target", "A"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"validation error: {command} requires --input\n"


# flags refused on their own, whatever the problem file holds
FLAG_REFUSALS = {
    "analyze-no-unitary-or-seed": (["analyze"], "analyze needs --unitary FILE or --seed N"),
    "monte-carlo-no-seed": (["optimize", "--method", "monte-carlo"],
                            "optimize --method monte-carlo requires --seed"),
    "two-constructors": (["classify", "--beta-a", "1", "--probs-a", "1"],
                         "choose one of thermal or passive/max-active flags"),
    "one-beta": (["classify", "--beta-a", "1"],
                 "thermal constructor needs both --beta-a and --beta-b"),
    "one-marginal": (["classify", "--probs-b", "1"],
                     "passive/max-active constructor needs both --probs-a and --probs-b"),
}


@pytest.mark.parametrize("case", sorted(FLAG_REFUSALS))
def test_flag_errors_are_reported_before_the_file_is_read(case, tmp_path, capsys):
    flags, message = FLAG_REFUSALS[case]
    argv = flags + ["--target", "A", "--input", str(tmp_path / "missing.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"validation error: {message}\n"


def test_constructor_refuses_marginals_whose_slack_adds_up(tmp_path, capsys):
    ladder = {"energies": [[k, 1] for k in range(4)]}
    path = _write(tmp_path, {"h_a": ladder, "h_b": ladder})
    # each step up is inside the 1e-12 passivity slack, the three together are not
    creeping = ["0.249999999998515", "0.249999999999505", "0.250000000000495",
                "0.250000000001485"]
    argv = ["classify", "--input", path, "--target", "A",
            "--probs-a", ",".join(creeping), "--probs-b", ",".join(creeping[::-1])]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "validation error: probs_a must be non-increasing with energy (slack 1e-12) "
        "to be passive\n"
    )
