"""Mutated input files and tolerances through ``cli.main``: exit 0, 2 or 3, nothing else.

Each example starts from a valid problem, unitary or two-qubit file, changes
one node of its JSON tree (or one entry or row of the state's ``re``/``im``
arrays) and runs a subcommand on it, sometimes with a ``--tolerance``
override.  No exception may escape ``main``, and every report printed on
exit 0 must parse as JSON without a non-finite value.  The mutated problem
files are also read in chunks of a few characters, which must give what
``read_json`` gives.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sec_transfer import formats, jsonio, sample_haar
from sec_transfer.cli import main
from sec_transfer.fixtures import ladder_spectrum, max_coherence_params, random_state

FUZZ = settings(max_examples=120, deadline=None, derandomize=True, database=None)

HUGE = 10**400
# a value put in place of one node of a JSON tree
VALUES = st.one_of(
    st.integers(-3, 3),
    st.just(HUGE),
    st.just(-HUGE),
    st.booleans(),
    st.none(),
    st.sampled_from(["", "1", "1/0", "x"]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.just([]),
    st.just({}),
)
ENTRIES = st.sampled_from([0, 1, True, False, HUGE, None, "0.5", 1e300])
# no override, or one --tolerance flag with a key and value of any validity
TOLERANCES = st.one_of(
    st.just([]),
    st.builds(
        lambda key, value: ["--tolerance", f"{key}={value}"],
        st.sampled_from(["herm", "trace", "psd", "split", "zero"]),
        st.sampled_from(["0", "1e-9", "1", "1e300", "-1", "nan", "inf", "x", ""]),
    ),
)


def _problem(dims, seed) -> dict:
    spec = ladder_spectrum(*dims)
    state = random_state(dims, np.random.default_rng(seed))
    return {
        "h_a": formats.hamiltonian_to_json(spec.h_a),
        "h_b": formats.hamiltonian_to_json(spec.h_b),
        "state": formats.state_to_json(state),
    }


def _nodes(tree, path=()):
    """Every path into a JSON tree, the root included."""
    yield path
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            yield from _nodes(value, path + (i,))


def _replace(tree, path, value, delete=False):
    if not path:
        return value
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    if delete and isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return tree


def _mutate(data, tree):
    """One node of ``tree`` replaced, wrapped in a list, or deleted."""
    path = data.draw(st.sampled_from(list(_nodes(tree))))
    how = data.draw(st.sampled_from(["value", "nest", "delete"]))
    old = tree
    for key in path:
        old = old[key]
    value = [old] if how == "nest" else data.draw(VALUES)
    return _replace(tree, path, value, delete=how == "delete")


def _mutate_rows(data, state):
    """One entry or row of ``re`` or ``im`` replaced, nested, cut or grown."""
    rows = state[data.draw(st.sampled_from(["re", "im"]))]
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(rows[i]) - 1))
    how = data.draw(st.sampled_from(["entry", "nest-entry", "nest-row", "cut", "grow"]))
    if how == "entry":
        rows[i][j] = data.draw(ENTRIES)
    elif how == "nest-entry":
        rows[i][j] = [rows[i][j]]
    elif how == "nest-row":
        rows[i] = [rows[i]]
    elif how == "cut":
        del rows[i][j]
    else:
        rows[i].append(0.0)
    return state


def _run(argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (code, argv)
    if code == 0:
        if out.getvalue():
            json.loads(out.getvalue(), parse_constant=_no_constant)
    else:
        message = err.getvalue()
        assert message.count("\n") == 1 and "Traceback" not in message, message


def _no_constant(token):
    raise AssertionError(f"report holds {token}")


def _write(directory, name, tree) -> str:
    path = Path(directory) / name
    path.write_text(json.dumps(tree), encoding="utf-8")
    return str(path)


DIMS = st.tuples(st.integers(2, 3), st.integers(2, 3))
PROBLEM_COMMANDS = st.sampled_from([
    ["decompose"],
    ["analyze", "--target", "A", "--seed", "1"],
    ["optimize", "--target", "B"],
    ["optimize", "--target", "A", "--method", "diagonal"],
    ["classify", "--target", "A"],
])


@FUZZ
@given(data=st.data(), dims=DIMS, seed=st.integers(0, 3), command=PROBLEM_COMMANDS,
       rows=st.booleans(), tol=TOLERANCES)
def test_mutated_problem_files(data, dims, seed, command, rows, tol):
    problem = _problem(dims, seed)
    if rows:
        _mutate_rows(data, problem["state"])
    else:
        problem = _mutate(data, problem)
    with tempfile.TemporaryDirectory() as directory:
        path = _write(directory, "problem.json", problem)
        _run([*command, "--input", path, *tol])


def _load_outcome(path):
    try:
        h_a, h_b, spec, state = formats.load_problem(path)
    except Exception as exc:  # the outcome under test includes the exception
        return type(exc), str(exc)
    return h_a, h_b, spec, None if state is None else state.matrix.tobytes()


@FUZZ
@given(data=st.data(), dims=DIMS, seed=st.integers(0, 3), rows=st.booleans(),
       chunk=st.integers(1, 5))
def test_mutated_problem_files_read_in_tiny_chunks(data, dims, seed, rows, chunk):
    problem = _problem(dims, seed)
    if rows:
        _mutate_rows(data, problem["state"])
    else:
        problem = _mutate(data, problem)
    with tempfile.TemporaryDirectory() as directory:
        path = _write(directory, "problem.json", problem)
        with mock.patch.object(formats, "PROBLEM_CHUNK", chunk):
            walked = _load_outcome(path)
        with mock.patch.object(formats, "_read_problem", formats.read_json):
            parsed = _load_outcome(path)
    assert walked == parsed


@FUZZ
@given(data=st.data(), dims=DIMS, seed=st.integers(0, 3), tol=TOLERANCES)
def test_mutated_unitary_files(data, dims, seed, tol):
    unitary = _mutate(data, formats.sec_unitary_to_json(sample_haar(ladder_spectrum(*dims), seed)))
    with tempfile.TemporaryDirectory() as directory:
        problem = _write(directory, "problem.json", _problem(dims, seed))
        path = _write(directory, "unitary.json", unitary)
        _run(["analyze", "--input", problem, "--target", "A", "--unitary", path, *tol])


@FUZZ
@given(data=st.data(), fixed=st.booleans(), tol=TOLERANCES)
def test_mutated_two_qubit_files(data, fixed, tol):
    params = _mutate(data, jsonio.two_qubit_params_to_json(max_coherence_params()))
    with tempfile.TemporaryDirectory() as directory:
        path = _write(directory, "q.json", params)
        argv = ["qubit-max", "--input", path, "--target", "A", *tol]
        _run(argv + (["--fixed-alpha"] if fixed else []))
