"""Start-up without numpy, and the package's public surface.

``import sec_transfer``, every ``--help`` and every ``qubit-max`` run, exit 2
included, must leave numpy unimported: each case runs in a fresh interpreter
through the same entry point as ``python -m sec_transfer.cli``.  A numpy
subcommand imports only the layers it calls, and a run that reads no state
row never loads orjson.  The help texts are pinned
byte for byte (at 80 columns).
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sec_transfer

SRC = Path(sec_transfer.__file__).resolve().parents[1]
HELP_TEXTS = Path(__file__).resolve().parent / "help_texts"
SUBCOMMANDS = ["decompose", "analyze", "optimize", "classify", "qubit-max", "bell-scan", "verify"]

# the public names by their home module, as the package's _HOMES lists them;
# each of those import paths must name the same object
PUBLIC = {
    "classify": [
        "FlowClassification", "classify_flow", "gibbs_probabilities", "is_e_passive",
        "passive_max_active_product", "thermal_product",
    ],
    "errors": [
        "BlockMismatch", "DegenerateSpectrum", "DimensionMismatch", "LengthMismatch",
        "NegativeTemperatureWarning", "NotAState", "NotMaxActive", "NotPassive", "NotTwoQubit",
        "NotUnitary", "NumericalInvariantError", "SecTransferError", "Unphysical",
        "ValidationError", "UnknownBlock",
    ],
    "optimize": [
        "OptimizationResult", "check_coherence_bound", "maximize_transfer_exact",
        "monte_carlo_max", "optimal_diagonal_unitary",
    ],
    "qubits": [
        "BellDiagParams", "PlaneScan", "SecParams2Q", "bell_correlations",
        "bell_diagonal_state", "concurrence_bell_diagonal", "concurrence_directional_derivative",
        "concurrence_wootters", "plane_scan", "plane_scan_gradient", "two_qubit_spectrum",
    ],
    "spectra": [
        "EnergyBlock", "Hamiltonian", "JointSpectrum", "build_joint_spectrum",
    ],
    "states": [
        "BipartiteState", "StateDecomposition", "decompose", "local_energy", "partial_trace",
    ],
    "transfer": [
        "BatchTransfers", "TransferReport", "analyze", "batch_transfers", "transfer_coherent",
        "transfer_diagonal", "transfer_direct",
    ],
    "twoqubit": [
        "TwoQubitOptimum", "TwoQubitParams", "delta_coh_2q", "delta_diag_2q", "max_transfer_2q",
    ],
    "unitaries": [
        "SecUnitary", "evolve", "is_potentially_coherent", "sample_haar", "sample_haar_blocks",
        "to_full_matrix",
    ],
}
# names that moved to a numpy-free module and that their old home still
# imports: (new home, old home, names); each must be the new home's object
MOVED = [
    ("twoqubit", "spectra", ["check_system"]),
    ("jsonio", "formats", ["_require", "dump_json", "read_json"]),
]
# names that moved to a numpy-free module and that their old home only
# re-exported: (new home, old home, names); only the new home has them
RETIRED = [
    ("twoqubit", "qubits", ["TwoQubitOptimum", "TwoQubitParams", "delta_coh_2q",
                            "delta_diag_2q", "max_transfer_2q"]),
    ("jsonio", "formats", ["_number", "format_json", "two_qubit_params_from_json",
                           "two_qubit_params_to_json"]),
    ("twoqubit", "spectra", ["SYSTEMS"]),
]

# runs the CLI as ``python -m sec_transfer.cli`` does, then records whether
# numpy was imported into the file named by the first argument
DRIVER = """
import runpy, sys
report, sys.argv = sys.argv[1], ["sec-transfer", *sys.argv[2:]]
try:
    runpy.run_module("sec_transfer.cli", run_name="__main__", alter_sys=True)
finally:
    with open(report, "w") as handle:
        handle.write(str("numpy" in sys.modules))
"""


# as DRIVER, but records the names of every module imported
MODULES_DRIVER = """
import json, runpy, sys
report, sys.argv = sys.argv[1], ["sec-transfer", *sys.argv[2:]]
try:
    runpy.run_module("sec_transfer.cli", run_name="__main__", alter_sys=True)
finally:
    with open(report, "w") as handle:
        json.dump(sorted(sys.modules), handle)
"""


def _env() -> dict:
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=_env(), capture_output=True, timeout=120
    )


def _cli(tmp_path, argv: list[str]) -> tuple[subprocess.CompletedProcess, bool]:
    """One CLI run in a fresh interpreter, and whether it imported numpy."""
    report = tmp_path / "numpy_loaded.txt"
    done = _python(DRIVER, str(report), *argv)
    return done, report.read_text() == "True"


def test_all_is_the_64_public_names():
    names = sorted(name for names in PUBLIC.values() for name in names)
    assert len(names) == 64
    assert sorted(sec_transfer.__all__) == names


@pytest.mark.parametrize("home", sorted(PUBLIC))
def test_public_names_are_the_objects_of_their_home_modules(home):
    module = importlib.import_module(f"sec_transfer.{home}")
    for name in PUBLIC[home]:
        assert getattr(sec_transfer, name) is getattr(module, name), name


def test_every_tolerance_parameter_is_one_the_command_line_reaches():
    # README: the only tolerance parameters are those --tolerance sets
    callables = []
    for name in sec_transfer.__all__:
        value = getattr(sec_transfer, name)
        if inspect.isclass(value):
            for attr in vars(value).values():
                attr = getattr(attr, "__func__", attr)  # classmethod and staticmethod
                if inspect.isfunction(attr):
                    callables.append(attr)
        elif callable(value):
            callables.append(value)
    found = {
        param
        for func in callables
        for param in inspect.signature(func).parameters
        if param.endswith("_tol")
    }
    assert found == {"herm_tol", "trace_tol", "psd_tol", "split_tol"}


@pytest.mark.parametrize("new, old, names", MOVED, ids=[f"{old}-{new}" for new, old, _ in MOVED])
def test_moved_names_keep_their_old_import_paths(new, old, names):
    new_home = importlib.import_module(f"sec_transfer.{new}")
    old_home = importlib.import_module(f"sec_transfer.{old}")
    for name in names:
        assert getattr(old_home, name) is getattr(new_home, name), name


@pytest.mark.parametrize(
    "new, old, names", RETIRED, ids=[f"{old}-{new}" for new, old, _ in RETIRED]
)
def test_retired_reexports_live_only_in_their_new_home(new, old, names):
    new_home = importlib.import_module(f"sec_transfer.{new}")
    old_home = importlib.import_module(f"sec_transfer.{old}")
    for name in names:
        assert hasattr(new_home, name), name
        assert not hasattr(old_home, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from sec_transfer import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(sec_transfer.__all__)


def test_import_is_numpy_free_and_submodules_resolve_lazily():
    done = _python(
        "import sys, sec_transfer\n"
        "assert 'numpy' not in sys.modules, 'import sec_transfer loaded numpy'\n"
        "assert sec_transfer.qubits.__name__ == 'sec_transfer.qubits'\n"
        "assert sec_transfer.SecParams2Q is sec_transfer.qubits.SecParams2Q\n"
    )
    assert done.returncode == 0, done.stderr.decode()


@pytest.mark.parametrize("command", [None] + SUBCOMMANDS, ids=lambda c: c or "sec-transfer")
def test_help_is_numpy_free_and_byte_identical(command, tmp_path):
    argv = ([command] if command else []) + ["--help"]
    done, numpy_loaded = _cli(tmp_path, argv)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (HELP_TEXTS / f"{command or 'sec-transfer'}.txt").read_bytes()
    assert done.stderr == b""
    assert not numpy_loaded


@pytest.mark.parametrize("fixed_alpha", [False, True], ids=["optimize-alpha", "fixed-alpha"])
def test_qubit_max_is_numpy_free(fixed_alpha, tmp_path):
    params = tmp_path / "q.json"
    params.write_text(json.dumps({"p00": 0.1, "p01": 0.2, "p10": 0.4, "p11": 0.3,
                                  "alpha_re": 0.1, "alpha_im": -0.05}))
    argv = ["qubit-max", "--input", str(params), "--target", "A"]
    done, numpy_loaded = _cli(tmp_path, argv + (["--fixed-alpha"] if fixed_alpha else []))
    assert done.returncode == 0, done.stderr.decode()
    assert json.loads(done.stdout)["alpha_optimized"] is not fixed_alpha
    assert not numpy_loaded


QUAD = b'"p00": 0.25, "p01": 0.25, "p10": 0.25, "p11": 0.25'
# case: (input file bytes or None, extra arguments, text the one-line message holds)
QUBIT_MAX_REFUSALS = {
    "missing-input": (None, [], "qubit-max requires --input"),
    "malformed-json": (b'{"p00": 0.25,', [], "malformed JSON"),
    "not-utf8": (b'{"p00": "caf\xff"}', [], "not UTF-8 text"),
    "nan-token": (b'{"p00": NaN, "p01": 0.3, "p10": 0.3, "p11": 0.4}', [],
                  "non-finite JSON value NaN"),
    "not-a-number": (b'{"p00": "0.25", "p01": 0.25, "p10": 0.25, "p11": 0.25}', [],
                     "must be a number"),
    "too-much-coherence": (b"{" + QUAD + b', "alpha_re": 0.3}', [], "coherence too large"),
    "deep-nesting": (b"[" * 200000 + b"]" * 200000, [], "JSON nested too deeply"),
    "long-integer": (b'{"p00": ' + b"1" * 4301 + b"}", [], "JSON number too long"),
    "too-large-for-a-double": (b'{"p00": 1' + b"0" * 400 + b', "p01": 0.3, "p10": 0.3, "p11": 0.4}',
                               [], "'p00' is an integer too large for a double"),
    "refused-tolerance": (b"{" + QUAD + b"}", ["--tolerance", "trace=1e-6"],
                          "qubit-max does not use tolerance 'trace'"),
}


@pytest.mark.parametrize("case", sorted(QUBIT_MAX_REFUSALS))
def test_qubit_max_refusals_exit_2_without_numpy(case, tmp_path):
    content, extra, reason = QUBIT_MAX_REFUSALS[case]
    argv = ["qubit-max", "--target", "A", *extra]
    if content is not None:
        path = tmp_path / "q.json"
        path.write_bytes(content)
        argv += ["--input", str(path)]
    done, numpy_loaded = _cli(tmp_path, argv)
    assert done.returncode == 2
    err = done.stderr.decode()
    assert err.startswith("validation error: ") and err.count("\n") == 1, err
    assert reason in err, err
    assert not numpy_loaded


def test_numpy_subcommand_keeps_a_name_bound_before_the_layers_load(tmp_path):
    """A wrapper set on ``cli`` before any numpy subcommand ran is the one called."""
    scan = tmp_path / "scan.csv"
    done = _python(
        "import sys\n"
        "from sec_transfer import cli\n"
        "assert 'numpy' not in sys.modules\n"
        "calls = []\n"
        "def traced(resolution):\n"
        "    calls.append(resolution)\n"
        "    from sec_transfer.qubits import plane_scan\n"
        "    return plane_scan(resolution)\n"
        "cli.plane_scan = traced\n"
        "assert cli.main(['bell-scan', '--resolution', '3', '--output', sys.argv[1]]) == 0\n"
        "assert calls == [3] and cli.plane_scan is traced\n"
        "assert cli.decompose.__module__ == 'sec_transfer.states'\n",
        str(scan),
    )
    assert done.returncode == 0, done.stderr.decode()
    assert scan.read_text().startswith("c_x,c_y,c_z,")


def test_unknown_cli_attribute_is_refused_without_importing():
    """Only the package's public names resolve on ``cli``; anything else imports nothing."""
    done = _python(
        "import sys\n"
        "from sec_transfer import cli\n"
        "before = set(sys.modules)\n"
        "try:\n"
        "    getattr(cli, 'no_such_layer')\n"
        "except AttributeError as exc:\n"
        "    assert 'sec_transfer.cli' in str(exc), exc\n"
        "else:\n"
        "    raise AssertionError('no AttributeError')\n"
        "assert not hasattr(cli, '__path__')\n"
        "assert 'numpy' not in sys.modules and set(sys.modules) == before\n"
    )
    assert done.returncode == 0, done.stderr.decode()


def test_decompose_imports_only_the_layers_it_calls(tmp_path):
    """A decompose run loads no layer it never calls, nor the thread pool's modules."""
    qubit = {"energies": [[0, 1], [1, 1]]}
    mixed = [[0.25 if i == j else 0.0 for j in range(4)] for i in range(4)]
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({
        "h_a": qubit, "h_b": qubit, "state": {"dims": [2, 2], "re": mixed, "im": [[0.0] * 4] * 4},
    }))
    report = tmp_path / "modules.json"
    done = _python(MODULES_DRIVER, str(report), "decompose", "--input", str(problem))
    assert done.returncode == 0, done.stderr.decode()
    loaded = set(json.loads(report.read_text()))
    assert {"numpy", "sec_transfer.formats", "sec_transfer.states"} <= loaded
    unwanted = {"sec_transfer.verify", "sec_transfer.qubits", "sec_transfer.classify",
                "concurrent.futures"}
    assert not unwanted & loaded


def test_bell_scan_loads_no_unitary_layer_and_no_hashlib(tmp_path):
    """A Bell-plane scan loads neither the SEC unitary layers nor OpenSSL's hashlib."""
    report, scan = tmp_path / "modules.json", tmp_path / "scan.csv"
    argv = ["bell-scan", "--resolution", "11", "--output", str(scan)]
    done = _python(MODULES_DRIVER, str(report), *argv)
    assert done.returncode == 0, done.stderr.decode()
    assert scan.read_text().startswith("c_x,c_y,c_z,")
    loaded = set(json.loads(report.read_text()))
    assert {"numpy", "sec_transfer.formats", "sec_transfer.qubits"} <= loaded
    unwanted = {"sec_transfer.unitaries", "sec_transfer.transfer", "sec_transfer.optimize",
                "hashlib", "_hashlib"}
    assert not unwanted & loaded


QUBIT = {"energies": [[0, 1], [1, 1]]}


def _stateless_argv(case: str, tmp_path) -> list[str]:
    bare, params = tmp_path / "bare.json", tmp_path / "q.json"
    bare.write_text(json.dumps({"h_a": QUBIT, "h_b": QUBIT}))
    params.write_text(json.dumps({"p00": 0.1, "p01": 0.2, "p10": 0.4, "p11": 0.3}))
    return {
        "help": ["--help"],
        "decompose-help": ["decompose", "--help"],
        "qubit-max": ["qubit-max", "--input", str(params), "--target", "A"],
        "bell-scan": ["bell-scan", "--resolution", "5", "--output", str(tmp_path / "scan.csv")],
        "verify": ["verify"],
        "classify-constructor": ["classify", "--input", str(bare), "--target", "A",
                                 "--beta-a", "1", "--beta-b", "2"],
    }[case]


@pytest.mark.parametrize("case", ["help", "decompose-help", "qubit-max", "bell-scan", "verify",
                                  "classify-constructor"])
def test_runs_that_read_no_state_never_load_orjson(case, tmp_path):
    report = tmp_path / "modules.json"
    done = _python(MODULES_DRIVER, str(report), *_stateless_argv(case, tmp_path))
    assert done.returncode == 0, done.stderr.decode()
    assert "orjson" not in json.loads(report.read_text())


def test_a_state_row_loads_orjson(tmp_path):
    """The control for the runs above: the first state row is what imports orjson."""
    mixed = [[0.25 if i == j else 0.0 for j in range(4)] for i in range(4)]
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({
        "h_a": QUBIT, "h_b": QUBIT, "state": {"dims": [2, 2], "re": mixed, "im": [[0] * 4] * 4},
    }))
    report = tmp_path / "modules.json"
    done = _python(MODULES_DRIVER, str(report), "decompose", "--input", str(problem))
    assert done.returncode == 0, done.stderr.decode()
    assert "orjson" in json.loads(report.read_text())
