"""JSON and CSV wire formats.

Schemas
-------
Hamiltonian        ``{"energies": [[num, den], ...], "labels": ["...", ...]}``
                   (labels optional; when given, one string per level).
State              ``{"dims": [dA, dB], "re": [[...]], "im": [[...]]}``.
Block unitary      ``{"blocks": {"<E as p/q>": {"re": [[...]], "im": [[...]]}}}``.
Transfer report    ``{"target", "total", "diagonal", "coherent", "eta",
                   "per_block_diagonal", "unit"}`` with eta keyed by local
                   level and the per-block map keyed by the rational energy.
Optimization       ``{"value", "method", "samples", "unitary"}`` with the
                   unitary inline or referenced by path.
Flow class         ``{"direction", "failing_blocks", "has_useful_coherence",
                   "min_transfer", "witness"}``, ``min_transfer`` the exact
                   minimum transfer to the target (zero for members up to
                   rounding: compare against 1e-12, the loss ``verify``
                   allows a member; no tolerance is applied to it).
Problem file       ``{"h_a": <Hamiltonian>, "h_b": <Hamiltonian>,
                   "state": <State>}`` (state optional for constructor runs).

Floats are serialized with Python's shortest round-trip representation, so
every emitted value parses back to the exact double and identical inputs
produce byte-identical files.

A problem file is walked rather than parsed whole: json's own decoder reads
each key and value of the problem and state objects, and the state's ``re``
and ``im`` arrays one row at a time, each row checked all-float and copied
into a float64 buffer.  A D = 1024 state thus never exists as 2 D^2 Python
floats (about 64 MB against the 16 MB complex matrix).  Text the walk does
not take (integer entries, duplicate keys, any syntax error, ...) is parsed
again by ``read_json``, so its errors and values are those of ``json.load``.

The Bell-plane scan CSV takes few distinct values per column, so each
distinct value of a scan column (told apart by its bit pattern, so ``-0.0``
stays ``-0.0``) is formatted once and rows are written in fixed-size chunks.
"""

from __future__ import annotations

import csv
import itertools
import json
from fractions import Fraction

import numpy as np

from .errors import ValidationError
# the numpy-free JSON helpers, importable from here as before
from .jsonio import (
    _number,
    _reject_constant,
    _require,
    dump_json,
    format_json,
    read_json,
    two_qubit_params_from_json,
    two_qubit_params_to_json,
)
from .qubits import PlaneScan
from .spectra import Hamiltonian, JointSpectrum, build_joint_spectrum
from .states import BipartiteState, StateDecomposition, _Handover
from .transfer import TransferReport
from .optimize import OptimizationResult
from .classify import FlowClassification
from .unitaries import SecUnitary


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def fraction_to_json(value: Fraction) -> list[int]:
    return [value.numerator, value.denominator]


def fraction_key(value: Fraction) -> str:
    return str(value)


def hamiltonian_to_json(h: Hamiltonian) -> dict:
    payload = {"energies": [fraction_to_json(e) for e in h.energies]}
    if h.labels is not None:
        payload["labels"] = list(h.labels)
    return payload


def hamiltonian_from_json(data: dict) -> Hamiltonian:
    energies = _require(data, "energies", "Hamiltonian JSON")
    parsed = []
    for entry in energies:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ValidationError(
                f"Hamiltonian energies must be [num, den] pairs, got {entry!r}"
            )
        if not (_is_int(entry[0]) and _is_int(entry[1])):
            raise ValidationError(
                f"Hamiltonian energy [num, den] must hold two integers, got {entry!r}"
            )
        if entry[1] == 0:
            raise ValidationError(f"Hamiltonian energy {entry!r} has a zero denominator")
        parsed.append(Fraction(entry[0], entry[1]))
    if "labels" not in data:
        return Hamiltonian(tuple(parsed))
    labels = data["labels"]
    if not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
        raise ValidationError(f"Hamiltonian labels must be an array of strings, got {labels!r}")
    return Hamiltonian(tuple(parsed), tuple(labels))


def _matrix_to_json(matrix: np.ndarray) -> dict:
    return {
        "re": np.real(matrix).tolist(),
        "im": np.imag(matrix).tolist(),
    }


def _holds_bool(raw, ndim: int) -> bool:
    """Whether a rectangular nested list of depth ``ndim`` holds a JSON boolean."""
    leaves = raw
    for _ in range(ndim - 1):
        leaves = itertools.chain.from_iterable(leaves)
    return ndim > 0 and bool in set(map(type, leaves))


def _real_array(data: dict, key: str, context: str) -> np.ndarray:
    """A rectangular array of JSON numbers; no per-entry Python loop.

    numpy would read ``true``/``false`` as 1/0, so booleans are refused by
    name.  The problem-file walk hands over a checked float64 array instead
    of nested lists; it passes through unchanged.
    """
    raw = _require(data, key, context)
    try:
        values = np.asarray(raw)
    except ValueError:
        raise ValidationError(f"{context}: {key!r} is not a rectangular array") from None
    if values.dtype.kind == "b" or (
        values.dtype.kind in "iuf" and isinstance(raw, list) and _holds_bool(raw, values.ndim)
    ):
        raise ValidationError(
            f"{context}: {key!r} holds JSON booleans (true/false), which are not numbers"
        )
    if values.dtype.kind not in "iuf":
        raise ValidationError(
            f"{context}: {key!r} must hold only numbers (got numpy dtype {values.dtype})"
        )
    if not np.isfinite(values).all():
        raise ValidationError(f"{context}: {key!r} holds non-finite values")
    return values


def _matrix_from_json(data: dict, context: str) -> np.ndarray:
    re = _real_array(data, "re", context)
    im = _real_array(data, "im", context)
    if re.shape != im.shape:
        raise ValidationError(f"{context}: re/im shapes differ ({re.shape} vs {im.shape})")
    # the bits of re + 1j * im, signed zeros included, in one complex buffer
    matrix = 1j * im
    matrix += re
    return matrix


def state_to_json(state: BipartiteState) -> dict:
    return {"dims": list(state.dims), **_matrix_to_json(state.matrix)}


def _state_matrix(data: dict) -> tuple[np.ndarray, tuple[int, int]]:
    """A state JSON object's complex matrix and checked dims, not yet admitted."""
    dims = _require(data, "dims", "state JSON")
    if not (
        isinstance(dims, list) and len(dims) == 2 and all(_is_int(d) and d > 0 for d in dims)
    ):
        raise ValidationError(f"state JSON dims must be two positive integers, got {dims!r}")
    return _matrix_from_json(data, "state JSON"), (dims[0], dims[1])


def _admission_bounds(tolerances: dict | None) -> dict:
    """``BipartiteState`` keyword arguments for the admission keys overridden."""
    tolerances = tolerances or {}
    return {
        f"{key}_tol": tolerances[key] for key in ("herm", "trace", "psd") if key in tolerances
    }


def state_from_json(data: dict, tolerances: dict | None = None) -> BipartiteState:
    matrix, dims = _state_matrix(data)
    return BipartiteState(_Handover(matrix), dims, **_admission_bounds(tolerances))


def sec_unitary_to_json(u: SecUnitary) -> dict:
    return {
        "blocks": {
            fraction_key(energy): _matrix_to_json(mat)
            for energy, mat in u.blocks.items()
        }
    }


def sec_unitary_from_json(data: dict, spectrum: JointSpectrum) -> SecUnitary:
    blocks_json = _require(data, "blocks", "unitary JSON")
    if not isinstance(blocks_json, dict):
        raise ValidationError("unitary JSON 'blocks' must map energies to matrices")
    blocks = {}
    for key, value in blocks_json.items():
        try:
            energy = Fraction(key)
        except (ValueError, ZeroDivisionError):
            raise ValidationError(f"unitary block key {key!r} is not a rational energy") from None
        blocks[energy] = _matrix_from_json(value, f"unitary block {key}")
    return SecUnitary(blocks, spectrum)


def transfer_report_to_json(report: TransferReport) -> dict:
    return {
        "target": report.target,
        "total": report.total,
        "diagonal": report.diagonal,
        "coherent": report.coherent,
        "eta": {str(level): value for level, value in sorted(report.eta.items())},
        "per_block_diagonal": {
            fraction_key(energy): value
            for energy, value in sorted(report.per_block_diagonal.items())
        },
        "unit": report.unit,
    }


def optimization_result_to_json(
    result: OptimizationResult, unitary_path: str | None = None
) -> dict:
    payload = {
        "value": result.value,
        "method": result.method,
        "samples": result.samples,
    }
    if unitary_path is not None:
        payload["unitary"] = {"path": unitary_path}
    else:
        payload["unitary"] = sec_unitary_to_json(result.unitary)
    return payload


def flow_classification_to_json(result: FlowClassification) -> dict:
    return {
        "direction": result.direction,
        "failing_blocks": [fraction_key(e) for e in result.failing_blocks],
        "has_useful_coherence": result.has_useful_coherence,
        "min_transfer": result.min_transfer,
        "witness": None if result.witness is None else sec_unitary_to_json(result.witness),
    }


# json's own scanner decides every token of the problem-file walk
_DECODE = json.JSONDecoder(parse_constant=_reject_constant).raw_decode
_SKIP = json.decoder.WHITESPACE.match
_FLOATS = {float}


class _Unwalkable(Exception):
    """Problem-file text the walk leaves to :func:`read_json`."""


def _walk_object(text: str, at: int, member) -> tuple[dict, int]:
    """The JSON object opening at ``text[at]`` and the index after it.

    ``member(key, at)`` decodes the value starting at ``at`` and returns it
    with the index after it.  A duplicate key is not walked.
    """
    if not text.startswith("{", at):
        raise _Unwalkable
    members = {}
    at = _SKIP(text, at + 1).end()
    if text.startswith("}", at):
        return members, at + 1
    while True:
        if not text.startswith('"', at):
            raise _Unwalkable
        key, at = _DECODE(text, at)
        at = _SKIP(text, at).end()
        if not text.startswith(":", at) or key in members:
            raise _Unwalkable
        members[key], at = member(key, _SKIP(text, at + 1).end())
        at = _SKIP(text, at).end()
        if text.startswith("}", at):
            return members, at + 1
        if not text.startswith(",", at):
            raise _Unwalkable
        at = _SKIP(text, at + 1).end()


def _walk_rows(text: str, at: int) -> tuple[np.ndarray, int]:
    """A square array of all-float rows, as float64, one row decoded at a time.

    Only one row's Python floats are alive at once.  The buffer is allocated
    from the first row's length, once the text is long enough to hold that
    many rows (each entry takes at least one character), so it is never more
    than eight bytes per character of text.
    """
    if not text.startswith("[", at):
        raise _Unwalkable
    at = _SKIP(text, at + 1).end()
    rows = None
    filled = 0
    while True:
        row, at = _DECODE(text, at)
        if type(row) is not list or set(map(type, row)) != _FLOATS:
            raise _Unwalkable
        if rows is None:
            if len(row) ** 2 > len(text):
                raise _Unwalkable
            rows = np.empty((len(row), len(row)))
        if filled == len(rows) or len(row) != len(rows):
            raise _Unwalkable
        rows[filled] = row
        filled += 1
        at = _SKIP(text, at).end()
        if text.startswith("]", at):
            break
        if not text.startswith(",", at):
            raise _Unwalkable
        at = _SKIP(text, at + 1).end()
    if filled != len(rows):
        raise _Unwalkable
    return rows, at + 1


def _walk_problem(text: str) -> dict:
    """``json.loads(text)``, with the state's ``re`` and ``im`` as float64 arrays.

    Raises :class:`_Unwalkable` (or json's own error) on any text it does
    not take: not an object, a duplicate key in the problem or state
    object, a ``re``/``im`` that is not a square array of floats, or text
    after the object.
    """

    def state_member(key: str, at: int):
        return _walk_rows(text, at) if key in ("re", "im") else _DECODE(text, at)

    def member(key: str, at: int):
        if key == "state" and text.startswith("{", at):
            return _walk_object(text, at, state_member)
        return _DECODE(text, at)

    data, at = _walk_object(text, _SKIP(text, 0).end(), member)
    if _SKIP(text, at).end() != len(text):
        raise _Unwalkable
    return data


def _read_problem(path) -> dict:
    """A problem file's JSON, its state arrays read row by row where possible.

    Any text the walk does not take is parsed again by :func:`read_json`,
    so every rejection, message and line/column report is read_json's.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return _walk_problem(handle.read())
    except (_Unwalkable, ValueError, ValidationError, RecursionError):
        pass  # leaving the handler frees the text before read_json reads it again
    return read_json(path)


def load_problem(
    path, tolerances: dict | None = None
) -> tuple[Hamiltonian, Hamiltonian, JointSpectrum, BipartiteState | None]:
    """Read a problem file: both Hamiltonians plus an optional state.

    The state's ``re`` and ``im`` arrays are decoded one row at a time into
    float64 buffers, so the 2 D^2 Python floats of a whole parsed tree (four
    times the complex matrix) never exist at once; text that is not a plain
    problem object with square all-float arrays goes through
    :func:`read_json` as a whole.  The file's text is released before the
    matrix is built, the float buffers before the state is admitted, and
    the admitted state keeps the freshly built matrix without a copy.
    """
    data = _read_problem(path)
    h_a = hamiltonian_from_json(_require(data, "h_a", "problem file"))
    h_b = hamiltonian_from_json(_require(data, "h_b", "problem file"))
    spec = build_joint_spectrum(h_a, h_b)
    state_json = data.pop("state", None)
    del data
    if state_json is None:
        return h_a, h_b, spec, None
    matrix, dims = _state_matrix(state_json)
    del state_json
    state = BipartiteState(_Handover(matrix), dims, **_admission_bounds(tolerances))
    if state.dims != spec.dims:
        raise ValidationError(
            f"problem file state dims {state.dims} do not match "
            f"Hamiltonian dims {spec.dims}"
        )
    return h_a, h_b, spec, state


DECOMP_CSV_HEADER = ["E", "p_E", "probs", "chi_same_energy_max", "chi_cross_energy_max"]


def decomposition_summary_rows(decomp: StateDecomposition) -> list[list[str]]:
    """One CSV row per block: probability, populations, coherence magnitudes."""
    peaks = decomp.coherence_peaks()
    same = np.diagonal(peaks).copy()
    np.fill_diagonal(peaks, 0.0)
    cross = np.maximum(peaks.max(axis=0), peaks.max(axis=1))
    rows = []
    for i, (energy, block) in enumerate(decomp.diag_blocks.items()):
        rows.append(
            [
                fraction_key(energy),
                repr(block.p_E),
                ";".join(repr(float(p)) for p in block.probs),
                repr(float(same[i])),
                repr(float(cross[i])),
            ]
        )
    return rows


def write_decomposition_csv(decomp: StateDecomposition, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(DECOMP_CSV_HEADER)
        writer.writerows(decomposition_summary_rows(decomp))


SCAN_CSV_HEADER = ["c_x", "c_y", "c_z", "max_transfer", "concurrence", "separable"]


# rows per write; bounds the per-chunk object arrays and the joined text
SCAN_CSV_CHUNK = 8192
_SCAN_FLAG_TEXT = np.array(["false\r\n", "true\r\n"], dtype=object)


def _distinct_texts(values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A float column's bit patterns, their sorted distinct set, and one text each.

    Keys are float64 bit patterns, not values, so ``-0.0`` keeps its own
    ``repr``; each text carries the field separator that follows it.
    """
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    keys = np.unique(bits)
    texts = np.array([repr(v) + "," for v in keys.view(np.float64).tolist()], dtype=object)
    return bits, keys, texts


def write_plane_scan_csv(scan: PlaneScan, path) -> None:
    """Emit the scan with the fixed, documented column set (header mandatory).

    The bytes are those of ``csv.writer``'s default dialect: CRLF line ends,
    and no field ever needs quoting.
    """
    columns = [
        _distinct_texts(values)
        for values in (scan.c_x, scan.c_y, scan.c_z, scan.max_transfer, scan.concurrence)
    ]
    flags = np.asarray(scan.separable, dtype=bool).view(np.uint8)
    rows = len(scan)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(SCAN_CSV_HEADER) + "\r\n")
        for start in range(0, rows, SCAN_CSV_CHUNK):
            stop = min(start + SCAN_CSV_CHUNK, rows)
            chunk = np.empty((stop - start, len(SCAN_CSV_HEADER)), dtype=object)
            for j, (bits, keys, texts) in enumerate(columns):
                chunk[:, j] = texts[np.searchsorted(keys, bits[start:stop])]
            chunk[:, -1] = _SCAN_FLAG_TEXT[flags[start:stop]]
            handle.write("".join(chunk.ravel().tolist()))
