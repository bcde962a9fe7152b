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
                   unitary inline as a block unitary.
Flow class         ``{"direction", "failing_blocks", "has_useful_coherence",
                   "min_transfer", "witness"}``, ``failing_blocks`` the
                   energies of the blocks that fail passivity,
                   ``min_transfer`` the exact minimum transfer to the target
                   (zero for members up to rounding: compare against 1e-12,
                   the loss ``verify`` allows a member; no tolerance is
                   applied to it).
Problem file       ``{"h_a": <Hamiltonian>, "h_b": <Hamiltonian>,
                   "state": <State>}`` (state optional for constructor runs).

The library names a block by its index in the spectrum's block order; the
energy keys above are made from those indices here, where blocks meet text.

Floats are serialized with Python's shortest round-trip representation, so
every emitted value parses back to the exact double and identical inputs
produce byte-identical files.

A problem file is walked rather than parsed whole: it is read
``PROBLEM_CHUNK`` characters at a time, and json's own decoder reads each key
and value of the problem and state objects, and the state's ``re`` and ``im``
arrays one row at a time, each row checked to hold only numbers and copied
into a float64 buffer.  Neither the file's whole text nor a D = 1024 state
as 2 D^2 Python floats (about 64 MB against the 16 MB complex matrix) is ever
held.  A file of at least ``SPLIT_BYTES``, read by a process allowed to run
on two or more CPUs (the count that also sizes the Monte-Carlo search), is
walked by two processes at once: a forked helper decodes rows 1, 3, 5, ...
and sends them down a pipe, while the reading process decodes the even
ones; each steps over the other's rows.  Text the walk does not take (an
integer outside int64, duplicate keys, any syntax error, ...) is parsed
again by ``read_json``, so its errors and values are those of
``json.load``.  Only a regular file is walked: any other (a pipe) is parsed
whole, as it is read.

The Bell-plane scan CSV takes few distinct values per column, so each
distinct value of a scan column (told apart by its bit pattern, so ``-0.0``
stays ``-0.0``) is formatted once and rows are written in fixed-size chunks.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import re
import stat
import warnings
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .errors import BlockMismatch, ValidationError
from .jsonio import _reject_constant, _require, dump_json, load_json, read_json
from .spectra import Hamiltonian, JointSpectrum, build_joint_spectrum
from .states import BipartiteState, StateDecomposition, _Handover, _usable_cpus
from .tolerances import ADMISSION

if TYPE_CHECKING:  # the report types, named only in annotations
    from .classify import FlowClassification
    from .optimize import OptimizationResult
    from .qubits import PlaneScan
    from .transfer import TransferReport
    from .unitaries import SecUnitary


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def fraction_to_json(value: Fraction) -> list[int]:
    return [value.numerator, value.denominator]


def fraction_key(value: Fraction) -> str:
    return str(value)


def hamiltonian_to_json(h: Hamiltonian) -> dict:
    """The inverse of :func:`hamiltonian_from_json`, which the tests check through it."""
    payload = {"energies": [fraction_to_json(e) for e in h.energies]}
    if h.labels is not None:
        payload["labels"] = list(h.labels)
    return payload


def hamiltonian_from_json(data: dict) -> Hamiltonian:
    energies = _require(data, "energies", "Hamiltonian JSON")
    if not isinstance(energies, list):
        raise ValidationError(
            f"Hamiltonian energies must be an array, got {type(energies).__name__}"
        )
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
    """The inverse of :func:`load_problem`'s state reader, which the tests check through it."""
    return {"dims": list(state.dims), **_matrix_to_json(state.matrix)}


def _state_matrix(data: dict) -> tuple[np.ndarray, tuple[int, int]]:
    """A state JSON object's complex matrix and checked dims, not yet admitted."""
    dims = _require(data, "dims", "state JSON")
    if not (
        isinstance(dims, list) and len(dims) == 2 and all(_is_int(d) and d > 0 for d in dims)
    ):
        raise ValidationError(f"state JSON dims must be two positive integers, got {dims!r}")
    return _matrix_from_json(data, "state JSON"), (dims[0], dims[1])


def sec_unitary_to_json(u: SecUnitary) -> dict:
    return {
        "blocks": {
            fraction_key(energy): _matrix_to_json(mat)
            for energy, mat in zip(u.spectrum.energies, u.blocks)
        }
    }


def sec_unitary_from_json(data: dict, spectrum: JointSpectrum) -> SecUnitary:
    from .unitaries import SecUnitary

    blocks_json = _require(data, "blocks", "unitary JSON")
    if not isinstance(blocks_json, dict):
        raise ValidationError("unitary JSON 'blocks' must map energies to matrices")
    # of two keys naming one energy ("1", "2/2"), the later block stays
    given = {}
    for key, value in blocks_json.items():
        try:
            energy = Fraction(key)
        except (ValueError, ZeroDivisionError):
            raise ValidationError(f"unitary block key {key!r} is not a rational energy") from None
        given[energy] = _matrix_from_json(value, f"unitary block {key}")
    if given.keys() != spectrum.layout.index.keys():
        raise BlockMismatch(
            f"unitary blocks {sorted(map(str, given))} do not match spectrum "
            f"blocks {sorted(map(str, spectrum.energies))}"
        )
    return SecUnitary([given[energy] for energy in spectrum.energies], spectrum)


def transfer_report_to_json(report: TransferReport, spectrum: JointSpectrum) -> dict:
    return {
        "target": report.target,
        "total": report.total,
        "diagonal": report.diagonal,
        "coherent": report.coherent,
        "eta": {str(level): value for level, value in sorted(report.eta.items())},
        "per_block_diagonal": {
            fraction_key(energy): value
            for energy, value in zip(spectrum.energies, report.per_block_diagonal.tolist())
        },
        "unit": report.unit,
    }


def optimization_result_to_json(result: OptimizationResult) -> dict:
    return {
        "value": result.value,
        "method": result.method,
        "samples": result.samples,
        "unitary": sec_unitary_to_json(result.unitary),
    }


def flow_classification_to_json(result: FlowClassification, spectrum: JointSpectrum) -> dict:
    return {
        "direction": result.direction,
        "failing_blocks": [fraction_key(spectrum.energies[i]) for i in result.failing_blocks],
        "has_useful_coherence": result.has_useful_coherence,
        "min_transfer": result.min_transfer,
        "witness": None if result.witness is None else sec_unitary_to_json(result.witness),
    }


# json's own scanner decides every token of the problem-file walk
_DECODE = json.JSONDecoder(parse_constant=_reject_constant).raw_decode
_SKIP = json.decoder.WHITESPACE.match
# what may still follow a number decoded at the end of the text read so far:
# "1e" decodes as 1 until the "5" of "1e5" is read
_OPEN_TAIL = re.compile(r"[-+.0-9eE]*\Z")
_NUMBERS = {float, int}

# Characters of a problem file read at a time; the walk holds about two
# chunks of text plus the row it is decoding (24,000 characters at D = 1024).
# Each process of a split walk (``SPLIT_BYTES``) reads the whole file this
# way.  From 16 KiB to 1 MiB the walk takes the same time, best of 5, on a
# ladder-exact D = 1024 file (47.8 MiB, 0.80-0.87 s) and, best of 30, on a
# rational-blocks 13 x 13 one (1.3 MiB, 21-23 ms).  Its traced peak grows with
# the chunk: 16.4 MiB at 64 KiB against 21.1 MiB at 1 MiB on the first, 0.8
# against 4.5 MiB on the second.  Smaller chunks save less than 0.3 MiB more.
PROBLEM_CHUNK = 1 << 16

# Bytes from which a problem file's state rows are decoded by two processes,
# where this one may run on two CPUs: a forked helper takes every other row.
# Measured end to end (2 vCPUs, Python 3.11.7), the split wins from 1.8 MB
# on.  ``python -m sec_transfer.cli`` on ladder files, 30 alternating runs
# each, split against one process, best and median: ``analyze --seed 1`` at
# 1.8 MB 0.201/0.300 s against 0.208/0.313 s, at 2.4 MB 0.207/0.283 against
# 0.214/0.337, at 3.1 MB 0.210/0.315 against 0.232/0.320; ``optimize
# --method diagonal`` at 1.8 MB 0.227/0.294 against 0.242/0.316.  At 1.36 MB
# (a rational-blocks 13 x 13 file) it lost, 0.193/0.225 against 0.191/0.211,
# and the benchmark's rational-blocks rounds ran slower with it.  Timed in
# process, ``_read_problem`` alone already wins from about 0.6 MB (best of
# 100, over two or three such runs: 0.57 MB split 8.2-9.4 ms against 8.9-9.5
# ms, 0.69 MB 8.5-10.6 against 10.1-10.9).
SPLIT_BYTES = 3 << 19


class _Unwalkable(Exception):
    """Problem-file text the walk leaves to :func:`read_json`."""


class _Text:
    """The unread text of a problem file, read ``PROBLEM_CHUNK`` characters at a time.

    ``text[at:]`` is what the walk has not consumed; the rest is dropped when
    more is read.
    """

    __slots__ = ("handle", "text", "at", "ended")

    def __init__(self, handle):
        self.handle = handle
        self.text = ""
        self.at = 0
        self.ended = False

    def more(self, least: float, stop: str | None = None) -> None:
        """Read until ``least`` characters are unread, a chunk holds ``stop``, or the file ends."""
        pieces = [self.text[self.at :]]
        held = len(pieces[0])
        while held < least and not self.ended:
            chunk = self.handle.read(PROBLEM_CHUNK)
            self.ended = not chunk
            pieces.append(chunk)
            held += len(chunk)
            if stop is not None and stop in chunk:
                break
        self.text, self.at = "".join(pieces), 0

    def peek(self) -> str:
        """The next character after whitespace, or ``""`` at the end of the file."""
        while True:
            self.at = _SKIP(self.text, self.at).end()
            if self.at < len(self.text) or self.ended:
                return self.text[self.at : self.at + 1]
            self.more(1)

    def take(self, expected: str) -> str:
        """Step over the next character, which must be one of ``expected``."""
        char = self.peek()
        if not char or char not in expected:
            raise _Unwalkable
        self.at += 1
        return char

    def value(self):
        """The JSON value at the next character, decoded by json.

        A value the text read so far cuts short, or may cut short (a number
        at its end), is decoded again once the unread text has at least
        doubled, so the work stays linear in the file's size.
        """
        self.peek()
        while True:
            try:
                value, end = _DECODE(self.text, self.at)
            except json.JSONDecodeError:
                if self.ended:
                    raise
            else:
                if (
                    self.ended
                    or self.text[end - 1] in '"]}'
                    or not _OPEN_TAIL.match(self.text, end)
                ):
                    self.at = end
                    return value
            self.more(2 * (len(self.text) - self.at))

    def skip(self) -> None:
        """Step over the row at the next character, up to and past its first ``]``."""
        self.take("[")
        while (end := self.text.find("]", self.at)) < 0:
            if self.ended:
                raise _Unwalkable
            self.at = len(self.text)  # the text stepped over is dropped, not held
            self.more(math.inf, "]")
        self.at = end + 1

    def row(self):
        """:meth:`value`, once a ``]`` is read: a row of numbers is decoded once."""
        if self.text.find("]", self.at) < 0:
            self.more(math.inf, "]")
        return self.value()


def _numbers(row: list) -> bool:
    """Whether a row holds only numbers numpy reads as it reads :func:`read_json`'s lists.

    Integers are taken in int64's range, where both round them to the
    nearest float64; past it numpy makes the lists an unsigned or object
    array.
    """
    kinds = set(map(type, row))
    if not kinds or not kinds <= _NUMBERS:
        return False
    if int not in kinds:
        return True
    ints = [x for x in row if type(x) is int]
    return -(2**63) <= min(ints) and max(ints) < 2**63


def _walk_object(text: _Text, member) -> dict:
    """The JSON object at the next character, ``member(key)`` decoding each value.

    A duplicate key is not walked.
    """
    text.take("{")
    members = {}
    if text.peek() == "}":
        text.at += 1
        return members
    while True:
        if text.peek() != '"':
            raise _Unwalkable
        key = text.value()
        text.take(":")
        if key in members:
            raise _Unwalkable
        members[key] = member(key)
        if text.take(",}") == "}":
            return members


def _walk_rows(text: _Text, size: int, part: tuple[int, int]) -> np.ndarray:
    """A square array of number rows, as float64, each row decoded once.

    Only one row's Python numbers are alive at once.  The buffer is
    allocated from the first row's length, once ``size`` (the file's bytes)
    could hold that many rows (each entry takes at least one character), so
    it is never more than eight bytes per byte of the file.  Of the other
    rows, only those of ``part`` (``(index, count)``: the rows ``i`` with
    ``i % count == index``) are decoded and checked; the rest are stepped
    over to their first ``]`` and left unset, for the process that decodes
    them to check.
    """
    index, count = part
    text.take("[")
    rows = None
    filled = 0
    while True:
        if rows is not None and filled == len(rows):
            raise _Unwalkable
        if rows is None or filled % count == index:
            row = text.row()
            if type(row) is not list or not _numbers(row):
                raise _Unwalkable
            if rows is None:
                if len(row) ** 2 > size:
                    raise _Unwalkable
                rows = np.empty((len(row), len(row)))
            if len(row) != len(rows):
                raise _Unwalkable
            rows[filled] = row
        else:
            text.skip()
        filled += 1
        if text.take(",]") == "]":
            break
    if filled != len(rows):
        raise _Unwalkable
    return rows


def _walk_problem(source, size: int | None = None, part: tuple[int, int] = (0, 1)) -> dict:
    """``json.load(source)``, with the state's ``re`` and ``im`` as float64 arrays.

    ``source`` is a text file, read ``PROBLEM_CHUNK`` characters at a time,
    with ``size`` its size in bytes; or a whole str, whose length is its size.
    ``part`` picks the rows of ``re`` and ``im`` decoded besides row 0, as
    :func:`_walk_rows` reads it; by default, all of them.
    Raises :class:`_Unwalkable` (or json's own error) on any text it does
    not take: not an object, a duplicate key in the problem or state
    object, a ``re``/``im`` that is not a square array of numbers, or text
    after the object.
    """
    if isinstance(source, str):
        source, size = io.StringIO(source), len(source)
    text = _Text(source)

    def state_member(key: str):
        return _walk_rows(text, size, part) if key in ("re", "im") else text.value()

    def member(key: str):
        if key == "state" and text.peek() == "{":
            return _walk_object(text, state_member)
        return text.value()

    data = _walk_object(text, member)
    if text.peek():
        raise _Unwalkable
    return data


def _state_rows(data: dict) -> list[np.ndarray]:
    """The state's walked ``re`` and ``im`` buffers, in the order the walk met them."""
    state = data.get("state")
    if type(state) is not dict:
        return []
    return [value for value in state.values() if type(value) is np.ndarray]


def _help_walk(path, shared: int, size: int, read_end: int, write_end: int):
    """The forked helper's whole life: walk the odd rows, send them down the pipe, exit.

    It opens ``path`` again, for a file position of its own, and walks it
    only if that is still the file open as ``shared`` in the parent.  It
    never returns, so it never prints, flushes the stdio it inherited or
    runs its caller's code; any exception ends it with status 1, which the
    parent sees as a short read.  Per walked array it sends the row count
    as eight bytes, then rows 1, 3, 5, ... as float64 bytes.
    """
    code = 1
    try:
        os.close(read_end)
        with open(path, "r", encoding="utf-8") as handle, open(write_end, "wb") as pipe:
            if not os.path.samestat(os.fstat(handle.fileno()), os.fstat(shared)):
                raise _Unwalkable
            for rows in _state_rows(_walk_problem(handle, size, (1, 2))):
                pipe.write(len(rows).to_bytes(8, "little"))
                for row in rows[1::2]:
                    pipe.write(row)
        code = 0
    finally:
        os._exit(code)


def _walk_split(path, handle, size: int) -> dict:
    """:func:`_walk_problem` on ``handle``, with a forked helper decoding the odd rows.

    This process decodes rows 0, 2, 4, ... of ``re`` and ``im``, then reads
    the helper's rows straight into its own buffers.  A helper that fails
    its walk, sends a different shape or exits other than cleanly raises
    :class:`_Unwalkable`.  The helper is reaped before this returns or
    raises; on any failure it is killed first.  If no pipe or process can be
    had, the whole walk runs here.
    """
    try:
        read_end, write_end = os.pipe()
    except OSError:
        return _walk_problem(handle, size)
    try:
        with warnings.catch_warnings():
            # Python 3.12 and later warn on fork in a process with threads (BLAS's);
            # the helper calls no BLAS
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return _walk_problem(handle, size)
    if pid == 0:
        _help_walk(path, handle.fileno(), size, read_end, write_end)
    os.close(write_end)
    with open(read_end, "rb") as pipe:
        try:
            data = _walk_problem(handle, size, (0, 2))
            for rows in _state_rows(data):
                if pipe.read(8) != len(rows).to_bytes(8, "little"):
                    raise _Unwalkable
                for row in rows[1::2]:
                    if pipe.readinto(row) != row.nbytes:
                        raise _Unwalkable
            if pipe.read(1):
                raise _Unwalkable
        except BaseException:
            import signal  # only here: a module every other run would load for nothing

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
    if os.waitpid(pid, 0)[1]:
        raise _Unwalkable
    return data


def _read_problem(path) -> dict:
    """A problem file's JSON, streamed, with its state arrays read row by row where possible.

    A file of at least ``SPLIT_BYTES`` is split with :func:`_walk_split`
    when this process may run on two or more CPUs, as
    :func:`~sec_transfer.states._usable_cpus` counts them.  Any text the
    walk does not take is parsed again by :func:`read_json`, so every
    rejection, message and line/column report is read_json's.  A file that is not a
    regular file (a pipe, say), which has no size and can be read only
    once, is parsed whole by :func:`load_json`, never walked.
    """
    with open(path, "r", encoding="utf-8") as handle:
        status = os.fstat(handle.fileno())
        if not stat.S_ISREG(status.st_mode):
            return load_json(handle, path)
        try:
            if status.st_size >= SPLIT_BYTES and hasattr(os, "fork") and _usable_cpus() >= 2:
                return _walk_split(path, handle, status.st_size)
            return _walk_problem(handle, status.st_size)
        except (_Unwalkable, ValueError, ValidationError, RecursionError):
            pass  # leaving the handler frees the walk's text and rows before read_json reads the file
    return read_json(path)


def load_problem(
    path, tolerances: dict | None = None
) -> tuple[Hamiltonian, Hamiltonian, JointSpectrum, BipartiteState | None]:
    """Read a problem file: both Hamiltonians plus an optional state.

    The file is streamed, ``PROBLEM_CHUNK`` characters at a time, and the
    state's ``re`` and ``im`` arrays are decoded one row at a time into
    float64 buffers.  From ``SPLIT_BYTES`` on, in a process allowed to run on
    two or more CPUs, a forked helper decodes the odd rows at the same time;
    it is reaped before this returns or raises.  So neither the file's whole
    text nor the 2 D^2 Python floats of a whole parsed tree (four times the
    complex matrix) are ever held; text that is not a plain problem object with square arrays of
    numbers goes through :func:`read_json` as a whole.  The float buffers
    are released before the state is admitted, and the admitted state keeps
    the freshly built matrix without a copy, so admission's three D x D
    complex buffers are the peak.
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
    bounds = {f"{key}_tol": value for key, value in (tolerances or {}).items() if key in ADMISSION}
    state = BipartiteState(_Handover(matrix), dims, **bounds)
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
    layout = decomp.spectrum.layout
    rows = []
    for i, energy in enumerate(decomp.spectrum.energies):
        probs = decomp.probs[layout.span(i)]
        rows.append(
            [
                fraction_key(energy),
                repr(float(probs.sum())),
                ";".join(repr(float(p)) for p in probs),
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
    c_x = _distinct_texts(scan.c_x)
    # plane_scan's c_y is c_x itself: one buffer, formatted once
    c_y = c_x if scan.c_y is scan.c_x else _distinct_texts(scan.c_y)
    columns = [c_x, c_y] + [
        _distinct_texts(values) for values in (scan.c_z, scan.max_transfer, scan.concurrence)
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
