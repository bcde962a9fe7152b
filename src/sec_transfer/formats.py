"""JSON and CSV wire formats.

Schemas
-------
Hamiltonian        ``{"energies": [[num, den], ...], "labels": ["...", ...]}``
                   (labels optional; when given, one string per level,
                   checked, not kept).
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
Decomposition      ``{"p_E", "blocks", "coherence_blocks"}``, keyed by block
                   energy and by sorted ``"<E1>|<E2>"`` pair; CSV: a row a block.
Verify report      ``{"seed", "checks"}``, each check ``{"name", "passed",
                   "detail"}``; its table prints one line per check.

The library names a block by its index in the spectrum's block order; the
energy keys above are made from those indices here, where blocks meet text.

Floats are serialized with Python's shortest round-trip representation, so
every emitted value parses back to the exact double and identical inputs
produce byte-identical files.

A problem file is walked rather than parsed whole: it is read
``PROBLEM_CHUNK`` characters at a time, json's own decoder reads each key
and value of the problem and state objects, and orjson reads the state's
``re`` and ``im`` arrays one row at a time, each row checked to hold only
numbers and copied into a float64 buffer.  orjson gives json's double for
every number json reads as a float; a row it refuses (``1e400``, ``NaN``,
...) or that holds a float of magnitude 2**63 or more (orjson's reading of
an integer literal past int64, which json keeps as an int) is not walked.
Neither the file's whole text nor a D = 1024 state as 2 D^2 Python floats
(about 64 MB against the 16 MB complex matrix) is ever held.  A file of at
least ``SPLIT_BYTES``, read by a process allowed to run on two or more CPUs
(the count that also sizes the Monte-Carlo search), is walked by two
processes at once: a forked helper decodes rows 1, 3, 5, ... and sends them
down a pipe, while the reading process decodes the even ones; each steps
over the other's rows.  Text the walk does not take (an integer outside
int64, duplicate keys, any syntax error, ...) is parsed again by
``read_json``, so its errors and values are those of ``json.load``.  A file
that is not a regular file (a pipe) is read whole into one string, which is
walked in one process and, if the walk does not take it, parsed by json.

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
from .jsonio import _reject_constant, _require, dump_json, parse_json, read_json, read_text
from .spectra import Hamiltonian, JointSpectrum, build_joint_spectrum
from .states import BipartiteState, StateDecomposition, _Handover, _usable_cpus
from .tolerances import ADMISSION

if TYPE_CHECKING:  # the report types, named only in annotations
    from .classify import FlowClassification
    from .optimize import OptimizationResult
    from .qubits import PlaneScan
    from .transfer import TransferReport
    from .unitaries import SecUnitary
    from .verify import CheckResult


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def fraction_to_json(value: Fraction) -> list[int]:
    return [value.numerator, value.denominator]


def fraction_key(value: Fraction) -> str:
    return str(value)


def hamiltonian_to_json(h: Hamiltonian) -> dict:
    """The inverse of :func:`hamiltonian_from_json`, which the tests check through it."""
    return {"energies": [fraction_to_json(e) for e in h.energies]}


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
    # labels name the levels: checked (type before the levels, length after), then dropped
    labels = data.get("labels", [])
    if not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
        raise ValidationError(f"Hamiltonian labels must be an array of strings, got {labels!r}")
    h = Hamiltonian(tuple(parsed))
    if "labels" in data and len(labels) != h.dim:
        raise ValidationError("labels must match energies in length")
    return h


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


def verify_report_to_json(seed: int, results: list[CheckResult]) -> dict:
    return {"seed": seed, "checks": [vars(r) for r in results]}


def verify_table(results: list[CheckResult]) -> str:
    """One line per property: its name, PASS or FAIL, and its detail."""
    width = max(len(r.name) for r in results)
    return "\n".join(
        f"{r.name.ljust(width)}  {'PASS' if r.passed else 'FAIL'}  {r.detail}" for r in results
    )


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
# way.  With orjson decoding the rows, one process walks a ladder D = 1024
# file (47.8 MiB) in 0.21-0.24 s, best of 5 to 7, at every chunk from 16 KiB
# to 1 MiB, and a ladder 13 x 13 one (1.3 MiB) in 7.5-8.0 ms, best of 30.
# Its traced peak grows with the chunk: 16.4 MiB at 64 KiB against 21.1 MiB
# at 1 MiB on the first, 0.8 against 4.5 MiB on the second.  Smaller chunks
# save less than 0.3 MiB more.
PROBLEM_CHUNK = 1 << 16

# Bytes from which a problem file's state rows are decoded by two processes,
# where this one may run on two CPUs: a forked helper takes every other row.
# Measured end to end (2 vCPUs, Python 3.11.7, orjson 3.8.3): ``decompose``
# on ladder files through ``python -m sec_transfer.cli``, 60 alternating
# pairs each, split against one process, medians and the pairs the split
# won: 3.1 MB 176.7 against 175.0 ms (26/60), 5.0 MB 202.2 against 199.1
# (25/60), 6.2 MB 193.0 against 192.8 and 217.2 against 209.1 (24/60, 18/60
# in two batches), 7.6 MB 200.2 against 201.2 and 208.4 against 213.0
# (38/60 twice), 9.3 MB 217.0 against 222.1 (37/60), 11.2 MB 234.1 against
# 236.9 (38/60), 15.8 MB 240.8 against 255.1 (52/60).  Timed alone in a
# fresh process that has loaded the library, ``_read_problem`` splits
# better from 5 MB on (30 alternating pairs: 29.6 against 30.5 ms, won
# 19/30; 7.6 MB 35.4 against 42.6, 26/30; 50.2 MB 188 against 239, 29/30),
# and worse below 3 MB (1.8 MB 16.9 against 13.7, 1/30).
SPLIT_BYTES = 7 << 20


class _Unwalkable(Exception):
    """Problem-file text the walk leaves to :func:`read_json`."""


class _Text:
    """The unread text of a problem file, read ``PROBLEM_CHUNK`` characters at a time.

    ``text[at:]`` is what the walk has not consumed; the rest is dropped when
    more is read.  With no ``handle``, ``text`` is the whole file, already
    ended, and is never copied.
    """

    __slots__ = ("handle", "text", "at", "ended")

    def __init__(self, handle, text: str = ""):
        self.handle = handle
        self.text = text
        self.at = 0
        self.ended = handle is None

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

    def row(self) -> list:
        """The array at the next character, up to its first ``]``, decoded once by orjson.

        Text orjson refuses (``1e400``, ``NaN``, a nested array, a string
        holding ``]``, ...) raises :class:`_Unwalkable`.
        """
        import orjson  # only here: a run that reads no state row never loads it

        if self.peek() != "[":
            raise _Unwalkable
        while (end := self.text.find("]", self.at)) < 0:
            if self.ended:
                raise _Unwalkable
            self.more(math.inf, "]")
        try:
            row = orjson.loads(self.text[self.at : end + 1])
        except orjson.JSONDecodeError:
            raise _Unwalkable from None
        self.at = end + 1
        return row


def _numbers(row: list) -> bool:
    """Whether a row holds only numbers numpy reads as it reads :func:`read_json`'s lists.

    Integers are taken in int64's range, where both round them to the
    nearest float64; past it numpy makes the lists an unsigned or object
    array.  orjson gives an int only from -2**63 on (it reads an integer
    literal outside [-2**63, 2**64) as a float, which :func:`_walk_rows`
    refuses), so only the upper end is checked.
    """
    kinds = set(map(type, row))
    if not kinds or not kinds <= _NUMBERS:
        return False
    return int not in kinds or max(x for x in row if type(x) is int) < 2**63


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

    orjson reads every number as json does, except an integer literal
    outside [-2**63, 2**64): orjson gives a float, json an int that numpy
    cannot take.  So a row holding a float of magnitude 2**63 or more is not
    walked (the int -2**63 is).  Only one row's Python numbers are alive at
    once.  The buffer is allocated from the first row's length, once
    ``size`` (the file's bytes) could hold that many rows (each entry takes
    at least one character), so it is never more than eight bytes per byte
    of the file.  Of the other rows, only those of ``part`` (``(index,
    count)``: the rows ``i`` with ``i % count == index``) are decoded and
    checked; the rest are stepped over to their first ``]`` and left unset,
    for the process that decodes them to check.
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
            if not _numbers(row):
                raise _Unwalkable
            if rows is None:
                if len(row) ** 2 > size:
                    raise _Unwalkable
                rows = np.empty((len(row), len(row)))
            if len(row) != len(rows):
                raise _Unwalkable
            rows[filled] = row
            if np.abs(rows[filled]).max() >= 2**63 and any(
                type(x) is float and abs(x) >= 2**63 for x in row
            ):
                raise _Unwalkable
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
    return _walk(_Text(source), size, part)


def _walk(text: _Text, size: int, part: tuple[int, int]) -> dict:
    """:func:`_walk_problem` on ``text``."""

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
    regular file (a pipe, say), which can be read only once, is read whole
    into one string, walked in one process, and parsed by
    :func:`~sec_transfer.jsonio.parse_json` if the walk does not take it.
    """
    with open(path, "r", encoding="utf-8") as handle:
        status = os.fstat(handle.fileno())
        # a pipe can be read only once: its whole text is walked, and kept for json
        text = None if stat.S_ISREG(status.st_mode) else read_text(handle, path)
        try:
            if text is not None:
                return _walk(_Text(None, text), len(text), (0, 1))
            if status.st_size >= SPLIT_BYTES and hasattr(os, "fork") and _usable_cpus() >= 2:
                return _walk_split(path, handle, status.st_size)
            return _walk_problem(handle, status.st_size)
        except (_Unwalkable, ValueError, ValidationError, RecursionError):
            pass  # leaving the handler frees the walk's text and rows before json parses the file
    return read_json(path) if text is None else parse_json(text, path)


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


def _block_populations(decomp: StateDecomposition) -> list[tuple[str, np.ndarray]]:
    """Per block, in block order: its energy key and its populations."""
    layout = decomp.spectrum.layout
    return [
        (fraction_key(energy), decomp.probs[layout.span(i)])
        for i, energy in enumerate(decomp.spectrum.energies)
    ]


def decomposition_to_json(decomp: StateDecomposition) -> dict:
    blocks = _block_populations(decomp)
    return {
        "p_E": {key: float(probs.sum()) for key, probs in blocks},
        "blocks": {key: [float(p) for p in probs] for key, probs in blocks},
        "coherence_blocks": sorted(
            f"{blocks[i][0]}|{blocks[j][0]}" for i, j in decomp.coh_blocks.tolist()
        ),
    }


DECOMP_CSV_HEADER = ["E", "p_E", "probs", "chi_same_energy_max", "chi_cross_energy_max"]


def decomposition_summary_rows(decomp: StateDecomposition) -> list[list[str]]:
    """One CSV row per block: probability, populations, coherence magnitudes."""
    peaks = decomp.coherence_peaks()
    same = np.diagonal(peaks).copy()
    np.fill_diagonal(peaks, 0.0)
    cross = np.maximum(peaks.max(axis=0), peaks.max(axis=1))
    return [
        [
            key,
            repr(float(probs.sum())),
            ";".join(repr(float(p)) for p in probs),
            repr(float(same[i])),
            repr(float(cross[i])),
        ]
        for i, (key, probs) in enumerate(_block_populations(decomp))
    ]


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
